"""Compactly supported orthonormal wavelets on dyadic grids.

Filters are computed by spectral factorization of the half-band polynomial in
extended precision, then rounded to doubles; the scaling function is sampled
exactly on dyadic points (integer-grid eigenvector plus two-scale refinement).
Analysis and synthesis run the Mallat filter-bank pyramid over prototypes
sampled on the grid each uses; they are adjoints for the grid inner product.
"""

from __future__ import annotations

import functools
import itertools
import math
import zipfile
from dataclasses import dataclass

import mpmath
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dyadic import DyadicCube, LatticeWindow, grid_cells, tensor_points
from .errors import PreconditionError
from .seq import CoeffField, NormResult, as_float_or_complex, seq_norms_weighted

# Documented global Hoelder regularity estimates for the standard compactly
# supported orthonormal family, by vanishing-moment count.  Order 1 is the
# discontinuous indicator pair.  Beyond order 8 we use the conservative
# linear lower bound ~0.2075 * order.
HOLDER_ESTIMATES = {
    1: 0.0,
    2: 0.55,
    3: 1.087,
    4: 1.617,
    5: 1.969,
    6: 2.189,
    7: 2.460,
    8: 2.760,
}


def documented_holder(order: int) -> float:
    if order in HOLDER_ESTIMATES:
        return HOLDER_ESTIMATES[order]
    return 0.2075 * order


@dataclass(frozen=True)
class FilterPair:
    """Orthonormal scaling/wavelet filter pair with metadata."""

    h: np.ndarray
    g: np.ndarray
    order: int                 # vanishing-moment count
    holder: float              # documented regularity estimate

    @property
    def length(self) -> int:
        return len(self.h)

    @property
    def support_width(self) -> int:
        """The support of the scaling function is [0, support_width]."""
        return self.length - 1

    def invariant_report(self) -> dict:
        """Relative residuals of the defining filter identities."""
        h, g = self.h, self.g
        L = len(h)
        sum_res = abs(float(np.sum(h)) - math.sqrt(2.0)) / math.sqrt(2.0)
        orth = 0.0
        for mshift in range(L // 2):
            s = float(np.sum(h[: L - 2 * mshift] * h[2 * mshift:]))
            target = 1.0 if mshift == 0 else 0.0
            orth = max(orth, abs(s - target))
        moments = 0.0
        k = np.arange(L, dtype=float)
        for j in range(self.order):
            terms = k ** j * g
            denom = max(float(np.sum(np.abs(terms))), 1e-300)
            moments = max(moments, abs(float(np.sum(terms))) / denom)
        return {"sum": sum_res, "orthonormality": orth, "moment": moments,
                "max": max(sum_res, orth, moments)}


# Newton steps allowed a root; from the float64 starts, orders 2 to 20 take 3
# to 5 steps a root on average.
_NEWTON_STEPS = 40


def _polished_roots_inside(coeffs: list) -> list:
    """The roots inside the unit circle of the polynomial with mpf
    coefficients ``coeffs`` (highest degree first), at the working precision:
    the float64 roots of ``np.roots``, each polished by Newton steps until a
    step falls below two thirds of the working digits (convergence is
    quadratic, so that step leaves an error at the evaluation noise).
    Refuses a root whose steps do not converge and two starts that reach one
    root."""
    tol = mpmath.mpf(10) ** -(2 * mpmath.mp.dps // 3)
    inside = []
    for z in np.roots(np.array([float(c) for c in coeffs])):
        if abs(z) >= 1:
            continue
        r = mpmath.mpc(complex(z))
        for _ in range(_NEWTON_STEPS):
            p, dp = mpmath.polyval(coeffs, r, derivative=True)
            step = p / dp
            r -= step
            if abs(step) <= tol * abs(r):
                break
        else:
            raise PreconditionError(f"spectral factorization: the root near {complex(z)} "
                                    "does not converge")
        if any(abs(r - s) <= tol * abs(r) for s in inside):
            raise PreconditionError("spectral factorization failed to split roots")
        inside.append(r)
    return inside


def _poly_mul(a: list, b: list) -> list:
    """Coefficients, lowest power first, of the product of two polynomials."""
    out = [mpmath.mpf(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return out


def daubechies_filter(order: int) -> FilterPair:
    """Minimal-length orthonormal filter with the given vanishing-moment count.

    Spectral factorization with 60-digit roots (the float64 roots polished by
    Newton steps); coefficients are the correctly rounded doubles of the
    high-precision construction.
    """
    if not (1 <= order <= 20):
        raise PreconditionError("filter order must lie in [1, 20]")
    if order == 1:
        h = np.array([1.0, 1.0]) / math.sqrt(2.0)
    else:
        with mpmath.workdps(60):
            # half-band polynomial P(y) = sum_j C(order-1+j, j) y^j, then
            # y -> (2 - z - 1/z)/4, cleared to an ordinary polynomial in z
            deg = 2 * (order - 1)
            total = [mpmath.mpf(0)] * (deg + 1)
            for j in range(order):
                c = mpmath.binomial(order - 1 + j, j) * mpmath.mpf(-4) ** (-j)
                # (z - 1)^{2j}, shifted by z^{order-1-j}
                for i in range(2 * j + 1):
                    coeff = mpmath.binomial(2 * j, i) * mpmath.mpf(-1) ** (2 * j - i)
                    total[order - 1 - j + i] += c * coeff
            inside = _polished_roots_inside(list(reversed(total)))
            if len(inside) != order - 1:
                raise PreconditionError("spectral factorization failed to split roots")
            # q(z) = prod (z - r), expanded; complex roots pair up to real output
            q = functools.reduce(_poly_mul, ([-r, 1] for r in inside), [mpmath.mpf(1)])
            q = [mpmath.re(c) for c in q]
            half = mpmath.mpf(1) / 2
            m = functools.reduce(_poly_mul, [[half, half]] * order, [mpmath.mpf(1)])
            hmp = _poly_mul(m, q)
            total_sum = sum(hmp)
            hmp = [c * mpmath.sqrt(2) / total_sum for c in hmp]
            h = np.array([float(c) for c in hmp])
    L = len(h)
    g = np.array([(-1) ** k * h[L - 1 - k] for k in range(L)])
    fp = FilterPair(h, g, order, documented_holder(order))
    rep = fp.invariant_report()
    if rep["max"] > 1e-10:
        raise PreconditionError(f"filter invariants violated: {rep}")
    return fp


# Finest cascade grid; an order-20 prototype there is 39 * 2**16 + 1 samples (20 MB).
MAX_RESOLUTION = 16


def cascade(fp: FilterPair, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Sampled scaling and wavelet prototypes on the grid 2**-resolution.

    Returns arrays of length (L-1)*2**resolution + 1 covering [0, L-1];
    values at dyadic points satisfy the two-scale relation exactly, so they
    equal the samples of any finer grid at the points both hold, bit for bit.
    """
    if not (0 <= resolution <= MAX_RESOLUTION):
        raise PreconditionError(f"cascade resolution must lie in [0, {MAX_RESOLUTION}], "
                                f"got {resolution}")
    L = fp.length
    # integer values: the unit eigenvector of T[a, b] = sqrt2 h[2a - b]
    idx = 2 * np.arange(L - 1)[:, None] - np.arange(L - 1)
    T = np.where((idx >= 0) & (idx < L), math.sqrt(2.0) * fp.h[np.clip(idx, 0, L - 1)], 0.0)
    w, v = np.linalg.eig(T)
    i = int(np.argmin(np.abs(w - 1.0)))
    if abs(w[i] - 1.0) > 1e-8:
        raise PreconditionError("cascade failed: no unit eigenvalue (invalid filter)")
    phi_int = np.real(v[:, i])
    prev = np.concatenate([phi_int / np.sum(phi_int), [0.0]])  # 0..L-1 at unit spacing
    for r in range(1, resolution + 1):
        # keep the coarser samples; the two-scale relation gives the odd ones
        cur = np.zeros((L - 1) * (1 << r) + 1)
        cur[::2] = prev
        cur[1::2] = _two_scale(fp.h, cur, r)[1::2]
        prev = cur
    return prev, _two_scale(fp.g, prev, resolution)


def _two_scale(filt: np.ndarray, phi: np.ndarray, resolution: int) -> np.ndarray:
    """sqrt2 * sum_k filt[k] * phi(2x - k) on the sample grid 2**-resolution
    of phi; 2x - k lands on the same grid, and phi is zero off its samples.
    Tap k adds, in tap order, the samples 2i - o (o = k * 2**resolution) of
    phi to the entries i from ceil(o / 2) on: one strided slice."""
    N = len(phi)
    out = np.zeros(N)
    for k, c in enumerate(filt):
        o = k << resolution
        lo = (o + 1) // 2              # first entry whose sample 2i - o is >= 0
        src = phi[2 * lo - o::2][:max(N - lo, 0)]
        out[lo:lo + len(src)] += math.sqrt(2.0) * c * src
    return out


def refinement_residual(fp: FilterPair, phi: np.ndarray, resolution: int) -> float:
    """Sup-norm residual of the two-scale relation on the sample grid."""
    return float(np.max(np.abs(phi - _two_scale(fp.h, phi, resolution))))


def filter_moments(fp: FilterPair, up_to: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact moment recursion: integrals of x^j against the two prototypes."""
    L = len(fp.h)
    k = np.arange(L, dtype=float)
    mu = np.array([float(np.sum(fp.h * k ** r)) for r in range(up_to + 1)])
    nu = np.array([float(np.sum(fp.g * k ** r)) for r in range(up_to + 1)])
    sqrt2 = math.sqrt(2.0)
    Mphi = np.zeros(up_to + 1)
    Mphi[0] = 1.0
    for j in range(1, up_to + 1):
        s = sum(math.comb(j, i) * Mphi[i] * mu[j - i] for i in range(j))
        Mphi[j] = sqrt2 * 2.0 ** (-j - 1) * s / (1.0 - 2.0 ** -j)
    Mpsi = np.zeros(up_to + 1)
    for j in range(up_to + 1):
        Mpsi[j] = sqrt2 * 2.0 ** (-j - 1) * sum(
            math.comb(j, i) * Mphi[i] * nu[j - i] for i in range(j + 1))
    return Mphi, Mpsi


def find_k0(phi: np.ndarray, resolution: int) -> int:
    """Integer with the largest |phi| value; returned with the sign convention
    that phi(-k0) is that value."""
    ints = phi[:: 1 << resolution]
    pos = int(np.argmax(np.abs(ints)))
    if abs(ints[pos]) <= 1e-6:
        raise PreconditionError("the scaling function carries no mass at any integer")
    return -pos


class WaveletSystem:
    """Tensor wavelets built from one filter pair, sampled exactly on dyadics."""

    def __init__(self, n: int, fp: FilterPair, resolution: int = 12):
        self.n = int(n)
        self.fp = fp
        self.resolution = int(resolution)
        self.phi, self.psi = cascade(fp, resolution)
        res = refinement_residual(fp, self.phi, resolution)
        if res > 1e-8:
            raise PreconditionError(f"refinement residual {res:.2e} too large")
        self.k0 = find_k0(self.phi, resolution)
        self.channels = [lam for lam in itertools.product((0, 1), repeat=n)
                         if any(lam)]

    @property
    def support_width(self) -> int:
        return self.fp.support_width

    @property
    def scaling_channel(self) -> tuple[int, ...]:
        return (0,) * self.n

    def phi_at_integer(self, bit: int, t: int) -> float:
        """Prototype value at an integer argument (zero outside the support)."""
        if not (0 <= t <= self.support_width):
            return 0.0
        return float((self.phi if bit == 0 else self.psi)[t << self.resolution])

    def evaluate(self, lam: tuple[int, ...], q: DyadicCube, pts: np.ndarray) -> np.ndarray:
        """theta^{(lam)}_Q at arbitrary points (nearest-sample lookup)."""
        pts = np.atleast_2d(pts)
        out = np.full(pts.shape[0], math.ldexp(1.0, q.j * self.n) ** 0.5)
        for axis in range(self.n):
            t = pts[:, axis] * (2.0 ** q.j) - q.k[axis]
            idx = np.rint(t * (1 << self.resolution)).astype(int)
            arr = self.phi if lam[axis] == 0 else self.psi
            ok = (idx >= 0) & (idx < len(arr))
            vals = np.where(ok, arr[np.clip(idx, 0, len(arr) - 1)], 0.0)
            out = out * vals
        return out


# The arrays of a sample archive: the dtype kinds and the dimension each may have.
_SAMPLE_ARRAYS = {"n": ("iu", 0), "m": ("iu", 0), "grid_level": ("iu", 0),
                  "start": ("iu", 1), "values": ("iufc", None)}


@dataclass
class FunctionSample:
    """Vector-valued samples on a uniform dyadic grid (left-endpoint convention).

    values has shape (m, N1, ..., Nn); the sample at index i sits at
    x = (start + i) * 2**-grid_level.  Real values are held as float64,
    complex ones as complex128.
    """

    n: int
    m: int
    grid_level: int
    start: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        self.values = as_float_or_complex(self.values)
        if self.values.shape[0] != self.m or self.values.ndim != self.n + 1:
            raise PreconditionError("sample array shape does not match (m, N1..Nn)")
        bad = ~np.isfinite(self.values)
        if bad.any():
            idx = tuple(np.argwhere(bad)[0].tolist())
            raise PreconditionError(f"non-finite sample value at index {idx} (channel, grid index)")
        self.start = tuple(int(s) for s in self.start)
        if len(self.start) != self.n:
            raise PreconditionError(f"sample start {self.start} has {len(self.start)} "
                                    f"entries, expected n = {self.n}")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape[1:]

    @property
    def h(self) -> float:
        return math.ldexp(1.0, -self.grid_level)

    def axis_points(self, axis: int) -> np.ndarray:
        return (self.start[axis] + np.arange(self.shape[axis])) * self.h

    def energy(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.h ** self.n)

    def save(self, path: str) -> None:
        """Write an npz archive to exactly ``path``.  Real values are stored
        as they are, and complex ones as float64 when every imaginary part is
        +0.0, so :meth:`load` gives back the same values bit for bit: complex
        values with a nonzero or -0.0 imaginary part stay complex128."""
        values = self.values
        if np.iscomplexobj(values) and not np.any(values.imag.view(np.uint64)):
            values = np.ascontiguousarray(values.real)
        with open(path, "wb") as fh:
            np.savez(fh, n=self.n, m=self.m, grid_level=self.grid_level,
                     start=np.array(self.start), values=values)

    @classmethod
    def load(cls, path: str) -> "FunctionSample":
        """Read a :meth:`save` archive.  Refuses, naming the file, one that is
        no npz archive, lacks one of its arrays, holds object data or
        non-numbers, or does not describe a valid sample."""
        try:
            data = np.load(path)
        except (ValueError, zipfile.BadZipFile):  # pickled or corrupt data
            data = None
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise PreconditionError(f"sample file {path!r} is not an npz archive")
        with data:
            missing = [k for k in _SAMPLE_ARRAYS if k not in data.files]
            if missing:
                raise PreconditionError(f"sample file {path!r} lacks {', '.join(missing)}")
            try:
                arrays = {k: data[k] for k in _SAMPLE_ARRAYS}
            except ValueError as exc:  # object arrays, which need pickle
                raise PreconditionError(f"sample file {path!r}: {exc}") from exc
        for k, (kinds, ndim) in _SAMPLE_ARRAYS.items():
            a = arrays[k]
            if a.dtype.kind not in kinds or ndim not in (None, a.ndim):
                raise PreconditionError(f"sample file {path!r} holds {k} as a "
                                        f"{a.ndim}-d {a.dtype} array")
        try:
            return cls(int(arrays["n"]), int(arrays["m"]), int(arrays["grid_level"]),
                       tuple(arrays["start"].tolist()), arrays["values"])
        except PreconditionError as exc:
            raise PreconditionError(f"sample file {path!r}: {exc}") from exc

    @classmethod
    def from_callable(cls, f, n: int, m: int, grid_level: int, lo, hi) -> "FunctionSample":
        """Samples of f on the level-``grid_level`` grid of the box [lo, hi),
        whose cells must tile the box; f maps points (N, n) to values (N,)
        or (m, N).  f runs on slabs of rows of the first axis, about
        SLAB_ENTRIES values each, so no full-grid point array is built.  The
        sample is real unless f returns complex values."""
        start, shape = grid_cells(lo, hi, grid_level, "sample grid", "box")
        axes = [(start[i] + np.arange(shape[i])) * math.ldexp(1.0, -grid_level)
                for i in range(n)]
        values = np.empty((m,) + shape)
        for sl in _slabs(values):
            rows = axes[0][sl]
            vals = np.asarray(f(tensor_points([rows] + axes[1:])))
            if np.iscomplexobj(vals) and not np.iscomplexobj(values):
                values = values.astype(complex)
            values[:, sl] = vals.reshape((m, len(rows)) + shape[1:])
        return cls(n, m, grid_level, start, values)


# Sample grid levels that analysis needs below the window's finest level.
MIN_HEADROOM = 4

# Grid entries per slab of rows in the full-grid steps (as ad and czo block theirs).
SLAB_ENTRIES = 1 << 18


def _tap_rows(taps: np.ndarray, stride: int, scale: float) -> np.ndarray:
    """``scale * taps`` cut into rows of ``stride``, the last one zero-padded."""
    rows = np.zeros(-(-len(taps) // stride) * stride)
    rows[:len(taps)] = scale * taps
    return rows.reshape(-1, stride)


def _axis_corr(values: np.ndarray, axis: int, taps: np.ndarray, stride: int,
               k_range: tuple[int, int], s: int, scale: float) -> np.ndarray:
    """Along ``axis``, out[k] = scale * sum_t values[k*stride - s + t] * taps[t]
    for k in [k_range[0], k_range[1]), with zeros outside ``values``.  With the
    taps cut into R rows, out[k] = sum_r block_{k+r} . row_r over the sample
    blocks of ``stride``: one product, then R shifted adds."""
    values = np.moveaxis(values, axis, -1)
    rows = _tap_rows(taps, stride, scale)
    nk = max(k_range[1] - k_range[0], 0)
    p0 = k_range[0] * stride - s                # first sample of block 0
    blocks = np.zeros(values.shape[:-1] + ((nk + len(rows) - 1) * stride,), dtype=values.dtype)
    a, b = max(p0, 0), min(p0 + blocks.shape[-1], values.shape[-1])
    if a < b:
        blocks[..., a - p0:b - p0] = values[..., a:b]
    prods = blocks.reshape(blocks.shape[:-1] + (-1, stride)) @ rows.T
    return np.moveaxis(sum(prods[..., r:r + nk, r] for r in range(len(rows))), -1, axis)


def _axis_scatter(coef: np.ndarray, axis: int, taps: np.ndarray, stride: int,
                  k_lo: int, s: int, out_len: int, scale: float) -> np.ndarray:
    """Adjoint of _axis_corr along ``axis``: cube k_lo + i adds scale * coef[i]
    * taps[t] to output sample (k_lo + i) * stride - s + t of ``out_len``.  Block
    b of stride samples receives sum_r coef[b - r] * row_r: one product of the
    length-R windows of coef with the reversed tap rows."""
    coef = np.moveaxis(coef, axis, -1)
    rows = _tap_rows(taps, stride, scale)
    R, lead = len(rows), coef.shape[:-1]
    padded = np.zeros(lead + (coef.shape[-1] + 2 * (R - 1),), dtype=coef.dtype)
    padded[..., R - 1:R - 1 + coef.shape[-1]] = coef
    blocks = (sliding_window_view(padded, R, axis=-1) @ rows[::-1]).reshape(lead + (-1,))
    p0 = k_lo * stride - s                      # first sample of block 0
    out = np.zeros(lead + (out_len,), dtype=coef.dtype)
    a, b = max(p0, 0), min(p0 + blocks.shape[-1], out_len)
    if a < b:
        out[..., a:b] = blocks[..., a - p0:b - p0]
    return np.moveaxis(out, -1, axis)


def _slabs(arr: np.ndarray) -> list[slice]:
    """Slices of the axis-0 rows of an (m, ...) array, SLAB_ENTRIES entries a slab."""
    step = max(1, SLAB_ENTRIES // max(arr[:, 0].size, 1))
    return [slice(a, a + step) for a in range(0, max(arr.shape[1], 1), step)]


def _split(arr: np.ndarray, taps, stride: int, frame, starts, scale: float) -> dict:
    """Correlate ``arr`` (m, ...) along every axis with each of ``taps``: a
    dict from bits, bit i naming the taps of axis i, to arrays over the index
    ranges ``frame``; ``starts`` are the input's first indices.  The trailing
    axes run in slabs of rows, and the 2^n outputs share the work."""
    def corr(parts, i):
        return {bits[:i] + (b,) + bits[i:]: _axis_corr(a, 1 + i, t, stride, frame[i], starts[i],
                                                       scale)
                for bits, a in parts.items() for b, t in enumerate(taps)}

    slabs = []
    for sl in _slabs(arr):
        parts = {(): arr[:, sl]}
        for i in range(1, arr.ndim - 1):
            parts = corr(parts, i)
        slabs.append(parts)
    return corr({bits: np.concatenate([s[bits] for s in slabs], axis=1) for bits in slabs[0]}, 0)


def _merge(parts: dict, taps, stride: int, k_lo, starts, out: np.ndarray, scale: float) -> None:
    """Add to ``out`` every array of ``parts`` scattered along every axis with
    the taps its bits name, the adjoint of _split; ``k_lo`` are the inputs'
    first indices and ``starts`` the output's.  Axis 0 runs first."""
    for bits, arr in parts.items():
        rows = _axis_scatter(arr, 1, taps[bits[0]], stride, k_lo[0], starts[0], out.shape[1],
                             scale)
        for sl in _slabs(out):
            slab = rows[:, sl]
            for i in range(1, out.ndim - 1):
                slab = _axis_scatter(slab, 1 + i, taps[bits[i]], stride, k_lo[i], starts[i],
                                     out.shape[1 + i], scale)
            out[:, sl] += slab


def _real_if_no_imaginary(values: np.ndarray) -> np.ndarray:
    """The real part of complex ``values`` whose imaginary parts all vanish,
    so the filter bank runs in real arithmetic; other values as they are."""
    return values.real if np.iscomplexobj(values) and not values.imag.any() else values


def _frames(start, shape, grid_level: int, L: int, levels) -> dict:
    """Per level j, the index range along each axis of the prototypes whose
    support [k, k + L - 1] * 2^-j meets the grid samples [start, start + shape)."""
    return {j: [(-(-s >> (grid_level - j)) - (L - 1), ((s + N - 1) >> (grid_level - j)) + 1)
                for s, N in zip(start, shape)] for j in levels}


def analyze(f: FunctionSample, sys: WaveletSystem, window: LatticeWindow,
            include_scaling: bool = True) -> dict:
    """Grid inner products against all window wavelets, by the Mallat
    pyramid: the samples against the scaling prototype at level J = j_max + 1,
    then c_j[k] = sum_l h_l c_{j+1}[2k + l] and d_j[k] = sum_l g_l c_{j+1}[2k + l]
    down to j_min.  A level spans the indices whose support meets the samples;
    the window cuts it only when it is written.  Returns a dict mapping channel
    tuples to coefficient fields; when include_scaling is set, the all-zeros
    channel holds the coarsest-level scaling coefficients.
    """
    if f.n != sys.n or f.n != window.n:
        raise PreconditionError("dimension mismatch between sample, system, and window")
    g, J = f.grid_level, window.j_max + 1
    if g < window.j_max + MIN_HEADROOM:
        raise PreconditionError(
            f"sample grid level {g} too coarse for finest window level {window.j_max}"
            f" (needs headroom {MIN_HEADROOM})")
    frames = _frames(f.start, f.shape, g, sys.fp.length, range(window.j_min, J + 1))
    zero = sys.scaling_channel
    out = {lam: CoeffField(window, f.m)
           for lam in list(sys.channels) + ([zero] if include_scaling else [])}
    top, starts = _real_if_no_imaginary(f.values), f.start
    taps, stride = cascade(sys.fp, g - J)[:1], 1 << (g - J)
    scale = math.ldexp(2.0 ** (J / 2.0), -g)  # 2^{J/2} * h
    for j in range(J, window.j_min - 1, -1):
        parts = _split(top, taps, stride, frames[j], starts, scale)
        top, starts = parts[zero], [a for a, _ in frames[j]]
        taps, stride, scale = (sys.fp.h, sys.fp.g), 2, 1.0
        ov = out[sys.channels[0]].overlap(j, starts, top.shape[1:])
        for lam, tf in out.items():
            if ov is not None and (lam != zero or j == window.j_min):
                tf.write(j, [a + sl.start for a, sl in zip(starts, ov[0])],
                         parts[lam][(slice(None),) + ov[0]])
    return out


def synthesize(coefs: dict, sys: WaveletSystem, grid_level: int,
               start: tuple[int, ...], shape: tuple[int, ...], m: int) -> FunctionSample:
    """Sum of coefficient * wavelet over all channels, sampled on the grid, by
    the transposed pyramid: a_{j+1}[2k + l] += h_l a_j[k] + g_l d_j[k] from the
    coarsest present level up to J = min(finest present level + 1, grid_level),
    then level J scattered onto the grid.  A level spans the indices whose
    support meets the grid: any other feeds only finer ones that miss it too.
    The sample is real when no level has a nonzero imaginary part.  A field
    that holds coefficients must have dimension m.
    """
    levels = {lam: tf.levels() for lam, tf in coefs.items()}
    for lam, tf in coefs.items():
        if levels[lam] and tf.m != m:
            raise PreconditionError(f"channel {''.join(map(str, lam))} holds vectors of "
                                    f"dimension m = {tf.m}, but the synthesis has m = {m}")
    present = sorted({j for js in levels.values() for j in js})
    if not present:
        return FunctionSample(sys.n, m, grid_level, tuple(start), np.zeros((m,) + tuple(shape)))
    if grid_level < present[-1]:
        raise PreconditionError("synthesis grid coarser than a coefficient level")
    J = min(present[-1] + 1, grid_level)
    frames = _frames(start, shape, grid_level, sys.fp.length, range(present[0], J + 1))
    parts, k_lo = {}, None
    for j, frame in frames.items():
        lo = [a for a, _ in frame]
        up = np.zeros((m,) + tuple(b - a for a, b in frame),
                      dtype=np.result_type(float, *parts.values()))
        _merge(parts, (sys.fp.h, sys.fp.g), 2, k_lo, lo, up, 1.0)
        parts, k_lo = {sys.scaling_channel: up}, lo
        for lam, tf in coefs.items():
            ov = tf.overlap(j, lo, up.shape[1:]) if j in levels[lam] else None
            if ov is not None:
                level = _real_if_no_imaginary(tf.level(j))
                block = np.zeros_like(up, dtype=level.dtype)
                block[(slice(None),) + ov[0]] = level[(slice(None),) + ov[1]]
                parts[lam] = parts.get(lam, 0) + block
    res = grid_level - J
    out = np.zeros((m,) + tuple(shape), dtype=np.result_type(float, *parts.values()))
    _merge(parts, cascade(sys.fp, res), 1 << res, k_lo, start, out, 2.0 ** (J / 2.0))
    return FunctionSample(sys.n, m, grid_level, tuple(start), out)


def parseval_report(f: FunctionSample, coefs: dict) -> dict:
    # cumsum adds the cube energies one at a time in channel, then (j, k),
    # order: the relative gap is a small difference of two large sums, so a
    # fixed summation order keeps it reproducible
    energies = [np.sum(np.abs(tf.nonzero()[1]) ** 2, axis=1) for tf in coefs.values()]
    total = float(np.cumsum(np.concatenate([[0.0], *energies]))[-1])
    energy = f.energy()
    return {
        "coefficient_energy": total,
        "sample_energy": energy,
        "relative_gap": abs(total - energy) / max(energy, 1e-300),
    }


def wavelet_norm(f: FunctionSample, sys: WaveletSystem, sp, window: LatticeWindow,
                 weight) -> NormResult:
    """Sum over wavelet channels of the sequence norm of the coefficients, attained
    where the first largest channel norm is and flagged when any channel is."""
    coefs = analyze(f, sys, window, include_scaling=False)
    rows = np.stack([coefs[lam].rows() for lam in sys.channels])
    norms = seq_norms_weighted(window, rows, weight, sp)
    best = max(norms, key=lambda r: r.value)
    return NormResult(sum(r.value for r in norms), best.attaining,
                      any(r.boundary_flag for r in norms))
