"""Compactly supported orthonormal wavelets on dyadic grids.

Filters are computed by spectral factorization of the half-band polynomial in
extended precision, then rounded to doubles; the scaling function is sampled
exactly on dyadic points (integer-grid eigenvector plus two-scale refinement),
so tensor wavelet evaluation over a lattice window is pure index shifting.
Analysis and synthesis are exact adjoints with respect to the grid inner
product.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import mpmath
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dyadic import DyadicCube, LatticeWindow, tensor_points
from .errors import PreconditionError
from .seq import CoeffField, NormResult, seq_norm_averaged, seq_norm_weighted

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


def daubechies_filter(order: int) -> FilterPair:
    """Minimal-length orthonormal filter with the given vanishing-moment count.

    Spectral factorization with 60-digit root finding; coefficients are the
    correctly rounded doubles of the high-precision construction.
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
            # mpmath.polyroots wants highest-degree first
            roots = mpmath.polyroots(list(reversed(total)), maxsteps=200, extraprec=120)
            inside = [r for r in roots if abs(r) < 1]
            if len(inside) != order - 1:
                raise PreconditionError("spectral factorization failed to split roots")
            # q(z) = prod (z - r), expanded; complex roots pair up to real output
            q = [mpmath.mpf(1)]
            for r in inside:
                nxt = [mpmath.mpf(0)] * (len(q) + 1)
                for i, c in enumerate(q):
                    nxt[i] += c * (-r)
                    nxt[i + 1] += c
                q = nxt
            q = [mpmath.re(c) for c in q]
            m = [mpmath.mpf(1)]
            for _ in range(order):
                nxt = [mpmath.mpf(0)] * (len(m) + 1)
                for i, c in enumerate(m):
                    nxt[i] += c / 2
                    nxt[i + 1] += c / 2
                m = nxt
            hmp = [mpmath.mpf(0)] * (len(m) + len(q) - 1)
            for i, a in enumerate(m):
                for jj, b in enumerate(q):
                    hmp[i + jj] += a * b
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


def cascade(fp: FilterPair, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Sampled scaling and wavelet prototypes on the grid 2**-resolution.

    Returns arrays of length (L-1)*2**resolution + 1 covering [0, L-1];
    values at dyadic points satisfy the two-scale relation exactly.
    """
    if resolution < 4:
        raise PreconditionError("cascade resolution must be at least 4")
    h = fp.h
    L = len(h)
    sqrt2 = math.sqrt(2.0)
    n_int = L - 1
    T = np.zeros((n_int, n_int))
    for nn in range(n_int):
        for mm in range(n_int):
            idx = 2 * nn - mm
            if 0 <= idx < L:
                T[nn, mm] = sqrt2 * h[idx]
    w, v = np.linalg.eig(T)
    i = int(np.argmin(np.abs(w - 1.0)))
    if abs(w[i] - 1.0) > 1e-8:
        raise PreconditionError("cascade failed: no unit eigenvalue (invalid filter)")
    phi_int = np.real(v[:, i])
    phi_int = phi_int / np.sum(phi_int)
    prev = np.concatenate([phi_int, [0.0]])  # indices 0..L-1 at unit spacing
    for r in range(1, resolution + 1):
        N = (L - 1) * (1 << r) + 1
        cur = np.zeros(N)
        cur[::2] = prev
        odd = np.arange(1, N, 2)
        acc = np.zeros(len(odd))
        half = 1 << (r - 1)
        for k in range(L):
            j_prev = odd - k * half
            ok = (j_prev >= 0) & (j_prev < len(prev))
            acc[ok] += sqrt2 * h[k] * prev[j_prev[ok]]
        cur[odd] = acc
        prev = cur
    phi = prev
    # psi(x) = sqrt2 sum_k g_k phi(2x - k); 2x - k lands on the same grid
    N = len(phi)
    psi = np.zeros(N)
    idx = np.arange(N)
    for k in range(L):
        j_prev = 2 * idx - k * (1 << resolution)
        ok = (j_prev >= 0) & (j_prev < N)
        psi[ok] += sqrt2 * fp.g[k] * phi[j_prev[ok]]
    return phi, psi


def refinement_residual(fp: FilterPair, phi: np.ndarray, resolution: int) -> float:
    """Sup-norm residual of the two-scale relation on the sample grid."""
    L = len(fp.h)
    N = len(phi)
    idx = np.arange(N)
    rhs = np.zeros(N)
    for k in range(L):
        j = 2 * idx - k * (1 << resolution)
        ok = (j >= 0) & (j < N)
        rhs[ok] += math.sqrt(2.0) * fp.h[k] * phi[j[ok]]
    return float(np.max(np.abs(phi - rhs)))


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
        raise PreconditionError("no integer point carries scaling mass; increase resolution")
    return -pos


class WaveletSystem:
    """Tensor wavelets built from one filter pair, sampled exactly on dyadics."""

    def __init__(self, n: int, fp: FilterPair, resolution: int = 12):
        self.n = int(n)
        self.fp = fp
        self.resolution = int(resolution)
        self.phi, self.psi = cascade(fp, resolution)
        res = refinement_residual(fp, self.phi, resolution)
        if resolution >= 10 and res > 1e-8:
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

    def axis_samples(self, bit: int, rel_resolution: int) -> np.ndarray:
        """1D prototype samples at grid 2**-rel_resolution, by subsampling."""
        if rel_resolution > self.resolution:
            raise PreconditionError(
                f"requested resolution {rel_resolution} exceeds stored {self.resolution}")
        stride = 1 << (self.resolution - rel_resolution)
        arr = self.phi if bit == 0 else self.psi
        return arr[::stride]

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


@dataclass
class FunctionSample:
    """Vector-valued samples on a uniform dyadic grid (left-endpoint convention).

    values has shape (m, N1, ..., Nn); the sample at index i sits at
    x = (start + i) * 2**-grid_level.
    """

    n: int
    m: int
    grid_level: int
    start: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape[0] != self.m or self.values.ndim != self.n + 1:
            raise PreconditionError("sample array shape does not match (m, N1..Nn)")
        bad = ~np.isfinite(self.values)
        if bad.any():
            idx = tuple(np.argwhere(bad)[0].tolist())
            raise PreconditionError(f"non-finite sample value at index {idx} (channel, grid index)")
        self.start = tuple(int(s) for s in self.start)

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
        np.savez(path, n=self.n, m=self.m, grid_level=self.grid_level,
                 start=np.array(self.start), values=self.values)

    @classmethod
    def load(cls, path: str) -> "FunctionSample":
        data = np.load(path)
        return cls(int(data["n"]), int(data["m"]), int(data["grid_level"]),
                   tuple(int(v) for v in data["start"]), data["values"])

    @classmethod
    def from_callable(cls, f, n: int, m: int, grid_level: int, lo, hi) -> "FunctionSample":
        start = tuple(int(v) << grid_level if grid_level >= 0 else int(v) >> -grid_level
                      for v in lo)
        shape = tuple((int(b) - int(a)) << grid_level for a, b in zip(lo, hi))
        pts = tensor_points([(start[i] + np.arange(shape[i])) * math.ldexp(1.0, -grid_level)
                             for i in range(n)])
        vals = np.asarray(f(pts), dtype=complex)
        if vals.ndim == 1:
            vals = vals[None, :]
        return cls(n, m, grid_level, start, vals.reshape((m,) + shape))


def _axis_corr(values: np.ndarray, taps: np.ndarray, stride: int,
               k_range: tuple[int, int], s: int, axis_scale: float) -> np.ndarray:
    """Contract the trailing axis of ``values`` against shifted taps.

    out[..., k] = axis_scale * sum_t values[..., k*stride - s + t] * taps[t]
    for k in [k_range[0], k_range[1]).
    """
    T = len(taps)
    lead = values.shape[:-1]
    N = values.shape[-1]
    nk = k_range[1] - k_range[0]
    if nk <= 0:
        return np.zeros(lead + (0,), dtype=complex)
    if stride <= 4 and nk * T <= 1 << 22:
        # fine levels: short taps, many cubes; strided windows + one matmul
        padded = np.zeros(lead + (N + 2 * (T - 1),), dtype=values.dtype)
        padded[..., T - 1: T - 1 + N] = values
        windows = sliding_window_view(padded, T, axis=-1)
        qs = np.arange(k_range[0], k_range[1]) * stride - s + (T - 1)
        rows = windows[..., qs, :]
        return axis_scale * (rows @ taps)
    # coarse levels: few cubes with long taps; slice-dot per cube
    out = np.zeros(lead + (nk,), dtype=complex)
    for i in range(nk):
        q = (k_range[0] + i) * stride - s
        a = max(q, 0)
        b = min(q + T, N)
        if a >= b:
            continue
        out[..., i] = values[..., a:b] @ taps[a - q: b - q]
    return axis_scale * out


def _axis_scatter(coef: np.ndarray, taps: np.ndarray, stride: int,
                  k_lo: int, s: int, out_len: int, axis_scale: float) -> np.ndarray:
    """Adjoint of _axis_corr along the trailing axis.

    Cube k_lo + i adds axis_scale * coef[..., i] * taps[t] to output sample
    (k_lo + i) * stride - s + t.  Cut into R rows of ``stride``, tap row r of
    cube i lands on output block i + r, so block b receives
    sum_r coef[..., b - r] * row_r: one product of the length-R sliding
    windows of coef with the reversed rows.  Only blocks that meet the output
    are formed.
    """
    T = len(taps)
    lead, nk = coef.shape[:-1], coef.shape[-1]
    R = -(-T // stride)
    rows = np.zeros(R * stride)
    rows[:T] = taps
    p0 = k_lo * stride - s                      # first sample of block 0
    b_lo = max(0, -p0 // stride)
    b_hi = min(nk + R - 1, -((p0 - out_len) // stride))
    out = np.zeros(lead + (out_len,), dtype=coef.dtype)
    if b_lo >= b_hi:
        return out
    padded = np.zeros(lead + (nk + 2 * (R - 1),), dtype=coef.dtype)
    padded[..., R - 1:R - 1 + nk] = axis_scale * coef
    windows = sliding_window_view(padded, R, axis=-1)[..., b_lo:b_hi, :]
    blocks = (windows @ rows.reshape(R, stride)[::-1]).reshape(lead + (-1,))
    first = p0 + b_lo * stride
    a, b = max(first, 0), min(first + blocks.shape[-1], out_len)
    out[..., a:b] = blocks[..., a - first:b - first]
    return out


def _axis_k_range(s: int, N: int, stride: int, T: int,
                  bounds: tuple[int, int]) -> tuple[int, int]:
    k_lo = -(-(s - T + 1) // stride)           # ceil((s - T + 1) / stride)
    k_hi = (s + N - 1) // stride + 1
    return max(k_lo, bounds[0]), min(k_hi, bounds[1])


def analyze(f: FunctionSample, sys: WaveletSystem, window: LatticeWindow,
            include_scaling: bool = True, min_headroom: int = 4) -> dict:
    """Grid inner products against all window wavelets, channel by channel.

    Returns a dict mapping channel tuples to coefficient fields; when
    include_scaling is set, the all-zeros channel holds the coarsest-level
    scaling coefficients so that the expansion is complete.
    """
    if f.n != sys.n or f.n != window.n:
        raise PreconditionError("dimension mismatch between sample, system, and window")
    g = f.grid_level
    if g < window.j_max + min_headroom:
        raise PreconditionError(
            f"sample grid level {g} too coarse for finest window level {window.j_max}"
            f" (needs headroom {min_headroom})")
    if sys.resolution < g - window.j_min:
        raise PreconditionError(
            f"stored wavelet resolution {sys.resolution} cannot serve level"
            f" {window.j_min} on a level-{g} grid")
    out = {}
    channel_list = list(sys.channels)
    if include_scaling:
        channel_list.append(sys.scaling_channel)
    for lam in channel_list:
        levels = ([window.j_min] if lam == sys.scaling_channel
                  else range(window.j_min, window.j_max + 1))
        tf = CoeffField(window, f.m)
        for j in levels:
            stride = 1 << (g - j)
            bounds = window.index_bounds(j)
            arr = f.values
            k_ranges = []
            for axis in range(f.n):
                taps = sys.axis_samples(lam[axis], g - j)
                scale = math.ldexp(2.0 ** (j / 2.0), -g)  # 2^{j/2} * h
                kr = _axis_k_range(f.start[axis], f.shape[axis], stride,
                                   len(taps), bounds[axis])
                k_ranges.append(kr)
                if kr[0] >= kr[1]:
                    arr = None
                    break
                moved = np.moveaxis(arr, 1 + axis, -1)
                moved = _axis_corr(moved, taps, stride, kr, f.start[axis], scale)
                arr = np.moveaxis(moved, -1, 1 + axis)
            if arr is not None:
                tf.write(j, tuple(kr[0] for kr in k_ranges), arr)
        out[lam] = tf
    return out


def synthesize(coefs: dict, sys: WaveletSystem, grid_level: int,
               start: tuple[int, ...], shape: tuple[int, ...], m: int) -> FunctionSample:
    """Sum of coefficient * wavelet over all channels, sampled on the grid."""
    out = np.zeros((m,) + tuple(shape), dtype=complex)
    for lam in sorted(coefs):
        tf = coefs[lam]
        for j in tf.levels():
            if grid_level < j:
                raise PreconditionError("synthesis grid coarser than a coefficient level")
            stride = 1 << (grid_level - j)
            taps = [sys.axis_samples(bit, grid_level - j) for bit in lam]
            level, lower = tf.level(j), tf.lower(j)
            if not level.imag.any():
                level = level.real  # real coefficients scatter in real arithmetic
            # only cubes whose support meets the output grid contribute
            k_ranges = [_axis_k_range(start[axis], shape[axis], stride, len(taps[axis]),
                                      (lower[axis], lower[axis] + level.shape[1 + axis]))
                        for axis in range(sys.n)]
            if any(lo >= hi for lo, hi in k_ranges):
                continue
            arr = level[(slice(None),) + tuple(slice(lo - a, hi - a)
                                               for (lo, hi), a in zip(k_ranges, lower))]
            for axis, (k_lo, _) in enumerate(k_ranges):
                moved = np.moveaxis(arr, 1 + axis, -1)
                moved = _axis_scatter(moved, taps[axis], stride, k_lo, start[axis], shape[axis],
                                      2.0 ** (j / 2.0))
                arr = np.moveaxis(moved, -1, 1 + axis)
            out += arr
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
                 weight=None, fam=None, required_smoothness: int | None = None,
                 grid_extra: int = 2) -> NormResult:
    """Sum over wavelet channels of the sequence norm of the coefficients."""
    coefs = analyze(f, sys, window, include_scaling=False)
    total = 0.0
    attaining = None
    best = -1.0
    for lam in sys.channels:
        tf = coefs[lam]
        if fam is not None:
            r = seq_norm_averaged(tf, fam, sp)
        else:
            if weight is None:
                raise PreconditionError("wavelet_norm needs a weight or a reducing family")
            r = seq_norm_weighted(tf, weight, sp, grid_extra)
        total += r.value
        if r.value > best:
            best = r.value
            attaining = r.attaining
    meta = {}
    if required_smoothness is not None:
        meta["smoothness_margin"] = sys.fp.holder - required_smoothness
        meta["smoothness_warning"] = sys.fp.holder < required_smoothness
        meta["low_margin_flag"] = (sys.fp.holder - required_smoothness) < 0.1
    return NormResult(total, attaining, False, meta)


@dataclass
class ReindexedAtoms:
    """One-sequence atom re-indexing of a multi-channel wavelet expansion.

    Child cube i of a cube Q carries the channel-i coefficient of Q; the atom
    on that child is the parent wavelet scaled by the fixed constant.
    """

    coeffs: CoeffField          # materialized values coef / c
    sources: dict               # channel -> source field with the original values
    c: float
    r: float
    sys: WaveletSystem
    source_window: LatticeWindow

    def channel_fields(self) -> dict:
        """Copies of the per-channel source fields, one per wavelet channel."""
        empty = CoeffField(self.source_window, self.coeffs.m)
        return {lam: self.sources.get(lam, empty).copy() for lam in self.sys.channels}

    def synthesize_exact(self, grid_level: int, start, shape) -> FunctionSample:
        return synthesize(self.channel_fields(), self.sys, grid_level, start,
                          shape, self.coeffs.m)


def atoms_from_wavelets(coefs: dict, sys: WaveletSystem,
                        out_window: LatticeWindow | None = None) -> ReindexedAtoms:
    """Re-index channel coefficients of each cube onto its child cubes.

    Channel i (in the fixed channel order) goes to child i; the last child
    slot always carries the zero coefficient.
    """
    some = next(iter(coefs.values()))
    src_window = some.window
    m = some.m
    if out_window is None:
        out_window = LatticeWindow(src_window.n, src_window.j_min + 1,
                                   src_window.j_max + 1, src_window.lo, src_window.hi)
    c = _atom_constant(sys)
    out = CoeffField(out_window, m)
    sources = {lam: coefs[lam] for lam in sys.channels if lam in coefs}
    # child offsets in the order of dyadic.children; channel i takes offset i
    offsets = dict(zip(sys.channels, itertools.product((0, 1), repeat=sys.n)))
    for j in sorted({j for tf in sources.values() for j in tf.levels()}):
        bounds = src_window.index_bounds(j)
        block = np.zeros((m,) + tuple(2 * (hi - lo) for lo, hi in bounds), dtype=complex)
        for lam, tf in sources.items():
            if tf.level(j) is not None:
                block[(slice(None),) + tuple(slice(o, None, 2) for o in offsets[lam])] = \
                    tf.level(j) / c
        out.write(j + 1, tuple(2 * lo for lo, _ in bounds), block)
    return ReindexedAtoms(out, sources, c, _atom_dilation(sys), sys, src_window)


def _atom_constant(sys: WaveletSystem) -> float:
    sup = max(float(np.max(np.abs(sys.phi))), float(np.max(np.abs(sys.psi))))
    return 2.0 ** (sys.n / 2.0) / sup ** sys.n


def _atom_dilation(sys: WaveletSystem) -> float:
    L = sys.support_width
    return max(4.0 * (L - 0.25), 3.0)
