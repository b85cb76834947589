"""Coefficient-level restriction to the last-coordinate-zero hyperplane and
its right inverse.

Both operators act on multi-channel coefficient fields by finite re-indexing:
the restriction collapses slabs of stacked cubes onto their bases with scalar
factors from the 1d prototype values at integers; the extension populates a
single slab.  The extension output carries its per-level scale lazily, so
composing restriction after extension multiplies by exactly 1.0 and the round
trip is bitwise exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicCube, LatticeWindow, base_of, stack_cube
from .errors import PreconditionError
from .params import BESOV, SpaceParams, trace_threshold
from .seq import CoeffField, seq_norm_weighted
from .wavelets import WaveletSystem
from .weights import MatrixWeight, QuadratureSpec


def target_params(sp: SpaceParams, n: int) -> SpaceParams:
    """Parameters of the restriction's target space one dimension down."""
    if n < 2:
        raise PreconditionError("trace targets need n >= 2")
    q = sp.q if sp.family == BESOV else sp.p
    return SpaceParams(sp.family, sp.s - 1.0 / sp.p, n / (n - 1) * sp.tau, sp.p, q)


class TracePair:
    """Matched wavelet systems on R^n and R^{n-1} built from one filter."""

    def __init__(self, fp_or_order, n: int, resolution: int = 12):
        if isinstance(fp_or_order, int):
            from .wavelets import daubechies_filter
            fp = daubechies_filter(fp_or_order)
        else:
            fp = fp_or_order
        if n < 2:
            raise PreconditionError("trace pairs need n >= 2")
        self.n = n
        self.fp = fp
        self.source = WaveletSystem(n, fp, resolution)
        self.target = WaveletSystem(n - 1, fp, resolution)
        self.k0 = self.source.k0
        self.support_width = fp.support_width  # factor is zero for |k| beyond this
        self.phi0 = self.source.phi_at_integer(0, -self.k0)
        self.inv_phi0 = 1.0 / self.phi0

    def last_axis_value(self, bit: int, k: int) -> float:
        """phi or psi prototype at the integer -k."""
        return self.source.phi_at_integer(bit, -k)


def _trace_factor(tp: TracePair, bit: int, j: int, k: int) -> float:
    """Restriction factor of a level-j cube on slab k: side**-1/2 times the
    1d prototype value at -k, zero when |k| exceeds the support width."""
    if abs(k) > tp.support_width:
        return 0.0
    return 2.0 ** (j / 2.0) * tp.last_axis_value(bit, k)


def trace_wavelet(tp: TracePair, lam: tuple[int, ...], q: DyadicCube):
    """Restrict one tensor wavelet: returns (lam', base cube, scalar factor).

    The factor is side**-1/2 times the 1d prototype value at the slab offset;
    it vanishes whenever |k| exceeds the support width.
    """
    if len(lam) != tp.n or q.n != tp.n:
        raise PreconditionError("channel/cube dimension mismatch")
    base, k = base_of(q)
    return lam[:-1], base, _trace_factor(tp, lam[-1], q.j, k)


def ext_wavelet(tp: TracePair, lam_prime: tuple[int, ...], base: DyadicCube):
    """Extend one base wavelet: returns (channel, cube, scalar factor)."""
    if len(lam_prime) != tp.n - 1 or base.n != tp.n - 1:
        raise PreconditionError("channel/cube dimension mismatch")
    cube = stack_cube(base, tp.k0)
    factor = 2.0 ** (-base.j / 2.0) * tp.inv_phi0
    return lam_prime + (0,), cube, factor


@dataclass
class SlabCoeffs:
    """Extension output: raw base coefficients on the k0 slab with a pending
    per-level scale 2^{-j/2} / phi(-k0) applied lazily."""

    tp: TracePair
    channels: dict           # channel tuple -> CoeffField with raw values
    window: LatticeWindow

    def materialized(self) -> dict:
        out = {}
        for lam, tf in self.channels.items():
            mt = CoeffField(self.window, tf.m)
            for j in tf.levels():
                mt.write(j, tf.lower(j), tf.level(j) * (2.0 ** (-j / 2.0) * self.tp.inv_phi0))
            out[lam] = mt
        return out


def base_window(window: LatticeWindow) -> LatticeWindow:
    return LatticeWindow(window.n - 1, window.j_min, window.j_max,
                         window.lo[:-1], window.hi[:-1])


def stacked_window(window: LatticeWindow, slab_lo: int, slab_hi: int) -> LatticeWindow:
    """Extend a base window with an explicit last-axis integer range."""
    return LatticeWindow(window.n + 1, window.j_min, window.j_max,
                         window.lo + (slab_lo,), window.hi + (slab_hi,))


def trace_coeffs(tp: TracePair, coefs, out_window: LatticeWindow | None = None) -> dict:
    """Collapse stacked-cube coefficients onto base cubes, Eq.-(223)-style.

    ``coefs`` is either a per-channel dict on R^n or a SlabCoeffs carrier; in
    the latter case the pending slab scale cancels the restriction factor
    algebraically and raw values pass through exactly.
    """
    if isinstance(coefs, SlabCoeffs):
        out = {}
        for lam, tf in coefs.channels.items():
            if lam[-1] != 0:
                raise PreconditionError("slab carrier must live in a last-bit-0 channel")
            target = CoeffField(out_window or base_window(coefs.window), tf.m)
            for j in tf.levels():
                arr = tf.level(j)
                *base_lo, k_lo = tf.lower(j)
                slab = tp.k0 - k_lo
                off_slab = np.any(arr != 0, axis=0)
                if 0 <= slab < arr.shape[-1]:
                    off_slab[..., slab] = False
                if off_slab.any():
                    raise PreconditionError("slab carrier has mass off the k0 slab")
                # pending scale (2^{-j/2}/phi0) times the trace factor
                # (2^{j/2} phi0) is exactly 1
                target.write(j, base_lo, arr[..., slab])
            out[lam[:-1]] = target
        return out
    some = next(iter(coefs.values()))
    if out_window is None:
        out_window = base_window(some.window)
    out = {}
    for lam, tf in coefs.items():
        target = out.setdefault(lam[:-1], CoeffField(out_window, some.m))
        for j in tf.levels():
            arr = tf.level(j)
            *base_lo, k_lo = tf.lower(j)
            ov = target.overlap(j, base_lo, arr.shape[1:-1])
            if ov is None:
                continue
            part = arr[(slice(None),) + ov[0]]
            cur = target.level(j)
            acc = (np.zeros(part.shape[:-1], dtype=complex) if cur is None
                   else cur[(slice(None),) + ov[1]].copy())
            # one slab at a time, in slab order; only slabs within the
            # support width carry a nonzero factor
            for i in range(part.shape[-1]):
                factor = _trace_factor(tp, lam[-1], j, k_lo + i)
                if factor != 0.0:
                    acc += factor * part[..., i]
            target.write(j, [b + s.start for b, s in zip(base_lo, ov[0])], acc)
    return out


def ext_coeffs(tp: TracePair, coefs: dict, out_window: LatticeWindow) -> SlabCoeffs:
    """Populate the k0 slab from base coefficients, Eq.-(224)-style.

    Output values carry the per-level scale lazily (see SlabCoeffs); use
    ``materialized()`` for norm computations and synthesis.
    """
    out_channels = {}
    for lam_prime, tf in coefs.items():
        target = CoeffField(out_window, tf.m)
        for j in tf.levels():
            start = tf.lower(j) + (tp.k0,)
            slab = tf.level(j)[..., None]
            cube = target.first_outside(j, start, slab)
            if cube is not None:
                raise PreconditionError(
                    f"extension window does not contain the k0 slab cube {cube}")
            target.write(j, start, slab)
        out_channels[lam_prime + (0,)] = target
    return SlabCoeffs(tp, out_channels, out_window)


def weight_compat_check(V: MatrixWeight, W: MatrixWeight, p: float,
                        window: LatticeWindow,
                        quad: QuadratureSpec = QuadratureSpec(),
                        directions: int = 32,
                        rng: np.random.Generator | None = None) -> tuple[float, float]:
    """Ratio constants between base-cube averages of V and stacked-cube
    averages of W, over window cubes and sampled directions."""
    if V.m != W.m:
        raise PreconditionError("weights have different vector dimensions")
    if V.n != window.n or W.n != window.n + 1:
        raise PreconditionError("weight dimensions do not match the base window")
    rng = rng or np.random.default_rng(0)
    m = V.m
    dirs = rng.standard_normal((directions, m))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    c116 = 0.0
    c127 = 0.0
    for base in window.all_cubes():
        cube = stack_cube(base, 0)
        xv, _ = quad.nodes(base.lower, base.upper)
        xw, _ = quad.nodes(cube.lower, cube.upper)
        rv = V.power(xv, 1.0 / p)
        rw = W.power(xw, 1.0 / p)
        num = np.mean(np.linalg.norm(np.einsum("nab,db->nda", rv, dirs), axis=-1) ** p, axis=0)
        den = np.mean(np.linalg.norm(np.einsum("nab,db->nda", rw, dirs), axis=-1) ** p, axis=0)
        if np.any(den <= 0) or np.any(num <= 0):
            raise PreconditionError(f"degenerate average on cube {base}")
        c116 = max(c116, float(np.max(num / den)))
        c127 = max(c127, float(np.max(den / num)))
    return c116, c127


def trace_norm_report(tp: TracePair, sp: SpaceParams, W: MatrixWeight,
                      V: MatrixWeight, depths, box_lo, box_hi,
                      slab_lo: int, slab_hi: int,
                      samples: int = 20, seed: int = 0,
                      grid_extra: int = 1,
                      compat_quad: QuadratureSpec = QuadratureSpec(2, 1)) -> dict:
    """Per-sample ratios ||trace of t|| / ||t|| across nested window depths.

    Source fields are random multi-channel coefficient fields on R^n; the
    target norm uses the mapped parameters one dimension down.  Refuses when
    the smoothness threshold fails, naming the inequality.
    """
    n = tp.n
    thr = trace_threshold(sp, n)
    if not sp.s > 1.0 / sp.p + thr:
        raise PreconditionError(
            f"trace threshold violated: need s > 1/p + E = {1.0 / sp.p + thr:g}, got s = {sp.s:g}")
    sp_t = target_params(sp, n)
    rng = np.random.default_rng(seed)
    per_depth = []
    c116 = None
    for depth in depths:
        base_win = LatticeWindow(n - 1, 0, depth, box_lo, box_hi)
        src_win = stacked_window(base_win, slab_lo, slab_hi)
        if c116 is None:
            c116, c127 = weight_compat_check(V, W, sp.p, base_win, compat_quad)
        ratios = []
        for _ in range(samples):
            coefs = {}
            for lam in tp.source.channels:
                coefs[lam] = CoeffField.random(src_win, W.m, rng, density=0.25)
            source_norm = sum(
                seq_norm_weighted(tf, W, sp, grid_extra).value for tf in coefs.values())
            if source_norm == 0:
                continue
            traced = trace_coeffs(tp, coefs, base_window(src_win))
            target_norm = sum(
                seq_norm_weighted(tf, V, sp_t, grid_extra).value for tf in traced.values())
            ratios.append(target_norm / source_norm)
        if not ratios:
            raise PreconditionError("trace ensemble degenerate")
        per_depth.append({
            "depth": depth,
            "max_ratio": float(np.max(ratios)),
            "mean_ratio": float(np.mean(ratios)),
            "count": len(ratios),
        })
    maxima = [d["max_ratio"] for d in per_depth]
    return {
        "target_params": sp_t.to_dict(),
        "threshold_E": thr,
        "compat_C116": c116,
        "compat_C127": c127,
        "per_depth": per_depth,
        "growth": maxima[-1] / maxima[0] if len(maxima) > 1 else 1.0,
        "note": "finite-window ratio stability is evidence, not proof",
    }
