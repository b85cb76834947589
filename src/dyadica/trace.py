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

from .dyadic import CubeArrays, DyadicCube, LatticeWindow, base_of, stack_cube
from .errors import PreconditionError
from .params import BESOV, SpaceParams, trace_threshold
from .seq import CoeffField, seq_norms_weighted
from .wavelets import FilterPair, WaveletSystem
from .weights import MatrixWeight, QuadratureSpec, direction_averages, unit_directions

# sampled unit directions of the weight compatibility constants
COMPAT_DIRECTIONS = 32


def target_params(sp: SpaceParams, n: int) -> SpaceParams:
    """Parameters of the restriction's target space one dimension down."""
    if n < 2:
        raise PreconditionError("trace targets need n >= 2")
    q = sp.q if sp.family == BESOV else sp.p
    return SpaceParams(sp.family, sp.s - 1.0 / sp.p, n / (n - 1) * sp.tau, sp.p, q)


class TracePair:
    """Matched wavelet systems on R^n and R^{n-1} built from one filter."""

    def __init__(self, fp: FilterPair, n: int, resolution: int = 12):
        if n < 2:
            raise PreconditionError("trace pairs need n >= 2")
        self.n = n
        self.source = WaveletSystem(n, fp, resolution)
        self.target = WaveletSystem(n - 1, fp, resolution)
        self.k0 = self.source.k0
        self.inv_phi0 = 1.0 / self.source.phi_at_integer(0, -self.k0)


def _trace_factor(tp: TracePair, bit: int, j: int, k: int) -> float:
    """Restriction factor of a level-j cube on slab k: side**-1/2 times the
    1d prototype value at -k, zero off the prototype's support."""
    return 2.0 ** (j / 2.0) * tp.source.phi_at_integer(bit, -k)


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

    channels: dict           # channel tuple -> CoeffField with raw values
    window: LatticeWindow


def base_window(window: LatticeWindow) -> LatticeWindow:
    return LatticeWindow(window.n - 1, window.j_min, window.j_max,
                         window.lo[:-1], window.hi[:-1])


def stacked_window(window: LatticeWindow, slab_lo: int, slab_hi: int) -> LatticeWindow:
    """Extend a base window with an explicit last-axis integer range."""
    return LatticeWindow(window.n + 1, window.j_min, window.j_max,
                         window.lo + (slab_lo,), window.hi + (slab_hi,))


def trace_coeffs(tp: TracePair, coefs) -> dict:
    """Collapse stacked-cube coefficients onto the base window, Eq.-(223)-style.

    ``coefs`` is either a per-channel dict on one window of R^n or a SlabCoeffs
    carrier; in the latter case the pending slab scale cancels the restriction
    factor algebraically and raw values pass through exactly.  Real fields
    give real fields: the sums run in the dtype of their inputs.
    """
    if isinstance(coefs, SlabCoeffs):
        out = {}
        for lam, tf in coefs.channels.items():
            if lam[-1] != 0:
                raise PreconditionError("slab carrier must live in a last-bit-0 channel")
            target = CoeffField(base_window(coefs.window), tf.m)
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
    first, some = next(iter(coefs.items()))
    out = {}
    for lam, tf in coefs.items():
        if tf.window != some.window:
            raise PreconditionError(f"channel {lam} lies on another window than {first}")
        target = out.setdefault(lam[:-1], CoeffField(base_window(some.window), some.m))
        for j in tf.levels():
            # the base window holds the level's whole block of base cubes
            arr = tf.level(j)
            *base_lo, k_lo = tf.lower(j)
            cur = target.level(j)
            acc = cur.astype(np.result_type(cur, arr))
            # one slab at a time, in slab order; only slabs within the
            # support width carry a nonzero factor
            for i in range(arr.shape[-1]):
                factor = _trace_factor(tp, lam[-1], j, k_lo + i)
                if factor != 0.0:
                    acc += factor * arr[..., i]
            target.write(j, base_lo, acc)
    return out


def ext_coeffs(tp: TracePair, coefs: dict, out_window: LatticeWindow) -> SlabCoeffs:
    """Populate the k0 slab from base coefficients, Eq.-(224)-style.

    Output values carry the per-level scale lazily (see SlabCoeffs): the
    extended coefficient of a level-j cube is its raw value times
    2^{-j/2} / phi(-k0).
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
    return SlabCoeffs(out_channels, out_window)


def weight_compat_check(V: MatrixWeight, W: MatrixWeight, p: float,
                        window: LatticeWindow,
                        quad: QuadratureSpec = QuadratureSpec()) -> tuple[float, float]:
    """Ratio constants between base-cube averages of V and stacked-cube
    averages of W, over window cubes and sampled directions."""
    if V.m != W.m:
        raise PreconditionError("weights have different vector dimensions")
    if V.n != window.n or W.n != window.n + 1:
        raise PreconditionError("weight dimensions do not match the base window")
    dirs = unit_directions(COMPAT_DIRECTIONS, V.m, np.random.default_rng(0))
    base = CubeArrays.of_window(window)
    stacked = CubeArrays(base.levels, np.pad(base.index, ((0, 0), (0, 1))))  # slab 0
    num = direction_averages(V, p, base, quad, dirs)
    den = direction_averages(W, p, stacked, quad, dirs)
    bad = np.any((num <= 0) | (den <= 0), axis=1)
    if bad.any():
        raise PreconditionError(f"degenerate average on cube {base.cube(int(np.argmax(bad)))}")
    return float(np.max(num / den)), float(np.max(den / num))


def channel_norm(fields: dict, W: MatrixWeight, sp: SpaceParams, grid_extra: int = 2) -> float:
    """Sum of the weighted norms of channel fields that share one window,
    taken as one batch: W^{1/p} is evaluated once on the stack grid."""
    rows = np.stack([tf.rows() for tf in fields.values()])
    window = next(iter(fields.values())).window
    return sum(r.value for r in seq_norms_weighted(window, rows, W, sp, grid_extra))


def trace_norm_report(tp: TracePair, sp: SpaceParams, W: MatrixWeight,
                      V: MatrixWeight, depths, box_lo, box_hi,
                      slab_lo: int, slab_hi: int,
                      samples: int = 20, seed: int = 0) -> dict:
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
            c116, c127 = weight_compat_check(V, W, sp.p, base_win, QuadratureSpec(2, 1))
        ratios = []
        for _ in range(samples):
            coefs = {lam: CoeffField.random(src_win, W.m, rng, density=0.25)
                     for lam in tp.source.channels}
            source_norm = channel_norm(coefs, W, sp, 1)
            if source_norm == 0:
                continue
            traced = trace_coeffs(tp, coefs)
            target_norm = channel_norm(traced, V, sp_t, 1)
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
