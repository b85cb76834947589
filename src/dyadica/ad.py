"""Cube-pair matrices with distance/scale decay: the model matrix, its
application to coefficient fields, composition certificates, empirical
boundedness probes, and pairing matrices of localized families.

Finite-window operator-norm estimates are lower bounds obtained from
randomized search plus structured adversarial fields; the growth trend
across nested windows is the diagnostic, and every report says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import CubeArrays, DyadicCube, LatticeWindow, distance_block
from .errors import PreconditionError
from .molecules import MoleculeFamily, mgh_bound
from .params import ADRegion, SpaceParams
from .seq import CoeffField, seq_norm_averaged, seq_norm_weighted
from .weights import MatrixWeight, ReducingFamily


# Matrix entries per row block of apply: bounds its temporaries on large windows.
_BLOCK_ENTRIES = 1 << 18
# Sampled cube pairs per block of the certificate checks, whose temporaries
# are _PAIR_CHUNK x (window cubes) at most.
_PAIR_CHUNK = 128


def bdef_block(rows: CubeArrays, cols: CubeArrays, D: float, E: float, F: float) -> np.ndarray:
    """Model-matrix entries for every (row, column) cube pair, shape
    ``(len(rows), len(cols))``: distance decay D with scale-gap decay E
    (finer row) or F (coarser row)."""
    level_gap = np.subtract.outer(rows.levels, cols.levels)  # j_Q - j_R
    ratio = np.ldexp(1.0, -np.abs(level_gap))               # smaller over larger side
    return distance_block(rows, cols) ** -D * ratio ** np.where(level_gap >= 0, E, F)


def bdef_entry(q: DyadicCube, r: DyadicCube, D: float, E: float, F: float) -> float:
    """Model-matrix entry of one cube pair: the 1x1 case of :func:`bdef_block`."""
    return float(bdef_block(CubeArrays.of([q]), CubeArrays.of([r]), D, E, F)[0, 0])


def _cube_equality(rows: CubeArrays, cols: CubeArrays) -> np.ndarray:
    eq = np.equal.outer(rows.levels, cols.levels)
    for axis in range(rows.n):
        eq &= np.equal.outer(rows.index[:, axis], cols.index[:, axis])
    return eq.astype(float)


def _sample_pairs(rng: np.random.Generator, count: int, samples: int) -> tuple:
    """Row and column indices of sampled pairs, one scalar draw each, row first."""
    draws = np.array([rng.integers(count) for _ in range(2 * samples)], dtype=np.intp)
    return draws[0::2], draws[1::2]


def _sampled_entries(block, cubes: CubeArrays, qi: np.ndarray, ri: np.ndarray) -> np.ndarray:
    """``block(cubes, cubes)[qi, ri]``, evaluated as the diagonals of blocks of
    at most _PAIR_CHUNK sampled pairs."""
    parts = [np.empty(0)]
    for s in range(0, len(qi), _PAIR_CHUNK):
        sl = slice(s, s + _PAIR_CHUNK)
        parts.append(np.diagonal(block(cubes.take(qi[sl]), cubes.take(ri[sl]))))
    return np.concatenate(parts)


@dataclass
class ADMatrix:
    """Block evaluator over cube pairs, with an optional decay certificate."""

    block: object                      # (rows, cols) -> (len(rows), len(cols)) array
    certificate: tuple | None = None   # (D, E, F, C)
    label: str = "matrix"

    def __call__(self, q: DyadicCube, r: DyadicCube) -> complex:
        return self.block(CubeArrays.of([q]), CubeArrays.of([r]))[0, 0]

    @classmethod
    def model(cls, D: float, E: float, F: float) -> "ADMatrix":
        return cls(lambda rows, cols: bdef_block(rows, cols, D, E, F), (D, E, F, 1.0),
                   f"bdef({D},{E},{F})")

    @classmethod
    def identity(cls) -> "ADMatrix":
        return cls(_cube_equality, None, "identity")

    def verify_certificate(self, window: LatticeWindow,
                           rng: np.random.Generator | None = None,
                           samples: int = 10000) -> dict:
        """Sample cube pairs and fit the smallest C with |b| <= C * model."""
        if self.certificate is None:
            raise PreconditionError("matrix carries no certificate")
        D, E, F, _ = self.certificate
        cubes = CubeArrays.of_window(window)
        rng = rng or np.random.default_rng(0)
        count = min(samples, len(cubes) ** 2)
        qi, ri = _sample_pairs(rng, len(cubes), count)
        entries = _sampled_entries(self.block, cubes, qi, ri)
        model = _sampled_entries(ADMatrix.model(D, E, F).block, cubes, qi, ri)
        return {"fitted_C": float(np.max(np.abs(entries) / model, initial=0.0)),
                "samples": count}


def apply(B: ADMatrix, t: CoeffField) -> CoeffField:
    """(Bt)_Q = sum_R b_{Q,R} t_R over the window, componentwise on C^m.

    Rows are the window's cubes and columns the nonzero cubes of t; the matrix
    is evaluated in row blocks of at most _BLOCK_ENTRIES entries.
    """
    out = CoeffField(t.window, t.m)
    cols, V = t.nonzero()
    if not len(cols):
        return out
    rows = CubeArrays.of_window(t.window)
    acc = np.empty((len(rows), t.m), dtype=complex)
    step = max(1, _BLOCK_ENTRIES // len(cols))
    for start in range(0, len(rows), step):
        blk = slice(start, start + step)
        acc[blk] = B.block(rows.take(blk), cols) @ V
    out.write_all(acc)
    return out


def compose_certificate(c1: tuple, c2: tuple, region: ADRegion,
                        window: LatticeWindow | None = None,
                        rng: np.random.Generator | None = None,
                        samples: int = 2000) -> dict:
    """Certificate for the product of two certified matrices.

    Both inputs must lie strictly inside the region; the conservative output
    is the componentwise minimum, which stays inside.  When a window is
    given, product entries at sampled cube pairs are formed as products of
    the two model blocks over the window, and the constant fitted.
    """
    for name, c in (("first", c1), ("second", c2)):
        if not region.contains(*c[:3]):
            failing = region.check(*c[:3]).failing()
            raise PreconditionError(f"{name} certificate outside the region: {failing}")
    D = min(c1[0], c2[0])
    E = min(c1[1], c2[1])
    F = min(c1[2], c2[2])
    out = {"certificate": (D, E, F), "inside": region.contains(D, E, F)}
    if window is not None:
        cubes = CubeArrays.of_window(window)
        rng = rng or np.random.default_rng(0)
        qi, ri = _sample_pairs(rng, len(cubes), samples)

        def product(rows, cols):
            return bdef_block(rows, cubes, *c1[:3]) @ bdef_block(cubes, cols, *c2[:3])

        prod = _sampled_entries(product, cubes, qi, ri)
        model = _sampled_entries(ADMatrix.model(D, E, F).block, cubes, qi, ri)
        out["fitted_C"] = float(np.max(np.abs(prod) / model, initial=0.0))
    return out


def _vertical_stack_field(window: LatticeWindow, m: int, slope: float) -> CoeffField:
    """All levels loaded at one spatial corner with 2^{j*slope} profile."""
    t = CoeffField(window, m)
    for j in range(window.j_min, window.j_max + 1):
        bounds = window.index_bounds(j)
        k = tuple(b[0] for b in bounds)
        t.set(DyadicCube(window.n, j, k), np.full(m, 2.0 ** (slope * j)))
    return t


def empirical_norm(B: ADMatrix, sp: SpaceParams, depths,
                   weight: MatrixWeight | None = None,
                   fam_builder=None,
                   m: int = 1, n: int = 1,
                   seed: int = 0, trials: int = 12,
                   stack_slopes=(-2.0, -1.0, -0.5, 0.0, 0.5, 1.0)) -> dict:
    """Lower bounds for ||Bt|| / ||t|| over nested window depths.

    Two ensemble components are tracked separately, because they answer
    different questions: randomized fields estimate the norm on generic data
    (bounded operators plateau quickly), while the adversarial component
    (coordinate deltas at extreme cubes plus vertical stacks concentrated at
    one spatial point across all levels) aims at the slow modes that a decay
    violation feeds.  All numbers are finite-window lower bounds; the growth
    trend across depths is the diagnostic.
    """
    rng = np.random.default_rng(seed)
    randomized = []
    adversarial = []
    for depth in depths:
        window = LatticeWindow(n, 0, depth, (0,) * n, (1,) * n)
        if fam_builder is not None:
            fam = fam_builder(window)
        elif weight is None:
            fam = ReducingFamily.identity(m, sp.p, window)
        else:
            fam = None

        def ratio(t):
            bt = apply(B, t)
            if fam is not None:
                denom = seq_norm_averaged(t, fam, sp).value
                numer = seq_norm_averaged(bt, fam, sp).value
            else:
                denom = seq_norm_weighted(t, weight, sp).value
                numer = seq_norm_weighted(bt, weight, sp).value
            return numer / denom if denom > 0 else 0.0

        rand_best = 0.0
        for _ in range(trials):
            t = CoeffField.random(window, m, rng, density=0.4)
            if len(t):
                rand_best = max(rand_best, ratio(t))
        adv_best = 0.0
        for j in (0, depth):
            delta = CoeffField(window, m)
            bounds = window.index_bounds(j)
            delta.set(DyadicCube(n, j, tuple(b[0] for b in bounds)), np.ones(m))
            adv_best = max(adv_best, ratio(delta))
        for slope in stack_slopes:
            adv_best = max(adv_best, ratio(_vertical_stack_field(window, m, slope)))
        if rand_best == 0.0 and adv_best == 0.0:
            raise PreconditionError("ensemble is degenerate: all fields vanish")
        randomized.append(rand_best)
        adversarial.append(adv_best)
    estimates = [max(a, b) for a, b in zip(randomized, adversarial)]

    def growth(seq):
        return [seq[i + 1] / seq[i] for i in range(len(seq) - 1)]

    return {
        "depths": list(depths),
        "estimates": estimates,
        "randomized_estimates": randomized,
        "adversarial_estimates": adversarial,
        "growth_factors": growth(estimates),
        "randomized_growth": randomized[-1] / randomized[0],
        "adversarial_growth": adversarial[-1] / adversarial[0],
        "overall_growth": estimates[-1] / estimates[0],
        "note": "finite-window lower bounds; growth trend is the diagnostic",
    }


def gram_matrix(analysis: MoleculeFamily, synthesis: MoleculeFamily,
                window: LatticeWindow, n: int, alpha: float = 0.1,
                quad_points: int = 512, max_pairs: int | None = None,
                rng: np.random.Generator | None = None) -> dict:
    """Pairing matrix of two localized families over the window.

    Entries are quadrature inner products on the union of supports, checked
    by one refinement step; the fitted constant compares every entry against
    the model bound with the two families' decay parameters.
    """
    cubes = list(window.all_cubes())
    M, G, H = mgh_bound(analysis.params, synthesis.params, n, alpha)
    pairs = [(a, b) for a in range(len(cubes)) for b in range(len(cubes))]
    if max_pairs is not None and len(pairs) > max_pairs:
        rng = rng or np.random.default_rng(0)
        idx = rng.choice(len(pairs), size=max_pairs, replace=False)
        pairs = [pairs[i] for i in idx]
    arrays = CubeArrays.of(cubes)
    bounds = bdef_block(arrays, arrays, M, G, H)
    entries = {}
    deltas = {}
    worst_ratio = 0.0
    worst_pair = None
    members_a = {}
    members_s = {}
    for a, b in pairs:
        q, p = cubes[a], cubes[b]
        fa = members_a.setdefault(q, analysis(q))
        fs = members_s.setdefault(p, synthesis(p))
        val, delta = _pair_inner_product(fa, fs, quad_points)
        entries[(q, p)] = val
        deltas[(q, p)] = delta
        ratio = abs(val) / float(bounds[a, b])
        if ratio > worst_ratio:
            worst_ratio = ratio
            worst_pair = (q, p)
    # an entry is under-resolved when refinement moves it by more than 1%
    # and the movement is visible at the scale of the matrix
    scale = max((abs(v) for v in entries.values()), default=0.0)
    flagged = [(str(q), str(p), deltas[(q, p)])
               for (q, p) in entries
               if deltas[(q, p)] > 0.01 * abs(entries[(q, p)])
               and deltas[(q, p)] > 1e-4 * scale]
    return {
        "entries": entries,
        "bound_params": (M, G, H),
        "fitted_C": worst_ratio,
        "worst_pair": worst_pair,
        "underresolved": flagged,
        "n_pairs": len(pairs),
    }


def _pair_inner_product(fa, fs, quad_points: int) -> tuple[complex, float]:
    """Inner product of two candidates over the intersection of supports,
    midpoint rule with one refinement for the convergence check."""
    n = fa.cube.n
    lo = np.full(n, -np.inf)
    hi = np.full(n, np.inf)
    for f in (fa, fs):
        if f.support_radius == math.inf:
            raise PreconditionError("pairing requires compactly supported candidates")
        c = np.array(f.cube.center)
        lo = np.maximum(lo, c - f.support_radius * f.cube.side)
        hi = np.minimum(hi, c + f.support_radius * f.cube.side)
    if np.any(lo >= hi):
        return 0.0, 0.0

    def midpoint(cells: int) -> complex:
        axes = [lo[i] + (hi[i] - lo[i]) * (np.arange(cells) + 0.5) / cells
                for i in range(n)]
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        vol = float(np.prod((hi - lo) / cells))
        return complex(np.sum(fa(pts) * np.conj(fs(pts))) * vol)

    coarse = midpoint(quad_points // 2 if n == 1 else 48)
    fine = midpoint(quad_points if n == 1 else 96)
    return fine, abs(fine - coarse)
