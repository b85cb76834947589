"""Cube-pair matrices with distance/scale decay: the model matrix, its
application to coefficient fields, empirical boundedness probes, and
pairing matrices of a wavelet family with a localized family, whose columns
are runs of the analysis pyramid on sampled members.

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
from .params import SpaceParams
from .seq import CoeffField, random_rows, seq_norms_averaged, seq_norms_weighted
from .wavelets import FunctionSample, analyze
from .weights import MatrixWeight, ReducingFamily


# Matrix entries per row block of apply: bounds its temporaries on large windows.
_BLOCK_ENTRIES = 1 << 18
# level exponents of the vertical stacks among the adversarial fields
STACK_SLOPES = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0)


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


@dataclass
class ADMatrix:
    """Block evaluator over cube pairs."""

    block: object  # (rows, cols) -> (len(rows), len(cols)) array

    def __call__(self, q: DyadicCube, r: DyadicCube) -> complex:
        return self.block(CubeArrays.of([q]), CubeArrays.of([r]))[0, 0]

    @classmethod
    def model(cls, D: float, E: float, F: float) -> "ADMatrix":
        return cls(lambda rows, cols: bdef_block(rows, cols, D, E, F))

    @classmethod
    def identity(cls) -> "ADMatrix":
        return cls(_cube_equality)


def apply_rows(B: ADMatrix, window: LatticeWindow, fields: np.ndarray) -> np.ndarray:
    """(Bt)_Q = sum_R b_{Q,R} t_R over the window, componentwise on C^m, for
    every field of a batch given as rows (S, C, m) in ``window.all_cubes()``
    order; returns the image rows, shape (S, C, m).

    Columns are the cubes present in any field, and the matrix is evaluated
    once, in row blocks of at most _BLOCK_ENTRIES entries, against all fields.
    """
    S, C, m = fields.shape
    out = np.zeros((S, C, m), dtype=complex)
    present = np.flatnonzero(np.any(fields != 0, axis=(0, 2)))
    if not len(present):
        return out
    cubes = CubeArrays.of_window(window)
    cols = cubes.take(present)
    V = np.swapaxes(fields[:, present], 0, 1).reshape(len(present), S * m)
    step = max(1, _BLOCK_ENTRIES // len(present))
    for start in range(0, C, step):
        blk = slice(start, start + step)
        out[:, blk] = np.swapaxes((B.block(cubes.take(blk), cols) @ V).reshape(-1, S, m), 0, 1)
    return out


def apply(B: ADMatrix, t: CoeffField) -> CoeffField:
    """:func:`apply_rows` of one field."""
    out = CoeffField(t.window, t.m)
    out.write_all(apply_rows(B, t.window, t.rows()[None])[0])
    return out


def _adversarial_fields(window: LatticeWindow, m: int, slopes) -> np.ndarray:
    """Rows (2 + len(slopes), C, m) of the structured fields: coordinate
    deltas at the first cube of the coarsest and of the finest level, then
    vertical stacks loading every level j at its first cube with 2^{j*slope}."""
    levels = range(window.j_min, window.j_max + 1)
    first = [window.level_rows(j)[0].start for j in levels]
    rows = np.zeros((2 + len(slopes), window.count(), m), dtype=complex)
    rows[0, first[0]] = 1.0
    rows[1, first[-1]] = 1.0
    for i, slope in enumerate(slopes):
        rows[2 + i, first] = np.array([2.0 ** (slope * j) for j in levels])[:, None]
    return rows


def empirical_norm(B: ADMatrix, sp: SpaceParams, depths,
                   weight: MatrixWeight | None = None,
                   m: int = 1, n: int = 1,
                   seed: int = 0, trials: int = 12) -> dict:
    """Lower bounds for ||Bt|| / ||t|| over nested window depths.

    Two ensemble components are tracked separately, because they answer
    different questions: randomized fields estimate the norm on generic data
    (bounded operators plateau quickly), while the adversarial component
    (coordinate deltas at extreme cubes plus vertical stacks concentrated at
    one spatial point across all levels) aims at the slow modes that a decay
    violation feeds.  All numbers are finite-window lower bounds; the growth
    trend across depths is the diagnostic.

    Each depth's fields, and their images, are one batch of rows: one matrix
    product and one pass of batched norms.  ``counters`` lists per depth the
    random fields drawn, the empty ones skipped, the adversarial fields and
    the matrix entries evaluated.
    """
    if seed < 0:
        raise PreconditionError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    randomized = []
    adversarial = []
    counters = {"random_fields": [], "empty_random_skipped": [], "adversarial_fields": [],
                "matrix_entries": []}
    for depth in depths:
        window = LatticeWindow(n, 0, depth, (0,) * n, (1,) * n)
        fam = ReducingFamily.identity(m, sp.p, window) if weight is None else None
        drawn = random_rows(rng, trials, window.count(), m, density=0.4)
        nonempty = np.any(drawn != 0, axis=(1, 2))
        fields = np.concatenate([drawn[nonempty], _adversarial_fields(window, m, STACK_SLOPES)])
        both = np.concatenate([fields, apply_rows(B, window, fields)])
        if fam is not None:
            norms = seq_norms_averaged(window, both, fam, sp)
        else:
            norms = seq_norms_weighted(window, both, weight, sp)
        values = np.array([r.value for r in norms])
        denom, numer = values[:len(fields)], values[len(fields):]
        ratios = np.divide(numer, denom, out=np.zeros_like(numer), where=denom > 0)
        k = int(np.sum(nonempty))
        rand_best = float(np.max(ratios[:k], initial=0.0))
        adv_best = float(np.max(ratios[k:], initial=0.0))
        if rand_best == 0.0 and adv_best == 0.0:
            raise PreconditionError("ensemble is degenerate: all fields vanish")
        randomized.append(rand_best)
        adversarial.append(adv_best)
        counters["random_fields"].append(trials)
        counters["empty_random_skipped"].append(trials - k)
        counters["adversarial_fields"].append(len(fields) - k)
        counters["matrix_entries"].append(
            window.count() * int(np.count_nonzero(np.any(fields != 0, axis=(0, 2)))))
    estimates = [max(a, b) for a, b in zip(randomized, adversarial)]

    def ratio(a, b):
        # None when the first depth's component is 0 (all its random fields empty)
        return b / a if a > 0 else None

    return {
        "depths": list(depths),
        "estimates": estimates,
        "randomized_estimates": randomized,
        "adversarial_estimates": adversarial,
        "growth_factors": [ratio(a, b) for a, b in zip(estimates, estimates[1:])],
        "randomized_growth": ratio(randomized[0], randomized[-1]),
        "adversarial_growth": ratio(adversarial[0], adversarial[-1]),
        "overall_growth": ratio(estimates[0], estimates[-1]),
        "counters": counters,
        "note": "finite-window lower bounds; growth trend is the diagnostic",
    }


def gram_matrix(analysis: MoleculeFamily, synthesis: MoleculeFamily,
                window: LatticeWindow, n: int, quad_points: int = 512) -> dict:
    """Pairing matrix <psi_Q, m_R> = int psi_Q conj(m_R) of a wavelet_family psi
    with a compactly supported family m over the window, and the constant
    that fits it under the model bound of the two families' parameters.

    Column R is the analysis pyramid run on m_R, sampled over its support
    rounded out to whole units on the grids g = j_min + ceil(log2 quad_points)
    (quad_points samples per side of a coarsest window cube) and g + 2, but no
    finer than a grid-sampled member's own (``aligned_grid``).  Entries are
    read at g + 2; one is under-resolved when the grids differ by more than 1%
    of it and by more than 1e-4 of the largest entry.
    """
    system, lam = analysis.wavelet or (None, None)
    if system is None or lam not in system.channels:
        raise PreconditionError(f"pairing analyzes with a wavelet channel of a system, and the "
                                f"analysis family {analysis.label} records none")
    if quad_points < 1:
        raise PreconditionError(f"quad_points must be positive, got {quad_points}")
    M, G, H = mgh_bound(analysis.params, synthesis.params, n, alpha=0.1)
    g = window.j_min + math.ceil(math.log2(quad_points))
    cubes = list(window.all_cubes())
    C = len(cubes)
    coarse, fine = np.empty((C, C), dtype=complex), np.empty((C, C), dtype=complex)
    for col, r in enumerate(cubes):
        member = synthesis(r)
        if member.support_radius == math.inf:
            raise PreconditionError("pairing requires compactly supported candidates")
        # finer samples of grid-sampled data would only repeat its values
        finest = math.inf if member.aligned_grid is None else -math.log2(member.aligned_grid[0])
        center, reach = np.array(r.center), member.support_radius * r.side
        lo, hi = np.floor(center - reach), np.ceil(center + reach)
        for out, level in ((coarse, g), (fine, g + 2)):
            level = math.floor(min(level, finest))
            sample = FunctionSample.from_callable(member, n, 1, level, lo, hi)
            coefs = analyze(sample, system, window, include_scaling=False)
            out[:, col] = np.conj(coefs[lam].rows()[:, 0])
    arrays = CubeArrays.of_window(window)
    ratio = np.abs(fine) / bdef_block(arrays, arrays, M, G, H)
    worst = np.unravel_index(np.argmax(ratio), ratio.shape)
    delta = np.abs(fine - coarse)
    flagged = np.argwhere((delta > 0.01 * np.abs(fine)) & (delta > 1e-4 * np.abs(fine).max()))
    return {
        "entries": {(q, p): v for q, row in zip(cubes, fine.tolist()) for p, v in zip(cubes, row)},
        "bound_params": (M, G, H),
        "fitted_C": float(ratio[worst]),
        "worst_pair": (cubes[worst[0]], cubes[worst[1]]) if ratio[worst] > 0 else None,
        "underresolved": [(str(cubes[a]), str(cubes[b]), float(delta[a, b])) for a, b in flagged],
        "n_pairs": C * C,
    }
