"""Matrix weights, averaging characteristics, and reducing operators.

A weight is a map from points to Hermitian nonnegative matrices.  The module
estimates the averaging characteristic on a finite window, builds per-cube
reducing operators (exact square-root averages for order 2, an enclosing
ellipsoid fit otherwise), and fits the doubling growth exponent of the
defining averages.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .dyadic import CubeArrays, DyadicCube, LatticeWindow
from .errors import PreconditionError, SingularWeightError
from .params import WeightDims

EIG_CLAMP_REL = 1e-14
# (x, y) node pairs, or (node, direction) pairs, evaluated per block: bounds
# the temporaries at a few MB whatever the quadrature and window size
PAIR_BLOCK = 1 << 15
MVEE_TOL = 1e-7


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor midpoint rule: points_per_axis * 2**depth cells per axis."""

    points_per_axis: int = 4
    depth: int = 2

    def __post_init__(self):
        if self.points_per_axis < 1 or self.depth < 0:
            raise PreconditionError("invalid quadrature spec")

    @property
    def cells_per_axis(self) -> int:
        return self.points_per_axis * (1 << self.depth)

    def refined(self) -> "QuadratureSpec":
        return QuadratureSpec(self.points_per_axis, self.depth + 1)

    def nodes(self, lo, hi) -> tuple[np.ndarray, float]:
        """Midpoint nodes of the box [lo, hi) and the per-node volume."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        n = len(lo)
        c = self.cells_per_axis
        axes = [lo[i] + (hi[i] - lo[i]) * (np.arange(c) + 0.5) / c for i in range(n)]
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        vol = float(np.prod((hi - lo) / c))
        return pts, vol

    @classmethod
    def parse(cls, text: str) -> "QuadratureSpec":
        try:
            pts, depth = text.split(":")
            return cls(int(pts), int(depth))
        except ValueError as exc:
            raise PreconditionError(f"bad quadrature spec {text!r}") from exc


class MatrixWeight:
    """x -> Hermitian nonnegative m x m matrix, with power evaluation."""

    def __init__(self, m: int, n: int, eval_fn, kind: str = "custom", meta: dict | None = None):
        self.m = int(m)
        self.n = int(n)
        self._eval = eval_fn
        self.kind = kind
        self.meta = meta or {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, mat, n: int) -> "MatrixWeight":
        mat = np.atleast_2d(np.asarray(mat, dtype=complex))
        m = mat.shape[0]

        def f(x):
            x = np.atleast_2d(x)
            return np.broadcast_to(mat, (x.shape[0], m, m)).copy()

        return cls(m, n, f, "constant", {"matrix": mat.tolist()})

    @classmethod
    def identity(cls, m: int, n: int) -> "MatrixWeight":
        return cls.constant(np.eye(m), n)

    @classmethod
    def diag_power(cls, coeffs, exponents, n: int, floor: float = 0.0) -> "MatrixWeight":
        """Diagonal weight with entries a_i * max(|x|, floor)**alpha_i."""
        a = np.asarray(coeffs, dtype=float)
        alpha = np.asarray(exponents, dtype=float)
        if a.shape != alpha.shape:
            raise PreconditionError("coefficient and exponent lists differ in length")
        m = len(a)

        def f(x):
            x = np.atleast_2d(x)
            r = np.linalg.norm(x, axis=-1)
            if floor > 0:
                r = np.maximum(r, floor)
            out = np.zeros((x.shape[0], m, m))
            for i in range(m):
                out[:, i, i] = a[i] * r ** alpha[i]
            return out

        return cls(m, n, f, "diag-power",
                   {"a": a.tolist(), "alpha": alpha.tolist(), "floor": floor})

    @classmethod
    def grid(cls, lo, hi, level: int, values: np.ndarray) -> "MatrixWeight":
        """Piecewise-constant weight on the finest cells of a dyadic grid.

        ``values`` has shape (cells_1, ..., cells_n, m, m) covering the box
        [lo, hi) at resolution 2**-level, row-major; real values stay real.
        Evaluating at a point outside the box is refused.
        """
        lo_t = tuple(int(v) for v in lo)
        hi_t = tuple(int(v) for v in hi)
        n = len(lo_t)
        values = np.asarray(values)
        values = values.astype(complex if np.iscomplexobj(values) else float)
        m = values.shape[-1]
        cells = [int((b - a) * (1 << level)) if level >= 0 else (b - a) // (1 << -level)
                 for a, b in zip(lo_t, hi_t)]
        if tuple(values.shape[:-2]) != tuple(cells):
            raise PreconditionError(f"grid values shape {values.shape[:-2]} != cells {cells}")

        scale = math.ldexp(1.0, level)

        def f(x):
            x = np.atleast_2d(x)
            idx = np.floor((x - lo_t) * scale).astype(int)
            outside = np.any((idx < 0) | (idx >= cells), axis=1)
            if np.any(outside):
                raise PreconditionError(
                    f"point {x[int(np.argmax(outside))].tolist()} lies outside the grid "
                    f"weight's box [{lo_t}, {hi_t})")
            return values[tuple(idx.T)]

        return cls(m, n, f, "grid", {"lo": lo_t, "hi": hi_t, "level": level})

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "kind": self.kind, **self.meta}

    @classmethod
    def from_dict(cls, d: dict, grid_values: np.ndarray | None = None,
                  base_dir: str | None = None) -> "MatrixWeight":
        """Weight from its JSON form; a relative ``values_file`` is resolved
        against ``base_dir`` (the directory of the weight file)."""
        kind = d.get("kind")
        n = int(d["n"])
        if kind == "constant":
            return cls.constant(np.asarray(d["matrix"]), n)
        if kind == "diag-power":
            return cls.diag_power(d["a"], d["alpha"], n, d.get("floor", 0.0))
        if kind == "grid":
            if grid_values is None:
                path = d.get("values_file")
                if path is None:
                    raise PreconditionError("grid weight needs values or values_file")
                grid_values = np.load(os.path.join(base_dir or "", path))
            return cls.grid(d["lo"], d["hi"], int(d["level"]), grid_values)
        raise PreconditionError(f"unknown weight kind {kind!r}")

    @classmethod
    def from_json(cls, text: str, base_dir: str | None = None) -> "MatrixWeight":
        return cls.from_dict(json.loads(text), base_dir=base_dir)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x) -> np.ndarray:
        return self._eval(np.atleast_2d(np.asarray(x, dtype=float)))

    def power(self, x, a: float) -> np.ndarray:
        """W(x)**a via Hermitian eigendecomposition with small-eigenvalue clamp."""
        W = self(x)
        vals, vecs = np.linalg.eigh(W)
        tr = np.trace(W, axis1=-2, axis2=-1).real
        clamp = EIG_CLAMP_REL * np.maximum(tr, 0.0)
        if a < 0:
            bad = tr <= 0
            if np.any(bad):
                node = np.atleast_2d(x)[int(np.argmax(bad))]
                raise SingularWeightError(f"weight is singular at {node}", node=node)
        vals_c = np.maximum(vals, clamp[:, None])
        if a < 0 and np.any(vals_c <= 0):
            node = np.atleast_2d(x)[int(np.argmax(np.any(vals_c <= 0, axis=-1)))]
            raise SingularWeightError(f"weight not invertible at {node}", node=node)
        pw = vals_c ** a
        return np.einsum("nij,nj,nkj->nik", vecs, pw, vecs.conj())

    def validate(self, pts, rel: float = 1e-12) -> None:
        W = self(pts)
        herm = np.max(np.abs(W - W.conj().swapaxes(-1, -2)))
        scale = max(np.max(np.abs(W)), 1e-300)
        if herm > rel * scale:
            raise PreconditionError(f"weight is not Hermitian (residual {herm:.2e})")
        vals = np.linalg.eigvalsh(W)
        norms = np.max(np.abs(vals), axis=-1)
        if np.any(vals < -1e-12 * np.maximum(norms[:, None], 1e-300)):
            raise PreconditionError("weight has a significantly negative eigenvalue")


def _pair_norms(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Spectral norms of A[x] @ B[y] for all pairs, shape (len(A), len(B)).

    ||A_x B_y||_2 is the square root of the largest eigenvalue of the Gram
    matrix (A_x B_y)^* (A_x B_y): the product of the moduli for m = 1, the
    closed form of a 2 x 2 Hermitian matrix for m = 2, a batched ``eigvalsh``
    above.  Real inputs keep the arithmetic real.
    """
    m = A.shape[-1]
    if m == 1:
        return np.multiply.outer(np.abs(A[:, 0, 0]), np.abs(B[:, 0, 0]))
    # (A_x B_y)^* (A_x B_y) = B_y^* (A_x^* A_x) B_y
    AhA = np.swapaxes(A.conj(), -1, -2) @ A
    Bh = np.ascontiguousarray(np.swapaxes(B.conj(), -1, -2))
    gram = Bh[None] @ (AhA[:, None] @ B[None])
    if m == 2:
        a, d = gram[..., 0, 0].real, gram[..., 1, 1].real
        top = 0.5 * (a + d) + np.hypot(0.5 * (a - d), np.abs(gram[..., 0, 1]))
    else:
        top = np.linalg.eigvalsh(gram)[..., -1]
    return np.sqrt(np.maximum(top, 0.0))


def _defining_average(W: MatrixWeight, p: float,
                      x_nodes: np.ndarray, y_nodes: np.ndarray) -> float:
    """Discretized averaging expression with x over the base cube, y over the
    (possibly enlarged) comparison region.

    The pairs are evaluated in row blocks over x of about PAIR_BLOCK pairs;
    the means over x accumulate across blocks.
    """
    A = W.power(x_nodes, 1.0 / p)
    B = W.power(y_nodes, -1.0 / p)
    rows = max(1, PAIR_BLOCK // len(B))
    blocks = (_pair_norms(A[s:s + rows], B) for s in range(0, len(A), rows))
    if p <= 1:
        col_sums = sum(np.sum(norms ** p, axis=0) for norms in blocks)
        return float(np.max(col_sums) / len(A))
    pprime = p / (p - 1)
    total = sum(np.sum(np.mean(norms ** pprime, axis=1) ** (p / pprime)) for norms in blocks)
    return float(total / len(A))


def ap_characteristic(W: MatrixWeight, p: float, window: LatticeWindow,
                      quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Sup over window cubes of the defining average.  Monotone under refinement."""
    if p <= 0:
        raise PreconditionError("p must be positive")
    best = 0.0
    for q in window.all_cubes():
        nodes, _ = quad.nodes(q.lower, q.upper)
        best = max(best, _defining_average(W, p, nodes, nodes))
    return best


def reducing_operator(W: MatrixWeight, p: float, cube: DyadicCube,
                      quad: QuadratureSpec = QuadratureSpec(),
                      directions: int | None = None,
                      rng: np.random.Generator | None = None) -> np.ndarray:
    """Positive-definite matrix whose norm matches the p-average of the weight.

    Order 2 uses the exact square root of the cell average; m = 1 reduces to
    the scalar closed form; other orders fit the minimum-volume enclosing
    ellipsoid of the average-norm unit ball sampled over directions.  This is
    the one-cube case of :meth:`ReducingFamily.build`.
    """
    ops, _, _ = _reducing_operators(W, p, CubeArrays.of([cube]), quad, directions, rng)
    return ops[0]


def _reducing_operators(W: MatrixWeight, p: float, cubes: CubeArrays,
                        quad: QuadratureSpec, directions: int | None = None,
                        rng: np.random.Generator | None = None):
    """Reducing operators of C cubes, shape (C, m, m), with the updates each
    ellipsoid fit made in each phase, shape (C, 2), and its final gap
    kappa_max / d, shape (C,); both are empty when no fit runs."""
    if p <= 0:
        raise PreconditionError("p must be positive")
    nodes = _cube_nodes(quad, cubes)
    no_fit = np.zeros((0, 2), dtype=int), np.zeros(0)
    if W.m == 1:
        # |A z| = (avg_E w)^{1/p} |z| exactly in the scalar case
        return _weight_means(W, nodes).real ** (1.0 / p), *no_fit
    if p == 2:
        avg = _weight_means(W, nodes)
        return _psd_sqrt(avg, "average weight not positive definite"), *no_fit
    dirs = _fit_directions(W.m, directions, rng)
    rho = _direction_averages(W, p, nodes, dirs)
    if np.any(rho <= 0):
        raise SingularWeightError("weight average vanishes in some direction")
    M, iterations, gap = _mvee_centered(dirs / rho[..., None])
    return _psd_sqrt(M, "ellipsoid fit produced a non-PD matrix"), iterations, gap


def _cube_nodes(quad: QuadratureSpec, cubes: CubeArrays) -> np.ndarray:
    """Quadrature nodes of every cube, shape (C, N, n).  Edge lengths are
    powers of two, so scaling the unit-cube nodes reproduces
    ``quad.nodes(cube.lower, cube.upper)`` exactly."""
    unit, _ = quad.nodes(np.zeros(cubes.n), np.ones(cubes.n))
    return cubes.lower[:, None, :] + cubes.side[:, None, None] * unit


def _cube_blocks(C: int, pairs_per_cube: int):
    """Slices of consecutive cubes holding about PAIR_BLOCK pairs each."""
    step = max(1, PAIR_BLOCK // pairs_per_cube)
    return (slice(s, s + step) for s in range(0, C, step))


def _weight_means(W: MatrixWeight, nodes: np.ndarray) -> np.ndarray:
    """Average of the weight over each cube's nodes, shape (C, m, m)."""
    C, N, n = nodes.shape
    means = []
    for blk in _cube_blocks(C, N):
        vals = W(nodes[blk].reshape(-1, n))
        if W.m == 1 and np.any(vals.real < 0):
            raise SingularWeightError("scalar weight negative on cube", node=None)
        means.append(np.mean(vals.reshape(-1, N, W.m, W.m), axis=1))
    return np.concatenate(means)


def _psd_sqrt(M: np.ndarray, what: str) -> np.ndarray:
    """Positive square roots of a batch of positive-definite matrices."""
    vals, vecs = np.linalg.eigh(M)
    if np.any(vals <= 0):
        raise SingularWeightError(what)
    return (vecs * np.sqrt(vals)[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)


def _fit_directions(m: int, directions: int | None,
                    rng: np.random.Generator | None) -> np.ndarray:
    """Unit directions sampling the average-norm ball, shape (D, m); every
    cube of a batch shares them."""
    ndir = directions or max(32 * m * m, 64)
    if m == 2:
        # dense angular grid keeps the sampled hull close to the true ball;
        # the centered fit sees +-z identically, so half the circle suffices
        ang = np.linspace(0.0, np.pi, max(ndir, 256), endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    dirs = (rng or np.random.default_rng(0)).standard_normal((ndir, m))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def _direction_averages(W: MatrixWeight, p: float, nodes: np.ndarray,
                        dirs: np.ndarray) -> np.ndarray:
    """rho(z) = (avg |W^{1/p} z|^p)^{1/p} over each cube's nodes, shape (C, D)."""
    C, N, n = nodes.shape
    rho = np.empty((C, len(dirs)))
    for blk in _cube_blocks(C, N * len(dirs)):
        pts = nodes[blk].reshape(-1, n)
        if np.max(np.abs(W(pts).imag)) > 1e-12:
            raise PreconditionError(
                "ellipsoid fit supports real symmetric weights; use p = 2 for complex ones")
        root = W.power(pts, 1.0 / p).real.reshape(-1, N, W.m, W.m)
        img = root @ dirs.T
        rho[blk] = np.mean(np.linalg.norm(img, axis=-2) ** p, axis=1) ** (1.0 / p)
    return rho


def _kappas(P: np.ndarray, Pt: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V^{-1} for V = P^T diag(u) P, and the leverages kappa_i = p_i^T V^{-1} p_i,
    batched over point sets P of shape (C, N, d); ``Pt`` is P with its last
    two axes swapped, stored contiguously."""
    V = (Pt * u[:, None, :]) @ P
    try:
        Vinv = np.linalg.inv(V)
    except np.linalg.LinAlgError as exc:
        raise SingularWeightError("degenerate direction set in ellipsoid fit") from exc
    # row sums over the d coordinates as a product with ones: a reduction
    # over so short an axis is several times slower
    return Vinv, ((P @ Vinv) * P) @ np.ones(P.shape[-1])


def _mvee_centered(pts: np.ndarray, tol: float = MVEE_TOL,
                   mult_iter: int = 200, fw_iter: int = 300):
    """Minimum-volume origin-centered ellipsoids {z: z^T M z <= 1} of C point
    sets at once, ``pts`` of shape (C, N, d) (each set is treated as
    symmetric, so only one representative per direction is needed).

    Two phases of the D-optimal-design iteration: the multiplicative update
    u_i <- u_i * kappa_i / d makes fast global progress, and a capped
    coordinate (Frank-Wolfe) phase polishes near the optimum.  A set leaves
    the batch once it meets its own stopping test.  The final rescale makes
    the containment exact regardless of where the iteration stops, so a cap
    costs only a bounded volume sub-optimality.

    Returns M (C, d, d), the updates each set made in each phase (C, 2) and
    its final gap kappa_max / d, which is 1 at the optimum.
    """
    P = np.asarray(pts, dtype=float)
    Pt = np.ascontiguousarray(np.swapaxes(P, -1, -2))
    C, N, d = P.shape
    u = np.full((C, N), 1.0 / N)
    iterations = np.zeros((C, 2), dtype=int)
    active = np.arange(C)

    def active_kappas():
        if len(active) == C:
            return _kappas(P, Pt, u)[1]
        return _kappas(P[active], Pt[active], u[active])[1]

    for _ in range(mult_iter):
        kappa = active_kappas()
        go = ~(np.max(kappa, axis=1) <= d * (1.0 + tol))
        active, kappa = active[go], kappa[go]
        if not len(active):
            break
        u[active] *= kappa / d
        u[active] /= np.sum(u[active], axis=1, keepdims=True)
        iterations[active, 0] += 1
    for _ in range(fw_iter if len(active) else 0):
        kappa = active_kappas()
        j = np.argmax(kappa, axis=1)
        kj = kappa[np.arange(len(j)), j]
        go = ~(kj <= d * (1.0 + tol))
        active, j, kj = active[go], j[go], kj[go]
        if not len(active):
            break
        alpha = (kj - d) / (d * (kj - 1.0))
        u[active] *= (1.0 - alpha)[:, None]
        u[active, j] += alpha
        iterations[active, 1] += 1
    Vinv, kappa = _kappas(P, Pt, u)
    # scale so every point satisfies z^T M z <= 1 exactly
    kappa_max = np.max(kappa, axis=1)
    return Vinv / kappa_max[:, None, None], iterations, kappa_max / d


def john_direction_report(W: MatrixWeight, p: float, cube: DyadicCube,
                          quad: QuadratureSpec = QuadratureSpec(),
                          directions: int = 256,
                          rng: np.random.Generator | None = None) -> dict:
    """Two-sided direction-ratio certificate for a fitted reducing operator."""
    A = reducing_operator(W, p, cube, quad, rng=rng)
    rng = rng or np.random.default_rng(1)
    m = W.m
    dirs = rng.standard_normal((directions, m))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    nodes, _ = quad.nodes(cube.lower, cube.upper)
    w_root = W.power(nodes, 1.0 / p)
    img = np.einsum("nab,db->nda", w_root, dirs)
    rho = (np.mean(np.linalg.norm(img, axis=-1) ** p, axis=0)) ** (1.0 / p)
    lhs = np.linalg.norm(dirs @ A.T, axis=-1)
    ratios = lhs / rho
    return {
        "matrix": A,
        "ratio_min": float(np.min(ratios)),
        "ratio_max": float(np.max(ratios)),
        "spread": float(np.max(ratios) / np.min(ratios)),
        "john_factor": math.sqrt(m),
    }


@dataclass
class ReducingFamily:
    """Reducing operators of a fixed order for one weight, one per window cube
    in ``window.all_cubes()`` order, with the ellipsoid-fit record of
    :meth:`build` (empty when no fit ran)."""

    p: float
    weight: MatrixWeight | None
    window: LatticeWindow
    ops: np.ndarray                    # (C, m, m)
    fit_iterations: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=int))
    fit_gap: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def operators_at(self, cubes: CubeArrays) -> np.ndarray:
        """Operators of N cubes, shape (N, m, m); refuses the first cube
        outside the family's window."""
        pos = self.window.positions(cubes)
        if np.any(pos < 0):
            missing = cubes.cube(int(np.argmax(pos < 0)))
            raise PreconditionError(f"no reducing operator stored for cube {missing}")
        return self.ops[pos]

    def __getitem__(self, cube: DyadicCube) -> np.ndarray:
        return self.operators_at(CubeArrays.of([cube]))[0]

    def __contains__(self, cube: DyadicCube) -> bool:
        return self.window.contains(cube)

    def fit_report(self) -> dict:
        """Fits run, fits stopped by an iteration cap short of the tolerance,
        the most updates any fit made (both phases) and the largest final
        gap kappa_max / d (None without fits)."""
        return {
            "fits": len(self.fit_gap),
            "capped": int(np.sum(self.fit_gap > 1.0 + MVEE_TOL)),
            "iterations_max": int(np.max(self.fit_iterations.sum(axis=1), initial=0)),
            "gap_max": float(np.max(self.fit_gap)) if len(self.fit_gap) else None,
        }

    @classmethod
    def identity(cls, m: int, p: float, window: LatticeWindow) -> "ReducingFamily":
        return cls(p, None, window, np.broadcast_to(np.eye(m), (window.count(), m, m)))

    @classmethod
    def build(cls, W: MatrixWeight, p: float, window: LatticeWindow,
              quad: QuadratureSpec = QuadratureSpec()) -> "ReducingFamily":
        """Operators of every window cube, computed as one batch."""
        ops, iterations, gap = _reducing_operators(W, p, CubeArrays.of_window(window), quad)
        return cls(p, W, window, ops, iterations, gap)


def reducing_ratio_bound(fam: ReducingFamily, wd: WeightDims,
                         q: DyadicCube, r: DyadicCube) -> tuple[float, float]:
    """(measured ||A_Q A_R^{-1}||, model bound) for a cube pair."""
    Aq = fam[q]
    Ar = fam[r]
    ratio = float(np.linalg.norm(Aq @ np.linalg.inv(Ar), ord=2))
    lq, lr = q.side, r.side
    if fam.p <= 1:
        scale = max((lr / lq) ** (wd.d / fam.p), 1.0)
    else:
        pprime = fam.p / (fam.p - 1)
        scale = max((lr / lq) ** (wd.d / fam.p), (lq / lr) ** (wd.d_tilde / pprime))
    dist = 1.0 + float(np.linalg.norm(np.array(q.center) - np.array(r.center))) / max(lq, lr)
    return ratio, scale * dist ** wd.delta


def ap_dimension_estimate(W: MatrixWeight, p: float, window: LatticeWindow,
                          quad: QuadratureSpec = QuadratureSpec(),
                          min_doublings: int = 4,
                          max_base_cubes: int = 64) -> tuple[float, dict]:
    """Least-squares doubling exponent of the defining averages.

    For each base cube Q with room for >= min_doublings concentric doublings
    inside the window box, fits log2(average over 2^i Q) against i and reports
    the per-cube slopes; the estimate is the maximum slope.
    """
    if p <= 0:
        raise PreconditionError("p must be positive")
    lo = np.array(window.lo, dtype=float)
    hi = np.array(window.hi, dtype=float)
    candidates = []
    for q in window.all_cubes():
        c = np.array(q.center)
        i = 0
        while True:
            half = 0.5 * q.side * (1 << (i + 1))
            if np.all(c - half >= lo) and np.all(c + half <= hi):
                i += 1
            else:
                break
        if i >= min_doublings:
            candidates.append((q, i))
    if not candidates:
        raise PreconditionError(
            f"window too shallow: no cube admits {min_doublings} doublings")
    if len(candidates) > max_base_cubes:
        stride = len(candidates) // max_base_cubes + 1
        candidates = candidates[::stride]
    per_cube = []
    best = -math.inf
    for q, imax in candidates:
        c = np.array(q.center)
        base_nodes, _ = quad.nodes(q.lower, q.upper)
        vals = []
        for i in range(imax + 1):
            half = 0.5 * q.side * (1 << i)
            y_nodes, _ = quad.nodes(c - half, c + half)
            vals.append(_defining_average(W, p, base_nodes, y_nodes))
        ii = np.arange(imax + 1, dtype=float)
        logs = np.log2(np.maximum(vals, 1e-300))
        slope, intercept = np.polyfit(ii, logs, 1)
        resid = float(np.sqrt(np.mean((logs - (slope * ii + intercept)) ** 2)))
        per_cube.append({"cube": str(q), "slope": float(slope), "residual": resid,
                         "doublings": imax})
        best = max(best, float(slope))
    report = {"per_cube": per_cube, "n_base_cubes": len(candidates)}
    return best, report
