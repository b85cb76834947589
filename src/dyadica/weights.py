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

from .dyadic import DyadicCube, LatticeWindow
from .errors import PreconditionError, SingularWeightError
from .params import WeightDims

EIG_CLAMP_REL = 1e-14


def worker_count() -> int:
    """Workers for per-cube constructions: DYADICA_THREADS, 1 when unset."""
    raw = os.environ.get("DYADICA_THREADS") or "1"
    if not raw.strip().isdigit() or int(raw) < 1:
        raise PreconditionError(f"DYADICA_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


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
        [lo, hi) at resolution 2**-level, row-major.
        """
        lo_t = tuple(int(v) for v in lo)
        hi_t = tuple(int(v) for v in hi)
        n = len(lo_t)
        values = np.asarray(values, dtype=complex)
        m = values.shape[-1]
        cells = [int((b - a) * (1 << level)) if level >= 0 else (b - a) // (1 << -level)
                 for a, b in zip(lo_t, hi_t)]
        if tuple(values.shape[:-2]) != tuple(cells):
            raise PreconditionError(f"grid values shape {values.shape[:-2]} != cells {cells}")

        scale = math.ldexp(1.0, level)

        def f(x):
            x = np.atleast_2d(x)
            idx = []
            for i in range(n):
                ii = np.floor((x[:, i] - lo_t[i]) * scale).astype(int)
                ii = np.clip(ii, 0, cells[i] - 1)
                idx.append(ii)
            return values[tuple(idx)]

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
    """Spectral norms of A[i] @ B[j] for all pairs, shape (len(A), len(B))."""
    prod = np.einsum("xab,ybc->xyac", A, B)
    return np.linalg.norm(prod, ord=2, axis=(-2, -1))


def _defining_average(W: MatrixWeight, p: float,
                      x_nodes: np.ndarray, y_nodes: np.ndarray) -> float:
    """Discretized averaging expression with x over the base cube, y over the
    (possibly enlarged) comparison region."""
    A = W.power(x_nodes, 1.0 / p)
    B = W.power(y_nodes, -1.0 / p)
    norms = _pair_norms(A, B)
    if p <= 1:
        return float(np.max(np.mean(norms ** p, axis=0)))
    pprime = p / (p - 1)
    inner = np.mean(norms ** pprime, axis=1) ** (p / pprime)
    return float(np.mean(inner))


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
    ellipsoid of the average-norm unit ball sampled over directions.
    """
    if p <= 0:
        raise PreconditionError("p must be positive")
    nodes, _ = quad.nodes(cube.lower, cube.upper)
    if W.m == 1:
        # |A z| = (avg_E w)^{1/p} |z| exactly in the scalar case
        w = W(nodes)[:, 0, 0].real
        if np.any(w < 0):
            raise SingularWeightError("scalar weight negative on cube", node=None)
        return np.array([[float(np.mean(w)) ** (1.0 / p)]])
    if p == 2:
        avg = np.mean(W(nodes), axis=0)
        vals, vecs = np.linalg.eigh(avg)
        if np.any(vals <= 0):
            raise SingularWeightError("average weight not positive definite")
        return (vecs * np.sqrt(vals)) @ vecs.conj().T
    if np.max(np.abs(W(nodes).imag)) > 1e-12:
        raise PreconditionError("ellipsoid fit supports real symmetric weights; use p = 2 for complex ones")
    m = W.m
    ndir = directions or max(32 * m * m, 64)
    rng = rng or np.random.default_rng(0)
    if m == 2:
        # dense angular grid keeps the sampled hull close to the true ball;
        # the centered fit sees +-z identically, so half the circle suffices
        ang = np.linspace(0.0, np.pi, max(ndir, 256), endpoint=False)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        dirs = rng.standard_normal((ndir, m))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    w_root = W.power(nodes, 1.0 / p).real
    # rho(z) = (avg |W^{1/p} z|^p)^{1/p}
    img = np.einsum("nab,db->nda", w_root, dirs)
    rho = (np.mean(np.linalg.norm(img, axis=-1) ** p, axis=0)) ** (1.0 / p)
    if np.any(rho <= 0):
        raise SingularWeightError("weight average vanishes in some direction")
    pts = dirs / rho[:, None]
    M = _mvee_centered(pts)
    vals, vecs = np.linalg.eigh(M)
    if np.any(vals <= 0):
        raise SingularWeightError("ellipsoid fit produced a non-PD matrix")
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _mvee_centered(pts: np.ndarray, tol: float = 1e-7,
                   mult_iter: int = 200, fw_iter: int = 300) -> np.ndarray:
    """Minimum-volume origin-centered ellipsoid {z: z^T M z <= 1} of a point
    set (the set is treated as symmetric, so only one representative per
    direction is needed).

    Two phases of the D-optimal-design iteration: the multiplicative update
    u_i <- u_i * kappa_i / d makes fast global progress, and a capped
    coordinate (Frank-Wolfe) phase polishes near the optimum.  The final
    rescale makes the containment exact regardless of where the iteration
    stops, so the cap costs only a bounded volume sub-optimality.
    """
    P = np.asarray(pts, dtype=float)
    N, d = P.shape
    u = np.full(N, 1.0 / N)

    def kappas(u):
        V = P.T @ (P * u[:, None])
        try:
            Vinv = np.linalg.inv(V)
        except np.linalg.LinAlgError as exc:
            raise SingularWeightError("degenerate direction set in ellipsoid fit") from exc
        return np.einsum("nd,de,ne->n", P, Vinv, P)

    for _ in range(mult_iter):
        kappa = kappas(u)
        if np.max(kappa) <= d * (1.0 + tol):
            break
        u *= kappa / d
        u /= np.sum(u)
    for _ in range(fw_iter):
        kappa = kappas(u)
        j = int(np.argmax(kappa))
        kj = kappa[j]
        if kj <= d * (1.0 + tol):
            break
        alpha = (kj - d) / (d * (kj - 1.0))
        u *= (1.0 - alpha)
        u[j] += alpha
    V = P.T @ (P * u[:, None])
    Vinv = np.linalg.inv(V)
    # scale so every point satisfies z^T M z <= 1 exactly
    kappa_max = float(np.max(np.einsum("nd,de,ne->n", P, Vinv, P)))
    return Vinv / kappa_max


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
    w_root = W.power(nodes, 1.0 / p).real
    img = np.einsum("nab,db->nda", w_root, dirs)
    rho = (np.mean(np.linalg.norm(img, axis=-1) ** p, axis=0)) ** (1.0 / p)
    lhs = np.linalg.norm(dirs @ A.T.real, axis=-1)
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
    """Per-cube reducing operators of a fixed order for one weight."""

    p: float
    weight: MatrixWeight | None
    operators: dict[DyadicCube, np.ndarray] = field(default_factory=dict)

    def __getitem__(self, cube: DyadicCube) -> np.ndarray:
        try:
            return self.operators[cube]
        except KeyError as exc:
            raise PreconditionError(f"no reducing operator stored for cube {cube}") from exc

    def __contains__(self, cube: DyadicCube) -> bool:
        return cube in self.operators

    @classmethod
    def identity(cls, m: int, p: float, window: LatticeWindow) -> "ReducingFamily":
        eye = np.eye(m)
        return cls(p, None, {q: eye for q in window.all_cubes()})

    @classmethod
    def build(cls, W: MatrixWeight, p: float, window: LatticeWindow,
              quad: QuadratureSpec = QuadratureSpec(),
              workers: int | None = None) -> "ReducingFamily":
        """Construct per-cube operators; the weight evaluator must be pure.

        ``workers`` defaults to :func:`worker_count`; values above 1 spread
        the independent per-cube fits over a thread pool.
        """
        cubes = list(window.all_cubes())
        if workers is None:
            workers = worker_count()
        if workers > 1 and len(cubes) > 1:
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(max_workers=workers) as pool:
                mats = list(pool.map(lambda q: reducing_operator(W, p, q, quad), cubes))
            ops = dict(zip(cubes, mats))
        else:
            ops = {q: reducing_operator(W, p, q, quad) for q in cubes}
        return cls(p, W, ops)


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
