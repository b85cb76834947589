"""Validation of localized functions against decay/cancellation/smoothness
conditions, the inner-product bound parameters for pairs of such functions,
and construction of compactly supported atoms.

Candidates carry their own derivative evaluators (closed-form where the
construction permits, central finite differences otherwise).  Validation
reports the smallest admissible multiplicative constant per condition family
together with a uniformity check: a constant that keeps growing toward the
edge of the sampling region signals a decay exponent that the candidate does
not actually have.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import DyadicCube, tensor_points
from .errors import PreconditionError
from .params import (
    DerivedIndices,
    MoleculeParams,
    molecule_param_sets,
    rounding_profile,
    strict_ceil,
)

# Hoelder step: separations side / 2^i for i < HOLDER_SEPS, envelope probes per segment
HOLDER_SEPS = 5
HOLDER_PROBE = 17
# moments vanish up to this share of sup |f| times the support volume
MOMENT_TOL = 1e-9
# a decay constant is stable when doubling the sampling region grows it at most this much
GROWTH_TOL = 1.5


def _check_finite(**values: float) -> None:
    """Refuse the first named value that is NaN or infinite."""
    for name, v in values.items():
        if not math.isfinite(v):
            raise PreconditionError(f"{name} must be finite, got {v}")


def envelope(K: float, q: DyadicCube, pts: np.ndarray) -> np.ndarray:
    """(1 + |x - x_Q| / side)^-K scaled by |Q|^{-1/2}."""
    pts = np.atleast_2d(pts)
    t = (pts - np.array(q.lower)) / q.side
    r = np.linalg.norm(t, axis=-1)
    return q.volume ** -0.5 * (1.0 + r) ** -K


def central_difference(known, orders: tuple, args: tuple, step) -> np.ndarray:
    """Mixed partial by nested central differences; ``orders`` holds one
    multi-index per point array (N, n) of ``args``.  ``known(orders, args)``
    returns the partial where the caller has it, refuses orders beyond its
    cap, and returns None otherwise; then the first argument of nonzero order
    moves by +-h along its first such axis, with ``h = step(which, args)``
    taken at the points of this level."""
    value = known(orders, args)
    if value is not None:
        return value
    which = next(i for i, g in enumerate(orders) if any(g))
    axis = next(i for i, g in enumerate(orders[which]) if g > 0)
    lower, up, down = list(orders), list(args), list(args)
    lower[which] = tuple(g - (i == axis) for i, g in enumerate(orders[which]))
    h = step(which, args)
    shift = np.zeros(args[which].shape)
    shift[:, axis] = h
    up[which] = args[which] + shift
    down[which] = args[which] - shift
    return (central_difference(known, tuple(lower), tuple(up), step)
            - central_difference(known, tuple(lower), tuple(down), step)) / (2 * h)


def closed_form(f, orders: tuple, args: tuple, key, refusal: str):
    """The ``known`` rule of :func:`central_difference` for an evaluator ``f``
    with ``derivatives`` and ``max_order``: f at order 0, else the closed form
    registered under ``key``, else the refusal above ``max_order``, else None."""
    if not any(map(any, orders)):
        return f(*args)
    if key in f.derivatives:
        return np.asarray(f.derivatives[key](*args), dtype=complex)
    if sum(map(sum, orders)) > f.max_order:
        raise PreconditionError(refusal)
    return None


def gauss_panels(lo, hi, panels: int, rule: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Tensor rule of the 1d Gauss-Legendre ``rule`` (nodes and weights on
    [-1, 1], built once by the caller) on ``panels`` equal panels per axis of
    the box [lo, hi]: points (N, n), weights (N,)."""
    nodes_1d, weights_1d = rule
    # per axis, the nodes and weights of every panel [a, b), panel by panel
    edges = [np.linspace(a, b, panels + 1)[:, None] for a, b in zip(lo, hi)]
    half = [0.5 * (e[1:] - e[:-1]) for e in edges]
    pts = tensor_points([(d * nodes_1d + 0.5 * (e[:-1] + e[1:])).ravel()
                         for d, e in zip(half, edges)])
    return pts, np.prod(tensor_points([(d * weights_1d).ravel() for d in half]), axis=-1)


def multi_indices(n: int, total_max: int):
    """All multi-indices of length n with |gamma| <= total_max."""
    for total in range(total_max + 1):
        for combo in itertools.combinations_with_replacement(range(n), total):
            gamma = [0] * n
            for c in combo:
                gamma[c] += 1
            yield tuple(gamma)


@dataclass
class MoleculeCandidate:
    """A function attached to a cube, with derivative access.

    ``deriv(gamma, pts)`` returns the mixed partial; closed-form evaluators
    are registered in ``derivatives``, anything else falls back to central
    differences with step ``fd_step_rel * side``.
    """

    cube: DyadicCube
    func: object                      # pts (N, n) -> complex (N,)
    derivatives: dict = field(default_factory=dict)
    max_order: int = 0
    support_radius: float = math.inf  # in units of side, from the cube center
    fd_step_rel: float = 1e-5
    # for grid-sampled candidates: (spacing, lo tuple, hi tuple); integrals
    # then use the aligned left-endpoint rule, which is exact for the moments
    # of refinable sample data
    aligned_grid: tuple | None = None
    label: str = "candidate"

    def __call__(self, pts) -> np.ndarray:
        return np.asarray(self.func(np.atleast_2d(pts)), dtype=complex)

    def deriv(self, gamma: tuple[int, ...], pts) -> np.ndarray:
        return central_difference(self._known, (tuple(gamma),), (np.atleast_2d(pts),),
                                  lambda which, args: self.fd_step_rel * self.cube.side)

    def _known(self, orders, args):
        return closed_form(self, orders, args, orders[0],
                           f"candidate declares derivatives up to order {self.max_order}, "
                           f"requested {orders[0]}")


@dataclass(frozen=True)
class ValidationGrid:
    """Sampling region around the cube: extent in units of side, per-side count."""

    extent: float = 8.0
    points_per_side: int = 16

    def __post_init__(self):
        if not (0 < self.extent < math.inf and self.extent * self.points_per_side >= 1):
            raise PreconditionError(f"validation grid has no points or no finite extent: "
                                    f"extent {self.extent}, {self.points_per_side} per side")

    def points(self, q: DyadicCube, extent: float | None = None) -> np.ndarray:
        extent = self.extent if extent is None else extent
        total = int(extent * self.points_per_side)
        offs = (np.arange(total) + 0.5) / self.points_per_side - extent / 2
        return tensor_points([c + q.side * offs for c in q.center])


@dataclass
class ConditionReport:
    name: str
    passed: bool
    constant: float
    witness: tuple | None = None
    detail: dict = field(default_factory=dict)


@dataclass
class MoleculeReport:
    conditions: list[ConditionReport]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def __getitem__(self, name: str) -> ConditionReport:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "conditions": [
                {"name": c.name, "passed": c.passed, "constant": c.constant,
                 "witness": c.witness, **c.detail}
                for c in self.conditions
            ],
        }


def _ratio_condition(name: str, evaluate, bound, q: DyadicCube,
                     grid: ValidationGrid) -> ConditionReport:
    """Fit the smallest constant c with |f| <= c * bound on the sampling
    region, and require it to be stable when the region doubles: a constant
    that keeps growing outward signals a decay exponent the candidate lacks.

    ``evaluate`` and ``bound`` map point arrays to values.
    """
    pts = grid.points(q)
    ratios = np.abs(evaluate(pts)) / bound(pts)
    i = int(np.argmax(ratios))
    c_base = float(ratios[i])
    if c_base == 0.0:
        return ConditionReport(name, True, 0.0)
    pts2 = grid.points(q, extent=2 * grid.extent)
    ratios2 = np.abs(evaluate(pts2)) / bound(pts2)
    i2 = int(np.argmax(ratios2))
    c_ext = float(ratios2[i2])
    stable = c_ext <= GROWTH_TOL * c_base
    c_all = max(c_base, c_ext)
    witness = tuple(pts2[i2]) if c_ext >= c_base else tuple(pts[i])
    return ConditionReport(name, bool(stable and math.isfinite(c_all)), c_all,
                           witness=witness,
                           detail={"base_constant": c_base, "extended_constant": c_ext})


def _moment_quadrature(f: MoleculeCandidate, gamma: tuple[int, ...],
                       extent: float, tol_abs: float,
                       order: int = 24, max_refine: int = 6) -> complex:
    """Adaptive tensor Gauss-Legendre integral of x^gamma * f over the
    sampling box, doubling the panel count until the value stabilizes (refused
    after ``max_refine`` doublings).  Grid-aligned candidates use their native
    left-endpoint rule instead."""
    if f.aligned_grid is not None:
        return _aligned_moment(f, gamma)
    q = f.cube
    # the sampling box, cut to the support
    half = min(extent / 2, f.support_radius) * q.side
    lo, hi = np.array(q.center) - half, np.array(q.center) + half
    rule = np.polynomial.legendre.leggauss(order)
    tol = max(tol_abs, 1e-300)
    vals = []
    for panels in (2 ** i for i in range(max_refine + 1)):
        pts, w = gauss_panels(lo, hi, panels, rule)
        mono = np.prod(pts ** np.array(gamma), axis=-1)
        vals.append(complex(np.sum(w * mono * f(pts))))
        if len(vals) > 1 and abs(vals[-1] - vals[-2]) <= tol:
            return vals[-1]
    change = f"{abs(vals[-1] - vals[-2]):.3g}" if len(vals) > 1 else "none"
    raise PreconditionError(f"moment {gamma} on cube {q} not converged at {panels} panels: "
                            f"last change {change}, tolerance {tol:.3g}")


def _aligned_moment(f: MoleculeCandidate, gamma: tuple[int, ...]) -> complex:
    h, lo, hi = f.aligned_grid
    n = f.cube.n
    pts = tensor_points([lo[i] + h * np.arange(round((hi[i] - lo[i]) / h)) for i in range(n)])
    mono = np.prod(pts ** np.array(gamma), axis=-1)
    return complex(np.sum(mono * f(pts)) * h ** n)


def _worst_moment(f: MoleculeCandidate, L: float, extent: float,
                  tol_abs: float) -> tuple[float, tuple | None]:
    """The largest |moment| of f through order floor(L), none for L < 0, on
    the box of ``extent`` sides, and its multi-index (None while all are 0)."""
    worst, worst_gamma = 0.0, None
    for gamma in multi_indices(f.cube.n, math.floor(L)):
        mom = abs(_moment_quadrature(f, gamma, extent, tol_abs))
        if mom > worst:
            worst, worst_gamma = mom, gamma
    return worst, worst_gamma


def validate_molecule(f: MoleculeCandidate, K: float, L: float, M: float, N: float,
                      grid: ValidationGrid = ValidationGrid()) -> MoleculeReport:
    """Check the four condition families of a localized function.

    (a) decay against the K-envelope, (b) vanishing moments through L,
    (c) derivative decay against the M-envelope below order N, and (d) the
    fractional-smoothness difference condition at the top order.  Each decay
    condition reports its smallest admissible constant and fails when the
    constant keeps growing toward the sampling edge.
    """
    _check_finite(K=K, L=L, M=M, N=N)
    q = f.cube
    n = q.n
    pts = grid.points(q)
    conditions = []

    # (a) size
    vals = f(pts)
    conditions.append(_ratio_condition("decay", f, lambda p: envelope(K, q, p), q, grid))

    # (b) cancellation
    if L >= 0:
        sup = float(np.max(np.abs(vals)))
        span = (min(2 * f.support_radius, grid.extent) * q.side) ** n
        scale = max(sup * span, 1e-300)
        worst, worst_gamma = _worst_moment(f, L, grid.extent, MOMENT_TOL * scale)
        conditions.append(ConditionReport(
            "cancellation", worst <= MOMENT_TOL * scale, worst / scale,
            witness=worst_gamma, detail={"tolerance": MOMENT_TOL}))
    else:
        conditions.append(ConditionReport("cancellation", True, 0.0,
                                          detail={"void": True}))

    # (c) derivative decay for 0 < |gamma| < N, void for N <= 0
    rpN = rounding_profile(N)
    reports = []
    for gamma in multi_indices(n, max(rpN.strict_floor, 0)):
        order = sum(gamma)
        if order == 0 or order >= N:
            continue
        reports.append(_ratio_condition(
            "derivative-decay",
            lambda p, g=gamma: f.deriv(g, p),
            lambda p, o=order: q.side ** -o * envelope(M, q, p),
            q, grid))
    if reports:
        worst = max(reports, key=lambda r: r.constant)
        worst = ConditionReport("derivative-decay",
                                all(r.passed for r in reports),
                                worst.constant, worst.witness, worst.detail)
    else:
        worst = ConditionReport("derivative-decay", True, 0.0,
                                detail={"void": True})
    conditions.append(worst)

    # (d) Hoelder difference at |gamma| = strict_floor(N), exponent N**
    if N > 0:
        expo = rpN.strict_frac
        gorder = max(rpN.strict_floor, 0)
        rng = np.random.default_rng(12345)
        sub = pts[rng.choice(len(pts), size=min(len(pts), 160), replace=False)]
        # the coarse probe fractions are the even rows of the fine ones
        fine = np.linspace(-1.0, 1.0, 2 * HOLDER_PROBE - 1)[:, None, None]
        best_c = 0.0
        witness = None
        deltas = []
        for gamma in multi_indices(n, gorder):
            if sum(gamma) != gorder:
                continue
            a = f.deriv(gamma, sub)
            for i_sep in range(HOLDER_SEPS):
                h = q.side / 2 ** i_sep
                for axis in range(n):
                    dvec = np.zeros(n)
                    dvec[axis] = h
                    diff = np.abs(a - f.deriv(gamma, sub + dvec))
                    # sup over |z| <= |x - y| of the envelope, probed on the segment
                    env = envelope(M, q, sub + fine * dvec)
                    sup_env = env[::2].max(axis=0)
                    sup_env_fine = env.max(axis=0)
                    deltas.append(float(np.max(np.abs(sup_env_fine - sup_env)
                                               / np.maximum(sup_env, 1e-300))))
                    bound = q.side ** -gorder * (h / q.side) ** expo * sup_env_fine
                    ratios = diff / bound
                    i = int(np.argmax(ratios))
                    if ratios[i] > best_c:
                        best_c = float(ratios[i])
                        witness = (tuple(sub[i]), h, gamma)
        conditions.append(ConditionReport(
            "holder", math.isfinite(best_c), best_c, witness,
            detail={"probe_refinement_delta": max(deltas) if deltas else 0.0,
                    "exponent": expo}))
    else:
        conditions.append(ConditionReport("holder", True, 0.0, detail={"void": True}))

    return MoleculeReport(conditions)


def mgh_bound(params_m: MoleculeParams, params_b: MoleculeParams,
              n: int, alpha: float) -> tuple[float, float, float]:
    """Decay/shift parameters of the inner-product bound for two localized
    families; inapplicable unless all decay exponents exceed the dimension."""
    if alpha <= 0:
        raise PreconditionError("alpha must be positive")
    if min(params_m.K, params_m.M, params_b.K, params_b.M) <= n:
        raise PreconditionError("inner-product bound needs decay exponents > n")
    M = min(params_m.K, params_m.M, params_b.K, params_b.M)
    G = n / 2.0 + max(min(params_b.N, strict_ceil(params_m.L),
                          params_m.K - n - alpha), 0.0)
    H = n / 2.0 + max(min(params_m.N, strict_ceil(params_b.L),
                          params_b.K - n - alpha), 0.0)
    return M, G, H


def families_ad_check(analysis: MoleculeParams, synthesis: MoleculeParams,
                      di: DerivedIndices, n: int) -> tuple[bool, list[str]]:
    """Whether the two families' parameters make their pairing matrix
    admissible for the space; returns the failing inequalities by name."""
    syn_spec, ana_spec = molecule_param_sets(di, n)
    cs_syn = syn_spec.check(synthesis)
    cs_ana = ana_spec.check(analysis)
    failing = [f"synthesis {s}" for s in cs_syn.failing()]
    failing += [f"analysis {s}" for s in cs_ana.failing()]
    return (cs_syn.ok and cs_ana.ok), failing


# ---------------------------------------------------------------------------
# atom construction

def _bump_poly_coeffs(power: int) -> np.ndarray:
    """(1 - t^2)^power as polynomial coefficients (low to high degree)."""
    poly = np.array([1.0])
    factor = np.array([1.0, 0.0, -1.0])  # 1 - t^2
    for _ in range(power):
        poly = np.convolve(poly, factor)
    return poly


def _poly_derivative(coeffs: np.ndarray, k: int) -> np.ndarray:
    c = np.polynomial.polynomial.Polynomial(coeffs)
    return c.deriv(k).coef if k > 0 else coeffs


def make_atom(q: DyadicCube, r: float, L: float, N: float) -> MoleculeCandidate:
    """Compactly supported atom on r*q with vanishing moments through L.

    One-dimensional prototype: the (floor(L)+1)-st derivative of the
    polynomial bump (1-t^2)^P, tensorized; derivatives are exact polynomial
    evaluations.  The normalization keeps every derivative bound through
    order N strictly below the definitional constant 1.
    """
    _check_finite(r=r, L=L, N=N)
    if r < 1:
        raise PreconditionError("the support dilation r must be at least 1")
    n = q.n
    l_int = max(math.floor(L) + 1, 0) if L >= 0 else 0
    n_int = max(math.ceil(N), 0)
    power = l_int + n_int + 6
    base = _bump_poly_coeffs(power)
    proto = _poly_derivative(base, l_int)
    # 1d derivative table up to n_int
    derivs_1d = [proto]
    for _ in range(n_int):
        derivs_1d.append(_poly_derivative(derivs_1d[-1], 1))
    ts = np.linspace(-1, 1, 4097)
    sup_1d = [float(np.max(np.abs(np.polynomial.polynomial.polyval(ts, c))))
              for c in derivs_1d]
    half = r / 2.0  # support half-width in units of side
    center = np.array(q.center)
    side = q.side

    def eval_tensor(gamma, pts):
        pts = np.atleast_2d(pts)
        t = (pts - center) / (half * side)
        out = np.ones(pts.shape[0])
        inside = np.all(np.abs(t) < 1.0, axis=-1)
        for axis in range(n):
            c = derivs_1d[gamma[axis]]
            out = out * np.polynomial.polynomial.polyval(t[:, axis], c)
            out = out * (half * side) ** -gamma[axis]
        return np.where(inside, out, 0.0)

    # normalization: |D^gamma a_Q| <= 0.999 |Q|^{-1/2-|gamma|/n}
    worst = 0.0
    for gamma in multi_indices(n, n_int):
        sup = 1.0
        for axis in range(n):
            sup *= sup_1d[gamma[axis]] / (half * side) ** gamma[axis]
        need = q.volume ** (-0.5 - sum(gamma) / n)
        worst = max(worst, sup / need)
    c0 = 0.999 / worst

    derivatives = {}
    for gamma in multi_indices(n, n_int):
        derivatives[gamma] = (lambda pts, g=gamma: c0 * eval_tensor(g, pts))

    return MoleculeCandidate(
        cube=q,
        func=lambda pts: c0 * eval_tensor((0,) * n, pts),
        derivatives=derivatives,
        max_order=n_int,
        support_radius=half,
        label=f"atom(r={r}, L={L}, N={N})",
    )


def validate_atom(f: MoleculeCandidate, q: DyadicCube, r: float, L: float, N: float,
                  grid: ValidationGrid = ValidationGrid()) -> MoleculeReport:
    """Support containment, exact moments, and derivative bounds with the
    definitional constant 1 (up to 1e-6 relative slack)."""
    _check_finite(r=r, L=L, N=N)
    n = q.n
    pts = grid.points(q)
    vals = np.abs(f(pts))
    center = np.array(q.center)
    inside = np.all(np.abs(pts - center) <= r / 2 * q.side + 1e-12, axis=-1)
    bad = (~inside) & (vals > 0)
    if np.any(bad):
        i = int(np.argmax(bad))
        support = ConditionReport("support", False, float(vals[i]), tuple(pts[i]))
    else:
        support = ConditionReport("support", True, 0.0)

    sup = float(np.max(vals))
    scale = max(sup * (r * q.side) ** n, 1e-300)
    worst, worst_gamma = _worst_moment(f, L, 2 * r, MOMENT_TOL * scale)
    moments = ConditionReport("moments", worst <= MOMENT_TOL * scale,
                              worst / scale, worst_gamma)

    worst_ratio, witness = 0.0, None
    for gamma in multi_indices(n, math.floor(N)):
        dv = np.abs(f.deriv(gamma, pts))
        bound = q.volume ** (-0.5 - sum(gamma) / n)
        i = int(np.argmax(dv))
        ratio = float(dv[i] / bound)
        if ratio > worst_ratio:
            worst_ratio, witness = ratio, (tuple(pts[i]), gamma)
    bounds = ConditionReport("derivative-bounds", worst_ratio <= 1.0 + 1e-6,
                             worst_ratio, witness)
    return MoleculeReport([support, moments, bounds])


@dataclass
class MoleculeFamily:
    """A labelled family: declared parameters plus a member factory."""

    params: MoleculeParams
    member: object     # cube -> MoleculeCandidate
    label: str = "family"

    def __call__(self, q: DyadicCube) -> MoleculeCandidate:
        return self.member(q)


def wavelet_family(sys, lam: tuple[int, ...], params: MoleculeParams) -> MoleculeFamily:
    """Wrap one tensor-wavelet channel as a molecule family."""

    def member(q: DyadicCube) -> MoleculeCandidate:
        h = q.side * 2.0 ** -sys.resolution
        lo = q.lower
        hi = tuple(v + sys.support_width * q.side for v in lo)
        return MoleculeCandidate(
            cube=q,
            func=lambda pts: sys.evaluate(lam, q, pts),
            max_order=max(math.floor(sys.fp.holder), 0),
            support_radius=float(sys.support_width) + 1.0,
            fd_step_rel=2.0 ** -(sys.resolution - 2),
            aligned_grid=(h, lo, hi),
            label=f"wavelet{lam}",
        )

    return MoleculeFamily(params, member, f"wavelet-channel-{lam}")
