"""Singular-kernel condition checks, far-field action on atoms, decay-exponent
fits, legacy parameter conversion, and pseudo-differential application.

Kernel conditions are verified by sampling logarithmic shells of separations
with offsets that are fixed fractions of the separation, so fitted constants
are dilation-invariant by construction; per-decade constants and their drift
are the stability diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import tensor_points
from .errors import PreconditionError
from .molecules import MoleculeCandidate, central_difference, multi_indices
from .params import (
    ConstraintSet,
    DerivedIndices,
    Inequality,
    MoleculeParams,
    pos,
    rounding_profile,
    strict_ceil,
    strict_floor,
)
from .wavelets import FunctionSample

# central-difference step of kernel derivatives, relative to the separation
KERNEL_FD_REL = 1e-3


class Kernel:
    """Off-diagonal kernel evaluator with mixed-derivative access.

    ``deriv(alpha, beta, X, Y)`` evaluates mixed partials; closed forms are
    registered per (alpha, beta), anything else uses nested central
    differences with steps proportional to the separation.
    """

    def __init__(self, n: int, eval_fn, derivatives: dict | None = None,
                 max_order: int = 4, label: str = "kernel"):
        self.n = int(n)
        self._eval = eval_fn
        self.derivatives = derivatives or {}
        self.max_order = max_order
        self.label = label

    def __call__(self, X, Y) -> np.ndarray:
        return np.asarray(self._eval(np.atleast_2d(X), np.atleast_2d(Y)), dtype=complex)

    def deriv(self, alpha: tuple[int, ...], beta: tuple[int, ...], X, Y) -> np.ndarray:
        return central_difference(
            self._known, (tuple(alpha), tuple(beta)), (np.atleast_2d(X), np.atleast_2d(Y)),
            lambda which, args: KERNEL_FD_REL * np.linalg.norm(args[0] - args[1], axis=-1))

    def _known(self, orders, args):
        if not any(map(any, orders)):
            return self(*args)
        if orders in self.derivatives:
            return np.asarray(self.derivatives[orders](*args), dtype=complex)
        if sum(map(sum, orders)) > self.max_order:
            raise PreconditionError(
                f"kernel declares derivatives up to order {self.max_order}, "
                f"requested {orders[0]}|{orders[1]}")
        return None


def _hilbert() -> Kernel:
    def base(X, Y):
        return 1.0 / (X[:, 0] - Y[:, 0])

    derivatives = {}
    for a in range(0, 5):
        for b in range(0, 5 - a):
            if a == b == 0:
                continue

            def d(X, Y, a=a, b=b):
                return ((-1.0) ** a * math.factorial(a + b)
                        * (X[:, 0] - Y[:, 0]) ** (-1 - a - b))

            derivatives[((a,), (b,))] = d
    return Kernel(1, base, derivatives, max_order=4, label="hilbert")


def _riesz(i: int, n: int) -> Kernel:
    def base(X, Y, i=i):
        d = X - Y
        r = np.linalg.norm(d, axis=-1)
        return d[:, i] * r ** (-n - 1)

    return Kernel(n, base, max_order=3, label=f"riesz-{i}")


def _truncated() -> Kernel:
    def base(X, Y):
        d = X[:, 0] - Y[:, 0]
        return np.where(np.abs(d) > 1.0, 1.0 / d, 0.0)

    return Kernel(1, base, max_order=2, label="truncated")


def difference_grid_kernel(diffs: np.ndarray, values: np.ndarray,
                           max_order: int = 2) -> Kernel:
    """Convolution kernel interpolated from samples over the difference x - y.

    Log-linear interpolation on |x - y| per sign, matching the scale structure
    of singular kernels; outside the sampled range the kernel is zero.
    """
    diffs = np.asarray(diffs, dtype=float)
    values = np.asarray(values, dtype=complex)
    if diffs.ndim != 1 or diffs.shape != values.shape:
        raise PreconditionError("difference grid needs matching 1d arrays")
    pos_mask = diffs > 0
    neg_mask = diffs < 0
    pos_d = np.log(diffs[pos_mask])
    pos_v = values[pos_mask]
    order = np.argsort(pos_d)
    pos_d, pos_v = pos_d[order], pos_v[order]
    neg_d = np.log(-diffs[neg_mask])
    neg_v = values[neg_mask]
    order = np.argsort(neg_d)
    neg_d, neg_v = neg_d[order], neg_v[order]

    def interp(logr, table_d, table_v):
        out = np.zeros(len(logr), dtype=complex)
        ok = (logr >= table_d[0]) & (logr <= table_d[-1])
        if np.any(ok):
            out[ok] = (np.interp(logr[ok], table_d, table_v.real)
                       + 1j * np.interp(logr[ok], table_d, table_v.imag))
        return out

    def base(X, Y):
        d = X[:, 0] - Y[:, 0]
        out = np.zeros(len(d), dtype=complex)
        p = d > 0
        if np.any(p) and len(pos_d):
            out[p] = interp(np.log(d[p]), pos_d, pos_v)
        m = d < 0
        if np.any(m) and len(neg_d):
            out[m] = interp(np.log(-d[m]), neg_d, neg_v)
        return out

    return Kernel(1, base, max_order=max_order, label="custom-grid")


_REGISTRY = {}


def register_kernel(name: str, factory) -> None:
    _REGISTRY[name] = factory


register_kernel("hilbert", _hilbert)
register_kernel("riesz-0", lambda: _riesz(0, 2))
register_kernel("riesz-1", lambda: _riesz(1, 2))
register_kernel("truncated", _truncated)
register_kernel("custom-grid",
                lambda diffs=None, values=None, **kw: difference_grid_kernel(
                    diffs, values, **kw) if diffs is not None else _raise_grid())


def _raise_grid():
    raise PreconditionError("custom-grid kernels need diffs= and values= arrays")


def kernel_by_name(name: str, **kwargs) -> Kernel:
    if name not in _REGISTRY:
        raise PreconditionError(f"unknown kernel {name!r}; have {sorted(_REGISTRY)}")
    return _REGISTRY[name](**kwargs)


@dataclass(frozen=True)
class SamplingGeometry:
    """Logarithmic shells of separations with direction and offset counts.

    Shells span a bit over four decades; offsets are fixed fractions of the
    separation so fitted constants are dilation-invariant by construction.
    """

    shell_exponents: tuple = tuple(range(-7, 8))
    directions: int = 64
    offset_fracs: tuple = (0.25, 0.125, 0.0625)
    base_points: tuple = ((0.0,), (0.3,), (-1.1,))
    seed: int = 0

    def shells(self) -> np.ndarray:
        return 2.0 ** np.array(self.shell_exponents, dtype=float)

    def dirs(self, n: int) -> np.ndarray:
        if n == 1:
            return np.array([[1.0], [-1.0]])
        rng = np.random.default_rng(self.seed)
        d = rng.standard_normal((self.directions, n))
        return d / np.linalg.norm(d, axis=1, keepdims=True)

    def bases(self, n: int) -> np.ndarray:
        out = []
        for b in self.base_points:
            v = np.zeros(n)
            v[: min(len(b), n)] = b[: min(len(b), n)]
            out.append(v)
        return np.array(out)


@dataclass
class ConditionFit:
    name: str
    constant: float
    per_decade: dict
    drift: float
    worst: tuple | None
    void: bool = False

    @property
    def stable(self) -> bool:
        return self.void or (math.isfinite(self.constant) and self.drift <= 10.0)

    def to_dict(self) -> dict:
        return {"name": self.name, "constant": self.constant, "drift": self.drift,
                "per_decade": self.per_decade, "worst": self.worst, "void": self.void,
                "stable": self.stable}


def _fit_condition(name: str, samples) -> ConditionFit:
    """samples: iterable of (ratio, r, witness).  Groups constants by decade."""
    per_decade = {}
    worst = None
    c = 0.0
    for ratio, r, wit in samples:
        dec = int(math.floor(math.log10(r)))
        per_decade[dec] = max(per_decade.get(dec, 0.0), ratio)
        if ratio > c:
            c = ratio
            worst = wit
    if not per_decade:
        return ConditionFit(name, 0.0, {}, 1.0, None, void=True)
    vals = [v for v in per_decade.values() if v > 0]
    drift = (max(vals) / min(vals)) if vals else 1.0
    return ConditionFit(name, c, per_decade, drift, worst)


def czk_check(K: Kernel, E: float, F: float, sigma: int = 0,
              geometry: SamplingGeometry = SamplingGeometry()) -> dict:
    """Fit the smallest constants in the size, x-difference, y-difference,
    and (when applicable) mixed-difference kernel conditions over sampled
    shells; report per-decade constants and the worst samples."""
    n = K.n
    rpE = rounding_profile(E)
    a_max = max(rpE.strict_floor, 0)
    dirs = geometry.dirs(n)
    bases = geometry.bases(n)
    shells = geometry.shells()

    size_samples = []
    xdiff_samples = []
    ydiff_samples = []
    xydiff_samples = []

    alphas = [g for g in multi_indices(n, a_max)]
    for r in shells:
        for y0 in bases:
            Y = np.tile(y0, (len(dirs), 1))
            X = Y + r * dirs
            sep = np.linalg.norm(X - Y, axis=-1)
            # (size) |d^alpha_x K| <= C r^{-n-|alpha|}
            for alpha in alphas:
                vals = np.abs(K.deriv(alpha, (0,) * n, X, Y))
                ratio = vals * sep ** (n + sum(alpha))
                i = int(np.argmax(ratio))
                size_samples.append((float(ratio[i]), r, (tuple(X[i]), tuple(Y[i]), alpha)))
            # (x-difference) at |alpha| = strict_floor(E), exponent E**
            if rpE.strict_floor >= 0:
                for alpha in alphas:
                    if sum(alpha) != rpE.strict_floor:
                        continue
                    base_vals = K.deriv(alpha, (0,) * n, X, Y)
                    for frac in geometry.offset_fracs:
                        for ud in dirs[: max(2, len(dirs) // 4)]:
                            U = frac * r * ud
                            shifted = K.deriv(alpha, (0,) * n, X + U, Y)
                            num = np.abs(base_vals - shifted)
                            den = (frac * r) ** rpE.strict_frac * sep ** (-n - E)
                            ratio = num / den
                            i = int(np.argmax(ratio))
                            xdiff_samples.append(
                                (float(ratio[i]), r, (tuple(X[i]), tuple(Y[i]), alpha, frac)))
            # (y-difference) for |alpha| <= strict_floor(E)_+, |beta| = strict_floor(F - |alpha|)
            for alpha in alphas:
                fb = F - sum(alpha)
                rpF = rounding_profile(fb)
                if rpF.strict_floor < 0:
                    continue
                for beta in multi_indices(n, rpF.strict_floor):
                    if sum(beta) != rpF.strict_floor:
                        continue
                    base_vals = K.deriv(alpha, beta, X, Y)
                    for frac in geometry.offset_fracs:
                        for vd in dirs[: max(2, len(dirs) // 4)]:
                            V = frac * r * vd
                            shifted = K.deriv(alpha, beta, X, Y + V)
                            num = np.abs(base_vals - shifted)
                            den = (frac * r) ** rpF.strict_frac * sep ** (-n - sum(alpha) - fb)
                            ratio = num / den
                            i = int(np.argmax(ratio))
                            ydiff_samples.append(
                                (float(ratio[i]), r, (tuple(X[i]), tuple(Y[i]), alpha, beta, frac)))
            # (mixed difference) when sigma = 1 and F > E > 0
            if sigma == 1 and F > E > 0:
                rpFE = rounding_profile(F - E)
                for alpha in alphas:
                    if sum(alpha) != rpE.strict_floor:
                        continue
                    for beta in multi_indices(n, max(rpFE.strict_floor, 0)):
                        if sum(beta) != rpFE.strict_floor:
                            continue
                        for frac in geometry.offset_fracs:
                            for ud in dirs[:2]:
                                for vd in dirs[:2]:
                                    U = frac * r / 2 * ud
                                    V = frac * r / 2 * vd
                                    dd = (K.deriv(alpha, beta, X, Y)
                                          - K.deriv(alpha, beta, X + U, Y)
                                          - K.deriv(alpha, beta, X, Y + V)
                                          + K.deriv(alpha, beta, X + U, Y + V))
                                    num = np.abs(dd)
                                    den = (np.linalg.norm(U) ** rpE.strict_frac
                                           * np.linalg.norm(V) ** rpFE.strict_frac
                                           * sep ** (-n - F))
                                    ratio = num / den
                                    i = int(np.argmax(ratio))
                                    xydiff_samples.append(
                                        (float(ratio[i]), r,
                                         (tuple(X[i]), tuple(Y[i]), alpha, beta, frac)))

    fits = {
        "size": _fit_condition("size", size_samples),
        "x_difference": _fit_condition("x_difference", xdiff_samples),
        "y_difference": _fit_condition("y_difference", ydiff_samples),
    }
    if sigma == 1 and F > E > 0:
        fits["mixed_difference"] = _fit_condition("mixed_difference", xydiff_samples)
    return {
        "kernel": K.label,
        "E": E,
        "F": F,
        "sigma": sigma,
        "conditions": {k: v.to_dict() for k, v in fits.items()},
        "all_stable": all(v.stable for v in fits.values()),
    }


def intermediate_derivative_check(K: Kernel, F: float,
                                  geometry: SamplingGeometry = SamplingGeometry()) -> dict:
    """Sample the implied bounds |d^beta_y K| <= C r^{-n-|beta|} for orders up
    to strict_floor(F); a constant that drifts across decades marks the
    failing order."""
    n = K.n
    top = max(strict_floor(F), 0)
    dirs = geometry.dirs(n)
    bases = geometry.bases(n)
    out = {}
    for order in range(top + 1):
        samples = []
        for beta in multi_indices(n, order):
            if sum(beta) != order:
                continue
            for r in geometry.shells():
                for y0 in bases:
                    Y = np.tile(y0, (len(dirs), 1))
                    X = Y + r * dirs
                    sep = np.linalg.norm(X - Y, axis=-1)
                    vals = np.abs(K.deriv((0,) * n, beta, X, Y))
                    ratio = vals * sep ** (n + order)
                    i = int(np.argmax(ratio))
                    samples.append((float(ratio[i]), r, (tuple(X[i]), tuple(Y[i]), beta)))
        out[order] = _fit_condition(f"intermediate-order-{order}", samples).to_dict()
    return {"orders": out,
            "all_stable": all(v["stable"] for v in out.values()),
            "failing_orders": [o for o, v in out.items() if not v["stable"]]}


def classify_factorization(E: float, F: float, sigma: int = 0) -> str:
    """Which classical shape the two-variable kernel condition takes."""
    if E <= 0 and F <= 0:
        return "void"
    if F <= 0 < E:
        return "T in CZO(E) only"
    if E <= 0 < F:
        return "T* in CZO(F) only"
    if sigma == 1 and F > E:
        return "mixed-required"
    return "factorizes"


def apply_to_atom_farfield(K: Kernel, atom: MoleculeCandidate,
                           alpha: tuple[int, ...], xs: np.ndarray,
                           taylor_order: int = -1,
                           quad_points: int = 96) -> dict:
    """Far-field samples of the derivative of the kernel applied to an atom.

    Both the raw quadrature and the Taylor-subtracted form (the polynomial of
    the kernel in its second argument around the origin, annihilated by the
    atom's vanishing moments) are computed; their agreement is the quadrature
    sanity flag.
    """
    n = atom.cube.n
    xs = np.atleast_2d(xs)
    if np.any(np.linalg.norm(xs, axis=-1) <= 4 * math.sqrt(n)):
        raise PreconditionError("far-field points must satisfy |x| > 4 sqrt(n)")
    if atom.support_radius == math.inf:
        raise PreconditionError("far-field action needs a compactly supported atom")
    c = np.array(atom.cube.center)
    lo = c - atom.support_radius * atom.cube.side
    hi = c + atom.support_radius * atom.cube.side
    nodes_1d, w_1d = np.polynomial.legendre.leggauss(quad_points)
    Y = tensor_points([0.5 * (hi[i] - lo[i]) * nodes_1d + 0.5 * (hi[i] + lo[i])
                       for i in range(n)])
    wts = np.prod(tensor_points([0.5 * (hi[i] - lo[i]) * w_1d for i in range(n)]), axis=-1)
    avals = atom(Y)

    raw = np.zeros(len(xs), dtype=complex)
    subtracted = np.zeros(len(xs), dtype=complex)
    for i, x in enumerate(xs):
        X = np.tile(x, (len(Y), 1))
        kv = K.deriv(alpha, (0,) * n, X, Y)
        raw[i] = np.sum(wts * kv * avals)
        if taylor_order >= 0:
            taylor = np.zeros(len(Y), dtype=complex)
            X0 = x[None, :]
            Y0 = np.zeros((1, n))
            for beta in multi_indices(n, taylor_order):
                coeff = K.deriv(alpha, beta, X0, Y0)[0]
                fact = 1.0
                for b in beta:
                    fact *= math.factorial(b)
                taylor += coeff / fact * np.prod(Y ** np.array(beta), axis=-1)
            subtracted[i] = np.sum(wts * (kv - taylor) * avals)
        else:
            subtracted[i] = raw[i]
    denom = np.maximum(np.abs(raw), 1e-300)
    agreement = float(np.max(np.abs(raw - subtracted) / denom))
    return {
        "x": xs,
        "raw": raw,
        "taylor_subtracted": subtracted,
        "relative_disagreement": agreement,
        "flagged": agreement > 0.01,
    }


def decay_fit(radii: np.ndarray, values: np.ndarray) -> dict:
    """Log-log least-squares exponent of |values| against radii."""
    radii = np.asarray(radii, dtype=float)
    vals = np.abs(np.asarray(values))
    ok = vals > 0
    if np.sum(ok) < 4:
        raise PreconditionError("too few nonzero samples for a decay fit")
    lr = np.log10(radii[ok])
    if lr.max() - lr.min() < 3.0 - 1e-9:
        raise PreconditionError("decay fit needs at least 3 decades of radii")
    lv = np.log10(vals[ok])
    slope, intercept = np.polyfit(lr, lv, 1)
    resid = float(np.sqrt(np.mean((lv - (slope * lr + intercept)) ** 2)))
    return {"slope": float(slope), "residual": resid, "count": int(np.sum(ok))}


def moment_of_Ta(K: Kernel, atom: MoleculeCandidate, gamma: tuple[int, ...],
                 decay_exponent: float, r_near: float = None, r_far: float = 256.0,
                 quad_points: int = 64) -> dict:
    """Annulus quadrature of x^gamma times the kernel applied to the atom.

    The near ball (distributional territory) is excluded and reported; the
    far tail is bounded using the supplied decay exponent, which must exceed
    |gamma| + n for integrability.
    """
    n = atom.cube.n
    order = sum(gamma)
    if not decay_exponent > order + n:
        raise PreconditionError(
            f"moment not integrable: decay {decay_exponent} <= |gamma| + n = {order + n}")
    r_near = r_near if r_near is not None else 4 * math.sqrt(n) + 1.0
    if n != 1:
        raise PreconditionError("annulus moments implemented for n = 1")
    nodes, wts = np.polynomial.legendre.leggauss(quad_points)
    # integrate over [-r_far, -r_near] and [r_near, r_far] in log bands
    total = 0.0 + 0.0j
    tail_scale = 0.0
    for sign in (-1.0, 1.0):
        edges = np.geomspace(r_near, r_far, 24)
        for a, b in zip(edges[:-1], edges[1:]):
            xs = sign * (0.5 * (b - a) * nodes + 0.5 * (a + b))
            w = 0.5 * (b - a) * wts
            rep = apply_to_atom_farfield(K, atom, (0,) * n, xs[:, None],
                                         quad_points=quad_points)
            total += np.sum(w * xs ** gamma[0] * rep["raw"])
            tail_scale = max(tail_scale, float(np.max(np.abs(rep["raw"])
                                                      * np.abs(xs) ** decay_exponent)))
    tail_bound = tail_scale * r_far ** (order + 1 + n - 1 - decay_exponent) / (
        decay_exponent - order - n)
    return {
        "value": complex(total),
        "excluded_radius": r_near,
        "far_radius": r_far,
        "tail_bound": float(tail_bound),
        "note": "near field excluded; value covers the annulus only",
    }


def legacy_to_mixed(s: float, J: float, delta: float, rho: float, n: int) -> dict:
    """Convert classical split-smoothness parameters to mixed-difference
    exponents.  Returns the pair with the dilation bookkeeping identity."""
    rp_s = rounding_profile(s)
    rp_j = rounding_profile(J)
    s_star = rp_s.frac
    j_star = rp_j.frac
    checks = [
        Inequality("J - n - s", J - n - s, 0.0, True),
        Inequality("s", s, 0.0, False),
        Inequality("delta", delta, max(s_star, j_star), True),
        Inequality("rho", rho, j_star, True),
    ]
    cs = ConstraintSet("legacy conversion preconditions", tuple(checks))
    if not cs.ok:
        raise PreconditionError("infeasible: " + "; ".join(cs.failing()))
    if j_star >= s_star:
        kappa = min(delta, rho)
        total = kappa - j_star
        eps = total / 2.0
        eta = total / 2.0
    else:
        eps = delta - s_star
        eta = (s_star - j_star) / 2.0
    # exponents of the mixed-difference estimate
    a_u = s_star + eps
    a_v = (J - s) - math.floor(J - s) + eta  # (J-s)* + eta
    a_x = -(J + eps + eta)
    # dilation bookkeeping: |u|,|v| exponents plus n plus derivative orders
    # must balance the separation exponent
    lhs = a_u + a_v + n + math.floor(s) + math.floor(J - n - s)
    identity_residual = lhs - (-a_x)
    return {
        "eps": eps,
        "eta": eta,
        "exponents": {"u": a_u, "v": a_v, "separation": a_x},
        "orders": {"alpha": math.floor(s), "beta": math.floor(J - n - s)},
        "identity_residual": identity_residual,
    }


# ---------------------------------------------------------------------------
# pseudo-differential application

class SymbolS11u:
    """Symbol evaluator a(x, xi) with derivative access and a declared order."""

    def __init__(self, n: int, u: int, eval_fn, derivatives: dict | None = None,
                 max_order: int = 2, x_independent: bool = False, label: str = "symbol"):
        self.n = n
        self.u = int(u)
        self._eval = eval_fn
        self.derivatives = derivatives or {}
        self.max_order = max_order
        self.x_independent = x_independent
        self.label = label

    def __call__(self, X, XI) -> np.ndarray:
        return np.asarray(self._eval(np.atleast_2d(X), np.atleast_2d(XI)), dtype=complex)

    def deriv(self, alpha, beta, X, XI) -> np.ndarray:
        return central_difference(
            self._known, (tuple(alpha), tuple(beta)), (np.atleast_2d(X), np.atleast_2d(XI)),
            lambda which, args: 1e-4 * np.linalg.norm(args[1], axis=-1) if which else 1e-4)

    def _known(self, orders, args):
        if not any(map(any, orders)):
            return self(*args)
        if orders in self.derivatives:
            return np.asarray(self.derivatives[orders](*args), dtype=complex)
        if self.x_independent and any(orders[0]):
            return np.zeros(len(args[0]), dtype=complex)
        if sum(map(sum, orders)) > self.max_order:
            raise PreconditionError("symbol derivative order deficit")
        return None

    @classmethod
    def multiplier_power(cls, n: int, u: int) -> "SymbolS11u":
        return cls(n, u, lambda X, XI: np.linalg.norm(XI, axis=-1) ** u,
                   x_independent=True, label=f"|xi|^{u}")

    @classmethod
    def derivative_symbol(cls, axis: int = 0, n: int = 1) -> "SymbolS11u":
        return cls(n, 1, lambda X, XI: 1j * XI[:, axis],
                   x_independent=True, label=f"i xi_{axis}")


def apply_pdo(symbol: SymbolS11u, f: FunctionSample,
              alias_tol: float = 1e-8, chunk: int = 256) -> FunctionSample:
    """Frequency-side application of a symbol to a sampled function.

    Uses the discrete transform with angular frequencies; for x-independent
    symbols this is a plain multiplier, otherwise the output is assembled per
    spatial point.  The inverse measure is normalized so the unit symbol is
    the identity to machine precision.
    """
    n = f.n
    if symbol.n != n:
        raise PreconditionError("symbol and sample dimensions differ")
    h = f.h
    shape = f.shape
    axes_freq = [2.0 * math.pi * np.fft.fftfreq(N, d=h) for N in shape]
    fhat = np.fft.fftn(f.values, axes=tuple(range(1, n + 1)))
    # energy above 80% of the Nyquist band must be negligible
    mask = np.zeros(shape, dtype=bool)
    for i, freqs in enumerate(axes_freq):
        cutoff = 0.8 * np.max(np.abs(freqs))
        band = np.abs(freqs) > cutoff
        sl = [None] * n
        sl[i] = slice(None)
        mask |= band[tuple(sl)]
    total = float(np.sum(np.abs(fhat) ** 2))
    high = float(np.sum(np.abs(fhat[:, mask]) ** 2))
    if total > 0 and high / total > alias_tol:
        raise PreconditionError(
            f"aliasing: {high / total:.2e} of the energy sits above the band")
    XI = tensor_points(axes_freq)
    if symbol.x_independent:
        mult = symbol(np.zeros((1, n)), XI).reshape(shape)
        out = np.fft.ifftn(fhat * mult[None], axes=tuple(range(1, n + 1)))
        return FunctionSample(n, f.m, f.grid_level, f.start, out)
    # x-dependent: per-point synthesis out(x) = (1/N) sum_xi a(x, xi) fhat(xi)
    # e^{i xi (x - x0)}, with x0 the grid origin implied by the raw transform
    Xpts = tensor_points([f.axis_points(i) for i in range(n)])
    origin = np.array([f.start[i] * h for i in range(n)])
    fhat_flat = fhat.reshape(f.m, -1)
    npts = Xpts.shape[0]
    out = np.zeros((f.m, npts), dtype=complex)
    norm = np.prod(shape)
    for a in range(0, npts, chunk):
        b = min(a + chunk, npts)
        xc = Xpts[a:b]
        phase = np.exp(1j * ((xc - origin) @ XI.T))
        for i in range(b - a):
            avals = symbol(xc[i: i + 1].repeat(len(XI), axis=0), XI)
            out[:, a + i] = (fhat_flat * (avals * phase[i])[None, :]).sum(axis=1) / norm
    return FunctionSample(n, f.m, f.grid_level, f.start, out.reshape((f.m,) + shape))


def symbol_class_check(symbol: SymbolS11u, orders: int = 1,
                       shell_exponents=tuple(range(-6, 7)),
                       x_samples: int = 5, seed: int = 0) -> dict:
    """Sampled sup of |xi|^{-u-|alpha|+|beta|} |d_x^alpha d_xi^beta a| over
    dyadic frequency shells; blow-up across shells is reported per index pair."""
    n = symbol.n
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-2, 2, size=(x_samples, n))
    report = {}
    for alpha in multi_indices(n, orders):
        for beta in multi_indices(n, orders):
            per_shell = {}
            for e in shell_exponents:
                r = 2.0 ** e
                dirs = SamplingGeometry(seed=seed).dirs(n)
                XI = r * dirs
                worst = 0.0
                for x in xs:
                    X = np.tile(x, (len(XI), 1))
                    vals = np.abs(symbol.deriv(alpha, beta, X, XI))
                    scale = r ** (-symbol.u - sum(alpha) + sum(beta))
                    worst = max(worst, float(np.max(vals * scale)))
                per_shell[e] = worst
            vals = [v for v in per_shell.values() if v > 0]
            blowup = bool(vals and max(vals) > 10 * min(vals))
            report[str((alpha, beta))] = {
                "constant": max(per_shell.values()),
                "per_shell": per_shell,
                "blowup": blowup,
            }
    return report


def czo_molecule_conditions(sigma: int, E: float, F: float, G: float, H: float,
                            mp: MoleculeParams, n: int) -> ConstraintSet:
    """Parameter conditions under which the kernel maps regular atoms to
    molecules with the given quadruple."""
    items = (
        Inequality("sigma", sigma, 1.0 if mp.N > 0 else 0.0, False),
        Inequality("E (>= N)", E, mp.N, False),
        Inequality("E (> floor(N)+)", E, pos(math.floor(mp.N)), True),
        Inequality("F (>= max(K,M)-n)", F, max(mp.K, mp.M) - n, False),
        Inequality("F (> floor(L))", F, math.floor(mp.L), True),
        Inequality("G", G, pos(math.floor(mp.N)), False),
        Inequality("H", H, math.floor(mp.L), False),
    )
    return ConstraintSet("atom-to-molecule parameter conditions", items)


def t1_molecule_witness(di: DerivedIndices, n: int, sigma: int,
                        E: float, F: float, G: float, H: float) -> MoleculeParams:
    """A molecule quadruple witnessing that an admissible kernel parameter
    set maps atoms into the space's synthesis molecules.

    K and M sit between their lower bounds and F + n; L is the exact lower
    bound; N is squeezed between the smoothness and E.
    """
    j, s = di.j_eff, di.s_eff
    k_lo = j + (-s if s < 0 else 0.0)
    if not F + n > k_lo:
        raise PreconditionError("F too small for a decay witness")
    K = 0.5 * (k_lo + F + n)
    M = 0.5 * (j + F + n)
    L = j - n - s
    if s < 0:
        N = 0.0
    else:
        hi = min(strict_ceil(s), E)
        if not hi > s:
            raise PreconditionError("E too small for a smoothness witness")
        N = 0.5 * (s + hi)
    return MoleculeParams(K, L, M, N)
