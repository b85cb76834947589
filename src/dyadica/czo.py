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
from .molecules import (
    MoleculeCandidate,
    central_difference,
    closed_form,
    gauss_panels,
    multi_indices,
)
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
from .weights import unit_directions

# central-difference step of kernel derivatives, relative to the separation
KERNEL_FD_REL = 1e-3
# most point pairs one kernel or symbol evaluation sees at once
_BLOCK_ENTRIES = 1 << 18


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
        return central_difference(self._known, (tuple(alpha), tuple(beta)),
                                  (np.atleast_2d(X), np.atleast_2d(Y)), self._step)

    def _step(self, which, args):
        return KERNEL_FD_REL * np.linalg.norm(args[0] - args[1], axis=-1)

    def _known(self, orders, args):
        return closed_form(self, orders, args, orders,
                           f"kernel declares derivatives up to order {self.max_order}, "
                           f"requested {orders[0]}|{orders[1]}")


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


_KERNELS = {
    "hilbert": _hilbert,
    "riesz-0": lambda: _riesz(0, 2),
    "riesz-1": lambda: _riesz(1, 2),
    "truncated": _truncated,
}


def kernel_by_name(name: str) -> Kernel:
    if name not in _KERNELS:
        raise PreconditionError(f"unknown kernel {name!r}; have {sorted(_KERNELS)}")
    return _KERNELS[name]()


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
        return unit_directions(self.directions, n, np.random.default_rng(self.seed))

    def bases(self, n: int) -> np.ndarray:
        return np.array([np.pad(np.asarray(b, dtype=float)[:n], (0, n - min(len(b), n)))
                         for b in self.base_points])


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


def _pairs(fn, X, Y) -> np.ndarray:
    """``fn`` on the point pairs of the broadcast arrays X, Y (..., n), in flat
    (N, n) batches of at most _BLOCK_ENTRIES points, shaped like the pairs."""
    X, Y = np.broadcast_arrays(X, Y)
    flat = X.reshape(-1, X.shape[-1]), Y.reshape(-1, Y.shape[-1])
    return np.concatenate([fn(*(a[i:i + _BLOCK_ENTRIES] for a in flat)) for i in
                           range(0, len(flat[0]), _BLOCK_ENTRIES)]).reshape(X.shape[:-1])


def _libm_pow(base, e: float) -> np.ndarray:
    """``base ** e`` by the scalar C pow, which numpy's vectorised pow can miss
    by an ulp, so small per-group factor tables equal per-sample ones bitwise."""
    return np.array([b ** e for b in np.ravel(base).tolist()]).reshape(np.shape(base))


def _shell_samples(geometry: SamplingGeometry, n: int):
    """Base points Y and X = Y + r d as (S, B, D, n) arrays over shells r, base
    points and directions d, with their separations |X - Y| (S, B, D)."""
    shells, dirs, bases = geometry.shells(), geometry.dirs(n), geometry.bases(n)
    if not (len(shells) and len(dirs) and len(bases)):
        raise PreconditionError("sampling geometry needs shells, directions and base points")
    Y = np.broadcast_to(bases[:, None], (len(shells), len(bases), len(dirs), n))
    X = Y + shells[:, None, None, None] * dirs
    return X, Y, np.linalg.norm(X - Y, axis=-1)


def _corner_sum(K: Kernel, alpha, beta, X, Y, corners) -> np.ndarray:
    """Signed sum, in order, of ``K.deriv(alpha, beta, X + U, Y + V)`` over the
    corners ``(sign, U, V)`` of (S, B, D, n) shell samples X, Y.  An offset is
    None or (S, G, n), one row per group (offset fraction, direction), and
    broadcasts as a group axis: the sum is (S, B, G, D)."""
    total = None
    for sign, U, V in corners:
        vals = _pairs(lambda x, y: K.deriv(alpha, beta, x, y),
                      X[:, :, None] if U is None else X[:, :, None] + U[:, None, :, None],
                      Y[:, :, None] if V is None else Y[:, :, None] + V[:, None, :, None])
        total = vals if total is None else total + vals if sign > 0 else total - vals
    return total


def _size_ratio(K: Kernel, alpha, beta, X, Y, sep) -> np.ndarray:
    """|d_x^alpha d_y^beta K| r^{n+|alpha|+|beta|} on shell samples, (S, B, 1, D)."""
    return (np.abs(_corner_sum(K, alpha, beta, X, Y, [(1, None, None)]))
            * (sep ** (K.n + sum(alpha) + sum(beta)))[:, :, None])


def _fit_condition(name: str, ratio: np.ndarray, shells: np.ndarray, witness,
                   shell_axis: int = 0) -> ConditionFit:
    """Fit a condition to its sampled ratios, whose axes follow the sampling
    order with the shells on ``shell_axis``.  The constant is the largest
    ratio, ``witness(index)`` describes its first occurrence, and per-decade
    constants are maxima over shell rows.  Non-finite samples are refused."""
    if ratio.size == 0:
        return ConditionFit(name, 0.0, {}, 1.0, None, void=True)
    bad = np.flatnonzero(~np.isfinite(ratio))
    if bad.size:
        x, y = (np.array(v).tolist() for v in witness(np.unravel_index(bad[0], ratio.shape))[:2])
        raise PreconditionError(f"{name} condition: non-finite kernel sample at X={x}, Y={y}")
    i = int(np.argmax(ratio))
    c = float(ratio.flat[i])
    worst = witness(np.unravel_index(i, ratio.shape)) if c > 0 else None
    per_decade = {}
    rows = np.moveaxis(ratio, shell_axis, 0).reshape(len(shells), -1).max(axis=1)
    for r, v in zip(shells, rows.tolist()):
        dec = int(math.floor(math.log10(r)))
        per_decade[dec] = max(per_decade.get(dec, 0.0), v)
    vals = [v for v in per_decade.values() if v > 0]
    drift = (max(vals) / min(vals)) if vals else 1.0
    return ConditionFit(name, c, per_decade, drift, worst)


def czk_check(K: Kernel, E: float, F: float, sigma: int = 0,
              geometry: SamplingGeometry = SamplingGeometry()) -> dict:
    """Fit the smallest constants in the size, x-difference, y-difference,
    and (when applicable) mixed-difference kernel conditions over sampled
    shells; report per-decade constants and the worst samples.  A condition
    takes one ``K.deriv`` batch per derivative pair and corner."""
    n = K.n
    zero = (0,) * n
    rpE = rounding_profile(E)
    alphas = list(multi_indices(n, max(rpE.strict_floor, 0)))
    top = [a for a in alphas if sum(a) == rpE.strict_floor]
    shells, dirs, fracs = geometry.shells(), geometry.dirs(n), geometry.offset_fracs
    X, Y, sep = _shell_samples(geometry, n)
    # offsets frac * r * d over groups (fraction, direction), fraction outer
    fr = shells[:, None] * np.array(fracs, dtype=float)
    odirs = dirs[: max(2, len(dirs) // 4)]
    U = (fr[:, :, None, None] * odirs).reshape(len(shells), -1, n)
    frac_groups = [(frac,) for frac in fracs for _ in odirs]

    def ratios(alpha, beta, corners, scale, exponent):
        den = scale[:, None, :, None] * (sep ** exponent)[:, :, None]
        return np.abs(_corner_sum(K, alpha, beta, X, Y, corners)) / den

    def fit(name, terms, groups):
        # terms: (labels, ratios (S, B, G, D)) per derivative pair, in order
        def witness(index):
            s, b, a, g, d = index
            return (tuple(X[s, b, d]), tuple(Y[s, b, d])) + terms[a][0] + groups[g]
        ratio = np.stack([t[1] for t in terms], axis=2) if terms else np.empty(0)
        return _fit_condition(name, ratio, shells, witness)

    # (size) |d^alpha_x K| <= C r^{-n-|alpha|}
    size = [((a,), _size_ratio(K, a, zero, X, Y, sep)) for a in alphas]
    # (x-difference) at |alpha| = strict_floor(E), exponent E**
    scale = np.repeat(_libm_pow(fr, rpE.strict_frac), len(odirs), axis=1)
    xdiff = [((a,), ratios(a, zero, [(1, None, None), (-1, U, None)], scale, -n - E))
             for a in top]
    # (y-difference) for |alpha| <= strict_floor(E)_+, |beta| = strict_floor(F - |alpha|)
    ydiff = []
    for a in alphas:
        fb = F - sum(a)
        rpF = rounding_profile(fb)
        scale = np.repeat(_libm_pow(fr, rpF.strict_frac), len(odirs), axis=1)
        ydiff += [((a, b), ratios(a, b, [(1, None, None), (-1, None, U)], scale, -n - sum(a) - fb))
                  for b in multi_indices(n, rpF.strict_floor) if sum(b) == rpF.strict_floor]
    fits = {"size": fit("size", size, [()]),
            "x_difference": fit("x_difference", xdiff, frac_groups),
            "y_difference": fit("y_difference", ydiff, frac_groups)}
    # (mixed difference) when sigma = 1 and F > E > 0: offsets frac * r / 2
    # along the first two directions, groups (fraction, u, v)
    if sigma == 1 and F > E > 0:
        rpFE = rounding_profile(F - E)
        half = (fr / 2)[:, :, None, None, None]
        U2, V2 = (np.broadcast_to(half * d, fr.shape + (2, 2, n)).reshape(len(shells), -1, n)
                  for d in (dirs[:2, None], dirs[None, :2]))
        scale = (_libm_pow([np.linalg.norm(u) for u in U2.reshape(-1, n)], rpE.strict_frac)
                 * _libm_pow([np.linalg.norm(v) for v in V2.reshape(-1, n)], rpFE.strict_frac))
        corners = [(1, None, None), (-1, U2, None), (-1, None, V2), (1, U2, V2)]
        mixed = [((a, b), ratios(a, b, corners, scale.reshape(len(shells), -1), -n - F))
                 for a in top for b in multi_indices(n, max(rpFE.strict_floor, 0))
                 if sum(b) == rpFE.strict_floor]
        fits["mixed_difference"] = fit("mixed_difference", mixed,
                                       [(frac,) for frac in fracs for _ in range(4)])
    return {"kernel": K.label, "E": E, "F": F, "sigma": sigma,
            "conditions": {k: v.to_dict() for k, v in fits.items()},
            "all_stable": all(v.stable for v in fits.values())}


def intermediate_derivative_check(K: Kernel, F: float,
                                  geometry: SamplingGeometry = SamplingGeometry()) -> dict:
    """Sample the implied bounds |d^beta_y K| <= C r^{-n-|beta|} for orders up
    to strict_floor(F); a constant that drifts across decades marks the
    failing order."""
    n = K.n
    X, Y, sep = _shell_samples(geometry, n)
    out = {}
    for order in range(max(strict_floor(F), 0) + 1):
        betas = [b for b in multi_indices(n, order) if sum(b) == order]
        # axes (beta, shell, base point, 1, direction)
        ratio = np.stack([_size_ratio(K, (0,) * n, b, X, Y, sep) for b in betas])
        out[order] = _fit_condition(
            f"intermediate-order-{order}", ratio, geometry.shells(),
            lambda i: (tuple(X[i[1], i[2], i[4]]), tuple(Y[i[1], i[2], i[4]]), betas[i[0]]),
            shell_axis=1).to_dict()
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
    c, r = np.array(atom.cube.center), atom.support_radius * atom.cube.side
    Y, wts = gauss_panels(c - r, c + r, 1, np.polynomial.legendre.leggauss(quad_points))
    avals = atom(Y)
    # blocks of far points against all nodes; the Taylor polynomial of
    # K(x, .) at 0 takes one coefficient batch per beta and block
    raw, subtracted = [], []
    step = max(1, _BLOCK_ENTRIES // len(Y))
    for x in (xs[a:a + step] for a in range(0, len(xs), step)):
        kv = _pairs(lambda p, y: K.deriv(alpha, (0,) * n, p, y), x[:, None], Y)
        taylor = np.zeros(kv.shape, dtype=complex)
        for beta in multi_indices(n, taylor_order):
            fact = math.prod(map(math.factorial, beta))
            coeff = K.deriv(alpha, beta, x, np.zeros_like(x)) / fact
            taylor += coeff[:, None] * np.prod(Y ** np.array(beta), axis=-1)
        raw.append(np.sum(wts * kv * avals, axis=-1))
        subtracted.append(np.sum(wts * (kv - taylor) * avals, axis=-1))
    raw, subtracted = np.concatenate(raw), np.concatenate(subtracted)
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

class SymbolS11u(Kernel):
    """Symbol evaluator a(x, xi) with derivative access and a declared order: a
    kernel in (x, xi) with steps 1e-4 in x and 1e-4 |xi| in xi."""

    def __init__(self, n: int, u: int, eval_fn, max_order: int = 2,
                 x_independent: bool = False, label: str = "symbol"):
        super().__init__(n, eval_fn, max_order=max_order, label=label)
        self.u = int(u)
        self.x_independent = x_independent

    def _step(self, which, args):
        return 1e-4 * np.linalg.norm(args[1], axis=-1) if which else 1e-4

    def _known(self, orders, args):
        if self.x_independent and any(orders[0]):
            return np.zeros(len(args[0]), dtype=complex)
        return closed_form(self, orders, args, orders, "symbol derivative order deficit")

    @classmethod
    def multiplier_power(cls, n: int, u: int) -> "SymbolS11u":
        return cls(n, u, lambda X, XI: np.linalg.norm(XI, axis=-1) ** u,
                   x_independent=True, label=f"|xi|^{u}")

    @classmethod
    def derivative_symbol(cls, axis: int = 0, n: int = 1) -> "SymbolS11u":
        return cls(n, 1, lambda X, XI: 1j * XI[:, axis],
                   x_independent=True, label=f"i xi_{axis}")


def apply_pdo(symbol: SymbolS11u, f: FunctionSample) -> FunctionSample:
    """Frequency-side application of a symbol to a sampled function.

    Uses the discrete transform with angular frequencies; for x-independent
    symbols this is a plain multiplier, otherwise the output is assembled
    over blocks of spatial points.  The inverse measure is normalized so the
    unit symbol is the identity to machine precision.
    """
    n = f.n
    if symbol.n != n:
        raise PreconditionError("symbol and sample dimensions differ")
    h = f.h
    shape = f.shape
    axes_freq = [2.0 * math.pi * np.fft.fftfreq(N, d=h) for N in shape]
    fhat = np.fft.fftn(f.values, axes=tuple(range(1, n + 1)))
    XI = tensor_points(axes_freq)
    # energy above 80% of the Nyquist band must be negligible
    cutoff = 0.8 * np.array([np.max(np.abs(freqs)) for freqs in axes_freq])
    mask = np.any(np.abs(XI) > cutoff, axis=1).reshape(shape)
    total = float(np.sum(np.abs(fhat) ** 2))
    high = float(np.sum(np.abs(fhat[:, mask]) ** 2))
    if total > 0 and high / total > 1e-8:
        raise PreconditionError(
            f"aliasing: {high / total:.2e} of the energy sits above the band")
    if symbol.x_independent:
        mult = symbol(np.zeros((1, n)), XI).reshape(shape)
        out = np.fft.ifftn(fhat * mult[None], axes=tuple(range(1, n + 1)))
        return FunctionSample(n, f.m, f.grid_level, f.start, out)
    # x-dependent: out(x) = (1/N) sum_xi a(x, xi) fhat(xi) e^{i xi (x - x0)},
    # with x0 the grid origin implied by the raw transform, for a block of
    # points per symbol evaluation
    Xpts = tensor_points([f.axis_points(i) for i in range(n)])
    origin = np.array([f.start[i] * h for i in range(n)])
    fhat_flat = fhat.reshape(f.m, -1)
    norm = np.prod(shape)

    def block(xc):
        weights = _pairs(symbol, xc[:, None], XI) * np.exp(1j * ((xc - origin) @ XI.T))
        return (fhat_flat[:, None, :] * weights[None]).sum(axis=-1) / norm

    step = max(1, _BLOCK_ENTRIES // len(XI))
    out = np.concatenate([block(Xpts[a:a + step]) for a in range(0, len(Xpts), step)], axis=1)
    return FunctionSample(n, f.m, f.grid_level, f.start, out.reshape((f.m,) + shape))


def symbol_class_check(symbol: SymbolS11u, orders: int = 1,
                       shell_exponents=tuple(range(-6, 7)),
                       x_samples: int = 5, seed: int = 0) -> dict:
    """Sampled sup of |xi|^{-u-|alpha|+|beta|} |d_x^alpha d_xi^beta a| over
    dyadic frequency shells; blow-up across shells is reported per index pair.

    Each index pair is one ``symbol.deriv`` batch over shells, x samples and
    directions; a non-finite sample is refused."""
    n = symbol.n
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-2, 2, size=(x_samples, n))
    shells = [2.0 ** e for e in shell_exponents]
    # axes (shell, x sample, direction, n)
    XI = (np.array(shells)[:, None, None] * SamplingGeometry(seed=seed).dirs(n))[:, None]
    report = {}
    for alpha in multi_indices(n, orders):
        for beta in multi_indices(n, orders):
            scale = _libm_pow(shells, -symbol.u - sum(alpha) + sum(beta))
            vals = (np.abs(_pairs(lambda x, xi: symbol.deriv(alpha, beta, x, xi),
                                  xs[None, :, None], XI))
                    * scale[:, None, None])
            bad = np.argwhere(~np.isfinite(vals))
            if len(bad):
                e, i, d = bad[0]
                raise PreconditionError(
                    f"symbol class {alpha}|{beta}: non-finite sample at "
                    f"x={xs[i].tolist()}, xi={XI[e, 0, d].tolist()}")
            per_shell = dict(zip(shell_exponents,
                                 vals.reshape(len(shells), -1).max(axis=1).tolist()))
            positive = [v for v in per_shell.values() if v > 0]
            report[str((alpha, beta))] = {
                "constant": max(per_shell.values()),
                "per_shell": per_shell,
                "blowup": bool(positive and max(positive) > 10 * min(positive)),
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
