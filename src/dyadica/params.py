"""Parameter calculus for the dyadic sequence-space scale.

Rounding functions, derived indices with their criticality classes, the
almost-diagonal admissibility region, molecule parameter sets, trace
thresholds, and singular-kernel parameter conditions.  Constraint sets are
first-class values: evaluable predicates that can also print each inequality
with its margin, so callers can report exactly which condition fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PreconditionError

INF = math.inf

BESOV = "B"
TRIEBEL_LIZORKIN = "F"


def pos(x: float) -> float:
    return x if x > 0 else 0.0


def neg(x: float) -> float:
    """Negative part, returned as a nonnegative number."""
    return -x if x < 0 else 0.0


def json_field(d: dict, key: str, convert=float, expected: str = "a number"):
    """``convert(d[key])`` for a JSON object ``d``; a missing key, or a value
    that ``convert`` rejects (a non-number for ``float``), is refused naming
    it and what was ``expected``."""
    if key not in d:
        raise PreconditionError(f"missing key {key!r}")
    try:
        return convert(d[key])
    except (TypeError, ValueError) as exc:
        raise PreconditionError(f"key {key!r} holds {d[key]!r}, not {expected}") from exc


# ---------------------------------------------------------------------------
# rounding

@dataclass(frozen=True)
class RoundingProfile:
    """The six rounding values of a real number.

    ``strict_floor`` is the largest integer strictly below, ``strict_ceil``
    the smallest integer strictly above; ``frac`` lies in [0,1) and
    ``strict_frac`` in (0,1].
    """

    floor: int
    strict_floor: int
    ceil: int
    strict_ceil: int
    frac: float
    strict_frac: float


def rounding_profile(r: float) -> RoundingProfile:
    if not math.isfinite(r):
        raise PreconditionError("rounding profile requires a finite argument")
    fl = math.floor(r)
    is_int = (r == fl)
    sfl = fl - 1 if is_int else fl
    cl = math.ceil(r)
    scl = fl + 1
    # the subtractions can round onto the excluded endpoint for |r| near an
    # integer at the double-precision limit; clamp to the contract intervals
    frac = r - fl
    if frac >= 1.0:
        frac = math.nextafter(1.0, 0.0)
    sfrac = r - sfl
    if sfrac <= 0.0:
        sfrac = math.nextafter(0.0, 1.0)
    return RoundingProfile(fl, sfl, cl, scl, frac, sfrac)


def strict_floor(r: float) -> int:
    return rounding_profile(r).strict_floor


def strict_ceil(r: float) -> int:
    return rounding_profile(r).strict_ceil


# ---------------------------------------------------------------------------
# space parameters

def check_order(p: float) -> None:
    """Refuse an order p of a space or a weight average outside (0, inf); NaN too."""
    if not (p > 0 and math.isfinite(p)):
        raise PreconditionError(f"p must lie in (0, inf), got {p}")


@dataclass(frozen=True)
class SpaceParams:
    """(family, s, tau, p, q) with q = inf as a distinguished value."""

    family: str
    s: float
    tau: float
    p: float
    q: float

    def __post_init__(self):
        if self.family not in (BESOV, TRIEBEL_LIZORKIN):
            raise PreconditionError(f"family must be '{BESOV}' or '{TRIEBEL_LIZORKIN}'")
        check_order(self.p)
        if self.tau < 0:
            raise PreconditionError("tau must be nonnegative")
        if not (self.q > 0):
            raise PreconditionError("q must lie in (0, inf]")

    @property
    def q_is_inf(self) -> bool:
        return self.q == INF

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "s": self.s,
            "tau": self.tau,
            "p": self.p,
            "q": "inf" if self.q_is_inf else self.q,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SpaceParams":
        q = json_field(d, "q", lambda v: v if isinstance(v, str) else float(v))
        if isinstance(q, str):
            if q.lower() not in ("inf", "infinity"):
                raise PreconditionError(f"bad q value {q!r}")
            q = INF
        return cls(json_field(d, "family", str), json_field(d, "s"), json_field(d, "tau"),
                   json_field(d, "p"), float(q))


@dataclass(frozen=True)
class WeightDims:
    """Growth exponents (d, d_tilde) of a weight with their combination delta."""

    d: float
    d_tilde: float
    delta: float

    @classmethod
    def for_order(cls, p: float, d: float, d_tilde: float | None = None) -> "WeightDims":
        check_order(p)
        if d < 0:
            raise PreconditionError("d must be nonnegative")
        if p <= 1:
            if d_tilde not in (None, 0, 0.0):
                raise PreconditionError("d_tilde is fixed to 0 for p <= 1")
            return cls(d, 0.0, d / p)
        if d_tilde is None:
            d_tilde = 0.0
        if d_tilde < 0:
            raise PreconditionError("d_tilde must be nonnegative")
        pprime = p / (p - 1)
        return cls(d, d_tilde, d / p + d_tilde / pprime)


SUPERCRITICAL = "supercritical"
CRITICAL = "critical"
SUBCRITICAL = "subcritical"


def criticality(sp: SpaceParams) -> str:
    inv_p = 1.0 / sp.p
    if sp.tau > inv_p or (sp.tau == inv_p and sp.q_is_inf):
        return SUPERCRITICAL
    if sp.family == TRIEBEL_LIZORKIN and sp.tau == inv_p and not sp.q_is_inf:
        return CRITICAL
    return SUBCRITICAL


def base_index(sp: SpaceParams, n: int) -> float:
    """n/min(1,p) for the B family, n/min(1,p,q) for the F family."""
    if sp.family == BESOV:
        return n / min(1.0, sp.p)
    return n / min(1.0, sp.p, sp.q)


@dataclass(frozen=True)
class DerivedIndices:
    """Weight-adjusted indices of a space: the inputs of every admissibility test."""

    j_index: float      # n / min(1, p [, q])
    j_tau: float        # criticality-dependent base
    tau_hat: float      # [(tau - 1/p) + d/(np)]_+
    j_eff: float        # j_tau + min(n*tau_hat, d/p)
    s_eff: float        # s + n*tau_hat
    criticality: str
    n: int
    d: float


def derived_indices(sp: SpaceParams, n: int, d: float = 0.0) -> DerivedIndices:
    if not (0 <= d < n):
        raise PreconditionError(f"d must lie in [0, n); got d={d}, n={n}")
    j = base_index(sp, n)
    crit = criticality(sp)
    if crit == SUPERCRITICAL:
        j_tau = float(n)
    elif crit == CRITICAL:
        j_tau = n / min(1.0, sp.q)
    else:
        j_tau = j
    tau_hat = pos((sp.tau - 1.0 / sp.p) + d / (n * sp.p))
    j_eff = j_tau + min(n * tau_hat, d / sp.p)
    s_eff = sp.s + n * tau_hat
    return DerivedIndices(j, j_tau, tau_hat, j_eff, s_eff, crit, n, d)


def js_gap(sp: SpaceParams, n: int) -> float:
    """s_eff - j_eff; independent of the weight exponent d."""
    di = derived_indices(sp, n, 0.0)
    return sp.s - di.j_tau + n * pos(sp.tau - 1.0 / sp.p)


def cancellation_free(sp: SpaceParams, n: int) -> bool:
    """Whether synthesis molecules of the space carry no moment conditions."""
    crit = criticality(sp)
    if crit == SUPERCRITICAL:
        threshold = -n * (sp.tau - 1.0 / sp.p)
    elif crit == CRITICAL:
        threshold = n * pos(1.0 / sp.q - 1.0)
    else:
        threshold = base_index(sp, n) - n
    return sp.s > threshold


# ---------------------------------------------------------------------------
# constraint sets

@dataclass(frozen=True)
class Inequality:
    """value OP bound, with OP in {>, >=}; margin = value - bound."""

    name: str
    value: float
    bound: float
    strict: bool

    @property
    def ok(self) -> bool:
        return self.value > self.bound if self.strict else self.value >= self.bound

    @property
    def margin(self) -> float:
        return self.value - self.bound


@dataclass(frozen=True)
class ConstraintSet:
    label: str
    items: tuple[Inequality, ...]

    @property
    def ok(self) -> bool:
        return all(it.ok for it in self.items)

    def failing(self) -> list[str]:
        return [f"{it.name} {'>' if it.strict else '>='} {it.bound:g}" for it in self.items if not it.ok]

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "ok": self.ok,
            "items": [
                {
                    "name": it.name,
                    "op": ">" if it.strict else ">=",
                    "bound": it.bound,
                    "value": it.value,
                    "margin": it.margin,
                    "ok": it.ok,
                }
                for it in self.items
            ],
        }


# ---------------------------------------------------------------------------
# admissibility regions

@dataclass(frozen=True)
class ADRegion:
    """Strict lower bounds on the decay triple (D, E, F) of a model matrix."""

    d_min: float
    e_min: float
    f_min: float

    def check(self, D: float, E: float, F: float) -> ConstraintSet:
        return ConstraintSet(
            "almost-diagonal region",
            (
                Inequality("D", D, self.d_min, True),
                Inequality("E", E, self.e_min, True),
                Inequality("F", F, self.f_min, True),
            ),
        )

    def point_inside(self, margin: float = 0.1) -> tuple[float, float, float]:
        return (self.d_min + margin, self.e_min + margin, self.f_min + margin)


def ad_region(di: DerivedIndices, n: int) -> ADRegion:
    return ADRegion(di.j_eff, n / 2.0 + di.s_eff, di.j_eff - n / 2.0 - di.s_eff)


@dataclass(frozen=True)
class MoleculeParams:
    """Decay / cancellation / derivative-decay / smoothness exponents."""

    K: float
    L: float
    M: float
    N: float


@dataclass(frozen=True)
class JsMoleculeSpec:
    """Constraint set of a (J, s)-type molecule class."""

    j: float
    s: float
    n: int
    label: str = "molecule"

    def bounds(self) -> MoleculeParams:
        """The lower bounds of K, L, M and N; only L's is attained."""
        return MoleculeParams(self.j + neg(self.s), self.j - self.n - self.s, self.j, self.s)

    def check(self, mp: MoleculeParams) -> ConstraintSet:
        b = self.bounds()
        return ConstraintSet(
            self.label,
            (
                Inequality("K", mp.K, b.K, True),
                Inequality("L", mp.L, b.L, False),
                Inequality("M", mp.M, b.M, True),
                Inequality("N", mp.N, b.N, True),
            ),
        )

    def admits(self, mp: MoleculeParams) -> bool:
        return self.check(mp).ok


def molecule_param_sets(di: DerivedIndices, n: int) -> tuple[JsMoleculeSpec, JsMoleculeSpec]:
    """(synthesis, analysis) molecule constraint sets for the space."""
    synthesis = JsMoleculeSpec(di.j_eff, di.s_eff, n, "synthesis molecule")
    analysis = JsMoleculeSpec(di.j_eff, di.j_eff - n - di.s_eff, n, "analysis molecule")
    return synthesis, analysis


def classical_equivalent(di: DerivedIndices, n: int) -> tuple[float, float]:
    """Exponent (r, r) and smoothness of the unweighted space with the same molecules."""
    r = n / di.j_eff
    return r, di.s_eff


def wavelet_smoothness_required(di: DerivedIndices, n: int) -> int:
    """Smallest positive integer strictly above max(j_eff - n - s_eff, s_eff)."""
    need = max(di.j_eff - n - di.s_eff, di.s_eff)
    return max(1, strict_ceil(need))


def trace_threshold(sp: SpaceParams, n: int) -> float:
    """The excess E such that the trace requires s > 1/p + E."""
    if n < 2:
        raise PreconditionError("trace thresholds need n >= 2")
    ratio = n / (n - 1) * sp.tau
    inv_p = 1.0 / sp.p
    if ratio > inv_p:
        return (n - 1) / sp.p - n * sp.tau
    if sp.family == BESOV and ratio == inv_p and sp.q_is_inf:
        return 0.0
    return (n - 1) * pos(inv_p - 1.0)


@dataclass(frozen=True)
class CzoConditionSpec:
    """Parameter conditions on (sigma, E, F, G, H) for kernel-driven boundedness."""

    s_eff: float
    j_eff: float
    n: int

    def check(self, sigma: int, E: float, F: float, G: float, H: float) -> ConstraintSet:
        return ConstraintSet(
            "kernel parameter conditions",
            (
                Inequality("sigma", sigma, 1.0 if self.s_eff >= 0 else 0.0, False),
                Inequality("E", E, pos(self.s_eff), True),
                Inequality("F", F, self.j_eff - self.n + neg(self.s_eff), True),
                Inequality("G", G, pos(math.floor(self.s_eff)), False),
                Inequality("H", H, math.floor(self.j_eff - self.n - self.s_eff), False),
            ),
        )


def czo_conditions(di: DerivedIndices, n: int) -> CzoConditionSpec:
    return CzoConditionSpec(di.s_eff, di.j_eff, n)


def derived_table(sp: SpaceParams, n: int, d: float = 0.0) -> dict:
    """Everything the CLI prints for one parameter tuple."""
    di = derived_indices(sp, n, d)
    syn, ana = molecule_param_sets(di, n)
    out = {
        "space": sp.to_dict(),
        "n": n,
        "d": d,
        "j_index": di.j_index,
        "j_tau": di.j_tau,
        "tau_hat": di.tau_hat,
        "j_eff": di.j_eff,
        "s_eff": di.s_eff,
        "criticality": di.criticality,
        "js_gap": js_gap(sp, n),
        "cancellation_free": cancellation_free(sp, n),
        "wavelet_smoothness_required": wavelet_smoothness_required(di, n),
        "classical_equivalent_r": classical_equivalent(di, n)[0],
    }
    for name, spec in (("synthesis_molecule", syn), ("analysis_molecule", ana)):
        b = spec.bounds()
        out[name] = {"K>": b.K, "L>=": b.L, "M>": b.M, "N>": b.N}
    if n >= 2:
        out["trace_threshold"] = trace_threshold(sp, n)
        out["trace_admissible"] = sp.s > 1.0 / sp.p + out["trace_threshold"]
    return out
