import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadica.errors import PreconditionError
from dyadica.params import (
    BESOV,
    INF,
    TRIEBEL_LIZORKIN,
    MoleculeParams,
    SpaceParams,
    WeightDims,
    ad_region,
    cancellation_free,
    classical_equivalent,
    czo_conditions,
    derived_indices,
    derived_table,
    js_gap,
    molecule_param_sets,
    rounding_profile,
    trace_threshold,
    wavelet_smoothness_required,
)


def B(s, tau, p, q):
    return SpaceParams(BESOV, s, tau, p, q)


def F(s, tau, p, q):
    return SpaceParams(TRIEBEL_LIZORKIN, s, tau, p, q)


# ---------------------------------------------------------------------------
# rounding

def test_rounding_integer():
    rp = rounding_profile(2.0)
    assert (rp.floor, rp.strict_floor, rp.ceil, rp.strict_ceil) == (2, 1, 2, 3)
    assert (rp.frac, rp.strict_frac) == (0.0, 1.0)


def test_rounding_half():
    rp = rounding_profile(1.5)
    assert (rp.floor, rp.strict_floor, rp.ceil, rp.strict_ceil) == (1, 1, 2, 2)
    assert rp.frac == 0.5 and rp.strict_frac == 0.5


def test_rounding_negative():
    rp = rounding_profile(-0.3)
    assert (rp.floor, rp.strict_floor, rp.ceil, rp.strict_ceil) == (-1, -1, 0, 0)
    assert rp.frac == pytest.approx(0.7)
    assert rp.strict_frac == pytest.approx(0.7)


@given(st.one_of(st.integers(-100, 100).map(float),
                 st.floats(-100, 100, allow_nan=False)))
@settings(max_examples=300, deadline=None)
def test_rounding_identities(r):
    rp = rounding_profile(r)
    assert rp.ceil == rp.strict_floor + 1
    assert rp.strict_ceil == rp.floor + 1
    assert 0.0 <= rp.frac < 1.0
    assert 0.0 < rp.strict_frac <= 1.0
    assert rp.strict_floor < r <= rp.strict_floor + 1


@pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan])
def test_rounding_refuses_non_finite(r):
    with pytest.raises(PreconditionError, match="finite argument"):
        rounding_profile(r)


@pytest.mark.parametrize("r, frac, strict_frac", [
    # r - floor(r) rounds up to 1 just below an integer, where 1 is strict_frac's
    (-1e-20, math.nextafter(1.0, 0.0), 1.0),
    # r - strict_floor(r) rounds down to 0 at integers beyond 2**53
    (1e20, 0.0, math.nextafter(0.0, 1.0)),
    (-1e20, 0.0, math.nextafter(0.0, 1.0)),
])
def test_rounding_fractions_clamped_to_their_intervals(r, frac, strict_frac):
    rp = rounding_profile(r)
    assert (rp.frac, rp.strict_frac) == (frac, strict_frac)
    assert rp.strict_floor < r <= rp.strict_floor + 1


# ---------------------------------------------------------------------------
# derived indices

def test_besov_small_p_base_index():
    for n in (1, 2, 3):
        di = derived_indices(B(0.0, 0.0, 0.5, 2.0), n)
        assert di.j_index == 2 * n


def test_tau_zero_d_zero_reduces():
    sp = F(0.7, 0.0, 1.5, 2.0)
    di = derived_indices(sp, 2, 0.0)
    assert di.tau_hat == 0.0
    assert di.s_eff == sp.s
    assert di.j_eff == di.j_tau == di.j_index
    assert di.criticality == "subcritical"


def test_critical_case():
    # F family, tau = 1/p, q finite
    sp = F(0.0, 0.5, 2.0, 2.0)
    di = derived_indices(sp, 1, 0.0)
    assert di.criticality == "critical"
    assert di.j_tau == 1.0  # n / min(1, q) with q = 2


def test_supercritical_cases():
    assert derived_indices(B(0, 0.8, 2.0, 2.0), 1).criticality == "supercritical"
    assert derived_indices(B(0, 0.5, 2.0, INF), 1).criticality == "supercritical"
    di = derived_indices(F(0, 0.9, 2.0, 1.0), 2)
    assert di.j_tau == 2.0


def test_besov_tau_equals_invp_finite_q_subcritical():
    di = derived_indices(B(0, 0.5, 2.0, 3.0), 1)
    assert di.criticality == "subcritical"
    assert di.j_tau == di.j_index


def test_j_eff_at_least_n():
    for sp in (B(0.3, 0.2, 0.7, 1.0), F(-1, 1.4, 0.5, INF), F(2, 0.0, 3.0, 0.4)):
        for n in (1, 2):
            for d in (0.0, 0.3 * n, 0.9 * n):
                di = derived_indices(sp, n, d)
                assert di.j_eff >= n - 1e-12


def test_d_range_validation():
    with pytest.raises(PreconditionError):
        derived_indices(B(0, 0, 1, 1), 1, 1.0)
    with pytest.raises(PreconditionError):
        derived_indices(B(0, 0, 1, 1), 1, -0.1)


# ---------------------------------------------------------------------------
# js_gap

@given(
    st.sampled_from([BESOV, TRIEBEL_LIZORKIN]),
    st.floats(-3, 3),
    st.floats(0, 2),
    st.floats(0.2, 4),
    st.floats(0.2, 4),
    st.integers(1, 3),
    st.floats(0, 0.99),
    st.floats(0, 0.99),
)
@settings(max_examples=400, deadline=None)
def test_js_gap_d_independent(family, s, tau, p, q, n, f1, f2):
    sp = SpaceParams(family, s, tau, p, q)
    gap = js_gap(sp, n)
    for frac in (f1, f2):
        di = derived_indices(sp, n, frac * n)
        assert di.s_eff - di.j_eff == pytest.approx(gap, abs=1e-12)


def test_js_gap_examples():
    # tau=0, Besov, p=1, s=0 -> -n
    for n in (1, 2, 3):
        assert js_gap(B(0, 0, 1, 2), n) == -n
    # tau = 2/p: supercritical, gap = s - n + n(2/p - 1/p)
    sp = B(0.5, 2 / 0.7, 0.7, 2)
    n = 2
    assert js_gap(sp, n) == pytest.approx(0.5 - n + n * (2 / 0.7 - 1 / 0.7))


# ---------------------------------------------------------------------------
# cancellation_free

def test_cancellation_free_cases():
    # supercritical: threshold -n(tau - 1/p)
    sp = B(0, 1.0, 2.0, 2.0)  # tau=1 > 1/2
    n = 1
    thr = -n * (1.0 - 0.5)
    assert cancellation_free(SpaceParams(BESOV, thr + 0.1, 1.0, 2.0, 2.0), n)
    assert not cancellation_free(SpaceParams(BESOV, thr, 1.0, 2.0, 2.0), n)
    # subcritical boundary is strict: s = J - n fails
    spb = B(0.0, 0.0, 1.0, 2.0)  # J = n, threshold 0
    assert not cancellation_free(spb, 2)
    # critical TL with q = 2: threshold n(1/2 - 1)_+ = 0
    spc = F(0.1, 0.5, 2.0, 2.0)
    assert cancellation_free(spc, 1)


def test_cancellation_free_matches_molecule_L():
    # no cancellation <=> synthesis L-bound < 0, for every d
    import itertools
    for family, s, tau, p, q, n in itertools.product(
            [BESOV, TRIEBEL_LIZORKIN], [-1.5, 0.0, 1.2], [0.0, 0.4, 1.1],
            [0.5, 1.0, 2.5], [0.7, 2.0, INF], [1, 2]):
        sp = SpaceParams(family, s, tau, p, q)
        for d in (0.0, 0.5 * n):
            di = derived_indices(sp, n, d)
            syn, _ = molecule_param_sets(di, n)
            l_bound = di.j_eff - n - di.s_eff
            if abs(l_bound) > 1e-9:  # boundary cases are float-ambiguous
                assert cancellation_free(sp, n) == (l_bound < 0), (sp, n, d)


# ---------------------------------------------------------------------------
# ad region

def test_ad_region_membership():
    di = derived_indices(F(0.2, 0.3, 1.2, 2.0), 2, 0.5)
    region = ad_region(di, 2)
    D, E, Fv = region.point_inside(1.0)
    assert region.check(D, E, Fv).ok
    # boundary excluded
    assert not region.check(region.d_min, E, Fv).ok
    assert not region.check(D, region.e_min, Fv).ok
    cs = region.check(D, region.e_min, Fv)
    assert cs.failing() == [f"E > {region.e_min:g}"]


def test_ad_region_tau0_reduction():
    sp = B(0.4, 0.0, 2.0, 2.0)
    n = 1
    di = derived_indices(sp, n, 0.0)
    region = ad_region(di, n)
    assert region.d_min == di.j_tau
    assert region.e_min == n / 2 + sp.s
    assert region.f_min == di.j_tau - n / 2 - sp.s


def test_ad_region_monotone():
    di = derived_indices(F(0.0, 0.2, 0.8, 1.5), 1, 0.3)
    region = ad_region(di, 1)
    D, E, Fv = region.point_inside(0.05)
    assert region.check(D, E, Fv).ok
    assert region.check(D + 5, E + 5, Fv + 5).ok


# ---------------------------------------------------------------------------
# molecule parameter sets

def _inside(spec):
    """Molecule parameters 0.1 inside the strict bounds of ``spec``, on its L bound."""
    b = spec.bounds()
    return MoleculeParams(b.K + 0.1, b.L, b.M + 0.1, b.N + 0.1)


def test_js_molecule_witness_and_margins():
    di = derived_indices(B(0.3, 0.1, 1.0, 2.0), 1, 0.2)
    syn, ana = molecule_param_sets(di, 1)
    assert syn.admits(_inside(syn))
    assert ana.admits(_inside(ana))
    # analysis constraints are the (j_eff, j_eff - n - s_eff) set
    assert ana.s == di.j_eff - 1 - di.s_eff
    # violate N on the synthesis side
    mp = _inside(syn)
    bad = MoleculeParams(mp.K, mp.L, mp.M, di.s_eff)
    cs = syn.check(bad)
    assert not cs.ok
    assert cs.failing() == [f"N > {di.s_eff:g}"]


def test_L_constraint_void_when_cancellation_free():
    sp = B(2.0, 0.0, 1.0, 1.0)  # s = 2 > J - n = 0
    assert cancellation_free(sp, 1)
    di = derived_indices(sp, 1, 0.0)
    syn, _ = molecule_param_sets(di, 1)
    assert syn.check(MoleculeParams(K=2, L=-0.5, M=2, N=3)).items[1].ok


def test_classical_equivalent():
    di = derived_indices(B(0.0, 0.0, 1.0, 1.0), 2, 0.0)  # j_eff = n
    r, s_eff = classical_equivalent(di, 2)
    assert r == 1.0
    # predicate equality against the unweighted (r, r) space
    import numpy as np
    rng = np.random.default_rng(3)
    for sp, n, d in [(B(0.4, 0.3, 0.6, 2.0), 2, 0.7), (F(-0.2, 0.8, 1.4, 0.9), 1, 0.45)]:
        di = derived_indices(sp, n, d)
        r, s_eff = classical_equivalent(di, n)
        assert 0 < r <= 1
        sp_flat = SpaceParams(sp.family, s_eff, 0.0, r, r)
        di_flat = derived_indices(sp_flat, n, 0.0)
        assert di_flat.j_eff == pytest.approx(di.j_eff, rel=1e-12)
        assert di_flat.s_eff == pytest.approx(di.s_eff, rel=1e-12)
        syn, ana = molecule_param_sets(di, n)
        syn2, ana2 = molecule_param_sets(di_flat, n)
        for _ in range(500):
            mp = MoleculeParams(*(rng.uniform(-2, 8, size=4)))
            assert syn.admits(mp) == syn2.admits(mp)
            assert ana.admits(mp) == ana2.admits(mp)


def test_wavelet_smoothness_required():
    class DI:
        pass
    di = derived_indices(B(0.5, 0.0, 1.0, 1.0), 1, 0.0)
    # s_eff = 0.5, j_eff - n - s_eff = -0.5 -> need 1
    assert wavelet_smoothness_required(di, 1) == 1
    di2 = derived_indices(B(2.0, 0.0, 0.25, 1.0), 1, 0.0)
    # j_eff = 4, s_eff = 2, j_eff - n - s_eff = 1 -> max = 2 -> need 3
    assert wavelet_smoothness_required(di2, 1) == 3
    di3 = derived_indices(B(-1.0, 0.0, 2.0, 2.0), 1, 0.0)
    # max(j-n-s, s) = max(1 - 1 + 1, -1) = 1 -> strictly above 1 is 2
    assert wavelet_smoothness_required(di3, 1) == 2


def test_wavelet_smoothness_positive_floor():
    di = derived_indices(B(3.0, 2.0, 1.0, 1.0), 1, 0.0)
    # supercritical: tau_hat = 1, s_eff = 4, j_eff = 1: max(1-1-4, 4) = 4 -> 5
    assert wavelet_smoothness_required(di, 1) == 5
    # everything negative -> 1
    di2 = derived_indices(B(0.5, 0.9, 1.0, 1.0), 1, 0.0)
    need = max(di2.j_eff - 1 - di2.s_eff, di2.s_eff)
    if need <= 0:
        assert wavelet_smoothness_required(di2, 1) == 1


# ---------------------------------------------------------------------------
# trace thresholds

def test_trace_threshold_besov_cases():
    n = 2
    # case 1: n tau/(n-1) > 1/p
    sp = B(5.0, 1.0, 1.0, 2.0)
    assert trace_threshold(sp, n) == (n - 1) / 1.0 - n * 1.0
    # case 2: equality with q = inf
    sp2 = B(5.0, 0.25, 2.0, INF)   # (2/1)*0.25 = 0.5 = 1/p
    assert trace_threshold(sp2, n) == 0.0
    # case 3: otherwise
    sp3 = B(5.0, 0.1, 0.5, 2.0)
    assert trace_threshold(sp3, n) == (n - 1) * (1 / 0.5 - 1)
    sp4 = B(5.0, 0.1, 2.0, 2.0)
    assert trace_threshold(sp4, n) == 0.0


def test_trace_threshold_tl_cases():
    n = 3
    sp = F(5.0, 1.0, 1.0, 2.0)  # (3/2)*1 > 1
    assert trace_threshold(sp, n) == (n - 1) / 1.0 - n * 1.0
    # equality case belongs to "otherwise" for the F family
    sp2 = F(5.0, 1 / 3, 2.0, INF)  # (3/2)/3 = 0.5 = 1/p
    assert trace_threshold(sp2, n) == (n - 1) * max(1 / 2.0 - 1, 0)
    sp3 = F(5.0, 0.0, 0.4, 1.0)
    assert trace_threshold(sp3, n) == (n - 1) * (1 / 0.4 - 1)


def test_trace_threshold_needs_n2():
    with pytest.raises(PreconditionError):
        trace_threshold(B(1, 0, 1, 1), 1)


# ---------------------------------------------------------------------------
# czo conditions

def _h_bound(cs):
    return next(it.bound for it in cs.items if it.name == "H")


def test_czo_conditions_negative_s():
    sp = B(-2.0, 0.0, 1.0, 1.0)
    di = derived_indices(sp, 1, 0.0)
    assert di.s_eff < 0
    spec = czo_conditions(di, 1)
    # sigma >= 0 suffices, E > 0, G >= 0
    cs = spec.check(0, 0.1, di.j_eff - 1 + 2 + 0.1, 0, math.floor(di.j_eff - 1 - di.s_eff))
    assert cs.ok
    # with s_eff < 0 the H bound floor(j_eff - n - s_eff) is already nonnegative
    for args in [(0, 0.1, 3.0, 0, 1), (1, 1.0, 0.5, 2, 0), (0, 0.0, 3.0, 0, 1)]:
        assert _h_bound(spec.check(*args)) == math.floor(di.j_eff - 1 - di.s_eff) >= 0


def test_czo_conditions_positive_s():
    sp = B(0.5, 0.0, 1.0, 1.0)  # j_eff = 1 = n, s_eff = 0.5
    di = derived_indices(sp, 1, 0.0)
    spec = czo_conditions(di, 1)
    cs = spec.check(1, 0.6, 0.1, 0, -1)
    # F > 0 needed; G >= floor(0.5) = 0; H >= floor(1-1-0.5) = -1
    assert cs.ok
    assert _h_bound(cs) == -1
    assert not spec.check(0, 0.6, 0.1, 0, -1).ok  # sigma must be >= 1
    assert not spec.check(1, 0.6, 0.1, 0, -2).ok  # H below its bound
    assert spec.check(1, 0.6, 0.1, 0, 0).ok


# ---------------------------------------------------------------------------
# weight dims

def test_weight_dims():
    wd = WeightDims.for_order(0.8, 0.5)
    assert wd.d_tilde == 0.0
    assert wd.delta == 0.5 / 0.8
    wd2 = WeightDims.for_order(2.0, 0.5, 0.25)
    assert wd2.delta == 0.25 + 0.125
    with pytest.raises(PreconditionError):
        WeightDims.for_order(0.8, 0.5, 0.1)


def test_weight_dims_above_one_default_d_tilde_to_zero():
    wd = WeightDims.for_order(4.0, 0.5)
    assert (wd.d, wd.d_tilde, wd.delta) == (0.5, 0.0, 0.125)


@pytest.mark.parametrize("p, d, d_tilde, message", [
    (0.8, -0.1, None, "d must be nonnegative"),
    (2.0, -0.1, 0.2, "d must be nonnegative"),
    (2.0, 0.5, -0.2, "d_tilde must be nonnegative"),
    (0.0, 0.5, None, r"p must lie in \(0, inf\), got 0.0"),
    (INF, 0.5, None, r"p must lie in \(0, inf\), got inf"),
    (math.nan, 0.5, None, r"p must lie in \(0, inf\), got nan"),
])
def test_weight_dims_refusals(p, d, d_tilde, message):
    with pytest.raises(PreconditionError, match=message):
        WeightDims.for_order(p, d, d_tilde)


def test_space_params_json_roundtrip():
    sp = B(0.5, 0.25, 2.0, INF)
    sp2 = SpaceParams.from_dict(json.loads(json.dumps(sp.to_dict(), sort_keys=True)))
    assert sp2 == sp
    sp3 = SpaceParams.from_dict({"family": "F", "s": 1, "tau": 0, "p": 2, "q": 2})
    assert sp3.family == "F"
    with pytest.raises(PreconditionError):
        SpaceParams.from_dict({"family": "F", "s": 1, "tau": 0, "p": 2, "q": "boom"})
    with pytest.raises(PreconditionError):
        SpaceParams("X", 0, 0, 1, 1)
    with pytest.raises(PreconditionError):
        SpaceParams("B", 0, -0.1, 1, 1)


@pytest.mark.parametrize("s, tau, message", [
    (math.nan, 0.0, "s must be finite, got nan"),
    (math.inf, 0.0, "s must be finite, got inf"),
    (-math.inf, 0.0, "s must be finite, got -inf"),
    (0.5, math.nan, r"tau must lie in \[0, inf\), got nan"),
    (0.5, math.inf, r"tau must lie in \[0, inf\), got inf"),
    (0.5, -0.1, r"tau must lie in \[0, inf\), got -0.1"),
], ids=["s-nan", "s-inf", "s-minus-inf", "tau-nan", "tau-inf", "tau-negative"])
def test_space_params_refuse_non_finite_s_or_tau(s, tau, message):
    with pytest.raises(PreconditionError, match=message):
        SpaceParams(BESOV, s, tau, 2.0, 2.0)


@pytest.mark.parametrize("q", [0.0, -2.0, math.nan], ids=["zero", "negative", "nan"])
def test_space_params_refuse_q_outside_range(q):
    with pytest.raises(PreconditionError, match=r"q must lie in \(0, inf\]"):
        SpaceParams(BESOV, 0.5, 0.0, 2.0, q)


@pytest.mark.parametrize("sp, n, d", [
    (B(0.5, 0.1, 2, 2), 1, 0.0), (F(-0.7, 0.0, 0.8, 1.5), 2, 0.3), (B(1.2, 0.4, 1.5, INF), 3, 0.0),
])
def test_derived_table_molecule_rows_are_the_spec_bounds(sp, n, d):
    # the (J, s) formulas as the table used to restate them
    di = derived_indices(sp, n, d)
    j, s = di.j_eff, di.s_eff
    table = derived_table(sp, n, d)
    assert table["synthesis_molecule"] == {"K>": j + max(-s, 0.0), "L>=": j - n - s,
                                           "M>": j, "N>": s}
    s_ana = j - n - s
    assert table["analysis_molecule"] == {"K>": j + max(-s_ana, 0.0), "L>=": j - n - s_ana,
                                          "M>": j, "N>": s_ana}
    for spec in molecule_param_sets(di, n):
        b = spec.bounds()
        assert spec.admits(_inside(spec))
        # K, M and N are strict bounds, L is attained
        assert [it.name for it in spec.check(b).items if not it.ok] == ["K", "M", "N"]
