import math
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import dyadica.czo as czo_module
from dyadica.czo import (
    ConditionFit,
    Kernel,
    SamplingGeometry,
    SymbolS11u,
    _riesz,
    apply_pdo,
    apply_to_atom_farfield,
    classify_factorization,
    czk_check,
    czo_molecule_conditions,
    decay_fit,
    intermediate_derivative_check,
    kernel_by_name,
    legacy_to_mixed,
    symbol_class_check,
    t1_molecule_witness,
)
from dyadica.dyadic import DyadicCube, tensor_points
from dyadica.errors import PreconditionError
from dyadica.molecules import MoleculeCandidate, gauss_panels, make_atom, multi_indices
from dyadica.params import (
    MoleculeParams,
    SpaceParams,
    czo_conditions,
    derived_indices,
    molecule_param_sets,
    rounding_profile,
    strict_floor,
)
from dyadica.wavelets import FunctionSample

GEOM = SamplingGeometry(shell_exponents=tuple(range(-7, 8)), directions=8,
                        offset_fracs=(0.25, 0.125))


def test_hilbert_closed_form_derivatives():
    K = kernel_by_name("hilbert")
    X = np.array([[2.0], [5.0]])
    Y = np.array([[0.5], [1.0]])
    d = X[:, 0] - Y[:, 0]
    assert np.allclose(K.deriv((1,), (0,), X, Y), -d ** -2)
    assert np.allclose(K.deriv((0,), (1,), X, Y), d ** -2)
    assert np.allclose(K.deriv((1,), (1,), X, Y), -2 * d ** -3)


def test_riesz_fd_matches_sympy():
    K = kernel_by_name("riesz-0")
    x0, x1, y0, y1 = sympy.symbols("x0 x1 y0 y1", real=True)
    expr = (x0 - y0) / sympy.sqrt((x0 - y0) ** 2 + (x1 - y1) ** 2) ** 3
    rng = np.random.default_rng(0)
    X = rng.uniform(2, 3, size=(5, 2))
    Y = rng.uniform(-1, 0, size=(5, 2))
    for alpha, beta in [((1, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (1, 0)),
                        ((1, 0), (0, 1)), ((2, 0), (0, 0))]:
        de = expr
        for var, k in zip((x0, x1), alpha):
            de = sympy.diff(de, var, k)
        for var, k in zip((y0, y1), beta):
            de = sympy.diff(de, var, k)
        fn = sympy.lambdify((x0, x1, y0, y1), de, "numpy")
        truth = fn(X[:, 0], X[:, 1], Y[:, 0], Y[:, 1])
        got = K.deriv(alpha, beta, X, Y).real
        assert np.allclose(got, truth, rtol=1e-4), (alpha, beta)


def test_czk_check_hilbert_stable():
    K = kernel_by_name("hilbert")
    rep = czk_check(K, E=1.5, F=0.5, geometry=GEOM)
    assert rep["all_stable"]
    for cond in rep["conditions"].values():
        if not cond["void"]:
            assert np.isfinite(cond["constant"])
            assert cond["drift"] <= 1.02


def test_czk_check_riesz_stable():
    K = kernel_by_name("riesz-0")
    geom = SamplingGeometry(shell_exponents=tuple(range(-5, 6)), directions=8,
                            offset_fracs=(0.25,), base_points=((0.0, 0.0),))
    rep = czk_check(K, E=1.2, F=0.4, geometry=geom)
    assert rep["all_stable"]
    for cond in rep["conditions"].values():
        if not cond["void"]:
            assert cond["drift"] <= 1.05


def test_czk_check_truncated_fails_at_shell():
    K = kernel_by_name("truncated")
    # small offset fractions expose the jump: an O(1) difference against an
    # O(|u|) budget
    geom = SamplingGeometry(shell_exponents=tuple(range(-7, 8)), directions=8,
                            offset_fracs=(0.25, 0.015625))
    rep = czk_check(K, E=1.0, F=0.0, geometry=geom)
    assert not rep["all_stable"]
    bad = [c for c in rep["conditions"].values() if not c["void"] and not c["stable"]]
    assert bad
    # the worst sample sits at the truncation scale
    xw, yw = bad[0]["worst"][0], bad[0]["worst"][1]
    sep = abs(xw[0] - yw[0])
    assert 0.4 <= sep <= 2.5


def test_czk_mixed_condition_runs():
    K = kernel_by_name("hilbert")
    rep = czk_check(K, E=0.4, F=0.9, sigma=1, geometry=GEOM)
    assert "mixed_difference" in rep["conditions"]
    assert rep["conditions"]["mixed_difference"]["stable"]


def test_intermediate_check_hilbert():
    K = kernel_by_name("hilbert")
    rep = intermediate_derivative_check(K, F=2.5, geometry=GEOM)
    assert rep["all_stable"]
    assert rep["failing_orders"] == []


def test_intermediate_check_detects_blowup():
    # |K| bounded but d_y K ~ r^{-3} cos(1/r^2): violates the order-1 bound
    def base(X, Y):
        t = X[:, 0] - Y[:, 0]
        return np.sin(t ** -2.0)

    def dy(X, Y):
        t = X[:, 0] - Y[:, 0]
        return 2.0 * t ** -3.0 * np.cos(t ** -2.0)

    K = Kernel(1, base, {((0,), (1,)): dy}, max_order=1, label="oscillatory")
    rep = intermediate_derivative_check(K, F=1.5, geometry=GEOM)
    assert 1 in rep["failing_orders"]


def test_czk_constants_dilation_invariant():
    # K -> lambda^n K(lambda x, lambda y) leaves the fitted constants alone
    K = kernel_by_name("hilbert")
    lam = 4.0

    def scaled(X, Y):
        return lam * (1.0 / (lam * X[:, 0] - lam * Y[:, 0]))

    K2 = Kernel(1, scaled, max_order=3, label="dilated")
    r1 = czk_check(K, E=1.5, F=0.5, geometry=GEOM)
    r2 = czk_check(K2, E=1.5, F=0.5, geometry=GEOM)
    for name in r1["conditions"]:
        c1 = r1["conditions"][name]["constant"]
        c2 = r2["conditions"][name]["constant"]
        if c1 > 0:
            assert abs(c2 / c1 - 1.0) < 0.02


def test_classify_factorization():
    assert classify_factorization(1.5, -1.0) == "T in CZO(E) only"
    assert classify_factorization(-0.5, 0.9) == "T* in CZO(F) only"
    assert classify_factorization(0.4, 0.9, sigma=1) == "mixed-required"
    assert classify_factorization(0.9, 0.4) == "factorizes"
    assert classify_factorization(0.9, 0.4, sigma=1) == "factorizes"
    assert classify_factorization(-1.0, -2.0) == "void"
    # exactly one label per input
    rng = np.random.default_rng(0)
    labels = {"void", "T in CZO(E) only", "T* in CZO(F) only", "mixed-required",
              "factorizes"}
    for _ in range(200):
        E, F = rng.uniform(-2, 3, size=2)
        s = int(rng.integers(0, 2))
        assert classify_factorization(E, F, s) in labels


# ---------------------------------------------------------------------------
# far-field action

def _even_bump(width=0.6):
    q = DyadicCube(1, 0, (0,))

    def f(pts):
        t = pts[:, 0] / width
        return np.where(np.abs(t) < 1, (1 - t ** 2) ** 6, 0.0)

    return MoleculeCandidate(q, f, support_radius=1.2, label="even-bump")


def test_farfield_odd_symmetry():
    K = kernel_by_name("hilbert")
    a = _even_bump()
    xs = np.array([[5.0], [6.5], [8.0]])
    plus = apply_to_atom_farfield(K, a, (0,), xs)["raw"]
    minus = apply_to_atom_farfield(K, a, (0,), -xs)["raw"]
    assert np.max(np.abs(plus + minus)) < 1e-8 * np.max(np.abs(plus))


def test_farfield_raw_vs_taylor_agreement():
    K = kernel_by_name("hilbert")
    atom = make_atom(DyadicCube(1, 0, (0,)), r=1.5, L=1.0, N=2.0)
    xs = np.array([[10.0], [-12.0]])
    rep = apply_to_atom_farfield(K, atom, (0,), xs, taylor_order=1)
    assert rep["relative_disagreement"] < 1e-6
    assert not rep["flagged"]


def test_farfield_requires_far_points():
    K = kernel_by_name("hilbert")
    atom = make_atom(DyadicCube(1, 0, (0,)), r=1.5, L=0.0, N=1.0)
    with pytest.raises(PreconditionError):
        apply_to_atom_farfield(K, atom, (0,), np.array([[1.0]]))


def test_decay_fit_synthetic():
    radii = np.geomspace(1.0, 1e4, 40)
    rep = decay_fit(radii, radii ** -3.0)
    assert abs(rep["slope"] + 3.0) < 1e-3
    with pytest.raises(PreconditionError):
        decay_fit(np.geomspace(1, 10, 10), np.ones(10))


def test_hilbert_atom_decay_exponent():
    # two vanishing moments -> far field ~ |x|^{-3} = -(n + F_eff), F_eff = 2
    K = kernel_by_name("hilbert")
    atom = make_atom(DyadicCube(1, 0, (0,)), r=1.5, L=1.0, N=2.0)
    radii = np.geomspace(6.0, 6000.0, 28)
    vals = apply_to_atom_farfield(K, atom, (0,), radii[:, None])["raw"]
    rep = decay_fit(radii, vals)
    assert abs(rep["slope"] + 3.0) < 0.3
    # insensitive to quadrature refinement
    vals2 = apply_to_atom_farfield(K, atom, (0,), radii[:, None], quad_points=160)["raw"]
    rep2 = decay_fit(radii, vals2)
    assert abs(rep2["slope"] - rep["slope"]) <= 0.05


# ---------------------------------------------------------------------------
# legacy conversion

def test_legacy_to_mixed_equal_fracs():
    # J* = s*, delta = rho = J* + 0.4 -> eps + eta = 0.4
    s, J = 0.25, 2.25
    rep = legacy_to_mixed(s, J, delta=0.25 + 0.4, rho=0.25 + 0.4, n=1)
    assert rep["eps"] + rep["eta"] == pytest.approx(0.4)
    assert rep["identity_residual"] == pytest.approx(0.0, abs=1e-12)


def test_legacy_to_mixed_infeasible_boundary():
    with pytest.raises(PreconditionError):
        legacy_to_mixed(0.25, 2.25, delta=0.25, rho=0.5, n=1)  # delta = s* exactly


def test_legacy_to_mixed_other_case():
    # s* > J*: eps = delta - s*, eta in (0, s* - J*)
    s, J = 0.75, 2.25
    rep = legacy_to_mixed(s, J, delta=0.9, rho=0.3, n=1)
    assert rep["eps"] == pytest.approx(0.9 - 0.75)
    assert 0 < rep["eta"] < 0.75 - 0.25
    assert rep["identity_residual"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("s,J,delta,rho", [
    (0.0, 1.5, 0.6, 0.6), (0.3, 2.1, 0.5, 0.2), (1.2, 3.9, 0.95, 0.95),
])
def test_legacy_identity_always(s, J, delta, rho):
    try:
        rep = legacy_to_mixed(s, J, delta, rho, n=1)
    except PreconditionError:
        return
    assert rep["identity_residual"] == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# pseudo-differential

def _band_limited_sample(g=8, lo=-8, hi=8):
    def f(pts):
        x = pts[:, 0]
        return np.exp(-x ** 2) * np.cos(2 * x)

    return FunctionSample.from_callable(f, 1, 1, g, (lo,), (hi,))


def _subcritical_indices():
    return derived_indices(SpaceParams("B", 0.0, 0.0, 2.0, 2.0), 1, 0.0)


@pytest.mark.parametrize("call, message", [
    (lambda: decay_fit([1.0, 10.0, 100.0, 1000.0], [1.0, 0.0, 1e-3, 0.0]),
     "too few nonzero samples for a decay fit"),
    (lambda: apply_to_atom_farfield(kernel_by_name("hilbert"),
                                    MoleculeCandidate(DyadicCube(1, 0, (0,)), lambda p: p[:, 0]),
                                    (0,), np.array([[10.0]])),
     "far-field action needs a compactly supported atom"),
    (lambda: apply_pdo(SymbolS11u.derivative_symbol(axis=0, n=2), _band_limited_sample()),
     "symbol and sample dimensions differ"),
    (lambda: t1_molecule_witness(_subcritical_indices(), 1, 0, 5.0, -100.0, 1.0, 1.0),
     "F too small for a decay witness"),
    (lambda: t1_molecule_witness(_subcritical_indices(), 1, 0, -1.0, 5.0, 1.0, 1.0),
     "E too small for a smoothness witness"),
], ids=["decay-fit-samples", "farfield-unbounded-support", "pdo-dimension", "witness-F",
        "witness-E"])
def test_czo_refusals(call, message):
    with pytest.raises(PreconditionError, match=message):
        call()


def test_pdo_identity():
    f = _band_limited_sample()
    one = SymbolS11u(1, 0, lambda X, XI: np.ones(len(XI)), x_independent=True)
    out = apply_pdo(one, f)
    assert np.max(np.abs(out.values - f.values)) < 1e-10


def test_pdo_spectral_derivative():
    f = _band_limited_sample()
    d = SymbolS11u.derivative_symbol()
    out = apply_pdo(d, f)
    x = f.axis_points(0)
    truth = np.exp(-x ** 2) * (-2 * x * np.cos(2 * x) - 2 * np.sin(2 * x))
    assert np.max(np.abs(out.values[0] - truth)) < 1e-6


def test_pdo_x_dependent_matches_multiplier_when_constant():
    f = _band_limited_sample(g=6)
    mult = SymbolS11u.multiplier_power(1, 1)
    dep = SymbolS11u(1, 1, lambda X, XI: np.abs(XI[:, 0]), x_independent=False)
    a = apply_pdo(mult, f)
    b = apply_pdo(dep, f)
    assert np.max(np.abs(a.values - b.values)) < 1e-9


def test_pdo_aliasing_guard():
    def f(pts):
        x = pts[:, 0]
        return np.cos(180.0 * x)  # near the g=6 Nyquist band

    fs = FunctionSample.from_callable(f, 1, 1, 6, (-2,), (2,))
    one = SymbolS11u(1, 0, lambda X, XI: np.ones(len(XI)), x_independent=True)
    with pytest.raises(PreconditionError):
        apply_pdo(one, fs)


def _alias_share_reference(f):
    """The share of the energy above 80% of the Nyquist band, from per-axis bands."""
    n = f.n
    axes_freq = [2.0 * math.pi * np.fft.fftfreq(N, d=f.h) for N in f.shape]
    fhat = np.fft.fftn(f.values, axes=tuple(range(1, n + 1)))
    mask = np.zeros(f.shape, dtype=bool)
    for i, freqs in enumerate(axes_freq):
        band = np.abs(freqs) > 0.8 * np.max(np.abs(freqs))
        sl = [None] * n
        sl[i] = slice(None)
        mask |= band[tuple(sl)]
    return float(np.sum(np.abs(fhat[:, mask]) ** 2)) / float(np.sum(np.abs(fhat) ** 2))


@pytest.mark.parametrize("n", [1, 2])
def test_pdo_aliasing_share_equals_per_axis_bands(n):
    rng = np.random.default_rng(n)
    fs = FunctionSample.from_callable(lambda pts: rng.standard_normal(len(pts)), n, 1, 3,
                                      (0,) * n, (1,) * n)
    one = SymbolS11u(n, 0, lambda X, XI: np.ones(len(XI)), x_independent=True)
    with pytest.raises(PreconditionError, match=f"aliasing: {_alias_share_reference(fs):.2e} "):
        apply_pdo(one, fs)

def test_symbol_class_check():
    hom = SymbolS11u.multiplier_power(1, 1)
    rep = hom.deriv((0,), (0,), np.zeros((1, 1)), np.array([[2.0]]))
    report = symbol_class_check_helper(hom)
    for key, entry in report.items():
        assert not entry["blowup"], key
    inhom = SymbolS11u(1, 1, lambda X, XI: np.sqrt(1 + XI[:, 0] ** 2),
                       x_independent=True, label="japanese-bracket")
    rep2 = symbol_class_check_helper(inhom)
    assert rep2[str(((0,), (0,)))]["blowup"]


def symbol_class_check_helper(sym):
    from dyadica.czo import symbol_class_check
    return symbol_class_check(sym, orders=1)


def test_symbol_x_rows_vanish():
    hom = SymbolS11u.multiplier_power(1, 2)
    X = np.zeros((4, 1))
    XI = np.array([[1.0], [2.0], [-1.0], [0.5]])
    assert np.all(hom.deriv((1,), (0,), X, XI) == 0)


# ---------------------------------------------------------------------------
# parameter conditions

def test_czo_molecule_conditions_strictness():
    # N <= 0: sigma >= 0 suffices
    mp = MoleculeParams(K=3.0, L=1.0, M=3.0, N=-0.5)
    cs = czo_molecule_conditions(0, 1.0, 2.5, 0.0, 1.0, mp, n=1)
    assert cs.ok, cs.failing()
    # E = N a positive integer fails the strict part
    mp2 = MoleculeParams(K=2.5, L=0.5, M=2.5, N=2.0)
    cs2 = czo_molecule_conditions(1, 2.0, 2.0, 2.0, 0.0, mp2, n=1)
    assert not cs2.ok
    assert any("floor(N)" in line for line in cs2.failing())


def test_t1_witness_cross_check():
    rng = np.random.default_rng(7)
    count = 0
    for _ in range(500):
        fam = "B" if rng.random() < 0.5 else "F"
        sp = SpaceParams(fam, rng.uniform(-2, 2), rng.uniform(0, 1.2),
                         rng.uniform(0.4, 3), rng.uniform(0.4, 3))
        n = int(rng.integers(1, 3))
        d = rng.uniform(0, 0.9) * n
        di = derived_indices(sp, n, d)
        spec = czo_conditions(di, n)
        sigma = 1
        E = pos(di.s_eff) + rng.uniform(0.05, 2)
        F = di.j_eff - n + (-di.s_eff if di.s_eff < 0 else 0) + rng.uniform(0.05, 2)
        G = pos(math.floor(di.s_eff)) + rng.integers(0, 3)
        H = math.floor(di.j_eff - n - di.s_eff) + rng.integers(0, 3)
        assert spec.check(sigma, E, F, G, H).ok
        mp = t1_molecule_witness(di, n, sigma, E, F, G, H)
        # the witness solves the atom-to-molecule conditions...
        cs = czo_molecule_conditions(sigma, E, F, G, H, mp, n)
        assert cs.ok, (sp.to_dict(), d, (E, F, G, H), mp, cs.failing())
        # ...and is a synthesis molecule quadruple for the space
        syn, _ = molecule_param_sets(di, n)
        assert syn.admits(mp), (sp, mp)
        count += 1
    assert count == 500


def pos(x):
    return x if x > 0 else 0.0


# ---------------------------------------------------------------------------
# the shared nested central difference against the per-class recursions it
# replaced: results must be bitwise equal


def _kernel_deriv_reference(K, alpha, beta, X, Y, fd_rel=1e-3):
    oa, ob = sum(alpha), sum(beta)
    if oa == 0 and ob == 0:
        return K(X, Y)
    key = (tuple(alpha), tuple(beta))
    if key in K.derivatives:
        return np.asarray(K.derivatives[key](np.atleast_2d(X), np.atleast_2d(Y)), dtype=complex)
    if oa + ob > K.max_order:
        raise PreconditionError("order above the cap")
    X = np.atleast_2d(X)
    Y = np.atleast_2d(Y)
    h = fd_rel * np.linalg.norm(X - Y, axis=-1, keepdims=True)
    if oa > 0:
        axis = next(i for i, a in enumerate(alpha) if a > 0)
        lower = tuple(a - (1 if i == axis else 0) for i, a in enumerate(alpha))
        step = np.zeros_like(X)
        step[:, axis] = h[:, 0]
        return (_kernel_deriv_reference(K, lower, beta, X + step, Y)
                - _kernel_deriv_reference(K, lower, beta, X - step, Y)) / (2 * h[:, 0])
    axis = next(i for i, b in enumerate(beta) if b > 0)
    lower = tuple(b - (1 if i == axis else 0) for i, b in enumerate(beta))
    step = np.zeros_like(Y)
    step[:, axis] = h[:, 0]
    return (_kernel_deriv_reference(K, alpha, lower, X, Y + step)
            - _kernel_deriv_reference(K, alpha, lower, X, Y - step)) / (2 * h[:, 0])


def _symbol_deriv_reference(a, alpha, beta, X, XI):
    oa, ob = sum(alpha), sum(beta)
    if oa == 0 and ob == 0:
        return a(X, XI)
    key = (tuple(alpha), tuple(beta))
    if key in a.derivatives:
        return np.asarray(a.derivatives[key](np.atleast_2d(X), np.atleast_2d(XI)), dtype=complex)
    if a.x_independent and oa > 0:
        return np.zeros(np.atleast_2d(X).shape[0], dtype=complex)
    if oa + ob > a.max_order:
        raise PreconditionError("symbol derivative order deficit")
    X = np.atleast_2d(X)
    XI = np.atleast_2d(XI)
    if oa > 0:
        axis = next(i for i, v in enumerate(alpha) if v > 0)
        lower = tuple(v - (1 if i == axis else 0) for i, v in enumerate(alpha))
        h = 1e-4
        step = np.zeros_like(X)
        step[:, axis] = h
        return (_symbol_deriv_reference(a, lower, beta, X + step, XI)
                - _symbol_deriv_reference(a, lower, beta, X - step, XI)) / (2 * h)
    axis = next(i for i, v in enumerate(beta) if v > 0)
    lower = tuple(v - (1 if i == axis else 0) for i, v in enumerate(beta))
    h = 1e-4 * np.linalg.norm(XI, axis=-1, keepdims=True)
    step = np.zeros_like(XI)
    step[:, axis] = h[:, 0]
    return (_symbol_deriv_reference(a, alpha, lower, X, XI + step)
            - _symbol_deriv_reference(a, alpha, lower, X, XI - step)) / (2 * h[:, 0])


def _orders(n, cap):
    return [(alpha, beta) for alpha in multi_indices(n, cap) for beta in multi_indices(n, cap)
            if sum(alpha) + sum(beta) <= cap]


def _hilbert_beyond_table():
    # the registered closed forms through order 2 only: orders 3 and 4 take
    # central differences on top of them
    full = kernel_by_name("hilbert")
    table = {k: f for k, f in full.derivatives.items() if sum(map(sum, k)) <= 2}
    return Kernel(1, full._eval, table, max_order=4, label="hilbert-partial")


@pytest.mark.parametrize("make", [
    _hilbert_beyond_table,
    lambda: kernel_by_name("riesz-0"),
    lambda: kernel_by_name("riesz-1"),
    lambda: _riesz(2, 3),
    lambda: kernel_by_name("truncated"),
], ids=["hilbert-beyond-table", "riesz-0-n2", "riesz-1-n2", "riesz-2-n3", "truncated"])
def test_kernel_deriv_bitwise_equals_per_class_recursion(make):
    K = make()
    rng = np.random.default_rng(3)
    Y = rng.uniform(-1, 1, (16, K.n))
    X = Y + rng.uniform(0.5, 3.0, (16, 1)) * rng.choice([-1.0, 1.0], (16, K.n))
    for alpha, beta in _orders(K.n, K.max_order):
        got = K.deriv(alpha, beta, X, Y)
        ref = _kernel_deriv_reference(K, alpha, beta, X, Y)
        assert got.tobytes() == ref.tobytes(), (alpha, beta)
    top = (K.max_order + 1,) + (0,) * (K.n - 1)
    with pytest.raises(PreconditionError, match="kernel declares derivatives up to order"):
        K.deriv(top, (0,) * K.n, X, Y)


@pytest.mark.parametrize("symbol", [
    SymbolS11u(2, 2, lambda X, XI: (1.0 + np.sum(X ** 2, axis=-1)) * np.sum(XI ** 2, axis=-1)
               + 1j * np.sin(X[:, 0]) * XI[:, 1], max_order=3, label="x-dependent"),
    SymbolS11u.multiplier_power(2, 3),
], ids=["x-dependent", "x-independent"])
def test_symbol_deriv_bitwise_equals_per_class_recursion(symbol):
    rng = np.random.default_rng(5)
    X = rng.uniform(-2, 2, (12, 2))
    XI = rng.standard_normal((12, 2)) * 4.0
    for alpha, beta in _orders(2, symbol.max_order):
        got = symbol.deriv(alpha, beta, X, XI)
        ref = _symbol_deriv_reference(symbol, alpha, beta, X, XI)
        assert got.tobytes() == ref.tobytes(), (alpha, beta)
    with pytest.raises(PreconditionError, match="order deficit"):
        symbol.deriv((0, 0), (symbol.max_order + 1, 0), X, XI)


# ---------------------------------------------------------------------------
# the batched shell sampler against the per-shell loops it replaced: reports
# must be equal, witnesses and per-decade constants included

def _fit_reference(name, samples):
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


def _czk_check_reference(K, E, F, sigma=0, geometry=SamplingGeometry()):
    n = K.n
    rpE = rounding_profile(E)
    a_max = max(rpE.strict_floor, 0)
    dirs = geometry.dirs(n)
    bases = geometry.bases(n)
    shells = geometry.shells()
    size_samples, xdiff_samples, ydiff_samples, xydiff_samples = [], [], [], []
    alphas = [g for g in multi_indices(n, a_max)]
    for r in shells:
        for y0 in bases:
            Y = np.tile(y0, (len(dirs), 1))
            X = Y + r * dirs
            sep = np.linalg.norm(X - Y, axis=-1)
            for alpha in alphas:
                vals = np.abs(K.deriv(alpha, (0,) * n, X, Y))
                ratio = vals * sep ** (n + sum(alpha))
                i = int(np.argmax(ratio))
                size_samples.append((float(ratio[i]), r, (tuple(X[i]), tuple(Y[i]), alpha)))
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
        "size": _fit_reference("size", size_samples),
        "x_difference": _fit_reference("x_difference", xdiff_samples),
        "y_difference": _fit_reference("y_difference", ydiff_samples),
    }
    if sigma == 1 and F > E > 0:
        fits["mixed_difference"] = _fit_reference("mixed_difference", xydiff_samples)
    return {"kernel": K.label, "E": E, "F": F, "sigma": sigma,
            "conditions": {k: v.to_dict() for k, v in fits.items()},
            "all_stable": all(v.stable for v in fits.values())}


def _intermediate_reference(K, F, geometry=SamplingGeometry()):
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
        out[order] = _fit_reference(f"intermediate-order-{order}", samples).to_dict()
    return {"orders": out,
            "all_stable": all(v["stable"] for v in out.values()),
            "failing_orders": [o for o, v in out.items() if not v["stable"]]}


def _symbol_class_reference(symbol, orders=1, shell_exponents=tuple(range(-6, 7)),
                            x_samples=5, seed=0):
    n = symbol.n
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-2, 2, size=(x_samples, n))
    report = {}
    for alpha in multi_indices(n, orders):
        for beta in multi_indices(n, orders):
            per_shell = {}
            for e in shell_exponents:
                r = 2.0 ** e
                XI = r * SamplingGeometry(seed=seed).dirs(n)
                worst = 0.0
                for x in xs:
                    X = np.tile(x, (len(XI), 1))
                    vals = np.abs(symbol.deriv(alpha, beta, X, XI))
                    scale = r ** (-symbol.u - sum(alpha) + sum(beta))
                    worst = max(worst, float(np.max(vals * scale)))
                per_shell[e] = worst
            vals = [v for v in per_shell.values() if v > 0]
            report[str((alpha, beta))] = {
                "constant": max(per_shell.values()),
                "per_shell": per_shell,
                "blowup": bool(vals and max(vals) > 10 * min(vals)),
            }
    return report


def _farfield_reference(K, atom, alpha, xs, taylor_order=-1, quad_points=96):
    n = atom.cube.n
    xs = np.atleast_2d(xs)
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
            for beta in multi_indices(n, taylor_order):
                coeff = K.deriv(alpha, beta, x[None, :], np.zeros((1, n)))[0]
                fact = 1.0
                for b in beta:
                    fact *= math.factorial(b)
                taylor += coeff / fact * np.prod(Y ** np.array(beta), axis=-1)
            subtracted[i] = np.sum(wts * (kv - taylor) * avals)
        else:
            subtracted[i] = raw[i]
    return raw, subtracted


def _pdo_x_dependent_reference(symbol, f):
    n = f.n
    axes_freq = [2.0 * math.pi * np.fft.fftfreq(N, d=f.h) for N in f.shape]
    fhat = np.fft.fftn(f.values, axes=tuple(range(1, n + 1)))
    XI = tensor_points(axes_freq)
    Xpts = tensor_points([f.axis_points(i) for i in range(n)])
    origin = np.array([f.start[i] * f.h for i in range(n)])
    fhat_flat = fhat.reshape(f.m, -1)
    out = np.zeros((f.m, len(Xpts)), dtype=complex)
    for a in range(0, len(Xpts), 256):
        xc = Xpts[a:a + 256]
        phase = np.exp(1j * ((xc - origin) @ XI.T))
        for i in range(len(xc)):
            avals = symbol(xc[i: i + 1].repeat(len(XI), axis=0), XI)
            out[:, a + i] = (fhat_flat * (avals * phase[i])[None, :]).sum(axis=1) / np.prod(f.shape)
    return out.reshape((f.m,) + f.shape)


def _oscillatory_kernel():
    # |K| bounded but d_y K ~ r^{-3} cos(1/r^2)
    def base(X, Y):
        return np.sin((X[:, 0] - Y[:, 0]) ** -2.0)

    def dy(X, Y):
        t = X[:, 0] - Y[:, 0]
        return 2.0 * t ** -3.0 * np.cos(t ** -2.0)

    return Kernel(1, base, {((0,), (1,)): dy}, max_order=1, label="oscillatory")


_SAMPLED_KERNELS = {
    "hilbert": lambda: kernel_by_name("hilbert"),
    "riesz-0": lambda: kernel_by_name("riesz-0"),
    "riesz-1": lambda: kernel_by_name("riesz-1"),
    "riesz-2-n3": lambda: _riesz(2, 3),
    "truncated": lambda: kernel_by_name("truncated"),
    "oscillatory": _oscillatory_kernel,
}


@st.composite
def _geometries(draw):
    exponent = st.one_of(st.integers(-8, 8), st.floats(-6.0, 6.0))
    return SamplingGeometry(
        shell_exponents=tuple(draw(st.lists(exponent, min_size=1, max_size=5))),
        directions=draw(st.integers(2, 9)),
        offset_fracs=tuple(draw(st.lists(st.floats(0.01, 0.3), min_size=1, max_size=3))),
        base_points=tuple(tuple(p) for p in draw(st.lists(
            st.lists(st.floats(-2.0, 2.0), max_size=4), min_size=1, max_size=3))),
        seed=draw(st.integers(0, 3)))


@st.composite
def _condition_cases(draw):
    """(E, F, sigma): void, ordinary, or mixed (sigma = 1, F > E > 0)."""
    kind = draw(st.sampled_from(["void", "ordinary", "mixed"]))
    whole = st.sampled_from([1.0, 2.0])
    if kind == "void":
        return draw(st.floats(-1.0, 0.0)), draw(st.floats(-1.0, 0.0)), draw(st.sampled_from((0, 1)))
    if kind == "ordinary":
        return (draw(st.one_of(whole, st.floats(0.05, 2.4))),
                draw(st.one_of(whole, st.floats(-1.0, 2.4))), 0)
    E = draw(st.one_of(st.just(1.0), st.floats(0.05, 1.6)))
    return E, E + draw(st.one_of(st.just(1.0), st.floats(0.05, 0.9))), 1


def _outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except PreconditionError as exc:
        return "refused", str(exc)


@pytest.mark.parametrize("name", sorted(_SAMPLED_KERNELS))
@given(geometry=_geometries(), case=_condition_cases())
@settings(max_examples=25, deadline=None)
def test_batched_kernel_checks_equal_per_shell_references(name, geometry, case):
    K = _SAMPLED_KERNELS[name]()
    E, F, sigma = case
    got = _outcome(czk_check, K, E, F, sigma, geometry)
    ref = _outcome(_czk_check_reference, K, E, F, sigma, geometry)
    assert got == ref
    got = _outcome(intermediate_derivative_check, K, F, geometry)
    ref = _outcome(_intermediate_reference, K, F, geometry)
    assert got == ref


_SYMBOLS = {
    "homogeneous": lambda: SymbolS11u.multiplier_power(1, 1),
    "japanese-bracket": lambda: SymbolS11u(1, 1, lambda X, XI: np.sqrt(1 + XI[:, 0] ** 2),
                                           x_independent=True),
    "x-dependent-2d": lambda: SymbolS11u(
        2, 2, lambda X, XI: (1.0 + np.sum(X ** 2, axis=-1)) * np.sum(XI ** 2, axis=-1)
        + 1j * np.sin(X[:, 0]) * XI[:, 1], max_order=3),
}


@pytest.mark.parametrize("name", sorted(_SYMBOLS))
@given(shells=st.lists(st.integers(-7, 7), min_size=1, max_size=6),
       x_samples=st.integers(1, 4), seed=st.integers(0, 5), orders=st.sampled_from((0, 1)))
@settings(max_examples=15, deadline=None)
def test_batched_symbol_check_equals_per_shell_reference(name, shells, x_samples, seed, orders):
    symbol = _SYMBOLS[name]()
    kwargs = dict(orders=orders, shell_exponents=tuple(shells), x_samples=x_samples, seed=seed)
    assert symbol_class_check(symbol, **kwargs) == _symbol_class_reference(symbol, **kwargs)


def test_batched_farfield_matches_references():
    K = kernel_by_name("hilbert")
    atom = make_atom(DyadicCube(1, 0, (0,)), r=1.5, L=1.0, N=2.0)
    xs = np.concatenate([np.geomspace(6.0, 6000.0, 28), -np.geomspace(7.0, 900.0, 9)])[:, None]
    for taylor_order in (-1, 0, 2):
        rep = apply_to_atom_farfield(K, atom, (1,), xs, taylor_order=taylor_order)
        raw, sub = _farfield_reference(K, atom, (1,), xs, taylor_order=taylor_order)
        for got, ref in ((rep["raw"], raw), (rep["taylor_subtracted"], sub)):
            assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12


def test_blocked_pdo_matches_per_point_reference():
    f = _band_limited_sample(g=6)
    symbol = SymbolS11u(1, 1, lambda X, XI: (1.0 + 0.5 * np.cos(X[:, 0])) * np.abs(XI[:, 0])
                        + 1j * X[:, 0] * XI[:, 0], label="x-dependent")
    got = apply_pdo(symbol, f).values
    ref = _pdo_x_dependent_reference(symbol, f)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))



def _farfield_rule_reference(lo, hi, quad_points):
    """The far-field's own tensor Gauss-Legendre nodes and weights on [lo, hi]."""
    n = len(lo)
    nodes_1d, w_1d = np.polynomial.legendre.leggauss(quad_points)
    Y = tensor_points([0.5 * (hi[i] - lo[i]) * nodes_1d + 0.5 * (hi[i] + lo[i])
                       for i in range(n)])
    wts = np.prod(tensor_points([0.5 * (hi[i] - lo[i]) * w_1d for i in range(n)]), axis=-1)
    return Y, wts


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("quad_points", [1, 2, 7, 24, 96])
def test_one_gauss_panel_bitwise_equals_farfield_rule(n, quad_points):
    c = np.array([0.3, -1.7][:n])
    for radius, side in ((0.75, 0.5), (1.5, 2.0), (3.0, 0.125)):
        lo, hi = c - radius * side, c + radius * side
        got = gauss_panels(lo, hi, 1, np.polynomial.legendre.leggauss(quad_points))
        ref = _farfield_rule_reference(lo, hi, quad_points)
        for g, r in zip(got, ref):
            assert g.tobytes() == r.tobytes()


def _dirs_reference(geometry, n):
    """The directions ``SamplingGeometry.dirs`` drew with its own sampler."""
    if n == 1:
        return np.array([[1.0], [-1.0]])
    rng = np.random.default_rng(geometry.seed)
    d = rng.standard_normal((geometry.directions, n))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("geometry", [SamplingGeometry(), SamplingGeometry(directions=5, seed=9)])
def test_geometry_dirs_bitwise_equal_own_sampler(n, geometry):
    assert geometry.dirs(n).tobytes() == _dirs_reference(geometry, n).tobytes()


# ---------------------------------------------------------------------------
# refusals, the two-sided tail, and a regrowth guard on kernel evaluations

def _sqrt_kernel():
    # NaN for x < y: the kernel is undefined on half of every shell
    def base(X, Y):
        with np.errstate(invalid="ignore"):
            return np.sqrt(X[:, 0] - Y[:, 0]) ** -3

    return Kernel(1, base, max_order=2, label="sqrt")


def test_non_finite_kernel_samples_are_refused():
    K = _sqrt_kernel()
    with pytest.raises(PreconditionError,
                       match=r"size condition: non-finite .* X=\[-0.0078125\], Y=\[0.0\]"):
        czk_check(K, 1.5, 0.5, geometry=GEOM)
    with pytest.raises(PreconditionError, match="intermediate-order-0 condition: non-finite"):
        intermediate_derivative_check(K, 0.5, geometry=GEOM)


@pytest.mark.parametrize("geometry", [
    SamplingGeometry(shell_exponents=()), SamplingGeometry(base_points=()),
    SamplingGeometry(directions=0)], ids=["no-shells", "no-base-points", "no-directions"])
def test_empty_sampling_geometry_is_refused(geometry):
    # an empty geometry has no samples to fit: refused, not reported as void
    with pytest.raises(PreconditionError, match="sampling geometry needs"):
        czk_check(kernel_by_name("riesz-0"), 1.5, 0.5, geometry=geometry)
    with pytest.raises(PreconditionError, match="sampling geometry needs"):
        intermediate_derivative_check(kernel_by_name("riesz-0"), 0.5, geometry=geometry)


def test_czkcheck_exits_2_on_a_non_finite_kernel(tmp_path, capsys):
    from dyadica.cli import main
    with mock.patch.dict(czo_module._KERNELS, {"sqrt-test": _sqrt_kernel}):
        code = main(["czkcheck", "--kernel", "sqrt-test", "--E", "1.5", "--F", "0.5",
                     "--out", str(tmp_path / "czk.json")])
    assert code == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "czk.json").exists()


def test_non_finite_symbol_samples_are_refused():
    def root(X, XI):
        with np.errstate(invalid="ignore"):
            return np.sqrt(XI[:, 0])

    symbol = SymbolS11u(1, 0, root, x_independent=True)
    with pytest.raises(PreconditionError, match=r"symbol class \(0,\)\|\(0,\): non-finite .*xi="):
        symbol_class_check(symbol, orders=0)


def _count_kernel_derivs(monkeypatch):
    calls = []
    original = Kernel.deriv

    def counted(self, *args):
        calls.append(1)
        return original(self, *args)

    monkeypatch.setattr(Kernel, "deriv", counted)
    return calls


def test_kernel_check_deriv_calls_do_not_grow_with_the_geometry(monkeypatch, tmp_path):
    # the czkcheck call of the benchmark's adprobe_checks workload
    from dyadica.cli import main
    calls = _count_kernel_derivs(monkeypatch)
    assert main(["czkcheck", "--kernel", "hilbert", "--E", "1.5", "--F", "0.5",
                 "--intermediate", "--out", str(tmp_path / "czk.json")]) == 0
    assert 0 < len(calls) <= 7
    default = len(calls)
    g = SamplingGeometry()
    doubled = SamplingGeometry(
        shell_exponents=tuple(range(-14, 16)), directions=2 * g.directions,
        offset_fracs=g.offset_fracs + tuple(f / 8 for f in g.offset_fracs))
    calls.clear()
    K = kernel_by_name("hilbert")
    czk_check(K, 1.5, 0.5, geometry=doubled)
    intermediate_derivative_check(K, 0.5, geometry=doubled)
    assert len(calls) == default
