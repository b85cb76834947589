import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyadica import trace, weights
from dyadica.cli import main
from dyadica.dyadic import CubeArrays, DyadicCube, LatticeWindow, parse_cube
from dyadica.errors import PreconditionError, SingularWeightError
from dyadica.params import BESOV, SpaceParams
from dyadica.seq import CoeffField, seq_norm_weighted
from dyadica.weights import (
    MatrixWeight,
    QuadratureSpec,
    ReducingFamily,
    WeightTable,
    ap_characteristic,
    ap_dimension_estimate,
    john_direction_report,
    reducing_operator,
)


def test_constant_weight_and_power():
    W = MatrixWeight.constant([[4.0, 0.0], [0.0, 9.0]], n=1)
    x = np.array([[0.3], [0.7]])
    half = W.power(x, 0.5)
    assert np.allclose(half, [[[2, 0], [0, 3]]] * 2)
    inv = W.power(x, -1.0)
    assert np.allclose(inv, [[[0.25, 0], [0, 1 / 9]]] * 2)


def test_power_singular_raises():
    W = MatrixWeight.constant([[0.0]], n=1)
    with pytest.raises(SingularWeightError):
        W.power(np.array([[0.5]]), -0.5)


def test_grid_weight_lookup():
    vals = np.zeros((4, 1, 1))
    vals[:, 0, 0] = [1.0, 2.0, 3.0, 4.0]
    W = MatrixWeight.grid((0,), (1,), level=2, values=vals)
    out = W(np.array([[0.1], [0.3], [0.6], [0.9]]))
    assert np.allclose(out[:, 0, 0], [1, 2, 3, 4])


def test_grid_weight_keeps_real_values_real():
    W = MatrixWeight.grid((0,), (1,), level=1, values=np.ones((2, 1, 1), dtype=int))
    assert W(np.array([[0.2]])).dtype == np.float64
    Wc = MatrixWeight.grid((0,), (1,), level=1, values=np.ones((2, 1, 1)) + 0j)
    assert Wc(np.array([[0.2]])).dtype == np.complex128


def test_constant_weight_keeps_real_values_real():
    W = MatrixWeight.constant(np.eye(2, dtype=int), 1)
    assert W(np.array([[0.2]])).dtype == np.float64
    assert W(np.array([[0.2]]))[0].tolist() == [[1.0, 0.0], [0.0, 1.0]]
    Wc = MatrixWeight.constant([[2, 1j], [-1j, 2]], 1)
    assert Wc(np.array([[0.2]])).dtype == np.complex128


@pytest.mark.parametrize("x", [5.0, -0.1, 1.0])
def test_grid_weight_refuses_point_outside_box(x):
    # the box is half-open: its upper edge lies outside as well
    vals = np.arange(1.0, 5.0).reshape(4, 1, 1)
    W = MatrixWeight.grid((0,), (1,), level=2, values=vals)
    with pytest.raises(PreconditionError, match=rf"point \[{x}\] lies outside"):
        W(np.array([[0.5], [x]]))


def test_grid_weight_refuses_corners_of_different_lengths():
    with pytest.raises(PreconditionError, match=r"corners \(0, 0\) and \(1,\) differ in length"):
        MatrixWeight.grid((0, 0), (1,), level=1, values=np.ones((2, 1, 1)))


@pytest.mark.parametrize("lo, hi, level", [((0.5,), (1,), 1), ((0,), (1.5,), 1),
                                           ((0,), (1,), 1.5), ((True,), (1,), 1)])
def test_grid_weight_refuses_corners_that_are_not_whole(lo, hi, level):
    # int() would take the box [0, 1) without notice
    with pytest.raises(PreconditionError, match="grid weight corners and level must be whole"):
        MatrixWeight.grid(lo, hi, level=level, values=np.ones((2, 1, 1)))
    # whole floats and numpy integers are whole numbers
    W = MatrixWeight.grid(np.array([0]), (1.0,), level=np.int64(1),
                          values=np.arange(2.0).reshape(2, 1, 1))
    assert W(np.array([[0.25], [0.75]])).ravel().tolist() == [0.0, 1.0]
    with pytest.raises(PreconditionError, match="outside the grid weight's box"):
        W(np.array([[1.0]]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_weight_refuses_points_of_another_dimension(n):
    W = MatrixWeight.diag_power([1.0], [0.5], n=2)
    x = np.full((3, n), 0.5)
    if n == 2:
        assert W(x).shape == (3, 1, 1)
        return
    with pytest.raises(PreconditionError,
                       match=rf"defined on R\^2, but it is evaluated at points of R\^{n}"):
        W(x)


def test_weight_from_json_form():
    W = MatrixWeight.diag_power([1.0, 2.0], [0.5, 0.0], n=2, floor=0.01)
    W2 = MatrixWeight.from_dict({"kind": "diag-power", "m": 2, "n": 2, "a": [1.0, 2.0],
                                 "alpha": [0.5, 0.0], "floor": 0.01})
    x = np.array([[0.3, 0.4], [1.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(W(x), W2(x))


_UNIT_CUBE = DyadicCube(1, 0, (0,))
_UNIT_WINDOW = LatticeWindow(1, 0, 1, (0,), (1,))
# orders outside (0, inf), NaN included
_BAD_ORDERS = (0.0, -1.0, math.inf, math.nan)


@pytest.mark.parametrize("call, error, message", [
    (lambda: QuadratureSpec(0, 1), PreconditionError, "invalid quadrature spec"),
    (lambda: QuadratureSpec(2, -1), PreconditionError, "invalid quadrature spec"),
    (lambda: QuadratureSpec.parse("4"), PreconditionError, "bad quadrature spec '4'"),
    (lambda: QuadratureSpec.parse("4:x"), PreconditionError, "bad quadrature spec '4:x'"),
    (lambda: MatrixWeight.diag_power([1.0, 2.0], [0.5], n=1), PreconditionError,
     "coefficient and exponent lists differ in length"),
    (lambda: MatrixWeight.grid([0], [1], 1, np.ones((3, 1, 1))), PreconditionError,
     r"grid values shape \(3,\) != cells \[2\]"),
    # a level -1 cell is 2 wide: it does not tile [0, 3)
    (lambda: MatrixWeight.grid([0], [3], -1, np.ones((1, 1, 1))), PreconditionError,
     r"grid weight level -1 does not tile the box \(0,\)\.\.\(3,\)"),
    (lambda: MatrixWeight.from_dict({"kind": "grid", "n": 1, "lo": [0], "hi": [1], "level": 0}),
     PreconditionError, "grid weight needs values_file"),
    (lambda: MatrixWeight.from_dict({"kind": "power", "n": 1}), PreconditionError,
     "unknown weight kind 'power'"),
    *((lambda p=p: ap_characteristic(MatrixWeight.identity(1, 1), p, _UNIT_WINDOW),
       PreconditionError, rf"p must lie in \(0, inf\), got {p}") for p in _BAD_ORDERS),
    *((lambda p=p: reducing_operator(MatrixWeight.identity(2, 1), p, _UNIT_CUBE),
       PreconditionError, rf"p must lie in \(0, inf\), got {p}") for p in _BAD_ORDERS),
    *((lambda p=p: ReducingFamily.build(MatrixWeight.identity(2, 1), p, _UNIT_WINDOW),
       PreconditionError, rf"p must lie in \(0, inf\), got {p}") for p in _BAD_ORDERS),
    *((lambda p=p: ap_dimension_estimate(MatrixWeight.identity(1, 1), p, _UNIT_WINDOW),
       PreconditionError, rf"p must lie in \(0, inf\), got {p}") for p in _BAD_ORDERS),
    # at p = 2 the operator is the square root of the average, singular here
    (lambda: reducing_operator(MatrixWeight.constant(np.diag([1.0, 0.0]), 1), 2.0, _UNIT_CUBE,
                               QuadratureSpec(2, 0)),
     SingularWeightError, "average weight not positive definite"),
    (lambda: ReducingFamily.build(MatrixWeight.constant(np.zeros((2, 2)), 1), 3.0, _UNIT_WINDOW,
                                  QuadratureSpec(2, 0)),
     SingularWeightError, "weight average vanishes in some direction"),
], ids=["quad-points", "quad-depth", "parse-one-field", "parse-not-a-number", "diag-power-lengths",
        "grid-cells", "grid-level-untiled", "grid-without-values", "unknown-kind",
        *(f"{call}-p-{p}" for call in ("characteristic", "reducing-operator", "reducing-family",
                                         "dimension-estimate") for p in _BAD_ORDERS),
        "singular-average-p2",
        "vanishing-average-fit"])
def test_weight_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()


# ---------------------------------------------------------------------------
# characteristic

def test_ap_characteristic_identity():
    W = MatrixWeight.identity(2, 1)
    win = LatticeWindow(1, 0, 2, (0,), (2,))
    for p in (0.5, 1.0, 2.0, 3.0):
        assert ap_characteristic(W, p, win) == pytest.approx(1.0, abs=1e-12)


def _scalar_a2_oracle(alpha, j_max, quad_cells=4096):
    """Brute-force sup over dyadic cubes in (0,1] of avg(w) * avg(1/w), w=|x|^alpha."""
    best = 0.0
    for j in range(0, j_max + 1):
        for k in range(2 ** j):
            lo, hi = k * 2.0 ** -j, (k + 1) * 2.0 ** -j
            xs = lo + (hi - lo) * (np.arange(quad_cells) + 0.5) / quad_cells
            w = np.abs(xs) ** alpha
            best = max(best, float(np.mean(w) * np.mean(1 / w)))
    return best


def test_ap_characteristic_scalar_power_weight_stable():
    # |x|^{1/2} is an order-2 weight: estimate stabilizes under refinement
    W = MatrixWeight.diag_power([1.0], [0.5], n=1)
    quad = QuadratureSpec(8, 3)
    est_shallow = ap_characteristic(W, 2.0, LatticeWindow(1, 0, 4, (0,), (1,)), quad)
    est_deep = ap_characteristic(W, 2.0, LatticeWindow(1, 0, 7, (0,), (1,)), quad)
    oracle = _scalar_a2_oracle(0.5, 7)
    assert est_deep >= est_shallow - 1e-12  # monotone under refinement
    assert est_deep == pytest.approx(oracle, rel=0.05)
    assert est_deep < 3.0


def test_ap_characteristic_scalar_cube_power_grows():
    # |x|^3 is not an order-2 weight: estimate grows without bound as the
    # quadrature resolves the singularity at the origin
    W = MatrixWeight.diag_power([1.0], [3.0], n=1)
    win = LatticeWindow(1, 0, 2, (0,), (1,))
    vals = [ap_characteristic(W, 2.0, win, QuadratureSpec(8, depth))
            for depth in (2, 5, 8)]
    assert vals[1] > 10 * vals[0]
    assert vals[2] > 10 * vals[1]


def test_ap_characteristic_scale_invariant():
    W = MatrixWeight.diag_power([1.0, 2.0], [0.25, 0.0], n=1)
    Wc = MatrixWeight.diag_power([5.0, 10.0], [0.25, 0.0], n=1)
    win = LatticeWindow(1, 0, 3, (0,), (1,))
    quad = QuadratureSpec(4, 2)
    for p in (0.7, 2.0):
        a = ap_characteristic(W, p, win, quad)
        b = ap_characteristic(Wc, p, win, quad)
        assert a == pytest.approx(b, rel=1e-10)


# ---------------------------------------------------------------------------
# reducing operators

def test_reducing_identity():
    W = MatrixWeight.identity(3, 1)
    q = DyadicCube(1, 1, (0,))
    for p in (0.5, 1.0, 2.0, 3.5):
        A = reducing_operator(W, p, q, QuadratureSpec(4, 1))
        # order 2 is exact; the ellipsoid fit carries the iteration tolerance
        tol = 1e-12 if p == 2.0 else 1e-6
        assert np.allclose(A, np.eye(3), atol=tol)


def test_reducing_scalar_closed_form():
    # w(x) = x^{1/2} on [0,1), p = 1: A = integral = 2/3
    W = MatrixWeight.diag_power([1.0], [0.5], n=1)
    q = DyadicCube(1, 0, (0,))
    A = reducing_operator(W, 1.0, q, QuadratureSpec(4, 16))
    assert abs(A[0, 0] - 2.0 / 3.0) < 1e-9


def test_reducing_p2_diagonal():
    # p=2, W = diag(1, w2): A = diag(1, sqrt(avg w2)); avg of x^2 over [0,1) = 1/3
    W = MatrixWeight.diag_power([1.0, 1.0], [0.0, 2.0], n=1)
    q = DyadicCube(1, 0, (0,))
    A = reducing_operator(W, 2.0, q, QuadratureSpec(4, 14))
    assert abs(A[0, 0] - 1.0) < 1e-9
    assert abs(A[1, 1] - math.sqrt(1.0 / 3.0)) < 1e-7
    assert abs(A[0, 1]) < 1e-12


def test_reducing_p2_exactness_piecewise_constant():
    # quadrature-exact for a piecewise-constant weight: direction ratios == 1
    rng = np.random.default_rng(7)
    vals = np.zeros((4, 2, 2))
    for i in range(4):
        B = rng.standard_normal((2, 2))
        vals[i] = B @ B.T + 0.5 * np.eye(2)
    W = MatrixWeight.grid((0,), (1,), level=2, values=vals)
    q = DyadicCube(1, 0, (0,))
    A = reducing_operator(W, 2.0, q, QuadratureSpec(4, 3))
    nodes, _ = QuadratureSpec(4, 3).nodes(q.lower, q.upper)
    roots = W.power(nodes, 0.5).real
    dirs = rng.standard_normal((200, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    lhs = np.linalg.norm(dirs @ A.T, axis=1)
    rhs = np.sqrt(np.mean(np.linalg.norm(
        np.einsum("nab,db->nda", roots, dirs), axis=-1) ** 2, axis=0))
    ratios = lhs / rhs
    assert np.max(np.abs(ratios - 1)) < 1e-6


def test_john_fit_spread_within_factor():
    rng = np.random.default_rng(11)
    q = DyadicCube(1, 0, (0,))
    for trial in range(5):
        B = rng.standard_normal((2, 2))
        M0 = B @ B.T + 0.3 * np.eye(2)
        B1 = rng.standard_normal((2, 2))
        M1 = B1 @ B1.T + 0.3 * np.eye(2)

        def f(x, M0=M0, M1=M1):
            x = np.atleast_2d(x)
            t = x[:, 0][:, None, None]
            return M0 * (1 - t) + M1 * t

        W = MatrixWeight(2, 1, f)
        for p in (1.0, 3.0):
            rep = john_direction_report(W, p, q, QuadratureSpec(4, 2), rng=rng)
            assert rep["spread"] <= rep["john_factor"] + 1e-6
            # fresh directions can bulge marginally past the sampled hull
            assert rep["ratio_max"] <= 1.0 + 1e-4


def test_reducing_family_of_identity_weight():
    W = MatrixWeight.identity(2, 1)
    win = LatticeWindow(1, 0, 2, (0,), (2,))
    fam = ReducingFamily.build(W, 2.0, win, QuadratureSpec(2, 0))
    for q in win.all_cubes():
        np.testing.assert_allclose(fam[q], np.eye(2), rtol=0, atol=1e-12)
    with pytest.raises(PreconditionError):
        fam[DyadicCube(1, 5, (0,))]


# ---------------------------------------------------------------------------
# dimension estimate

def test_dimension_identity_weight():
    W = MatrixWeight.identity(2, 1)
    win = LatticeWindow(1, 0, 5, (0,), (2,))
    d, rep = ap_dimension_estimate(W, 2.0, win, QuadratureSpec(2, 0))
    assert abs(d) < 1e-9
    assert rep["n_base_cubes"] >= 1


def test_dimension_scale_invariant():
    Wa = MatrixWeight.diag_power([1.0], [0.5], n=1, floor=2.0 ** -6)
    Wb = MatrixWeight.diag_power([7.0], [0.5], n=1, floor=2.0 ** -6)
    win = LatticeWindow(1, 0, 6, (0,), (2,))
    quad = QuadratureSpec(4, 1)
    da, _ = ap_dimension_estimate(Wa, 2.0, win, quad, max_base_cubes=16)
    db, _ = ap_dimension_estimate(Wb, 2.0, win, quad, max_base_cubes=16)
    assert da == pytest.approx(db, abs=1e-9)


def test_dimension_matches_bruteforce_oracle():
    # oracle: recompute the defining averages directly for the same cubes
    W = MatrixWeight.diag_power([1.0], [0.5], n=1, floor=2.0 ** -6)
    win = LatticeWindow(1, 0, 6, (0,), (2,))
    quad = QuadratureSpec(4, 1)
    d_est, rep = ap_dimension_estimate(W, 2.0, win, quad, max_base_cubes=8)

    def brute(cube_str):
        from dyadica.dyadic import parse_cube
        q = parse_cube(cube_str)
        c = np.array(q.center)
        imax = next(r["doublings"] for r in rep["per_cube"] if r["cube"] == cube_str)
        xs, _ = quad.nodes(q.lower, q.upper)
        vals = []
        for i in range(imax + 1):
            half = 0.5 * q.side * 2 ** i
            ys, _ = quad.nodes(c - half, c + half)
            wx = W(xs)[:, 0, 0].real
            wy = W(ys)[:, 0, 0].real
            # p = 2: mean_x mean_y w(x)/w(y)
            vals.append(float(np.mean(wx) * np.mean(1 / wy)))
        return np.polyfit(np.arange(imax + 1), np.log2(vals), 1)[0]

    slopes = {r["cube"]: r["slope"] for r in rep["per_cube"]}
    best_oracle = max(brute(c) for c in slopes)
    assert d_est == pytest.approx(best_oracle, abs=0.05)


def test_dimension_requires_depth():
    W = MatrixWeight.identity(1, 1)
    win = LatticeWindow(1, 0, 1, (0,), (1,))
    with pytest.raises(PreconditionError):
        ap_dimension_estimate(W, 2.0, win)


# ---------------------------------------------------------------------------
# batched kernels against the slow paths they replaced: the per-pair SVD of
# the defining average and the per-cube ellipsoid fit

def _pair_norms_reference(A, B):
    prod = np.einsum("xab,ybc->xyac", A, B)
    return np.linalg.norm(prod, ord=2, axis=(-2, -1))


def _pair_norms_batched_reference(A, B):
    """The pair norms from one batched product B_y^* (A_x^* A_x) B_y per pair:
    closed form for m = 2, ``eigvalsh`` above."""
    AhA = np.swapaxes(A.conj(), -1, -2) @ A
    Bh = np.ascontiguousarray(np.swapaxes(B.conj(), -1, -2))
    gram = Bh[..., None, :, :, :] @ (AhA[..., :, None, :, :] @ B[..., None, :, :, :])
    if A.shape[-1] == 2:
        a, d = gram[..., 0, 0].real, gram[..., 1, 1].real
        top = 0.5 * (a + d) + np.hypot(0.5 * (a - d), np.abs(gram[..., 0, 1]))
    else:
        top = np.linalg.eigvalsh(gram)[..., -1]
    return np.sqrt(np.maximum(top, 0.0))


@given(m=st.sampled_from((2, 3, 4)), complex_values=st.booleans(), sets=st.integers(1, 3),
       nx=st.integers(1, 12), ny=st.integers(1, 12), seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_pair_norms_match_batched_products(m, complex_values, sets, nx, ny, seed):
    rng = np.random.default_rng(seed)
    A, B = (rng.standard_normal((sets, k, m, m)) for k in (nx, ny))
    if complex_values:
        A = A + 1j * rng.standard_normal(A.shape)
        B = B + 1j * rng.standard_normal(B.shape)
    got = weights._pair_norms(A, B)
    assert got.shape == (sets, nx, ny) and got.dtype == np.float64
    np.testing.assert_allclose(got, _pair_norms_batched_reference(A, B), rtol=1e-12, atol=0)
    np.testing.assert_allclose(weights._pair_norms(A[0], B[0]), got[0], rtol=1e-12, atol=0)


# spectra of 3 x 3 Gram matrices B_y^* A_x^* A_x B_y where the closed form
# loses digits or divides by zero, and whether each matrix takes the eigvalsh
# fallback (True), none does (False) or either may (None): a top gap of 1e-3
# gives 1 + r near 7e-6, one of 1e-2 near 7e-4 > CUBIC_GAP
DEGENERATE_SPECTRA = {
    "repeated": ((1.0, 1.0, 0.3), True),
    **{f"gap {gap:g}": ((1.0, 1.0 + gap, 0.3), True) for gap in (1e-12, 1e-9, 1e-6, 1e-3)},
    "gap 0.01": ((1.0, 1.01, 0.3), False),
    "scalar": ((4.0, 4.0, 4.0), None),
    "rank-deficient": ((1.0, 1.0, 1e-14), True),
}


@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize("case", DEGENERATE_SPECTRA)
def test_pair_norms_3x3_closed_form_on_degenerate_spectra(case, complex_values, monkeypatch):
    spectrum, falls_back = DEGENERATE_SPECTRA[case]
    rng = np.random.default_rng(11)

    def unitaries(k):
        Z = rng.standard_normal((k, 3, 3))
        if complex_values:
            Z = Z + 1j * rng.standard_normal(Z.shape)
        return np.linalg.qr(Z)[0]

    # A_x = diag(sqrt(spectrum)) U_x and B_y = V_y: each Gram matrix is
    # V_y^* U_x^* diag(spectrum) U_x V_y
    A = np.sqrt(spectrum)[:, None] * unitaries(8)
    B = unitaries(9)
    fallback = []
    lapack = weights._top_eigenvalue

    def counted(lower, m):
        fallback.append(len(lower))
        return lapack(lower, m)

    monkeypatch.setattr(weights, "_top_eigenvalue", counted)
    got = weights._pair_norms(A, B)
    np.testing.assert_allclose(got, _pair_norms_batched_reference(A, B), rtol=1e-12, atol=0)
    if falls_back is not None:
        assert sum(fallback) == (8 * 9 if falls_back else 0)


def test_pair_norms_3x3_multiple_of_identity_is_exact(monkeypatch):
    monkeypatch.setattr(weights, "_top_eigenvalue", None)   # p = 0 needs no fallback
    got = weights._pair_norms(2.0 * np.eye(3)[None], 3.0 * np.eye(3)[None])
    assert got.tolist() == [[6.0]]


def _defining_average_reference(W, p, x_nodes, y_nodes):
    A = W.power(x_nodes, 1.0 / p)
    B = W.power(y_nodes, -1.0 / p)
    norms = _pair_norms_reference(A, B)
    if p <= 1:
        return float(np.max(np.mean(norms ** p, axis=0)))
    pprime = p / (p - 1)
    inner = np.mean(norms ** pprime, axis=1) ** (p / pprime)
    return float(np.mean(inner))


def _mvee_reference(P, tol=1e-7, mult_iter=200, fw_iter=300):
    """The capped two-phase fit of one point set (multiplicative, then
    Frank-Wolfe updates): a feasible ellipsoid short of the optimum."""
    N, d = P.shape
    u = np.full(N, 1.0 / N)

    def kappas(u):
        V = P.T @ (P * u[:, None])
        Vinv = np.linalg.inv(V)
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
    kappa_max = float(np.max(np.einsum("nd,de,ne->n", P, Vinv, P)))
    return Vinv / kappa_max


def _mvee_centered_reference(pts, tol=weights.MVEE_TOL):
    """The interior-point fit on per-set point arrays (C, N, d): the same
    iterates as ``weights._mvee_centered``, with every product over the points
    a batched product per set, and every set riding along, frozen, until the
    slowest one ends.  Returns M (C, d, d) and the steps (C,)."""
    P = np.asarray(pts, dtype=float)
    Pt = np.ascontiguousarray(np.swapaxes(P, -1, -2))
    C, N, d = P.shape

    def mv(A, x):
        return (A @ x[..., None])[..., 0]

    def kappas(P, Pt, u):
        Vinv = np.linalg.inv((Pt * u[:, None, :]) @ P)
        return Vinv, ((P @ Vinv) * P) @ np.ones(P.shape[-1])

    L = np.linalg.cholesky(Pt @ P / N)
    Xt = np.linalg.solve(L, Pt)
    X = np.ascontiguousarray(np.swapaxes(Xt, -1, -2))
    B = weights._sym_basis(d)
    Bt = np.ascontiguousarray(B.T)

    def coords(Y):
        return mv(B, Y.reshape(C, d * d))

    def matrix(v):
        return mv(Bt, v).reshape(C, d, d)

    A = (X[..., :, None] * X[..., None, :]).reshape(C, N, d * d) @ Bt
    At = np.ascontiguousarray(np.swapaxes(A, -1, -2))
    m = coords(np.eye(d) / (2.0 * np.max(np.sum(X * X, axis=2), axis=1))[:, None, None])
    lam = np.full((C, N), d / N)
    s = 1.0 - mv(A, m)
    steps = np.zeros(C, dtype=int)
    for step in range(weights.MVEE_STEPS + 1):
        u = lam / np.sum(lam, axis=1, keepdims=True)
        done = np.max(kappas(X, Xt, u)[1], axis=1) <= d * (1.0 + tol)
        if done.all() or step == weights.MVEE_STEPS:
            break
        steps += ~done
        w, Q = np.linalg.eigh(matrix(m))
        Minv = (Q / w[:, None, :]) @ np.swapaxes(Q, -1, -2)
        r_d = mv(At, lam) - coords(Minv)
        mu = np.sum(lam * s, axis=1) / N
        if step == 0:
            mu0, r0 = mu, np.linalg.norm(r_d, axis=1)
        kron = (Minv[:, :, None, :, None] * Minv[:, None, :, None, :]).reshape(C, d * d, d * d)
        K = B @ kron @ Bt + (At * (lam / s)[:, None, :]) @ A
        isqrt = 1.0 / np.sqrt(w)

        def direction(r_c):
            dm = np.linalg.solve(K, (mv(At, r_c / s) - r_d)[..., None])[..., 0]
            ds = -mv(A, dm)
            dlam = -(r_c + lam * ds) / s
            dM = np.swapaxes(Q, -1, -2) @ matrix(dm) @ Q
            low = np.linalg.eigvalsh(dM * isqrt[:, :, None] * isqrt[:, None, :])[:, 0]
            reach = np.max(np.concatenate([-ds / s, -dlam / lam, -2.0 * low[:, None]], axis=1),
                           axis=1)
            return dm, ds, dlam, np.maximum(reach, 0.0)

        _, ds, dlam, reach = direction(lam * s)
        a = 1.0 / np.maximum(reach, 1.0)[:, None]
        mu_aff = np.sum((lam + a * dlam) * (s + a * ds), axis=1) / N
        sigma = np.where(done, 0.0, (mu_aff / mu) ** 3)
        target = np.maximum(sigma * mu, mu0 * np.linalg.norm(r_d, axis=1) / r0)
        dm, ds, dlam, reach = direction(lam * s + dlam * ds - target[:, None])
        a = np.where(done, 0.0, 0.99 / np.maximum(reach, 0.99))[:, None]
        m += a * dm
        s += a * ds
        lam += a * dlam
    Vinv, kappa = kappas(P, Pt, u)
    return Vinv / np.max(kappa, axis=1)[:, None, None], steps


def _reference_directions(m, directions=None, rng=None):
    """The fit's unit directions: 256 or more angles on a half circle for
    m = 2, else ``directions`` (default 32 m^2) Gaussian draws from ``rng``."""
    ndir = directions or max(32 * m * m, 64)
    if m == 2:
        ang = np.linspace(0.0, np.pi, max(ndir, 256), endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    dirs = (rng or np.random.default_rng(0)).standard_normal((ndir, m))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def _reducing_operator_reference(W, p, cube, quad, directions=None, rng=None):
    """Per-cube operator; returns (A, None) when it is exact, else (A, (the
    fitted points, the capped fit's M))."""
    nodes, _ = quad.nodes(cube.lower, cube.upper)
    if W.m == 1:
        w = W(nodes)[:, 0, 0].real
        return np.array([[float(np.mean(w)) ** (1.0 / p)]]), None
    if p == 2:
        vals, vecs = np.linalg.eigh(np.mean(W(nodes), axis=0))
        return (vecs * np.sqrt(vals)) @ vecs.conj().T, None
    dirs = _reference_directions(W.m, directions, rng)
    w_root = W.power(nodes, 1.0 / p).real
    img = np.einsum("nab,db->nda", w_root, dirs)
    rho = (np.mean(np.linalg.norm(img, axis=-1) ** p, axis=0)) ** (1.0 / p)
    P = dirs / rho[:, None]
    M = _mvee_reference(P)
    vals, vecs = np.linalg.eigh(M)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T, (P, M)


def _assert_fit_optimal(M, P, M_ref, gap=None):
    """The ellipsoid {z: z^T M z <= 1} holds every point with one on its
    boundary, its certificate meets the tolerance, and its volume is at
    most the capped oracle's, up to the tolerance."""
    d = P.shape[-1]
    assert np.max(np.einsum("ni,ij,nj->n", P, M, P)) == pytest.approx(1.0, abs=1e-12)
    if gap is not None:
        assert 1.0 <= gap <= 1.0 + weights.MVEE_TOL
    assert np.linalg.slogdet(M)[1] >= np.linalg.slogdet(M_ref)[1] - d * weights.MVEE_TOL


def _smooth_weight(m, n, complex_values, seed, floor=0.2):
    """Positive-definite M(x) M(x)^* + floor I with M smooth in x."""
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal((3, m, m))
    if complex_values:
        coef = coef + 1j * rng.standard_normal((3, m, m))

    def f(x):
        x = np.atleast_2d(x)
        s = np.sin(np.pi * x[:, 0])[:, None, None]
        c = np.cos(2.0 * x[:, -1])[:, None, None]
        M = coef[0] + s * coef[1] + c * coef[2]
        return M @ np.swapaxes(M.conj(), -1, -2) + floor * np.eye(m)

    return MatrixWeight(m, n, f)


ORACLE_P = st.sampled_from((0.8, 1.5, 3.0))
# one pair per block, a ragged split, and the default cap
ORACLE_BLOCK = st.sampled_from((1, 7, weights.PAIR_BLOCK))


@given(m=st.sampled_from((1, 2, 3)), complex_values=st.booleans(), p=ORACLE_P,
       nx=st.integers(1, 24), ny=st.integers(1, 40), block=ORACLE_BLOCK,
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_defining_average_matches_svd_oracle(m, complex_values, p, nx, ny, block, seed):
    W = _smooth_weight(m, 1, complex_values, seed)
    rng = np.random.default_rng(seed + 1)
    x_nodes = rng.uniform(0.0, 1.0, (nx, 1))
    y_nodes = rng.uniform(-1.0, 2.0, (ny, 1))
    with mock.patch.object(weights, "PAIR_BLOCK", block):
        got = weights._defining_averages(WeightTable(W), p, x_nodes[None], y_nodes[None])[0]
    assert got == pytest.approx(_defining_average_reference(W, p, x_nodes, y_nodes),
                                rel=1e-12)


def _oracle_weight(kind, m, n, complex_values, seed, hi=1):
    """The smooth weight, or a positive-definite weight constant on the
    level-1 cells of [0, hi)^n: a quadrature finer than the cells repeats
    its values."""
    if kind == "smooth":
        return _smooth_weight(m, n, complex_values, seed)
    rng = np.random.default_rng(seed)
    cells = (2 * hi,) * n
    M = rng.standard_normal(cells + (m, m))
    if complex_values:
        M = M + 1j * rng.standard_normal(cells + (m, m))
    return MatrixWeight.grid((0,) * n, (hi,) * n, 1,
                             M @ np.swapaxes(M.conj(), -1, -2) + 0.2 * np.eye(m))


def _ap_characteristic_reference(W, p, window, quad):
    """The per-cube characteristic: one defining average per window cube,
    each from the per-pair SVD."""
    best = 0.0
    for q in window.all_cubes():
        nodes, _ = quad.nodes(q.lower, q.upper)
        best = max(best, _defining_average_reference(W, p, nodes, nodes))
    return best


def _ap_dimension_estimate_reference(W, p, window, quad, min_doublings=4, max_base_cubes=64):
    """The per-cube doubling fit: a Python loop over cubes and doublings,
    one per-pair SVD defining average per (base cube, doubling)."""
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
        raise PreconditionError(f"window too shallow: no cube admits {min_doublings} doublings")
    if len(candidates) > max_base_cubes:
        candidates = candidates[::len(candidates) // max_base_cubes + 1]
    per_cube = []
    for q, imax in candidates:
        c = np.array(q.center)
        base_nodes, _ = quad.nodes(q.lower, q.upper)
        vals = []
        for i in range(imax + 1):
            half = 0.5 * q.side * (1 << i)
            y_nodes, _ = quad.nodes(c - half, c + half)
            vals.append(_defining_average_reference(W, p, base_nodes, y_nodes))
        ii = np.arange(imax + 1, dtype=float)
        logs = np.log2(np.maximum(vals, 1e-300))
        slope, intercept = np.polyfit(ii, logs, 1)
        resid = float(np.sqrt(np.mean((logs - (slope * ii + intercept)) ** 2)))
        per_cube.append({"cube": str(q), "slope": float(slope), "residual": resid,
                         "doublings": imax})
    return max(e["slope"] for e in per_cube), {"per_cube": per_cube,
                                               "n_base_cubes": len(candidates)}


@given(kind=st.sampled_from(("smooth", "grid")), m=st.sampled_from((1, 2, 3)),
       complex_values=st.booleans(), p=ORACLE_P, n=st.sampled_from((1, 2)),
       block=ORACLE_BLOCK, seed=st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_characteristic_matches_svd_oracle(kind, m, complex_values, p, n, block, seed):
    # a grid weight under a finer quadrature: 4^n nodes, 2^n distinct values
    # on the level-0 cube
    W = _oracle_weight(kind, m, n, complex_values, seed)
    win = LatticeWindow(n, 0, 1, (0,) * n, (1,) * n)
    quad = QuadratureSpec(2, 1 if n == 1 or kind == "grid" else 0)
    with mock.patch.object(weights, "PAIR_BLOCK", block):
        got = ap_characteristic(W, p, win, quad)
    assert got == pytest.approx(_ap_characteristic_reference(W, p, win, quad), rel=1e-12)


@given(kind=st.sampled_from(("smooth", "grid")), m=st.sampled_from((1, 2, 3)),
       complex_values=st.booleans(), p=ORACLE_P, block=ORACLE_BLOCK,
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_dimension_slopes_match_svd_oracle(kind, m, complex_values, p, block, seed):
    # base and doubled node sets see different numbers of distinct values
    W = _oracle_weight(kind, m, 1, complex_values, seed, hi=2)
    win = LatticeWindow(1, 0, 5, (0,), (2,))
    quad = QuadratureSpec(2, 0)
    with mock.patch.object(weights, "PAIR_BLOCK", block):
        d_est, rep = ap_dimension_estimate(W, p, win, quad, max_base_cubes=4)
    d_ref, ref = _ap_dimension_estimate_reference(W, p, win, quad, max_base_cubes=4)
    assert rep["n_base_cubes"] == ref["n_base_cubes"]
    assert len(rep["per_cube"]) == len(ref["per_cube"])
    for entry, want in zip(rep["per_cube"], ref["per_cube"]):
        assert (entry["cube"], entry["doublings"]) == (want["cube"], want["doublings"])
        assert entry["slope"] == pytest.approx(want["slope"], rel=1e-12, abs=1e-12)
        assert entry["residual"] == pytest.approx(want["residual"], rel=1e-9, abs=1e-12)
    assert d_est == pytest.approx(d_ref, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("window, min_doublings, max_base_cubes", [
    (LatticeWindow(1, 0, 6, (0,), (3,)), 4, 64),
    (LatticeWindow(1, -1, 4, (-2,), (6,)), 2, 5),
    (LatticeWindow(2, 0, 3, (0, 0), (2, 3)), 2, 64),
])
def test_dimension_candidates_match_per_cube_loop(window, min_doublings, max_base_cubes):
    # candidates, their doubling counts and the stride over them
    W = MatrixWeight.identity(1, window.n)
    quad = QuadratureSpec(1, 0)
    _, rep = ap_dimension_estimate(W, 2.0, window, quad, min_doublings, max_base_cubes)
    _, ref = _ap_dimension_estimate_reference(W, 2.0, window, quad, min_doublings,
                                              max_base_cubes)
    assert [(e["cube"], e["doublings"]) for e in rep["per_cube"]] == \
        [(e["cube"], e["doublings"]) for e in ref["per_cube"]]
    assert rep["n_base_cubes"] == ref["n_base_cubes"]


def _refusal(fn, *args):
    with pytest.raises((SingularWeightError, PreconditionError)) as info:
        fn(*args)
    return type(info.value), str(info.value), getattr(info.value, "node", None)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("p", [0.8, 3.0])
def test_batched_refusals_name_the_per_cube_node(m, p):
    # singular cells inside the grid box; a window reaching past a regular
    # weight's box.  (With both in one window, the box refusal now comes
    # first: the weight is evaluated on a whole batch before it is factored.)
    vals = np.broadcast_to(np.eye(m), (16, m, m)).copy()
    regular = MatrixWeight.grid((0,), (4,), 2, vals)
    vals[[9, 10, 13]] = 0.0
    singular = MatrixWeight.grid((0,), (4,), 2, vals)
    quad = QuadratureSpec(2, 1)
    cases = [(ap_characteristic, singular, LatticeWindow(1, 0, 2, (0,), (4,))),
             (ap_characteristic, regular, LatticeWindow(1, 0, 1, (0,), (5,))),
             (ap_dimension_estimate, singular, LatticeWindow(1, 0, 5, (0,), (4,))),
             (ap_dimension_estimate, regular, LatticeWindow(1, 0, 5, (0,), (8,)))]
    refs = {ap_characteristic: _ap_characteristic_reference,
            ap_dimension_estimate: _ap_dimension_estimate_reference}
    for fn, W, win in cases:
        got = _refusal(fn, W, p, win, quad)
        want = _refusal(refs[fn], W, p, win, quad)
        assert got[:2] == want[:2]
        assert np.array_equal(got[2], want[2])
    # the level-0 cube [2, 3) holds the first singular nodes, 2.375 and 2.625
    assert _refusal(*cases[0][:2], p, cases[0][2], quad)[1] == "weight is singular at [2.375]"
    assert "point [4.125] lies outside" in _refusal(*cases[1][:2], p, cases[1][2], quad)[1]


@pytest.mark.parametrize("W, node", [
    (MatrixWeight.constant([[-1.0]], 1), 0.25),
    (MatrixWeight.grid((0,), (1,), 1, np.array([[[1.0]], [[-1.0]]])), 0.75),
])
def test_negative_scalar_weight_names_its_first_node(W, node):
    with pytest.raises(SingularWeightError, match=rf"negative eigenvalue at \[{node}\]") as info:
        reducing_operator(W, 2.0, DyadicCube(1, 0, (0,)), QuadratureSpec(2, 0))
    assert info.value.node.tolist() == [node]


def _assert_operator_close(A, A_ref):
    assert np.max(np.abs(A - A_ref)) <= 1e-10 * np.max(np.abs(A_ref))


@given(m=st.sampled_from((1, 2, 3)), complex_values=st.booleans(),
       p=st.sampled_from((0.8, 1.5, 2.0, 3.0)), n=st.sampled_from((1, 2)),
       block=ORACLE_BLOCK, seed=st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
# an ill-conditioned fit (cube 2:0, condition number 3e3) whose operator missed
# the fitted ellipsoid by 8.5e-12 while the fit was square-rooted unsymmetrized
@example(m=3, complex_values=False, p=0.8, n=1, block=1, seed=326)
# an ill-conditioned fit (cube 2:2) whose square root's rounding put the
# farthest point 2.7e-12 outside the operator's ellipsoid
@example(m=2, complex_values=False, p=0.8, n=1, block=1, seed=37)
def test_reducing_family_matches_per_cube_oracle(m, complex_values, p, n, block, seed):
    # the ellipsoid fit takes real weights only
    complex_values = complex_values and (m == 1 or p == 2.0)
    W = _smooth_weight(m, n, complex_values, seed)
    win = LatticeWindow(n, 0, 2 if n == 1 else 1, (0,) * n, (1,) * n)
    quad = QuadratureSpec(2, 1 if n == 1 else 0)
    with mock.patch.object(weights, "PAIR_BLOCK", block):
        fam = ReducingFamily.build(W, p, win, quad)
    fits = 0
    for i, q in enumerate(win.all_cubes()):
        A_ref, fit = _reducing_operator_reference(W, p, q, quad)
        if fit is None:
            _assert_operator_close(fam[q], A_ref)
        else:
            # the capped oracle stops short of the optimum: compare optimality
            _assert_fit_optimal(fam[q] @ fam[q], *fit, fam.fit_gap[i])
            assert 0 < fam.fit_iterations[i] <= weights.MVEE_STEPS
            fits += 1
    report = fam.fit_report()
    assert report["fits"] == fits
    if fits:
        assert report["capped"] == 0
        assert report["gap_max"] == np.max(fam.fit_gap)
        assert report["iterations_max"] == np.max(fam.fit_iterations)
    else:
        assert report == {"fits": 0, "capped": 0, "iterations_max": 0, "gap_max": None}


@given(m=st.sampled_from((2, 3)), p=st.sampled_from((0.8, 1.5, 3.0)),
       directions=st.sampled_from((None, 40)), seed=st.integers(0, 2 ** 16))
@settings(max_examples=15, deadline=None)
def test_reducing_operator_is_one_cube_batch(m, p, directions, seed):
    W = _smooth_weight(m, 1, False, seed)
    q = DyadicCube(1, 1, (1,))
    quad = QuadratureSpec(3, 1)
    dirs = _reference_directions(m, directions, np.random.default_rng(seed))
    with mock.patch.object(weights, "_fit_directions", lambda m: dirs):
        A = reducing_operator(W, p, q, quad)
    _, fit = _reducing_operator_reference(W, p, q, quad, directions, np.random.default_rng(seed))
    _assert_fit_optimal(A @ A, *fit)


@given(m=st.sampled_from((2, 3)), p=st.sampled_from((0.8, 1.5, 3.0)),
       floor=st.sampled_from((0.2, 1e-6)), seed=st.integers(0, 2 ** 16))
@settings(max_examples=30, deadline=None)
def test_ellipsoid_fit_is_optimal(m, p, floor, seed):
    # near-singular weights (floor 1e-6) stretch the sampled ball by ~1e3
    W = _smooth_weight(m, 1, False, seed, floor)
    quad = QuadratureSpec(2, 1)
    fits = [_reducing_operator_reference(W, p, q, quad)[1]
            for q in LatticeWindow(1, 0, 1, (0,), (1,)).all_cubes()]
    P = np.stack([pts for pts, _ in fits])
    # the fit reads the directions every set shares and each set's radii
    dirs = _reference_directions(m)
    rho = 1.0 / np.linalg.norm(P, axis=-1)
    M, lam, steps, gap = weights._mvee_centered(dirs, rho)
    # the same iterates as the per-set products, up to rounding
    M_old, steps_old = _mvee_centered_reference(P)
    assert np.array_equal(steps, steps_old)
    tol = weights.MVEE_TOL
    for c, (pts, M_ref) in enumerate(fits):
        assert np.max(np.abs(M[c] - M_old[c])) <= 1e-7 * np.max(np.abs(M_old[c]))
        _assert_fit_optimal(M[c], pts, M_ref, gap[c])
        assert 0 < steps[c] <= weights.MVEE_STEPS
        # KKT: M^{-1} = sum lam_i p_i p_i^T, lam >= 0, complementary slackness
        Minv = np.linalg.inv(M[c])
        assert np.all(lam[c] >= 0)
        assert np.max(np.abs(np.einsum("n,ni,nj->ij", lam[c], pts, pts) - Minv)) <= \
            1e-9 * np.max(np.abs(Minv))
        slack = 1.0 - np.einsum("ni,ij,nj->n", pts, M[c], pts)
        assert np.sum(lam[c] * slack) <= m * tol
    # a set leaves the batch when it is done: with the sphere, which takes
    # fewer steps, every set of the batch is the same set fitted alone
    batch = np.concatenate([np.ones((1, len(dirs))), rho])
    M, _, steps, _ = weights._mvee_centered(dirs, batch)
    assert len(set(steps.tolist())) > 1
    for c in range(len(batch)):
        alone = weights._mvee_centered(dirs, batch[c:c + 1])
        assert np.max(np.abs(alone[0][0] - M[c])) <= 1e-12 * np.max(np.abs(M[c]))
        assert alone[2][0] == steps[c]


def test_fit_refuses_degenerate_direction_set():
    # two directions cannot span R^3: refused before the solve, naming the cube
    W = _smooth_weight(3, 1, False, 3)
    with mock.patch.object(weights, "_fit_directions", lambda m: _reference_directions(m, 2)), \
            pytest.raises(SingularWeightError,
                          match=r"degenerate direction set in ellipsoid fit on cube 1:1"):
        reducing_operator(W, 3.0, DyadicCube(1, 1, (1,)), QuadratureSpec(2, 1))
    # three directions span it: the fit passes through all three points
    with mock.patch.object(weights, "_fit_directions", lambda m: _reference_directions(m, 3)):
        A = reducing_operator(W, 3.0, DyadicCube(1, 1, (1,)), QuadratureSpec(2, 1))
    assert np.all(np.linalg.eigvalsh(A) > 0)


def _direction_averages_reference(W, p, nodes, dirs):
    """The per-node direction averages: W^{1/p} at every quadrature node."""
    C, N, n = nodes.shape
    root = W.power(nodes.reshape(-1, n), 1.0 / p).reshape(C, N, W.m, W.m)
    return np.mean(np.linalg.norm(root @ dirs.T, axis=-2) ** p, axis=1)


@given(kind=st.sampled_from(("smooth", "grid")), m=st.sampled_from((1, 2, 3)),
       complex_values=st.booleans(), p=ORACLE_P, n=st.sampled_from((1, 2)),
       block=ORACLE_BLOCK, seed=st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_direction_averages_match_per_node_oracle(kind, m, complex_values, p, n, block, seed):
    W = _oracle_weight(kind, m, n, complex_values, seed)
    cubes = CubeArrays.of_window(LatticeWindow(n, 0, 1, (0,) * n, (1,) * n))
    nodes = weights._cube_nodes(QuadratureSpec(2, 1), cubes)
    dirs = np.random.default_rng(seed).standard_normal((9, m))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    with mock.patch.object(weights, "PAIR_BLOCK", block), \
            mock.patch("numpy.linalg.eigh", wraps=np.linalg.eigh) as eigh:
        got = weights._direction_averages(WeightTable(W), p, nodes, dirs)
    # m = 1 is the closed form: no eigendecomposition
    assert (eigh.call_count == 0) == (m == 1)
    ref = _direction_averages_reference(W, p, nodes, dirs)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_complex_weight_direction_certificate_uses_complex_norms():
    # p = 2: A = (mean W)^{1/2} gives |A z|^2 = mean z* W z = mean |W^{1/2} z|^2,
    # so every direction ratio is 1 (with real parts of W^{1/2} the spread is 1.011)
    vals = np.array([[[2, 1j], [-1j, 2]], [[3, 1 + 1j], [1 - 1j, 2]],
                     [[1, -0.5j], [0.5j, 1]], [[4, 2], [2, 3]]])
    W = MatrixWeight.grid((0,), (1,), 2, vals)
    rep = john_direction_report(W, 2.0, DyadicCube(1, 0, (0,)), QuadratureSpec(4, 2))
    assert rep["ratio_min"] == pytest.approx(1.0, abs=1e-12)
    assert rep["ratio_max"] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the pre-table path: every consumer evaluated, deduplicated and factored the
# weight values of its own node sets in blocks of about PAIR_BLOCK nodes


class _Distinct:
    """The distinct matrices of K equally long sets: ``values`` (G, m, m) in
    set order; ``pad`` (K, U) indexes each set's values, the rows past its own
    repeating its first; ``counts`` (K, U) are their multiplicities, 0 in the
    padding; ``inverse`` (K, L) is the distinct value of every entry."""

    def __init__(self, values, pad, counts, inverse):
        self.values, self.pad, self.counts, self.inverse = values, pad, counts, inverse

    @classmethod
    def of(cls, values):
        """One lexsort of every set (K, L, m, m) by its entries."""
        K, L, m, _ = values.shape
        flat = np.ascontiguousarray(values).reshape(K * L, m * m)
        keys = flat.view(flat.real.dtype) if np.iscomplexobj(flat) else flat
        by_entry = np.moveaxis(keys.reshape(K, L, -1)[..., ::-1], -1, 0)
        order = (np.lexsort(by_entry, axis=-1) + L * np.arange(K)[:, None]).ravel()
        srt = keys[order]
        new = np.ones(K * L, dtype=bool)
        new[1:] = np.any(srt[1:] != srt[:-1], axis=1)
        new[::L] = True
        group = np.cumsum(new) - 1
        first = np.flatnonzero(new)
        owner = first // L
        rank = group[first] - group[::L][owner]
        pad = np.repeat(group[::L], int(np.max(rank)) + 1).reshape(K, -1)
        pad[owner, rank] = np.arange(len(first))
        counts = np.zeros(pad.shape)
        counts[owner, rank] = np.diff(first, append=K * L)
        inverse = np.empty(K * L, dtype=np.int64)
        inverse[order] = group
        return cls(flat[order[first]].reshape(-1, m, m), pad, counts, inverse.reshape(K, L))

    @classmethod
    def each(cls, values):
        """Every matrix of the sets (K, L, m, m) taken as its own value."""
        K, L, m, _ = values.shape
        index = np.arange(K * L).reshape(K, L)
        return cls(values.reshape(-1, m, m), index, np.ones((K, L)), index)


class _Factored:
    """The distinct values of the parts of one block, factored by one eigh."""

    def __init__(self, parts):
        self.parts = parts
        self.values = np.concatenate([d.values for d in parts])
        self.first = np.cumsum([0] + [len(d.values) for d in parts])
        self.floor = weights.EIG_CLAMP_REL * np.maximum(
            np.trace(self.values, axis1=1, axis2=2).real, 0.0)
        self.eigh = np.linalg.eigh(self.values) if self.values.shape[1] > 1 else None

    def power(self, i, a):
        g = slice(self.first[i], self.first[i + 1])
        v = self.values[g]
        if v.shape[1] == 1:
            return np.maximum(v.real, self.floor[g, None, None]) ** a
        vals, vecs = self.eigh
        vals = np.maximum(vals[g], self.floor[g, None])
        return np.einsum("nij,nj,nkj->nik", vecs[g], vals ** a, vecs[g].conj())


def _weight_blocks(W, parts, inverted=False, real=False, counts=False):
    """Blocks of the node sets ``parts`` (K, L_i, n): each evaluates W at its
    nodes, reduces and factors every part, and refuses at its first faulty node."""
    bounds = np.cumsum([0] + [part.shape[1] for part in parts])
    step = max(1, weights.PAIR_BLOCK // int(bounds[-1]))
    for s in range(0, len(parts[0]), step):
        blk = slice(s, s + step)
        pts = np.concatenate([part[blk] for part in parts], axis=1)
        k, L, n = pts.shape
        vals = W(pts.reshape(-1, n)).reshape(k, L, W.m, W.m)
        reduce = _Distinct.of if counts or W.m > 1 else _Distinct.each
        fac = _Factored([reduce(vals[:, a:b]) for a, b in zip(bounds, bounds[1:])])
        v = fac.values
        G = len(v)
        eig = v[:, 0].real if W.m == 1 else fac.eigh[0]
        top = np.max(np.abs(eig), axis=1)
        residual = np.max(np.abs(v - np.swapaxes(v, 1, 2).conj()).reshape(G, -1), axis=1)
        faults = [residual > 1e-12 * top, eig[:, 0] < -1e-12 * top,
                  inverted and (np.maximum(eig[:, 0], fac.floor) <= 0)
                  & (np.arange(G) >= fac.first[-2]),
                  real and np.max(np.abs(v.imag).reshape(G, -1), axis=1) > 1e-12]
        if np.any(faults[0] | faults[1] | faults[2] | faults[3]):
            code = np.select(faults, [1, 2, 3, 4])
            at = np.concatenate([code[f + d.inverse] for f, d in zip(fac.first, fac.parts)],
                                axis=1)
            i = int(np.argmax(at.ravel() > 0))
            node = pts.reshape(-1, n)[i]
            raise SingularWeightError(f"{weights._REFUSED[at.flat[i] - 1]} at {node}", node=node)
        yield blk, vals, fac


def _count_groups(parts, size):
    """Groups of the sets of a block with equal distinct counts."""
    own = np.stack([np.count_nonzero(d.counts, axis=1) for d in parts], axis=1)
    keys, inverse = np.unique(own, axis=0, return_inverse=True)
    for key, row in enumerate(keys.tolist()):
        sets = np.flatnonzero(inverse.ravel() == key)
        step = max(1, weights.PAIR_BLOCK // size(*row))
        for s in range(0, len(sets), step):
            yield sets[s:s + step], row


def _defining_averages_blocks(W, p, x_nodes, y_nodes):
    """The defining averages, one _weight_blocks pass of their own."""
    K, N, _ = x_nodes.shape
    M = y_nodes.shape[1]
    parts = (x_nodes,) if y_nodes is x_nodes else (x_nodes, y_nodes)
    last = len(parts) - 1
    pprime = p / (p - 1) if p > 1 else None
    out = np.empty(K)
    for blk, _, fac in _weight_blocks(W, parts, inverted=True, counts=True):
        dx, dy = fac.parts[0], fac.parts[last]
        Pa, Pb = fac.power(0, 1.0 / p), fac.power(last, -1.0 / p)
        for sets, (Ux, Uy) in _count_groups((dx, dy), lambda ux, uy: ux * uy):
            A, B = Pa[dx.pad[sets, :Ux]], Pb[dy.pad[sets, :Uy]]
            cx, cy = dx.counts[sets, :Ux], dy.counts[sets, :Uy]
            rows = Ux if Ux * Uy <= weights.PAIR_BLOCK else max(1, weights.PAIR_BLOCK // Uy)
            acc = np.zeros((len(sets), Uy) if p <= 1 else len(sets))
            for r in range(0, Ux, rows):
                R = slice(r, r + rows)
                norms = weights._pair_norms(A[:, R], B)
                if p <= 1:
                    acc += np.einsum("kx,kxy->ky", cx[:, R], norms ** p)
                else:
                    inner = np.einsum("kxy,ky->kx", norms ** pprime, cy) / M
                    acc += np.einsum("kx,kx->k", cx[:, R], inner ** (p / pprime))
            out[blk][sets] = (np.max(acc, axis=1) if p <= 1 else acc) / N
    return out


def _direction_averages_blocks(W, p, nodes, dirs, real=False):
    """The direction averages, one _weight_blocks pass of their own."""
    N, D = nodes.shape[1], len(dirs)
    avg = np.empty((len(nodes), D))
    for blk, vals, fac in _weight_blocks(W, (nodes,), real=real):
        if W.m == 1:
            avg[blk] = np.mean(vals[..., 0, 0].real, axis=1)[:, None] * np.abs(dirs[:, 0]) ** p
            continue
        d, P = fac.parts[0], fac.power(0, 1.0 / p)
        for sets, (U,) in _count_groups((d,), lambda u: u * D):
            norms = np.linalg.norm(P[d.pad[sets, :U]] @ dirs.T, axis=-2) ** p
            avg[blk][sets] = (d.counts[sets, None, :U] @ norms)[:, 0] / N
    return avg


def _weight_means_blocks(W, nodes):
    """The cube means of the weight, one _weight_blocks pass of their own."""
    return np.concatenate([np.mean(vals, axis=1) for _, vals, _ in _weight_blocks(W, (nodes,))])


def _power_blocks(W, x, a):
    """MatrixWeight.power through one _weight_blocks pass."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    _, _, fac = next(_weight_blocks(W, (x[None],), inverted=a < 0))
    powers = fac.power(0, a)
    return powers if W.m == 1 else powers[fac.parts[0].inverse[0]]


def _pre_table():
    """Patches that route every table consumer through its own pre-table pass."""
    return (mock.patch.object(weights, "_defining_averages",
                              lambda t, p, x, y: _defining_averages_blocks(t.W, p, x, y)),
            mock.patch.object(weights, "_direction_averages",
                              lambda t, p, nodes, dirs, real=False:
                              _direction_averages_blocks(t.W, p, nodes, dirs, real)),
            mock.patch.object(weights, "_weight_means",
                              lambda t, nodes: _weight_means_blocks(t.W, nodes)))


def _weights_report(argv, tmp_path, name):
    assert main(argv + ["--out", str(tmp_path / name)]) == 0
    return (tmp_path / name).read_bytes()


def _grid_file(tmp_path, m, n, level, seed):
    M = np.random.default_rng(seed).standard_normal((1 << level,) * n + (m, m))
    np.save(tmp_path / f"g{m}{n}.npy", M @ np.swapaxes(M, -1, -2) + 0.2 * np.eye(m))
    path = tmp_path / f"g{m}{n}.json"
    path.write_text(json.dumps({"m": m, "n": n, "kind": "grid", "lo": [0] * n, "hi": [1] * n,
                                "level": level, "values_file": f"g{m}{n}.npy"}))
    return str(path)


def _diag_file(tmp_path, a, alpha, n):
    path = tmp_path / f"d{len(a)}{n}.json"
    path.write_text(json.dumps({"m": len(a), "n": n, "kind": "diag-power", "a": a,
                                "alpha": alpha, "floor": 0.0}))
    return str(path)


# (weight file, p, window, quad, --dimension): the benchmark's m = 3 grid weight
# on its two windows, the CI's m = 2 diag-power weight, an m = 1 weight, and a
# diag-power weight on R^2 whose cubes of one level differ in distinct counts
TABLE_RUNS = {
    "grid-m3-p1.5": (lambda d: _grid_file(d, 3, 2, 3, 5), 1.5, "0:1:0..1,0..1", "3:2", False),
    "grid-m3-p3": (lambda d: _grid_file(d, 3, 2, 3, 5), 3.0, "0:2:0..1,0..1", "3:1", False),
    "diag-m2-p2": (lambda d: _diag_file(d, [1.3, 0.7], [0.3, -0.2], 1), 2.0, "0:5:0..1", "4:2",
                   True),
    "diag-m2-p3": (lambda d: _diag_file(d, [1.3, 0.7], [0.3, -0.2], 1), 3.0, "0:5:0..1", "4:2",
                   True),
    "grid-m1-p1.5": (lambda d: _grid_file(d, 1, 1, 3, 7), 1.5, "0:5:0..1", "2:1", True),
    "diag-m1-p0.8": (lambda d: _diag_file(d, [1.5], [0.4], 1), 0.8, "0:5:0..1", "4:2", True),
    "uneven-m3-p1.5": (lambda d: _diag_file(d, [1.0, 2.0, 0.5], [0.3, -0.2, 0.1], 2), 1.5,
                       "0:5:0..1,0..1", "2:1", True),
    "uneven-m2-p3": (lambda d: _diag_file(d, [1.3, 0.7], [0.3, -0.2], 2), 3.0,
                     "0:5:0..1,0..1", "2:1", True),
}


def _first_appearance_ids(known, rows):
    """Ids of rows among known ones, new rows numbered in first-appearance order."""
    seen = {tuple(r): i for i, r in enumerate(known.tolist())}
    ids = []
    for r in rows.tolist():
        ids.append(seen.setdefault(tuple(r), len(seen)))
    return np.array(ids)


@given(n=st.integers(1, 4), known=st.integers(0, 6), count=st.integers(1, 40),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_match_numbers_rows_by_first_appearance(n, known, count, seed):
    # a few base rows, repeated, and copies that differ from them in the last bit
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((5, n))
    base = np.concatenate([base, np.nextafter(base, np.inf)])
    pool = np.unique(base[rng.integers(0, len(base), known)], axis=0)
    rows = base[rng.integers(0, len(base), count)]
    ids, fresh = weights._match(pool, rows)
    want = _first_appearance_ids(pool, rows)
    assert np.array_equal(ids, want)
    # the first appearance of every new row, in order
    new_ids = range(len(pool), ids.max(initial=-1) + 1)
    assert fresh.tolist() == [int(np.argmax(ids == k)) for k in new_ids]


@pytest.mark.parametrize("run", TABLE_RUNS)
def test_weights_command_is_the_pre_table_path_bitwise(run, tmp_path):
    # the characteristic, the dimension report and the operators of one
    # table per command against one pass over the weight per consumer
    make, p, window, quad, dimension = TABLE_RUNS[run]
    argv = ["weights", "--weight", make(tmp_path), "--p", str(p), "--window", window,
            "--quad", quad, "--reducing", "--max-ops", "1000"] + ["--dimension"] * dimension
    got = _weights_report(argv, tmp_path, "table.json")
    patches = _pre_table()
    with patches[0], patches[1], patches[2]:
        want = _weights_report(argv, tmp_path, "blocks.json")
    assert got == want


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("a", [0.5, -1.5])
def test_power_is_the_pre_table_path_bitwise(m, a):
    # repeated grid values, and a smooth weight distinct at every point
    x = np.random.default_rng(m).uniform(0.0, 1.0, (300, 1))
    for W in (_oracle_weight("grid", m, 1, False, m), _smooth_weight(m, 1, True, m)):
        got, want = W.power(x, a), _power_blocks(W, x, a)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _table_power(W, x, a):
    """MatrixWeight.power through a WeightTable of x, as for m > 1."""
    table = WeightTable(W)
    (ids,) = table.sets(np.atleast_2d(np.asarray(x, dtype=float))[None], inverted=a < 0)
    return table.power(a)[ids[0]]


# 1 x 1 weights: a power of |x| with a floor, a constant, values on grid cells
# (repeated by the points) and complex grid values within the Hermitian bound
_SCALAR_WEIGHTS = {
    "diag-power": MatrixWeight.diag_power([2.0], [-0.7], 1, floor=0.05),
    "constant": MatrixWeight.constant([[3.0]], 1),
    "grid": MatrixWeight.grid((0,), (1,), 2, np.array([1.0, 2.5, 1e-3, 7.0])[:, None, None]),
    "complex": MatrixWeight.grid((0,), (1,), 2,
                                 np.array([1.0, 2.5 + 1e-13j, 0.3 - 1e-14j, 7.0])[:, None, None]),
}


@pytest.mark.parametrize("kind", list(_SCALAR_WEIGHTS))
@pytest.mark.parametrize("a", [1 / 1.5, -1 / 1.5, 1.0])
def test_scalar_power_is_the_table_path_bitwise(kind, a):
    # its refusals are those of the table, node for node:
    # test_scalar_power_is_elementwise_and_refuses_like_the_distinct_path
    W = _SCALAR_WEIGHTS[kind]
    x = np.random.default_rng(3).uniform(0.0, 1.0, (500, 1))
    x[:2] = [[0.0], [0.25]]     # the floor of |x|, a cell edge
    got, want = W.power(x, a), _table_power(W, x, a)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the work sized by distinct counts against the blocking it replaced: the
# characteristic as one defining-average batch per window level, each block of
# sets padded to its largest distinct counts, and the direction averages in
# blocks of about PAIR_BLOCK node-direction pairs


def _defining_averages_padded(W, p, x_nodes, y_nodes):
    """The defining averages with the sets of each block padded to the
    block's largest distinct counts, in groups of about PAIR_BLOCK padded pairs."""
    K, N, _ = x_nodes.shape
    M = y_nodes.shape[1]
    parts = (x_nodes,) if y_nodes is x_nodes else (x_nodes, y_nodes)
    last = len(parts) - 1
    pprime = p / (p - 1) if p > 1 else None
    out = np.empty(K)
    for blk, _, fac in _weight_blocks(W, parts, inverted=True, counts=True):
        dx, dy = fac.parts[0], fac.parts[last]
        A = fac.power(0, 1.0 / p)[dx.pad]
        B = fac.power(last, -1.0 / p)[dy.pad]
        k, Ux = dx.pad.shape
        Uy = dy.pad.shape[1]
        sets = max(1, weights.PAIR_BLOCK // (Ux * Uy))
        rows = Ux if Ux * Uy <= weights.PAIR_BLOCK else max(1, weights.PAIR_BLOCK // Uy)
        acc = np.zeros((k, Uy) if p <= 1 else k)
        for s in range(0, k, sets):
            S = slice(s, s + sets)
            for r in range(0, Ux, rows):
                R = slice(r, r + rows)
                norms = weights._pair_norms(A[S, R], B[S])
                if p <= 1:
                    acc[S] += np.einsum("kx,kxy->ky", dx.counts[S, R], norms ** p)
                else:
                    inner = np.einsum("kxy,ky->kx", norms ** pprime, dy.counts[S]) / M
                    acc[S] += np.einsum("kx,kx->k", dx.counts[S, R], inner ** (p / pprime))
        out[blk] = (np.max(acc, axis=1) if p <= 1 else acc) / N
    return out


def _defining_averages_per_level(W, p, window, quad):
    """Every window cube's defining average, one padded batch per window level
    (``window.all_cubes()`` runs level by level)."""
    cubes = CubeArrays.of_window(window)
    levels = []
    for j in range(window.j_min, window.j_max + 1):
        nodes = weights._cube_nodes(quad, cubes.take(cubes.levels == j))
        levels.append(_defining_averages_padded(W, p, nodes, nodes))
    return np.concatenate(levels)


def _direction_averages_node_blocks(W, p, nodes, dirs):
    """The direction averages of m > 1 in blocks of about PAIR_BLOCK
    node-direction pairs, each block's sets padded to its largest distinct count."""
    C, N, _ = nodes.shape
    step = max(1, weights.PAIR_BLOCK // (N * len(dirs)))
    avg = np.empty((C, len(dirs)))
    for s in range(0, C, step):
        _, _, fac = next(_weight_blocks(W, (nodes[s:s + step],)))
        d = fac.parts[0]
        norms = np.linalg.norm(fac.power(0, 1.0 / p) @ dirs.T, axis=-2) ** p
        avg[s:s + step] = (d.counts[:, None, :] @ norms[d.pad])[:, 0] / N
    return avg


def _level_weight(kind, m, n):
    """A grid weight on the level-3 cells of [0, 1)^n, whose window cubes see
    4^n, ..., 1 distinct values from level 0 to 3 under an 8-point rule; a
    diag-power weight, distinct at every node; a complex constant weight."""
    rng = np.random.default_rng(10 * m + n)
    if kind == "grid":
        M = rng.standard_normal((8,) * n + (m, m))
        return MatrixWeight.grid((0,) * n, (1,) * n, 3,
                                 M @ np.swapaxes(M, -1, -2) + 0.2 * np.eye(m))
    if kind == "diag-power":
        return MatrixWeight.diag_power(rng.uniform(0.5, 2.0, m), rng.uniform(-0.4, 0.4, m), n)
    A = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return MatrixWeight.constant(A @ A.conj().T + 0.2 * np.eye(m), n)


LEVEL_WEIGHTS = ([("grid", m, n) for m in (2, 3) for n in (1, 2)]
                 + [("diag-power", m, 1) for m in (2, 3)] + [("constant", 2, 1)])
LEVEL_QUAD = QuadratureSpec(2, 2)


def _level_nodes(n):
    win = LatticeWindow(n, 0, 3, (0,) * n, (1,) * n)
    return win, weights._cube_nodes(LEVEL_QUAD, CubeArrays.of_window(win))


# 64 splits the 4,096 level-0 pairs of a 2-d grid weight into rows of 64 and
# takes one cube per node block; 512 splits them into rows of 512, puts 8
# cubes of a 2-d weight in a node block and its level-1 cubes in groups of two
@pytest.mark.parametrize("block", [64, 512])
@pytest.mark.parametrize("p", [0.8, 1.5, 3.0])
@pytest.mark.parametrize("kind, m, n", LEVEL_WEIGHTS)
def test_characteristic_is_the_per_level_loop_bitwise(kind, m, n, p, block):
    W = _level_weight(kind, m, n)
    win, nodes = _level_nodes(n)
    with mock.patch.object(weights, "PAIR_BLOCK", block):
        got = weights._defining_averages(WeightTable(W), p, nodes, nodes)
        want = _defining_averages_per_level(W, p, win, LEVEL_QUAD)
        assert got.tobytes() == want.tobytes()
        assert ap_characteristic(W, p, win, LEVEL_QUAD) == float(np.max(want))


# the fit's 256 or 288 directions take one cube per reference block; 9
# directions put several cubes of different levels in one, padded
@pytest.mark.parametrize("directions", ["fit", 9])
@pytest.mark.parametrize("block", [64, 512])
@pytest.mark.parametrize("p", [0.8, 1.5, 3.0])
@pytest.mark.parametrize("kind, m, n", LEVEL_WEIGHTS)
def test_direction_averages_are_the_node_block_loop_bitwise(kind, m, n, p, block, directions):
    W = _level_weight(kind, m, n)
    _, nodes = _level_nodes(n)
    dirs = weights._fit_directions(m) if directions == "fit" else \
        weights.unit_directions(directions, m, np.random.default_rng(m))
    with mock.patch.object(weights, "PAIR_BLOCK", block):
        got = weights._direction_averages(WeightTable(W), p, nodes, dirs)
        want = _direction_averages_node_blocks(W, p, nodes, dirs)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("block", [64, 512, weights.PAIR_BLOCK])
@pytest.mark.parametrize("kind, m, n", LEVEL_WEIGHTS)
def test_direction_average_groups_stay_within_the_pair_budget(kind, m, n, block):
    # every group norms its (k, U) distinct powers in every direction, the
    # products (k, U, m, D): k U D value-direction entries, at most the budget
    # unless one cube alone holds more
    W = _level_weight(kind, m, n)
    _, nodes = _level_nodes(n)
    dirs = weights._fit_directions(m)
    D = len(dirs)
    norm = np.linalg.norm
    groups = []

    def spy(x, *args, **kwargs):
        if np.ndim(x) == 4:
            groups.append(x.shape)
        return norm(x, *args, **kwargs)

    with mock.patch.object(weights, "PAIR_BLOCK", block), \
            mock.patch.object(np.linalg, "norm", spy):
        weights._direction_averages(WeightTable(W), 3.0, nodes, dirs)
    assert sum(shape[0] for shape in groups) == len(nodes)
    for k, U, _, d in groups:
        assert d == D and k * U * D <= max(block, U * D)


@pytest.mark.parametrize("p", [0.8, 1.5, 3.0])
def test_each_set_is_computed_as_if_alone(p):
    # a diag-power weight on R^2 sees the mirrored nodes of a cube on the
    # diagonal as one value: its cubes of one level differ in distinct counts
    W = MatrixWeight.diag_power([1.0, 2.0, 0.5], [0.3, -0.2, 0.1], n=2)
    win = LatticeWindow(2, 0, 2, (0, 0), (1, 1))
    nodes = weights._cube_nodes(QuadratureSpec(2, 1), CubeArrays.of_window(win))
    table = WeightTable(W)
    groups = list(table.blocks(table.sets(nodes), lambda u: u))
    assert len({tuple(counts) for _, counts, _ in groups}) > 1
    shifted = nodes + 0.25
    alone = [slice(c, c + 1) for c in range(len(nodes))]
    for y in (nodes, shifted):
        got = weights._defining_averages(table, p, nodes, y)
        want = np.concatenate([weights._defining_averages(WeightTable(W), p, nodes[c], y[c])
                               for c in alone])
        assert got.tobytes() == want.tobytes()
    dirs = weights._fit_directions(3)
    got = weights._direction_averages(table, p, nodes, dirs)
    want = np.concatenate([weights._direction_averages(WeightTable(W), p, nodes[c], dirs)
                           for c in alone])
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# non-finite weights are refused


@given(kind=st.sampled_from(("constant", "diag-power", "grid")),
       bad=st.sampled_from((np.nan, np.inf, -np.inf)), m=st.integers(1, 3), data=st.data())
@settings(max_examples=40, deadline=None)
def test_weight_constructors_refuse_non_finite_entries(kind, bad, m, data):
    if kind == "constant":
        mat = np.eye(m)
        idx = (data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1)))
        mat[idx] = bad
        with pytest.raises(PreconditionError, match=rf"constant weight matrix at entry \({idx[0]}, {idx[1]}\)"):
            MatrixWeight.constant(mat, 1)
    elif kind == "diag-power":
        a, alpha = np.ones(m), np.zeros(m)
        i = data.draw(st.integers(0, m - 1))
        which = data.draw(st.sampled_from(("coefficient", "exponent")))
        (a if which == "coefficient" else alpha)[i] = bad
        with pytest.raises(PreconditionError, match=rf"{which} at entry \({i},\)"):
            MatrixWeight.diag_power(a, alpha, 1)
    else:
        values = np.broadcast_to(np.eye(m), (4, m, m)).copy()
        idx = (data.draw(st.integers(0, 3)), data.draw(st.integers(0, m - 1)),
               data.draw(st.integers(0, m - 1)))
        values[idx] = bad
        with pytest.raises(PreconditionError, match=rf"grid weight value at entry \({idx[0]}, {idx[1]}, {idx[2]}\)"):
            MatrixWeight.grid([0], [1], 2, values)


def test_weight_evaluation_refuses_non_finite_value_and_names_the_point():
    # |x|^-1 without a floor is infinite at the origin
    W = MatrixWeight.diag_power([1.0], [-1.0], n=1)
    with np.errstate(divide="ignore"), pytest.raises(
            PreconditionError, match=r"not finite at the point \[0\.0\]"):
        W(np.array([[0.5], [0.0], [0.25]]))
    bad = MatrixWeight(1, 2, lambda x: np.where(x[:, :1, None] > 0.5, np.nan, 1.0))
    with pytest.raises(PreconditionError, match=r"point \[0\.75, 0\.0\]"):
        bad.power(np.array([[0.25, 0.0], [0.75, 0.0]]), 0.5)


# ---------------------------------------------------------------------------
# one weight evaluation and one eigendecomposition per defining average,
# whether x and y are the same nodes or not


def _counting(W):
    calls = []

    def f(x):
        calls.append(len(x))
        return W(x)

    return MatrixWeight(W.m, W.n, f), calls


@pytest.mark.parametrize("a", [0.5, -1.5])
@pytest.mark.parametrize("bad", [None, 2j, -0.5, 0.0, -0.0])
def test_scalar_power_is_elementwise_and_refuses_like_the_distinct_path(bad, a):
    # 16 cells with repeated values; with ``bad`` the cells 9 and 5 hold it,
    # and the first shuffled node in either must be named, as the
    # deduplicated path of the defining averages names it
    table = np.array([1.5, 0.25, 3.0, 1.5, 2.0, 0.25, 1.0, 3.0] * 2,
                     dtype=complex if isinstance(bad, complex) else float)
    if bad is not None:
        table[[9, 5]] = bad
    W = MatrixWeight(1, 1, lambda x: table[(x[:, 0] * 16).astype(int)][:, None, None])
    x = np.random.default_rng(0).permutation((np.arange(64) + 0.5) / 64)[:, None]

    def refusal(fn):
        try:
            return fn()
        except SingularWeightError as exc:
            return exc

    # no eigendecomposition, and no lookup or deduplication of the points
    with mock.patch("numpy.linalg.eigh", wraps=np.linalg.eigh) as eigh, \
            mock.patch.object(weights, "_match", wraps=weights._match) as match:
        got = refusal(lambda: W.power(x, a))
    assert eigh.call_count == 0 and match.call_count == 0
    want = refusal(lambda: WeightTable(W).sets(x[None], inverted=a < 0))
    if isinstance(want, SingularWeightError):
        assert isinstance(got, SingularWeightError) and str(got) == str(want)
        assert np.array_equal(got.node, want.node)
        assert np.array_equal(got.node, x[np.isin((x[:, 0] * 16).astype(int), [5, 9])][0])
        return
    assert bad is None or (bad == 0 and a > 0)
    # the clamped eigendecomposition of every value, as for m > 1
    w = W(x)
    vals, vecs = np.linalg.eigh(w)
    floor = weights.EIG_CLAMP_REL * np.maximum(w[:, 0, 0].real, 0.0)
    ref = np.einsum("nij,nj,nkj->nik", vecs, np.maximum(vals, floor[:, None]) ** a, vecs.conj())
    assert got.dtype == np.float64 and got.tobytes() == ref.real.tobytes()


@pytest.mark.parametrize("p", [0.8, 1.5, 3.0])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_defining_average_same_nodes_takes_one_eigh(p, m):
    rng = np.random.default_rng(m)
    base = rng.standard_normal((8, m, m))
    cells = base @ np.swapaxes(base, -1, -2) + 0.1 * np.eye(m)
    W, calls = _counting(MatrixWeight.grid([0, 0], [1, 1], 1, cells.reshape(2, 2, 2, m, m)[0]))
    nodes, _ = QuadratureSpec(3, 1).nodes((0.0, 0.0), (1.0, 0.5))
    xs, n = nodes[None], len(nodes)
    # m = 1 takes none: a 1 x 1 value is its own eigenvalue.  For m > 1 equal
    # nodes of x and y are looked up, not evaluated again; m = 1 looks up no
    # node, so x and y given apart are evaluated together
    with mock.patch("numpy.linalg.eigh", wraps=np.linalg.eigh) as eigh:
        same = weights._defining_averages(WeightTable(W), p, xs, xs)
        assert eigh.call_count == (m > 1) and calls == [n]
        apart = weights._defining_averages(WeightTable(W), p, xs, xs.copy())
        assert eigh.call_count == 2 * (m > 1) and calls == [n, n if m > 1 else 2 * n]
        table = WeightTable(W)
        weights._defining_averages(table, p, xs, xs)
        again = weights._defining_averages(table, p, xs, xs.copy())
        assert eigh.call_count == 3 * (m > 1)
        assert calls == ([n] * 3 if m > 1 else [n, 2 * n, n, 2 * n])
    assert same == apart == again  # bitwise


def test_defining_average_same_nodes_keeps_singular_refusal():
    xs = QuadratureSpec(2, 0).nodes((0.0,), (1.0,))[0][None]
    W = MatrixWeight.constant([[0.0, 0.0], [0.0, 0.0]], 1)
    for y in (xs, xs.copy()):
        with pytest.raises(SingularWeightError, match=r"weight is singular at \[0\.25\]"):
            weights._defining_averages(WeightTable(W), 2.0, xs, y)


@pytest.mark.parametrize("m", [2, 3])
def test_fit_evaluates_the_weight_once_per_node(m):
    W, calls = _counting(_smooth_weight(m, 1, False, 4))
    win = LatticeWindow(1, 0, 2, (0,), (1,))
    quad = QuadratureSpec(3, 1)
    fam = ReducingFamily.build(W, 3.0, win, quad)
    assert sum(calls) == win.count() * quad.cells_per_axis
    assert fam.fit_report()["capped"] == 0


# ---------------------------------------------------------------------------
# every entry point reads weight values through one path: each node is
# evaluated once per use, and bad values are refused naming the first node


ENTRY_WINDOW = LatticeWindow(1, 0, 1, (0,), (1,))
ENTRY_QUAD = QuadratureSpec(2, 1)
ENTRY_NODES = ENTRY_QUAD.cells_per_axis     # nodes per cube in one dimension
CUBE_NODES = ENTRY_WINDOW.count() * ENTRY_NODES


def _entry_field(m):
    t = CoeffField(ENTRY_WINDOW, m)
    t.set(DyadicCube(1, 1, (1,)), np.ones(m))
    return t


def _doubling_nodes(report):
    """The number of distinct quadrature nodes of the base cubes of a
    dimension report and of all their doublings."""
    boxes = []
    for entry in report["per_cube"]:
        q = parse_cube(entry["cube"])
        for i in range(entry["doublings"] + 1):
            half = np.ldexp(0.5 * q.side, i)
            boxes.append(ENTRY_QUAD.nodes(np.array(q.center) - half, np.array(q.center) + half)[0])
    return len(np.unique(np.concatenate(boxes), axis=0))


# entry point -> (m, its call on W, the node evaluations it needs given its result)
ENTRY_POINTS = {
    "ap_characteristic": (2, lambda W: ap_characteristic(W, 1.5, ENTRY_WINDOW, ENTRY_QUAD),
                          lambda _: CUBE_NODES),
    "build_m1": (1, lambda W: ReducingFamily.build(W, 1.5, ENTRY_WINDOW, ENTRY_QUAD),
                 lambda _: CUBE_NODES),
    "build_p2": (2, lambda W: ReducingFamily.build(W, 2.0, ENTRY_WINDOW, ENTRY_QUAD),
                 lambda _: CUBE_NODES),
    "build_fit": (2, lambda W: ReducingFamily.build(W, 3.0, ENTRY_WINDOW, ENTRY_QUAD),
                  lambda _: CUBE_NODES),
    # each distinct node of the base cubes and their doublings once: a base
    # cube's nodes serve all its doublings, and they are its first doubling's
    "ap_dimension_estimate": (
        2, lambda W: ap_dimension_estimate(W, 1.5, LatticeWindow(1, 0, 5, (0,), (2,)), ENTRY_QUAD),
        lambda res: _doubling_nodes(res[1])),
    # the fit and the certificate read one table
    "john_direction_report": (
        2, lambda W: john_direction_report(W, 3.0, DyadicCube(1, 0, (0,)), ENTRY_QUAD),
        lambda _: ENTRY_NODES),
    # W is the base weight, scalar as in the trace runs; the stacked weight is 1
    "weight_compat_check": (
        1, lambda W: trace.weight_compat_check(W, MatrixWeight.identity(1, 2), 1.5,
                                               ENTRY_WINDOW, ENTRY_QUAD),
        lambda _: CUBE_NODES),
    # the midpoints of the stack grid, two levels below the finest cubes
    "seq_norm_weighted": (
        2, lambda W: seq_norm_weighted(_entry_field(W.m), W,
                                       SpaceParams(BESOV, 0.5, 0.1, 2.0, 2.0)),
        lambda _: 1 << (ENTRY_WINDOW.j_max + 2)),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_evaluates_the_weight_once_per_node(entry):
    m, call, evaluations = ENTRY_POINTS[entry]
    W, calls = _counting(_smooth_weight(m, 1, False, 4))
    result = call(W)
    assert sum(calls) == evaluations(result)


@pytest.mark.parametrize("fault, bad", [
    ("weight is not Hermitian", {1: [[1j]], 2: [[1.0, 2.0], [0.0, 1.0]]}),
    ("weight has a significantly negative eigenvalue", {1: [[-1.0]], 2: [[1.0, 0.0], [0.0, -1.0]]}),
], ids=["non-hermitian", "negative"])
@pytest.mark.parametrize("block", [1, weights.PAIR_BLOCK], ids=["small-blocks", "default-blocks"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_refuses_bad_weight_values_at_the_first_node(entry, block, fault, bad):
    # W is the identity below x = 0.5 and the bad value from there on: the
    # refusal names the first node at or past 0.5 that the entry point reads,
    # with one node set per block or all of them in one
    m, call, _ = ENTRY_POINTS[entry]
    seen = []

    def f(x):
        seen.append(x)
        return np.where(x[:, :1, None] < 0.5, np.eye(m), np.array(bad[m]))

    with mock.patch.object(weights, "PAIR_BLOCK", block), \
            pytest.raises(SingularWeightError) as info:
        call(MatrixWeight(m, 1, f))
    pts = np.concatenate(seen)
    first = pts[int(np.argmax(pts[:, 0] >= 0.5))]
    assert str(info.value) == f"{fault} at {first}"
    assert np.array_equal(info.value.node, first)
    assert isinstance(info.value, PreconditionError)


# consumers of a table, each on the two cubes [0, 1/2) and [1/2, 1)
MIXED_FAULT_CALLS = {
    "characteristic": lambda W, win: ap_characteristic(W, 1.5, win, ENTRY_QUAD),
    "build_p2": lambda W, win: ReducingFamily.build(W, 2.0, win, ENTRY_QUAD),
    "build_fit": lambda W, win: ReducingFamily.build(W, 3.0, win, ENTRY_QUAD),
}


@pytest.mark.parametrize("block, wins", [(1, "weight is not Hermitian at [0.3125]"),
                                         (weights.PAIR_BLOCK, "weight is not finite at the "
                                                              "point [0.8125]")],
                         ids=["small-blocks", "default-blocks"])
@pytest.mark.parametrize("call", MIXED_FAULT_CALLS)
def test_mixed_faults_are_refused_in_block_order(call, block, wins):
    # a non-Hermitian value in the first cube and a non-finite one in the
    # second: a block of the first cube alone refuses its value before the
    # second cube is evaluated; a block of both evaluates them first
    def f(x):
        out = np.broadcast_to(np.eye(2), (len(x), 2, 2)).copy()
        out[(x[:, 0] >= 0.25) & (x[:, 0] < 0.5), 0, 1] = 1.0
        out[x[:, 0] >= 0.75] = np.nan
        return out

    W, win = MatrixWeight(2, 1, f), LatticeWindow(1, 1, 1, (0,), (1,))

    def refusal():
        with pytest.raises(PreconditionError) as info:
            MIXED_FAULT_CALLS[call](W, win)
        return info.value

    with mock.patch.object(weights, "PAIR_BLOCK", block):
        got = refusal()
        patches = _pre_table()
        with patches[0], patches[1], patches[2]:
            want = refusal()
    assert type(got) is type(want) and str(got) == str(want) == wins


# ---------------------------------------------------------------------------
# the direction-ratio certificate against its per-cube form, which took the
# p-averages with its own einsum over the quadrature nodes of the cube


def _john_direction_report_reference(W, p, cube, quad, rng=None):
    A = reducing_operator(W, p, cube, quad)
    rng = rng or np.random.default_rng(1)
    dirs = rng.standard_normal((256, W.m))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    nodes, _ = quad.nodes(cube.lower, cube.upper)
    img = np.einsum("nab,db->nda", W.power(nodes, 1.0 / p), dirs)
    rho = (np.mean(np.linalg.norm(img, axis=-1) ** p, axis=0)) ** (1.0 / p)
    ratios = np.linalg.norm(dirs @ A.T, axis=-1) / rho
    return {"matrix": A, "ratio_min": float(np.min(ratios)), "ratio_max": float(np.max(ratios)),
            "spread": float(np.max(ratios) / np.min(ratios)), "john_factor": math.sqrt(W.m)}


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize("m", [2, 3])
def test_john_direction_report_matches_per_cube_oracle(m, complex_values, p):
    W = _smooth_weight(m, 2, complex_values, seed=10 * m + int(p))
    cube = DyadicCube(2, 1, (1, 0))
    quad = QuadratureSpec(3, 1)
    if complex_values and p != 2.0:
        # the ellipsoid fit sees real directions only: complex weights need p = 2
        with pytest.raises(PreconditionError, match="ellipsoid fit supports real symmetric"):
            john_direction_report(W, p, cube, quad)
        return
    got = john_direction_report(W, p, cube, quad, rng=np.random.default_rng(4))
    ref = _john_direction_report_reference(W, p, cube, quad, rng=np.random.default_rng(4))
    assert np.array_equal(got["matrix"], ref["matrix"])
    for key in ("ratio_min", "ratio_max", "spread", "john_factor"):
        assert got[key] == pytest.approx(ref[key], rel=1e-12, abs=0), key


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_fit_refuses_complex_weight(p):
    W = MatrixWeight.constant([[2, 1j], [-1j, 2]], 1)
    win = LatticeWindow(1, 0, 1, (0,), (1,))
    with pytest.raises(PreconditionError, match="ellipsoid fit supports real symmetric"):
        ReducingFamily.build(W, p, win, QuadratureSpec(2, 0))
    # a complex dtype with vanishing imaginary parts is a real weight
    real = MatrixWeight(2, 1, lambda x: MatrixWeight.identity(2, 1)(x) + 0j)
    assert ReducingFamily.build(real, p, win, QuadratureSpec(2, 0)).fit_report()["fits"] == 3
