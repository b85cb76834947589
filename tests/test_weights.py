import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadica import weights
from dyadica.dyadic import DyadicCube, LatticeWindow, parse_cube
from dyadica.errors import PreconditionError, SingularWeightError
from dyadica.params import WeightDims
from dyadica.weights import (
    MatrixWeight,
    QuadratureSpec,
    ReducingFamily,
    ap_characteristic,
    ap_dimension_estimate,
    john_direction_report,
    reducing_operator,
    reducing_ratio_bound,
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


def test_validate_rejects_nonhermitian():
    W = MatrixWeight(2, 1, lambda x: np.broadcast_to(
        np.array([[1.0, 1.0], [0.0, 1.0]]), (np.atleast_2d(x).shape[0], 2, 2)).copy())
    with pytest.raises(PreconditionError):
        W.validate(np.array([[0.1]]))


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


@pytest.mark.parametrize("x", [5.0, -0.1, 1.0])
def test_grid_weight_refuses_point_outside_box(x):
    # the box is half-open: its upper edge lies outside as well
    vals = np.arange(1.0, 5.0).reshape(4, 1, 1)
    W = MatrixWeight.grid((0,), (1,), level=2, values=vals)
    with pytest.raises(PreconditionError, match=rf"point \[{x}\] lies outside"):
        W(np.array([[0.5], [x]]))


def test_weight_json_roundtrip():
    W = MatrixWeight.diag_power([1.0, 2.0], [0.5, 0.0], n=2, floor=0.01)
    d = W.to_dict()
    W2 = MatrixWeight.from_dict(d)
    x = np.array([[0.3, 0.4], [1.0, 0.0]])
    assert np.allclose(W(x), W2(x))


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


def test_reducing_family_and_ratio_bound():
    W = MatrixWeight.identity(2, 1)
    win = LatticeWindow(1, 0, 2, (0,), (2,))
    fam = ReducingFamily.build(W, 2.0, win, QuadratureSpec(2, 0))
    wd = WeightDims.for_order(2.0, 0.5, 0.25)
    cubes = list(win.all_cubes())
    q, r = cubes[0], cubes[-1]
    ratio, bound = reducing_ratio_bound(fam, wd, q, r)
    assert ratio == pytest.approx(1.0, abs=1e-12)
    assert bound >= 1.0
    ratio_qq, bound_qq = reducing_ratio_bound(fam, wd, q, q)
    assert ratio_qq == pytest.approx(1.0, abs=1e-12)
    assert bound_qq == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(PreconditionError):
        fam[DyadicCube(1, 5, (0,))]


def test_power_weight_ratio_bound_finite():
    # ratio/bound bounded over pairs for a power-family weight
    W = MatrixWeight.diag_power([1.0, 1.0], [0.0, 0.5], n=1)
    win = LatticeWindow(1, 0, 3, (0,), (2,))
    fam = ReducingFamily.build(W, 2.0, win, QuadratureSpec(4, 2))
    wd = WeightDims.for_order(2.0, 0.5, 0.5)
    cubes = list(win.all_cubes())
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(400):
        q, r = rng.choice(len(cubes), 2)
        ratio, bound = reducing_ratio_bound(fam, wd, cubes[q], cubes[r])
        worst = max(worst, ratio / bound)
    assert worst < 10.0


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
    """Per-cube fit; also returns its updates per phase and final gap."""
    N, d = P.shape
    u = np.full(N, 1.0 / N)
    iterations = [0, 0]

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
        iterations[0] += 1
    for _ in range(fw_iter):
        kappa = kappas(u)
        j = int(np.argmax(kappa))
        kj = kappa[j]
        if kj <= d * (1.0 + tol):
            break
        alpha = (kj - d) / (d * (kj - 1.0))
        u *= (1.0 - alpha)
        u[j] += alpha
        iterations[1] += 1
    V = P.T @ (P * u[:, None])
    Vinv = np.linalg.inv(V)
    kappa_max = float(np.max(np.einsum("nd,de,ne->n", P, Vinv, P)))
    return Vinv / kappa_max, iterations, kappa_max / d


def _reducing_operator_reference(W, p, cube, quad, directions=None, rng=None):
    """Per-cube operator; returns (A, fit updates per phase or None, gap or None)."""
    nodes, _ = quad.nodes(cube.lower, cube.upper)
    if W.m == 1:
        w = W(nodes)[:, 0, 0].real
        return np.array([[float(np.mean(w)) ** (1.0 / p)]]), None, None
    if p == 2:
        vals, vecs = np.linalg.eigh(np.mean(W(nodes), axis=0))
        return (vecs * np.sqrt(vals)) @ vecs.conj().T, None, None
    m = W.m
    ndir = directions or max(32 * m * m, 64)
    rng = rng or np.random.default_rng(0)
    if m == 2:
        ang = np.linspace(0.0, np.pi, max(ndir, 256), endpoint=False)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        dirs = rng.standard_normal((ndir, m))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    w_root = W.power(nodes, 1.0 / p).real
    img = np.einsum("nab,db->nda", w_root, dirs)
    rho = (np.mean(np.linalg.norm(img, axis=-1) ** p, axis=0)) ** (1.0 / p)
    M, iterations, gap = _mvee_reference(dirs / rho[:, None])
    vals, vecs = np.linalg.eigh(M)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T, iterations, gap


def _smooth_weight(m, n, complex_values, seed):
    """Positive-definite M(x) M(x)^* + 0.2 I with M smooth in x."""
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal((3, m, m))
    if complex_values:
        coef = coef + 1j * rng.standard_normal((3, m, m))

    def f(x):
        x = np.atleast_2d(x)
        s = np.sin(np.pi * x[:, 0])[:, None, None]
        c = np.cos(2.0 * x[:, -1])[:, None, None]
        M = coef[0] + s * coef[1] + c * coef[2]
        return M @ np.swapaxes(M.conj(), -1, -2) + 0.2 * np.eye(m)

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
        got = weights._defining_average(W, p, x_nodes, y_nodes)
    assert got == pytest.approx(_defining_average_reference(W, p, x_nodes, y_nodes),
                                rel=1e-12)


@given(m=st.sampled_from((1, 2, 3)), complex_values=st.booleans(), p=ORACLE_P,
       n=st.sampled_from((1, 2)), block=ORACLE_BLOCK, seed=st.integers(0, 2 ** 16))
@settings(max_examples=30, deadline=None)
def test_characteristic_matches_svd_oracle(m, complex_values, p, n, block, seed):
    W = _smooth_weight(m, n, complex_values, seed)
    win = LatticeWindow(n, 0, 1, (0,) * n, (1,) * n)
    quad = QuadratureSpec(2, 1 if n == 1 else 0)
    with mock.patch.object(weights, "PAIR_BLOCK", block):
        got = ap_characteristic(W, p, win, quad)
    want = 0.0
    for q in win.all_cubes():
        nodes, _ = quad.nodes(q.lower, q.upper)
        want = max(want, _defining_average_reference(W, p, nodes, nodes))
    assert got == pytest.approx(want, rel=1e-12)


@given(m=st.sampled_from((1, 2, 3)), complex_values=st.booleans(), p=ORACLE_P,
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=15, deadline=None)
def test_dimension_slopes_match_svd_oracle(m, complex_values, p, seed):
    # base and doubled node sets differ in size, as in the doubling fit
    W = _smooth_weight(m, 1, complex_values, seed)
    win = LatticeWindow(1, 0, 5, (0,), (2,))
    quad = QuadratureSpec(2, 0)
    with mock.patch.object(weights, "PAIR_BLOCK", 7):
        d_est, rep = ap_dimension_estimate(W, p, win, quad, max_base_cubes=4)
    slopes = []
    for entry in rep["per_cube"]:
        q = parse_cube(entry["cube"])
        c = np.array(q.center)
        base, _ = quad.nodes(q.lower, q.upper)
        vals = []
        for i in range(entry["doublings"] + 1):
            half = 0.5 * q.side * 2 ** i
            y_nodes, _ = quad.nodes(c - half, c + half)
            vals.append(_defining_average_reference(W, p, base, y_nodes))
        ii = np.arange(len(vals), dtype=float)
        slopes.append(np.polyfit(ii, np.log2(vals), 1)[0])
        assert entry["slope"] == pytest.approx(slopes[-1], rel=1e-12, abs=1e-12)
    assert d_est == pytest.approx(max(slopes), rel=1e-12, abs=1e-12)


def _assert_operator_close(A, A_ref):
    assert np.max(np.abs(A - A_ref)) <= 1e-10 * np.max(np.abs(A_ref))


@given(m=st.sampled_from((1, 2, 3)), complex_values=st.booleans(),
       p=st.sampled_from((0.8, 1.5, 2.0, 3.0)), n=st.sampled_from((1, 2)),
       block=ORACLE_BLOCK, seed=st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_reducing_family_matches_per_cube_oracle(m, complex_values, p, n, block, seed):
    # the ellipsoid fit takes real weights only
    complex_values = complex_values and (m == 1 or p == 2.0)
    W = _smooth_weight(m, n, complex_values, seed)
    win = LatticeWindow(n, 0, 2 if n == 1 else 1, (0,) * n, (1,) * n)
    quad = QuadratureSpec(2, 1 if n == 1 else 0)
    with mock.patch.object(weights, "PAIR_BLOCK", block):
        fam = ReducingFamily.build(W, p, win, quad)
    gaps = []
    for i, q in enumerate(win.all_cubes()):
        A_ref, iterations, gap = _reducing_operator_reference(W, p, q, quad)
        _assert_operator_close(fam[q], A_ref)
        if gap is not None:
            assert fam.fit_iterations[i].tolist() == iterations
            assert fam.fit_gap[i] == pytest.approx(gap, rel=1e-10)
            gaps.append(gap)
    report = fam.fit_report()
    assert report["fits"] == len(gaps)
    if gaps:
        assert report["gap_max"] == pytest.approx(max(gaps), rel=1e-10)
        assert report["capped"] == sum(g > 1.0 + 1e-7 for g in gaps)
    else:
        assert report == {"fits": 0, "capped": 0, "iterations_max": 0, "gap_max": None}


@given(m=st.sampled_from((2, 3)), p=st.sampled_from((0.8, 1.5, 3.0)),
       directions=st.sampled_from((None, 40)), seed=st.integers(0, 2 ** 16))
@settings(max_examples=15, deadline=None)
def test_reducing_operator_is_one_cube_batch(m, p, directions, seed):
    W = _smooth_weight(m, 1, False, seed)
    q = DyadicCube(1, 1, (1,))
    quad = QuadratureSpec(3, 1)
    A = reducing_operator(W, p, q, quad, directions, np.random.default_rng(seed))
    A_ref, _, _ = _reducing_operator_reference(W, p, q, quad, directions,
                                               np.random.default_rng(seed))
    _assert_operator_close(A, A_ref)


def test_complex_weight_direction_certificate_uses_complex_norms():
    # p = 2: A = (mean W)^{1/2} gives |A z|^2 = mean z* W z = mean |W^{1/2} z|^2,
    # so every direction ratio is 1 (with real parts of W^{1/2} the spread is 1.011)
    vals = np.array([[[2, 1j], [-1j, 2]], [[3, 1 + 1j], [1 - 1j, 2]],
                     [[1, -0.5j], [0.5j, 1]], [[4, 2], [2, 3]]])
    W = MatrixWeight.grid((0,), (1,), 2, vals)
    rep = john_direction_report(W, 2.0, DyadicCube(1, 0, (0,)), QuadratureSpec(4, 2))
    assert rep["ratio_min"] == pytest.approx(1.0, abs=1e-12)
    assert rep["ratio_max"] == pytest.approx(1.0, abs=1e-12)
