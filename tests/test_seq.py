import math

import numpy as np
import pytest

from dyadica.dyadic import DyadicCube, LatticeWindow
from dyadica.errors import PreconditionError
from dyadica.params import BESOV, INF, TRIEBEL_LIZORKIN, SpaceParams
from dyadica.seq import (
    CoeffField,
    LevelFunctionStack,
    equivalence_report,
    la_norm,
    seq_norm_averaged,
    seq_norm_weighted,
    subset_norm,
)
from dyadica.weights import MatrixWeight, QuadratureSpec, ReducingFamily


def B(s, tau, p, q):
    return SpaceParams(BESOV, s, tau, p, q)


def F(s, tau, p, q):
    return SpaceParams(TRIEBEL_LIZORKIN, s, tau, p, q)


def _window(j_max=3, width=1):
    return LatticeWindow(1, 0, j_max, (0,), (width,))


def _indicator_stack(win, grid_level, q):
    stack = LevelFunctionStack(win, grid_level, {})
    arr = np.zeros(stack.grid_shape)
    pts = stack.midpoints()
    arr.flat[q.contains(pts)] = 1.0
    stack.levels[q.j] = arr
    return stack


# ---------------------------------------------------------------------------
# la_norm

def test_la_norm_zero_stack():
    win = _window()
    stack = LevelFunctionStack(win, 5, {})
    assert la_norm(stack, B(0, 0, 2, 2)).value == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_la_norm_refuses_non_finite_stack(bad):
    win = _window()
    levels = {j: np.ones(1 << 5) for j in range(win.j_min, win.j_max + 1)}
    levels[1][3] = bad
    with pytest.raises(PreconditionError, match="level 1"):
        la_norm(LevelFunctionStack(win, 5, levels), B(0, 0, 2, 2))


def test_weighted_norm_refuses_nan_coefficient():
    # a NaN coefficient is refused when it is stored, so no norm can see one
    # (the norm's own refusal of a non-finite stack is tested on la_norm)
    win = _window()
    with pytest.raises(PreconditionError, match="non-finite coefficient for cube 2:1"):
        CoeffField(win, 1, {DyadicCube(1, 2, (1,)): [np.nan], DyadicCube(1, 0, (0,)): [1.0]})


def test_la_norm_tau0_besov_is_plain_lq_lp():
    # tau = 0: the sup is attained at the whole box; equals l^q(L^p) directly
    win = _window(j_max=2)
    rng = np.random.default_rng(0)
    stack = LevelFunctionStack(win, 4, {})
    for j in range(0, 3):
        stack.levels[j] = rng.random(stack.grid_shape)
    sp = B(0, 0, 2.0, 1.5)
    got = la_norm(stack, sp)
    vol = stack.cell_volume
    lp = [np.sum(stack.levels[j] ** sp.p * vol) ** (1 / sp.p) for j in range(0, 3)]
    expect = float(np.sum([v ** sp.q for v in lp]) ** (1 / sp.q))
    assert got.value == pytest.approx(expect, rel=1e-12)
    assert got.boundary_flag  # attained at the coarsest level


def test_la_norm_single_indicator_closed_form():
    # one level function 1_Q: value = |Q|^{1/p - tau}, attained at P = Q
    win = _window(j_max=3)
    q = DyadicCube(1, 2, (1,))
    for tau, p in [(0.0, 2.0), (0.3, 1.0), (0.7, 0.5)]:
        sp = B(0, tau, p, 2.0)
        stack = _indicator_stack(win, 5, q)
        got = la_norm(stack, sp)
        # brute-force sup over all window cubes
        expect = 0.0
        for cand in win.all_cubes():
            if cand.j > q.j:
                inter = min(cand.upper[0], q.upper[0]) - max(cand.lower[0], q.lower[0])
            else:
                inter = min(cand.upper[0], q.upper[0]) - max(cand.lower[0], q.lower[0])
            inter = max(inter, 0.0)
            if cand.j > q.j:
                pass
            expect = max(expect, cand.volume ** -tau * inter ** (1 / p))
        assert got.value == pytest.approx(expect, rel=1e-12)
        if tau > 0:
            assert got.attaining == q
            assert got.value == pytest.approx(q.volume ** (1 / p - tau), rel=1e-12)


def test_la_norm_q_inf():
    win = _window(j_max=2)
    stack = LevelFunctionStack(win, 4, {})
    stack.levels[0] = np.full(stack.grid_shape, 2.0)
    stack.levels[1] = np.full(stack.grid_shape, 3.0)
    sp = B(0, 0, 2.0, INF)
    # sup_j ||f_j||_{L^2([0,1])} = 3
    assert la_norm(stack, sp).value == pytest.approx(3.0, rel=1e-12)
    spf = F(0, 0, 2.0, INF)
    assert la_norm(stack, spf).value == pytest.approx(3.0, rel=1e-12)


# ---------------------------------------------------------------------------
# weighted / averaged norms

def test_weighted_norm_single_cube_closed_form():
    win = _window(j_max=3)
    W = MatrixWeight.identity(1, 1)
    for (s, tau, p) in [(0.0, 0.0, 2.0), (0.5, 0.2, 1.0), (-0.3, 0.6, 0.7)]:
        sp = B(s, tau, p, 2.0)
        for q in [DyadicCube(1, 0, (0,)), DyadicCube(1, 2, (3,)), DyadicCube(1, 3, (5,))]:
            t = CoeffField(win, 1, {q: [1.0]})
            got = seq_norm_weighted(t, W, sp)
            n = 1
            expect = q.volume ** (-tau - s / n + 1 / p - 0.5)
            assert got.value == pytest.approx(expect, rel=1e-10), (s, tau, p, q)


def test_norm_homogeneity_exact():
    win = _window()
    W = MatrixWeight.identity(2, 1)
    rng = np.random.default_rng(1)
    t = CoeffField.random(win, 2, rng, density=0.5, complex_values=True)
    sp = F(0.3, 0.1, 1.5, 2.0)
    base = seq_norm_weighted(t, W, sp).value
    scaled = seq_norm_weighted(t.scaled(4.0), W, sp).value
    assert scaled == pytest.approx(4 * base, rel=1e-13)
    # weight homogeneity: W -> 2^p W doubles the norm
    W2 = MatrixWeight.constant(np.eye(2) * 2 ** sp.p, 1)
    assert seq_norm_weighted(t, W2, sp).value == pytest.approx(2 * base, rel=1e-12)


def test_quasi_triangle():
    win = _window()
    W = MatrixWeight.identity(1, 1)
    rng = np.random.default_rng(2)
    for p, q in [(0.5, 0.5), (1.0, 2.0), (2.0, 0.7)]:
        sp = B(0.1, 0.1, p, q)
        c = 2.0 ** (max(0, 1 / p - 1) + max(0, 1 / q - 1))
        for _ in range(10):
            t = CoeffField.random(win, 1, rng, density=0.4)
            u = CoeffField.random(win, 1, rng, density=0.4)
            lhs = seq_norm_weighted(t.plus(u), W, sp).value
            rhs = seq_norm_weighted(t, W, sp).value + seq_norm_weighted(u, W, sp).value
            assert lhs <= c * rhs + 1e-12


def test_window_monotonicity():
    small = LatticeWindow(1, 0, 2, (0,), (1,))
    big = LatticeWindow(1, -1, 3, (0,), (2,))
    W = MatrixWeight.identity(1, 1)
    sp = B(0.2, 0.3, 1.0, 1.0)
    rng = np.random.default_rng(3)
    for _ in range(5):
        t_small = CoeffField.random(small, 1, rng, density=0.5)
        t_big = CoeffField(big, 1, dict(t_small.items()))
        v_small = seq_norm_weighted(t_small, W, sp).value
        v_big = seq_norm_weighted(t_big, W, sp).value
        assert v_big >= v_small - 1e-12


def test_b_equals_f_when_p_is_q():
    win = _window(j_max=2)
    W = MatrixWeight.identity(1, 1)
    rng = np.random.default_rng(4)
    for p in (0.8, 2.0):
        spb = B(0.3, 0.2, p, p)
        spf = F(0.3, 0.2, p, p)
        for _ in range(5):
            t = CoeffField.random(win, 1, rng, density=0.6)
            vb = seq_norm_weighted(t, W, spb).value
            vf = seq_norm_weighted(t, W, spf).value
            assert vb == pytest.approx(vf, rel=1e-9)


def test_averaged_single_cube_and_identity_weight():
    win = _window(j_max=3)
    m = 2
    fam = ReducingFamily.identity(m, 2.0, win)
    sp = B(0.4, 0.25, 1.5, 2.0)
    q = DyadicCube(1, 2, (2,))
    z = np.array([1.0, -2.0])
    t = CoeffField(win, m, {q: z})
    got = seq_norm_averaged(t, fam, sp)
    expect = q.volume ** (-sp.tau - sp.s + 1 / sp.p - 0.5) * np.linalg.norm(z)
    assert got.value == pytest.approx(expect, rel=1e-12)
    assert got.attaining == q
    # matches the weighted norm for W = I
    W = MatrixWeight.identity(m, 1)
    assert seq_norm_weighted(t, W, sp).value == pytest.approx(got.value, rel=1e-9)


def test_two_disjoint_cubes_besov_p_eq_q():
    win = _window(j_max=2)
    fam = ReducingFamily.identity(1, 2.0, win)
    p = 1.3
    sp = B(0.2, 0.0, p, p)
    q1 = DyadicCube(1, 2, (0,))
    q2 = DyadicCube(1, 2, (3,))
    single1 = seq_norm_averaged(CoeffField(win, 1, {q1: [1.0]}), fam, sp).value
    single2 = seq_norm_averaged(CoeffField(win, 1, {q2: [2.0]}), fam, sp).value
    both = seq_norm_averaged(CoeffField(win, 1, {q1: [1.0], q2: [2.0]}), fam, sp).value
    assert both == pytest.approx((single1 ** p + single2 ** p) ** (1 / p), rel=1e-12)


def test_equivalence_report_identity():
    win = _window(j_max=2)
    m = 2
    W = MatrixWeight.identity(m, 1)
    fam = ReducingFamily.identity(m, 2.0, win)
    sp = B(0.1, 0.2, 2.0, 2.0)
    rng = np.random.default_rng(5)
    fields = [CoeffField.random(win, m, rng, density=0.5) for _ in range(10)]
    rep = equivalence_report(fields, W, fam, sp)
    assert rep["spread"] == pytest.approx(1.0, abs=1e-6)


def test_equivalence_report_diag_power_finite():
    win = _window(j_max=3)
    m = 2
    W = MatrixWeight.diag_power([1.0, 1.0], [0.0, 0.5], n=1)
    fam = ReducingFamily.build(W, 2.0, win, QuadratureSpec(4, 2))
    sp = B(0.0, 0.1, 2.0, 2.0)
    rng = np.random.default_rng(6)
    fields = [CoeffField.random(win, m, rng, density=0.5) for _ in range(20)]
    rep = equivalence_report(fields, W, fam, sp)
    assert math.isfinite(rep["spread"])
    assert rep["spread"] < 4.0


def test_zero_field_rejected_in_report():
    win = _window()
    W = MatrixWeight.identity(1, 1)
    fam = ReducingFamily.identity(1, 2.0, win)
    with pytest.raises(PreconditionError):
        equivalence_report([CoeffField(win, 1)], W, fam, B(0, 0, 2, 2))


# ---------------------------------------------------------------------------
# subset norms

def test_subset_norm_full_cube_matches_standard():
    win = _window(j_max=2)
    sp = F(0.3, 0.2, 1.5, 2.0)
    rng = np.random.default_rng(7)
    t = CoeffField.random(win, 1, rng, density=0.7)
    fam = ReducingFamily.identity(1, sp.p, win)
    std = seq_norm_averaged(t, fam, sp).value

    def full(q):
        return q.lower, q.upper

    # real coefficients: |A_Q t_Q| = |t_Q|, and 2^{j(s+n/2)} 1_Q = 2^{js} |Q|^{-1/2} 1_Q
    got = subset_norm(t, full, sp, delta=0.999).value
    assert got == pytest.approx(std, rel=1e-12)


def test_subset_norm_middle_third_single_cube():
    win = _window(j_max=3)
    sp = F(0.1, 0.2, 1.7, 2.0)

    def middle_third(q):
        lo = np.array(q.lower)
        hi = np.array(q.upper)
        return lo + (hi - lo) / 3, hi - (hi - lo) / 3

    for q in [DyadicCube(1, 1, (1,)), DyadicCube(1, 2, (2,))]:
        t = CoeffField(win, 1, {q: [1.0]})
        fam = ReducingFamily.identity(1, sp.p, win)
        std = seq_norm_averaged(t, fam, sp).value
        got = subset_norm(t, middle_third, sp, delta=0.25, grid_extra=5).value
        ratio = got / std
        # measured fraction of cells retained
        assert 0.25 ** (1 / sp.p) <= ratio <= 1.0 + 1e-12


def test_subset_norm_random_half_boxes_stable():
    sp = F(0.0, 0.1, 2.0, 2.0)
    rng = np.random.default_rng(8)

    def left_half(q):
        lo = np.array(q.lower)
        hi = np.array(q.upper)
        return lo, (lo + hi) / 2

    spreads = []
    for j_max in (3, 5):
        win = _window(j_max=j_max)
        ratios = []
        for _ in range(30):
            t = CoeffField.random(win, 1, rng, density=0.5)
            if len(t) == 0:
                continue
            fam = ReducingFamily.identity(1, sp.p, win)
            std = seq_norm_averaged(t, fam, sp).value
            got = subset_norm(t, left_half, sp, delta=0.5).value
            ratios.append(got / std)
        ratios = np.array(ratios)
        spreads.append(float(ratios.max() / ratios.min()))
    assert spreads[1] <= spreads[0] * 1.5


def test_subset_norm_delta_violation():
    win = _window(j_max=2)
    sp = F(0, 0, 2.0, 2.0)
    t = CoeffField(win, 1, {DyadicCube(1, 1, (0,)): [1.0]})

    def sliver(q):
        lo = np.array(q.lower)
        hi = np.array(q.upper)
        return lo, lo + (hi - lo) / 8

    with pytest.raises(PreconditionError):
        subset_norm(t, sliver, sp, delta=0.5)


def test_subset_norm_requires_f_family():
    win = _window()
    t = CoeffField(win, 1, {DyadicCube(1, 0, (0,)): [1.0]})
    with pytest.raises(PreconditionError):
        subset_norm(t, lambda q: (q.lower, q.upper), B(0, 0, 2, 2), delta=0.5)


# ---------------------------------------------------------------------------
# csv round trip

def test_csv_roundtrip():
    win = LatticeWindow(2, 0, 2, (0, 0), (1, 1))
    rng = np.random.default_rng(9)
    t = CoeffField.random(win, 2, rng, density=0.4, complex_values=True)
    text = t.to_csv()
    t2 = CoeffField.from_csv(text, win, 2)
    assert set(t.cubes()) == set(t2.cubes())
    for q in t.cubes():
        assert np.allclose(t.get(q), t2.get(q))


@pytest.mark.parametrize("second", ["2.0, 0.0", "0.0, 0.0"])
def test_csv_refuses_duplicate_cube(second):
    # a later line for the same cube would silently replace the first one,
    # also when either line holds zeros (which are not stored)
    win = LatticeWindow(2, 0, 2, (0, 0), (1, 1))
    text = f"1:1,0, 1.0, 0.0\n2:3,3, 0.5, 0.0\n1:1,0, {second}\n"
    with pytest.raises(PreconditionError, match=r"duplicate .* cube 1:1,0"):
        CoeffField.from_csv(text, win, 1)


def _la_norm_bruteforce(stack, sp):
    """Independent reimplementation: explicit loops over window cubes."""
    win = stack.window
    vol = stack.cell_volume
    levels = sorted(stack.levels)
    best, best_cube = -1.0, None
    for j_p in range(win.j_min, win.j_max + 1):
        for P in win.cubes(j_p):
            pts = stack.midpoints()
            inside = P.contains(pts)
            if sp.family == "B":
                acc = []
                for j in levels:
                    if j < j_p:
                        continue
                    cells = np.abs(stack.levels[j]).ravel()[inside]
                    acc.append((np.sum(cells ** sp.p) * vol) ** (1 / sp.p))
                if not acc:
                    continue
                if sp.q == math.inf:
                    agg = max(acc)
                else:
                    agg = float(np.sum([a ** sp.q for a in acc]) ** (1 / sp.q))
            else:
                per_cell = []
                for j in levels:
                    if j < j_p:
                        continue
                    per_cell.append(np.abs(stack.levels[j]).ravel()[inside])
                if not per_cell:
                    continue
                arr = np.stack(per_cell)
                if sp.q == math.inf:
                    point = arr.max(axis=0)
                else:
                    point = (arr ** sp.q).sum(axis=0) ** (1 / sp.q)
                agg = float((np.sum(point ** sp.p) * vol) ** (1 / sp.p))
            val = P.volume ** -sp.tau * agg
            if val > best:
                best, best_cube = val, P
    return best, best_cube


def test_la_norm_matches_bruteforce_oracle():
    rng = np.random.default_rng(21)
    win = LatticeWindow(1, -1, 2, (-2,), (2,))
    for family in ("B", "F"):
        for (tau, p, q) in [(0.0, 2.0, 2.0), (0.3, 1.0, 0.5), (0.15, 0.7, math.inf)]:
            sp = SpaceParams(family, 0.2, tau, p, q)
            stack = LevelFunctionStack(win, 4, {})
            for j in range(-1, 3):
                if rng.random() < 0.8:
                    stack.levels[j] = rng.random(stack.grid_shape)
            if not stack.levels:
                continue
            got = la_norm(stack, sp)
            expect, expect_cube = _la_norm_bruteforce(stack, sp)
            assert got.value == pytest.approx(expect, rel=1e-11), (family, tau, p, q)
            assert got.attaining == expect_cube
