import contextlib
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dyadica.seq as seq_module

from dyadica.dyadic import DyadicCube, LatticeWindow
from dyadica.errors import PreconditionError
from dyadica.params import BESOV, INF, TRIEBEL_LIZORKIN, SpaceParams
from dyadica.seq import (
    CoeffField,
    LevelFunctionStack,
    NormResult,
    equivalence_report,
    la_norm,
    la_norms,
    seq_norm_averaged,
    seq_norm_weighted,
    seq_norms_averaged,
    seq_norms_weighted,
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
    arr.flat[np.all((pts >= q.lower) & (pts < q.upper), axis=-1)] = 1.0
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
        else:
            # q and its ancestors tie exactly; the coarsest one is reported
            for family in (B(0, tau, p, 2.0), F(0, tau, p, 2.0)):
                res = la_norm(stack, family)
                assert res.attaining == q.ancestor(q.j - win.j_min) and res.boundary_flag


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
    sp = B(0.4, 0.25, 1.5, 2.0)
    fam = ReducingFamily.identity(m, sp.p, win)
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
    p = 1.3
    fam = ReducingFamily.identity(1, p, win)
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


def _subset_norm_reference(t, selector, sp, delta, grid_extra=3):
    """One pass over every coefficient per level, as before the single pass."""
    win = t.window
    grid_level = win.j_max + grid_extra
    stack = LevelFunctionStack(win, grid_level, {})
    h = math.ldexp(1.0, -grid_level)
    for j in t.levels():
        g = np.zeros(stack.grid_shape)
        for q, v in t.items():
            if q.j != j:
                continue
            lo, hi = (np.asarray(b, dtype=float) for b in selector(q))
            sl, cube_cells, sub_cells = [], 1, 1
            for axis in range(win.n):
                a0 = int(round((lo[axis] - win.lo[axis]) / h))
                a1 = int(round((hi[axis] - win.lo[axis]) / h))
                sl.append(slice(a0, a1))
                sub_cells *= max(a1 - a0, 0)
                cube_cells *= 1 << (grid_level - j)
            if sub_cells < delta * cube_cells - 1e-9:
                raise PreconditionError(f"selector keeps too few cells of {q}")
            g[tuple(sl)] += float(np.abs(v[0]))
        stack.levels[j] = 2.0 ** (j * (sp.s + win.n / 2.0)) * g
    return la_norm(stack, sp, win)


@pytest.mark.parametrize("n", [1, 2])
def test_subset_norm_matches_per_level_oracle(n):
    win = LatticeWindow(n, -1, 2, (-2,) * n, (2,) * n)
    sp = F(0.2, 0.1, 1.5, 2.0)
    rng = np.random.default_rng(n)

    def corner(q):
        lo = np.array(q.lower)
        return lo, lo + 0.75 * (np.array(q.upper) - lo)

    for _ in range(3):
        t = CoeffField.random(win, 1, rng, density=0.4)
        assert subset_norm(t, corner, sp, 0.25) == _subset_norm_reference(t, corner, sp, 0.25)


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
    # the first line gives the dimension; a text with no lines has m = 1 unless m is given
    assert CoeffField.from_csv(text, win).rows().tobytes() == t2.rows().tobytes()
    assert CoeffField.from_csv(text.replace("\n", "\r\n"), win).m == 2
    assert CoeffField.from_csv("# none\n\n", win).m == 1
    empty = CoeffField.from_csv("", win, 2)
    assert empty.m == 2 and not len(empty) and empty.rows().shape == (win.count(), 2)


def test_csv_keeps_signed_zeros_and_refuses_misplaced_fields():
    win = LatticeWindow(2, 0, 2, (0, 0), (1, 1))
    t = CoeffField.from_csv("# comment\n\n 1:1,0, -0.0, 1.5 \n2:3,3, 2.0, -0.0\n", win, 1)
    assert np.signbit(t.get(DyadicCube(2, 1, (1, 0))).real[0])
    assert np.signbit(t.get(DyadicCube(2, 2, (3, 3))).imag[0])
    # the colon must sit in the first field; an index must be an integer
    for bad in ("1,1:0, 1.0, 0.0", "1:1,0.5, 1.0, 0.0", "1:1,0, 1.0, x"):
        with pytest.raises(PreconditionError, match=re.escape(f"bad coefficient line {bad!r}")):
            CoeffField.from_csv(f"2:3,3, 2.0, 0.0\n{bad}\n1:1,1, 1.0, 0.0\n", win, 1)
    with pytest.raises(PreconditionError, match="exceeds 64 bits"):
        CoeffField.from_csv(f"1:{2 ** 70},0, 1.0, 0.0\n", win, 1)


@pytest.mark.parametrize("imag, dtype", [("0.0", np.float64), ("-0.0", np.complex128),
                                         ("0.5", np.complex128)])
def test_csv_field_is_real_unless_an_imaginary_bit_is_set(imag, dtype):
    win = LatticeWindow(2, 0, 2, (0, 0), (1, 1))
    def csv(im):
        return f"1:1,0, -0.0, 0.0, 1.5, 0.0\n2:3,3, 2.0, 0.0, -1.0, {im}\n"

    text = csv(imag)
    t = CoeffField.from_csv(text, win, 2)
    assert t.level(1).dtype == t.level(2).dtype == dtype
    assert t.rows().dtype == t.nonzero()[1].dtype == dtype
    # the API edge stays complex; the text comes back byte for byte
    assert all(v.dtype == np.complex128 for _, v in t.items())
    assert t.get(DyadicCube(2, 1, (1, 0))).dtype == np.complex128
    assert t.to_csv() == text
    # a complex write promotes the whole real field, and keeps the values
    r = CoeffField.from_csv(csv("0.0"), win, 2)
    r.set(DyadicCube(2, 1, (0, 0)), [1j, 0.0])
    assert r.level(1).dtype == r.level(2).dtype == r.rows().dtype == np.complex128
    assert r.get(DyadicCube(2, 2, (3, 3))).tobytes() == np.array([2.0, -1.0 + 0j]).tobytes()
    assert r.get(DyadicCube(2, 1, (1, 0))).tobytes() == np.array([-0.0, 1.5 + 0j]).tobytes()


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
            inside = np.all((pts >= P.lower) & (pts < P.upper), axis=-1)
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


def test_la_norm_unaligned_box_matches_bruteforce_oracle():
    # a box edge that is not a multiple of the coarsest cube side: the level
    # -1 cubes start one cell into the grid, not at its first cell
    rng = np.random.default_rng(4)
    for win in (LatticeWindow(1, -1, 1, (-3,), (1,)), LatticeWindow(2, -1, 0, (-3, 0), (2, 3))):
        for family in ("B", "F"):
            sp = SpaceParams(family, 0.2, 0.4, 1.5, 2.0)
            stack = LevelFunctionStack(win, win.j_max + 2, {})
            for j in range(win.j_min, win.j_max + 1):
                stack.levels[j] = rng.random(stack.grid_shape)
            got = la_norm(stack, sp)
            expect, expect_cube = _la_norm_bruteforce(stack, sp)
            assert got.value == pytest.approx(expect, rel=1e-12)
            assert got.attaining == expect_cube


# ---------------------------------------------------------------------------
# negative stack grid levels


def test_negative_grid_level_norm_matches_finer_grid():
    # a constant weight does not see the grid resolution
    win = LatticeWindow(1, -3, -2, (-8,), (8,))
    t = CoeffField(win, 2, {DyadicCube(1, -3, (-1,)): [1.0, 2.0], DyadicCube(1, -2, (1,)): [0.5, 0.0]})
    W = MatrixWeight.constant([[2.0, 0.5], [0.5, 1.0]], 1)
    sp = B(0.3, 0.1, 1.5, 2.0)
    coarse = seq_norm_weighted(t, W, sp, grid_extra=0)
    fine = seq_norm_weighted(t, W, sp, grid_extra=4)
    assert coarse.value == pytest.approx(fine.value, rel=1e-12)
    assert coarse.attaining == fine.attaining
    fam = ReducingFamily.identity(2, sp.p, win)
    assert seq_norm_averaged(t, fam, sp).value > 0


def test_negative_grid_level_refuses_box_that_is_not_whole_cells():
    win = LatticeWindow(1, -3, -3, (-9,), (8,))
    t = CoeffField(win, 1, {DyadicCube(1, -3, (0,)): [1.0]})
    with pytest.raises(PreconditionError, match=r"grid level -2 does not tile .* multiples of 4"):
        seq_norm_weighted(t, MatrixWeight.identity(1, 1), B(0, 0, 2, 2), grid_extra=1)
    # a finer grid tiles the same box
    assert seq_norm_weighted(t, MatrixWeight.identity(1, 1), B(0, 0, 2, 2), grid_extra=3).value > 0


# ---------------------------------------------------------------------------
# batched norms against per-stack calls and the per-stack reference


def la_norm_reference(stack, sp, window=None):
    """The per-stack norm as it was before the batched pass: one stack, a
    Python loop over window levels, a box whose edges are multiples of the
    coarsest cube side."""
    window = window or stack.window
    levels = sorted(stack.levels)
    if not levels:
        return NormResult(0.0, None, False)
    n = window.n
    vol = stack.cell_volume
    best = -1.0
    best_cube = None
    q_inf = sp.q_is_inf
    arrs = {j: np.abs(stack.levels[j]) for j in levels}
    for j_p in range(window.j_min, window.j_max + 1):
        contributing = [j for j in levels if j >= j_p]
        if not contributing:
            continue
        r = stack.grid_level - j_p

        def block_reduce(cells):
            out = cells
            for axis in range(n):
                shape = out.shape
                nb = shape[axis] >> r
                new_shape = shape[:axis] + (nb, 1 << r) + shape[axis + 1:]
                out = out.reshape(new_shape).sum(axis=axis + 1)
            return out

        if sp.family == BESOV:
            acc = None
            for j in contributing:
                term = (block_reduce(arrs[j] ** sp.p) * vol) ** (1.0 / sp.p)
                if q_inf:
                    acc = term if acc is None else np.maximum(acc, term)
                else:
                    acc = term ** sp.q if acc is None else acc + term ** sp.q
            vals = acc if q_inf else acc ** (1.0 / sp.q)
        else:
            if q_inf:
                pointwise = arrs[contributing[0]].copy()
                for j in contributing[1:]:
                    np.maximum(pointwise, arrs[j], out=pointwise)
            else:
                pointwise = sum(arrs[j] ** sp.q for j in contributing) ** (1.0 / sp.q)
            vals = (block_reduce(pointwise ** sp.p) * vol) ** (1.0 / sp.p)
        vals = vals * math.ldexp(1.0, j_p * n) ** sp.tau
        flat = int(np.argmax(vals))
        v = float(vals.flat[flat])
        if v > best:
            best = v
            idx = np.unravel_index(flat, vals.shape)
            bounds = window.index_bounds(j_p)
            best_cube = DyadicCube(n, j_p, tuple(b[0] + i for b, i in zip(bounds, idx)))
    return NormResult(max(best, 0.0), best_cube,
                      best_cube is not None and best_cube.j == window.j_min)


@st.composite
def _aligned_windows(draw):
    """1D and 2D windows with negative j_min and boxes off the origin, whose
    edges are multiples of the coarsest cube side."""
    n = draw(st.sampled_from((1, 2)))
    j_min = draw(st.integers(-2, 1))
    j_max = min(j_min + draw(st.integers(0, 2)), 2 if n == 2 else 3)
    step = 1 << max(0, -j_min)
    lo, hi = [], []
    for _ in range(n):
        a = step * draw(st.integers(-1, 1))
        lo.append(a)
        hi.append(a + step * draw(st.integers(1, 2)))
    return LatticeWindow(n, j_min, j_max, tuple(lo), tuple(hi))


_SPACES = st.builds(SpaceParams, st.sampled_from((BESOV, TRIEBEL_LIZORKIN)),
                    st.floats(-0.5, 0.5), st.floats(0.0, 0.6), st.sampled_from((0.7, 1.0, 2.0)),
                    st.sampled_from((0.5, 2.0, INF)))


@given(window=_aligned_windows(), sp=_SPACES, samples=st.integers(1, 6),
       extra=st.integers(0, 2), seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_la_norms_rows_match_single_stack_calls(window, sp, samples, extra, seed):
    rng = np.random.default_rng(seed)
    stack = LevelFunctionStack(window, window.j_max + extra, {}, samples)
    for j in range(window.j_min, window.j_max + 1):
        if rng.random() < 0.7:
            # some samples vanish on a level, some everywhere
            keep = rng.random(samples) < 0.7
            stack.levels[j] = rng.random((samples,) + stack.grid_shape) * keep[
                (slice(None),) + (None,) * window.n]
    got = la_norms(stack, sp)
    assert len(got) == samples
    for s, res in enumerate(got):
        one = stack.sample(s)
        assert res == la_norm(one, sp)
        if not any(np.any(a) for a in one.levels.values()):
            assert res == NormResult(0.0, None, False)
            continue
        ref = la_norm_reference(one, sp)
        assert res.value == pytest.approx(ref.value, rel=1e-12, abs=0)
        assert (res.attaining, res.boundary_flag) == (ref.attaining, ref.boundary_flag)


@given(n=st.sampled_from((1, 2)), j_min=st.integers(-1, 1), depth=st.integers(1, 4),
       p=st.sampled_from((0.7, 2.0)), q=st.sampled_from((0.5, 1.0, 3.0, INF)),
       tau=st.floats(0.0, 0.6), samples=st.integers(1, 4), seed=st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_la_norms_f_running_sum_matches_rebuild(n, j_min, depth, p, q, tau, samples, seed):
    # the F family keeps a running sum of |f_j|^q from the finest level down;
    # the reference rebuilds it from every contributing level for each P.
    # Levels below j_min, above j_max and gaps between levels included.
    j_max = j_min + (min(depth, 3) if n == 2 else depth)
    step = 1 << max(0, -j_min)
    window = LatticeWindow(n, j_min, j_max, (-step,) * n, (step,) * n)
    rng = np.random.default_rng(seed)
    stack = LevelFunctionStack(window, j_max + 1, {}, samples)
    for j in range(j_min - 1, j_max + 2):
        if rng.random() < 0.7:
            stack.levels[j] = rng.random((samples,) + stack.grid_shape)
    sp = F(0.0, tau, p, q)
    for s, res in enumerate(la_norms(stack, sp)):
        ref = la_norm_reference(stack.sample(s), sp)
        if ref.attaining is None:
            assert res == NormResult(0.0, None, False)
            continue
        assert res.value == pytest.approx(ref.value, rel=1e-12, abs=0)
        assert (res.attaining, res.boundary_flag) == (ref.attaining, ref.boundary_flag)


@st.composite
def _unaligned_windows(draw):
    """1D and 2D windows with negative j_min whose box edges need not be
    multiples of the coarsest cube side."""
    n = draw(st.sampled_from((1, 2)))
    j_min = draw(st.integers(-2, 0))
    j_max = j_min + draw(st.integers(0, 2))
    step = 1 << -j_min
    lo = [draw(st.integers(-3, 2)) for _ in range(n)]
    hi = [a + draw(st.integers(2 * step - 1, 2 * step + 1)) for a in lo]
    return LatticeWindow(n, j_min, j_max, tuple(lo), tuple(hi))


@given(window=_unaligned_windows(), sp=_SPACES, extra=st.integers(0, 1),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_la_norm_unaligned_windows_match_bruteforce(window, sp, extra, seed):
    rng = np.random.default_rng(seed)
    stack = LevelFunctionStack(window, max(window.j_max, 0) + extra, {})
    for j in range(window.j_min, window.j_max + 1):
        if rng.random() < 0.8:
            stack.levels[j] = rng.random(stack.grid_shape)
    if not stack.levels:
        return
    got = la_norm(stack, sp)
    expect, expect_cube = _la_norm_bruteforce(stack, sp)
    assert got.value == pytest.approx(expect, rel=1e-12, abs=0)
    assert got.attaining == expect_cube


def test_la_norms_refuses_single_stack():
    with pytest.raises(PreconditionError, match="batched stack"):
        la_norms(LevelFunctionStack(_window(), 5, {}), B(0, 0, 2, 2))


@given(window=_aligned_windows(), m=st.sampled_from((1, 2)), samples=st.integers(1, 7),
       family=st.sampled_from((BESOV, TRIEBEL_LIZORKIN)), block=st.sampled_from((1, 3, None)),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=30, deadline=None)
def test_batched_field_norms_match_per_field_calls(window, m, samples, family, block, seed):
    # the sample blocks of the raster (m = 2 weighted) and of the factored F
    # path give the per-field norms exactly
    rng = np.random.default_rng(seed)
    fields = [CoeffField.random(window, m, rng, density=0.4, complex_values=True)
              for _ in range(samples)]
    rows = np.stack([t.rows() for t in fields])
    sp = SpaceParams(family, 0.2, 0.1, 1.5, 2.0)
    W = MatrixWeight.diag_power(np.arange(1.0, m + 1), np.linspace(0.2, -0.3, m), window.n,
                                floor=0.1)
    fam = ReducingFamily.build(W, sp.p, window, QuadratureSpec(2, 1))
    with (mock.patch.object(seq_module, "_samples_per_block", lambda per_sample: block)
          if block else contextlib.nullcontext()):
        weighted = seq_norms_weighted(window, rows, W, sp, 1)
        averaged = seq_norms_averaged(window, rows, fam, sp)
    assert len(weighted) == len(averaged) == samples
    for t, a, b in zip(fields, weighted, averaged):
        assert a == seq_norm_weighted(t, W, sp, 1)
        assert b == seq_norm_averaged(t, fam, sp)


def equivalence_report_reference(fields, W, fam, sp):
    """The per-field report: two norms per field, one field at a time."""
    ratios, skipped = [], 0
    for t in fields:
        a = seq_norm_weighted(t, W, sp).value
        b = seq_norm_averaged(t, fam, sp).value
        if a == 0.0 or b == 0.0:
            skipped += 1
            continue
        ratios.append(a / b)
    return {"count": len(ratios), "skipped_zero": skipped, "min": min(ratios),
            "max": max(ratios), "spread": max(ratios) / min(ratios)}


def test_equivalence_report_matches_per_field_reference():
    win = LatticeWindow(2, -1, 1, (-2, 0), (2, 2))
    W = MatrixWeight.diag_power([1.0, 2.0], [0.3, -0.2], n=2, floor=0.1)
    sp = F(0.1, 0.2, 1.5, INF)
    fam = ReducingFamily.build(W, sp.p, win, QuadratureSpec(2, 1))
    rng = np.random.default_rng(12)
    fields = [CoeffField.random(win, 2, rng, density=0.3) for _ in range(9)] + [CoeffField(win, 2)]
    with mock.patch.object(seq_module, "_samples_per_block", lambda per_sample: 4):
        got = equivalence_report(fields, W, fam, sp)
    assert got == equivalence_report_reference(fields, W, fam, sp)
    assert got["skipped_zero"] >= 1


def test_equivalence_report_refuses_mixed_windows():
    W = MatrixWeight.identity(1, 1)
    fam = ReducingFamily.identity(1, 2.0, _window())
    fields = [CoeffField(_window(), 1, {DyadicCube(1, 0, (0,)): [1.0]}),
              CoeffField(_window(j_max=2), 1, {DyadicCube(1, 0, (0,)): [1.0]})]
    with pytest.raises(PreconditionError, match="share one window"):
        equivalence_report(fields, W, fam, B(0, 0, 2, 2))


# window 0:1:0..1, the m = 2 field 0:0 -> (1, 2), 1:1 -> (-1, 5.5) and the
# constant weight diag(2, 1)
_M2_FIELD = CoeffField(_window(j_max=1), 2, {DyadicCube(1, 0, (0,)): [1.0, 2.0],
                                             DyadicCube(1, 1, (1,)): [-1.0, 5.5]})
_DIAG_2_1 = MatrixWeight.constant([[2.0, 0.0], [0.0, 1.0]], 1)
# its m = 1 analogue, 0:0 -> 1, 1:1 -> 5.5
_M1_FIELD = CoeffField(_window(j_max=1), 1, {DyadicCube(1, 0, (0,)): [1.0],
                                             DyadicCube(1, 1, (1,)): [5.5]})


def _whole_cubes(q):
    return q.lower, q.upper


def _cube_and_its_right_neighbour(q):
    return q.lower, tuple(u + q.side for u in q.upper)


@pytest.mark.parametrize("call, message", [
    (lambda: CoeffField(_window(), 1).write(0, (5,), np.ones((1, 1))),
     "cube 0:5 outside the window"),
    (lambda: CoeffField(_window(), 1).write_all(np.zeros((3, 1))),
     r"field rows have shape \(3, 1\), expected \(15, 1\)"),
    (lambda: CoeffField(_window(), 1).plus(CoeffField(_window(j_max=2), 1)),
     "share one window and dimension"),
    (lambda: CoeffField(_window(), 1).plus(CoeffField(_window(), 2)),
     "share one window and dimension"),
    (lambda: LevelFunctionStack(_window(j_max=3), 2),
     "grid must be at least as fine as the finest level"),
    (lambda: equivalence_report([], MatrixWeight.identity(1, 1),
                                ReducingFamily.identity(1, 2.0, _window()), B(0, 0, 2, 2)),
     "ensemble contains no nonzero fields"),
    (lambda: subset_norm(CoeffField(_window(), 2), _whole_cubes, F(0.3, 0.2, 1.5, 2.0), 0.5),
     "subset norms take scalar coefficient fields"),
    (lambda: subset_norm(CoeffField(_window(), 1, {DyadicCube(1, 1, (0,)): [1.0]}),
                         _cube_and_its_right_neighbour, F(0.3, 0.2, 1.5, 2.0), 0.5),
     "selector box leaves the cube 1:0"),
    (lambda: seq_norm_weighted(CoeffField(_window(), 2), MatrixWeight.identity(1, 1),
                               B(0, 0, 2, 2)),
     "coefficient and weight dimensions differ: m = 2 and m = 1"),
    (lambda: seq_norm_averaged(CoeffField(_window(), 1, {DyadicCube(1, 1, (0,)): [1.0]}),
                               ReducingFamily.identity(1, 2.0, _window()), B(0, 0, 3.0, 2.0)),
     r"reducing operators of order p = 2\.0 cannot serve a space with p = 3\.0"),
    (lambda: seq_norm_averaged(CoeffField(_window(), 2, {DyadicCube(1, 1, (0,)): [1.0, 0.0]}),
                               ReducingFamily.identity(3, 2.0, _window()), B(0, 0, 2.0, 2.0)),
     "coefficient and weight dimensions differ: m = 2 and m = 3"),
    # 2^(j s) overflows at level 1 and, through j s = inf, at level 2; 2^(j n tau) at level 1
    (lambda: seq_norm_weighted(CoeffField(_window(), 1, {DyadicCube(1, 2, (0,)): [1.0]}),
                               MatrixWeight.identity(1, 1), B(1e308, 0, 2, 2)),
     r"s = 1e\+308 is too large: the level-2 factor of the norm overflows"),
    (lambda: seq_norm_averaged(CoeffField(_window(), 1, {DyadicCube(1, 1, (0,)): [1.0]}),
                               ReducingFamily.identity(1, 2.0, _window()), B(1e308, 0, 2, 2)),
     r"s = 1e\+308 is too large: the level-1 factor of the norm overflows"),
    (lambda: seq_norm_weighted(CoeffField(_window(), 1, {DyadicCube(1, 1, (0,)): [1.0]}),
                               MatrixWeight.identity(1, 1), F(0, 1e308, 2, 2)),
     r"tau = 1e\+308 is too large: the level-1 factor of the norm overflows"),
    # the factors fit a float, but the level-1 values of the m = 2 field times
    # them do not: B and F alike
    (lambda: seq_norm_weighted(_M2_FIELD, _DIAG_2_1, B(0, 1023.5, 2, 2)),
     r"tau = 1023\.5 is too large: the level-1 values of the norm overflow"),
    (lambda: seq_norm_weighted(_M2_FIELD, _DIAG_2_1, B(1023.5, 0, 2, 2)),
     r"s = 1023\.5 is too large: the level-1 values of the norm overflow"),
    (lambda: seq_norm_weighted(_M2_FIELD, _DIAG_2_1, F(0, 1023.5, 2, 2)),
     r"tau = 1023\.5 is too large: the level-1 values of the norm overflow"),
    (lambda: seq_norm_weighted(_M2_FIELD, _DIAG_2_1, F(1023.5, 0, 2, 2)),
     r"s = 1023\.5 is too large: the level-1 values of the norm overflow"),
    # the level-1 values times 2^(600) fit a float, but their squares do not:
    # the factored (m = 1) and the raster (m = 2) F paths alike; a stack a
    # caller builds is refused without a name
    (lambda: seq_norm_weighted(_M1_FIELD, MatrixWeight.constant([[2.0]], 1), F(600, 0, 2, 2)),
     r"s = 600 is too large: the level-1 values of the norm overflow"),
    (lambda: seq_norm_weighted(_M2_FIELD, _DIAG_2_1, F(600, 0, 2, 2)),
     r"s = 600 is too large: the level-1 values of the norm overflow"),
    (lambda: la_norm(LevelFunctionStack(_window(j_max=1), 1, {1: np.full(2, 1e200)}),
                     F(0, 0, 2, 2)),
     r"^the level-1 sums of the norm overflow$"),
    (lambda: CoeffField(_window(), 0), "the vector dimension m must be at least 1, got 0"),
    (lambda: CoeffField.from_csv("0:0, 1.0, 0.0\n", _window(), -1),
     "the vector dimension m must be at least 1, got -1"),
    (lambda: CoeffField.from_csv("# m = 2\n0:0, 1.0, 0.0, 2.0, 0.0\n", _window(), 1),
     re.escape("coefficient line '0:0, 1.0, 0.0, 2.0, 0.0' holds vectors of dimension "
               "m = 2, but m = 1 is needed")),
], ids=["write-outside", "write-all-shape", "plus-window", "plus-dimension", "coarse-stack-grid",
        "empty-ensemble", "subset-vector-field", "subset-box-leaves-cube", "weight-dimension",
        "averaged-order", "averaged-dimension", "weighted-s-overflow", "averaged-s-overflow",
        "tau-overflow", "b-tau-values-overflow", "b-s-values-overflow", "f-tau-values-overflow",
        "f-s-values-overflow", "f-s-power-overflow-m1", "f-s-power-overflow-m2",
        "stack-sums-overflow", "field-m-zero", "csv-m-negative", "csv-dimension"])
def test_field_and_norm_refusals(call, message):
    with pytest.raises(PreconditionError, match=message):
        call()


def test_zero_block_outside_the_window_is_ignored():
    t = CoeffField(_window(), 1, {DyadicCube(1, 1, (1,)): [2.0]})
    before = t.rows().copy()
    t.write(1, (7,), np.zeros((1, 3)))
    t.write(0, (-4,), np.zeros((1, 2)))
    assert np.array_equal(t.rows(), before)
