import contextlib
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_coeff_field import DictField, averaged_stack_reference, weighted_stack_reference
from test_seq import la_norm_reference

import dyadica.seq as seq_module
from dyadica.ad import (
    ADMatrix,
    _adversarial_fields,
    apply,
    apply_rows,
    bdef_block,
    bdef_entry,
    empirical_norm,
    gram_matrix,
)
from dyadica.dyadic import CubeArrays, DyadicCube, LatticeWindow
from dyadica.errors import PreconditionError
from dyadica.molecules import MoleculeFamily, MoleculeParams, make_atom, wavelet_family
from dyadica.params import BESOV, INF, TRIEBEL_LIZORKIN, SpaceParams, ad_region, derived_indices
from dyadica.seq import CoeffField
from dyadica.wavelets import WaveletSystem, daubechies_filter
from dyadica.weights import MatrixWeight, QuadratureSpec, ReducingFamily


def test_bdef_values():
    q = DyadicCube(1, 0, (0,))
    assert bdef_entry(q, q, 2.0, 1.0, 1.0) == 1.0
    qf = DyadicCube(1, 1, (0,))
    r = DyadicCube(1, 0, (1,))
    # distance term 2, scale gap (1/2)^E
    assert bdef_entry(qf, r, 3.0, 1.5, 9.9) == pytest.approx(2.0 ** -3 * 2.0 ** -1.5)
    # swapping exchanges E and F roles
    assert bdef_entry(r, qf, 3.0, 9.9, 1.5) == pytest.approx(bdef_entry(qf, r, 3.0, 1.5, 9.9))


def test_bdef_monotone_in_distance():
    D, E, F = 2.0, 1.0, 1.0
    q = DyadicCube(1, 2, (0,))
    vals = [bdef_entry(q, DyadicCube(1, 2, (k,)), D, E, F) for k in range(0, 10)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_apply_identity_and_delta():
    win = LatticeWindow(1, 0, 2, (0,), (2,))
    rng = np.random.default_rng(0)
    t = CoeffField.random(win, 2, rng, density=0.5, complex_values=True)
    out = apply(ADMatrix.identity(), t)
    assert set(out.cubes()) == set(t.cubes())
    for q in t.cubes():
        assert np.allclose(out.get(q), t.get(q))

    B = ADMatrix.model(2.0, 1.0, 1.0)
    r0 = DyadicCube(1, 1, (1,))
    delta = CoeffField(win, 1, {r0: [2.0]})
    out2 = apply(B, delta)
    for q in win.all_cubes():
        assert out2.get(q)[0] == pytest.approx(2.0 * bdef_entry(q, r0, 2.0, 1.0, 1.0))


def test_apply_linearity():
    win = LatticeWindow(1, 0, 2, (0,), (1,))
    rng = np.random.default_rng(1)
    B = ADMatrix.model(2.0, 1.0, 1.0)
    t = CoeffField.random(win, 1, rng, density=0.6)
    u = CoeffField.random(win, 1, rng, density=0.6)
    lhs = apply(B, t.plus(u.scaled(2.0)))
    rhs = apply(B, t).plus(apply(B, u).scaled(2.0))
    for q in win.all_cubes():
        assert np.allclose(lhs.get(q), rhs.get(q), atol=1e-13)


def test_empirical_norm_refuses_a_matrix_that_annihilates_every_field():
    sp = SpaceParams(BESOV, 0.0, 0.0, 2.0, 2.0)
    zero = ADMatrix(lambda rows, cols: np.zeros((len(rows), len(cols))))
    with pytest.raises(PreconditionError, match="ensemble is degenerate: all fields vanish"):
        empirical_norm(zero, sp, depths=(2,))


def test_empirical_norm_refuses_a_negative_seed():
    sp = SpaceParams(BESOV, 0.0, 0.0, 2.0, 2.0)
    with pytest.raises(PreconditionError, match="seed must be nonnegative, got -1"):
        empirical_norm(ADMatrix.identity(), sp, depths=(2,), seed=-1)


def test_empirical_norm_identity():
    sp = SpaceParams(BESOV, 0.0, 0.0, 2.0, 2.0)
    rep = empirical_norm(ADMatrix.identity(), sp, depths=(2, 3, 4))
    assert all(abs(e - 1.0) < 1e-9 for e in rep["estimates"])


def test_empirical_norm_inside_region_bounded():
    # generic-data estimates of a bounded operator plateau across depths
    sp = SpaceParams(BESOV, 0.0, 0.0, 1.0, 1.0)
    di = derived_indices(sp, 1, 0.0)
    region = ad_region(di, 1)
    D, E, F = region.point_inside(0.1)
    rep = empirical_norm(ADMatrix.model(D, E, F), sp, depths=(3, 4, 5))
    assert rep["randomized_growth"] <= 1.2, rep


def test_empirical_norm_violated_E_grows():
    # the vertical-stack adversarial component exposes the decay violation
    sp = SpaceParams(BESOV, 0.0, 0.0, 1.0, 1.0)
    di = derived_indices(sp, 1, 0.0)
    region = ad_region(di, 1)
    D = region.d_min + 0.1
    E = region.e_min - 0.5
    F = region.f_min + 0.1
    rep = empirical_norm(ADMatrix.model(D, E, F), sp, depths=(3, 5))
    assert rep["adversarial_growth"] >= 2.0, rep
    # and the same component stays much flatter inside the region
    rep_in = empirical_norm(ADMatrix.model(*region.point_inside(0.1)), sp, depths=(3, 5))
    assert rep_in["adversarial_growth"] < rep["adversarial_growth"]


# ---------------------------------------------------------------------------
# gram matrices

def _orthonormal_gram_setup(order=4, j_max=2):
    sys = WaveletSystem(1, daubechies_filter(order), resolution=12)
    win = LatticeWindow(1, 0, j_max, (0,), (2,))
    params = MoleculeParams(3.0, float(order - 1), 3.0, 1.0)
    fam = wavelet_family(sys, (1,), params)
    return sys, win, fam


def _pair_inner_product(fa, fs, quad_points: int) -> tuple[complex, float]:
    """Inner product of two candidates over the intersection of supports,
    midpoint rule with one refinement for the convergence check: the oracle
    of gram_matrix."""
    n = fa.cube.n
    lo = np.full(n, -np.inf)
    hi = np.full(n, np.inf)
    for f in (fa, fs):
        c = np.array(f.cube.center)
        lo = np.maximum(lo, c - f.support_radius * f.cube.side)
        hi = np.minimum(hi, c + f.support_radius * f.cube.side)
    if np.any(lo >= hi):
        return 0.0, 0.0

    def midpoint(cells: int) -> complex:
        pts, vol = QuadratureSpec(cells, 0).nodes(lo, hi)
        return complex(np.sum(fa(pts) * np.conj(fs(pts))) * vol)

    coarse = midpoint(quad_points // 2 if n == 1 else 48)
    fine = midpoint(quad_points if n == 1 else 96)
    return fine, abs(fine - coarse)


def _scaled_family(fam, factor, **changes):
    """fam's members times ``factor``, with the candidate fields ``changes``."""
    def member(q):
        m = fam(q)
        return dataclasses.replace(m, func=lambda pts: factor * m.func(pts), **changes)

    return MoleculeFamily(fam.params, member, "scaled")


def test_gram_orthonormal_family_is_identity():
    _, win, fam = _orthonormal_gram_setup()
    rep = gram_matrix(fam, fam, win, n=1, quad_points=4096)
    for (q, p), v in rep["entries"].items():
        target = 1.0 if q == p else 0.0
        assert abs(v - target) < 1e-8, (q, p, v)


def test_gram_matches_per_pair_quadrature_oracle():
    # db4 against db5 on the acceptance window: every entry against the
    # per-pair midpoint rule at 8192 points, whose own error is about 1e-7
    sys4, win, fam4 = _orthonormal_gram_setup(j_max=4)
    fam5 = wavelet_family(WaveletSystem(1, daubechies_filter(5), resolution=12), (1,),
                          MoleculeParams(3.0, 4.0, 3.0, 1.5))
    rep = gram_matrix(fam4, fam5, win, n=1, quad_points=2048)
    members = {r: fam5(r) for r in win.all_cubes()}
    for q in win.all_cubes():
        fa = fam4(q)
        for r, fs in members.items():
            oracle, _ = _pair_inner_product(fa, fs, 8192)
            assert abs(rep["entries"][(q, r)] - oracle) < 2e-7, (q, r)
    assert rep["fitted_C"] == pytest.approx(68.6875, rel=1e-4)
    assert rep["underresolved"] == [] and rep["n_pairs"] == 62 ** 2


def test_gram_conjugates_the_synthesis_family():
    # <psi_Q, i psi_R> = -i <psi_Q, psi_R>, relative to the largest entry:
    # complex products sum in another order than real ones
    _, win, fam = _orthonormal_gram_setup()
    real = gram_matrix(fam, fam, win, n=1, quad_points=1024)["entries"]
    imag = gram_matrix(fam, _scaled_family(fam, 1j), win, n=1, quad_points=1024)["entries"]
    scale = max(map(abs, real.values()))
    for key, v in real.items():
        assert abs(imag[key] + 1j * v) <= 1e-14 * scale, key


@pytest.mark.parametrize("analysis, synthesis, quad_points, message", [
    ("atoms", "wavelet", 1024, "the analysis family atoms records none"),
    ("wavelet", "unbounded", 1024, "pairing requires compactly supported candidates"),
    ("wavelet", "wavelet", 16, "sample grid level 4 too coarse for finest window level 2"),
    ("wavelet", "wavelet", 0, "quad_points must be positive, got 0"),
], ids=["analysis-without-system", "synthesis-without-support", "grid-without-headroom",
        "no-quad-points"])
def test_gram_refusals(analysis, synthesis, quad_points, message):
    _, win, fam = _orthonormal_gram_setup()
    families = {
        "wavelet": fam,
        "atoms": MoleculeFamily(fam.params, lambda q: make_atom(q, 2.0, 3.0, 1.0), "atoms"),
        "unbounded": _scaled_family(fam, 1.0, support_radius=math.inf),
    }
    with pytest.raises(PreconditionError, match=message):
        gram_matrix(families[analysis], families[synthesis], win, n=1, quad_points=quad_points)


def test_gram_bound_holds_with_single_constant():
    _, win, fam = _orthonormal_gram_setup(j_max=3)
    rep = gram_matrix(fam, fam, win, n=1, quad_points=2048)
    assert rep["n_pairs"] >= 900
    assert np.isfinite(rep["fitted_C"])
    # diagonal entries are 1 with bound 1, so C >= 1, and the decay bound
    # keeps the constant moderate
    assert 1.0 - 1e-6 <= rep["fitted_C"] < 50.0


def test_gram_constant_grows_when_D_overstated():
    sys, win, fam = _orthonormal_gram_setup(j_max=2)
    p_lo = MoleculeParams(3.0, 3.0, 3.0, 1.0)
    p_hi = MoleculeParams(6.0, 3.0, 6.0, 1.0)  # claims faster decay
    fam_lo = wavelet_family(sys, (1,), p_lo)
    fam_hi = wavelet_family(sys, (1,), p_hi)
    rep_lo = gram_matrix(fam_lo, fam_lo, win, n=1, quad_points=1024)
    rep_hi = gram_matrix(fam_hi, fam_hi, win, n=1, quad_points=1024)
    assert rep_hi["fitted_C"] >= rep_lo["fitted_C"]


def test_apply_block_diagonal_on_components():
    # the scalar matrix acts identically and independently on each component
    win = LatticeWindow(1, 0, 2, (0,), (1,))
    rng = np.random.default_rng(9)
    B = ADMatrix.model(2.0, 1.0, 1.0)
    t = CoeffField.random(win, 3, rng, density=0.6, complex_values=True)
    full = apply(B, t)
    for comp in range(3):
        t_comp = CoeffField(win, 1)
        for q, v in t.items():
            t_comp.set(q, [v[comp]])
        out_comp = apply(B, t_comp)
        for q in win.all_cubes():
            assert np.allclose(out_comp.get(q)[0], full.get(q)[comp], atol=1e-13)


def test_empirical_norm_adversarial_monotone():
    # the structural fields (shared delta at the coarsest cube, stacks) make
    # the adversarial estimates nondecreasing across nested depths
    sp = SpaceParams(BESOV, 0.0, 0.0, 2.0, 2.0)
    di = derived_indices(sp, 1, 0.0)
    region = ad_region(di, 1)
    rep = empirical_norm(ADMatrix.model(*region.point_inside(0.3)), sp,
                         depths=(2, 3, 4), seed=3)
    est = rep["adversarial_estimates"]
    assert all(b >= a - 1e-9 for a, b in zip(est, est[1:]))


# ---------------------------------------------------------------------------
# per-entry oracles for the block kernel

def _bdef_reference(q, r, D, E, F):
    """The model entry evaluated for one cube pair from the cubes' corners."""
    dist = 1.0 + float(np.linalg.norm(np.array(q.lower) - np.array(r.lower))) / max(q.side, r.side)
    if q.side <= r.side:
        gap = (q.side / r.side) ** E
    else:
        gap = (r.side / q.side) ** F
    return dist ** -D * gap


def _apply_reference(entry, t):
    """(Bt)_Q summed entry by entry over the nonzero cubes of t."""
    out = CoeffField(t.window, t.m)
    items = list(t.items())
    for q in t.window.all_cubes():
        acc = np.zeros(t.m, dtype=complex)
        for r, v in items:
            b = entry(q, r)
            if b != 0:
                acc = acc + b * v
        if np.any(acc != 0):
            out.set(q, acc)
    return out


@st.composite
def _oracle_windows(draw):
    """1D and 2D windows, with negative j_min and boxes off the origin."""
    n = draw(st.sampled_from((1, 2)))
    j_min = draw(st.integers(-2, 1))
    j_max = min(j_min + draw(st.integers(0, 2)), 2 if n == 2 else 3)
    step = 1 << max(0, -j_min)  # a level-j_min cube fits in every box
    lo, hi = [], []
    for _ in range(n):
        a = step * draw(st.integers(-1, 1))
        lo.append(a)
        hi.append(a + step * draw(st.integers(1, 2)))
    return LatticeWindow(n, j_min, j_max, tuple(lo), tuple(hi))


@given(window=_oracle_windows(), m=st.sampled_from((1, 3)), complex_values=st.booleans(),
       D=st.floats(0.5, 4.0), E=st.floats(0.0, 3.0), F=st.floats(0.0, 3.0),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_apply_matches_per_entry_oracle(window, m, complex_values, D, E, F, seed):
    t = CoeffField.random(window, m, np.random.default_rng(seed), density=0.5,
                          complex_values=complex_values)
    got = apply(ADMatrix.model(D, E, F), t)
    ref = _apply_reference(lambda q, r: _bdef_reference(q, r, D, E, F), t)
    assert set(got.cubes()) == set(ref.cubes())
    # relative to sum_R |b_QR| |t_R|, the scale of the rounding in row Q
    scale = _apply_reference(lambda q, r: _bdef_reference(q, r, D, E, F),
                             CoeffField(window, m, {q: np.abs(v) for q, v in t.items()}))
    for q in ref.cubes():
        err = np.max(np.abs(got.get(q) - ref.get(q)))
        assert err <= 1e-12 * np.max(np.abs(scale.get(q))), (q, err)
    ident = apply(ADMatrix.identity(), t)
    assert set(ident.cubes()) == set(t.cubes())
    assert all(np.array_equal(ident.get(q), v) for q, v in t.items())
    cubes = list(window.all_cubes())
    block = bdef_block(CubeArrays.of(cubes), CubeArrays.of(cubes), D, E, F)
    oracle = np.array([[_bdef_reference(q, r, D, E, F) for r in cubes] for q in cubes])
    np.testing.assert_allclose(block, oracle, rtol=1e-12, atol=0)


def test_scalar_entry_is_block_entry():
    q = DyadicCube(2, 1, (-1, 3))
    r = DyadicCube(2, -1, (0, 1))
    B = ADMatrix.model(2.0, 1.5, 0.5)
    assert B(q, r) == bdef_entry(q, r, 2.0, 1.5, 0.5)
    assert bdef_entry(q, r, 2.0, 1.5, 0.5) == pytest.approx(
        _bdef_reference(q, r, 2.0, 1.5, 0.5), rel=1e-14)
    assert ADMatrix.identity()(q, q) == 1.0 and ADMatrix.identity()(q, r) == 0.0


# ---------------------------------------------------------------------------
# the batched probe ensemble against the per-field paths


def _apply_field_reference(B, t):
    """One field at a time: columns from the field's own nonzero cubes."""
    out = CoeffField(t.window, t.m)
    cols, V = t.nonzero()
    if len(cols):
        out.write_all(B.block(CubeArrays.of_window(t.window), cols) @ V)
    return out


def _adversarial_reference(window, m, stack_slopes):
    """Deltas at the first cube of the coarsest and finest level, then the
    vertical stacks, built cube by cube."""
    n = window.n

    def first(j):
        return DyadicCube(n, j, tuple(b[0] for b in window.index_bounds(j)))

    fields = [CoeffField(window, m, {first(j): np.ones(m)}) for j in (window.j_min, window.j_max)]
    for slope in stack_slopes:
        fields.append(CoeffField(window, m, {first(j): np.full(m, 2.0 ** (slope * j))
                                             for j in range(window.j_min, window.j_max + 1)}))
    return fields


def _empirical_norm_reference(B, sp, depths, weight=None, m=1, n=1,
                              seed=0, trials=12, stack_slopes=(-2.0, -1.0, -0.5, 0.0, 0.5, 1.0)):
    """The probe one field at a time: per-cube draws, per-field apply, per-cube
    stacks and the per-stack norm.  Returns the three estimate lists and the
    number of empty random fields per depth."""
    rng = np.random.default_rng(seed)
    randomized, adversarial, empty = [], [], []
    for depth in depths:
        window = LatticeWindow(n, 0, depth, (0,) * n, (1,) * n)
        fam = ReducingFamily.identity(m, sp.p, window) if weight is None else None

        def norm(t):
            if fam is not None:
                return la_norm_reference(averaged_stack_reference(t, fam, sp), sp).value
            return la_norm_reference(weighted_stack_reference(t, weight, sp, 2), sp).value

        def ratio(t):
            denom = norm(t)
            return norm(_apply_field_reference(B, t)) / denom if denom > 0 else 0.0

        rand_best, skipped = 0.0, 0
        for drawn in DictField.random_batch(window, m, rng, trials, density=0.4):
            t = CoeffField(window, m, dict(drawn.items()))
            if len(t):
                rand_best = max(rand_best, ratio(t))
            else:
                skipped += 1
        adv_best = max(ratio(t) for t in _adversarial_reference(window, m, stack_slopes))
        randomized.append(rand_best)
        adversarial.append(adv_best)
        empty.append(skipped)
    estimates = [max(a, b) for a, b in zip(randomized, adversarial)]
    return estimates, randomized, adversarial, empty


@given(n=st.sampled_from((1, 2)), m=st.sampled_from((1, 2)),
       family=st.sampled_from((BESOV, TRIEBEL_LIZORKIN)), q=st.sampled_from((1.5, INF)),
       matrix=st.sampled_from(("model", "identity")),
       branch=st.sampled_from(("identity", "weight")),
       block=st.sampled_from((1, 3, None)), trials=st.integers(1, 5),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_empirical_norm_matches_per_field_oracle(n, m, family, q, matrix, branch, block,
                                                 trials, seed):
    sp = SpaceParams(family, 0.3, 0.1, 1.5, q)
    B = ADMatrix.model(2.5, 1.0, 0.5) if matrix == "model" else ADMatrix.identity()
    W = MatrixWeight.diag_power(np.arange(1.0, m + 1), np.linspace(0.3, -0.2, m), n, floor=0.1)
    kwargs = {"weight": {"weight": W}, "identity": {}}[branch]
    depths = (1, 3) if n == 1 else (1, 2)
    with (mock.patch.object(seq_module, "_samples_per_block", lambda per_sample: block)
          if block else contextlib.nullcontext()):
        got = empirical_norm(B, sp, depths, m=m, n=n, seed=seed, trials=trials, **kwargs)
    est, rand, adv, empty = _empirical_norm_reference(B, sp, depths, m=m, n=n, seed=seed,
                                                      trials=trials, **kwargs)
    for key, ref in (("estimates", est), ("randomized_estimates", rand),
                     ("adversarial_estimates", adv)):
        np.testing.assert_allclose(got[key], ref, rtol=1e-12, atol=0, err_msg=key)
    assert got["counters"]["empty_random_skipped"] == empty
    assert got["counters"]["random_fields"] == [trials] * len(depths)
    assert got["counters"]["adversarial_fields"] == [8] * len(depths)


@given(n=st.sampled_from((1, 2)), m=st.sampled_from((1, 3)), samples=st.integers(1, 5),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=30, deadline=None)
def test_apply_rows_match_per_field_apply(n, m, samples, seed):
    window = LatticeWindow(n, -1, 1, (-2,) * n, (2,) * n)
    rng = np.random.default_rng(seed)
    fields = [CoeffField.random(window, m, rng, density=0.3, complex_values=True)
              for _ in range(samples)]
    B = ADMatrix.model(2.0, 1.0, 1.5)
    with mock.patch("dyadica.ad._BLOCK_ENTRIES", 50):  # ragged row blocks
        images = apply_rows(B, window, np.stack([t.rows() for t in fields]))
    for t, image in zip(fields, images):
        ref = _apply_field_reference(B, t).rows()
        scale = np.abs(bdef_block(CubeArrays.of_window(window), CubeArrays.of_window(window),
                                  2.0, 1.0, 1.5)) @ np.abs(t.rows())
        assert np.all(np.abs(image - ref) <= 1e-12 * scale)
        assert np.array_equal(image != 0, ref != 0)
        assert np.array_equal(apply(ADMatrix.identity(), t).rows(), t.rows())


def test_empirical_norm_counters_repeat_for_a_seed():
    sp = SpaceParams(BESOV, 0.0, 0.0, 2.0, 2.0)
    B = ADMatrix.model(2.0, 1.0, 1.0)
    first = empirical_norm(B, sp, depths=(2, 3), seed=5, trials=6)
    again = empirical_norm(B, sp, depths=(2, 3), seed=5, trials=6)
    assert first == again
    counters = first["counters"]
    assert counters["random_fields"] == [6, 6]
    assert counters["adversarial_fields"] == [8, 8]
    # every level's first cube is loaded by the vertical stacks, so the
    # columns are at least one per level
    for depth, entries in zip((2, 3), counters["matrix_entries"]):
        cubes = 2 ** (depth + 1) - 1
        assert entries % cubes == 0 and depth + 1 <= entries // cubes <= cubes


def test_empirical_norm_growth_is_none_without_random_fields():
    # seed 0 draws an empty field at depth 0 (one cube), so the randomized
    # component of the first depth is 0 and its growth is undefined
    sp = SpaceParams(BESOV, 0.0, 0.0, 2.0, 2.0)
    rep = empirical_norm(ADMatrix.model(2.0, 1.0, 1.0), sp, depths=(0, 1), seed=0, trials=1)
    assert rep["counters"]["empty_random_skipped"][0] == 1
    assert rep["randomized_estimates"][0] == 0.0 and rep["randomized_growth"] is None
    assert rep["overall_growth"] == rep["estimates"][1] / rep["estimates"][0]


@pytest.mark.parametrize("n,depth", [(1, 0), (1, 4), (2, 3)])
@pytest.mark.parametrize("m", [1, 2])
def test_adversarial_fields_match_per_cube_construction(n, depth, m):
    window = LatticeWindow(n, 0, depth, (0,) * n, (1,) * n)
    slopes = (-1.0, 0.0, 0.5)
    got = _adversarial_fields(window, m, slopes)
    ref = np.stack([t.rows() for t in _adversarial_reference(window, m, slopes)])
    assert np.array_equal(got, ref)
