import math
import re
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_coeff_field import analyze_reference

from dyadica import wavelets
from dyadica.dyadic import DyadicCube, LatticeWindow, tensor_points
from dyadica.errors import PreconditionError
from dyadica.params import BESOV, TRIEBEL_LIZORKIN, SpaceParams
from dyadica.seq import CoeffField, seq_norm_weighted, seq_norms_weighted
from dyadica.trace import TracePair, channel_norm, target_params, trace_coeffs
from dyadica.weights import MatrixWeight
from dyadica.wavelets import (
    FunctionSample,
    WaveletSystem,
    analyze,
    cascade,
    daubechies_filter,
    filter_moments,
    find_k0,
    parseval_report,
    refinement_residual,
    synthesize,
    wavelet_norm,
)


def test_haar_filter():
    fp = daubechies_filter(1)
    assert np.allclose(fp.h, [1 / math.sqrt(2)] * 2)
    assert fp.invariant_report()["max"] < 1e-15


def test_order2_filter_known_values():
    fp = daubechies_filter(2)
    # classical 4-tap values (1+sqrt3)/(4 sqrt2) etc.
    s3 = math.sqrt(3.0)
    expect = np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * math.sqrt(2))
    assert np.allclose(fp.h, expect, atol=1e-14) or np.allclose(fp.h, expect[::-1], atol=1e-14)


@pytest.mark.parametrize("order", list(range(1, 9)))
def test_filter_invariants_orders_1_to_8(order):
    fp = daubechies_filter(order)
    rep = fp.invariant_report()
    assert rep["max"] <= 1e-12, rep
    assert len(fp.h) == 2 * order


def _daubechies_reference(order):
    """The filter taps by the spectral factorization of the half-band
    polynomial with ``mpmath.polyroots`` at 60 digits."""
    if order == 1:
        return np.array([1.0, 1.0]) / math.sqrt(2.0)
    with mpmath.workdps(60):
        # P(y) = sum_j C(order-1+j, j) y^j, y -> (2 - z - 1/z)/4, times z^(order-1)
        total = [mpmath.mpf(0)] * (2 * order - 1)
        for j in range(order):
            c = mpmath.binomial(order - 1 + j, j) * mpmath.mpf(-4) ** (-j)
            for i in range(2 * j + 1):
                coeff = mpmath.binomial(2 * j, i) * mpmath.mpf(-1) ** (2 * j - i)
                total[order - 1 - j + i] += c * coeff
        roots = mpmath.polyroots(list(reversed(total)), maxsteps=200, extraprec=120)
        # q(z) = prod over the roots inside the circle of (z - r), lowest degree first
        q = [mpmath.mpf(1)]
        for r in roots:
            if abs(r) < 1:
                nxt = [mpmath.mpf(0)] * (len(q) + 1)
                for i, c in enumerate(q):
                    nxt[i] += c * (-r)
                    nxt[i + 1] += c
                q = nxt
        q = [mpmath.re(c) for c in q]
        m = [mpmath.mpf(1)]  # ((1 + z) / 2) ** order
        for _ in range(order):
            nxt = [mpmath.mpf(0)] * (len(m) + 1)
            for i, c in enumerate(m):
                nxt[i] += c / 2
                nxt[i + 1] += c / 2
            m = nxt
        h = [mpmath.mpf(0)] * (len(m) + len(q) - 1)
        for i, a in enumerate(m):
            for k, b in enumerate(q):
                h[i + k] += a * b
        total_sum = sum(h)
        return np.array([float(c * mpmath.sqrt(2) / total_sum) for c in h])


@pytest.mark.parametrize("order", list(range(1, 21)))
def test_filter_matches_polyroots_construction(order):
    got = daubechies_filter(order).h
    assert got.view(np.uint64).tolist() == _daubechies_reference(order).view(np.uint64).tolist()


def test_filter_refuses_roots_that_do_not_converge_or_split():
    with mock.patch.object(wavelets, "_NEWTON_STEPS", 1):
        with pytest.raises(PreconditionError, match="does not converge"):
            daubechies_filter(4)
    # two starts near one root reach it twice
    with mock.patch.object(wavelets.np, "roots", lambda c: np.full(len(c) - 1, 0.3 + 0.1j)):
        with pytest.raises(PreconditionError, match="failed to split roots"):
            daubechies_filter(4)


def test_filter_order_range():
    with pytest.raises(PreconditionError):
        daubechies_filter(0)
    with pytest.raises(PreconditionError):
        daubechies_filter(21)


def test_cascade_haar_exact():
    fp = daubechies_filter(1)
    phi, psi = cascade(fp, 6)
    assert np.all(phi[:-1] == 1.0) and phi[-1] == 0.0
    half = len(psi) // 2
    assert np.all(psi[:half] == 1.0) and np.all(psi[half:-1] == -1.0)


@pytest.mark.parametrize("order", [2, 4, 6])
def test_cascade_invariants(order):
    fp = daubechies_filter(order)
    R = 10
    phi, psi = cascade(fp, R)
    assert refinement_residual(fp, phi, R) <= 1e-8
    # integral of phi = 1 via the Riemann sum (partition of unity makes it exact)
    assert abs(np.sum(phi[:-1]) * 2.0 ** -R - 1.0) < 1e-8


def _two_scale_reference(filt, phi, resolution):
    """The two-scale sum with one index array per tap."""
    N = len(phi)
    idx = np.arange(N)
    out = np.zeros(N)
    for k, c in enumerate(filt):
        j = 2 * idx - k * (1 << resolution)
        ok = (j >= 0) & (j < N)
        out[ok] += math.sqrt(2.0) * c * phi[j[ok]]
    return out


@pytest.mark.parametrize("resolution", [4, 8, 12])
@pytest.mark.parametrize("order", range(1, 7))
def test_cascade_matches_index_array_oracle(order, resolution):
    fp = daubechies_filter(order)
    got = cascade(fp, resolution)
    with mock.patch.object(wavelets, "_two_scale", _two_scale_reference):
        want = cascade(fp, resolution)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
    rng = np.random.default_rng(order)
    for r in range(4):  # short and odd-length inputs too
        phi = rng.standard_normal(int(rng.integers(1, 40)))
        assert (wavelets._two_scale(fp.h, phi, r).tobytes()
                == _two_scale_reference(fp.h, phi, r).tobytes())


@pytest.mark.parametrize("order", range(1, 21))
def test_cascade_is_exact_across_resolutions(order):
    # the samples on 2^-r are the resolution-14 samples at the points both
    # hold, bit for bit, and satisfy the two-scale relation at every r
    fp = daubechies_filter(order)
    fine = cascade(fp, 14)
    for r in range(14):
        coarse = cascade(fp, r)
        assert all(a.tobytes() == b[:: 1 << (14 - r)].tobytes() for a, b in zip(coarse, fine))
        assert refinement_residual(fp, coarse[0], r) < 1e-12


def test_cascade_residual_decreases():
    fp = daubechies_filter(2)
    res = []
    for R in (4, 6, 8):
        phi, _ = cascade(fp, R)
        # measure on the coarse common grid: exact construction keeps it tiny
        res.append(refinement_residual(fp, phi, R))
    assert all(r <= 1e-10 for r in res)


@pytest.mark.parametrize("order", [1, 2, 4, 8])
def test_psi_moments(order):
    fp = daubechies_filter(order)
    _, mpsi = filter_moments(fp, order - 1 if order > 1 else 0)
    assert np.max(np.abs(mpsi)) < 1e-7


def test_find_k0():
    fp1 = daubechies_filter(1)
    phi, _ = cascade(fp1, 6)
    assert find_k0(phi, 6) == 0
    fp2 = daubechies_filter(2)
    phi2, _ = cascade(fp2, 10)
    k0 = find_k0(phi2, 10)
    assert k0 in (-1, -2)
    assert abs(phi2[(-k0) << 10]) > 0.1
    # stable under resolution doubling
    phi2b, _ = cascade(fp2, 11)
    assert find_k0(phi2b, 11) == k0


# ---------------------------------------------------------------------------
# analysis / synthesis

def _gauss_sample(grid_level=9, lo=(-4,), hi=(5,)):
    def f(pts):
        x = pts[:, 0]
        return np.exp(-((x - 0.4) ** 2) * 2.0) * np.cos(3 * x)

    return FunctionSample.from_callable(f, 1, 1, grid_level, lo, hi)


def test_from_callable_at_negative_grid_levels():
    # cells of side 2 and 4 at the left endpoints of the box's tiling
    fs = FunctionSample.from_callable(lambda p: p[:, 0] + 1.0, 1, 1, -1, (0,), (4,))
    assert fs.start == (0,) and fs.shape == (2,)
    assert fs.values.tobytes() == np.array([[1.0, 3.0]]).tobytes()
    fs = FunctionSample.from_callable(lambda p: p[:, 0] * p[:, 1], 2, 1, -2, (-4, 4), (4, 12))
    assert fs.start == (-1, 1) and fs.shape == (2, 2)
    assert np.array_equal(fs.values[0], [[-16.0, -32.0], [0.0, 0.0]])
    # a box that is not a whole number of cells is refused, naming the condition
    with pytest.raises(PreconditionError, match=re.escape(
            "sample grid level -1 does not tile the box (0,)..(3,): "
            "its edges must be multiples of 2")):
        FunctionSample.from_callable(lambda p: p[:, 0], 1, 1, -1, (0,), (3,))


@pytest.mark.parametrize("n, m, slab", [(1, 1, 5), (2, 1, 40), (2, 2, 90), (3, 2, 300)])
def test_from_callable_slabs_match_full_grid_evaluation(n, m, slab):
    # a pointwise f sampled slab by slab equals f on the whole point array
    # (the former path), bitwise
    coef = np.arange(1, n + 1)

    def f(pts):
        vals = np.exp(-np.sum(pts ** 2, axis=1)) * np.cos(pts @ coef) + 1j * pts[:, 0]
        return vals if m == 1 else np.stack([vals, vals ** 2 - pts[:, -1]])

    level, lo, hi = 3, (-1,) + (0,) * (n - 1), (1,) * n
    calls = []

    def counted(pts):
        calls.append(len(pts))
        return f(pts)

    with mock.patch.object(wavelets, "SLAB_ENTRIES", slab):
        got = FunctionSample.from_callable(counted, n, m, level, lo, hi)
    shape = tuple((b - a) << level for a, b in zip(lo, hi))
    pts = tensor_points([(a * 2 ** level + np.arange(c)) / 2 ** level for a, c in zip(lo, shape)])
    want = np.asarray(f(pts), dtype=complex).reshape((m,) + shape)
    assert len(calls) >= 3 and sum(calls) == len(pts)
    assert got.start == tuple(a << level for a in lo)
    assert got.values.tobytes() == want.tobytes()


def test_analyze_delta_on_wavelet():
    sys = WaveletSystem(1, daubechies_filter(4), resolution=12)
    win = LatticeWindow(1, 0, 3, (-8,), (9,))
    q0 = DyadicCube(1, 1, (1,))
    lam0 = (1,)
    g = 9
    start = (-8) << g
    shape = ((9 - (-8)) << g,)
    coefs = {lam0: CoeffField(win, 1, {q0: [1.0]})}
    f = synthesize(coefs, sys, g, (start,), shape, 1)
    got = analyze(f, sys, win)
    for lam, tf in got.items():
        for q in tf.cubes():
            v = tf.get(q)[0]
            if lam == lam0 and q == q0:
                assert abs(v - 1.0) < 1e-6
            else:
                assert abs(v) < 1e-6


def test_analyze_linearity():
    sys = WaveletSystem(1, daubechies_filter(3), resolution=11)
    win = LatticeWindow(1, 0, 2, (-4,), (5,))
    f1 = _gauss_sample(8, (-4,), (5,))
    f2 = FunctionSample(1, 1, 8, f1.start, np.roll(f1.values, 37, axis=1))
    c1 = analyze(f1, sys, win)
    c2 = analyze(f2, sys, win)
    fsum = FunctionSample(1, 1, 8, f1.start, 2 * f1.values + 3 * f2.values)
    csum = analyze(fsum, sys, win)
    for lam in csum:
        for q in csum[lam].cubes():
            expect = 2 * c1[lam].get(q) + 3 * c2[lam].get(q)
            assert np.allclose(csum[lam].get(q), expect, atol=1e-12)


def test_adjoint_consistency():
    sys = WaveletSystem(1, daubechies_filter(4), resolution=12)
    win = LatticeWindow(1, 0, 2, (-4,), (5,))
    g = 8
    f = _gauss_sample(g, (-4,), (5,))
    rng = np.random.default_rng(0)
    coefs = {}
    for lam in list(sys.channels) + [sys.scaling_channel]:
        tf = CoeffField(win, 1)
        levels = [0] if lam == sys.scaling_channel else range(0, 3)
        for j in levels:
            for q in win.cubes(j):
                if rng.random() < 0.2:
                    tf.set(q, [rng.standard_normal()])
        coefs[lam] = tf
    e_f = synthesize(coefs, sys, g, f.start, f.shape, 1)
    lhs = np.sum(e_f.values * f.values.conj()) * f.h
    cf = analyze(f, sys, win)
    rhs = 0.0
    for lam in coefs:
        for q, v in coefs[lam].items():
            rhs += v[0] * cf[lam].get(q)[0].conj()
    assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1.0)


def test_parseval_and_reconstruction_smooth():
    # order 4, window depth 8: the acceptance-level tolerance 1e-6.
    # the box extends far enough left that every coarse wavelet overlapping
    # the sample support has its cube inside the window.
    sys = WaveletSystem(1, daubechies_filter(4), resolution=14)
    win = LatticeWindow(1, -2, 8, (-40,), (12,))
    g = 12
    f = _gauss_sample(g, (-8,), (9,))
    coefs = analyze(f, sys, win)
    rep = parseval_report(f, coefs)
    assert rep["relative_gap"] < 1e-6, rep
    back = synthesize(coefs, sys, g, f.start, f.shape, 1)
    resid = np.max(np.abs(back.values - f.values)) / np.max(np.abs(f.values))
    assert resid < 1e-6


def test_synthesize_zero():
    sys = WaveletSystem(1, daubechies_filter(2), resolution=10)
    win = LatticeWindow(1, 0, 1, (0,), (1,))
    out = synthesize({(1,): CoeffField(win, 1)}, sys, 6, (0,), (64,), 1)
    assert np.all(out.values == 0)
    # a field without coefficients has no dimension to disagree with
    one = CoeffField(win, 1, {DyadicCube(1, 1, (1,)): [1.0]})
    two = synthesize({(0,): CoeffField(win, 2), (1,): one}, sys, 6, (0,), (64,), 1)
    assert two.values.tobytes() == synthesize({(1,): one}, sys, 6, (0,), (64,), 1).values.tobytes()


def test_analyze_preconditions():
    sys = WaveletSystem(1, daubechies_filter(2), resolution=8)
    win = LatticeWindow(1, 0, 4, (0,), (1,))
    f = _gauss_sample(6, (0,), (1,))
    with pytest.raises(PreconditionError):
        analyze(f, sys, win)  # headroom too small
    # the prototypes are sampled at the grid analysis uses, so the stored
    # resolution does not bound it: level j_max + 1 on this level-7 grid needs 5
    f7, win7 = _gauss_sample(7, (0,), (1,)), LatticeWindow(1, 0, 1, (0,), (1,))
    fp = daubechies_filter(2)
    csvs = [{lam: tf.to_csv() for lam, tf in analyze(f7, WaveletSystem(1, fp, r), win7).items()}
            for r in (4, 12)]
    assert csvs[0] == csvs[1]
    # nor level j_min: the direct path samples the prototypes at 12 for this window
    win2 = LatticeWindow(1, -6, 1, (-64,), (64,))
    f2 = _gauss_sample(6, (-64,), (64,))
    got = analyze(f2, sys, win2)
    ref = analyze_reference(f2, sys, win2)
    expect = np.stack([tf.rows() for tf in ref.values()])
    np.testing.assert_allclose(np.stack([got[lam].rows() for lam in ref]), expect, rtol=0,
                               atol=1e-12 * np.max(np.abs(expect)))


# ---------------------------------------------------------------------------
# 2d tensor systems

def test_tensor_2d_roundtrip():
    sys = WaveletSystem(2, daubechies_filter(4), resolution=12)
    win = LatticeWindow(2, 0, 4, (-9, -9), (3, 3))
    g = 9

    def f(pts):
        r2 = np.sum((pts - 0.3) ** 2, axis=-1)
        return np.exp(-3 * r2)

    fs = FunctionSample.from_callable(f, 2, 1, g, (-2, -2), (3, 3))
    coefs = analyze(fs, sys, win)
    assert set(coefs) == {(0, 1), (1, 0), (1, 1), (0, 0)}
    back = synthesize(coefs, sys, g, fs.start, fs.shape, 1)
    resid = np.max(np.abs(back.values - fs.values)) / np.max(np.abs(fs.values))
    assert resid < 1e-4
    rep = parseval_report(fs, coefs)
    assert rep["relative_gap"] < 1e-4


# ---------------------------------------------------------------------------
# wavelet norms

def test_wavelet_norm_single_wavelet_closed_form():
    sys = WaveletSystem(1, daubechies_filter(4), resolution=13)
    win = LatticeWindow(1, 0, 4, (-8,), (9,))
    g = 9
    q0 = DyadicCube(1, 2, (1,))
    sp = SpaceParams(BESOV, 0.3, 0.1, 1.5, 2.0)
    coefs = {(1,): CoeffField(win, 1, {q0: [1.0]})}
    start = (-8) << g
    f = synthesize(coefs, sys, g, (start,), ((17) << g,), 1)
    W = MatrixWeight.identity(1, 1)
    got = wavelet_norm(f, sys, sp, win, weight=W)
    expect = q0.volume ** (-sp.tau - sp.s + 1 / sp.p - 0.5)
    assert got.value == pytest.approx(expect, rel=1e-4)
    # scaling by c scales the norm
    f2 = FunctionSample(1, 1, g, f.start, 3.0 * f.values)
    got2 = wavelet_norm(f2, sys, sp, win, weight=W)
    assert got2.value == pytest.approx(3 * got.value, rel=1e-9)


def test_wavelet_norm_s_monotone_on_fine_data():
    sys = WaveletSystem(1, daubechies_filter(3), resolution=12)
    win = LatticeWindow(1, 0, 4, (-4,), (5,))
    g = 9
    q0 = DyadicCube(1, 4, (3,))
    coefs = {(1,): CoeffField(win, 1, {q0: [1.0]})}
    f = synthesize(coefs, sys, g, ((-4) << g,), (9 << g,), 1)
    W = MatrixWeight.identity(1, 1)
    v_hi = wavelet_norm(f, sys, SpaceParams(BESOV, 0.8, 0.0, 2.0, 2.0), win, weight=W)
    v_lo = wavelet_norm(f, sys, SpaceParams(BESOV, 0.2, 0.0, 2.0, 2.0), win, weight=W)
    assert v_lo.value < v_hi.value


def test_wavelet_norm_is_the_per_channel_sum_and_keeps_the_boundary_flag():
    sp = SpaceParams(BESOV, 0.2, 0.0, 2.0, 2.0)
    cases = [
        # one channel, whose sup the window cuts: it attains on the coarsest level
        (WaveletSystem(1, daubechies_filter(2), resolution=10),
         LatticeWindow(1, 0, 2, (-4,), (5,)),
         FunctionSample.from_callable(lambda x: np.exp(-(((x[:, 0] - 0.5) / 1.5) ** 2)),
                                      1, 1, 8, (-4,), (5,)),
         MatrixWeight.identity(1, 1)),
        # three channels in one batch
        (WaveletSystem(2, daubechies_filter(2), resolution=8),
         LatticeWindow(2, 0, 1, (-2, -2), (2, 2)),
         FunctionSample.from_callable(lambda p: np.exp(-8 * np.sum((p - 0.3) ** 2, axis=1)),
                                      2, 1, 6, (-2, -2), (2, 2)),
         MatrixWeight.diag_power([1.2], [0.4], n=2, floor=0.1)),
    ]
    got = []
    for sys, win, f, W in cases:
        r = wavelet_norm(f, sys, sp, win, weight=W)
        # one norm per channel: the values summed in channel order (bitwise),
        # the first largest channel's cube and the flag of any channel
        coefs = analyze(f, sys, win, include_scaling=False)
        norms = [seq_norm_weighted(coefs[lam], W, sp) for lam in sys.channels]
        best = max(norms, key=lambda n: n.value)
        assert (r.value, r.attaining, r.boundary_flag) == \
            (sum(n.value for n in norms), best.attaining, any(n.boundary_flag for n in norms))
        got.append(r)
    assert got[0].attaining == DyadicCube(1, 0, (-1,)) and got[0].boundary_flag


def test_vector_valued_roundtrip():
    # m = 2 complex components analyze/synthesize independently
    sys = WaveletSystem(1, daubechies_filter(3), resolution=13)
    win = LatticeWindow(1, -1, 6, (-16,), (10,))
    g = 10

    def f(pts):
        x = pts[:, 0]
        return np.stack([np.exp(-2 * (x - 0.3) ** 2),
                         1j * np.exp(-3 * x ** 2) * np.sin(2 * x)])

    fs = FunctionSample(1, 2, g, ((-8) << g,),
                        f(np.arange((-8) << g, 9 << g)[:, None] * 2.0 ** -g))
    coefs = analyze(fs, sys, win)
    back = synthesize(coefs, sys, g, fs.start, fs.shape, 2)
    resid = np.max(np.abs(back.values - fs.values)) / np.max(np.abs(fs.values))
    assert resid < 1e-5
    # each component matches its own scalar analysis
    f0 = FunctionSample(1, 1, g, fs.start, fs.values[:1])
    c0 = analyze(f0, sys, win)
    for lam in coefs:
        for q in coefs[lam].cubes():
            assert np.allclose(coefs[lam].get(q)[0], c0[lam].get(q)[0], atol=1e-12)


def _cascade_without_allocating(resolution):
    """cascade of a valid filter with ``np.zeros``, which allocates its sample
    arrays, disabled."""
    fp = daubechies_filter(2)
    with mock.patch.object(np, "zeros", side_effect=AssertionError("cascade allocated")):
        return cascade(fp, resolution)


def _wavelet_refusal_sample(n=1, m=1):
    return FunctionSample(n, m, 8, (0,) * n, np.zeros((m,) + (1 << 8,) * n))


@pytest.mark.parametrize("call, message", [
    (lambda: _cascade_without_allocating(-1), r"cascade resolution must lie in \[0, 16\], got -1"),
    (lambda: _cascade_without_allocating(wavelets.MAX_RESOLUTION + 1),
     r"cascade resolution must lie in \[0, 16\], got 17"),
    (lambda: cascade(wavelets.FilterPair(np.ones(3), np.array([1.0, -1.0, 1.0]), 1, 0.0), 6),
     "no unit eigenvalue"),
    (lambda: FunctionSample(1, 2, 8, (0,), np.zeros((1, 16))),
     r"sample array shape does not match \(m, N1..Nn\)"),
    (lambda: FunctionSample(2, 1, 8, (0, 0), np.zeros((1, 16))),
     r"sample array shape does not match \(m, N1..Nn\)"),
    (lambda: analyze(_wavelet_refusal_sample(), WaveletSystem(2, daubechies_filter(1), 8),
                     LatticeWindow(1, 0, 2, (0,), (1,))),
     "dimension mismatch between sample, system, and window"),
    (lambda: analyze(_wavelet_refusal_sample(), WaveletSystem(1, daubechies_filter(1), 8),
                     LatticeWindow(2, 0, 2, (0, 0), (1, 1))),
     "dimension mismatch between sample, system, and window"),
    (lambda: synthesize({(1,): CoeffField(LatticeWindow(1, 0, 4, (0,), (1,)), 1,
                                          {DyadicCube(1, 4, (3,)): [1.0]})},
                        WaveletSystem(1, daubechies_filter(1), 8), 3, (0,), (8,), 1),
     "synthesis grid coarser than a coefficient level"),
    # a field of another m that holds coefficients is refused, not broadcast or misshaped
    (lambda: synthesize({(0,): CoeffField(LatticeWindow(1, 0, 1, (0,), (1,)), 2),
                         (1,): CoeffField(LatticeWindow(1, 0, 1, (0,), (1,)), 1,
                                          {DyadicCube(1, 1, (1,)): [1.0]})},
                        WaveletSystem(1, daubechies_filter(1), 8), 6, (0,), (64,), 2),
     "channel 1 holds vectors of dimension m = 1, but the synthesis has m = 2"),
    (lambda: synthesize({(1,): CoeffField(LatticeWindow(1, 0, 1, (0,), (1,)), 2,
                                          {DyadicCube(1, 1, (1,)): [1.0, 2.0]})},
                        WaveletSystem(1, daubechies_filter(1), 8), 6, (0,), (64,), 1),
     "channel 1 holds vectors of dimension m = 2, but the synthesis has m = 1"),
    # int() would sample [0, 2) without notice, and the two below failed in numpy
    (lambda: FunctionSample.from_callable(lambda p: p[:, 0], 1, 1, 4, (0.5,), (2,)),
     r"^sample grid box \(0\.5,\)\.\.\(2,\): corner 0\.5 is not a whole number$"),
    (lambda: FunctionSample.from_callable(lambda p: p[:, 0], 1, 1, 4, (0.25,), (0.5,)),
     r"^sample grid box \(0\.25,\)\.\.\(0\.5,\): corner 0\.25 is not a whole number$"),
    (lambda: FunctionSample.from_callable(lambda p: p[:, 0], 1, 1, 4, (2,), (1,)),
     r"^sample grid box \(2,\)\.\.\(1,\) is empty$"),
], ids=["cascade-resolution-negative", "cascade-resolution-above-cap", "cascade-filter",
        "sample-channels", "sample-dimension", "analyze-system", "analyze-window",
        "synthesize-coarse-grid", "synthesize-field-m1-into-m2", "synthesize-field-m2-into-m1",
        "sample-box-half-corner", "sample-box-inside-a-unit", "sample-box-empty"])
def test_wavelet_refusals(call, message):
    with pytest.raises(PreconditionError, match=message):
        call()


# ---------------------------------------------------------------------------
# sample files


@given(n=st.integers(1, 2), m=st.integers(1, 2),
       kind=st.sampled_from(("real", "complex", "-0.0", "+0.0")), seed=st.integers(0, 2 ** 16))
@settings(max_examples=30, deadline=None)
def test_sample_save_load_is_bitwise(tmp_path_factory, n, m, kind, seed):
    rng = np.random.default_rng(seed)
    shape = (m,) + (1 << (4 - n),) * n
    values = rng.standard_normal(shape) * (rng.random(shape) < 0.7)
    values = values * np.where(rng.random(shape) < 0.5, -1.0, 1.0)  # signed zeros too
    if kind == "complex":
        values = values + 1j * rng.standard_normal(shape)
    elif kind == "-0.0":
        values = values.astype(complex)
        values.flat[rng.integers(values.size)] = complex(values.flat[0].real, -0.0)
    elif kind == "+0.0":  # complex-typed, every imaginary part +0.0
        values = values.astype(complex)
    f = FunctionSample(n, m, 3, tuple(rng.integers(-9, 9, n).tolist()), values)
    assert f.values.dtype == (np.float64 if kind == "real" else np.complex128)
    path = str(tmp_path_factory.mktemp("s") / "f.npz")
    f.save(path)
    # real values, and complex ones without an imaginary bit, are stored and
    # loaded as float64; any imaginary bit keeps complex128
    stored = np.float64 if kind in ("real", "+0.0") else np.complex128
    with np.load(path) as data:
        assert data["values"].dtype == stored
    g = FunctionSample.load(path)
    assert (g.n, g.m, g.grid_level, g.start) == (f.n, f.m, f.grid_level, f.start)
    assert g.values.dtype == stored
    assert g.values.tobytes() == (f.values.real if kind == "+0.0" else f.values).tobytes()


@pytest.mark.parametrize("case, expect", [
    ("csv", "is not an npz archive"),
    ("npy", "is not an npz archive"),
    ("missing", "lacks grid_level, start"),
    ("object", "Object arrays cannot be loaded"),
    ("text values", "holds values as a 2-d <U3 array"),
    ("short start", "sample start (0,) has 1 entries, expected n = 2"),
])
def test_sample_load_refusals_name_the_file(tmp_path, case, expect):
    path = tmp_path / "f.npz"
    arrays = {"n": 1, "m": 1, "grid_level": 3, "start": np.array([0]), "values": np.ones((1, 8))}
    if case == "csv":
        path.write_text("0:0, 1.0, 0.0\n")
    elif case == "npy":
        with open(path, "wb") as fh:
            np.save(fh, arrays["values"])
    else:
        if case == "missing":
            del arrays["grid_level"], arrays["start"]
        elif case == "object":
            arrays["start"] = np.array([0, None], dtype=object)
        elif case == "text values":
            arrays["values"] = np.array([["1.0"] * 8])
        else:
            arrays.update(n=2, values=np.ones((1, 8, 8)))
        np.savez(path, **arrays)
    with pytest.raises(PreconditionError) as exc:
        FunctionSample.load(str(path))
    assert f"sample file {str(path)!r}" in str(exc.value) and expect in str(exc.value)


# ---------------------------------------------------------------------------
# real data against complex-typed copies of it


def _complex_typed(tf):
    """A copy of a field with every level stored as complex128."""
    out = CoeffField(tf.window, tf.m)
    for j in tf.levels():
        out.write(j, tf.lower(j), tf.level(j).astype(complex))
    return out


def _varying_weight(m, n, rng):
    """x -> Q diag(1 + |x| c) Q^T + 0.1 I, real and not diagonal for m > 1."""
    Q = np.linalg.qr(rng.standard_normal((m, m)))[0]
    c = rng.uniform(0.2, 2.0, m)

    def f(x):
        d = 1.0 + np.linalg.norm(x, axis=1)[:, None] * c
        return np.einsum("ab,nb,cb->nac", Q, d, Q) + 0.1 * np.eye(m)

    return MatrixWeight(m, n, f)


# Relative tolerance of norms and traces taken in real arithmetic against the
# same calls on complex-typed copies: the sums are the same, so they may
# differ only in the rounding of a few operations per entry.
REAL_PATH_RTOL = 1e-12


@given(n=st.sampled_from((1, 2)), m=st.sampled_from((1, 3)),
       family=st.sampled_from((BESOV, TRIEBEL_LIZORKIN)), seed=st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_real_path_matches_complex_typed_copies(n, m, family, seed):
    rng = np.random.default_rng(seed)
    window = LatticeWindow(n, 0, 1, (0,) * n, (1,) * n)
    grid = window.j_max + wavelets.MIN_HEADROOM
    start, shape = (0,) * n, (1 << grid,) * n
    values = rng.standard_normal((m,) + shape) * (rng.random((m,) + shape) < 0.8)
    f = FunctionSample(n, m, grid, start, values)
    assert f.values.dtype == np.float64
    assert FunctionSample(n, m, grid, start, values.astype(complex)).values.dtype == np.complex128
    tp = TracePair(daubechies_filter(2), n) if n == 2 else None
    sysw = tp.source if tp else WaveletSystem(n, daubechies_filter(2))
    coefs = analyze(f, sysw, window)
    cplx = {lam: _complex_typed(tf) for lam, tf in coefs.items()}
    # CSV bytes, and the text reads back as the real field
    for lam, tf in coefs.items():
        assert tf.rows().dtype == np.float64
        assert cplx[lam].rows().dtype == (np.complex128 if tf.levels() else np.float64)
        text = tf.to_csv()
        assert text == cplx[lam].to_csv()
        back = CoeffField.from_csv(text, window, m).rows()
        assert back.dtype == np.float64 and back.tobytes() == tf.rows().tobytes()
    # synthesized samples
    g = synthesize(coefs, sysw, grid, start, shape, m)
    gc = synthesize(cplx, sysw, grid, start, shape, m)
    assert g.values.dtype == np.float64
    assert g.values.tobytes() == np.real(gc.values).tobytes()
    # weighted norms of the analysis fields and of sparse random fields
    sp = SpaceParams(family, 0.5, 0.1, 1.5, 2.0)
    W = _varying_weight(m, n, rng)
    rows = np.stack([tf.rows() for tf in coefs.values()]
                    + [rng.standard_normal((window.count(), m))
                       * (rng.random((window.count(), 1)) < 0.4) for _ in range(2)])
    got = [r.value for r in seq_norms_weighted(window, rows, W, sp)]
    want = [r.value for r in seq_norms_weighted(window, rows.astype(complex), W, sp)]
    assert np.allclose(got, want, rtol=REAL_PATH_RTOL, atol=0)
    if tp is None:
        return
    # traces: coefficients, then their norms under a weight one dimension down
    traced, traced_c = trace_coeffs(tp, coefs), trace_coeffs(tp, cplx)
    for lam, tf in traced.items():
        a, b = tf.rows(), traced_c[lam].rows()
        assert a.dtype == np.float64 and b.dtype == (np.complex128 if tf.levels() else np.float64)
        assert np.max(np.abs(a - b), initial=0.0) <= REAL_PATH_RTOL * np.max(np.abs(b), initial=0.0)
    V, sp_t = _varying_weight(m, 1, rng), target_params(sp, 2)
    assert math.isclose(channel_norm(traced, V, sp_t), channel_norm(traced_c, V, sp_t),
                        rel_tol=REAL_PATH_RTOL)
