import math

import numpy as np
import pytest

from dyadica.dyadic import DyadicCube, LatticeWindow, stack_cube
from dyadica.errors import PreconditionError
from dyadica.params import BESOV, TRIEBEL_LIZORKIN, SpaceParams
from dyadica.seq import CoeffField, seq_norm_weighted
from dyadica.trace import (
    SlabCoeffs,
    TracePair,
    channel_norm,
    ext_coeffs,
    ext_wavelet,
    stacked_window,
    target_params,
    trace_coeffs,
    trace_norm_report,
    trace_wavelet,
    weight_compat_check,
)
from dyadica.wavelets import FunctionSample, analyze, daubechies_filter, synthesize
from dyadica.weights import MatrixWeight, QuadratureSpec


@pytest.fixture(scope="module")
def tp2():
    return TracePair(daubechies_filter(2), n=2, resolution=12)


@pytest.fixture(scope="module")
def tp_haar():
    return TracePair(daubechies_filter(1), n=2, resolution=10)


def test_trace_wavelet_factor(tp_haar):
    # Haar: phi(0) = 1, k0 = 0, factor = side^{-1/2} at k = 0
    q = stack_cube(DyadicCube(1, 1, (0,)), 0)
    lam_prime, base, factor = trace_wavelet(tp_haar, (1, 0), q)
    assert lam_prime == (1,)
    assert base == DyadicCube(1, 1, (0,))
    assert factor == pytest.approx(math.sqrt(2.0))
    # zero beyond the support width
    q_far = stack_cube(DyadicCube(1, 1, (0,)), 5)
    assert trace_wavelet(tp_haar, (1, 0), q_far)[2] == 0.0


def test_trace_factor_scales_with_level(tp2):
    k = -1
    factors = []
    for j in (0, 1, 2):
        q = stack_cube(DyadicCube(1, j, (0,)), k)
        factors.append(trace_wavelet(tp2, (1, 0), q)[2])
    assert factors[1] / factors[0] == pytest.approx(math.sqrt(2.0))
    assert factors[2] / factors[1] == pytest.approx(math.sqrt(2.0))


def test_ext_wavelet_placement(tp2):
    base = DyadicCube(1, 2, (3,))
    channel, cube, factor = ext_wavelet(tp2, (1,), base)
    assert channel == (1, 0)
    assert cube.j == base.j
    assert cube.k == (3, tp2.k0)
    assert factor == pytest.approx(2.0 ** -1 * tp2.inv_phi0)


def test_tr_ext_composition_scalar_haar(tp_haar):
    # with phi(0) = 1 the scalar factors compose to exactly 1
    base = DyadicCube(1, 2, (1,))
    channel, cube, f_ext = ext_wavelet(tp_haar, (1,), base)
    lam_prime, back, f_tr = trace_wavelet(tp_haar, channel, cube)
    assert back == base and lam_prime == (1,)
    assert f_ext * f_tr == 1.0


def test_tr_ext_identity_exact(tp2):
    # 100 random coefficient fields: bitwise equality through the slab carrier
    rng = np.random.default_rng(0)
    base_win = LatticeWindow(1, 0, 3, (0,), (2,))
    src_win = stacked_window(base_win, -4, 4)
    for trial in range(100):
        coefs = {}
        for lam_prime in tp2.target.channels:
            coefs[lam_prime] = CoeffField.random(base_win, 2, rng, density=0.5,
                                                 complex_values=True)
        carrier = ext_coeffs(tp2, coefs, src_win)
        back = trace_coeffs(tp2, carrier)
        assert set(back) == set(coefs)
        for lam_prime, tf in coefs.items():
            bt = back[lam_prime]
            assert set(bt.cubes()) == set(tf.cubes())
            for q in tf.cubes():
                assert np.array_equal(bt.get(q), tf.get(q))


def test_ext_occupies_only_k0_slab(tp2):
    base_win = LatticeWindow(1, 0, 2, (0,), (1,))
    src_win = stacked_window(base_win, -4, 4)
    coefs = {(1,): CoeffField(base_win, 1, {DyadicCube(1, 1, (1,)): [1.0]})}
    carrier = ext_coeffs(tp2, coefs, src_win)
    raw = carrier.channels
    assert set(raw) == {(1, 0)}
    for q in raw[(1, 0)].cubes():
        assert q.k[-1] == tp2.k0
    # the raw value times the pending slab scale 2^{-j/2} / phi(-k0) at j = 1
    v = raw[(1, 0)].get(stack_cube(DyadicCube(1, 1, (1,)), tp2.k0))
    assert v[0] * (2.0 ** -0.5 * tp2.inv_phi0) == pytest.approx(2.0 ** -0.5 * tp2.inv_phi0)


def test_trace_zero_fields_and_far_slabs(tp2):
    base_win = LatticeWindow(1, 0, 1, (0,), (1,))
    src_win = stacked_window(base_win, -40, 40)
    far = CoeffField(src_win, 1)
    k_far = tp2.support_width + 5
    far.set(stack_cube(DyadicCube(1, 1, (0,)), k_far), [3.0])
    out = trace_coeffs(tp2, {(1, 0): far})
    assert all(len(tf) == 0 for tf in out.values())


def test_trace_delta_single_entry(tp2):
    base_win = LatticeWindow(1, 0, 1, (0,), (1,))
    src_win = stacked_window(base_win, -8, 8)
    k = -1
    q = stack_cube(DyadicCube(1, 1, (1,)), k)
    src = {(1, 1): CoeffField(src_win, 1, {q: [2.0]})}
    out = trace_coeffs(tp2, src)
    tf = out[(1,)]
    assert len(tf) == 1
    expect = 2.0 * 2.0 ** 0.5 * tp2.last_axis_value(1, k)
    assert tf.get(DyadicCube(1, 1, (1,)))[0] == pytest.approx(expect)


def test_trace_linearity(tp2):
    rng = np.random.default_rng(1)
    base_win = LatticeWindow(1, 0, 2, (0,), (1,))
    src_win = stacked_window(base_win, -4, 4)
    a = {lam: CoeffField.random(src_win, 1, rng, density=0.3)
         for lam in tp2.source.channels}
    b = {lam: CoeffField.random(src_win, 1, rng, density=0.3)
         for lam in tp2.source.channels}
    summed = {lam: a[lam].plus(b[lam].scaled(2.0)) for lam in a}
    out_sum = trace_coeffs(tp2, summed)
    out_a = trace_coeffs(tp2, a)
    out_b = trace_coeffs(tp2, b)
    for lam in out_sum:
        for q in out_sum[lam].cubes():
            expect = out_a[lam].get(q) + 2.0 * out_b[lam].get(q)
            assert np.allclose(out_sum[lam].get(q), expect, atol=1e-12)


def test_function_level_consistency():
    # synthesize(trace(analyze(f)))(x') ~ f(x', 0) for a smooth f whose tail
    # clears the sample grid; the window box covers every coarse wavelet
    # overlapping the grid
    tp = TracePair(daubechies_filter(4), n=2, resolution=13)
    g = 9
    lo, hi = (-2, -2), (3, 3)

    def f(pts):
        return np.exp(-4.0 * np.sum((pts - 0.4) ** 2, axis=-1))

    fs = FunctionSample.from_callable(f, 2, 1, g, lo, hi)
    win = LatticeWindow(2, -1, 5, (-18, -18), (4, 4))
    coefs = analyze(fs, tp.source, win)
    traced = trace_coeffs(tp, coefs)
    start = ((-2) << g,)
    shape = (5 << g,)
    back = synthesize(traced, tp.target, g, start, shape, 1)
    xs = (start[0] + np.arange(shape[0])) * 2.0 ** -g
    truth = np.exp(-4.0 * ((xs - 0.4) ** 2 + 0.4 ** 2))
    resid = np.max(np.abs(back.values[0] - truth)) / np.max(np.abs(truth))
    assert resid < 1e-5, resid


def test_target_params_mapping():
    spb = SpaceParams(BESOV, 2.0, 0.3, 1.5, 0.7)
    tb = target_params(spb, 3)
    assert tb.family == BESOV
    assert tb.s == 2.0 - 1 / 1.5
    assert tb.tau == pytest.approx(4.5 / 3 * 0.3 * 1.0)
    assert tb.q == 0.7  # B target keeps q
    spf = SpaceParams(TRIEBEL_LIZORKIN, 2.0, 0.3, 1.5, 0.7)
    tf = target_params(spf, 3)
    assert tf.q == 1.5  # F target replaces q by p


def test_weight_compat_cylindrical(tp2):
    # W(x', x_n) = V(x'): both constants 1 up to quadrature tolerance
    base_win = LatticeWindow(1, 0, 2, (0,), (2,))
    V = MatrixWeight.diag_power([1.0, 2.0], [0.5, 0.0], n=1)

    def w_eval(x):
        return V(np.atleast_2d(x)[:, :1])

    W = MatrixWeight(2, 2, w_eval, "cylinder")
    c116, c127 = weight_compat_check(V, W, 2.0, base_win, QuadratureSpec(4, 2))
    assert c116 == pytest.approx(1.0, abs=1e-6)
    assert c127 == pytest.approx(1.0, abs=1e-6)


def test_weight_compat_scaling_invariance(tp2):
    base_win = LatticeWindow(1, 0, 1, (0,), (1,))
    V = MatrixWeight.identity(1, 1)
    W = MatrixWeight.diag_power([1.0], [0.4], n=2, floor=0.05)
    a = weight_compat_check(V, W, 2.0, base_win, QuadratureSpec(2, 1))
    V2 = MatrixWeight.constant([[5.0]], 1)

    def w2(x):
        return 5.0 * W(x)

    W2 = MatrixWeight(1, 2, w2)
    b = weight_compat_check(V2, W2, 2.0, base_win, QuadratureSpec(2, 1))
    assert a[0] == pytest.approx(b[0], rel=1e-9)
    assert a[1] == pytest.approx(b[1], rel=1e-9)


def test_trace_norm_report_refusal(tp2):
    sp = SpaceParams(BESOV, 0.1, 0.0, 1.0, 1.0)  # s below 1/p + E
    V = MatrixWeight.identity(1, 1)
    W = MatrixWeight.identity(1, 2)
    with pytest.raises(PreconditionError, match="threshold"):
        trace_norm_report(tp2, sp, W, V, (2,), (0,), (1,), -4, 4)


def test_trace_norm_report_runs(tp2):
    sp = SpaceParams(BESOV, 1.6, 0.0, 1.0, 1.0)
    V = MatrixWeight.identity(1, 1)
    W = MatrixWeight.identity(1, 2)
    rep = trace_norm_report(tp2, sp, W, V, (2, 3), (0,), (1,), -2, 2,
                            samples=6, seed=1)
    assert rep["compat_C116"] == pytest.approx(1.0, abs=1e-9)
    assert rep["per_depth"][0]["max_ratio"] > 0
    assert math.isfinite(rep["growth"])


def test_weight_compat_complex_weight():
    # |V^{1/2} z|^2 = z* V z = 2 for every real unit z, against 1 for W = I
    V = MatrixWeight.constant([[2, 1j], [-1j, 2]], 1)
    c116, c127 = weight_compat_check(V, MatrixWeight.identity(2, 2), 2.0,
                                     LatticeWindow(1, 0, 1, (0,), (1,)), QuadratureSpec(2, 1))
    assert c116 == pytest.approx(2.0, rel=1e-12)
    assert c127 == pytest.approx(0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# batched forms against the per-cube and per-channel code they replaced


def _weight_compat_check_reference(V, W, p, window, quad, directions=32):
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((directions, V.m))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    c116 = 0.0
    c127 = 0.0
    for base in window.all_cubes():
        cube = stack_cube(base, 0)
        xv, _ = quad.nodes(base.lower, base.upper)
        xw, _ = quad.nodes(cube.lower, cube.upper)
        rv = V.power(xv, 1.0 / p)
        rw = W.power(xw, 1.0 / p)
        num = np.mean(np.linalg.norm(np.einsum("nab,db->nda", rv, dirs), axis=-1) ** p, axis=0)
        den = np.mean(np.linalg.norm(np.einsum("nab,db->nda", rw, dirs), axis=-1) ** p, axis=0)
        if np.any(den <= 0) or np.any(num <= 0):
            raise PreconditionError(f"degenerate average on cube {base}")
        c116 = max(c116, float(np.max(num / den)))
        c127 = max(c127, float(np.max(den / num)))
    return c116, c127


def _smooth_pair(m, complex_values, seed):
    """V on R and W on R^2, Hermitian positive definite and smooth."""
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal((3, m, m))
    if complex_values:
        coef = coef + 1j * rng.standard_normal((3, m, m))

    def weight(n):
        def f(x):
            s = np.sin(np.pi * x[:, 0])[:, None, None]
            c = np.cos(2.0 * x[:, -1] + n)[:, None, None]
            M = coef[0] + s * coef[1] + c * coef[2]
            return M @ np.swapaxes(M.conj(), -1, -2) + 0.2 * np.eye(m)
        return MatrixWeight(m, n, f)

    return weight(1), weight(2)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_weight_compat_matches_per_cube_oracle(m, complex_values, p):
    V, W = _smooth_pair(m, complex_values, seed=m)
    window = LatticeWindow(1, -1, 2, (-2,), (2,))
    quad = QuadratureSpec(2, 1)
    got = weight_compat_check(V, W, p, window, quad)
    ref = _weight_compat_check_reference(V, W, p, window, quad)
    assert got == pytest.approx(ref, rel=1e-12, abs=0)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_weight_compat_complex_constant_matches_oracle(p):
    V = MatrixWeight.constant([[2, 1j], [-1j, 2]], 1)
    W = MatrixWeight.constant([[3, 1 - 1j], [1 + 1j, 2]], 2)
    window = LatticeWindow(1, 0, 1, (0,), (1,))
    got = weight_compat_check(V, W, p, window, QuadratureSpec(2, 1))
    ref = _weight_compat_check_reference(V, W, p, window, QuadratureSpec(2, 1))
    assert got == pytest.approx(ref, rel=1e-12, abs=0)


def test_weight_compat_names_the_first_degenerate_cube():
    # V vanishes on [1/2, 1): the first such window cube is the level-1 cube 1
    V = MatrixWeight(1, 1, lambda x: (x[:, :1, None] < 0.5).astype(float))
    window = LatticeWindow(1, 0, 2, (0,), (1,))
    with pytest.raises(PreconditionError, match=r"degenerate average on cube 1:1"):
        weight_compat_check(V, MatrixWeight.identity(1, 2), 2.0, window, QuadratureSpec(2, 0))
    with pytest.raises(PreconditionError, match=r"degenerate average on cube 1:1"):
        _weight_compat_check_reference(V, MatrixWeight.identity(1, 2), 2.0, window,
                                       QuadratureSpec(2, 0))


def test_channel_norm_is_the_per_channel_sum(tp2):
    sp = SpaceParams(BESOV, 1.6, 0.1, 2.0, 2.0)
    window = LatticeWindow(2, 0, 2, (0, -1), (1, 1))
    rng = np.random.default_rng(2)
    fields = {lam: CoeffField.random(window, 1, rng, density=0.4) for lam in tp2.source.channels}
    W = MatrixWeight.diag_power([1.5], [0.3], n=2, floor=0.1)
    for grid_extra in (0, 2):
        want = sum(seq_norm_weighted(tf, W, sp, grid_extra).value for tf in fields.values())
        assert channel_norm(fields, W, sp, grid_extra) == want  # bitwise


def _slab_window():
    return LatticeWindow(2, 0, 1, (0, 0), (1, 1))


@pytest.mark.parametrize("call, message", [
    (lambda tp: target_params(SpaceParams(BESOV, 1.0, 0.0, 2.0, 2.0), 1), "trace targets need n >= 2"),
    (lambda tp: TracePair(daubechies_filter(1), 1, resolution=8), "trace pairs need n >= 2"),
    (lambda tp: trace_wavelet(tp, (1,), DyadicCube(2, 0, (0, 0))), "channel/cube dimension mismatch"),
    (lambda tp: trace_wavelet(tp, (1, 0), DyadicCube(1, 0, (0,))), "channel/cube dimension mismatch"),
    (lambda tp: ext_wavelet(tp, (1, 0), DyadicCube(1, 0, (0,))), "channel/cube dimension mismatch"),
    (lambda tp: ext_wavelet(tp, (1,), DyadicCube(2, 0, (0, 0))), "channel/cube dimension mismatch"),
    (lambda tp: trace_coeffs(tp, SlabCoeffs({(1, 1): CoeffField(_slab_window(), 1)},
                                        _slab_window())),
     "slab carrier must live in a last-bit-0 channel"),
    (lambda tp: weight_compat_check(MatrixWeight.identity(1, 1), MatrixWeight.identity(2, 2), 2.0,
                                    LatticeWindow(1, 0, 1, (0,), (1,))),
     "weights have different vector dimensions"),
    (lambda tp: weight_compat_check(MatrixWeight.identity(1, 2), MatrixWeight.identity(1, 2), 2.0,
                                    LatticeWindow(1, 0, 1, (0,), (1,))),
     "weight dimensions do not match the base window"),
], ids=["target-1d", "pair-1d", "trace-channel", "trace-cube", "ext-channel", "ext-cube",
        "slab-channel", "compat-vector-dimension", "compat-space-dimension"])
def test_trace_refusals(tp_haar, call, message):
    with pytest.raises(PreconditionError, match=message):
        call(tp_haar)
