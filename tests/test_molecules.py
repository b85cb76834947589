import numpy as np
import pytest

from dyadica.dyadic import DyadicCube
from dyadica.errors import PreconditionError
from dyadica.molecules import (
    MoleculeCandidate,
    MoleculeParams,
    ValidationGrid,
    envelope,
    families_ad_check,
    make_atom,
    mgh_bound,
    multi_indices,
    validate_atom,
    validate_molecule,
    wavelet_family,
)
from dyadica.params import (
    BESOV,
    SpaceParams,
    derived_indices,
    molecule_param_sets,
    rounding_profile,
)
from dyadica.wavelets import WaveletSystem, daubechies_filter

Q0 = DyadicCube(1, 0, (0,))


def _gaussian_candidate(q=Q0):
    c = np.array(q.center)
    s = q.side

    def f(pts):
        r2 = np.sum(((pts - c) / s) ** 2, axis=-1)
        return q.volume ** -0.5 * np.exp(-r2)

    def d1(pts):
        t = (pts[:, 0] - c[0]) / s
        return q.volume ** -0.5 * np.exp(-(t ** 2)) * (-2 * t / s)

    return MoleculeCandidate(q, f, derivatives={(1,): d1}, max_order=1,
                             label="gaussian")


def test_multi_indices():
    assert list(multi_indices(2, 1)) == [(0, 0), (1, 0), (0, 1)]
    assert (2, 1) in set(multi_indices(2, 3))


def test_gaussian_passes_decay_fails_cancellation():
    f = _gaussian_candidate()
    rep = validate_molecule(f, K=3.0, L=0.0, M=3.0, N=1.0)
    assert rep["decay"].passed
    assert rep["derivative-decay"].detail.get("void")
    assert rep["holder"].passed
    assert not rep["cancellation"].passed  # unit integral
    assert not rep.passed
    rep2 = validate_molecule(f, K=3.0, L=-1.0, M=3.0, N=1.0)
    assert rep2["cancellation"].passed
    assert rep2.passed


def test_envelope_self_probe():
    # f = (u_K)_Q passes the decay check with constant 1 and fails for K' > K
    q = Q0
    for K in (2.0, 4.0):
        f = MoleculeCandidate(q, lambda pts, K=K: envelope(K, q, pts))
        rep = validate_molecule(f, K=K, L=-1, M=K, N=-1)
        assert rep["decay"].passed
        assert rep["decay"].constant == pytest.approx(1.0, rel=1e-12)
        rep_bad = validate_molecule(f, K=K + 1.0, L=-1, M=K, N=-1)
        assert not rep_bad["decay"].passed


def test_daubechies4_wavelet_is_molecule():
    # acceptance-level check: order 4 passes with L = 3 and N = 1.0
    sys = WaveletSystem(1, daubechies_filter(4), resolution=12)
    fam = wavelet_family(sys, (1,), MoleculeParams(3.0, 3.0, 3.0, 1.0))
    for q in (DyadicCube(1, 0, (0,)), DyadicCube(1, 2, (5,))):
        cand = fam(q)
        rep = validate_molecule(cand, K=3.0, L=3.0, M=3.0, N=1.0)
        assert rep["decay"].passed
        assert rep["cancellation"].passed, rep.to_dict()
        assert rep["holder"].passed
        assert rep.passed


def test_haar_fails_holder():
    sys = WaveletSystem(1, daubechies_filter(1), resolution=10)
    fam = wavelet_family(sys, (1,), MoleculeParams(3.0, 0.0, 3.0, 0.5))
    cand = fam(Q0)
    rep = validate_molecule(cand, K=3.0, L=0.0, M=3.0, N=0.5)
    # the jump forces an unbounded Hoelder quotient as separations shrink;
    # the fitted constant is large already at the sampled separations
    assert rep["holder"].constant > 3.0


# ---------------------------------------------------------------------------
# mgh_bound

def test_mgh_symmetric():
    mp = MoleculeParams(3.0, 1.0, 3.0, 1.5)
    M, G, H = mgh_bound(mp, mp, n=1, alpha=0.1)
    assert G == H
    assert M == 3.0
    assert G == pytest.approx(0.5 + min(1.5, 2.0, 3.0 - 1 - 0.1))


def test_mgh_positive_part_clamp():
    pm = MoleculeParams(K=3.0, L=1.0, M=3.0, N=-0.5)   # N_m < 0
    pb = MoleculeParams(K=3.0, L=-0.5, M=3.0, N=-1.0)  # N_b < 0, L_b < 0
    M, G, H = mgh_bound(pm, pb, n=1, alpha=0.1)
    # G uses N_b and L_m: min(-1, 2, 1.9) < 0 -> clamp
    assert G == 0.5
    # H uses N_m and L_b: min(-0.5, 0, 1.9) < 0 -> clamp
    assert H == 0.5


def test_mgh_refuses_nonpositive_alpha():
    mp = MoleculeParams(3.0, 1.0, 3.0, 1.5)
    with pytest.raises(PreconditionError, match="alpha must be positive"):
        mgh_bound(mp, mp, n=1, alpha=0.0)


def test_mgh_monotone():
    rng = np.random.default_rng(0)
    for _ in range(50):
        base = MoleculeParams(*(rng.uniform(1.2, 6, size=4)))
        other = MoleculeParams(*(rng.uniform(1.2, 6, size=4)))
        M0, G0, H0 = mgh_bound(base, other, n=1, alpha=0.05)
        bumped = MoleculeParams(base.K + 0.5, base.L + 0.5, base.M + 0.5, base.N + 0.5)
        M1, G1, H1 = mgh_bound(bumped, other, n=1, alpha=0.05)
        assert M1 >= M0 and G1 >= G0 and H1 >= H0


def test_mgh_requires_decay_above_dimension():
    mp = MoleculeParams(0.5, 0.0, 3.0, 1.0)
    with pytest.raises(PreconditionError):
        mgh_bound(mp, mp, n=1, alpha=0.1)


# ---------------------------------------------------------------------------
# families_ad_check

def test_families_ad_check():
    sp = SpaceParams(BESOV, 0.3, 0.1, 1.0, 2.0)
    di = derived_indices(sp, 1, 0.2)
    # parameters 0.1 inside each set's strict bounds, on its L bound
    syn, ana = (MoleculeParams(b.K + 0.1, b.L, b.M + 0.1, b.N + 0.1)
                for b in (spec.bounds() for spec in molecule_param_sets(di, 1)))
    ok, failing = families_ad_check(ana, syn, di, 1)
    assert ok and failing == []
    bad_syn = MoleculeParams(syn.K, syn.L, syn.M, di.s_eff)  # N_b = s_eff fails
    ok2, failing2 = families_ad_check(ana, bad_syn, di, 1)
    assert not ok2
    assert any(line.startswith("synthesis N >") for line in failing2)


def test_families_ad_check_tau0_reduces_to_classical():
    sp = SpaceParams(BESOV, 0.4, 0.0, 2.0, 2.0)
    di = derived_indices(sp, 1, 0.0)
    assert di.j_eff == di.j_index and di.s_eff == sp.s
    syn_spec, _ = molecule_param_sets(di, 1)
    assert syn_spec.j == di.j_index and syn_spec.s == sp.s


# ---------------------------------------------------------------------------
# atoms

def test_make_atom_bump_when_no_moments():
    a = make_atom(Q0, r=1.0, L=-1.0, N=1.0)
    pts = np.linspace(0.05, 0.95, 50)[:, None]
    assert np.all(a(pts).real > 0)  # plain positive bump


def test_make_atom_moments_vanish():
    a = make_atom(Q0, r=1.5, L=1.0, N=2.0)
    xs = np.linspace(-0.5, 1.5, 200001)[:, None]
    vals = a(xs).real
    h = xs[1, 0] - xs[0, 0]
    scale = np.max(np.abs(vals)) * 1.5
    assert abs(np.sum(vals) * h) < 1e-10 * scale
    assert abs(np.sum(xs[:, 0] * vals) * h) < 1e-10 * scale
    # second moment does not vanish (L = 1 only)
    assert abs(np.sum(xs[:, 0] ** 2 * vals) * h) > 1e-8 * scale


def test_make_atom_rescaling_covariance():
    q = DyadicCube(1, 2, (3,))
    a_ref = make_atom(Q0, r=1.2, L=0.0, N=1.0)
    a_q = make_atom(q, r=1.2, L=0.0, N=1.0)
    ts = np.linspace(0.1, 0.9, 37)
    pts_ref = ts[:, None]
    pts_q = (np.array(q.lower) + ts[:, None] * q.side)
    ref_vals = a_ref(pts_ref)
    q_vals = a_q(pts_q)
    assert np.allclose(q_vals, q.volume ** -0.5 * ref_vals,
                       atol=1e-12 * np.max(np.abs(q_vals)))


def test_validate_atom_pass_and_failures():
    q = DyadicCube(1, 1, (1,))
    fine = ValidationGrid(extent=6.0, points_per_side=256)
    a = make_atom(q, r=2.0, L=1.0, N=2.0)
    rep = validate_atom(a, q, r=2.0, L=1.0, N=2.0, grid=fine)
    assert rep.passed, rep.to_dict()

    # support violation: a bump wider than rQ
    wide = make_atom(q, r=3.5, L=-1.0, N=1.0)
    rep2 = validate_atom(wide, q, r=1.0, L=-1.0, N=1.0, grid=fine)
    assert not rep2["support"].passed
    assert rep2["support"].witness is not None

    # derivative bound scaled by 1.01 must fail (construction sits at 0.999)
    scaled = MoleculeCandidate(
        q, lambda pts: 1.01 * a(pts),
        derivatives={g: (lambda pts, g=g: 1.01 * a.deriv(g, pts))
                     for g in multi_indices(1, 2)},
        max_order=2, support_radius=a.support_radius)
    rep3 = validate_atom(scaled, q, r=2.0, L=1.0, N=2.0, grid=fine)
    assert not rep3["derivative-bounds"].passed
    assert rep3["derivative-bounds"].witness is not None


def test_atom_is_molecule_for_any_decay():
    q = Q0
    a = make_atom(q, r=2.0, L=0.0, N=1.0)
    for K in (2.0, 5.0, 9.0):
        rep = validate_molecule(a, K=K, L=0.0, M=K, N=1.0)
        assert rep.passed, (K, rep.to_dict())


def test_make_atom_requires_r_at_least_1():
    with pytest.raises(PreconditionError):
        make_atom(Q0, r=0.5, L=0.0, N=1.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call, message", [
    (lambda: ValidationGrid(0.0), "no finite extent: extent 0.0, 16 per side"),
    (lambda: ValidationGrid(NAN), "no finite extent: extent nan, 16 per side"),
    (lambda: ValidationGrid(INF), "no finite extent: extent inf, 16 per side"),
    (lambda: ValidationGrid(8.0, 0), "validation grid has no points or no finite extent: "
                                     "extent 8.0, 0 per side"),
    (lambda: ValidationGrid(0.05, 16), "has no points or no finite extent: extent 0.05, 16 "),
    (lambda: make_atom(Q0, r=NAN, L=0.0, N=1.0), "r must be finite, got nan"),
    (lambda: make_atom(Q0, r=2.0, L=INF, N=1.0), "L must be finite, got inf"),
    (lambda: make_atom(Q0, r=2.0, L=0.0, N=NAN), "N must be finite, got nan"),
    (lambda: validate_atom(make_atom(Q0, 2.0, 0.0, 1.0), Q0, NAN, 0.0, 1.0), "r must be finite"),
    (lambda: validate_atom(make_atom(Q0, 2.0, 0.0, 1.0), Q0, 2.0, 0.0, INF), "N must be finite"),
    (lambda: validate_molecule(_gaussian_candidate(), NAN, 0.0, 3.0, 0.0), "K must be finite"),
    (lambda: validate_molecule(_gaussian_candidate(), 3.0, NAN, 3.0, 0.0), "L must be finite"),
    (lambda: validate_molecule(_gaussian_candidate(), 3.0, 0.0, INF, 0.0), "M must be finite"),
    (lambda: validate_molecule(_gaussian_candidate(), 3.0, 0.0, 3.0, NAN), "N must be finite"),
], ids=["extent-zero", "extent-nan", "extent-inf", "no-points", "too-few-points", "atom-r",
        "atom-L", "atom-N", "validate-atom-r", "validate-atom-N", "molecule-K", "molecule-L",
        "molecule-M", "molecule-N"])
def test_molecule_refusals(call, message):
    with pytest.raises(PreconditionError, match=message):
        call()


def _step_candidate():
    """A jump at x = 0.3: no panel count of the moment quadrature agrees with the next."""
    return MoleculeCandidate(Q0, lambda p: np.sign(p[:, 0] - 0.3) * np.exp(-p[:, 0] ** 2))


@pytest.mark.parametrize("max_refine, panels, change", [(6, 64, r"0\.00\d+"), (0, 1, "none")])
def test_moment_quadrature_refuses_at_its_cap(max_refine, panels, change):
    from dyadica.molecules import _moment_quadrature
    with pytest.raises(PreconditionError,
                       match=rf"moment \(0,\) on cube 0:0 not converged at {panels} panels: "
                             rf"last change {change}, tolerance 1e-09"):
        _moment_quadrature(_step_candidate(), (0,), 8.0, 1e-9, max_refine=max_refine)


def test_validate_molecule_refuses_an_unconverged_moment():
    with pytest.raises(PreconditionError, match=r"moment \(0,\) on cube 0:0 not converged"):
        validate_molecule(_step_candidate(), 1, 1, 1, 0)


def test_wavelet_cancellation_claim_beyond_moments_fails():
    # order 4 has four vanishing moments (orders 0..3); claiming a fourth
    # order (L = 4) must fail the cancellation check
    sys = WaveletSystem(1, daubechies_filter(4), resolution=12)
    fam = wavelet_family(sys, (1,), MoleculeParams(3.0, 4.0, 3.0, 1.0))
    rep = validate_molecule(fam(Q0), K=3.0, L=4.0, M=3.0, N=1.0)
    assert not rep["cancellation"].passed
    assert rep["cancellation"].witness == (4,)


# ---------------------------------------------------------------------------
# the shared helpers against the code they replaced: the candidate's own
# central-difference recursion and the per-panel Gauss-Legendre axes, both
# bitwise


def _candidate_deriv_reference(f, gamma, pts):
    order = sum(gamma)
    if order == 0:
        return f(pts)
    if gamma in f.derivatives:
        return np.asarray(f.derivatives[gamma](np.atleast_2d(pts)), dtype=complex)
    if order > f.max_order:
        raise PreconditionError("order above the cap")
    axis = next(i for i, gi in enumerate(gamma) if gi > 0)
    lower = tuple(gi - (1 if i == axis else 0) for i, gi in enumerate(gamma))
    h = f.fd_step_rel * f.cube.side
    pts = np.atleast_2d(pts)
    step = np.zeros(pts.shape[-1])
    step[axis] = h
    return (_candidate_deriv_reference(f, lower, pts + step)
            - _candidate_deriv_reference(f, lower, pts - step)) / (2 * h)


def _moment_quadrature_reference(f, gamma, extent, tol_abs, order=24, max_refine=6):
    q = f.cube
    n = q.n
    lo = np.array(q.center) - extent / 2 * q.side
    hi = np.array(q.center) + extent / 2 * q.side
    if f.support_radius < np.inf:
        lo = np.maximum(lo, np.array(q.center) - f.support_radius * q.side)
        hi = np.minimum(hi, np.array(q.center) + f.support_radius * q.side)
    prev = None
    panels = 1
    for _ in range(max_refine + 1):
        nodes_1d, weights_1d = np.polynomial.legendre.leggauss(order)
        axes, waxes = [], []
        for i in range(n):
            edges = np.linspace(lo[i], hi[i], panels + 1)
            xs, ws = [], []
            for a, b in zip(edges[:-1], edges[1:]):
                xs.append(0.5 * (b - a) * nodes_1d + 0.5 * (a + b))
                ws.append(0.5 * (b - a) * weights_1d)
            axes.append(np.concatenate(xs))
            waxes.append(np.concatenate(ws))
        grids = np.meshgrid(*axes, indexing="ij")
        wgrids = np.meshgrid(*waxes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        w = np.prod(np.stack([g.ravel() for g in wgrids], axis=-1), axis=-1)
        mono = np.prod(pts ** np.array(gamma), axis=-1)
        val = complex(np.sum(w * mono * f(pts)))
        if prev is not None and abs(val - prev) <= max(tol_abs, 1e-300):
            return val
        prev = val
        panels *= 2
    return None  # the library refuses at the cap


def _smooth_candidate(n, max_order, partial=False):
    q = DyadicCube(n, 1, (1,) * n)
    c = np.array(q.center)

    def f(pts):
        t = (pts - c) / q.side
        return np.exp(-np.sum(t ** 2, axis=-1)) * (1.0 + 0.5j * np.sin(t[:, 0]))

    def d0(pts):
        t = (pts - c) / q.side
        e = np.exp(-np.sum(t ** 2, axis=-1))
        return e * (-2 * t[:, 0] * (1.0 + 0.5j * np.sin(t[:, 0])) + 0.5j * np.cos(t[:, 0])) / q.side

    # with a closed form for d/dx_0, differences also stop on a registered entry
    derivatives = {(1,) + (0,) * (n - 1): d0} if partial else {}
    return MoleculeCandidate(q, f, derivatives, max_order=max_order, fd_step_rel=1e-3)


@pytest.mark.parametrize("n, partial", [(1, False), (2, False), (2, True), (3, False)])
def test_candidate_deriv_bitwise_equals_own_recursion(n, partial):
    f = _smooth_candidate(n, 3, partial)
    pts = np.random.default_rng(n).uniform(0.0, 2.0, (20, n))
    for gamma in multi_indices(n, 3):
        got = f.deriv(gamma, pts)
        assert got.tobytes() == _candidate_deriv_reference(f, gamma, pts).tobytes(), gamma
    with pytest.raises(PreconditionError, match="declares derivatives up to order 3"):
        f.deriv((4,) + (0,) * (n - 1), pts)


def test_atom_deriv_bitwise_equals_own_recursion():
    atom = make_atom(DyadicCube(2, 1, (1, 0)), 2.0, 1.0, 2.0)
    atom.derivatives = {g: d for g, d in atom.derivatives.items() if sum(g) <= 1}
    pts = ValidationGrid(extent=3.0, points_per_side=4).points(atom.cube)
    for gamma in multi_indices(2, atom.max_order):
        got = atom.deriv(gamma, pts)
        assert got.tobytes() == _candidate_deriv_reference(atom, gamma, pts).tobytes(), gamma


@pytest.mark.parametrize("n", [1, 2])
def test_moment_quadrature_bitwise_equals_per_panel_axes(n):
    from dyadica.molecules import _moment_quadrature
    f = _smooth_candidate(n, 0)
    for gamma in multi_indices(n, 2):
        for tol in (1e-3, 1e-14):  # both stop at 2 panels, below the cap
            got = _moment_quadrature(f, gamma, 6.0, tol, max_refine=3)
            assert got == _moment_quadrature_reference(f, gamma, 6.0, tol, max_refine=3)


# ---------------------------------------------------------------------------
# the Hoelder step: one derivative batch at the probe points per order and
# one envelope pass per segment, reporting bitwise what the per-separation
# loop reported


def _holder_reference(f, M, N, grid=ValidationGrid(), holder_seps=5, holder_probe=17):
    q = f.cube
    n = q.n
    pts = grid.points(q)
    rpN = rounding_profile(N)
    expo = rpN.strict_frac
    gorder = max(rpN.strict_floor, 0)
    rng = np.random.default_rng(12345)
    sub = pts[rng.choice(len(pts), size=min(len(pts), 160), replace=False)]
    best_c = 0.0
    witness = None
    deltas = []
    for gamma in multi_indices(n, gorder):
        if sum(gamma) != gorder:
            continue
        for i_sep in range(holder_seps):
            h = q.side / 2 ** i_sep
            for axis in range(n):
                dvec = np.zeros(n)
                dvec[axis] = h
                a = f.deriv(gamma, sub)
                b = f.deriv(gamma, sub + dvec)
                diff = np.abs(a - b)
                sup_env = np.zeros(len(sub))
                for frac in np.linspace(-1.0, 1.0, holder_probe):
                    sup_env = np.maximum(sup_env, envelope(M, q, sub + frac * dvec))
                sup_env_fine = sup_env.copy()
                for frac in np.linspace(-1.0, 1.0, 2 * holder_probe - 1):
                    sup_env_fine = np.maximum(sup_env_fine, envelope(M, q, sub + frac * dvec))
                deltas.append(float(np.max(np.abs(sup_env_fine - sup_env)
                                           / np.maximum(sup_env, 1e-300))))
                bound = q.side ** -gorder * (h / q.side) ** expo * sup_env_fine
                ratios = diff / bound
                i = int(np.argmax(ratios))
                if ratios[i] > best_c:
                    best_c = float(ratios[i])
                    witness = (tuple(sub[i]), h, gamma)
    return best_c, witness, max(deltas)


def _holder_candidates():
    d4 = wavelet_family(WaveletSystem(1, daubechies_filter(4), resolution=12), (1,),
                        MoleculeParams(3.0, 3.0, 3.0, 1.5))
    return [
        (d4(Q0), 1.5),
        (d4(DyadicCube(1, 2, (5,))), 1.0),
        (_gaussian_candidate(), 1.0),
        (make_atom(DyadicCube(2, 1, (0, 1)), r=1.5, L=1.0, N=2.0), 2.0),
        (make_atom(DyadicCube(2, 0, (1, 0)), r=1.5, L=0.0, N=1.5), 1.5),
    ]


def test_holder_step_bitwise_equals_per_separation_loop():
    for f, N in _holder_candidates():
        rep = validate_molecule(f, K=3.0, L=-1.0, M=3.0, N=N)["holder"]
        best_c, witness, delta = _holder_reference(f, 3.0, N)
        assert (rep.constant, rep.witness) == (best_c, witness)
        assert rep.detail["probe_refinement_delta"] == delta


def test_holder_step_takes_one_derivative_batch_per_order(monkeypatch):
    calls = {}
    original = MoleculeCandidate.deriv

    def counted(self, gamma, pts):
        key = (tuple(gamma), np.asarray(pts).tobytes())
        calls[key] = calls.get(key, 0) + 1
        return original(self, gamma, pts)

    monkeypatch.setattr(MoleculeCandidate, "deriv", counted)
    f, N = _holder_candidates()[0]
    validate_molecule(f, K=3.0, L=-1.0, M=3.0, N=N)
    assert calls and max(calls.values()) == 1


def test_vanishing_candidate_meets_decay_with_constant_zero():
    q = DyadicCube(1, 0, (0,))
    zero = MoleculeCandidate(q, lambda p: np.zeros(len(p)), support_radius=1.0)
    rep = validate_molecule(zero, 2.0, 0.0, 2.0, 0.5)
    decay = rep["decay"]
    assert decay.passed and decay.constant == 0.0 and decay.witness is None
    assert rep.passed
    with pytest.raises(KeyError):
        rep["no-such-condition"]
