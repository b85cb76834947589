"""The dense per-level coefficient field and the array paths built on it,
checked against reference implementations that work one cube at a time: a
dict-of-cubes field and per-cube analysis, synthesis, stack and trace code."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from dyadica.dyadic import CubeArrays, DyadicCube, LatticeWindow, format_cube, parse_cube
from dyadica.errors import PreconditionError
from dyadica.params import BESOV, TRIEBEL_LIZORKIN, SpaceParams
from dyadica.seq import (
    CoeffField,
    LevelFunctionStack,
    NormResult,
    averaged_stack,
    la_norm,
    random_rows,
    seq_norm_averaged,
    seq_norm_weighted,
    seq_norms_averaged,
    seq_norms_weighted,
    weighted_stack,
)
from dyadica.trace import (
    SlabCoeffs,
    TracePair,
    ext_coeffs,
    stacked_window,
    trace_coeffs,
    trace_wavelet,
)
from dyadica.wavelets import (
    FunctionSample,
    WaveletSystem,
    analyze,
    cascade,
    daubechies_filter,
    parseval_report,
    synthesize,
)
from dyadica.weights import MatrixWeight, QuadratureSpec, ReducingFamily

# ---------------------------------------------------------------------------
# references: the dict-of-cubes field and the per-cube paths


class DictField:
    """Finite map cube -> vector in C^m; absent cubes are zero."""

    def __init__(self, window, m, data=None):
        self.window = window
        self.m = int(m)
        self._data = {}
        if data:
            for q, v in data.items():
                self.set(q, v)

    def set(self, q, value):
        if not self.window.contains(q):
            raise PreconditionError(f"cube {q} outside the window")
        v = np.asarray(value, dtype=complex).reshape(self.m)
        if np.all(v == 0):
            self._data.pop(q, None)
        else:
            self._data[q] = v

    def get(self, q):
        return self._data.get(q, np.zeros(self.m, dtype=complex))

    def items(self):
        return self._data.items()

    def cubes(self):
        return self._data.keys()

    def __len__(self):
        return len(self._data)

    def levels(self):
        return sorted({q.j for q in self._data})

    def copy(self):
        return DictField(self.window, self.m, dict(self._data))

    def scaled(self, c):
        out = DictField(self.window, self.m)
        for q, v in self._data.items():
            out.set(q, c * v)
        return out

    def plus(self, other):
        out = self.copy()
        for q, v in other.items():
            out.set(q, out.get(q) + v)
        return out

    @classmethod
    def random(cls, window, m, rng, density=0.3, complex_values=False):
        return cls.random_batch(window, m, rng, 1, density, complex_values)[0]

    @classmethod
    def random_batch(cls, window, m, rng, samples, density=0.3, complex_values=False):
        """``samples`` fields in the draw order of ``random_rows``, filled cube
        by cube: one uniform for every cube of every sample, then one normal
        vector for each picked cube in turn, then (complex values) one more
        for each picked cube as its imaginary part."""
        uniforms = [[rng.random() for _ in range(window.count())] for _ in range(samples)]
        fields = [cls(window, m) for _ in range(samples)]
        picked = [(t, q) for t, row in zip(fields, uniforms)
                  for q, u in zip(window.all_cubes(), row) if u < density]
        for t, q in picked:
            t.set(q, rng.standard_normal(m))
        if complex_values:
            for t, q in picked:
                t.set(q, t.get(q) + 1j * rng.standard_normal(m))
        return fields

    def to_csv(self):
        lines = []
        for q in sorted(self._data, key=lambda c: (c.j, c.k)):
            parts = [format_cube(q)]
            for z in self._data[q]:
                parts.append(repr(float(z.real)))
                parts.append(repr(float(z.imag)))
            lines.append(", ".join(parts))
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_csv(cls, text, window, m):
        out = cls(window, m)
        seen = set()
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            n = window.n
            if not _csv_line(n, m).fullmatch(line):
                raise PreconditionError(f"bad coefficient line {line!r}")
            parts = [p.strip() for p in line.split(",")]
            cube_text = parts[0] + ("," + ",".join(parts[1:n]) if n > 1 else "")
            nums = parts[n:]
            vals = np.array([float(nums[2 * i]) + 1j * float(nums[2 * i + 1])
                             for i in range(m)])
            cube = parse_cube(cube_text)  # the line pattern fixes its n indices
            if cube in seen:
                raise PreconditionError(f"duplicate coefficient line for cube {cube}")
            seen.add(cube)
            out.set(cube, vals)
        return out


# A coefficient line: integer level and indices, decimal floats in ASCII, with
# optional blanks around each field.
_INT = r"\s*[+-]?[0-9]+\s*"
_FLOAT = r"\s*[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?|inf|infinity|nan)\s*"


def _csv_line(n, m):
    return re.compile(_INT + ":" + ",".join([_INT] * n + [_FLOAT] * (2 * m)),
                      re.ASCII | re.IGNORECASE)


def axis_corr_reference(values, taps, stride, k_range, s, axis_scale):
    """Contract the trailing axis of ``values`` against shifted taps.

    out[..., k] = axis_scale * sum_t values[..., k*stride - s + t] * taps[t]
    for k in [k_range[0], k_range[1]).
    """
    T = len(taps)
    lead = values.shape[:-1]
    N = values.shape[-1]
    nk = k_range[1] - k_range[0]
    if nk <= 0:
        return np.zeros(lead + (0,), dtype=complex)
    if stride <= 4 and nk * T <= 1 << 22:
        # fine levels: short taps, many cubes; strided windows + one matmul
        padded = np.zeros(lead + (N + 2 * (T - 1),), dtype=values.dtype)
        padded[..., T - 1: T - 1 + N] = values
        windows = sliding_window_view(padded, T, axis=-1)
        qs = np.arange(k_range[0], k_range[1]) * stride - s + (T - 1)
        rows = windows[..., qs, :]
        return axis_scale * (rows @ taps)
    # coarse levels: few cubes with long taps; slice-dot per cube
    out = np.zeros(lead + (nk,), dtype=complex)
    for i in range(nk):
        q = (k_range[0] + i) * stride - s
        a = max(q, 0)
        b = min(q + T, N)
        if a >= b:
            continue
        out[..., i] = values[..., a:b] @ taps[a - q: b - q]
    return axis_scale * out


def axis_k_range_reference(s, N, stride, T, bounds):
    k_lo = -(-(s - T + 1) // stride)           # ceil((s - T + 1) / stride)
    k_hi = (s + N - 1) // stride + 1
    return max(k_lo, bounds[0]), min(k_hi, bounds[1])


def analyze_reference(f, sys, window, include_scaling=True, min_headroom=4):
    """Direct analysis: every level and channel correlates the samples with
    prototypes sampled at resolution g - j."""
    if f.n != sys.n or f.n != window.n:
        raise PreconditionError("dimension mismatch between sample, system, and window")
    g = f.grid_level
    if g < window.j_max + min_headroom:
        raise PreconditionError(
            f"sample grid level {g} too coarse for finest window level {window.j_max}"
            f" (needs headroom {min_headroom})")
    out = {}
    channel_list = list(sys.channels)
    if include_scaling:
        channel_list.append(sys.scaling_channel)
    for lam in channel_list:
        levels = ([window.j_min] if lam == sys.scaling_channel
                  else range(window.j_min, window.j_max + 1))
        tf = CoeffField(window, f.m)
        for j in levels:
            stride = 1 << (g - j)
            bounds = window.index_bounds(j)
            arr = f.values
            k_ranges = []
            for axis in range(f.n):
                taps = cascade(sys.fp, g - j)[lam[axis]]
                scale = math.ldexp(2.0 ** (j / 2.0), -g)  # 2^{j/2} * h
                kr = axis_k_range_reference(f.start[axis], f.shape[axis], stride,
                                            len(taps), bounds[axis])
                k_ranges.append(kr)
                if kr[0] >= kr[1]:
                    arr = None
                    break
                moved = np.moveaxis(arr, 1 + axis, -1)
                moved = axis_corr_reference(moved, taps, stride, kr, f.start[axis], scale)
                arr = np.moveaxis(moved, -1, 1 + axis)
            if arr is not None:
                tf.write(j, tuple(kr[0] for kr in k_ranges), arr)
        out[lam] = tf
    return out


def axis_scatter_reference(coef, taps, stride, k_lo, s, out_len, axis_scale):
    """Adjoint of _axis_corr, one update per cube."""
    T = len(taps)
    lead = coef.shape[:-1]
    padded = np.zeros(lead + (out_len + 2 * (T - 1),), dtype=complex)
    for i in range(coef.shape[-1]):
        q = (k_lo + i) * stride - s + (T - 1)
        if q + T <= 0 or q >= padded.shape[-1]:
            continue
        a = max(q, 0)
        b = min(q + T, padded.shape[-1])
        padded[..., a:b] += axis_scale * coef[..., i, None] * taps[a - q: b - q]
    return padded[..., T - 1: T - 1 + out_len]


def synthesize_reference(coefs, sys, grid_level, start, shape, m):
    """Dict-to-dense per level over the nonzero cubes' bounding box, then the
    per-cube scatter along each axis."""
    out = np.zeros((m,) + tuple(shape), dtype=complex)
    for lam in sorted(coefs):
        tf = coefs[lam]
        for j in sorted(tf.levels()):
            stride = 1 << (grid_level - j)
            entries = [(q, v) for q, v in tf.items() if q.j == j]
            k_lo = [min(q.k[a] for q, _ in entries) for a in range(sys.n)]
            k_hi = [max(q.k[a] for q, _ in entries) + 1 for a in range(sys.n)]
            arr = np.zeros((m,) + tuple(hi - lo for lo, hi in zip(k_lo, k_hi)), dtype=complex)
            for q, v in entries:
                arr[(slice(None),) + tuple(q.k[a] - k_lo[a] for a in range(sys.n))] = v
            for axis in range(sys.n):
                taps = cascade(sys.fp, grid_level - j)[lam[axis]]
                moved = np.moveaxis(arr, 1 + axis, -1)
                moved = axis_scatter_reference(moved, taps, stride, k_lo[axis], start[axis],
                                               shape[axis], 2.0 ** (j / 2.0))
                arr = np.moveaxis(moved, -1, 1 + axis)
            out += arr
    return out


def trace_coeffs_reference(tp, coefs, out_window):
    """Per-cube restriction: each source cube adds factor * value to its base."""
    m = next(iter(coefs.values())).m
    out = {}
    for lam, tf in coefs.items():
        target = out.setdefault(lam[:-1], DictField(out_window, m))
        for q, v in tf.items():
            _, base, factor = trace_wavelet(tp, lam, q)
            if factor == 0.0 or not out_window.contains(base):
                continue
            target.set(base, target.get(base) + factor * v)
    return out


def _cube_slices(window, grid_level, q):
    """Grid cells of q; the box edges are multiples of the cell side 2^-grid_level."""
    r = grid_level - q.j
    first = [a * 2 ** grid_level for a in window.lo]
    return tuple(slice(int((ki << r) - f), int((ki << r) - f) + (1 << r))
                 for ki, f in zip(q.k, first))


def level_vector_cells_reference(t, stack_shape, grid_level, j):
    """(m, cells...) array of sum_Q t_Q |Q|^{-1/2} 1_Q at one level, cube by cube."""
    win = t.window
    out = np.zeros((t.m,) + stack_shape, dtype=complex)
    scale = math.ldexp(1.0, j * win.n) ** 0.5
    for q, v in t.items():
        if q.j == j:
            sl = (slice(None),) + _cube_slices(win, grid_level, q)
            out[sl] = (v * scale)[(slice(None),) + (None,) * win.n]
    return out


def weighted_stack_reference(t, W, sp, grid_extra):
    win = t.window
    grid_level = win.j_max + grid_extra
    stack = LevelFunctionStack(win, grid_level, {})
    w_root = W.power(stack.midpoints(), 1.0 / sp.p)
    for j in t.levels():
        cells = level_vector_cells_reference(t, stack.grid_shape, grid_level, j)
        img = np.einsum("nab,nb->na", w_root, cells.reshape(t.m, -1).T)
        stack.levels[j] = 2.0 ** (j * sp.s) * np.linalg.norm(img, axis=-1).reshape(stack.grid_shape)
    return stack


def averaged_stack_reference(t, fam, sp):
    """Per-cube magnitudes |A_Q t_Q|, with the operators taken from the
    family's window-order array."""
    win = t.window
    ops = dict(zip(fam.window.all_cubes(), fam.ops))
    stack = LevelFunctionStack(win, win.j_max, {})
    for j in t.levels():
        g = np.zeros(stack.grid_shape)
        scale = math.ldexp(1.0, j * win.n) ** 0.5
        for q, v in t.items():
            if q.j == j:
                g[_cube_slices(win, win.j_max, q)] = float(np.linalg.norm(ops[q] @ v)) * scale
        stack.levels[j] = 2.0 ** (j * sp.s) * g
    return stack


# ---------------------------------------------------------------------------
# strategies


@st.composite
def windows(draw, dims=(1, 2, 3)):
    """Windows in 1 to 3 dimensions, with negative j_min and boxes off the origin."""
    n = draw(st.sampled_from(dims))
    j_min = draw(st.integers(-1 if n == 3 else -2, 1))
    j_max = min(j_min + draw(st.integers(0, 2)), {1: 3, 2: 2, 3: 1}[n])
    step = 1 << max(0, -j_min)  # a level-j_min cube fits in every box
    lo, hi = [], []
    for _ in range(n):
        a = step * draw(st.integers(-1, 1))
        lo.append(a)
        hi.append(a + step * draw(st.integers(1, 2 if n < 3 else 1)))
    return LatticeWindow(n, j_min, j_max, tuple(lo), tuple(hi))


def _pair(window, m, seed, complex_values, density=0.5):
    """The same seeded random field as a CoeffField and as a DictField."""
    new = CoeffField.random(window, m, np.random.default_rng(seed), density, complex_values)
    ref = DictField.random(window, m, np.random.default_rng(seed), density, complex_values)
    return new, ref


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_field(new, ref):
    """Equal cubes in (j, k) order, bitwise-equal vectors and CSV bytes."""
    order = sorted(ref.cubes(), key=lambda q: (q.j, q.k))
    assert new.cubes() == order
    assert [q for q, _ in new.items()] == order
    assert all(_same_bits(v, ref.get(q)) for q, v in new.items())
    assert len(new) == len(ref)
    assert new.levels() == ref.levels()
    assert new.to_csv() == ref.to_csv()


def _outside_cubes(window):
    n = window.n
    lo = [a for a, _ in window.index_bounds(window.j_max)]
    return [DyadicCube(n, window.j_max + 1, tuple(2 * a for a in lo)),
            DyadicCube(n, window.j_min - 1, tuple(lo)),
            DyadicCube(n, window.j_max, tuple(b for _, b in window.index_bounds(window.j_max)))]


# ---------------------------------------------------------------------------
# the field against the dict reference


@given(window=windows(), m=st.sampled_from((1, 3)), complex_values=st.booleans(),
       seed=st.integers(0, 2 ** 16), density=st.sampled_from((0.0, 0.3, 1.0)))
@settings(max_examples=60, deadline=None)
def test_field_matches_dict_oracle(window, m, complex_values, seed, density):
    new, ref = _pair(window, m, seed, complex_values, density)
    _assert_same_field(new, ref)
    # overwrite, clear and partially zero some cubes in the same order
    rng = np.random.default_rng(seed + 1)
    cubes = list(window.all_cubes())
    for _ in range(8):
        q = cubes[rng.integers(len(cubes))]
        v = rng.standard_normal(m) * (rng.random(m) < 0.6)
        if complex_values:
            v = v + 1j * rng.standard_normal(m)
        new.set(q, v)
        ref.set(q, v)
    _assert_same_field(new, ref)
    for q in cubes + _outside_cubes(window):
        assert _same_bits(new.get(q), ref.get(q))
    for q in _outside_cubes(window):
        with pytest.raises(PreconditionError, match="outside the window"):
            new.set(q, np.ones(m))
    for c in (2.5, -1j, 0.0):
        _assert_same_field(new.scaled(c), ref.scaled(c))
    other_new, other_ref = _pair(window, m, seed + 2, complex_values)
    _assert_same_field(new.plus(other_new), ref.plus(other_ref))
    back = CoeffField.from_csv(new.to_csv(), window, m)
    _assert_same_field(back, ref)
    # the dict field parsed re + 1j * im, which turns a signed zero into +0.0
    parsed = DictField.from_csv(ref.to_csv(), window, m)
    assert all(np.array_equal(back.get(q), parsed.get(q)) for q in cubes)


def test_field_levels_are_dense_arrays():
    win = LatticeWindow(2, -1, 1, (-2, 0), (2, 2))
    t = CoeffField(win, 3)
    q = DyadicCube(2, 1, (-3, 2))
    t.set(q, [1.0, 0.0, 2j])
    arr = t.level(1)
    assert arr.shape == (3, 8, 4) and t.lower(1) == (-4, 0)
    assert np.array_equal(arr[:, 1, 2], [1.0, 0.0, 2j])
    # an empty window level is a zero view of the field; outside the window
    # there is no level
    assert not t.level(0).any() and t.level(0).shape == (3, 4, 2)
    assert t.level(2) is None and t.levels() == [1]
    cubes, values = t.nonzero()
    assert cubes.cube(0) == q and np.array_equal(values[0], [1.0, 0.0, 2j])
    t.set(q, np.zeros(3))
    assert len(t) == 0 and t.levels() == [] and t.to_csv() == ""
    t.set(q, [1.0, 0.0, 0.0])
    t.write_all(np.zeros((win.count(), 3)))
    assert len(t) == 0 and t.levels() == [] and t.to_csv() == ""


@given(window=windows(), m=st.sampled_from((1, 3)), complex_values=st.booleans(),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_window_row_layout_and_field_views(window, m, complex_values, seed):
    # the level rows tile [0, count()) in level order
    stop = 0
    for j in range(window.j_min, window.j_max + 1):
        rows, shape = window.level_rows(j)
        assert (rows.start, rows.step) == (stop, None)
        assert rows.stop - rows.start == window.count(j) == math.prod(shape)
        assert shape == tuple(b - a for a, b in window.index_bounds(j))
        stop = rows.stop
    assert stop == window.count()
    cubes = CubeArrays.of_window(window)
    assert np.array_equal(window.positions(cubes), np.arange(window.count()))
    assert [cubes.cube(i) for i in range(len(cubes))] == list(window.all_cubes())
    # every level is a view of the one array of rows, which callers cannot write
    t = CoeffField.random(window, m, np.random.default_rng(seed), 0.5, complex_values)
    views = {j: t.level(j) for j in range(window.j_min, window.j_max + 1)}
    for j, view in views.items():
        rows, shape = window.level_rows(j)
        assert view.shape == (m,) + shape and np.shares_memory(view, t.rows())
        assert np.array_equal(view.reshape(m, -1).T, t.rows()[rows])
    with pytest.raises(ValueError):
        t.rows()[0] = 1.0
    with pytest.raises(ValueError):
        views[window.j_max][...] = 1.0
    # a write shows through an earlier view of its level
    q = cubes.cube(window.count() - 1)
    t.set(q, np.arange(1.0, m + 1))
    assert np.array_equal(views[q.j].reshape(m, -1)[:, -1], np.arange(1.0, m + 1))
    # a refused write_all leaves the field as it was
    before, dtype = t.rows().tobytes(), t.rows().dtype
    bad = np.full((window.count(), m), 2.0 + 1j)
    bad[-1, -1] = np.nan
    with pytest.raises(PreconditionError, match=f"non-finite coefficient for cube {q}"):
        t.write_all(bad)
    assert t.rows().dtype == dtype and t.rows().tobytes() == before


def test_random_rows_picks_cubes_at_the_density_and_repeats_per_seed():
    samples, count, m, density = 40, 50, 3, 0.3
    rows = random_rows(np.random.default_rng(3), samples, count, m, density)
    assert rows.shape == (samples, count, m) and rows.dtype == np.complex128
    picked = np.any(rows != 0, axis=2)
    # a picked row is a normal vector, so none of its parts is zero
    assert np.all(rows[picked].real != 0) and np.all(rows[picked].imag == 0)
    assert np.all(rows[~picked] == 0)
    # binomial share: 2000 cubes, mean 600, standard deviation 20.5
    N = samples * count
    sd = math.sqrt(N * density * (1 - density))
    assert abs(int(picked.sum()) - N * density) <= 5 * sd
    cplx = random_rows(np.random.default_rng(3), samples, count, m, density, complex_values=True)
    assert np.array_equal(cplx != 0, np.repeat(picked[:, :, None], m, axis=2))
    assert np.array_equal(cplx.real, rows.real) and np.all(cplx[picked].imag != 0)
    again = random_rows(np.random.default_rng(3), samples, count, m, density)
    assert rows.tobytes() == again.tobytes()
    assert random_rows(np.random.default_rng(4), samples, count, m, density).tobytes() != rows.tobytes()


# ---------------------------------------------------------------------------
# refusals at ingestion


def _nonempty_csv(window, m, seed, complex_values):
    t = CoeffField.random(window, m, np.random.default_rng(seed), 0.6, complex_values)
    if not len(t):
        t.set(next(window.all_cubes()), np.ones(m))
    return t.to_csv().splitlines()


def _decorated(lines, data):
    """The text of ``lines`` as a reader may write it: lines padded with
    whitespace, comment and blank lines between them, CRLF line ends."""
    out = []
    for line in lines + [None]:
        out += data.draw(st.lists(st.sampled_from(("# a comment", "  # indented", "", "  ", "\t")),
                                  max_size=2))
        if line is not None:
            out.append(data.draw(st.sampled_from(("", " ", "\t"))) + line
                       + data.draw(st.sampled_from(("", "  ", " \t"))))
    return data.draw(st.sampled_from(("\n", "\r\n"))).join(out) + "\n"


@given(window=windows(), m=st.sampled_from((1, 3)), complex_values=st.booleans(),
       m_from_text=st.booleans(), seed=st.integers(0, 2 ** 16), data=st.data())
@settings(max_examples=40, deadline=None)
def test_csv_reads_decorated_text_as_the_written_text(window, m, complex_values, m_from_text,
                                                      seed, data):
    t = CoeffField.random(window, m, np.random.default_rng(seed), 0.6, complex_values)
    text = t.to_csv()
    back = CoeffField.from_csv(_decorated(text.splitlines(), data), window,
                               None if m_from_text else m)
    _assert_same_field(back, CoeffField.from_csv(text, window, m))
    assert back.to_csv() == text
    # the first line gives m; a text with no lines has m = 1 unless m is given
    assert back.m == (1 if m_from_text and not text else m)


@given(window=windows(), m=st.sampled_from((1, 3)), complex_values=st.booleans(),
       m_from_text=st.booleans(), seed=st.integers(0, 2 ** 16), data=st.data())
@settings(max_examples=40, deadline=None)
def test_csv_refusals_name_the_first_bad_line(window, m, complex_values, m_from_text, seed,
                                              data):
    lines = _nonempty_csv(window, m, seed, complex_values)
    n = window.n
    i = data.draw(st.integers(0, len(lines) - 1))
    cube_text = ",".join(lines[i].split(",")[:n])
    kind = data.draw(st.sampled_from(("duplicate", "outside", "non-finite", "short", "dimension",
                                      "width")))
    bad = list(lines)
    if kind == "duplicate":
        at = data.draw(st.integers(i + 1, len(lines)))
        bad.insert(at, cube_text + ", 0.0, 0.0" * m)
        expect = f"duplicate coefficient line for cube {cube_text}"
    elif kind == "outside":
        q = data.draw(st.sampled_from(_outside_cubes(window)))
        bad.insert(i, format_cube(q) + ", 1.0, 0.0" * m)
        expect = f"cube {format_cube(q)} outside the window"
    elif kind == "non-finite":
        fields = lines[i].split(",")
        fields[n + data.draw(st.integers(0, 2 * m - 1))] = data.draw(
            st.sampled_from((" nan", " inf", " -inf")))
        bad[i] = ",".join(fields)
        expect = f"non-finite coefficient for cube {cube_text}"
    elif kind == "short":
        bad[i] = ",".join(lines[i].split(",")[:-1])
        expect = "bad coefficient line"
    elif kind == "dimension":
        bad[i] = lines[i].replace(":", ":0,", 1)  # one index too many
        expect = "bad coefficient line"
    else:  # one (re, im) pair too many
        bad[i] = lines[i] + ", 0.5, 0.0"
        expect = f"bad coefficient line {bad[i]!r}"
        if i == 0 and not m_from_text:
            expect = (f"coefficient line {bad[0]!r} holds vectors of dimension m = {m + 1}, "
                      f"but m = {m} is needed")
        elif i == 0:  # the first line sets m + 1, so the next line is the one of another width
            expect = f"bad coefficient line {lines[1]!r}" if len(lines) > 1 else None
    text = _decorated(bad, data) if data.draw(st.booleans()) else "\n".join(bad) + "\n"
    if expect is None:
        assert CoeffField.from_csv(text, window).m == m + 1
        return
    with pytest.raises(PreconditionError, match=re.escape(expect)):
        CoeffField.from_csv(text, window, None if m_from_text else m)
    # the reference field does not check finiteness, and it reads with the given m
    if kind != "non-finite" and not (kind == "width" and i == 0):
        with pytest.raises(PreconditionError, match=re.escape(expect)):
            DictField.from_csv(text, window, m)


# Fields the C parser refuses, some of which int() or float() read (digit
# groups, non-ASCII digits), and line shapes a column count alone lets pass.
_BAD_INDEX = ("1_0", "0x10", "1e3", "0.5", "\u0661", "", " ")
_BAD_VALUE = (" 1_0", " 1_0.5", " \u0661.5", " 1.0j", "")


def _misplaced_separators(line, kind):
    colon = line.index(":")
    comma = line.index(",", colon)
    if kind == "comma before colon":  # swap the colon and the next comma
        return line[:colon] + "," + line[colon + 1:comma] + ":" + line[comma + 1:]
    return line.replace(":", ",")  # no colon, one comma too many


@given(window=windows(), m=st.sampled_from((1, 3)), complex_values=st.booleans(),
       m_from_text=st.booleans(), seed=st.integers(0, 2 ** 16), data=st.data())
@settings(max_examples=60, deadline=None)
def test_csv_refuses_what_only_int_and_float_accept(window, m, complex_values, m_from_text,
                                                    seed, data):
    lines = _nonempty_csv(window, m, seed, complex_values)
    n = window.n
    i = data.draw(st.integers(0, len(lines) - 1))
    fields = lines[i].replace(":", ",", 1).split(",")  # level, n indices, 2m values
    kind = data.draw(st.sampled_from(("index", "value", "comma before colon", "no colon")))
    if kind == "index":
        fields[data.draw(st.integers(0, n))] = data.draw(st.sampled_from(_BAD_INDEX))
        bad = fields[0] + ":" + ",".join(fields[1:])
    elif kind == "value":
        fields[1 + n + data.draw(st.integers(0, 2 * m - 1))] = data.draw(st.sampled_from(_BAD_VALUE))
        bad = fields[0] + ":" + ",".join(fields[1:])
    else:
        bad = _misplaced_separators(lines[i], kind)
    bad = bad.strip()
    # a later duplicate is not reached: the first offending line is named
    lines = lines[:i] + [bad] + lines[i:]
    text = _decorated(lines, data) if data.draw(st.booleans()) else "\n".join(lines) + "\n"
    with pytest.raises(PreconditionError) as got:
        CoeffField.from_csv(text, window, None if m_from_text else m)
    with pytest.raises(PreconditionError) as ref:
        DictField.from_csv(text, window, m)
    assert str(got.value) == str(ref.value) == f"bad coefficient line {bad!r}"


@given(x=st.floats(-1e300, 1e300).filter(bool),
       form=st.sampled_from(("%r", "%.17g", "%.17E", "%+.25f", "%.3g", " %.6e ")))
@settings(max_examples=200, deadline=None)
def test_csv_values_read_as_float_reads_them(x, form):
    # both parsers round correctly, so the bits agree also for inexact text
    window = LatticeWindow(1, 0, 0, (0,), (1,))
    re_text, im_text = form % x, form % -x
    expect = np.array([complex(float(re_text), float(im_text))])
    assume(expect.any())  # a zero vector is stored as absent, +0.0
    t = CoeffField.from_csv(f"0:0, {re_text}, {im_text}\n", window, 1)
    got = t.get(DyadicCube(1, 0, (0,)))
    assert got.view(np.uint64).tolist() == expect.view(np.uint64).tolist()


@given(window=windows(), m=st.sampled_from((1, 3)), seed=st.integers(0, 2 ** 16),
       bad=st.sampled_from((np.nan, np.inf, -np.inf)), data=st.data())
@settings(max_examples=40, deadline=None)
def test_set_refuses_non_finite_values(window, m, seed, bad, data):
    t = CoeffField.random(window, m, np.random.default_rng(seed), 0.5)
    before = t.to_csv()
    cubes = list(window.all_cubes())
    q = cubes[data.draw(st.integers(0, len(cubes) - 1))]
    v = np.ones(m, dtype=complex)
    v[data.draw(st.integers(0, m - 1))] = bad if data.draw(st.booleans()) else 1j * bad
    with pytest.raises(PreconditionError, match=re.escape(f"non-finite coefficient for cube {q}")):
        t.set(q, v)
    rows = np.ones((len(cubes), m), dtype=complex)
    rows[cubes.index(q)] = v
    with pytest.raises(PreconditionError, match=re.escape(f"non-finite coefficient for cube {q}")):
        t.write_all(rows)
    assert t.to_csv() == before


@given(n=st.sampled_from((1, 2, 3)), m=st.sampled_from((1, 3)),
       bad=st.sampled_from((np.nan, np.inf, -np.inf)), data=st.data())
@settings(max_examples=40, deadline=None)
def test_function_sample_refuses_non_finite_values(n, m, bad, data):
    shape = tuple(data.draw(st.integers(1, 5)) for _ in range(n))
    values = np.zeros((m,) + shape)
    idx = (data.draw(st.integers(0, m - 1)),) + tuple(data.draw(st.integers(0, s - 1))
                                                      for s in shape)
    values[idx] = bad
    with pytest.raises(PreconditionError, match=re.escape(f"index {idx}")):
        FunctionSample(n, m, 4, (0,) * n, values)


# ---------------------------------------------------------------------------
# analysis and synthesis against the per-cube paths


@st.composite
def analysis_cases(draw):
    window = draw(windows())
    n = window.n
    if n == 3 and window.j_min < 0:  # keep 3D sample grids at 32^3 points
        window = LatticeWindow(3, -1, min(window.j_max, 0), window.lo, window.hi)
    g = window.j_max + 4
    # a sample box that overlaps the window box and sticks out of it (not in
    # 3D), its start shifted off the level-(j_max + 1) stride
    lo = [a + (draw(st.integers(-1, 0)) if n < 3 else 0) for a in window.lo]
    hi = [b + (draw(st.integers(0, 1)) if n < 3 else 0) for b in window.hi]
    offset = [draw(st.integers(0, 7)) for _ in range(n)]
    order = draw(st.sampled_from((1, 2)))
    # channel fields on windows with other boxes and level ranges
    moves = [(draw(st.integers(0, 1)), draw(st.integers(-1, 1))) for _ in range(1 << n)]
    return window, g, tuple(lo), tuple(hi), tuple(offset), order, moves


def _moved(window, dj, shift):
    """The window with its levels raised by dj and its box moved by shift
    coarsest cube sides."""
    step = 1 << max(0, -window.j_min)
    return LatticeWindow(window.n, window.j_min + dj, window.j_max + dj,
                         tuple(a + shift * step for a in window.lo),
                         tuple(b + shift * step for b in window.hi))


def _grid(lo, hi, level):
    """(start, shape) of a level-``level`` grid one cell wider than the box on each side."""
    cell = [a << level if level >= 0 else a >> -level for a in lo]
    end = [-((-b) >> -level) if level < 0 else b << level for b in hi]
    return tuple(c - 1 for c in cell), tuple(e - c + 2 for c, e in zip(cell, end))


def _assert_samples_match(got, expect):
    np.testing.assert_allclose(got, expect, rtol=0,
                               atol=1e-12 * max(np.max(np.abs(expect)), 1e-300))


@given(case=analysis_cases(), m=st.sampled_from((1, 3)), complex_values=st.booleans(),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_analysis_and_synthesis_match_per_cube_oracle(case, m, complex_values, seed):
    window, g, lo, hi, offset, order, moves = case
    n = window.n
    sys = WaveletSystem(n, daubechies_filter(order), max(6, g - window.j_min))
    rng = np.random.default_rng(seed)
    start = tuple((a << g) + o for a, o in zip(lo, offset))
    shape = tuple((b - a) << g for a, b in zip(lo, hi))
    values = rng.standard_normal((m,) + shape)
    if complex_values:
        values = values + 1j * rng.standard_normal((m,) + shape)
    f = FunctionSample(n, m, g, start, values)
    coefs = analyze(f, sys, window)
    ref = analyze_reference(f, sys, window)
    assert list(coefs) == list(ref)
    # the pyramid agrees with the direct path to 1e-12 of the largest coefficient
    got = np.stack([coefs[lam].rows() for lam in ref])
    expect = np.stack([ref[lam].rows() for lam in ref])
    _assert_samples_match(got, expect)
    energy = parseval_report(f, coefs)["coefficient_energy"]
    assert energy == pytest.approx(parseval_report(f, ref)["coefficient_energy"], rel=1e-12)
    # synthesis onto a grid that cuts through the window's cube supports
    _assert_samples_match(synthesize(coefs, sys, g, start, shape, m).values,
                          synthesize_reference(ref, sys, g, start, shape, m))
    # scaling coefficients at every level and channel fields on other windows,
    # onto the sample grid and onto a grid at the finest coefficient level
    lams = list(sys.channels) + [sys.scaling_channel]
    fields = {lam: CoeffField.random(_moved(window, *mv), m, rng, 0.5, complex_values)
              for lam, mv in zip(lams, moves)}
    finest = max([j for tf in fields.values() for j in tf.levels()], default=window.j_max)
    for level, (s, shp) in ((g, (start, shape)), (finest, _grid(lo, hi, finest))):
        _assert_samples_match(synthesize(fields, sys, level, s, shp, m).values,
                              synthesize_reference(fields, sys, level, s, shp, m))


def test_synthesis_of_sparse_field_matches_oracle():
    sys = WaveletSystem(2, daubechies_filter(3), 10)
    window = LatticeWindow(2, -1, 2, (-2, -4), (2, 2))
    start, shape = (-3 << 6, -1 << 6), (5 << 6, 2 << 6)
    for seed in range(3):
        coefs = {lam: _pair(window, 2, seed + 10 * i, True, density=0.1)
                 for i, lam in enumerate(sys.channels)}
        out = synthesize({lam: c[0] for lam, c in coefs.items()}, sys, 6, start, shape, 2).values
        expect = synthesize_reference({lam: c[1] for lam, c in coefs.items()}, sys, 6, start,
                                      shape, 2)
        np.testing.assert_allclose(out, expect, rtol=0, atol=1e-12 * np.max(np.abs(expect)))


# ---------------------------------------------------------------------------
# stacks


@given(window=windows(), m=st.sampled_from((1, 3)), complex_values=st.booleans(),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_stacks_match_per_cube_oracle(window, m, complex_values, seed):
    new, ref = _pair(window, m, seed, complex_values)
    sp = SpaceParams(BESOV, 0.3, 0.1, 1.5, 2.0)
    W = MatrixWeight.diag_power(np.arange(1.0, m + 1), np.linspace(0.2, -0.3, m), window.n,
                                floor=0.1)
    got = weighted_stack(new, W, sp)
    expect = weighted_stack_reference(ref, W, sp, 2)
    assert sorted(got.levels) == sorted(expect.levels)
    for j, arr in expect.levels.items():
        np.testing.assert_allclose(got.levels[j], arr, rtol=1e-12, atol=0)
    fam = ReducingFamily.build(W, sp.p, window, QuadratureSpec(2, 1))
    got = averaged_stack(new, fam, sp)
    expect = averaged_stack_reference(ref, fam, sp)
    assert sorted(got.levels) == sorted(expect.levels)
    for j, arr in expect.levels.items():
        np.testing.assert_allclose(got.levels[j], arr, rtol=1e-12, atol=0)


def _smooth_weight(m, n):
    """x -> B(x) B(x)^T + 0.1 I with B(x) = B_0 + sin(2x . c) B_1: real, positive
    definite and distinct at every point, so each cell has its own value."""
    rng = np.random.default_rng(m + 10 * n)
    B0, B1, c = rng.standard_normal((m, m)), rng.standard_normal((m, m)), rng.standard_normal(n)

    def f(x):
        B = B0 + np.sin(2.0 * np.atleast_2d(x) @ c)[:, None, None] * B1
        return B @ np.swapaxes(B, 1, 2) + 0.1 * np.eye(m)

    return MatrixWeight(m, n, f)


def _lq(values, q, axis=0):
    return values.max(axis=axis) if math.isinf(q) else np.sum(values ** q, axis=axis) ** (1.0 / q)


def _candidates(stack, sp):
    """|P|^-tau times the aggregate of every window cube P of a stack, cube by
    cube from its cells: [sum_{j >= j(P)} ||f_j||_{L^p(P)}^q]^{1/q} (B) or
    ||(sum_{j >= j(P)} |f_j|^q)^{1/q}||_{L^p(P)} (F)."""
    win, pts, out = stack.window, stack.midpoints(), []
    for j_p in range(win.j_min, win.j_max + 1):
        levels = [j for j in sorted(stack.levels) if j >= j_p]
        for P in win.cubes(j_p) if levels else ():
            inside = np.all((pts >= P.lower) & (pts < P.upper), axis=-1)
            cells = np.array([np.abs(stack.levels[j]).ravel()[inside] for j in levels])
            if sp.family == BESOV:
                agg = _lq((np.sum(cells ** sp.p, axis=1) * stack.cell_volume) ** (1.0 / sp.p),
                          sp.q)
            else:
                agg = (np.sum(_lq(cells, sp.q) ** sp.p) * stack.cell_volume) ** (1.0 / sp.p)
            out.append(P.volume ** -sp.tau * agg)
    return sorted(out, reverse=True)


def _assert_norm_matches_raster(got, stack, sp):
    """The field norm ``got`` against :func:`la_norm` of a raster stack of
    its levels: its value to 1e-13, its cube and flag where the top two
    candidates differ by more than 1e-12."""
    want = la_norm(stack, sp)
    if want.value == 0.0:
        assert got == NormResult(0.0, None, False)
        return
    assert got.value == pytest.approx(want.value, rel=1e-13, abs=0)
    top = _candidates(stack, sp)
    if len(top) == 1 or top[0] - top[1] > 1e-12 * top[0]:
        assert (got.attaining, got.boundary_flag) == (want.attaining, want.boundary_flag)


@given(window=windows(dims=(1, 2)), m=st.sampled_from((1, 2, 3)),
       family=st.sampled_from((BESOV, TRIEBEL_LIZORKIN)),
       p=st.sampled_from((0.7, 1.0, 2.0, 3.0)), q=st.sampled_from((0.8, 2.0, math.inf)),
       tau=st.sampled_from((0.0, 0.3)), grid_extra=st.integers(0, 2),
       complex_values=st.booleans(), seed=st.integers(0, 2 ** 16))
@example(window=LatticeWindow(2, -2, -1, (-4, 0), (4, 4)), m=2, family=BESOV, p=0.7, q=0.8,
         tau=0.3, grid_extra=1, complex_values=True, seed=3)
@settings(max_examples=40, deadline=None)
def test_field_norms_match_raster_stacks(window, m, family, p, q, tau, grid_extra,
                                         complex_values, seed):
    # the field norms of both families (factored for averaged norms and m = 1
    # weights, raster for m > 1 weights) against la_norm of the raster stacks
    # of their levels, built cube by cube and by the library
    new, ref = _pair(window, m, seed, complex_values)
    sp = SpaceParams(family, 0.3, tau, p, q)
    W = _smooth_weight(m, window.n)
    got = seq_norm_weighted(new, W, sp, grid_extra)
    assert got == seq_norms_weighted(window, new.rows()[None], W, sp, grid_extra)[0]
    _assert_norm_matches_raster(got, weighted_stack_reference(ref, W, sp, grid_extra), sp)
    if grid_extra == 2:
        _assert_norm_matches_raster(got, weighted_stack(new, W, sp), sp)
    fam = ReducingFamily.build(W, p, window, QuadratureSpec(2, 1))
    got = seq_norm_averaged(new, fam, sp)
    assert got == seq_norms_averaged(window, new.rows()[None], fam, sp)[0]
    _assert_norm_matches_raster(got, averaged_stack_reference(ref, fam, sp), sp)
    _assert_norm_matches_raster(got, averaged_stack(new, fam, sp), sp)


def test_averaged_stack_refuses_cube_without_operator():
    win = LatticeWindow(1, 0, 2, (0,), (2,))
    fam = ReducingFamily.identity(1, 2.0, LatticeWindow(1, 0, 2, (0,), (1,)))
    t = CoeffField(win, 1, {DyadicCube(1, 2, (5,)): [1.0]})
    with pytest.raises(PreconditionError, match="no reducing operator stored for cube 2:5"):
        averaged_stack(t, fam, SpaceParams(BESOV, 0.0, 0.0, 2.0, 2.0))


# ---------------------------------------------------------------------------
# trace and extension


_PAIRS = {n: TracePair(daubechies_filter(2), n, resolution=8) for n in (2, 3)}


@given(base=windows(dims=(1, 2)), m=st.sampled_from((1, 3)), complex_values=st.booleans(),
       seed=st.integers(0, 2 ** 16), below=st.integers(1, 3), above=st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_trace_matches_per_cube_oracle(base, m, complex_values, seed, below, above):
    tp = _PAIRS[base.n + 1]
    step = 1 << max(0, -base.j_min)  # a level-j_min slab fits in the slab range
    src = stacked_window(base, -below * step, above * step)
    pairs = {lam: _pair(src, m, seed + i, complex_values)
             for i, lam in enumerate(tp.source.channels + [tp.source.scaling_channel])}
    # the trace lands in the source's base window, which is ``base``
    got = trace_coeffs(tp, {lam: p[0] for lam, p in pairs.items()})
    ref = trace_coeffs_reference(tp, {lam: p[1] for lam, p in pairs.items()}, base)
    assert set(got) == set(ref)
    for lam, tf in ref.items():
        assert set(got[lam].cubes()) == set(tf.cubes())
        for q in tf.cubes():
            np.testing.assert_allclose(got[lam].get(q), tf.get(q), rtol=1e-12, atol=0)


@given(base=windows(dims=(1, 2)), m=st.sampled_from((1, 3)), complex_values=st.booleans(),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=30, deadline=None)
def test_tr_ext_round_trip_is_bitwise(base, m, complex_values, seed):
    tp = _PAIRS[base.n + 1]
    step = 1 << max(0, -base.j_min)  # index k0 lies in the slab range at every level
    src = stacked_window(base, (tp.k0 - 1) * step, (tp.k0 + 2) * step)
    coefs = {lam: CoeffField.random(base, m, np.random.default_rng(seed + i), 0.5,
                                    complex_values)
             for i, lam in enumerate(tp.target.channels)}
    carrier = ext_coeffs(tp, coefs, src)
    assert isinstance(carrier, SlabCoeffs)
    back = trace_coeffs(tp, carrier)
    assert set(back) == set(coefs)
    for lam, tf in coefs.items():
        assert back[lam].to_csv() == tf.to_csv()
    # the carrier holds the raw base values on the k0 slab; the pending level
    # scale 2^{-j/2} / phi(-k0) is applied here
    for lam, tf in carrier.channels.items():
        for q, v in tf.items():
            raw = coefs[lam[:-1]].get(DyadicCube(base.n, q.j, q.k[:-1]))
            assert q.k[-1] == tp.k0
            scale = 2.0 ** (-q.j / 2.0) * tp.inv_phi0
            assert np.array_equal(v * scale, raw * scale)


def test_ext_refuses_window_without_the_slab():
    tp = _PAIRS[2]
    base = LatticeWindow(1, 0, 1, (0,), (2,))
    coefs = {(1,): CoeffField(base, 1, {DyadicCube(1, 1, (3,)): [1.0]})}
    src = stacked_window(LatticeWindow(1, 0, 1, (0,), (1,)), tp.k0 - 1, tp.k0 + 1)
    with pytest.raises(PreconditionError, match=f"k0 slab cube 1:3,{tp.k0}"):
        ext_coeffs(tp, coefs, src)


def test_trace_of_carrier_refuses_mass_off_the_slab():
    tp = _PAIRS[2]
    base = LatticeWindow(1, 0, 1, (0,), (1,))
    src = stacked_window(base, tp.k0 - 2, tp.k0 + 2)
    carrier = ext_coeffs(tp, {(1,): CoeffField(base, 1, {DyadicCube(1, 0, (0,)): [1.0]})}, src)
    carrier.channels[(1, 0)].set(DyadicCube(2, 1, (1, tp.k0 + 1)), [2.0])
    with pytest.raises(PreconditionError, match="off the k0 slab"):
        trace_coeffs(tp, carrier)
