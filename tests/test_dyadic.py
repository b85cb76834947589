import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dyadica
from dyadica.dyadic import (
    CubeArrays,
    DyadicCube,
    LatticeWindow,
    base_of,
    children,
    distance_term,
    format_cube,
    grid_cells,
    parse_cube,
    stack_cube,
    tensor_points,
)
from dyadica.errors import PreconditionError

cube_strategy = st.builds(
    lambda n, j, ks: DyadicCube(n, j, tuple(ks[:n])),
    st.integers(1, 3),
    st.integers(-8, 10),
    st.lists(st.integers(-50, 50), min_size=3, max_size=3),
)


def _inside(q, pts):
    """1 for each point in the half-open cube q, else 0."""
    return np.all((pts >= q.lower) & (pts < q.upper), axis=-1).astype(int)


def test_geometry_basics():
    q = DyadicCube(2, 1, (1, -2))
    assert q.side == 0.5
    assert q.volume == 0.25
    assert q.lower == (0.5, -1.0)
    assert q.upper == (1.0, -0.5)
    assert q.center == (0.75, -0.75)


def test_children_1d():
    q = DyadicCube(1, 0, (0,))
    kids = children(q)
    assert [c.k for c in kids] == [(0,), (1,)]
    assert all(c.j == 1 for c in kids)


def test_children_2d_order():
    q = DyadicCube(2, 0, (0, 0))
    kids = children(q)
    assert [c.k for c in kids] == [(0, 0), (0, 1), (1, 0), (1, 1)]


@given(cube_strategy)
@settings(max_examples=100, deadline=None)
def test_children_partition(q):
    kids = children(q)
    # point-membership check on a grid of interior points
    rng = np.random.default_rng(0)
    pts = np.array(q.lower) + np.array(q.side) * rng.random((64, q.n))
    counts = np.zeros(64, dtype=int)
    for c in kids:
        counts += _inside(c, pts)
    assert np.all(counts == 1)


def test_parent_roundtrip():
    q = DyadicCube(2, 3, (-5, 7))
    for c in children(q):
        assert c.ancestor(1) == q
    assert q.ancestor(2) == DyadicCube(2, 1, (-2, 1))


def test_distance_term_values():
    q = DyadicCube(1, 1, (0,))
    r = DyadicCube(1, 0, (1,))
    assert distance_term(q, r) == 2.0
    assert distance_term(q, q) == 1.0


@given(cube_strategy, cube_strategy)
@settings(max_examples=100, deadline=None)
def test_distance_term_symmetry(q, r):
    if q.n != r.n:
        return
    assert distance_term(q, r) == distance_term(r, q)
    assert distance_term(q, r) >= 1.0


def test_distance_term_dim_mismatch():
    with pytest.raises(PreconditionError):
        distance_term(DyadicCube(1, 0, (0,)), DyadicCube(2, 0, (0, 0)))


def test_stack_cube():
    base = DyadicCube(1, 0, (0,))
    q = stack_cube(base, 0)
    assert q == DyadicCube(2, 0, (0, 0))
    deep = DyadicCube(1, 2, (5,))
    q2 = stack_cube(deep, -3)
    assert q2.j == 2
    assert q2.lower[-1] == -3 / 4
    assert q2.upper[-1] == -2 / 4


@given(cube_strategy, st.integers(-20, 20))
@settings(max_examples=100, deadline=None)
def test_stack_base_roundtrip(i_cube, k):
    q = stack_cube(i_cube, k)
    back, kk = base_of(q)
    assert back == i_cube
    assert kk == k


def test_cube_literals():
    q = parse_cube("3:-1,4")
    assert q == DyadicCube(2, 3, (-1, 4))
    assert parse_cube(format_cube(q)) == q
    with pytest.raises(PreconditionError):
        parse_cube("nonsense")


def test_window_counts_and_levels():
    w = LatticeWindow(1, -2, 2, (0,), (8,))
    assert w.count(0) == 8
    assert w.count(1) == 16
    assert w.count(-2) == 2
    assert w.count() == 8 + 16 + 32 + 4 + 2
    q = DyadicCube(1, 1, (15,))
    assert w.contains(q)
    assert not w.contains(DyadicCube(1, 1, (16,)))
    assert not w.contains(DyadicCube(1, 3, (0,)))


def test_window_partition_at_each_level():
    w = LatticeWindow(2, 0, 2, (-1,) * 2, (1,) * 2)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, size=(128, 2))
    for j in range(0, 3):
        counts = np.zeros(len(pts), dtype=int)
        for q in w.cubes(j):
            counts += _inside(q, pts)
        assert np.all(counts == 1)


def test_window_validation():
    with pytest.raises(PreconditionError):
        LatticeWindow(1, 2, 0, (0,), (1,))
    with pytest.raises(PreconditionError):
        LatticeWindow(1, 0, 1, (0,), (0,))
    with pytest.raises(PreconditionError):
        # box of width 1 has no complete cubes at level -1
        LatticeWindow(1, -1, 1, (0,), (1,))
    with pytest.raises(PreconditionError):
        LatticeWindow(1, 0, 99, (0,), (1,))


def test_cube_arrays_follow_window_order():
    win = LatticeWindow(2, -1, 1, (-2, 0), (0, 2))
    cubes = list(win.all_cubes())
    arrays = CubeArrays.of_window(win)
    assert len(arrays) == win.count()
    assert [arrays.cube(i) for i in range(len(arrays))] == cubes
    assert np.array_equal(arrays.index, CubeArrays.of(cubes).index)
    assert np.array_equal(arrays.lower, [q.lower for q in cubes])
    assert np.array_equal(arrays.side, [q.side for q in cubes])


def _positions_reference(window, cubes):
    """The per-level loop: every cube is masked once per window level."""
    pos = np.full(len(cubes), -1, dtype=np.int64)
    if cubes.n != window.n:
        return pos
    for j in range(window.j_min, window.j_max + 1):
        bounds = window.index_bounds(j)
        shape = tuple(b - a for a, b in bounds)
        rel = cubes.index - np.array([a for a, _ in bounds], dtype=np.int64)
        at = (cubes.levels == j) & np.all((rel >= 0) & (rel < shape), axis=1)
        pos[at] = window.level_rows(j)[0].start + np.ravel_multi_index(rel[at].T, shape)
    return pos


@given(n=st.integers(1, 3), j_min=st.integers(-2, 1), levels=st.integers(1, 3),
       corner=st.lists(st.integers(-2, 1), min_size=3, max_size=3),
       width=st.lists(st.integers(1, 2), min_size=3, max_size=3),
       count=st.integers(0, 40), seed=st.integers(0, 2 ** 16))
@settings(max_examples=80, deadline=None)
def test_positions_match_per_level_loop(n, j_min, levels, corner, width, count, seed):
    # windows with negative j_min, off the origin; cubes one level beyond the
    # window and two indices beyond the box at their level
    step = 1 << max(0, -j_min)
    lo = tuple(step * a for a in corner[:n])
    hi = tuple(a + step * w for a, w in zip(lo, width))
    window = LatticeWindow(n, j_min, j_min + levels - 1, lo, hi)
    rng = np.random.default_rng(seed)
    j = rng.integers(window.j_min - 1, window.j_max + 2, count)
    index = np.empty((count, n), dtype=np.int64)
    for i, level in enumerate(j.tolist()):
        bounds = window.index_bounds(level)
        index[i] = [rng.integers(a - 2, b + 2) for a, b in bounds]
    cubes = CubeArrays(j.astype(np.int64), index)
    assert np.array_equal(window.positions(cubes), _positions_reference(window, cubes))
    whole = CubeArrays.of_window(window)
    assert np.array_equal(window.positions(whole), np.arange(window.count()))
    # cubes of another dimension are not in the window
    other = CubeArrays(whole.levels, np.concatenate([whole.index, whole.index[:, :1]], axis=1))
    assert np.array_equal(window.positions(other), np.full(window.count(), -1))
    assert np.array_equal(_positions_reference(window, other), np.full(window.count(), -1))


# ---------------------------------------------------------------------------
# tensor grids


def test_tensor_points_c_order():
    axes = [np.array([0.5, -1.0]), np.array([2, 3, 4]), np.array([7.0])]
    pts = tensor_points(axes)
    assert pts.shape == (6, 3)
    assert pts.tolist() == [list(p) for p in itertools.product(*axes)]
    assert tensor_points([np.arange(3, dtype=np.int64)]).dtype == np.int64


def test_meshgrid_only_in_tensor_points():
    """Tensor grids go through dyadic.tensor_points; a second copy of the
    meshgrid idiom anywhere in the package fails here."""
    found = []
    for path in sorted(Path(dyadica.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "dyadic.py":
            fn = next(node for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name == "tensor_points")
            allowed = {id(node) for node in ast.walk(fn)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if ((isinstance(node, ast.Attribute) and node.attr == "meshgrid")
                      or (isinstance(node, ast.Name) and node.id == "meshgrid"))
                  and id(node) not in allowed]
    assert not found, f"np.meshgrid outside dyadic.tensor_points: {found}"


def test_no_module_imports_a_private_name_of_another():
    """A module's underscore names are its own: a ``from .module import _name``
    anywhere in the package fails here (dunders such as __version__ are public)."""
    found = []
    for path in sorted(Path(dyadica.__file__).parent.glob("*.py")):
        found += [f"{path.name}:{node.lineno} {alias.name}"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.ImportFrom)
                  and (node.level > 0 or (node.module or "").startswith("dyadica"))
                  for alias in node.names
                  if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert not found, f"private names imported across modules: {found}"


# ---------------------------------------------------------------------------
# refusals and window identity

@pytest.mark.parametrize("make, message", [
    (lambda: DyadicCube(0, 0, ()), "cube dimension must be positive"),
    (lambda: DyadicCube(2, 0, (0,)), "index length does not match dimension"),
    (lambda: DyadicCube(1, 0, (0,)).ancestor(-1), "offset must be nonnegative"),
    (lambda: base_of(DyadicCube(1, 0, (0,))), "base of a 1-dimensional cube"),
    (lambda: LatticeWindow(2, 0, 1, (0,), (1, 1)), "box bounds must match dimension"),
    (lambda: LatticeWindow(1, 0, 1, (0,), (1,)).level_rows(2), "level 2 outside the window"),
    # int() would build the window on [0, 2) with 14 cubes
    (lambda: LatticeWindow(1, 0, 2, (0.5,), (2.7,)),
     r"^window box \(0\.5,\)\.\.\(2\.7,\): corner 0\.5 is not a whole number$"),
    (lambda: LatticeWindow(1, 0, 2, (0,), (np.float64(2.7),)), "corner np.float64.2.7. is not a"),
    (lambda: LatticeWindow(1, 0, 1, (0, True), (1, 1)), "corner True is not a whole number"),
    (lambda: LatticeWindow(1, 0, 1, (1,), (0,)), r"^window box \(1,\)\.\.\(0,\) is empty$"),
    (lambda: grid_cells((2,), (1,), 3, "stack grid", "box"),
     r"^stack grid box \(2,\)\.\.\(1,\) is empty$"),
    (lambda: grid_cells((0, 0), (1, 1.5), 0, "stack grid", "box"),
     r"^stack grid box \(0, 0\)\.\.\(1, 1\.5\): corner 1\.5 is not a whole number$"),
], ids=["zero-dimension", "index-length", "negative-ancestor", "base-of-1d",
        "box-dimension", "level-rows-outside", "window-corner-half", "window-corner-numpy-float",
        "window-corner-bool", "window-empty", "grid-empty", "grid-corner-half"])
def test_cube_and_window_refusals(make, message):
    with pytest.raises(PreconditionError, match=message):
        make()


def test_window_levels_outside_are_empty_and_windows_compare_by_value():
    w = LatticeWindow(2, -1, 1, (-2, 0), (0, 2))
    # whole floats and numpy integers are whole numbers
    whole = LatticeWindow(2, -1, 1, (-2.0, np.int64(0)), np.array([0.0, 2.0]))
    assert whole == w and whole.lo == (-2, 0) and type(whole.lo[1]) is int
    assert grid_cells((np.int64(-2), 0.0), (0, 2.0), 1, "grid", "box") == ((-4, 0), (4, 4))
    assert list(w.cubes(-2)) == [] and list(w.cubes(2)) == []
    assert w.count(-2) == 0 and w.count(2) == 0
    assert not w.contains(DyadicCube(1, 0, (0,)))
    same = LatticeWindow(2, -1, 1, [-2, 0], [0, 2])
    assert same == w and hash(same) == hash(w) and len({w, same}) == 1
    assert w != LatticeWindow(2, -1, 1, (-2, 0), (0, 4))
    assert w != (2, -1, 1, (-2, 0), (0, 2))
    assert repr(w) == "LatticeWindow(n=2, j_min=-1, j_max=1, lo=(-2, 0), hi=(0, 2))"
