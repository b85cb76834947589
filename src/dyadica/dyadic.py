"""Dyadic cube geometry and finite lattice windows.

A cube is identified by its level ``j`` (edge length ``2**-j``) and an
integer index vector ``k`` (lower corner ``2**-j * k``).  All geometry is
exact integer arithmetic; edge lengths materialize as floats only at
evaluation boundaries.  Levels are clamped to ``|j| <= 40`` so every edge
length is exactly representable in binary floating point.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

MAX_LEVEL = 40


def _check_level(j: int) -> None:
    if abs(j) > MAX_LEVEL:
        raise PreconditionError(f"level |{j}| exceeds the exact-arithmetic cap {MAX_LEVEL}")


@dataclass(frozen=True)
class DyadicCube:
    """Half-open dyadic cube ``prod_i [2^-j k_i, 2^-j (k_i+1))``."""

    n: int
    j: int
    k: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise PreconditionError("cube dimension must be positive")
        _check_level(self.j)
        if len(self.k) != self.n:
            raise PreconditionError("index length does not match dimension")
        object.__setattr__(self, "k", tuple(int(v) for v in self.k))

    @property
    def side(self) -> float:
        return math.ldexp(1.0, -self.j)

    @property
    def volume(self) -> float:
        return math.ldexp(1.0, -self.j * self.n)

    @property
    def lower(self) -> tuple[float, ...]:
        return tuple(math.ldexp(ki, -self.j) for ki in self.k)

    @property
    def upper(self) -> tuple[float, ...]:
        return tuple(math.ldexp(ki + 1, -self.j) for ki in self.k)

    @property
    def center(self) -> tuple[float, ...]:
        return tuple(math.ldexp(2 * ki + 1, -self.j - 1) for ki in self.k)

    def ancestor(self, up: int) -> "DyadicCube":
        if up < 0:
            raise PreconditionError("ancestor level offset must be nonnegative")
        return DyadicCube(self.n, self.j - up, tuple(ki // (1 << up) for ki in self.k))

    def __str__(self) -> str:
        return format_cube(self)


def parse_cube(text: str) -> DyadicCube:
    """Parse the literal form ``"j:k1,k2,...,kn"`` used in coefficient files."""
    try:
        level_part, idx_part = text.strip().split(":")
        j = int(level_part)
        k = tuple(int(v) for v in idx_part.split(","))
    except ValueError as exc:
        raise PreconditionError(f"bad cube literal {text!r}") from exc
    return DyadicCube(len(k), j, k)


def format_cube(q: DyadicCube) -> str:
    return f"{q.j}:" + ",".join(str(v) for v in q.k)


def children(q: DyadicCube) -> list[DyadicCube]:
    """The 2^n level-(j+1) cubes partitioning q, in lexicographic index order."""
    out = []
    for off in itertools.product((0, 1), repeat=q.n):
        out.append(DyadicCube(q.n, q.j + 1, tuple(2 * ki + o for ki, o in zip(q.k, off))))
    return out


def tensor_points(axes) -> np.ndarray:
    """Every point of the tensor grid of the 1d arrays ``axes``, shape (N, n),
    in C order: the last coordinate varies fastest."""
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


@dataclass(frozen=True, eq=False)
class CubeArrays:
    """N cubes as arrays: levels ``(N,)`` and integer indices ``(N, n)``.

    The operand of the block kernels; corners and edge lengths materialize
    as floats on demand, exactly as for :class:`DyadicCube`.
    """

    levels: np.ndarray
    index: np.ndarray

    def __len__(self) -> int:
        return len(self.levels)

    @property
    def n(self) -> int:
        return self.index.shape[1]

    @property
    def side(self) -> np.ndarray:
        return np.ldexp(1.0, -self.levels)

    @property
    def lower(self) -> np.ndarray:
        return np.ldexp(self.index.astype(float), -self.levels[:, None])

    @classmethod
    def of(cls, cubes) -> "CubeArrays":
        cubes = list(cubes)
        return cls(np.array([q.j for q in cubes], dtype=np.int64),
                   np.array([q.k for q in cubes], dtype=np.int64))

    @classmethod
    def of_window(cls, window: "LatticeWindow") -> "CubeArrays":
        """Every window cube, in the order of ``window.all_cubes()``."""
        levels = np.empty(window.count(), dtype=np.int64)
        index = np.empty((window.count(), window.n), dtype=np.int64)
        for j, (lower, shape, rows) in window._layout.items():
            levels[rows] = j
            index[rows] = tensor_points([np.arange(a, a + size, dtype=np.int64)
                                         for a, size in zip(lower, shape)])
        return cls(levels, index)

    def take(self, idx) -> "CubeArrays":
        return CubeArrays(self.levels[idx], self.index[idx])

    def cube(self, i: int) -> DyadicCube:
        return DyadicCube(self.n, int(self.levels[i]), tuple(self.index[i].tolist()))


def distance_block(rows: CubeArrays, cols: CubeArrays) -> np.ndarray:
    """:func:`distance_term` for every (row, column) pair, shape
    ``(len(rows), len(cols))``.  The squared distance is accumulated one axis
    at a time, so every temporary has the shape of the result."""
    if rows.n != cols.n:
        raise PreconditionError("cubes live in different dimensions")
    lo_r, lo_c = rows.lower, cols.lower
    dist = np.zeros((len(rows), len(cols)))
    for axis in range(rows.n):
        d = np.subtract.outer(lo_r[:, axis], lo_c[:, axis])
        d *= d
        dist += d
    np.sqrt(dist, out=dist)
    dist /= np.maximum.outer(rows.side, cols.side)
    dist += 1.0
    return dist


def distance_term(q: DyadicCube, r: DyadicCube) -> float:
    """1 + |x_Q - x_R| / max(side(Q), side(R)), measured between lower corners."""
    return float(distance_block(CubeArrays.of([q]), CubeArrays.of([r]))[0, 0])


def stack_cube(base: DyadicCube, k: int) -> DyadicCube:
    """Extrude a cube one dimension up: base x [side*k, side*(k+1))."""
    return DyadicCube(base.n + 1, base.j, base.k + (int(k),))


def base_of(q: DyadicCube) -> tuple[DyadicCube, int]:
    """Split off the last coordinate: inverse of :func:`stack_cube`."""
    if q.n < 2:
        raise PreconditionError("cannot take the base of a 1-dimensional cube")
    return DyadicCube(q.n - 1, q.j, q.k[:-1]), q.k[-1]


def _index_bounds(lo, hi, j: int) -> list[tuple[int, int]]:
    """Half-open index ranges [a, b) per axis of the level-j cubes inside the
    box [lo, hi) of integer level-0 coordinates."""
    if j >= 0:
        return [(a << j, b << j) for a, b in zip(lo, hi)]
    step = 1 << -j
    return [(-(-a // step), b // step) for a, b in zip(lo, hi)]


def whole_number(v) -> int:
    """``v`` as an int, refused unless it is a whole number (not a bool)."""
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise ValueError(f"{v!r} is not a whole number")
    return int(v)


def _box_corners(lo, hi, box: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The corners of the box [lo, hi) as ints; refuses, naming the box, a
    corner that is not a whole number and a box that is empty."""
    lo, hi = tuple(lo), tuple(hi)
    try:
        lo, hi = tuple(map(whole_number, lo)), tuple(map(whole_number, hi))
    except ValueError as exc:
        raise PreconditionError(f"{box} {lo}..{hi}: corner {exc}") from None
    if any(a >= b for a, b in zip(lo, hi)):
        raise PreconditionError(f"{box} {lo}..{hi} is empty")
    return lo, hi


def grid_cells(lo, hi, j: int, grid: str, box: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Index of the first level-j cell and cell counts per axis of the grid
    that tiles the box [lo, hi); refuses, naming the grid and the box, a
    corner that is not a whole number, an empty box and a box whose edges are
    not multiples of the cell side."""
    lo, hi = _box_corners(lo, hi, f"{grid} {box}")
    side = 1 << max(0, -j)
    if any(a % side or b % side for a, b in zip(lo, hi)):
        raise PreconditionError(
            f"{grid} level {j} does not tile the {box} {lo}..{hi}: "
            f"its edges must be multiples of {side}")
    bounds = _index_bounds(lo, hi, j)
    return tuple(a for a, _ in bounds), tuple(b - a for a, b in bounds)


class LatticeWindow:
    """Finite truncation of the dyadic lattice.

    The spatial box is given by integer level-0 coordinates ``lo``, ``hi``
    (half-open per axis); the level range is ``j_min..j_max`` inclusive.
    At each level, the index set consists of all cubes contained in the box.
    """

    def __init__(self, n: int, j_min: int, j_max: int, lo, hi):
        if j_min > j_max:
            raise PreconditionError("j_min must not exceed j_max")
        _check_level(j_min)
        _check_level(j_max)
        self.n = int(n)
        self.j_min = int(j_min)
        self.j_max = int(j_max)
        self.lo, self.hi = _box_corners(lo, hi, "window box")
        if len(self.lo) != n or len(self.hi) != n:
            raise PreconditionError("box bounds must match dimension")
        # the row layout of every window level: first indices, index shape
        # and rows in all_cubes() order
        self._layout: dict[int, tuple[tuple[int, ...], tuple[int, ...], slice]] = {}
        first = 0
        for j in range(self.j_min, self.j_max + 1):
            bounds = self.index_bounds(j)
            if any(a >= b for a, b in bounds):
                raise PreconditionError(f"window has no cubes at level {j}")
            shape = tuple(b - a for a, b in bounds)
            rows = slice(first, first + math.prod(shape))
            self._layout[j] = (tuple(a for a, _ in bounds), shape, rows)
            first = rows.stop
        # the layout as arrays indexed by level - j_min, with row-major strides
        lower, shape, rows = zip(*self._layout.values())
        self._lower = np.array(lower, dtype=np.int64)
        self._shape = np.array(shape, dtype=np.int64)
        self._stride = np.ones_like(self._shape)
        self._stride[:, :-1] = np.cumprod(self._shape[:, :0:-1], axis=1)[:, ::-1]
        self._first = np.array([r.start for r in rows], dtype=np.int64)

    def index_bounds(self, j: int) -> list[tuple[int, int]]:
        """Half-open integer index ranges [a, b) per axis at level j."""
        return _index_bounds(self.lo, self.hi, j)

    def level_rows(self, j: int) -> tuple[slice, tuple[int, ...]]:
        """The rows of the level-j cubes in ``all_cubes()`` order and their
        index shape; the cube ``lower + i`` sits at row ``start + ravel(i)``."""
        if j not in self._layout:
            raise PreconditionError(f"level {j} outside the window")
        _, shape, rows = self._layout[j]
        return rows, shape

    def cubes(self, j: int):
        if not (self.j_min <= j <= self.j_max):
            return
        ranges = [range(a, b) for a, b in self.index_bounds(j)]
        for k in itertools.product(*ranges):
            yield DyadicCube(self.n, j, k)

    def all_cubes(self):
        for j in range(self.j_min, self.j_max + 1):
            yield from self.cubes(j)

    def count(self, j: int | None = None) -> int:
        """The number of window cubes, at level j or in all."""
        if j is None:
            return self._layout[self.j_max][2].stop
        return math.prod(self._layout[j][1]) if j in self._layout else 0

    def positions(self, cubes: CubeArrays) -> np.ndarray:
        """Position of each cube in ``all_cubes()`` order; -1 for cubes
        outside the window."""
        if cubes.n != self.n:
            return np.full(len(cubes), -1, dtype=np.int64)
        # levels outside the window read level j_min's table and are masked
        j = np.clip(cubes.levels - self.j_min, 0, len(self._first) - 1)
        rel = cubes.index - self._lower[j]
        inside = np.all((rel >= 0) & (rel < self._shape[j]), axis=1)
        inside &= (cubes.levels >= self.j_min) & (cubes.levels <= self.j_max)
        return np.where(inside, self._first[j] + np.einsum("ci,ci->c", rel, self._stride[j]), -1)

    def contains(self, q: DyadicCube) -> bool:
        if q.n != self.n or not (self.j_min <= q.j <= self.j_max):
            return False
        return all(a <= ki < b for ki, (a, b) in zip(q.k, self.index_bounds(q.j)))

    def _key(self) -> tuple:
        return (self.n, self.j_min, self.j_max, self.lo, self.hi)

    def __eq__(self, other) -> bool:
        return isinstance(other, LatticeWindow) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self):
        return (f"LatticeWindow(n={self.n}, j_min={self.j_min}, j_max={self.j_max}, "
                f"lo={self.lo}, hi={self.hi})")
