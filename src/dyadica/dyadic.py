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

    def contains(self, x) -> np.ndarray:
        """Half-open membership test for points of shape (n,) or (N, n)."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        lo = np.array(self.lower)
        hi = np.array(self.upper)
        return np.all((pts >= lo) & (pts < hi), axis=-1)

    def parent(self) -> "DyadicCube":
        return DyadicCube(self.n, self.j - 1, tuple(ki // 2 for ki in self.k))

    def ancestor(self, up: int) -> "DyadicCube":
        if up < 0:
            raise PreconditionError("ancestor level offset must be nonnegative")
        return DyadicCube(self.n, self.j - up, tuple(ki // (1 << up) for ki in self.k))

    def __str__(self) -> str:
        return format_cube(self)


def parse_cube(text: str, n: int | None = None) -> DyadicCube:
    """Parse the literal form ``"j:k1,k2,...,kn"`` used in coefficient files."""
    try:
        level_part, idx_part = text.strip().split(":")
        j = int(level_part)
        k = tuple(int(v) for v in idx_part.split(","))
    except ValueError as exc:
        raise PreconditionError(f"bad cube literal {text!r}") from exc
    if n is not None and len(k) != n:
        raise PreconditionError(f"cube literal {text!r} has dimension {len(k)}, expected {n}")
    return DyadicCube(len(k), j, k)


def format_cube(q: DyadicCube) -> str:
    return f"{q.j}:" + ",".join(str(v) for v in q.k)


def children(q: DyadicCube) -> list[DyadicCube]:
    """The 2^n level-(j+1) cubes partitioning q, in lexicographic index order."""
    out = []
    for off in itertools.product((0, 1), repeat=q.n):
        out.append(DyadicCube(q.n, q.j + 1, tuple(2 * ki + o for ki, o in zip(q.k, off))))
    return out


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
        levels, index = [], []
        for j in range(window.j_min, window.j_max + 1):
            axes = [np.arange(a, b, dtype=np.int64) for a, b in window.index_bounds(j)]
            grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, window.n)
            levels.append(np.full(len(grid), j, dtype=np.int64))
            index.append(grid)
        return cls(np.concatenate(levels), np.concatenate(index))

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


def _ceil_log2(m: int) -> int:
    if m < 1:
        raise ValueError("argument must be >= 1")
    return (m - 1).bit_length()


def covering_cube(r: DyadicCube, k: int) -> DyadicCube:
    """Smallest-construction cube one dimension up containing every stack of r.

    For a base cube r and slab offset k, returns P with side
    ``2**ceil(log2(k+1)) * side(r)`` (k >= 0) or ``2**ceil(log2(-k)) * side(r)``
    (k <= -1) such that ``stack_cube(i, k)`` is contained in P for every dyadic
    ``i`` inside r.
    """
    k = int(k)
    if k >= 0:
        up = _ceil_log2(k + 1)
        anc = r.ancestor(up)
        return stack_cube(anc, 0)
    up = _ceil_log2(-k)
    anc = r.ancestor(up)
    return stack_cube(anc, -1)


def normalized_indicator(q: DyadicCube, x) -> np.ndarray:
    """|Q|^{-1/2} on Q, zero elsewhere."""
    inside = q.contains(x)
    scale = math.ldexp(1.0, q.j * q.n) ** 0.5
    vals = np.where(inside, scale, 0.0)
    if np.asarray(x).ndim == 1:
        return vals[0]
    return vals


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
        self.lo = tuple(int(v) for v in lo)
        self.hi = tuple(int(v) for v in hi)
        if len(self.lo) != n or len(self.hi) != n:
            raise PreconditionError("box bounds must match dimension")
        if any(a >= b for a, b in zip(self.lo, self.hi)):
            raise PreconditionError("box must be nonempty")
        for j in range(self.j_min, self.j_max + 1):
            if any(a >= b for a, b in self.index_bounds(j)):
                raise PreconditionError(f"window has no cubes at level {j}")

    def index_bounds(self, j: int) -> list[tuple[int, int]]:
        """Half-open integer index ranges [a, b) per axis at level j."""
        out = []
        for a, b in zip(self.lo, self.hi):
            if j >= 0:
                out.append((a << j, b << j))
            else:
                step = 1 << (-j)
                out.append((-((-a) // step) if a < 0 else (a + step - 1) // step, b // step))
        return out

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
        if j is not None:
            total = 1
            for a, b in self.index_bounds(j):
                total *= max(0, b - a)
            return total
        return sum(self.count(jj) for jj in range(self.j_min, self.j_max + 1))

    def positions(self, cubes: CubeArrays) -> np.ndarray:
        """Position of each cube in ``all_cubes()`` order; -1 for cubes
        outside the window."""
        pos = np.full(len(cubes), -1, dtype=np.int64)
        if cubes.n != self.n:
            return pos
        offset = 0
        for j in range(self.j_min, self.j_max + 1):
            bounds = np.array(self.index_bounds(j), dtype=np.int64)
            size = bounds[:, 1] - bounds[:, 0]
            rel = cubes.index - bounds[:, 0]
            at = (cubes.levels == j) & np.all((rel >= 0) & (rel < size), axis=1)
            pos[at] = offset + np.ravel_multi_index(rel[at].T, tuple(size.tolist()))
            offset += self.count(j)
        return pos

    def contains(self, q: DyadicCube) -> bool:
        if q.n != self.n or not (self.j_min <= q.j <= self.j_max):
            return False
        return all(a <= ki < b for ki, (a, b) in zip(q.k, self.index_bounds(q.j)))

    def __repr__(self):
        return (f"LatticeWindow(n={self.n}, j_min={self.j_min}, j_max={self.j_max}, "
                f"lo={self.lo}, hi={self.hi})")
