"""Sequence-space norms over finite lattice windows.

Coefficient fields assign a vector to each cube of a window; the mixed norm
takes, for every window cube P, the level-then-space (B family) or
space-then-level (F family) aggregate of the associated level functions over
the shadow of P, scaled by |P|^-tau, and returns the sup together with the
attaining cube.  Level functions are read on a uniform fine grid of cell
midpoints aligned with the lattice, so integrals of lattice-aligned data are
exact sums; varying weights are resolved by extra grid subdivision.

Field norms take one of two paths.  Factored (averaged norms, and weighted
norms for m = 1): level j is 2^{js} |Q|^{-1/2} |A_Q t_Q|, or 2^{js}
|Q|^{-1/2} |t_Q| |W^{1/p}(x)|, on each cube Q, so a norm is fixed by the cube
magnitudes and one measure of the finest window cubes (their volume, or the
integrals of |W^{1/p}|^p over them).  The B family sums energies up the cube
tree; the F family rasterizes the levels on the finest cubes alone.  Raster
(weighted norms for m > 1, and :func:`la_norm` on stacks a caller builds):
stacks of every level on the grid, built in sample blocks of about 2^17
entries.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dyadic import CubeArrays, DyadicCube, LatticeWindow, format_cube, grid_cells, tensor_points
from .errors import PreconditionError
from .params import BESOV, SpaceParams
from .weights import MatrixWeight, ReducingFamily


def as_float_or_complex(values) -> np.ndarray:
    """``values`` as a complex128 array when they are complex, else float64."""
    values = np.asarray(values)
    return values.astype(complex if np.iscomplexobj(values) else float, copy=False)


class CoeffField:
    """Finite map cube -> vector in C^m over a lattice window; absent cubes
    are zero.

    The field is one ``(C, m)`` array of rows, one per window cube in
    ``window.all_cubes()`` order (see ``LatticeWindow.level_rows``): float64
    until a nonzero complex block is written, then complex128 for the whole
    field.  A cube is present when its vector is nonzero, and absent rows
    hold +0.0.  ``DyadicCube`` objects are built only by :meth:`items` and
    :meth:`cubes`, whose vectors, like those of :meth:`get`, are complex128;
    the array paths :meth:`level`, :meth:`write`, :meth:`rows` and
    :meth:`nonzero` keep the stored dtype.
    """

    def __init__(self, window: LatticeWindow, m: int, data: dict | None = None):
        self.window = window
        self.m = int(m)
        if self.m < 1:
            raise PreconditionError(f"the vector dimension m must be at least 1, got {m}")
        self._rows = np.zeros((window.count(), self.m))
        if data:
            for q, v in data.items():
                self.set(q, v)

    # -- array access --------------------------------------------------------

    def lower(self, j: int) -> tuple[int, ...]:
        """Index of the first window cube of level j along each axis."""
        return tuple(a for a, _ in self.window.index_bounds(j))

    def level(self, j: int) -> np.ndarray | None:
        """The read-only ``(m, *index_shape)`` view of level j (None outside
        the window)."""
        if not (self.window.j_min <= j <= self.window.j_max):
            return None
        return _level_view(self.rows(), self.window, j)

    def overlap(self, j: int, start, shape):
        """(block slices, level slices) of the part of the index box
        ``[start, start + shape)`` inside the window at level j, or None."""
        if not (self.window.j_min <= j <= self.window.j_max):
            return None
        src, dst = [], []
        for s, size, (a, b) in zip(start, shape, self.window.index_bounds(j)):
            lo, hi = max(s, a), min(s + size, b)
            if lo >= hi:
                return None
            src.append(slice(lo - s, hi - s))
            dst.append(slice(lo - a, hi - a))
        return tuple(src), tuple(dst)

    def write(self, j: int, start, block) -> None:
        """Set the level-j cubes with indices ``start + i`` to ``block[:, i]``
        for every index i of the ``(m, *shape)`` block.

        Nonzero vectors must lie in the window and be finite; the first
        offending cube is named.  Zero vectors outside the window are ignored.
        """
        block = as_float_or_complex(block)
        start = tuple(int(s) for s in start)
        stray = self.first_outside(j, start, block)
        if stray is not None:
            raise PreconditionError(f"cube {stray} outside the window")
        ov = self.overlap(j, start, block.shape[1:])
        if ov is None:
            return
        part = block[(slice(None),) + ov[0]]
        bad = ~np.all(np.isfinite(part), axis=0)
        if bad.any():
            first = DyadicCube(self.window.n, j, tuple(
                a + s.start + int(i) for a, s, i in zip(start, ov[0], np.argwhere(bad)[0])))
            raise PreconditionError(f"non-finite coefficient for cube {first}")
        keep = np.any(part != 0, axis=0)
        if np.iscomplexobj(part) and not np.iscomplexobj(self._rows):
            if keep.any():
                self._rows = self._rows.astype(complex)
            else:
                part = part.real
        dst = _level_view(self._rows, self.window, j)[(slice(None),) + ov[1]]
        dst[...] = part
        dst[:, ~keep] = 0

    def first_outside(self, j: int, start, block) -> DyadicCube | None:
        """The first cube, in index order, that holds a nonzero vector of the
        level-j ``block`` at ``start`` and lies outside the window."""
        stray = np.any(np.asarray(block) != 0, axis=0)
        ov = self.overlap(j, start, stray.shape)
        if ov is not None:
            stray[ov[0]] = False
        if not stray.any():
            return None
        return DyadicCube(self.window.n, j,
                          tuple(s + int(i) for s, i in zip(start, np.argwhere(stray)[0])))

    def write_all(self, values: np.ndarray) -> None:
        """Set every window cube from ``values`` (C, m), one row per cube in
        ``window.all_cubes()`` order; the field is unchanged when a value is
        refused."""
        values = as_float_or_complex(values)
        if values.shape != self._rows.shape:
            raise PreconditionError(f"field rows have shape {values.shape}, "
                                    f"expected {self._rows.shape}")
        bad = ~np.all(np.isfinite(values), axis=1)
        if bad.any():
            q = CubeArrays.of_window(self.window).cube(int(np.argmax(bad)))
            raise PreconditionError(f"non-finite coefficient for cube {q}")
        keep = np.any(values != 0, axis=1)
        rows = values.copy() if keep.any() else np.zeros(values.shape)
        rows[~keep] = 0
        self._rows = rows

    def rows(self) -> np.ndarray:
        """Every window cube's vector, shape (C, m), in ``window.all_cubes()``
        order, as a read-only view: the inverse of :meth:`write_all`."""
        out = self._rows.view()
        out.flags.writeable = False
        return out

    def nonzero(self) -> tuple[CubeArrays, np.ndarray]:
        """The present cubes in ``(j, k)`` order and their vectors, shape (N, m)."""
        present = np.flatnonzero(np.any(self._rows != 0, axis=1))
        return CubeArrays.of_window(self.window).take(present), self._rows[present]

    # -- cube access ---------------------------------------------------------

    def set(self, q: DyadicCube, value) -> None:
        if not self.window.contains(q):
            raise PreconditionError(f"cube {q} outside the window")
        v = as_float_or_complex(value).reshape((self.m,) + (1,) * q.n)
        self.write(q.j, q.k, v)

    def get(self, q: DyadicCube) -> np.ndarray:
        pos = int(self.window.positions(CubeArrays.of([q]))[0])
        if pos < 0:
            return np.zeros(self.m, dtype=complex)
        return self._rows[pos].astype(complex)

    def items(self) -> list[tuple[DyadicCube, np.ndarray]]:
        cubes, values = self.nonzero()
        return list(zip(_cube_list(cubes), values.astype(complex, copy=False)))

    def cubes(self) -> list[DyadicCube]:
        return _cube_list(self.nonzero()[0])

    def __len__(self):
        return int(np.count_nonzero(np.any(self._rows != 0, axis=1)))

    def levels(self):
        w = self.window
        return [j for j in range(w.j_min, w.j_max + 1) if self._rows[w.level_rows(j)[0]].any()]

    def scaled(self, c: complex) -> "CoeffField":
        out = CoeffField(self.window, self.m)
        out.write_all(c * self._rows)
        return out

    def plus(self, other: "CoeffField") -> "CoeffField":
        """The sum of two fields on one window; a cube absent from ``other``
        keeps this field's vector as it is."""
        if other.window != self.window or other.m != self.m:
            raise PreconditionError("fields to add must share one window and dimension")
        theirs = np.any(other._rows != 0, axis=1)[:, None]
        out = CoeffField(self.window, self.m)
        out.write_all(np.where(theirs, self._rows + other._rows, self._rows))
        return out

    @classmethod
    def random(cls, window: LatticeWindow, m: int, rng: np.random.Generator,
               density: float = 0.3, complex_values: bool = False) -> "CoeffField":
        """A field drawn by :func:`random_rows` (one sample)."""
        out = cls(window, m)
        out.write_all(random_rows(rng, 1, window.count(), m, density, complex_values)[0])
        return out

    # -- CSV form: "j:k1,...,kn, re1, im1, ..., re_m, im_m" ------------------

    def to_csv(self) -> str:
        """One line per present cube in ``(j, k)`` order; floats are written
        with ``repr``, so reading the text back is exact."""
        cubes, values = self.nonzero()
        N, n, m = len(cubes), self.window.n, self.m
        if not N:
            return ""
        row = np.empty((N, 1 + n + 2 * m), dtype=object)  # Python ints and floats
        row[:, 0] = cubes.levels
        row[:, 1:1 + n] = cubes.index
        row[:, 1 + n::2] = values.real
        row[:, 2 + n::2] = values.imag if np.iscomplexobj(values) else 0.0
        line = "%d:" + ",".join(["%d"] * n) + ", %r" * (2 * m) + "\n"
        return (line * N) % tuple(row.ravel().tolist())

    @classmethod
    def from_csv(cls, text: str, window: LatticeWindow, m: int | None = None) -> "CoeffField":
        """Parse :meth:`to_csv` text.  The dimension m is the number of
        (re, im) pairs of the first coefficient line, 1 for a text with no
        lines; a given ``m`` is the dimension the caller needs, so a first
        line of another dimension is refused and a text with no lines reads
        as the zero field of that m.  Refuses, naming the first offending
        line or cube in file order: a malformed line, a second line for one
        cube, a cube outside the window, a non-finite value.  The field is
        real (float64 rows) when every imaginary part is +0.0, so that a
        nonzero or -0.0 imaginary part keeps its bits."""
        n, out = window.n, cls(window, 1 if m is None else m)  # refuses a given m < 1
        head, values, bad_line, out.m = _parse_csv(text, n, m)
        # refuse the first line that repeats a cube, lies outside the window or
        # holds a non-finite value
        pos = window.positions(CubeArrays(head[:, 0], head[:, 1:]))
        outside = pos < 0
        repeated = ~outside
        repeated[np.unique(pos, return_index=True)[1]] = False
        bad = repeated | outside | ~np.all(np.isfinite(values), axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            q = DyadicCube(window.n, int(head[i, 0]), tuple(head[i, 1:].tolist()))
            if repeated[i]:
                raise PreconditionError(f"duplicate coefficient line for cube {q}")
            if outside[i]:
                raise PreconditionError(f"cube {q} outside the window")
            raise PreconditionError(f"non-finite coefficient for cube {q}")
        if bad_line is not None:
            raise _bad_line(bad_line, n)
        values[~np.any(values != 0, axis=1)] = 0  # a zero vector is absent: +0.0
        if not np.any(values[:, 1::2].view(np.uint64)):  # no nonzero part, no -0.0
            values = values[:, ::2]
        else:  # complex(re, im) exactly
            values = np.ascontiguousarray(values).view(complex)
        out._rows = np.zeros((window.count(), out.m), dtype=values.dtype)
        out._rows[pos] = values
        return out


# Every byte but the separators of a coefficient line, the comment mark and
# the other ASCII line breaks of ``str.splitlines``: the text of well-formed
# lines holds none of these.
_NOT_SEPARATOR = bytes(b for b in range(256) if b not in b":,\n#\r\x0b\x0c\x1c\x1d\x1e")
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _parse_csv(text: str, n: int, m: int | None
               ) -> tuple[np.ndarray, np.ndarray, str | None, int]:
    """The heads and values of the coefficient lines of ``text`` that come
    before the first line malformed on its own, that line (None if there is
    none) and the dimension read from the first line (see
    :meth:`CoeffField.from_csv`).  Lines are stripped, and blank and ``#``
    lines skipped; ASCII text without such lines (what ``to_csv`` writes)
    goes to the C parser as it is."""
    body = text[:-1] if text.endswith("\n") else text
    if body.isascii():
        end = body.find("\n")
        dim = _line_dimension(body if end < 0 else body[:end], n)
        if dim is not None and m in (None, dim):
            try:
                return (*_parse_text(body, body.count("\n") + 1, n, dim), None, dim)
            except ValueError:  # a comment or blank line, or a bad line
                pass
    lines = [s for s in map(str.strip, text.splitlines()) if s and not s.startswith("#")]
    dim = _line_dimension(lines[0], n) if lines else None
    if dim is None:  # no lines, or a first line that is malformed on its own
        dim = 1 if m is None else m
    elif m not in (None, dim):
        raise PreconditionError(f"coefficient line {lines[0]!r} holds vectors of dimension "
                                f"m = {dim}, but m = {m} is needed")
    try:
        return (*_parse_lines(lines, n, dim), None, dim)
    except ValueError:  # the first line that is malformed on its own
        for end, line in enumerate(lines):
            try:
                _parse_lines([line], n, dim)
            except ValueError:
                return (*_parse_lines(lines[:end], n, dim), line, dim)
        raise


def _separators(text: str) -> bytes:
    """The separators, comment marks and line breaks of ``text``, in order."""
    return text.encode().translate(None, _NOT_SEPARATOR)


def _line_separators(n: int, m: int) -> bytes:
    """The separators of a coefficient line "j:k1,...,kn, re1, im1, ...":
    one colon and then n - 1 + 2m commas."""
    return b":" + b"," * (n - 1 + 2 * m)


def _line_dimension(line: str, n: int) -> int | None:
    """The m >= 1 whose coefficient lines have the separators of ``line``
    (None if there is none)."""
    seps = _separators(line)
    m = (len(seps) - n) // 2
    return m if m >= 1 and seps == _line_separators(n, m) else None


def _parse_lines(lines: list[str], n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    return _parse_text("\n".join(lines), len(lines), n, m)


def _parse_text(text: str, count: int, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Levels and indices (N, 1 + n) and the real and imaginary parts
    (N, 2m) of the ``count`` coefficient lines of ``text`` (no trailing
    newline), read by numpy's C parser, which is never laxer than ``int``
    and ``float``; ValueError unless every line is well formed."""
    if not count:
        return np.zeros((0, 1 + n), dtype=np.int64), np.zeros((0, 2 * m))
    if _separators(text) != ((_line_separators(n, m) + b"\n") * count)[:-1]:
        raise ValueError("misplaced separator")
    dtype = np.dtype([("head", np.int64, (1 + n,)), ("values", np.float64, (2 * m,))])
    with warnings.catch_warnings():
        # numpy 1.x reads a float into an integer column with only a warning
        warnings.simplefilter("error", DeprecationWarning)
        try:
            rows = np.loadtxt(io.StringIO(text.replace(":", ",")), dtype=dtype,
                              delimiter=",", comments=None, ndmin=1)
        except DeprecationWarning as exc:
            raise ValueError(str(exc)) from exc
    return rows["head"], rows["values"]


def _bad_line(line: str, n: int) -> PreconditionError:
    """The refusal of a coefficient line that does not parse on its own."""
    ints = [s.strip() for s in line.replace(":", ",").split(",")[:1 + n]]
    if (all(_INTEGER.fullmatch(s) for s in ints)
            and any(not -(1 << 63) <= int(s) < (1 << 63) for s in ints)):
        return PreconditionError(f"cube index in coefficient line {line!r} exceeds 64 bits")
    return PreconditionError(f"bad coefficient line {line!r}")


def _cube_list(cubes: CubeArrays) -> list[DyadicCube]:
    n = cubes.n
    return [DyadicCube(n, j, tuple(k)) for j, k in zip(cubes.levels.tolist(), cubes.index.tolist())]


def _level_view(rows: np.ndarray, window: LatticeWindow, j: int) -> np.ndarray:
    """The ``(m, *index_shape)`` view of the level-j rows of ``rows`` (C, m)."""
    sl, shape = window.level_rows(j)
    return rows[sl].T.reshape((rows.shape[1],) + shape)


def random_rows(rng: np.random.Generator, samples: int, count: int, m: int,
                density: float = 0.3, complex_values: bool = False) -> np.ndarray:
    """``samples`` random fields as rows, shape (samples, count, m): each of
    the count cubes of a sample is drawn with probability density.  Two array
    draws: ``rng.random((samples, count))`` picks the cubes, then one
    ``standard_normal((k, m))`` fills the k picked cubes in row order (and,
    for complex values, a second draw of that shape gives the imaginary
    parts)."""
    picked = rng.random((samples, count)) < density
    vals = np.zeros((samples, count, m), dtype=complex)
    k = int(np.count_nonzero(picked))
    v = rng.standard_normal((k, m))
    vals[picked] = v + 1j * rng.standard_normal((k, m)) if complex_values else v
    return vals


@dataclass
class LevelFunctionStack:
    """Per-level real scalar functions sampled on one uniform fine grid.

    The grid covers the window box with the dyadic cells of level
    ``grid_level``, with cell midpoint semantics; ``levels[j]`` has the grid
    shape, or ``(samples, *grid_shape)`` when the stack is a batch of
    ``samples`` stacks.  A grid level below 0 needs box edges that are whole
    multiples of the cell side.
    """

    window: LatticeWindow
    grid_level: int
    levels: dict[int, np.ndarray] = field(default_factory=dict)
    samples: int | None = None

    def __post_init__(self):
        if self.grid_level < self.window.j_max:
            raise PreconditionError("grid must be at least as fine as the finest level")
        self.grid_start, self.grid_shape = grid_cells(
            self.window.lo, self.window.hi, self.grid_level, "stack grid", "window box")

    @property
    def cell_volume(self) -> float:
        return math.ldexp(1.0, -self.grid_level * self.window.n)

    def midpoints_axis(self, axis: int) -> np.ndarray:
        cells = self.grid_shape[axis]
        return self.window.lo[axis] + (np.arange(cells) + 0.5) * math.ldexp(1.0, -self.grid_level)

    def midpoints(self) -> np.ndarray:
        return tensor_points([self.midpoints_axis(i) for i in range(self.window.n)])

    def sample(self, i: int) -> "LevelFunctionStack":
        """Stack i of a batch, as a single stack."""
        return LevelFunctionStack(self.window, self.grid_level,
                                  {j: a[i] for j, a in self.levels.items()})


@dataclass(frozen=True)
class NormResult:
    value: float
    attaining: DyadicCube | None
    boundary_flag: bool

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "attaining_P": format_cube(self.attaining) if self.attaining else None,
            "boundary_flag": self.boundary_flag,
        }


@np.errstate(over="ignore")  # overflows are refused by name
def la_norms(stack: LevelFunctionStack, sp: SpaceParams,
             window: LatticeWindow | None = None) -> list[NormResult]:
    """:func:`la_norm` of every stack of a batch, in one pass over the window
    levels with the samples on the leading axis.  A B-family stack is first
    block-summed to per-cube level energies.  A sample whose stack vanishes
    has value 0 and no attaining cube."""
    window = window or stack.window
    S = stack.samples
    if S is None:
        raise PreconditionError("la_norms takes a batched stack; use la_norm for one stack")
    levels = sorted(stack.levels)
    for j in levels:
        if not np.all(np.isfinite(stack.levels[j])):
            raise PreconditionError(f"level {j} of the stack holds non-finite values")
    if sp.family == BESOV:
        # a level finer than the window enters at the finest window level
        return _besov_norms(window, {j: _energies(stack, stack.levels[j], min(j, window.j_max),
                                                  sp.p, window)
                                     for j in levels if j >= window.j_min}, sp, S)
    return _sup(window, S, _triebel_levels(stack, sp, window, stack.cell_volume), sp)


def _energies(stack: LevelFunctionStack, values: np.ndarray, j: int, p: float,
              window: LatticeWindow) -> np.ndarray:
    """vol * sum |values|^p over each level-j window cube, (S, *index_shape),
    of a level (S, *grid_shape) on the grid of ``stack``."""
    return _block_sums(np.abs(values) ** p, window.index_bounds(j), stack.grid_start,
                       stack.grid_level - j) * stack.cell_volume


def _besov_norms(window: LatticeWindow, energies: dict, sp: SpaceParams,
                 S: int) -> list[NormResult]:
    """B-family norms of S samples from their per-cube level energies:
    ``energies[j]`` (S, *index_shape) holds vol * sum |f_j|^p over each
    window cube of level min(j, j_max), in ascending j.  On the way down
    from the finest window level each cube sums its 2^n children, so a
    window cube P gets [sum_{j >= j(P)} ||f_j||_{L^p(P)}^q]^{1/q}."""

    def aggregates():
        sums = {}
        for j_p in range(window.j_max, window.j_min - 1, -1):
            bounds = window.index_bounds(j_p)
            finer = [a for a, _ in window.index_bounds(j_p + 1)]
            sums = {j: _block_sums(sums[j], bounds, finer, 1) if j in sums else e
                    for j, e in energies.items() if j >= j_p}
            if sums:
                yield j_p, _lq([s ** (1.0 / sp.p) for s in sums.values()], sp.q)

    return _sup(window, S, aggregates(), sp)


def _triebel_levels(stack: LevelFunctionStack, sp: SpaceParams, window: LatticeWindow,
                    measure):
    """(j, aggregate) of every window level j, finest first, of a batched
    F-family stack: || (sum_j |f_j|^q)^{1/q} ||_{L^p(P)} of each level-j cube
    P, summed over the levels from j on, under the measure of each grid cell
    (a number, or an array that broadcasts against the levels).  Each level
    joins a running sum of |f_j|^q (max_j |f_j| for q = inf) once, on the way
    down from the finest."""
    levels = sorted(stack.levels)
    arrs = {j: np.abs(stack.levels[j]) for j in levels}
    inf = math.isinf(sp.q)
    running, powered, absorbed = None, None, 0
    for j_p in range(window.j_max, window.j_min - 1, -1):
        contributing = [j for j in levels if j >= j_p]
        if not contributing:
            continue
        fresh = contributing[:len(contributing) - absorbed]
        if fresh:
            for j in reversed(fresh):
                term = arrs[j] if inf else arrs[j] ** sp.q
                running = term if running is None else (np.maximum if inf else np.add)(running, term)
            absorbed = len(contributing)
            powered = (running if inf else running ** (1.0 / sp.q)) ** sp.p * measure
        r = stack.grid_level - j_p
        sums = _block_sums(powered, window.index_bounds(j_p), stack.grid_start, r)
        yield j_p, sums ** (1.0 / sp.p)


def _sup(window: LatticeWindow, S: int, aggregates, sp: SpaceParams) -> list[NormResult]:
    """The sup over window cubes P of |P|^-tau times the aggregate of P, its
    first attaining cube and the boundary flag, for S samples, from the
    (j, aggregate (S, *index_shape)) pairs of the window levels, finest
    first; on a tie the coarser cube wins.  The flag marks attainment at
    the coarsest level, where the finite window may truncate the true sup."""
    n = window.n
    best = np.full(S, -1.0)
    best_level = np.zeros(S, dtype=np.int64)
    best_flat = np.zeros(S, dtype=np.intp)
    for j_p, vals in aggregates:
        if not np.all(np.isfinite(vals)):
            raise _SumsOverflow(j_p)
        vals = _scaled(vals, math.ldexp(1.0, j_p * n), sp.tau, sp, "tau", j_p).reshape(S, -1)
        flat = np.argmax(vals, axis=1)
        v = vals[np.arange(S), flat]
        better = v >= best
        best[better] = v[better]
        best_level[better] = j_p
        best_flat[better] = flat[better]

    out = []
    for value, j, flat in zip(best.tolist(), best_level.tolist(), best_flat.tolist()):
        if not value > 0.0:
            out.append(NormResult(0.0, None, False))
            continue
        bounds = window.index_bounds(j)
        idx = np.unravel_index(flat, tuple(b - a for a, b in bounds))
        cube = DyadicCube(n, j, tuple(a + int(i) for (a, _), i in zip(bounds, idx)))
        out.append(NormResult(value, cube, j == window.j_min))
    return out


@np.errstate(over="ignore")  # overflows are refused by name
def _scaled(values: np.ndarray, base: float, exponent: float, sp: SpaceParams, key: str,
            j: int) -> np.ndarray:
    """``base ** exponent * values``: level-j values of a norm in ``sp`` times
    their factor 2^(j s) or 2^(j n tau).  A factor or a product beyond the
    float range is refused naming the space's ``key`` and the level."""
    try:
        factor = base ** exponent
    except OverflowError:
        factor = math.inf
    if math.isinf(factor):
        raise PreconditionError(f"{key} = {getattr(sp, key)} is too large: the level-{j} "
                                "factor of the norm overflows")
    values = factor * values
    if not np.all(np.isfinite(values)):
        raise PreconditionError(f"{key} = {getattr(sp, key)} is too large: the level-{j} "
                                "values of the norm overflow")
    return values


class _SumsOverflow(PreconditionError):
    """Level-j sums of a norm that overflow, refused unnamed by :func:`la_norm`."""

    def __init__(self, j: int):
        super().__init__(f"the level-{j} sums of the norm overflow")
        self.j = j


@contextlib.contextmanager
def _naming_s(sp: SpaceParams):
    """Around a norm whose levels carry the factors 2^(j s) of ``sp``: a
    refusal of sums that overflow names ``s`` and the level."""
    try:
        yield
    except _SumsOverflow as exc:
        raise PreconditionError(f"s = {sp.s} is too large: the level-{exc.j} values "
                                "of the norm overflow") from None


def _lq(arrays: list[np.ndarray], q: float) -> np.ndarray:
    """Entrywise (sum_i a_i^q)^{1/q} of the arrays, their maximum for q = inf."""
    if math.isinf(q):
        return functools.reduce(np.maximum, arrays)
    return sum(a ** q for a in arrays) ** (1.0 / q)


def _block_sums(arr: np.ndarray, bounds, start, r: int) -> np.ndarray:
    """Sums of ``arr`` (S, ...) over blocks of 2^r entries per axis, one per
    index of ``bounds``; the block of index k starts at entry (k << r) - start."""
    out = arr[(slice(None),) + tuple(slice((ka << r) - s, (kb << r) - s)
                                     for (ka, kb), s in zip(bounds, start))]
    for axis in range(1, out.ndim):
        shape = out.shape
        out = out.reshape(shape[:axis] + (shape[axis] >> r, 1 << r) + shape[axis + 1:]).sum(
            axis=axis + 1)
    return out


def la_norm(stack: LevelFunctionStack, sp: SpaceParams, window: LatticeWindow | None = None) -> NormResult:
    """Sup over window cubes P of |P|^-tau times the mixed aggregate over the
    shadow of P.  The boundary flag marks attainment at the coarsest level,
    where the finite window may truncate the true sup.  The one-sample case
    of :func:`la_norms`."""
    batch = LevelFunctionStack(stack.window, stack.grid_level,
                               {j: a[None] for j, a in stack.levels.items()}, 1)
    return la_norms(batch, sp, window)[0]


def _level_cells(grid: LevelFunctionStack, j: int, values: np.ndarray) -> np.ndarray:
    """Block upsampling of a level array ``(..., *index_shape)`` to the fine
    grid of a stack: every cell of the level-j window cube ``lower + i`` holds
    ``values[..., i]``; cells outside all level-j window cubes stay zero."""
    n = grid.window.n
    r = grid.grid_level - j
    lead = values.shape[:values.ndim - n]
    out = np.zeros(lead + grid.grid_shape, dtype=values.dtype)
    region, spread, blocks, cells = [], [], [], []
    for (ka, kb), s in zip(grid.window.index_bounds(j), grid.grid_start):
        start = (ka << r) - s
        region.append(slice(start, start + ((kb - ka) << r)))
        spread += [kb - ka, 1]
        blocks += [kb - ka, 1 << r]
        cells.append((kb - ka) << r)
    up = np.broadcast_to(values.reshape(lead + tuple(spread)), lead + tuple(blocks))
    out[(Ellipsis,) + tuple(region)] = up.reshape(lead + tuple(cells))
    return out


# Stack entries (grid cells x (levels + channels)) per sample block of the
# raster paths: bounds their temporaries at a few MB.
SAMPLE_ENTRIES = 1 << 17


def _samples_per_block(per_sample: int) -> int:
    return max(1, SAMPLE_ENTRIES // per_sample)


def _sample_blocks(grid: LevelFunctionStack, samples: int, channels: int):
    """Slices of consecutive samples, one per stack batch on the grid of
    ``grid`` whose samples each hold ``channels`` input values per cube."""
    w = grid.window
    step = _samples_per_block(math.prod(grid.grid_shape) * (w.j_max - w.j_min + 1 + channels))
    return [slice(s, s + step) for s in range(0, samples, step)]


def _present_levels(window: LatticeWindow, rows: np.ndarray):
    """(j, slice of the level's rows, index shape) for every level where some
    sample of ``rows`` (S, C, ...) is nonzero."""
    for j in range(window.j_min, window.j_max + 1):
        sl, shape = window.level_rows(j)
        if rows[:, sl].any():
            yield j, sl, shape


def _check_dimensions(rows: np.ndarray, m: int) -> None:
    """Refuse fields given as rows (S, C, m') whose m' is not the weight's m."""
    if rows.shape[2] != m:
        raise PreconditionError(f"coefficient and weight dimensions differ: "
                                f"m = {rows.shape[2]} and m = {m}")


def _cube_levels(window: LatticeWindow, mags: np.ndarray, sp: SpaceParams) -> dict:
    """The levels 2^{js} |Q|^{-1/2} mags_Q (S, *index_shape) of cube magnitudes
    ``mags`` (S, C) in ``all_cubes`` order, keyed by the nonzero levels."""
    return {j: _scaled(mags[:, sl].reshape((len(mags),) + shape)
                       * math.ldexp(1.0, j * window.n) ** 0.5, 2.0, j * sp.s, sp, "s", j)
            for j, sl, shape in _present_levels(window, mags)}


@np.errstate(over="ignore")  # overflows are refused by name
def _factored_norms(window: LatticeWindow, mags: np.ndarray, measure: np.ndarray,
                    sp: SpaceParams) -> list[NormResult]:
    """Norms of S samples whose level j is 2^{js} |Q|^{-1/2} mags_Q on each
    level-j cube Q (mags (S, C) in ``all_cubes`` order), against the measure
    mu of the finest window cubes, ``measure`` (1, *index_shape).  B: the
    energies |f_j|^p mu(Q), mu summed up the cube tree.  F: the levels
    rasterized on the finest cubes alone, in sample blocks."""
    S, levels = len(mags), _cube_levels(window, mags, sp)
    with _naming_s(sp):
        if sp.family == BESOV:
            mu = {window.j_max: measure}
            for j in range(window.j_max - 1, min(levels, default=window.j_max) - 1, -1):
                mu[j] = _block_sums(mu[j + 1], window.index_bounds(j),
                                    [a for a, _ in window.index_bounds(j + 1)], 1)
            return _besov_norms(window, {j: f ** sp.p * mu[j] for j, f in levels.items()}, sp, S)
        # a grid whose cells are the finest window cubes: the part of the box they tile
        top = window.j_max
        hull = [[int(math.ldexp(k, -top)) for k in ab] for ab in zip(*window.index_bounds(top))]
        grid, out = LevelFunctionStack(LatticeWindow(window.n, window.j_min, top, *hull), top), []
        for blk in _sample_blocks(grid, S, 1):
            stack = LevelFunctionStack(grid.window, grid.grid_level, {}, len(mags[blk]))
            stack.levels = {j: _level_cells(grid, j, f[blk]) for j, f in levels.items()}
            out += _sup(window, stack.samples, _triebel_levels(stack, sp, window, measure), sp)
        return out


def _weighted_stacks(window: LatticeWindow, rows: np.ndarray, W: MatrixWeight,
                     sp: SpaceParams, grid_extra: int):
    """Batched :func:`weighted_stack` of the fields given as rows (S, C, m) in
    ``all_cubes`` order, one batch per sample block; W^{1/p} is evaluated
    once on the grid ``grid_extra`` levels below the window's finest."""
    _check_dimensions(rows, W.m)
    grid = LevelFunctionStack(window, window.j_max + grid_extra)
    w_root = W.power(grid.midpoints(), 1.0 / sp.p)
    for blk in _sample_blocks(grid, len(rows), W.m):
        part = rows[blk]
        stack = LevelFunctionStack(window, grid.grid_level, {}, len(part))
        for j, sl, index_shape in _present_levels(window, part):
            stack.levels[j] = _weighted_level(stack, j, part[:, sl], index_shape, w_root, sp)
        yield stack


def _weighted_level(stack: LevelFunctionStack, j: int, vals: np.ndarray, index_shape,
                    w_root: np.ndarray, sp: SpaceParams) -> np.ndarray:
    """Level j of a batch of weighted stacks from the level's rows (S, C_j, m);
    its temporaries are freed on return, not held by a suspended generator."""
    S, _, m = vals.shape
    level = np.swapaxes(vals, 1, 2).reshape((S, m) + index_shape)
    scale = math.ldexp(1.0, j * stack.window.n) ** 0.5  # |Q|^{-1/2}
    cells = _level_cells(stack, j, level * scale)
    img = np.einsum("nab,snb->sna", w_root, np.swapaxes(cells.reshape(S, m, -1), 1, 2))
    return _scaled(np.linalg.norm(img, axis=-1).reshape((S,) + stack.grid_shape),
                   2.0, j * sp.s, sp, "s", j)


def _averaged_magnitudes(window: LatticeWindow, rows: np.ndarray, fam: ReducingFamily,
                         sp: SpaceParams) -> np.ndarray:
    """The cube magnitudes |A_Q t_Q| (S, C) of the fields given as rows
    (S, C, m); the operators of the cubes present in any field are gathered once."""
    if fam.p != sp.p:
        raise PreconditionError(f"reducing operators of order p = {fam.p} "
                                f"cannot serve a space with p = {sp.p}")
    _check_dimensions(rows, fam.ops.shape[-1])
    cols = np.flatnonzero(np.any(rows != 0, axis=(0, 2)))
    ops = fam.operators_at(CubeArrays.of_window(window).take(cols))
    mags = np.zeros(rows.shape[:2])
    mags[:, cols] = np.linalg.norm((ops @ rows[:, cols, :, None])[..., 0], axis=-1)
    return mags


def weighted_stack(t: CoeffField, W: MatrixWeight, sp: SpaceParams) -> LevelFunctionStack:
    """Levels g_j = 2^{js} |W^{1/p} sum_Q t_Q |Q|^{-1/2} 1_Q| on the grid two
    levels below the window's finest."""
    return next(_weighted_stacks(t.window, t.rows()[None], W, sp, 2)).sample(0)


def averaged_stack(t: CoeffField, fam: ReducingFamily, sp: SpaceParams) -> LevelFunctionStack:
    """Levels g_j = 2^{js} sum_Q |A_Q t_Q| |Q|^{-1/2} 1_Q on the window's finest grid."""
    stack = LevelFunctionStack(t.window, t.window.j_max)
    mags = _averaged_magnitudes(t.window, t.rows()[None], fam, sp)
    stack.levels = {j: _level_cells(stack, j, f[0])
                    for j, f in _cube_levels(t.window, mags, sp).items()}
    return stack


def seq_norms_weighted(window: LatticeWindow, rows: np.ndarray, W: MatrixWeight,
                       sp: SpaceParams, grid_extra: int = 2) -> list[NormResult]:
    """:func:`seq_norm_weighted` of every field given as rows (S, C, m) in
    ``window.all_cubes()`` order.  For m = 1, |f_j(x)| = 2^{js} |Q|^{-1/2}
    |t_Q| |W^{1/p}(x)| on Q, so the weight enters only through the measure
    vol * sum_{x in L} |W^{1/p}(x)|^p of each finest window cube L on the
    grid ``grid_extra`` levels below it; for m > 1 the norms are those of
    the stacks of :func:`weighted_stack`."""
    if W.m > 1:
        with _naming_s(sp):
            return [r for stack in _weighted_stacks(window, rows, W, sp, grid_extra)
                    for r in la_norms(stack, sp, window)]
    _check_dimensions(rows, 1)
    grid = LevelFunctionStack(window, window.j_max + grid_extra)
    w_root = W.power(grid.midpoints(), 1.0 / sp.p)[:, 0, 0].reshape((1,) + grid.grid_shape)
    return _factored_norms(window, np.abs(rows[:, :, 0]),
                           _energies(grid, w_root, window.j_max, sp.p, window), sp)


def seq_norms_averaged(window: LatticeWindow, rows: np.ndarray, fam: ReducingFamily,
                       sp: SpaceParams) -> list[NormResult]:
    """:func:`seq_norm_averaged` of every field given as rows (S, C, m) in
    ``window.all_cubes()`` order: factored norms whose measure is the volume."""
    j = window.j_max
    volume = np.full((1,) + window.level_rows(j)[1], math.ldexp(1.0, -j * window.n))
    return _factored_norms(window, _averaged_magnitudes(window, rows, fam, sp), volume, sp)


def seq_norm_weighted(t: CoeffField, W: MatrixWeight, sp: SpaceParams,
                      grid_extra: int = 2) -> NormResult:
    return seq_norms_weighted(t.window, t.rows()[None], W, sp, grid_extra)[0]


def seq_norm_averaged(t: CoeffField, fam: ReducingFamily, sp: SpaceParams) -> NormResult:
    return seq_norms_averaged(t.window, t.rows()[None], fam, sp)[0]


def equivalence_report(fields, W: MatrixWeight, fam: ReducingFamily, sp: SpaceParams) -> dict:
    """Ratio statistics of weighted vs averaged norms over an ensemble of
    fields on one window, evaluated as one batch."""
    fields = list(fields)
    if not fields:
        raise PreconditionError("ensemble contains no nonzero fields")
    window, m = fields[0].window, fields[0].m
    if any(t.window != window or t.m != m for t in fields):
        raise PreconditionError("ensemble fields must share one window and dimension")
    rows = np.stack([t.rows() for t in fields])
    a = np.array([r.value for r in seq_norms_weighted(window, rows, W, sp)])
    b = np.array([r.value for r in seq_norms_averaged(window, rows, fam, sp)])
    keep = (a != 0.0) & (b != 0.0)
    if not keep.any():
        raise PreconditionError("ensemble contains no nonzero fields")
    ratios = a[keep] / b[keep]
    return {
        "count": len(ratios),
        "skipped_zero": int(np.sum(~keep)),
        "min": float(np.min(ratios)),
        "max": float(np.max(ratios)),
        "spread": float(np.max(ratios) / np.min(ratios)),
    }


def subset_norm(t: CoeffField, selector, sp: SpaceParams, delta: float,
                grid_extra: int = 3) -> NormResult:
    """Space-family norm computed from sub-cube indicators.

    ``selector(Q) -> (lo, hi)`` gives an axis-aligned box inside Q; the stack
    is 2^{j(s + n/2)} sum_Q t_Q 1_{E_Q}.  Each rasterized E_Q must keep at
    least the fraction delta of the cells of Q.
    """
    if sp.family == BESOV:
        raise PreconditionError("subset norms require the F family")
    if t.m != 1:
        raise PreconditionError("subset norms take scalar coefficient fields")
    win = t.window
    grid_level = win.j_max + grid_extra
    stack = LevelFunctionStack(win, grid_level, {})
    shape = stack.grid_shape
    h = math.ldexp(1.0, -grid_level)
    for q, v in t.items():
        if q.j not in stack.levels:
            stack.levels[q.j] = np.zeros(shape)
        lo, hi = selector(q)
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if np.any(lo < np.array(q.lower) - 1e-12) or np.any(hi > np.array(q.upper) + 1e-12):
            raise PreconditionError(f"selector box leaves the cube {q}")
        sl = []
        cube_cells = 1
        sub_cells = 1
        for axis in range(win.n):
            a0 = int(round((lo[axis] - win.lo[axis]) / h))
            a1 = int(round((hi[axis] - win.lo[axis]) / h))
            sl.append(slice(a0, a1))
            sub_cells *= max(a1 - a0, 0)
            cube_cells *= 1 << (grid_level - q.j)
        if sub_cells < delta * cube_cells - 1e-9:
            raise PreconditionError(
                f"selector keeps {sub_cells}/{cube_cells} cells of {q}, below delta={delta}")
        stack.levels[q.j][tuple(sl)] += float(np.abs(v[0]))
    for j, g in stack.levels.items():
        g *= 2.0 ** (j * (sp.s + win.n / 2.0))
    return la_norm(stack, sp, win)
