"""Sequence-space norms over finite lattice windows.

Coefficient fields assign a vector to each cube of a window; the mixed norm
takes, for every window cube P, the level-then-space (B family) or
space-then-level (F family) aggregate of the associated level functions over
the shadow of P, scaled by |P|^-tau, and returns the sup together with the
attaining cube.  Level functions are realized on a uniform fine grid aligned
with the lattice, so integrals of lattice-aligned data are exact sums;
varying weights are resolved by extra grid subdivision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import CubeArrays, DyadicCube, LatticeWindow, format_cube
from .errors import PreconditionError
from .params import BESOV, SpaceParams
from .weights import MatrixWeight, ReducingFamily


class CoeffField:
    """Finite map cube -> vector in C^m over a lattice window; absent cubes
    are zero.

    Each level is stored as one complex array of shape ``(m, *index_shape)``,
    allocated at the first write to that level; index ``k`` sits at
    ``k - lower(j)``, the starts of ``window.index_bounds(j)``.  A cube is
    present when its vector is nonzero, and absent entries hold +0.0.
    ``DyadicCube`` objects are built only by :meth:`items` and :meth:`cubes`;
    the array paths use :meth:`level`, :meth:`write` and :meth:`nonzero`.
    """

    def __init__(self, window: LatticeWindow, m: int, data: dict | None = None):
        self.window = window
        self.m = int(m)
        self._levels: dict[int, np.ndarray] = {}
        if data:
            for q, v in data.items():
                self.set(q, v)

    # -- array access --------------------------------------------------------

    def lower(self, j: int) -> tuple[int, ...]:
        """Index of the first window cube of level j along each axis."""
        return tuple(a for a, _ in self.window.index_bounds(j))

    def level(self, j: int) -> np.ndarray | None:
        """The ``(m, *index_shape)`` array of level j (None if never written);
        callers must not write to it."""
        return self._levels.get(j)

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
        block = np.asarray(block, dtype=complex)
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
        if j not in self._levels:
            if not keep.any():
                return
            shape = tuple(b - a for a, b in self.window.index_bounds(j))
            self._levels[j] = np.zeros((self.m,) + shape, dtype=complex)
        dst = self._levels[j][(slice(None),) + ov[1]]
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
        ``window.all_cubes()`` order, level by level through :meth:`write`;
        the field is unchanged when a value is refused."""
        fresh = CoeffField(self.window, self.m)
        values = np.asarray(values)
        offset = 0
        for j in range(self.window.j_min, self.window.j_max + 1):
            shape = tuple(b - a for a, b in self.window.index_bounds(j))
            rows = slice(offset, offset + math.prod(shape))
            fresh.write(j, self.lower(j), values[rows].T.reshape((self.m,) + shape))
            offset = rows.stop
        self._levels = fresh._levels

    def nonzero(self) -> tuple[CubeArrays, np.ndarray]:
        """The present cubes in ``(j, k)`` order and their vectors, shape (N, m)."""
        n, m = self.window.n, self.m
        levels, index, values = [], [], []
        for j in sorted(self._levels):
            arr = self._levels[j]
            idx = np.nonzero(np.any(arr != 0, axis=0))
            levels.append(np.full(len(idx[0]), j, dtype=np.int64))
            index.append(np.stack(idx, axis=1) + np.array(self.lower(j), dtype=np.int64))
            values.append(arr[(slice(None),) + idx].T)
        if not levels:
            return (CubeArrays(np.zeros(0, dtype=np.int64), np.zeros((0, n), dtype=np.int64)),
                    np.zeros((0, m), dtype=complex))
        return (CubeArrays(np.concatenate(levels), np.concatenate(index)),
                np.concatenate(values))

    # -- cube access ---------------------------------------------------------

    def set(self, q: DyadicCube, value) -> None:
        if not self.window.contains(q):
            raise PreconditionError(f"cube {q} outside the window")
        v = np.asarray(value, dtype=complex).reshape((self.m,) + (1,) * q.n)
        self.write(q.j, q.k, v)

    def get(self, q: DyadicCube) -> np.ndarray:
        arr = self._levels.get(q.j)
        if arr is None or not self.window.contains(q):
            return np.zeros(self.m, dtype=complex)
        idx = tuple(k - a for k, a in zip(q.k, self.lower(q.j)))
        return arr[(slice(None),) + idx].copy()

    def items(self) -> list[tuple[DyadicCube, np.ndarray]]:
        cubes, values = self.nonzero()
        return list(zip(_cube_list(cubes), values))

    def cubes(self) -> list[DyadicCube]:
        return _cube_list(self.nonzero()[0])

    def __len__(self):
        return sum(int(np.count_nonzero(np.any(a != 0, axis=0))) for a in self._levels.values())

    def levels(self):
        return [j for j in sorted(self._levels) if np.any(self._levels[j])]

    def copy(self) -> "CoeffField":
        out = CoeffField(self.window, self.m)
        out._levels = {j: a.copy() for j, a in self._levels.items()}
        return out

    def scaled(self, c: complex) -> "CoeffField":
        out = CoeffField(self.window, self.m)
        for j, a in self._levels.items():
            out.write(j, self.lower(j), c * a)
        return out

    def plus(self, other: "CoeffField") -> "CoeffField":
        out = self.copy()
        for j, a in other._levels.items():
            start = other.lower(j)
            total = a.copy()
            ov = out.overlap(j, start, a.shape[1:])
            if ov is not None and j in out._levels:
                mine = out._levels[j][(slice(None),) + ov[1]]
                theirs = total[(slice(None),) + ov[0]]
                theirs[...] = np.where(np.any(theirs != 0, axis=0), mine + theirs, mine)
            out.write(j, start, total)
        return out

    @classmethod
    def random(cls, window: LatticeWindow, m: int, rng: np.random.Generator,
               density: float = 0.3, complex_values: bool = False) -> "CoeffField":
        """Each window cube in ``all_cubes`` order is drawn with probability
        density: one ``rng.random()`` per cube, then the normal vector(s)."""
        out = cls(window, m)
        vals = np.zeros((window.count(), m), dtype=complex)
        for i in range(len(vals)):
            if rng.random() < density:
                v = rng.standard_normal(m)
                if complex_values:
                    v = v + 1j * rng.standard_normal(m)
                vals[i] = v
        out.write_all(vals)
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
        row[:, 2 + n::2] = values.imag
        line = "%d:" + ",".join(["%d"] * n) + ", %r" * (2 * m) + "\n"
        return (line * N) % tuple(row.ravel().tolist())

    @classmethod
    def from_csv(cls, text: str, window: LatticeWindow, m: int) -> "CoeffField":
        """Parse :meth:`to_csv` text.  Refuses, naming the first offending
        line or cube in file order: a malformed line, a second line for one
        cube, a cube outside the window, a non-finite value."""
        n = window.n
        width = n + 2 * m
        heads, nums = [], []
        malformed = None
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            # the cube literal "j:k1,...,kn" holds the first n comma fields
            parts = line.split(",")
            level, _, k1 = parts[0].partition(":")
            try:
                head = [int(level), int(k1), *map(int, parts[1:n])]
                vals = list(map(float, parts[n:]))
            except ValueError:
                vals = []
            if len(vals) != 2 * m:
                malformed = PreconditionError(f"bad coefficient line {line!r}")
                break
            heads.append(head)
            nums.append(vals)
        out = cls(window, m)
        if heads:
            try:
                head = np.array(heads, dtype=np.int64)
            except OverflowError as exc:
                raise PreconditionError("cube index in coefficient file exceeds 64 bits") from exc
            # complex(re, im) exactly, so a signed zero survives the round trip
            values = np.array(nums).view(complex).reshape(len(heads), m)
            out._scatter(head[:, 0], head[:, 1:], values)
        if malformed is not None:
            raise malformed
        return out

    def _scatter(self, levels: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
        """Fill an empty field from N parsed lines (levels (N,), index (N, n),
        values (N, m)), refusing at the first line that repeats a cube, lies
        outside the window or holds a non-finite value."""
        win = self.window
        pos = win.positions(CubeArrays(levels, index))
        outside = pos < 0
        repeated = ~outside
        repeated[np.unique(pos, return_index=True)[1]] = False
        bad = repeated | outside | ~np.all(np.isfinite(values), axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            q = DyadicCube(win.n, int(levels[i]), tuple(index[i].tolist()))
            if repeated[i]:
                raise PreconditionError(f"duplicate coefficient line for cube {q}")
            if outside[i]:
                raise PreconditionError(f"cube {q} outside the window")
            raise PreconditionError(f"non-finite coefficient for cube {q}")
        rows = np.zeros((win.count(), self.m), dtype=complex)
        rows[pos] = values
        self.write_all(rows)


def _cube_list(cubes: CubeArrays) -> list[DyadicCube]:
    n = cubes.n
    return [DyadicCube(n, j, tuple(k)) for j, k in zip(cubes.levels.tolist(), cubes.index.tolist())]


@dataclass
class LevelFunctionStack:
    """Per-level real scalar functions sampled on one uniform fine grid.

    The grid covers the window box at resolution 2**-grid_level with cell
    midpoint semantics; ``levels[j]`` has the full grid shape.
    """

    window: LatticeWindow
    grid_level: int
    levels: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.grid_level < self.window.j_max:
            raise PreconditionError("grid must be at least as fine as the finest level")

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return tuple((b - a) << self.grid_level for a, b in zip(self.window.lo, self.window.hi))

    @property
    def cell_volume(self) -> float:
        return math.ldexp(1.0, -self.grid_level * self.window.n)

    def midpoints_axis(self, axis: int) -> np.ndarray:
        a, b = self.window.lo[axis], self.window.hi[axis]
        cells = (b - a) << self.grid_level
        return a + (np.arange(cells) + 0.5) * math.ldexp(1.0, -self.grid_level)

    def midpoints(self) -> np.ndarray:
        axes = [self.midpoints_axis(i) for i in range(self.window.n)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)


@dataclass(frozen=True)
class NormResult:
    value: float
    attaining: DyadicCube | None
    boundary_flag: bool
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "attaining_P": format_cube(self.attaining) if self.attaining else None,
            "boundary_flag": self.boundary_flag,
            **self.meta,
        }


def la_norm(stack: LevelFunctionStack, sp: SpaceParams, window: LatticeWindow | None = None) -> NormResult:
    """Sup over window cubes P of |P|^-tau times the mixed aggregate over the
    shadow of P.  The boundary flag marks attainment at the coarsest level,
    where the finite window may truncate the true sup."""
    window = window or stack.window
    if window.count() == 0:
        raise PreconditionError("empty window")
    if not math.isfinite(sp.p):
        raise PreconditionError("p must be finite")
    levels = sorted(stack.levels)
    if not levels:
        return NormResult(0.0, None, False)
    for j in levels:
        if not np.all(np.isfinite(stack.levels[j])):
            raise PreconditionError(f"level {j} of the stack holds non-finite values")
    n = window.n
    vol = stack.cell_volume
    best = -1.0
    best_cube = None
    q_inf = sp.q_is_inf

    # precompute per-level |f_j|^p cell arrays (B family) or running
    # suffix aggregates of |f_j|^q (F family)
    arrs = {j: np.abs(stack.levels[j]) for j in levels}

    for j_p in range(window.j_min, window.j_max + 1):
        contributing = [j for j in levels if j >= j_p]
        if not contributing:
            continue
        r = stack.grid_level - j_p

        # aggregate over blocks of size 2^r per axis
        def block_reduce(cells: np.ndarray) -> np.ndarray:
            out = cells
            for axis in range(n):
                shape = out.shape
                nb = shape[axis] >> r
                new_shape = shape[:axis] + (nb, 1 << r) + shape[axis + 1:]
                out = out.reshape(new_shape).sum(axis=axis + 1)
            return out

        if sp.family == BESOV:
            # [sum_j ||f_j||_{L^p(P)}^q]^{1/q}
            acc = None
            for j in contributing:
                lp_p = block_reduce(arrs[j] ** sp.p) * vol  # ||f_j||_p^p per block
                term = lp_p ** (1.0 / sp.p)
                if q_inf:
                    acc = term if acc is None else np.maximum(acc, term)
                else:
                    t = term ** sp.q
                    acc = t if acc is None else acc + t
            vals = acc if q_inf else acc ** (1.0 / sp.q)
        else:
            # || (sum_j |f_j|^q)^{1/q} ||_{L^p(P)}
            if q_inf:
                pointwise = arrs[contributing[0]].copy()
                for j in contributing[1:]:
                    np.maximum(pointwise, arrs[j], out=pointwise)
            else:
                pointwise = sum(arrs[j] ** sp.q for j in contributing) ** (1.0 / sp.q)
            vals = (block_reduce(pointwise ** sp.p) * vol) ** (1.0 / sp.p)

        scale = math.ldexp(1.0, j_p * n) ** sp.tau  # |P|^{-tau} = 2^{j n tau}
        vals = vals * scale
        flat = int(np.argmax(vals))
        v = float(vals.flat[flat])
        if v > best:
            best = v
            idx = np.unravel_index(flat, vals.shape)
            bounds = window.index_bounds(j_p)
            best_cube = DyadicCube(n, j_p, tuple(b[0] + i for b, i in zip(bounds, idx)))
    return NormResult(max(best, 0.0), best_cube,
                      best_cube is not None and best_cube.j == window.j_min)


def _level_cells(window: LatticeWindow, grid_level: int, j: int,
                 values: np.ndarray) -> np.ndarray:
    """Block upsampling of a level array ``(..., *index_shape)`` to the fine
    grid: every cell of the level-j window cube ``lower + i`` holds
    ``values[..., i]``; cells outside all level-j window cubes stay zero."""
    n = window.n
    r = grid_level - j
    lead = values.shape[:values.ndim - n]
    grid = tuple((b - a) << grid_level for a, b in zip(window.lo, window.hi))
    out = np.zeros(lead + grid, dtype=values.dtype)
    region, spread, blocks, cells = [], [], [], []
    for (ka, kb), a in zip(window.index_bounds(j), window.lo):
        start = (ka << r) - (a << grid_level)
        region.append(slice(start, start + ((kb - ka) << r)))
        spread += [kb - ka, 1]
        blocks += [kb - ka, 1 << r]
        cells.append((kb - ka) << r)
    up = np.broadcast_to(values.reshape(lead + tuple(spread)), lead + tuple(blocks))
    out[(Ellipsis,) + tuple(region)] = up.reshape(lead + tuple(cells))
    return out


def weighted_stack(t: CoeffField, W: MatrixWeight, sp: SpaceParams,
                   grid_extra: int = 2) -> LevelFunctionStack:
    """Levels g_j = 2^{js} |W^{1/p} sum_Q t_Q |Q|^{-1/2} 1_Q| on the fine grid."""
    if t.m != W.m:
        raise PreconditionError("coefficient and weight dimensions differ")
    win = t.window
    grid_level = win.j_max + grid_extra
    stack = LevelFunctionStack(win, grid_level, {})
    shape = stack.grid_shape
    pts = stack.midpoints()
    w_root = W.power(pts, 1.0 / sp.p)
    for j in t.levels():
        scale = math.ldexp(1.0, j * win.n) ** 0.5  # |Q|^{-1/2}
        cells = _level_cells(win, grid_level, j, t.level(j) * scale)
        flat = cells.reshape(t.m, -1).T  # (cells, m)
        img = np.einsum("nab,nb->na", w_root, flat)
        g = np.linalg.norm(img, axis=-1).reshape(shape)
        stack.levels[j] = (2.0 ** (j * sp.s)) * g
    return stack


def averaged_stack(t: CoeffField, fam: ReducingFamily, sp: SpaceParams,
                   grid_extra: int = 0) -> LevelFunctionStack:
    """Levels g_j = 2^{js} sum_Q |A_Q t_Q| |Q|^{-1/2} 1_Q on the fine grid."""
    win = t.window
    grid_level = win.j_max + grid_extra
    stack = LevelFunctionStack(win, grid_level, {})
    cubes, values = t.nonzero()
    mags = np.linalg.norm((fam.operators_at(cubes) @ values[:, :, None])[:, :, 0], axis=-1)
    for j in t.levels():
        level = np.zeros(t.level(j).shape[1:])
        # nonzero() lists a level's cubes in the C order of its array
        level[np.any(t.level(j) != 0, axis=0)] = mags[cubes.levels == j]
        scale = math.ldexp(1.0, j * win.n) ** 0.5
        stack.levels[j] = (2.0 ** (j * sp.s)) * _level_cells(win, grid_level, j, level * scale)
    return stack


def seq_norm_weighted(t: CoeffField, W: MatrixWeight, sp: SpaceParams,
                      grid_extra: int = 2) -> NormResult:
    return la_norm(weighted_stack(t, W, sp, grid_extra), sp, t.window)


def seq_norm_averaged(t: CoeffField, fam: ReducingFamily, sp: SpaceParams) -> NormResult:
    return la_norm(averaged_stack(t, fam, sp), sp, t.window)


def equivalence_report(fields, W: MatrixWeight, fam: ReducingFamily,
                       sp: SpaceParams, grid_extra: int = 2) -> dict:
    """Ratio statistics of weighted vs averaged norms over an ensemble."""
    ratios = []
    skipped = 0
    for t in fields:
        a = seq_norm_weighted(t, W, sp, grid_extra).value
        b = seq_norm_averaged(t, fam, sp).value
        if a == 0.0 or b == 0.0:
            skipped += 1
            continue
        ratios.append(a / b)
    if not ratios:
        raise PreconditionError("ensemble contains no nonzero fields")
    ratios = np.array(ratios)
    return {
        "count": len(ratios),
        "skipped_zero": skipped,
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
    for j in t.levels():
        g = np.zeros(shape)
        for q, v in t.items():
            if q.j != j:
                continue
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
                cube_cells *= 1 << (grid_level - j)
            if sub_cells < delta * cube_cells - 1e-9:
                raise PreconditionError(
                    f"selector keeps {sub_cells}/{cube_cells} cells of {q}, below delta={delta}")
            g[tuple(sl)] += float(np.abs(v[0]))
        stack.levels[j] = 2.0 ** (j * (sp.s + win.n / 2.0)) * g
    return la_norm(stack, sp, win)
