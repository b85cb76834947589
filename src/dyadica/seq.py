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

from .dyadic import DyadicCube, LatticeWindow, format_cube, parse_cube
from .errors import PreconditionError
from .params import BESOV, SpaceParams
from .weights import MatrixWeight, ReducingFamily


class CoeffField:
    """Finite map cube -> vector in C^m; absent cubes are zero."""

    def __init__(self, window: LatticeWindow, m: int, data: dict | None = None):
        self.window = window
        self.m = int(m)
        self._data: dict[DyadicCube, np.ndarray] = {}
        if data:
            for q, v in data.items():
                self.set(q, v)

    def set(self, q: DyadicCube, value) -> None:
        if not self.window.contains(q):
            raise PreconditionError(f"cube {q} outside the window")
        v = np.asarray(value, dtype=complex).reshape(self.m)
        if np.all(v == 0):
            self._data.pop(q, None)
        else:
            self._data[q] = v

    def get(self, q: DyadicCube) -> np.ndarray:
        return self._data.get(q, np.zeros(self.m, dtype=complex))

    def items(self):
        return self._data.items()

    def cubes(self):
        return self._data.keys()

    def __len__(self):
        return len(self._data)

    def levels(self):
        return sorted({q.j for q in self._data})

    def copy(self) -> "CoeffField":
        return CoeffField(self.window, self.m, dict(self._data))

    def scaled(self, c: complex) -> "CoeffField":
        out = CoeffField(self.window, self.m)
        for q, v in self._data.items():
            out.set(q, c * v)
        return out

    def plus(self, other: "CoeffField") -> "CoeffField":
        out = self.copy()
        for q, v in other.items():
            out.set(q, out.get(q) + v)
        return out

    @classmethod
    def random(cls, window: LatticeWindow, m: int, rng: np.random.Generator,
               density: float = 0.3, complex_values: bool = False) -> "CoeffField":
        out = cls(window, m)
        for q in window.all_cubes():
            if rng.random() < density:
                v = rng.standard_normal(m)
                if complex_values:
                    v = v + 1j * rng.standard_normal(m)
                out.set(q, v)
        return out

    # -- CSV form: "j:k1,...,kn, re1, im1, ..., re_m, im_m" ------------------

    def to_csv(self) -> str:
        lines = []
        for q in sorted(self._data, key=lambda c: (c.j, c.k)):
            v = self._data[q]
            parts = [format_cube(q)]
            for z in v:
                parts.append(repr(float(z.real)))
                parts.append(repr(float(z.imag)))
            lines.append(", ".join(parts))
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_csv(cls, text: str, window: LatticeWindow, m: int) -> "CoeffField":
        out = cls(window, m)
        seen = set()
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            # the cube literal itself contains commas: first field is "j:k1"
            # followed by n-1 more index fields, then 2m floats
            n = window.n
            cube_text = parts[0] + ("," + ",".join(parts[1:n]) if n > 1 else "")
            nums = parts[n:]
            if len(nums) != 2 * m:
                raise PreconditionError(f"bad coefficient line {line!r}")
            vals = np.array([float(nums[2 * i]) + 1j * float(nums[2 * i + 1])
                             for i in range(m)])
            cube = parse_cube(cube_text, n)
            if cube in seen:
                raise PreconditionError(f"duplicate coefficient line for cube {cube}")
            seen.add(cube)
            out.set(cube, vals)
        return out


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


def _cube_slices(window: LatticeWindow, grid_level: int, q: DyadicCube) -> tuple[slice, ...]:
    r = grid_level - q.j
    out = []
    for ki, a in zip(q.k, window.lo):
        start = (ki << r) - (a << grid_level)
        out.append(slice(start, start + (1 << r)))
    return tuple(out)


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


def _level_vector_cells(t: CoeffField, stack_shape, grid_level, j) -> np.ndarray:
    """(m, cells...) array of sum_Q t_Q * |Q|^{-1/2} 1_Q at one level."""
    win = t.window
    out = np.zeros((t.m,) + stack_shape, dtype=complex)
    scale = math.ldexp(1.0, j * win.n) ** 0.5  # |Q|^{-1/2}
    for q, v in t.items():
        if q.j != j:
            continue
        sl = (slice(None),) + _cube_slices(win, grid_level, q)
        out[sl] = (v * scale)[(slice(None),) + (None,) * win.n]
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
        cells = _level_vector_cells(t, shape, grid_level, j)
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
    shape = stack.grid_shape
    for j in t.levels():
        g = np.zeros(shape)
        scale = math.ldexp(1.0, j * win.n) ** 0.5
        for q, v in t.items():
            if q.j != j:
                continue
            mag = float(np.linalg.norm(fam[q] @ v))
            g[_cube_slices(win, grid_level, q)] = mag * scale
        stack.levels[j] = (2.0 ** (j * sp.s)) * g
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
