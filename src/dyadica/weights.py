"""Matrix weights, averaging characteristics, and reducing operators.

A weight is a map from points to Hermitian nonnegative matrices.  The module
estimates the averaging characteristic on a finite window, builds per-cube
reducing operators (exact square-root averages for order 2; otherwise the
minimum-volume enclosing ellipsoid of the sampled average-norm ball, from a
batched interior-point solve that stops on its optimality certificate), and
fits the doubling growth exponent of the defining averages.  All of them read
weight values at quadrature nodes through a :class:`WeightTable`, which
evaluates, deduplicates, factors and refuses them in one place; one table can
serve every consumer of a command.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .dyadic import CubeArrays, DyadicCube, LatticeWindow, grid_cells, tensor_points
from .errors import PreconditionError, SingularWeightError
from .params import check_order, json_field

EIG_CLAMP_REL = 1e-14
# nodes evaluated per block, and (x, y) pairs or (value, direction) pairs of
# distinct weight values per group: bounds the temporaries at a few MB
# whatever the quadrature and window size
PAIR_BLOCK = 1 << 15
MVEE_TOL = 1e-7
# step cap of one ellipsoid fit; the benchmark's fits take at most about 20
MVEE_STEPS = 100
# fresh unit directions of the direction-ratio certificate
JOHN_DIRECTIONS = 256
# 3 x 3 Gram matrices whose closed-form r has 1 + r below this (top two
# eigenvalues within about 2% of p) take their top eigenvalue from eigvalsh
CUBIC_GAP = 1e-4


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor midpoint rule: points_per_axis * 2**depth cells per axis."""

    points_per_axis: int = 4
    depth: int = 2

    def __post_init__(self):
        if self.points_per_axis < 1 or self.depth < 0:
            raise PreconditionError("invalid quadrature spec")

    @property
    def cells_per_axis(self) -> int:
        return self.points_per_axis * (1 << self.depth)

    def nodes(self, lo, hi) -> tuple[np.ndarray, float]:
        """Midpoint nodes of the box [lo, hi) and the per-node volume."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        n = len(lo)
        c = self.cells_per_axis
        pts = tensor_points([lo[i] + (hi[i] - lo[i]) * (np.arange(c) + 0.5) / c
                             for i in range(n)])
        vol = float(np.prod((hi - lo) / c))
        return pts, vol

    @classmethod
    def parse(cls, text: str) -> "QuadratureSpec":
        try:
            pts, depth = text.split(":")
            return cls(int(pts), int(depth))
        except ValueError as exc:
            raise PreconditionError(f"bad quadrature spec {text!r}") from exc


class MatrixWeight:
    """x -> Hermitian nonnegative m x m matrix, with power evaluation."""

    def __init__(self, m: int, n: int, eval_fn, kind: str = "custom"):
        self.m = int(m)
        self.n = int(n)
        self._eval = eval_fn
        self.kind = kind

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, mat, n: int) -> "MatrixWeight":
        """The same matrix at every point; a real matrix stays real."""
        mat = np.atleast_2d(np.asarray(mat, dtype=complex if np.iscomplexobj(mat) else float))
        _refuse_non_finite(mat, "constant weight matrix")
        m = mat.shape[0]

        def f(x):
            x = np.atleast_2d(x)
            return np.broadcast_to(mat, (x.shape[0], m, m)).copy()

        return cls(m, n, f, "constant")

    @classmethod
    def identity(cls, m: int, n: int) -> "MatrixWeight":
        return cls.constant(np.eye(m), n)

    @classmethod
    def diag_power(cls, coeffs, exponents, n: int, floor: float = 0.0) -> "MatrixWeight":
        """Diagonal weight with entries a_i * max(|x|, floor)**alpha_i."""
        a = np.asarray(coeffs, dtype=float)
        alpha = np.asarray(exponents, dtype=float)
        if a.shape != alpha.shape:
            raise PreconditionError("coefficient and exponent lists differ in length")
        for name, vals in (("coefficient", a), ("exponent", alpha), ("floor", np.array([floor]))):
            _refuse_non_finite(vals, f"diag-power weight {name}")
        m = len(a)

        def f(x):
            x = np.atleast_2d(x)
            r = np.linalg.norm(x, axis=-1)
            if floor > 0:
                r = np.maximum(r, floor)
            out = np.zeros((x.shape[0], m, m))
            for i in range(m):
                out[:, i, i] = a[i] * r ** alpha[i]
            return out

        return cls(m, n, f, "diag-power")

    @classmethod
    def grid(cls, lo, hi, level: int, values: np.ndarray) -> "MatrixWeight":
        """Piecewise-constant weight on the finest cells of a dyadic grid.

        ``values`` has shape (cells_1, ..., cells_n, m, m) covering the box
        [lo, hi) at resolution 2**-level, row-major; real values stay real.
        Evaluating at a point outside the box is refused.
        """
        try:
            lo_t, hi_t = tuple(_whole_list(lo)), tuple(_whole_list(hi))
            level = _whole(level)
        except ValueError as exc:
            raise PreconditionError(f"grid weight corners and level must be whole: {exc}") from exc
        n = len(lo_t)
        if len(hi_t) != n:
            raise PreconditionError(f"grid weight corners {lo_t} and {hi_t} differ in length")
        values = np.asarray(values)
        values = values.astype(complex if np.iscomplexobj(values) else float)
        m = values.shape[-1]
        cells = list(grid_cells(lo_t, hi_t, level, "grid weight", "box")[1])
        if tuple(values.shape[:-2]) != tuple(cells):
            raise PreconditionError(f"grid values shape {values.shape[:-2]} != cells {cells}")
        _refuse_non_finite(values, "grid weight value")

        scale = math.ldexp(1.0, level)

        def f(x):
            x = np.atleast_2d(x)
            idx = np.floor((x - lo_t) * scale).astype(int)
            outside = np.any((idx < 0) | (idx >= cells), axis=1)
            if np.any(outside):
                raise PreconditionError(
                    f"point {x[int(np.argmax(outside))].tolist()} lies outside the grid "
                    f"weight's box [{lo_t}, {hi_t})")
            return values[tuple(idx.T)]

        return cls(m, n, f, "grid")

    # -- serialization ------------------------------------------------------

    @classmethod
    def from_dict(cls, d: dict, base_dir: str | None = None) -> "MatrixWeight":
        """Weight from its JSON form; a relative ``values_file`` is resolved
        against ``base_dir`` (the directory of the weight file).  ``n``,
        ``level``, ``lo`` and ``hi`` must be whole numbers; an ``n`` below 1,
        an ``m`` that disagrees with the values, or a grid's ``n`` that
        disagrees with ``lo``, is refused."""
        kind = d.get("kind")
        numbers = functools.partial(json_field, d, convert=_numbers)
        whole = functools.partial(json_field, d, convert=_whole, expected="a whole number")
        n = whole("n")
        if n < 1:
            raise PreconditionError(f"key 'n' holds {n}, but a weight's points need n >= 1")
        if kind == "constant":
            W = cls.constant(numbers("matrix"), n)
        elif kind == "diag-power":
            W = cls.diag_power(numbers("a"), numbers("alpha"), n,
                               json_field(d, "floor") if "floor" in d else 0.0)
        elif kind == "grid":
            corners = functools.partial(json_field, d, convert=_whole_list,
                                        expected="a list of whole numbers")
            lo, hi, level = corners("lo"), corners("hi"), whole("level")
            if n != len(lo):
                raise PreconditionError(f"key 'n' holds {n}, but key 'lo' has {len(lo)} entries")
            path = d.get("values_file")
            if path is None:
                raise PreconditionError("grid weight needs values_file")
            W = cls.grid(lo, hi, level, np.load(os.path.join(base_dir or "", path)))
        else:
            raise PreconditionError(f"unknown weight kind {kind!r}")
        if "m" in d and whole("m") != W.m:
            raise PreconditionError(
                f"key 'm' holds {d['m']!r}, but the weight's values are {W.m} x {W.m}")
        return W

    # -- evaluation ---------------------------------------------------------

    def _points(self, x) -> np.ndarray:
        """x as points (N, n); refuses points of another dimension than n."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[-1] != self.n:
            raise PreconditionError(f"the weight is defined on R^{self.n}, but it is "
                                    f"evaluated at points of R^{x.shape[-1]}")
        return x

    def __call__(self, x) -> np.ndarray:
        """W at the points x, shape (N, m, m); refuses points of another
        dimension than n, and a non-finite value, naming its point."""
        x = self._points(x)
        W = self._eval(x)
        bad = ~np.isfinite(W).reshape(len(W), -1).all(axis=1)
        if bad.any():
            raise PreconditionError(
                f"weight is not finite at the point {x[int(np.argmax(bad))].tolist()}")
        return W

    def power(self, x, a: float) -> np.ndarray:
        """W(x)**a with the small-eigenvalue clamp, from a :class:`WeightTable` of x."""
        table = WeightTable(self)
        (ids,) = table.sets(self._points(x)[None], inverted=a < 0)
        return table.power(a)[ids[0]]


def _numbers(v) -> np.ndarray:
    """``v`` as an array, refused unless it holds numbers."""
    a = np.asarray(v)
    if a.dtype.kind not in "biufc":
        raise ValueError(f"{v!r} holds no numbers")
    return a


def _whole(v) -> int:
    """``v`` as an int, refused unless it is a whole number (not a bool)."""
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise ValueError(f"{v!r} is not a whole number")
    return int(v)


def _whole_list(v) -> list[int]:
    """``v`` as a list of ints, refused unless it is a list of whole numbers."""
    if not isinstance(v, (list, tuple, np.ndarray)):
        raise ValueError(f"{v!r} is not a list")
    return [_whole(x) for x in v]


def _refuse_non_finite(values: np.ndarray, what: str) -> None:
    """Refuse NaN or inf in a weight's defining numbers, naming the first entry."""
    bad = ~np.isfinite(values)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise PreconditionError(f"{what} at entry {idx} is not finite: {values[idx]}")


# the refusals of a weight value, by fault bit 0, 1, ...
_REFUSED = ("weight is not Hermitian", "weight has a significantly negative eigenvalue",
            "weight is singular", "ellipsoid fit supports real symmetric weights, use p = 2 "
            "for complex ones; weight is complex")


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A lexsort of rows (N, k), column 0 first, which keeps equal rows in
    the order they come, and in it the mask of the first row of every run of
    equal rows.  Complex entries sort by their real, then imaginary parts."""
    order = np.lexsort(keys.T[::-1])
    srt = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = np.any(srt[1:] != srt[:-1], axis=1)
    return order, new


def _match(known: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ids of ``rows`` among the distinct rows ``known`` (Q, k), new ones
    numbered from Q in the order they first appear, and the indices of those
    first appearances."""
    Q, every = len(known), np.concatenate([known, rows])
    order, new = _runs(every)
    lead = order[new]           # the first row of each run: a known row, if any
    first = np.zeros(len(every), dtype=bool)
    first[lead[lead >= Q]] = True
    run = np.where(lead < Q, lead, Q - 1 + np.cumsum(first)[lead])
    ids = np.empty(len(every), dtype=np.int64)
    ids[order] = run[np.cumsum(new) - 1]
    return ids[Q:], np.flatnonzero(first) - Q


class WeightTable:
    """The weight values one command reads, each evaluated and factored once.

    ``nodes`` (Q, n): the distinct points looked up (:meth:`sets`; for m = 1,
    whose values cost less to evaluate than to look up, every point), W
    evaluated once at each; ``value`` (Q,): their value ids.  ``values``
    (V, m, m), one per distinct value of m > 1 and per node of m = 1, each
    with one ``eigh`` (``eig`` ascending, ``vecs``; a 1 x 1 value is its
    own eigenvalue) and its clamp ``floor``, EIG_CLAMP_REL times the trace.
    Bit i of ``faults`` (V,) marks refusal i of _REFUSED: an entry of V - V^*
    above 1e-12 times the largest eigenvalue modulus, an eigenvalue below
    -1e-12 times it, a clamped eigenvalue <= 0, an imaginary part above 1e-12.
    The table keeps these for the whole command: n + 1 numbers per node,
    about 2 m^2 + m + 3 per value and m^2 more per exponent taken.
    """

    def __init__(self, W: MatrixWeight):
        self.W, m = W, W.m
        self.nodes, self.value = np.zeros((0, W.n)), np.zeros(0, dtype=np.int64)
        self.values, self.vecs = np.zeros((0, m, m)), np.zeros((0, m, m))
        self.eig, self.floor, self.faults = np.zeros((0, m)), np.zeros(0), np.zeros(0, np.uint8)
        self._powers = {}                           # by exponent
        self._rank = self.value, self.value         # see blocks

    def sets(self, *parts, inverted: bool = False, real: bool = False) -> list[np.ndarray]:
        """Value ids (K, L_i) of the nodes of K sets, given as parts (K, L_i, n).

        Their nodes are matched against the table's at once (for m > 1).
        The sets then run in blocks of about PAIR_BLOCK nodes: a block
        evaluates its new nodes in the order they first appear, set by set
        and part by part, and refuses the first of its nodes whose value
        earns refusal 0 or 1, with ``inverted`` 2 in the last part (taken to
        negative powers), with ``real`` 3, before the next block runs."""
        bounds = np.cumsum([0] + [part.shape[1] for part in parts])
        K, L = len(parts[0]), int(bounds[-1])
        allowed = np.full((K, L), 3 | 8 * real, dtype=np.uint8)
        allowed[:, bounds[-2]:] |= 4 * inverted
        pts = self.W._points(np.concatenate(parts, axis=1).reshape(K * L, -1))
        nid, fresh = ((len(self.nodes) + np.arange(K * L), np.arange(K * L)) if self.W.m == 1
                      else _match(self.nodes, pts))
        step = max(1, PAIR_BLOCK // L) * L          # the nodes of whole sets
        for s in range(0, K * L, step):
            self._grow(pts[fresh[(fresh >= s) & (fresh < s + step)]])
            fault = self.faults[self.value[nid[s:s + step]]] & allowed.flat[s:s + step]
            if fault.any():
                i = int(np.argmax(fault != 0))
                f, node = int(fault[i]), pts[s + i]
                code = (f & -f).bit_length() - 1        # its lowest bit
                raise SingularWeightError(f"{_REFUSED[code]} at {node}", node=node)
        vid = self.value[nid].reshape(K, L)
        return [vid[:, a:b] for a, b in zip(bounds, bounds[1:])]

    def _grow(self, pts: np.ndarray) -> None:
        """Evaluate W at new nodes, and factor the values new to the table."""
        if not len(pts):
            return
        vals = self.W(pts)
        if self.W.m == 1:       # a value per node, which is its own eigenvalue
            ids, v = len(self.values) + np.arange(len(vals)), vals
            eig, vecs = v[:, 0].real, v[:0]
        else:
            flat = self.W.m ** 2
            ids, fresh = _match(self.values.reshape(-1, flat), vals.reshape(-1, flat))
            v = vals[fresh]
            eig, vecs = np.linalg.eigh(v)
        floor = EIG_CLAMP_REL * np.maximum(np.trace(v, axis1=1, axis2=2).real, 0.0)
        # eigh reads the lower triangle only: a value whose upper triangle
        # differs is measured against that triangle's scale, and refused
        top = np.max(np.abs(eig), axis=1)
        residual = np.max(np.abs(v - np.swapaxes(v, 1, 2).conj()), axis=(1, 2))
        faults = np.zeros(len(v), dtype=np.uint8)
        faults[residual > 1e-12 * top] |= 1
        faults[eig[:, 0] < -1e-12 * top] |= 2
        faults[np.maximum(eig[:, 0], floor) <= 0] |= 4
        if np.iscomplexobj(v):
            faults[np.max(np.abs(v.imag), axis=(1, 2)) > 1e-12] |= 8
        self.nodes = np.concatenate([self.nodes, pts])
        self.value = np.concatenate([self.value, ids])
        self.values = np.concatenate([self.values, v])
        self.eig = np.concatenate([self.eig, eig])
        self.vecs = np.concatenate([self.vecs, vecs])
        self.floor = np.concatenate([self.floor, floor])
        self.faults = np.concatenate([self.faults, faults])

    def power(self, a: float) -> np.ndarray:
        """Every value to the power a with the clamp, (V, m, m); taken again
        only when the table has gained values since."""
        if len(self._powers.get(a, ())) < len(self.values):
            # singular values give inf for a < 0; no consumer reads them
            with np.errstate(divide="ignore", invalid="ignore"):
                clamped = np.maximum(self.eig, self.floor[:, None]) ** a
                self._powers[a] = clamped[:, :, None] if self.W.m == 1 else np.einsum(
                    "nij,nj,nkj->nik", self.vecs, clamped, self.vecs.conj())
        return self._powers[a]

    def blocks(self, parts, size):
        """The sets of one or two parts of value ids (K, L_i) in groups of
        equal distinct counts, at most max(1, PAIR_BLOCK // size(*counts))
        sets each.  Yields the sets, their counts and per part the (k, U)
        distinct value ids and their multiplicities: no set is padded, so
        each is computed as if alone.  A set lists its values in the order
        of a lexsort of their entries, as ``_rank`` places every value."""
        if len(self._rank[0]) < len(self.values):
            order, new = _runs(self.values.reshape(-1, self.W.m ** 2))
            rank = np.empty(len(order), dtype=np.int64)
            rank[order] = np.cumsum(new) - 1
            self._rank = rank, order[new]       # and the id of one value at each place
        rank, by_rank = self._rank
        distinct = {}
        for ids in {id(ids): ids for ids in parts}.values():
            K, L = ids.shape
            srt = np.sort(rank[ids], axis=1)
            new = np.diff(srt, axis=1, prepend=-1) != 0
            first = np.flatnonzero(new)
            at = (first // L, (np.cumsum(new, axis=1) - 1).ravel()[first])
            own = np.count_nonzero(new, axis=1)
            pad, counts = np.zeros((K, np.max(own)), dtype=np.int64), np.zeros((K, np.max(own)))
            pad[at], counts[at] = by_rank[srt.ravel()[first]], np.diff(first, append=K * L)
            distinct[id(ids)] = pad, counts, own
        per = [distinct[id(ids)] for ids in parts]
        own = np.stack([own for _, _, own in per], axis=1)
        _, first, inverse = np.unique(own[:, 0] * (np.max(own) + 1) + own[:, -1],
                                      return_index=True, return_inverse=True)
        for key, row in enumerate(own[first].tolist()):
            sets = np.flatnonzero(inverse == key)
            step = max(1, PAIR_BLOCK // size(*row))
            for s in range(0, len(sets), step):
                S = sets[s:s + step]
                yield S, row, [(pad[S, :u], counts[S, :u]) for (pad, counts, _), u in zip(per, row)]


def _pair_norms(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Spectral norms of A[..., x] @ B[..., y] for all pairs of a batch of
    sets, A (..., X, m, m) and B (..., Y, m, m), shape (..., X, Y).

    ||A_x B_y||_2 is the square root of the largest eigenvalue of the Gram
    matrix (A_x B_y)^* (A_x B_y): the product of the moduli for m = 1, the
    closed form of a 2 x 2 Hermitian matrix for m = 2, the trigonometric
    solution of the characteristic cubic for m = 3 (:func:`_top_eigenvalue_3x3`,
    which hands matrices with a nearly repeated top eigenvalue to ``eigvalsh``),
    a batched ``eigvalsh`` of the lower triangles above.  Real inputs keep the
    arithmetic real.  Gram entry (a, b) is sum_ij (A_x^* A_x)_ij conj(B_y,ia)
    B_y,jb: one product of the flattened A_x^* A_x (X, m^2) with a table of
    the B_y (m^2, Y t) gives the t entries of the lower triangles of all X Y
    of them.
    """
    m = A.shape[-1]
    if m == 1:
        return np.abs(A[..., :, None, 0, 0]) * np.abs(B[..., None, :, 0, 0])
    Y = B.shape[-3]
    lower = np.tril_indices(m)
    AhA = (np.swapaxes(A.conj(), -1, -2) @ A).reshape(*A.shape[:-2], m * m)
    table = B.conj()[..., :, None, lower[0]] * B[..., None, :, lower[1]]   # (..., Y, i, j, t)
    table = np.moveaxis(table.reshape(*B.shape[:-2], m * m, -1), -3, -2)
    gram = (AhA @ table.reshape(*table.shape[:-2], -1)).reshape(*AhA.shape[:-1], Y, -1)
    if m == 2:
        a, d = gram[..., 0].real, gram[..., 2].real
        top = 0.5 * (a + d) + np.hypot(0.5 * (a - d), np.abs(gram[..., 1]))
    elif m == 3:
        top = _top_eigenvalue_3x3(gram)
    else:
        top = _top_eigenvalue(gram, m)
    return np.sqrt(np.maximum(top, 0.0))


def _top_eigenvalue(lower: np.ndarray, m: int) -> np.ndarray:
    """Largest eigenvalue of Hermitian m x m matrices given by their lower
    triangles (..., t) in ``np.tril_indices`` order, by batched ``eigvalsh``."""
    i, j = np.tril_indices(m)
    full = np.zeros(lower.shape[:-1] + (m, m), dtype=lower.dtype)
    full[..., i, j] = lower
    return np.linalg.eigvalsh(full)[..., -1]


def _top_eigenvalue_3x3(g: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of Hermitian 3 x 3 matrices given by their lower
    triangles g (..., 6) = (a, b, c, d, e, f) of [[a, b*, d*], [b, c, e*],
    [d, e, f]], from the trigonometric solution of the characteristic cubic
    (Kopp, Int. J. Mod. Phys. C 19, 2008).

    With q the mean of the diagonal, p^2 = |G - qI|_F^2 / 6 and r =
    det((G - qI) / p) / 2 in [-1, 1], the eigenvalues are q + 2p
    cos((acos r + 2 pi k) / 3); k = 0 is the largest.  acos loses digits where
    the top two eigenvalues meet (r -> -1): matrices with 1 + r below
    CUBIC_GAP go to ``eigvalsh``.  p = 0 (G = qI) gives q exactly.
    """
    a, c, f = g[..., 0].real, g[..., 2].real, g[..., 5].real
    b, d, e = g[..., 1], g[..., 3], g[..., 4]
    q = (a + c + f) / 3
    a, c, f = a - q, c - q, f - q
    bb, dd, ee = ((v * v.conj()).real for v in (b, d, e))
    p = np.sqrt((a * a + c * c + f * f + 2 * (bb + dd + ee)) / 6)
    det = a * c * f - a * ee - c * dd - f * bb + 2 * (b * e * d.conj()).real
    r = np.clip(det / (2 * np.where(p > 0, p, 1.0) ** 3), -1.0, 1.0)
    top = q + 2 * p * np.cos(np.arccos(r) / 3)
    near = 1 + r < CUBIC_GAP
    if near.any():
        top[near] = _top_eigenvalue(g[near], 3)
    return top


def _defining_averages(table: WeightTable, p: float,
                       x_nodes: np.ndarray, y_nodes: np.ndarray) -> np.ndarray:
    """Discretized averaging expression of K node-set pairs, shape (K,): x
    over the base cube's nodes ``x_nodes`` (K, N, n), y over the comparison
    region's ``y_nodes`` (K, M, n), the same array when x = y.  W^{1/p} at x's
    and W^{-1/p} at y's distinct values come from the table (:meth:`WeightTable.blocks`);
    a set's pairs run in rows of about PAIR_BLOCK, each with its multiplicities."""
    (K, N, _), M = x_nodes.shape, y_nodes.shape[1]
    ids = table.sets(*((x_nodes,) if y_nodes is x_nodes else (x_nodes, y_nodes)), inverted=True)
    pprime = p / (p - 1) if p > 1 else None
    Pa, Pb = table.power(1.0 / p), table.power(-1.0 / p)
    out = np.empty(K)
    for sets, (Ux, Uy), ((ax, cx), (ay, cy)) in table.blocks((ids[0], ids[-1]), np.multiply):
        A, B = Pa[ax], Pb[ay]
        rows = Ux if Ux * Uy <= PAIR_BLOCK else max(1, PAIR_BLOCK // Uy)
        # p <= 1: column sums over x per y; p > 1: the outer sum over x
        acc = np.zeros((len(sets), Uy) if p <= 1 else len(sets))
        for r in range(0, Ux, rows):
            R = slice(r, r + rows)
            norms = _pair_norms(A[:, R], B)
            if p <= 1:
                acc += np.einsum("kx,kxy->ky", cx[:, R], norms ** p)
            else:
                inner = np.einsum("kxy,ky->kx", norms ** pprime, cy) / M
                acc += np.einsum("kx,kx->k", cx[:, R], inner ** (p / pprime))
        out[sets] = (np.max(acc, axis=1) if p <= 1 else acc) / N
    return out


def ap_characteristic(W: MatrixWeight, p: float, window: LatticeWindow,
                      quad: QuadratureSpec = QuadratureSpec(),
                      table: WeightTable | None = None) -> float:
    """Sup over window cubes of the defining average, all cubes in one batch.
    Monotone under refinement.  ``table``: the command's :class:`WeightTable` of W."""
    check_order(p)
    nodes = _cube_nodes(quad, CubeArrays.of_window(window))
    return float(np.max(_defining_averages(table or WeightTable(W), p, nodes, nodes)))


def reducing_operator(W: MatrixWeight, p: float, cube: DyadicCube,
                      quad: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Positive-definite matrix whose norm matches the p-average of the weight.

    Order 2 uses the exact square root of the cell average; m = 1 reduces to
    the scalar closed form; other orders fit the minimum-volume enclosing
    ellipsoid of the average-norm unit ball sampled over directions.  This is
    the one-cube case of :meth:`ReducingFamily.build`.
    """
    ops, _, _ = _reducing_operators(W, p, CubeArrays.of([cube]), quad)
    return ops[0]


def _reducing_operators(W: MatrixWeight, p: float, cubes: CubeArrays, quad: QuadratureSpec,
                        table: WeightTable | None = None):
    """Reducing operators of C cubes, shape (C, m, m), with the steps each
    ellipsoid fit took and its final gap kappa_max / d, both of shape (C,)
    and empty when no fit runs."""
    check_order(p)
    nodes, table = _cube_nodes(quad, cubes), table or WeightTable(W)
    no_fit = np.zeros(0, dtype=int), np.zeros(0)
    if W.m == 1:
        # |A z| = (avg_E w)^{1/p} |z| exactly in the scalar case
        return _weight_means(table, nodes).real ** (1.0 / p), *no_fit
    if p == 2:
        avg = _weight_means(table, nodes)
        return _psd_sqrt(avg, "average weight not positive definite"), *no_fit
    dirs = _fit_directions(W.m)
    rho = _direction_averages(table, p, nodes, dirs, real=True) ** (1.0 / p)
    if np.any(rho <= 0):
        raise SingularWeightError("weight average vanishes in some direction")
    # the points dirs / rho must span R^m: the same clamp as the weight's eigenvalues
    outer = (dirs[:, :, None] * dirs[:, None, :]).reshape(len(dirs), -1)
    V = _per_set(rho ** -2.0, outer).reshape(-1, W.m, W.m)
    flat = np.linalg.eigvalsh(V)[:, 0] <= EIG_CLAMP_REL * np.trace(V, axis1=1, axis2=2)
    if flat.any():
        raise SingularWeightError(
            f"degenerate direction set in ellipsoid fit on cube {cubes.cube(int(np.argmax(flat)))}: "
            f"its {len(dirs)} directions do not span R^{W.m}")
    M, _, steps, gap = _mvee_centered(dirs, rho)
    A = _psd_sqrt(M, "ellipsoid fit produced a non-PD matrix")
    # undo the root's rounding: each cube's farthest point d_i / rho_ci back on |A p| = 1
    reach = np.linalg.norm(A @ dirs.T, axis=1) / rho  # one product per cube
    return A / np.max(reach, axis=1)[:, None, None], steps, gap


def _cube_nodes(quad: QuadratureSpec, cubes: CubeArrays) -> np.ndarray:
    """Quadrature nodes of every cube, shape (C, N, n)."""
    return _box_nodes(quad, cubes.lower, cubes.side[:, None])


def _box_nodes(quad: QuadratureSpec, lower: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Quadrature nodes of B boxes with corners ``lower`` (B, n) and edge
    lengths ``width`` (B, n) or (B, 1), shape (B, N, n).  Edge lengths that
    are powers of two scale the unit-cube nodes exactly, so this reproduces
    ``quad.nodes(lower, lower + width)``."""
    unit, _ = quad.nodes(np.zeros(lower.shape[1]), np.ones(lower.shape[1]))
    return lower[:, None, :] + width[:, None, :] * unit


def _weight_means(table: WeightTable, nodes: np.ndarray) -> np.ndarray:
    """Average of the weight over each cube's nodes, shape (C, m, m), in
    blocks of about PAIR_BLOCK nodes."""
    (ids,) = table.sets(nodes)
    step = max(1, PAIR_BLOCK // ids.shape[1])
    return np.concatenate([np.mean(table.values[ids[s:s + step]], axis=1)
                           for s in range(0, len(ids), step)])


def _psd_sqrt(M: np.ndarray, what: str) -> np.ndarray:
    """Positive square roots of a batch of positive-definite matrices.  M is
    made exactly Hermitian first: ``eigh`` reads only its lower triangle."""
    vals, vecs = np.linalg.eigh(0.5 * (M + np.swapaxes(M.conj(), -1, -2)))
    if np.any(vals <= 0):
        raise SingularWeightError(what)
    return (vecs * np.sqrt(vals)[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)


def unit_directions(count: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` unit vectors of R^m, normalized Gaussian draws from ``rng``,
    shape (count, m)."""
    dirs = rng.standard_normal((count, m))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def _fit_directions(m: int) -> np.ndarray:
    """Unit directions sampling the average-norm ball, shape (D, m); every
    cube of a batch shares them."""
    if m == 2:
        # dense angular grid keeps the sampled hull close to the true ball;
        # the centered fit sees +-z identically, so half the circle suffices
        ang = np.linspace(0.0, np.pi, 256, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return unit_directions(32 * m * m, m, np.random.default_rng(0))


def direction_averages(W: MatrixWeight, p: float, cubes: CubeArrays, quad: QuadratureSpec,
                       dirs: np.ndarray) -> np.ndarray:
    """avg |W^{1/p} z|^p over the quadrature nodes of each of C cubes for
    every direction z of ``dirs`` (D, m), shape (C, D); its p-th root is the
    p-average of |W^{1/p} z|.  Complex weights are taken with their complex
    norms."""
    return _direction_averages(WeightTable(W), p, _cube_nodes(quad, cubes), dirs)


def _direction_averages(table: WeightTable, p: float, nodes: np.ndarray, dirs: np.ndarray,
                        real: bool = False) -> np.ndarray:
    """:func:`direction_averages` over the nodes (C, N, n) of C cubes; ``real``
    refuses complex weight values, as the ellipsoid fit needs.  For m = 1 the
    average is mean(w) |z|^p; otherwise the table's W^{1/p} at each cube's
    distinct values is normed in every direction, in groups of about
    PAIR_BLOCK / D values, and counted with its multiplicity."""
    N, D = nodes.shape[1], len(dirs)
    (ids,) = table.sets(nodes, real=real)
    if table.W.m == 1:
        return np.mean(table.values[ids][..., 0, 0].real, axis=1)[:, None] * np.abs(dirs[:, 0]) ** p
    P = table.power(1.0 / p)
    avg = np.empty((len(nodes), D))
    for sets, _, ((u, c),) in table.blocks((ids,), lambda u: u * D):
        norms = np.linalg.norm(P[u] @ dirs.T, axis=-2) ** p
        avg[sets] = (c[:, None, :] @ norms)[:, 0] / N
    return avg


def _sym_basis(d: int) -> np.ndarray:
    """Orthonormal basis of the symmetric d x d matrices under the trace
    inner product, one flattened matrix per row, shape (d(d+1)/2, d*d):
    E_ii, and (E_ij + E_ji) / sqrt 2 for i < j.  B times a flattened
    symmetric matrix gives its coordinates, and B^T the coordinates back."""
    i, j = np.triu_indices(d)
    B = np.zeros((len(i), d, d))
    k = np.arange(len(i))
    B[k, i, j] = np.where(i == j, 1.0, math.sqrt(0.5))
    B[k, j, i] = B[k, i, j]
    return B.reshape(len(i), d * d)


def _congruence(B: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The maps Y -> X Y X^T of X (C, d, d) on coordinates in the basis B, (C, k, k)."""
    C, d, _ = X.shape
    return B @ (X[:, :, None, :, None] * X[:, None, :, None, :]).reshape(C, d * d, d * d) @ B.T


def _per_set(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Rows x (C, a) times a shared table (a, b), one row at a time, so that a
    set's arithmetic does not depend on the batch it is in: shape (C, b)."""
    return (x[:, None, :] @ table)[:, 0]


def _mvee_centered(dirs: np.ndarray, rho: np.ndarray):
    """Minimum-volume origin-centered ellipsoids {z: z^T M z <= 1} of C point
    sets at once: set c holds the points p_ci = d_i / rho_ci of the
    directions ``dirs`` (N, d), which every set shares, and the radii ``rho``
    (C, N) (each set is treated as symmetric, so only one representative per
    direction is needed).

    A primal-dual interior-point (Mehrotra predictor-corrector) solve of
    min -log det M subject to s_i = 1 - p_i^T M p_i >= 0 on the k = d(d+1)/2
    coordinates of M (:func:`_sym_basis`), with multipliers lam_i >= 0.
    The solve is affine invariant, so it runs on whitened points, for which
    V(uniform) = I: that keeps its Newton matrices well scaled.  It starts at
    M = V(uniform)^{-1} / (2 kappa_max), lam = d / N, centres on
    max(sigma mu, mu_0 |r_d| / |r_d,0|) so that mu falls no faster than the
    dual residual r_d = sum lam_i p_i p_i^T - M^{-1}, and steps 0.99 of the
    way to the nearest of the slack and multiplier bounds and the point
    where M would lose half of itself along some direction.  A set leaves
    the batch once the design u = lam / sum(lam) meets the certificate
    kappa_max / d <= 1 + MVEE_TOL; MVEE_STEPS caps the steps.

    In coordinates, the whitened row of point i of set c is rho_ci^-2 T_c t_i,
    where t_i holds the coordinates of d_i d_i^T, shared by every set, and T_c
    is the set's whitening map: one product of the shared table with each T_c
    gives the rows, without forming the points.  The Newton matrix sums over
    these rows, not over the shared table, where the range of rho^-4 would
    lose the far points to rounding.  Every product runs set by set, so a
    set's numbers do not depend on the batch it is in.

    Returns M = V(u)^{-1} / kappa_max (C, d, d), which contains every point
    exactly, the multipliers kappa_max u (C, N), for which M^{-1} = sum_i
    lam_i p_i p_i^T, the steps each set took (C,) and its gap kappa_max / d:
    1 at the optimum, and log det M is within d log(gap) of the optimum's.
    """
    (N, d), C = dirs.shape, len(rho)
    B = _sym_basis(d)
    outer = (dirs[:, :, None] * dirs[:, None, :]).reshape(N, d * d)     # d_i d_i^T
    weight = np.asarray(rho, dtype=float) ** -2.0
    try:
        L = np.linalg.cholesky(_per_set(weight, outer).reshape(C, d, d) / N)
    except np.linalg.LinAlgError as exc:
        raise SingularWeightError("degenerate direction set in ellipsoid fit") from exc
    eye = B @ np.eye(d).ravel()

    # A v and A^T w for the rows A of the sets still running, stored as A^T
    def rows(v):
        return (v[..., None, :] @ At)[:, 0]

    def cols(w):
        return (At @ w[..., None])[..., 0]

    def coords(Y):
        return _per_set(Y.reshape(len(Y), -1), B.T)

    def matrix(v):
        return _per_set(v, B).reshape(-1, d, d)

    # the whitened rows; T_c maps the coordinates of Y to those of L_c^-1 Y L_c^-T
    At = weight[:, None, :] * (_congruence(B, np.linalg.inv(L)) @ (outer @ B.T).T)
    kappa0 = np.max(rows(eye), axis=1)
    m = eye / (2.0 * kappa0[:, None])           # V(uniform)^{-1} / (2 kappa_max)
    lam = np.full((C, N), d / N)
    s = 1.0 - rows(m)
    mu0 = np.sum(lam * s, axis=1) / N
    r0 = np.linalg.norm(cols(lam) - 2.0 * kappa0[:, None] * eye, axis=1)
    run, design, steps = np.arange(C), np.empty((C, N)), np.zeros(C, dtype=int)
    for step in range(MVEE_STEPS + 1):
        # the leverages of u = lam / sum(lam) are those of lam times sum(lam)
        Al, total = cols(lam), np.sum(lam, axis=1)
        going = np.max(rows(coords(np.linalg.inv(matrix(Al)))), axis=1) * total > d * (1.0 + MVEE_TOL)
        going &= step < MVEE_STEPS
        if not going.all():
            design[run[~going]] = lam[~going] / total[~going, None]
            if not going.any():
                break
            run, At, Al, m, s, lam, mu0, r0 = (x[going] for x in (run, At, Al, m, s, lam, mu0, r0))
        steps[run] += 1
        w, Q = np.linalg.eigh(matrix(m))
        Minv = (Q / w[:, None, :]) @ np.swapaxes(Q, -1, -2)
        r_d = Al - coords(Minv)
        ls = lam * s
        mu = np.sum(ls, axis=1) / N
        neg_inv_s, neg_inv_lam = -1.0 / s, -1.0 / lam
        # the Hessian of -log det M, Y -> M^{-1} Y M^{-1}, plus A^T diag(lam / s) A
        K = _congruence(B, Minv) - (At * (lam * neg_inv_s)[:, None, :]) @ np.swapaxes(At, 1, 2)
        R = Q / np.sqrt(w)[:, None, :]          # M^{-1/2} = R Q^T

        def direction(r_c):
            """Newton step for lam_i s_i -> lam_i s_i - r_c,i with r_d -> 0,
            and the reciprocal of its largest allowed length (0 if none)."""
            dm = -np.linalg.solve(K, (cols(r_c * neg_inv_s) + r_d)[..., None])[..., 0]
            ds = -rows(dm)
            dlam = (r_c + lam * ds) * neg_inv_s
            # M + a dM >= M / 2 while a eig(M^{-1/2} dM M^{-1/2}) >= -1/2
            low = np.linalg.eigvalsh(np.swapaxes(R, 1, 2) @ matrix(dm) @ R)[:, 0]
            reach = np.maximum(np.max(ds * neg_inv_s, axis=1), np.max(dlam * neg_inv_lam, axis=1))
            return dm, ds, dlam, np.maximum(np.maximum(reach, -2.0 * low), 0.0)

        _, ds, dlam, reach = direction(ls)
        a = 1.0 / np.maximum(reach, 1.0)
        # sum (lam + a dlam)(s + a ds), as lam ds + s dlam = -lam s
        cross = dlam * ds
        mu_aff = (1.0 - a) * mu + a * a * np.sum(cross, axis=1) / N
        target = np.maximum((mu_aff / mu) ** 3 * mu, mu0 * np.linalg.norm(r_d, axis=1) / r0)
        dm, ds, dlam, reach = direction(ls + cross - target[:, None])
        a = (0.99 / np.maximum(reach, 0.99))[:, None]
        m += a * dm
        s += a * ds
        lam += a * dlam
    Vinv = np.linalg.inv(_per_set(design * weight, outer).reshape(C, d, d))
    kappa_max = np.max(weight * _per_set(Vinv.reshape(C, d * d), outer.T), axis=1)
    return Vinv / kappa_max[:, None, None], kappa_max[:, None] * design, steps, kappa_max / d


def john_direction_report(W: MatrixWeight, p: float, cube: DyadicCube,
                          quad: QuadratureSpec = QuadratureSpec(),
                          rng: np.random.Generator | None = None) -> dict:
    """Two-sided direction-ratio certificate for a fitted reducing operator,
    over JOHN_DIRECTIONS fresh unit directions drawn from ``rng``."""
    cubes, table = CubeArrays.of([cube]), WeightTable(W)
    ops, _, _ = _reducing_operators(W, p, cubes, quad, table)
    A = ops[0]
    dirs = unit_directions(JOHN_DIRECTIONS, W.m, rng or np.random.default_rng(1))
    rho = _direction_averages(table, p, _cube_nodes(quad, cubes), dirs)[0] ** (1.0 / p)
    lhs = np.linalg.norm(dirs @ A.T, axis=-1)
    ratios = lhs / rho
    return {
        "matrix": A,
        "ratio_min": float(np.min(ratios)),
        "ratio_max": float(np.max(ratios)),
        "spread": float(np.max(ratios) / np.min(ratios)),
        "john_factor": math.sqrt(W.m),
    }


@dataclass
class ReducingFamily:
    """Reducing operators of a fixed order for one weight, one per window cube
    in ``window.all_cubes()`` order, with the ellipsoid-fit record of
    :meth:`build` (empty when no fit ran)."""

    p: float
    window: LatticeWindow
    ops: np.ndarray                    # (C, m, m)
    # (C,) interior-point steps and final gap kappa_max / d of each fit
    fit_iterations: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    fit_gap: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def operators_at(self, cubes: CubeArrays) -> np.ndarray:
        """Operators of N cubes, shape (N, m, m); refuses the first cube
        outside the family's window."""
        pos = self.window.positions(cubes)
        if np.any(pos < 0):
            missing = cubes.cube(int(np.argmax(pos < 0)))
            raise PreconditionError(f"no reducing operator stored for cube {missing}")
        return self.ops[pos]

    def __getitem__(self, cube: DyadicCube) -> np.ndarray:
        return self.operators_at(CubeArrays.of([cube]))[0]

    def fit_report(self) -> dict:
        """Fits run, fits stopped by the step cap short of the tolerance,
        the most interior-point steps any fit took and the largest final
        gap kappa_max / d (None without fits)."""
        return {
            "fits": len(self.fit_gap),
            "capped": int(np.sum(self.fit_gap > 1.0 + MVEE_TOL)),
            "iterations_max": int(np.max(self.fit_iterations, initial=0)),
            "gap_max": float(np.max(self.fit_gap)) if len(self.fit_gap) else None,
        }

    @classmethod
    def identity(cls, m: int, p: float, window: LatticeWindow) -> "ReducingFamily":
        return cls(p, window, np.broadcast_to(np.eye(m), (window.count(), m, m)))

    @classmethod
    def build(cls, W: MatrixWeight, p: float, window: LatticeWindow,
              quad: QuadratureSpec = QuadratureSpec(),
              table: WeightTable | None = None) -> "ReducingFamily":
        """Operators of every window cube as one batch (``table``: as ap_characteristic)."""
        ops, steps, gap = _reducing_operators(W, p, CubeArrays.of_window(window), quad, table)
        return cls(p, window, ops, steps, gap)


def ap_dimension_estimate(W: MatrixWeight, p: float, window: LatticeWindow,
                          quad: QuadratureSpec = QuadratureSpec(),
                          min_doublings: int = 4, max_base_cubes: int = 64,
                          table: WeightTable | None = None) -> tuple[float, dict]:
    """Least-squares doubling exponent of the defining averages.

    For each base cube Q with room for >= min_doublings concentric doublings
    inside the window box, fits log2(average over 2^i Q) against i and reports
    the per-cube slopes; the estimate is the maximum slope.  Every doubling
    reads its base cube's values from one ``table`` (as ap_characteristic).
    """
    check_order(p)
    cubes = CubeArrays.of_window(window)
    lo = np.array(window.lo, dtype=float)
    hi = np.array(window.hi, dtype=float)
    center = np.ldexp((2 * cubes.index + 1).astype(float), -(cubes.levels + 1)[:, None])
    # doublings 2^i Q, i = 1, 2, ..., stay inside the box while they fit
    doublings = np.zeros(len(cubes), dtype=np.int64)
    fits = np.ones(len(cubes), dtype=bool)
    i = 0
    while fits.any():
        half = np.ldexp(0.5 * cubes.side, i + 1)[:, None]
        fits &= np.all(center - half >= lo, axis=1) & np.all(center + half <= hi, axis=1)
        doublings += fits
        i += 1
    candidates = np.flatnonzero(doublings >= min_doublings)
    if not len(candidates):
        raise PreconditionError(
            f"window too shallow: no cube admits {min_doublings} doublings")
    if len(candidates) > max_base_cubes:
        candidates = candidates[::len(candidates) // max_base_cubes + 1]
    # one (base cube, doubling i) pair for i = 0..imax of every candidate
    imax = doublings[candidates]
    base = np.repeat(candidates, imax + 1)
    first = np.cumsum(imax + 1) - (imax + 1)
    step = np.arange(len(base)) - np.repeat(first, imax + 1)
    half = np.ldexp(0.5 * cubes.side[base], step)[:, None]
    lower, upper = center[base] - half, center[base] + half
    vals = _defining_averages(table or WeightTable(W), p, _cube_nodes(quad, cubes.take(base)),
                              _box_nodes(quad, lower, upper - lower))
    per_cube = []
    best = -math.inf
    for c, s, d in zip(candidates.tolist(), first.tolist(), imax.tolist()):
        ii = np.arange(d + 1, dtype=float)
        logs = np.log2(np.maximum(vals[s:s + d + 1], 1e-300))
        slope, intercept = np.polyfit(ii, logs, 1)
        resid = float(np.sqrt(np.mean((logs - (slope * ii + intercept)) ** 2)))
        per_cube.append({"cube": str(cubes.cube(c)), "slope": float(slope), "residual": resid,
                         "doublings": d})
        best = max(best, float(slope))
    report = {"per_cube": per_cube, "n_base_cubes": len(candidates)}
    return best, report
