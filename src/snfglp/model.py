"""Level-1 configurations of planar nested fractals.

A configuration is a number k >= 3 plus a list of cell barycenters in
Z[zeta_k]; every cell is a unit-circumradius regular k-gon whose vertex
j points in direction 2*pi*j/k.  This module validates the defining
axioms (connectivity, nesting, dihedral symmetry, corner coverage,
legal adjacency for odd k, central-cell restrictions), derives the
scaling factor, and round-trips a plain text file format.
"""
from __future__ import annotations

import math
from array import array
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from operator import add, sub
from typing import NamedTuple, TypeVar

from .cyclotomic import (
    CycInt,
    _canonical,
    _embed,
    _embed_error,
    _mapped_key,
    _preset,
    _real_sign,
    _reduction_rows,
    _unit_circle,
    cyc_add,
    cyc_rotate,
    cyc_sub,
    cyc_unit_translate_keys,
    cyc_unit_translates,
    from_coeffs,
    to_cartesian,
    zero,
    zeta,
)

class SpecError(ValueError):
    """Malformed configuration (mixed orders, duplicates, bad sizes)."""


class ParseError(SpecError):
    """Unreadable spec text."""


class ScalingError(ValueError):
    """The scaling factor cannot be derived from the configuration."""


@dataclass(frozen=True)
class Cell:
    barycenter: CycInt
    index: int


@dataclass(frozen=True, eq=False)
class FractalSpec:
    """A configuration; immutable.

    Six private records are filled on first use: `_near`, the near-pair
    record (`_near_pairs`); `_vids`, the vertex ids of every cell with their
    count (`_vertex_ids`), read off that record without a vertex key; `_dk`,
    the dihedral record (`_dihedral`: central cell, symmetry witness, corner
    key, corner coverage, vertex at the centre, and the cells' rotation
    permutation `rot`, 8 B per cell); `_graph`, the constraint graph with
    its spanning forest (`_constraint_graph`); and in `glp`, `_sect`, each
    cell's sector and ray (`_sectors`), and `_reg`, the slice route's region
    cells and the `_forest` of the near-pair edges among them, in this
    spec's indices.
    Each is built from the spec alone (no caller hands its builder data)
    and stored by `_memo`, at most once with equal values, so a spec can be
    shared across threads.
    """

    k: int
    cells: tuple[Cell, ...]
    partial: bool = False
    _near: _NearPairs | None = field(default=None, init=False, repr=False, compare=False)
    _vids: tuple[array, int] | None = field(default=None, init=False, repr=False, compare=False)
    _dk: _Dihedral | None = field(default=None, init=False, repr=False, compare=False)
    _graph: ConstraintGraph | None = field(default=None, init=False, repr=False, compare=False)
    _sect: tuple[tuple, tuple] | None = field(default=None, init=False, repr=False, compare=False)
    _reg: tuple[tuple, ConstraintGraph] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.k < 3:
            raise SpecError(f"k must be >= 3, got {self.k}")
        if not self.cells:
            raise SpecError("a spec needs at least one cell")
        # A non-partial spec needs N >= k cells, but that is implied by the
        # dihedral-symmetry and corner axioms, so validate() reports it
        # rather than the constructor rejecting the value.
        seen: set[tuple[int, ...]] = set()
        for pos, cell in enumerate(self.cells):
            if cell.barycenter.order != self.k:
                raise SpecError("cell order differs from spec order")
            if cell.index != pos:
                raise SpecError("cell indices must match list positions")
            key = cell.barycenter.canonical_key()
            if key in seen:
                raise SpecError(f"duplicate barycenter at cell {pos}")
            seen.add(key)

    @property
    def n(self) -> int:
        return len(self.cells)


def make_spec(k: int, barycenters, partial: bool = False) -> FractalSpec:
    """Build a spec from CycInt barycenters or raw coefficient vectors."""
    cells = []
    for i, b in enumerate(barycenters):
        if not isinstance(b, CycInt):
            b = from_coeffs(k, b)
        cells.append(Cell(b, i))
    return FractalSpec(k, tuple(cells), partial)


def vertices(cell: Cell) -> list[CycInt]:
    """The k vertices barycenter + zeta^j, j = 0..k-1 in order, keyed without reduction."""
    return cyc_unit_translates(cell.barycenter)


def _vertex_key_stream(spec: FractalSpec) -> Iterator[tuple[int, ...]]:
    """The canonical key key(b) + row_j of vertex j of each cell, in cell
    order, computed afresh: one key per slot of `_vertex_ids`, for reading
    labels keyed by value or by another spec's vertices."""
    for cell in spec.cells:
        yield from cyc_unit_translate_keys(cell.barycenter)


@lru_cache(maxsize=None)
def _step_table(k: int) -> dict[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Map canonical(zeta^ja - zeta^jb) -> all index pairs (ja, jb) producing it.

    Reduction is linear, so the key is row[ja] - row[jb] of `_reduction_rows`.
    """
    rows = _reduction_rows(k)
    table: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for ja, row_a in enumerate(rows):
        for jb, row_b in enumerate(rows):
            if ja != jb:
                table.setdefault(tuple(map(sub, row_a, row_b)), []).append((ja, jb))
    return {key: tuple(pairs) for key, pairs in table.items()}


def _key_difference(a: Cell, b: Cell) -> tuple[int, ...]:
    """key(b) - key(a): reduction is linear, so no difference value is built."""
    if a.barycenter.order != b.barycenter.order:
        raise SpecError("cells of different order")
    return tuple(map(sub, b.barycenter.canonical_key(), a.barycenter.canonical_key()))


def shared_vertices(a: Cell, b: Cell) -> list[tuple[int, int]]:
    """Index pairs (j_a, j_b) with a.barycenter + zeta^j_a == b.barycenter + zeta^j_b."""
    return list(_step_table(a.barycenter.order).get(_key_difference(a, b), ()))


@lru_cache(maxsize=None)
def _facets(k: int) -> tuple[tuple[tuple[float, float], ...], float, tuple[int, ...]]:
    """The edge normals n_i = zeta^i + zeta^(i+1) of the unit k-gon P as
    floats, and the width w of P along each, as a float within 50u (u =
    2^-53) and as the key of 2w = 2 Re((1 - zeta^m) * conj(n_0)), P spanning
    from vertex 0 to vertex m = (k+1)//2 on n_0.
    """
    circle = _unit_circle(k)
    normals = tuple(tuple(map(add, circle[i], circle[(i + 1) % k])) for i in range(k))
    c, m = circle[1][0], (k + 1) // 2
    coeffs = [0] * k
    for j, d in ((0, 2), (1, 1), (-1, 1), (m, -1), (m - 1, -1), (-m, -1), (1 - m, -1)):
        coeffs[j % k] += d
    w = 1 + c + (1 + c if k % 2 == 0 else 2 * math.cos(math.pi / k))
    return normals, w, _canonical(k, tuple(coeffs))


def _hulls_overlap(k: int, delta: tuple[int, ...]) -> bool:
    """Do the open interiors of unit k-gons P and delta + P intersect?

    They do exactly when the key difference delta lies inside P - P (2P
    for even k, a regular 2k-gon for odd k), whose facet normals are the
    normals n_i of P (`_facets`) up to sign: when every gap
    w - |<delta, n_i>| is positive.  The float gap decides when over 4E
    from 0, E = `_embed_error(k, delta)` >= 54u * ||delta||_1: delta is
    within E/2 per coordinate, n_i within 57u, w within 50u, rounding under
    0.2E.  Else the real 2w - s(delta*conj(n_i) + conj(delta)*n_i), s the
    sign of <delta, n_i>, has the gap's sign.
    """
    normals, w, w2 = _facets(k)
    dx, dy = _embed(k, delta)
    e = 4 * _embed_error(k, delta)
    for i, (nx, ny) in enumerate(normals):
        dot = nx * dx + ny * dy
        gap = w - abs(dot)
        if gap < -e:
            return False
        if gap <= e:
            s = 1 if dot > 0 else -1
            images = [_mapped_key(k, delta, *m) for m in ((-i, 1), (-i - 1, 1), (i, -1), (i + 1, -1))]
            if _real_sign(k, tuple(c - s * sum(t) for c, *t in zip(w2, *images))) <= 0:
                return False
    return True


def _overlap_at_vertex(k: int, ja: int, jb: int) -> bool:
    """Do unit k-gons that share vertex ja of one and jb of the other overlap?

    At the shared point each polygon fills a cone of angle pi - 2*pi/k
    about its inward direction, -zeta^ja or -zeta^jb, and two convex
    polygons meeting at a common vertex overlap exactly when their cones
    do: when the angle 2*pi*min(d, k - d)/k between the axes, with
    d = (ja - jb) mod k, is below the sum of the half-angles, pi - 2*pi/k.
    """
    d = (ja - jb) % k
    return 2 * min(d, k - d) < k - 2


@lru_cache(maxsize=None)
def _conflict_steps(k: int) -> frozenset[tuple[int, ...]]:
    """The `_step_table` keys of conflicting cells: two or more shared vertices,
    or one pair (ja, jb) whose polygons overlap (`_overlap_at_vertex`)."""
    return frozenset(
        step
        for step, ((ja, jb), *more) in _step_table(k).items()
        if more or _overlap_at_vertex(k, ja, jb)
    )


def cells_conflict(a: Cell, b: Cell) -> bool:
    """True iff the cells share >= 2 vertices or their hull interiors overlap."""
    return _conflicting(a.barycenter.order, _key_difference(a, b))


def _conflicting(k: int, delta: tuple[int, ...]) -> bool:
    """`cells_conflict` on the exact key difference delta = key(b) - key(a),
    never on two large floats: a vertex step is looked up in
    `_conflict_steps`, any other delta is decided by `_hulls_overlap`."""
    if delta in _step_table(k):
        return delta in _conflict_steps(k)
    return _hulls_overlap(k, delta)


def _scaled_points(spec: FractalSpec) -> list[tuple[int, ...]]:
    """The key of n * (barycenter - global barycenter) for every cell, by
    linearity n*key(b) - sum(key(b)): Python ints, no range limit, no CycInt."""
    n = spec.n
    keys = [c.barycenter.canonical_key() for c in spec.cells]
    total = [sum(col) for col in zip(*keys)]
    return [tuple([n * c - t for c, t in zip(key, total)]) for key in keys]


class Adjacency(NamedTuple):
    """Cell pair sharing a vertex, with its index in each cell; an adjacency
    when the pair shares no other vertex."""

    a: int
    b: int
    ja: int
    jb: int


# Cells at exact distance <= 2 are less than _NEAR apart in floats: every
# value that can be built (k <= 36, |c| <= 2^31) embeds within
# _embed_error(36, (2**31,) * 36) < 2^-9.9 per coordinate, so a float
# distance is off by at most 2 * sqrt(2) * 2^-9.9 = 2^-8.4.  The margin
# left, over 2^-11, dwarfs the rounding of d^2 and of x / _NEAR (< 2^-17).
_NEAR = 2 + 2**-8


class _Grid:
    """Cells bucketed by float barycenter in _NEAR x _NEAR squares, the one
    index of near cells: two cells at exact distance <= 2 sit in the same or
    neighbouring buckets (see _NEAR), so `near` scans 3 x 3 buckets."""

    def __init__(self) -> None:
        self._buckets: dict[tuple[int, int], list[tuple[float, float, Cell]]] = {}

    def add(self, cell: Cell) -> None:
        x, y = to_cartesian(cell.barycenter)
        key = (math.floor(x / _NEAR), math.floor(y / _NEAR))
        self._buckets.setdefault(key, []).append((x, y, cell))

    def near(self, cell: Cell) -> Iterator[Cell]:
        """The added cells less than _NEAR from the cell in floats, among them
        every added cell at exact distance <= 2."""
        x, y = to_cartesian(cell.barycenter)
        gx, gy = math.floor(x / _NEAR), math.floor(y / _NEAR)
        for bx in (gx - 1, gx, gx + 1):
            for by in (gy - 1, gy, gy + 1):
                for ox, oy, other in self._buckets.get((bx, by), ()):
                    if (x - ox) ** 2 + (y - oy) ** 2 < _NEAR * _NEAR:
                        yield other

    def clear(self, cell: Cell) -> bool:
        """The cell conflicts with no added cell."""
        return not any(cells_conflict(cell, other) for other in self.near(cell))


def _close_pairs(spec: FractalSpec) -> list[tuple[int, int]]:
    """Sorted index pairs (i, j), i < j, of cells less than _NEAR apart in
    floats: every pair that can share a vertex or conflict."""
    grid = _Grid()
    pairs = []
    for cell in spec.cells:
        pairs += [(other.index, cell.index) for other in grid.near(cell)]
        grid.add(cell)
    return sorted(pairs)


class _NearPairs(NamedTuple):
    """A spec's `_near_pairs` record; pairs (i, j) have i < j, in pair order."""

    edges: tuple[Adjacency, ...]  # the pairs sharing exactly one vertex
    # one Adjacency per shared vertex of each pair sharing two or more
    multi: tuple[Adjacency, ...]
    others: tuple[tuple[int, int], ...]  # close pairs whose key difference is no vertex step

    @property
    def violation(self) -> tuple[int, int] | None:
        """The first pair sharing two or more vertices."""
        return self.multi[0][:2] if self.multi else None


_T = TypeVar("_T")


def _memo(spec: FractalSpec, name: str, build: Callable[[FractalSpec], _T]) -> _T:
    """The spec's record `name` (see `FractalSpec`), `build(spec)` on first
    use.  Every record is stored here, with one `object.__setattr__`, so a
    thread reads it whole or not at all; a record is never half-built."""
    value = getattr(spec, name)
    if value is None:
        value = build(spec)
        object.__setattr__(spec, name, value)
    return value


def _near_pairs(spec: FractalSpec) -> _NearPairs:
    """The spec's `_NearPairs` from one pass over `_close_pairs(spec)`,
    memoized on the spec.

    Shared vertices and conflicts force barycenter distance <= 2, so only
    close pairs qualify; they come sorted, so the record is in pair order.
    Each pair's delta = key(j) - key(i) is formed once and only looked up:
    the record keeps every index pair (ja, jb) of every pair that shares a
    vertex, which `_vertex_ids` numbers the vertices from, and a pair that
    is no vertex step is embedded by `_first_conflict` alone.
    """
    def build(spec: FractalSpec) -> _NearPairs:
        table = _step_table(spec.k)
        keys = [c.barycenter.canonical_key() for c in spec.cells]
        edges: list[Adjacency] = []
        multi: list[Adjacency] = []
        others: list[tuple[int, int]] = []
        for i, j in _close_pairs(spec):
            pairs = table.get(tuple(map(sub, keys[j], keys[i])))
            if pairs is None:
                others.append((i, j))
            elif len(pairs) == 1:
                # delta = b_j - b_i = zeta^ja - zeta^jb with ja indexing cell i.
                edges.append(Adjacency(i, j, *pairs[0]))
            else:
                multi += [Adjacency(i, j, ja, jb) for ja, jb in pairs]
        return _NearPairs(tuple(edges), tuple(multi), tuple(others))

    return _memo(spec, "_near", build)


def _vertex_ids(spec: FractalSpec) -> tuple[array, int]:
    """(ids, count): the id of vertex j of cell i at slot ids[i * k + j], and
    the number of distinct vertices; memoized on the spec like `_near_pairs`.

    Slot (b, jb) is the point of slot (a, ja), a < b, exactly when
    key(b) - key(a) = row_ja - row_jb, and the near-pair record holds every
    such index pair, so the ids are read off it and no vertex key is built.
    The slots at one point are pairwise linked, so each is linked to the
    least of them; one pass in slot order then numbers the vertices as
    first seen: a vertex is new where its id equals the number of distinct
    vertices seen before it.
    """
    def build(spec: FractalSpec) -> tuple[array, int]:
        k = spec.k
        near = _near_pairs(spec)
        ids = array("l", range(spec.n * k))  # the least slot linked to each slot
        for a, b, ja, jb in chain(near.edges, near.multi):
            t, s = a * k + ja, b * k + jb
            if t < ids[s]:
                ids[s] = t
        count = 0
        for s in range(len(ids)):
            t = ids[s]
            if t == s:
                ids[s] = count
                count += 1
            else:
                ids[s] = ids[t]  # t < s holds its id already
        return ids, count

    return _memo(spec, "_vids", build)


def _first_conflict(spec: FractalSpec) -> tuple[int, int] | None:
    """The first close pair, in pair order, whose cells conflict.

    Precondition: no pair shares two or more vertices.  Then the first
    conflicting vertex step is the first edge (edges are in pair order)
    whose polygons overlap at the shared vertex.  Pairs that are no vertex
    step are embedded here, on demand, and only those that come before it.
    """
    near = _near_pairs(spec)
    k = spec.k
    conflict = next(((e.a, e.b) for e in near.edges if _overlap_at_vertex(k, e.ja, e.jb)), None)
    for i, j in near.others:
        if conflict is not None and (i, j) > conflict:
            break
        if _conflicting(k, _key_difference(spec.cells[i], spec.cells[j])):
            return (i, j)
    return conflict


def find_adjacencies(spec: FractalSpec) -> tuple[list[Adjacency], tuple[int, int] | None]:
    """All single-shared-vertex pairs, plus the first nesting violation if any.

    A pair sharing two or more vertices violates nesting and is reported
    as a witness rather than as an edge.  The list is new on every call.
    """
    near = _near_pairs(spec)
    return list(near.edges), near.violation


def edge_weight(e: Adjacency, k: int) -> int:
    """Weight for the stored direction a -> b."""
    return (e.ja - e.jb) % k


@dataclass(frozen=True)
class ConstraintGraph:
    k: int
    n: int
    edges: tuple[Adjacency, ...]
    nontree: tuple[Adjacency, ...]
    component: tuple[int, ...]
    parent: tuple[int, ...]        # -1 at component roots
    parent_edge: tuple[int, ...]   # index into edges, -1 at roots
    depth: tuple[int, ...]
    order: tuple[int, ...]         # cells in visit order, each after its parent

    @property
    def component_count(self) -> int:
        return max(self.component) + 1

    @cached_property
    def _weights(self) -> dict[tuple[int, int], int]:
        """Weight of every edge in both directions, built on first use."""
        out: dict[tuple[int, int], int] = {}
        for e in self.edges:
            w = edge_weight(e, self.k)
            out[(e.a, e.b)] = w
            out[(e.b, e.a)] = -w % self.k
        return out

    def weight(self, u: int, v: int) -> int:
        """Constraint weight for traversing u -> v: r_v = r_u + weight mod k;
        KeyError when u and v share no edge."""
        w = self._weights.get((u, v))
        if w is None:
            raise KeyError(f"no edge between {u} and {v}")
        return w


def _forest(spec: FractalSpec, cells: Iterable[int], edges: tuple[Adjacency, ...]) -> ConstraintGraph:
    """The graph of `edges` on `cells`, ascending indices of the spec's cells
    that hold both ends of every edge, with a breadth-first spanning forest
    and its non-tree edges.

    Each component is rooted at its lowest-index cell.  The edges are
    distinct pairs a < b in ascending (a, b) order, so neighbours are
    listed and visited in ascending order.  The per-cell tuples are indexed
    by the spec's cells; one outside `cells` has component and parent -1
    and is not in `order`.
    """
    n = spec.n
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for idx, e in enumerate(edges):
        adj[e.a].append((e.b, idx))
        adj[e.b].append((e.a, idx))
    component = [-1] * n
    parent = [-1] * n
    parent_edge = [-1] * n
    depth = [0] * n
    order: list[int] = []  # the queue: cells are visited as they are taken
    comp = 0
    for root in cells:
        if component[root] != -1:
            continue
        component[root] = comp
        head = len(order)
        order.append(root)
        while head < len(order):
            u = order[head]
            head += 1
            for v, idx in adj[u]:
                if component[v] == -1:
                    component[v] = comp
                    parent[v] = u
                    parent_edge[v] = idx
                    depth[v] = depth[u] + 1
                    order.append(v)
        comp += 1
    tree = set(parent_edge)
    nontree = tuple(e for i, e in enumerate(edges) if i not in tree)
    return ConstraintGraph(
        spec.k, n, edges, nontree, *map(tuple, (component, parent, parent_edge, depth, order))
    )


def _constraint_graph(spec: FractalSpec) -> ConstraintGraph:
    """The `_forest` of the spec's `_near_pairs` edges on all its cells,
    whatever its nesting verdict, memoized on the spec."""
    return _memo(spec, "_graph", lambda s: _forest(s, range(s.n), _near_pairs(s).edges))


def _rotation_class(e: Adjacency, k: int) -> int | None:
    """Odd k: the rotation class of crossing edge a -> b, or None if illegal.

    +1 rotates by pi*(k+1)/k (j_b - j_a = (k+1)/2), -1 by pi*(k-1)/k
    (j_b - j_a = (k-1)/2).
    """
    d = (e.jb - e.ja) % k
    if d == (k + 1) // 2:
        return 1
    if d == (k - 1) // 2:
        return -1
    return None


class _Dihedral(NamedTuple):
    """A spec's `_dihedral` record, fields named as in `ValidationReport`
    but `rot`: the cell at zeta times each cell's scaled key, -1 where that
    point is no cell.  Every field but `central_cell` is None on a partial
    spec."""

    central_cell: int | None
    symmetry_witness: tuple[str, int] | None = None
    corner_key: tuple[int, ...] | None = None  # scaled key of the corner cell on the positive real axis
    corner_witness: int | None = None
    vertex_at_center: int | None = None
    rot: array | None = None


def _dihedral(spec: FractalSpec) -> _Dihedral:
    """The spec's `_Dihedral` record, memoized on the spec like `_near_pairs`
    and, like every record, built from the spec alone.

    Each of the spec's `_scaled_points` is rotated once and reflected
    across the real axis once, and the images are looked up in one key
    index.  The keys are distinct and each map is injective, so the set is
    D_k-invariant exactly when every image is a cell: rotation 1 generates
    the rotations, and on a zeta-invariant set reflection m is zeta^m after
    reflection 0.  The corner search reads the reflections, and the
    corner's orbit is a walk along `rot`.
    """
    def build(spec: FractalSpec) -> _Dihedral:
        points = _scaled_points(spec)
        central = next((i for i, key in enumerate(points) if not any(key)), None)
        if spec.partial:
            return _Dihedral(central)
        k, n = spec.k, spec.n
        rows = _reduction_rows(k)
        index_of = {key: i for i, key in enumerate(points)}
        rot = array("l", [index_of.get(_mapped_key(k, key, 1, 1), -1) for key in points])
        ref = [index_of.get(_mapped_key(k, key, 0, -1), -1) for key in points]
        symmetry = ("rotation", 1) if -1 in rot else ("reflection", 0) if -1 in ref else None
        # The corner cell sits at (L-1) * zeta^0 relative to the global
        # barycenter, and its outward vertex is a vertex of no other cell (it
        # is an essential fixed point's image); it need not be an outermost
        # cell.  Reflection fixes exactly the real keys, so `_real_sign`
        # decides the side and the outermost candidate exactly.  Scaled by n,
        # the tip of cell p is p + n, and cell jb shares it when it sits at
        # p + n - n * zeta^jb.
        steps = [tuple(n * (a - b) for a, b in zip(rows[0], rows[jb])) for jb in range(1, k)]
        corner = None
        for i, key in enumerate(points):
            if ref[i] != i or _real_sign(k, key) <= 0:
                continue
            if any(index_of.get(tuple(map(add, key, step)), i) != i for step in steps):
                continue
            if corner is None or _real_sign(k, tuple(map(sub, key, points[corner]))) > 0:
                corner = i
        corner_key = vertex_at_center = None
        if corner is None:
            uncovered = 0
        else:
            corner_key = points[corner]
            # the j-th cell of the walk sits at zeta^j times the corner's key
            uncovered, cell = None, corner
            for j in range(1, k):
                cell = rot[cell]
                if cell == -1:
                    uncovered = j
                    break
        if k > 3:
            # p + n * zeta^j = 0 exactly when key(p) = -n * row_j
            at_center = {tuple(-n * r for r in row) for row in rows}
            vertex_at_center = next((i for i, p in enumerate(points) if p in at_center), None)
        return _Dihedral(central, symmetry, corner_key, uncovered, vertex_at_center, rot)

    return _memo(spec, "_dk", build)


@dataclass(frozen=True)
class ValidationReport:
    connectivity_ok: bool
    component_count: int
    nesting_ok: bool
    nesting_witness: tuple[int, int] | None
    symmetry_ok: bool
    symmetry_witness: tuple[str, int] | None
    corner_ok: bool
    corner_witness: int | None
    odd_adjacency_ok: bool
    odd_adjacency_witness: tuple[int, int] | None
    central_cell: int | None
    central_ok: bool
    vertex_at_center: int | None

    @property
    def valid(self) -> bool:
        return (
            self.connectivity_ok
            and self.nesting_ok
            and self.symmetry_ok
            and self.corner_ok
            and self.odd_adjacency_ok
            and self.central_ok
        )

    def lines(self) -> list[str]:
        out = []
        out.append(
            f"connectivity: {'ok' if self.connectivity_ok else 'FAIL'}"
            f" ({self.component_count} component{'s' if self.component_count != 1 else ''})"
        )
        w = f" cells {self.nesting_witness}" if self.nesting_witness else ""
        out.append(f"nesting: {'ok' if self.nesting_ok else 'FAIL' + w}")
        w = f" {self.symmetry_witness}" if self.symmetry_witness else ""
        out.append(f"symmetry: {'ok' if self.symmetry_ok else 'FAIL' + w}")
        w = f" direction {self.corner_witness}" if self.corner_witness is not None else ""
        out.append(f"corner-coverage: {'ok' if self.corner_ok else 'FAIL' + w}")
        w = f" edge {self.odd_adjacency_witness}" if self.odd_adjacency_witness else ""
        out.append(f"odd-adjacency: {'ok' if self.odd_adjacency_ok else 'FAIL' + w}")
        if self.central_cell is not None:
            out.append(
                f"central-cell: index {self.central_cell}"
                f" ({'ok' if self.central_ok else 'FAIL'})"
            )
        elif self.vertex_at_center is not None:
            out.append(f"central-cell: FAIL vertex of cell {self.vertex_at_center} at barycenter")
        else:
            out.append("central-cell: none")
        out.append(f"valid: {'yes' if self.valid else 'no'}")
        return out


def validate(spec: FractalSpec) -> ValidationReport:
    """Check the configuration axioms and report per-axiom witnesses.

    Partial specs are exempt from the symmetry-class axioms (dihedral
    invariance, corner coverage, central-cell restrictions).
    """
    k = spec.k
    near = _near_pairs(spec)
    edges = near.edges
    # hull overlaps without shared vertices (or despite one) fail nesting too;
    # the first of them is sought only when no pair shares two vertices
    nesting_witness = near.violation or _first_conflict(spec)
    component_count = _constraint_graph(spec).component_count
    dk = _dihedral(spec)
    illegal = (e for e in edges if k % 2 == 1 and _rotation_class(e, k) is None)
    odd_adjacency_witness = next(((e.a, e.b) for e in illegal), None)
    central_ok = spec.partial or (
        (dk.central_cell is None or k in (3, 4, 6)) and dk.vertex_at_center is None
    )
    return ValidationReport(
        connectivity_ok=component_count == 1,
        component_count=component_count,
        nesting_ok=nesting_witness is None,
        nesting_witness=nesting_witness,
        symmetry_ok=dk.symmetry_witness is None,
        symmetry_witness=dk.symmetry_witness,
        corner_ok=dk.corner_witness is None,
        corner_witness=dk.corner_witness,
        odd_adjacency_ok=odd_adjacency_witness is None,
        odd_adjacency_witness=odd_adjacency_witness,
        central_cell=dk.central_cell,
        central_ok=central_ok,
        vertex_at_center=dk.vertex_at_center,
    )


def derive_scaling(spec: FractalSpec) -> CycInt:
    """The scaling factor L = 1 + b where b is the positive-real corner barycenter.

    The spec is recentred internally; the corner barycenter must be an
    exact cyclotomic integer after recentring.  L is real and exceeds 1
    because the corner search (`_dihedral`) takes only cells that
    reflection 0 fixes, at a position whose exact sign is positive.
    """
    if spec.partial:
        raise ScalingError("scaling factor is defined for non-partial specs only")
    k = spec.k
    n = spec.n
    corner_key = _dihedral(spec).corner_key
    if corner_key is None:
        raise ScalingError("no corner cell on the positive real axis")
    if any(c % n for c in corner_key):
        raise ScalingError("corner barycenter is not integral after recentring")
    # b = p / n has the reduced quotient as its coefficients (as cyc_div_int
    # gives them), and L = b + 1; the keys follow by linearity
    quot = [c // n for c in corner_key]
    key = tuple(map(add, quot, _reduction_rows(k)[0]))
    quot += [0] * (k - len(quot))
    quot[0] += 1
    return _preset(k, tuple(quot), key)


def parse(text: str) -> FractalSpec:
    """Read the plain text format: `snf k=<int>[ partial]` then `cell c0 .. c{k-1}` lines."""
    header: str | None = None
    cell_rows: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if header is None:
            header = line
            continue
        parts = line.split()
        if parts[0] != "cell":
            raise ParseError(f"line {lineno}: expected a cell line, got {line!r}")
        try:
            cell_rows.append(tuple(map(int, parts[1:])))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad integer in {line!r}") from exc
    if header is None:
        raise ParseError("missing header line")
    parts = header.split()
    if not parts or parts[0] != "snf" or len(parts) < 2 or not parts[1].startswith("k="):
        raise ParseError(f"bad header {header!r}")
    try:
        k = int(parts[1][2:])
    except ValueError as exc:
        raise ParseError(f"bad k in header {header!r}") from exc
    partial = False
    if len(parts) == 3 and parts[2] == "partial":
        partial = True
    elif len(parts) > 2:
        raise ParseError(f"unexpected tokens in header {header!r}")
    if not 3 <= k <= 36:
        raise ParseError(f"k must be in 3..36, got {k}")
    if not cell_rows:
        raise ParseError("no cell lines")
    for row in cell_rows:
        if len(row) != k:
            raise ParseError(f"expected {k} coefficients per cell, got {len(row)}")
    try:
        return make_spec(k, [CycInt(k, row) for row in cell_rows], partial)
    except SpecError as exc:
        raise ParseError(str(exc)) from exc


def serialize(spec: FractalSpec) -> str:
    """Canonical text form; bit-exact round-trip with parse."""
    head = f"snf k={spec.k}"
    if spec.partial:
        head += " partial"
    lines = [head]
    for cell in spec.cells:
        lines.append("cell " + " ".join(str(c) for c in cell.barycenter.coeffs))
    return "\n".join(lines) + "\n"


def _pentagon_ring() -> FractalSpec:
    """Five cells chained around a ring by partial sums of rotated legal steps."""
    k = 5
    s = cyc_sub(zeta(k, 2), zeta(k, 4))
    cells = []
    pos = zero(k)
    for q in range(k):
        cells.append(pos)
        pos = cyc_add(pos, cyc_rotate(s, q))
    return make_spec(k, cells)


_CATALOG: dict[str, Callable[[], FractalSpec]] = {
    "sierpinski-gasket": lambda: make_spec(3, [zeta(3, j) for j in range(3)]),
    "vicsek-cross": lambda: make_spec(4, [zero(4)] + [zeta(4, j, 2) for j in range(4)]),
    "sierpinski-hexagon": lambda: make_spec(6, [zeta(6, j, 2) for j in range(6)]),
    "lindstrom-snowflake": lambda: make_spec(6, [zeta(6, j, 2) for j in range(6)] + [zero(6)]),
    "pentagon-ring": _pentagon_ring,
}
CATALOG_NAMES = tuple(_CATALOG)


def catalog(name: str) -> FractalSpec:
    """Named reference configurations."""
    if name not in _CATALOG:
        raise ValueError(f"unknown catalog name {name!r}; choose from {', '.join(CATALOG_NAMES)}")
    return _CATALOG[name]()
