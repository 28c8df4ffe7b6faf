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
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from operator import add, sub

from .cyclotomic import (
    CycInt,
    _embed,
    _mapped_key,
    _preset,
    _reduction_rows,
    cyc_add,
    cyc_is_zero,
    cyc_rotate,
    cyc_sub,
    cyc_unit_translate_keys,
    cyc_unit_translates,
    from_coeffs,
    to_cartesian,
    zero,
    zeta,
)

HULL_EPS = 1e-6

CATALOG_NAMES = (
    "sierpinski-gasket",
    "vicsek-cross",
    "sierpinski-hexagon",
    "lindstrom-snowflake",
    "pentagon-ring",
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
    """A configuration; immutable, its `_near_pairs` and `_vertex_keys` memos
    each written at most once with equal values, so a spec can be shared
    across threads."""

    k: int
    cells: tuple[Cell, ...]
    partial: bool = False
    _near: _NearPairs | None = field(default=None, init=False, repr=False, compare=False)
    _vkeys: tuple[list[tuple[int, ...]], ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

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

    def barycenters(self) -> list[CycInt]:
        return [c.barycenter for c in self.cells]


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


def _vertex_keys(spec: FractalSpec) -> tuple[list[tuple[int, ...]], ...]:
    """Per cell, the canonical keys key(b) + row_j of its vertices in order,
    built once per spec and memoized on it like `_near_pairs`."""
    keys = spec._vkeys
    if keys is None:
        keys = tuple(cyc_unit_translate_keys(cell.barycenter) for cell in spec.cells)
        object.__setattr__(spec, "_vkeys", keys)
    return keys


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
def _support_table(k: int) -> tuple[tuple[float, float, float], ...]:
    """Per edge i of the unit k-gon: outward normal (nx, ny) and the width w along it.

    The normal is the edge vector v_{i+1} - v_i turned clockwise, so it has
    the edge's length, not unit length; HULL_EPS is measured in that scale.
    """
    poly = [to_cartesian(zeta(k, j)) for j in range(k)]
    table = []
    for i in range(k):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % k]
        nx, ny = y1 - y0, x0 - x1
        proj = [nx * x + ny * y for x, y in poly]
        table.append((nx, ny, max(proj) - min(proj)))
    return tuple(table)


def _hulls_overlap(k: int, dx: float, dy: float) -> bool:
    """Do the open interiors of unit k-gons P and (dx, dy) + P intersect?

    They do exactly when the offset lies inside the difference body P - P
    (2P for even k, a regular 2k-gon for odd k), whose facet normals are
    the k edge normals of P up to sign.  On normal n the two projections
    overlap by w - |<delta, n>|, the separating-axis gap of the two
    polygons; a gap <= HULL_EPS on some normal means separated or merely
    touching.
    """
    for nx, ny, w in _support_table(k):
        if w - abs(nx * dx + ny * dy) <= HULL_EPS:
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
    `_conflict_steps`, any other delta is embedded alone for the distance
    and `_hulls_overlap` tests."""
    if delta in _step_table(k):
        return delta in _conflict_steps(k)
    dx, dy = _embed(k, delta)
    return dx * dx + dy * dy < 4.0 and _hulls_overlap(k, dx, dy)


def _scaled_points(
    spec: FractalSpec,
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """n * (barycenter - global barycenter) for every cell, exact and integral,
    as (coefficient vectors, canonical keys); no CycInt is built.

    The coefficients n*b - sum(b) are Python ints, so they have no range
    limit.  Reduction is linear, so the keys are n*key(b) - sum(key(b)).
    """
    n = spec.n
    coeffs = [c.barycenter.coeffs for c in spec.cells]
    keys = [c.barycenter.canonical_key() for c in spec.cells]
    out = []
    for rows in (coeffs, keys):
        total = [sum(col) for col in zip(*rows)]
        out.append([tuple([n * c - t for c, t in zip(row, total)]) for row in rows])
    return out[0], out[1]


@dataclass(frozen=True)
class Adjacency:
    """Cell pair sharing exactly one vertex, with the shared vertex indices."""

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


_NearPairs = tuple[
    tuple[Adjacency, ...],
    tuple[int, int] | None,
    tuple[tuple[int, int], ...],
]


def _near_pairs(spec: FractalSpec) -> _NearPairs:
    """(edges, first pair sharing >= 2 vertices, the close pairs whose key
    difference is no vertex step) from one pass over `_close_pairs(spec)`,
    memoized on the spec.

    Shared vertices and conflicts force barycenter distance <= 2, so only
    close pairs qualify; they come sorted, so the edges are in (a, b) order.
    Each pair's delta = key(j) - key(i) is formed once and only looked up:
    a pair that is no vertex step is embedded by `_first_conflict` alone.
    """
    near = spec._near
    if near is None:
        table = _step_table(spec.k)
        keys = [c.barycenter.canonical_key() for c in spec.cells]
        edges: list[Adjacency] = []
        others: list[tuple[int, int]] = []
        violation = None
        for i, j in _close_pairs(spec):
            pairs = table.get(tuple(map(sub, keys[j], keys[i])))
            if pairs is None:
                others.append((i, j))
            elif len(pairs) == 1:
                # delta = b_j - b_i = zeta^ja - zeta^jb with ja indexing cell i.
                edges.append(Adjacency(i, j, *pairs[0]))
            elif violation is None:
                violation = (i, j)
        near = (tuple(edges), violation, tuple(others))
        object.__setattr__(spec, "_near", near)
    return near


def _first_conflict(spec: FractalSpec) -> tuple[int, int] | None:
    """The first close pair, in pair order, whose cells conflict.

    Precondition: no pair shares two or more vertices.  Then the first
    conflicting vertex step is the first edge (edges are in pair order)
    whose polygons overlap at the shared vertex.  Pairs that are no vertex
    step are embedded here, on demand, and only those that come before it.
    """
    edges, _, others = _near_pairs(spec)
    k = spec.k
    conflict = next(((e.a, e.b) for e in edges if _overlap_at_vertex(k, e.ja, e.jb)), None)
    for i, j in others:
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
    edges, violation, _ = _near_pairs(spec)
    return list(edges), violation


def _forest(
    n: int, edges: list[Adjacency]
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Breadth-first spanning forest as (component, parent, parent_edge, depth).

    Each component is rooted at its lowest-index cell; parent and
    parent_edge (an index into edges) are -1 at the roots.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for idx, e in enumerate(edges):
        adj[e.a].append((e.b, idx))
        adj[e.b].append((e.a, idx))
    for lst in adj:
        lst.sort()
    component = [-1] * n
    parent = [-1] * n
    parent_edge = [-1] * n
    depth = [0] * n
    comp = 0
    for root in range(n):
        if component[root] != -1:
            continue
        component[root] = comp
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, idx in adj[u]:
                if component[v] == -1:
                    component[v] = comp
                    parent[v] = u
                    parent_edge[v] = idx
                    depth[v] = depth[u] + 1
                    queue.append(v)
        comp += 1
    return component, parent, parent_edge, depth


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


def _find_corner(
    spec: FractalSpec,
    coeffs: list[tuple[int, ...]],
    keys: list[tuple[int, ...]],
    mirrored: list[tuple[int, ...]],
) -> int | None:
    """Index of the corner cell on the positive real axis, if any.

    `coeffs` and `keys` are the `_scaled_points` of the spec, and
    `mirrored` holds the keys reflected across the real axis.  A corner
    cell sits at (L-1) * zeta^0 relative to the global barycenter and its
    outward vertex is a vertex of no other cell (it is an essential fixed
    point image).  Corner cells need not be the outermost cells of the
    configuration.

    The centre is excluded by its key and the side is the float sign of
    x, which can be wrong only for a real point other than the centre
    within `_embed_error` of the origin.
    """
    k = spec.k
    n = spec.n
    index_of = {key: i for i, key in enumerate(keys)}
    rows = _reduction_rows(k)
    # scaled by n, the tip of cell p is p + n and cell jb shares it when it
    # sits at p + n - n * zeta^jb
    steps = [tuple(n * (a - b) for a, b in zip(rows[0], rows[jb])) for jb in range(1, k)]
    best: tuple[float, int] | None = None
    for i, key in enumerate(keys):
        if mirrored[i] != key or not any(key):
            continue
        x, _ = _embed(k, coeffs[i])
        if x <= 0:
            continue
        if any(index_of.get(tuple(map(add, key, step)), i) != i for step in steps):
            continue
        if best is None or x > best[0]:
            best = (x, i)
    return best[1] if best else None


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
    n = spec.n
    edges, violation, _ = _near_pairs(spec)
    # hull overlaps without shared vertices (or despite one) fail nesting too;
    # the first of them is sought only when no pair shares two vertices
    nesting_witness = violation or _first_conflict(spec)
    nesting_ok = nesting_witness is None

    component_count = max(_forest(n, edges)[0]) + 1
    connectivity_ok = component_count == 1

    coeffs, keys = _scaled_points(spec)

    symmetry_ok = True
    symmetry_witness: tuple[str, int] | None = None
    corner_ok = True
    corner_witness: int | None = None
    vertex_at_center: int | None = None
    if not spec.partial:
        # the keys are distinct and each map is injective, so the set is
        # invariant exactly when every image is a member
        key_set = set(keys)
        mirrored = [_mapped_key(k, key, 0, -1) for key in keys]
        if any(_mapped_key(k, key, 1, 1) not in key_set for key in keys):
            symmetry_ok = False
            symmetry_witness = ("rotation", 1)
        # on a zeta-invariant set reflection m is zeta^m after reflection 0
        elif any(key not in key_set for key in mirrored):
            symmetry_ok = False
            symmetry_witness = ("reflection", 0)

        corner = _find_corner(spec, coeffs, keys, mirrored)
        if corner is None:
            corner_ok = False
            corner_witness = 0
        else:
            for j in range(1, k):
                if _mapped_key(k, keys[corner], j, 1) not in key_set:
                    corner_ok = False
                    corner_witness = j
                    break

        if k > 3:
            # p + n * zeta^j = 0 exactly when key(p) = -n * row_j
            at_center = {tuple(-n * r for r in row) for row in _reduction_rows(k)}
            for i, key in enumerate(keys):
                if key in at_center:
                    vertex_at_center = i
                    break

    odd_adjacency_ok = True
    odd_adjacency_witness: tuple[int, int] | None = None
    if k % 2 == 1:
        for e in edges:
            if _rotation_class(e, k) is None:
                odd_adjacency_ok = False
                odd_adjacency_witness = (e.a, e.b)
                break

    central_cell: int | None = None
    for i, key in enumerate(keys):
        if not any(key):
            central_cell = i
            break
    central_ok = spec.partial or (
        (central_cell is None or k in (3, 4, 6)) and vertex_at_center is None
    )

    return ValidationReport(
        connectivity_ok=connectivity_ok,
        component_count=component_count,
        nesting_ok=nesting_ok,
        nesting_witness=nesting_witness,
        symmetry_ok=symmetry_ok,
        symmetry_witness=symmetry_witness,
        corner_ok=corner_ok,
        corner_witness=corner_witness,
        odd_adjacency_ok=odd_adjacency_ok,
        odd_adjacency_witness=odd_adjacency_witness,
        central_cell=central_cell,
        central_ok=central_ok,
        vertex_at_center=vertex_at_center,
    )


def derive_scaling(spec: FractalSpec) -> CycInt:
    """The scaling factor L = 1 + b where b is the positive-real corner barycenter.

    The spec is recentred internally; the corner barycenter must be an
    exact cyclotomic integer after recentring and L must be real with
    real part above 1.
    """
    if spec.partial:
        raise ScalingError("scaling factor is defined for non-partial specs only")
    k = spec.k
    n = spec.n
    coeffs, keys = _scaled_points(spec)
    mirrored = [_mapped_key(k, key, 0, -1) for key in keys]
    corner = _find_corner(spec, coeffs, keys, mirrored)
    if corner is None:
        raise ScalingError("no corner cell on the positive real axis")
    if any(c % n for c in keys[corner]):
        raise ScalingError("corner barycenter is not integral after recentring")
    # b = p / n has the reduced quotient as its coefficients (as cyc_div_int
    # gives them), and L = b + 1; the keys follow by linearity
    quot = [c // n for c in keys[corner]]
    key = tuple(map(add, quot, _reduction_rows(k)[0]))
    quot += [0] * (k - len(quot))
    quot[0] += 1
    scaling = _preset(k, tuple(quot), key)
    if _mapped_key(k, key, 0, -1) != key:
        raise ScalingError("scaling factor is not real")
    if to_cartesian(scaling)[0] <= 1.0:
        raise ScalingError("scaling factor must exceed 1")
    return scaling


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
    assert cyc_is_zero(pos)
    return make_spec(k, cells)


def catalog(name: str) -> FractalSpec:
    """Named reference configurations."""
    if name == "sierpinski-gasket":
        return make_spec(3, [zeta(3, j) for j in range(3)])
    if name == "vicsek-cross":
        return make_spec(4, [zero(4)] + [zeta(4, j, 2) for j in range(4)])
    if name == "sierpinski-hexagon":
        return make_spec(6, [zeta(6, j, 2) for j in range(6)])
    if name == "lindstrom-snowflake":
        return make_spec(6, [zeta(6, j, 2) for j in range(6)] + [zero(6)])
    if name == "pentagon-ring":
        return _pentagon_ring()
    raise ValueError(f"unknown catalog name {name!r}; choose from {', '.join(CATALOG_NAMES)}")
