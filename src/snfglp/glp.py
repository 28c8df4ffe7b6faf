"""Deciding the good labeling property (GLP).

A configuration has GLP when every cell can be assigned a rotation
offset r in Z_k such that the induced vertex labels (vertex j of a cell
with offset r gets label (j + r) mod k) agree at every shared vertex.
Sharing vertex indices (j_a, j_b) forces r_b - r_a = j_a - j_b mod k,
so the offsets form a difference-constraint system over Z_k whose only
obstructions are cycles with nonzero weight sum.

Deciders provided:
  * decide_glp       -- spanning-forest propagation, any k.
  * decide_glp_even  -- bipartiteness of the adjacency graph (even k).
  * decide_glp_odd   -- rotation-count criterion k | (c - d) (odd k).
  * glp_via_slices   -- reduction to the cells near one closed wedge.

The three forest deciders share one kernel and differ only in the edge
map (Z_k weight, parity, or +-1 rotation class); the odd decider derives
its offsets from the rotation counts.  The slice route runs the general
decider's kernel on the forest of its region's cells, in the spec's own
indices (`model._forest`), and carries the region's offsets to every cell
along the rotation permutation of the dihedral record (`model._dihedral`).

A labeling is fixed by its offsets.  Its vertex labels are stored in a
list indexed by the spec's vertex ids (`model._vertex_ids`, read off the
near-pair record the deciders use, so no vertex key is built) and checked
for consistency as they are stored: at once by `make_labeling`, on first
read for the labeling a decider returns, which a caller that needs only
the offsets never reads.  Vertex values are built only when the labels
are iterated.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property

from .cyclotomic import (
    CycInt,
    _embed,
    _embed_error,
    _mapped_key,
    _real_sign,
    _twice_dot,
    _unit_circle,
    cyc_unit_translates,
)
from .model import (
    Adjacency,
    ConstraintGraph,
    FractalSpec,
    SpecError,
    _constraint_graph,
    _dihedral,
    _forest,
    _memo,
    _near_pairs,
    _rotation_class,
    _scaled_points,
    _vertex_ids,
    _vertex_key_stream,
    edge_weight,
    make_spec,
)


class DisconnectedSpec(ValueError):
    """Raised when a decider needs a connected non-partial configuration."""


class LabelingError(ValueError):
    """Raised when a labeling does not cover every vertex of the spec."""


@dataclass(frozen=True)
class Labeling:
    """Per-cell offsets and the vertex labels they induce.

    `labels` may be a plain dict.  From `make_labeling` or a decider it is
    a read-only mapping (`_VertexLabels`) that holds one label per vertex
    id of its spec, a list of small ints cached by `cached_property` on
    first read: lookups build no vertex value, and iterating it builds the
    vertex values.
    """

    k: int
    offsets: dict[int, int]
    labels: Mapping[CycInt, int]


class _VertexLabels(Mapping[CycInt, int]):
    """Labels of the vertices of `spec` under per-cell `offsets` (indexed
    by cell index), one per vertex id of the spec (`_vertex_ids`).

    The label list and the key index a lookup by value needs are each a
    `cached_property`: built when first read, stored whole, and equal
    whichever thread builds it, so the mapping can be shared across
    threads.  An order-k CycInt is looked up by its canonical key;
    iteration builds each vertex value when first seen in cell order, and
    the repr builds none.
    """

    def __init__(self, spec: FractalSpec, offsets: Mapping[int, int]):
        self._spec = spec
        self._offsets = offsets

    @cached_property
    def _by_id(self) -> list[int]:
        """Label (j + r) mod k of vertex j of each cell with offset r, by
        vertex id, so no vertex value or key is kept.  Raises SpecError
        where two cells give one vertex different labels."""
        spec = self._spec
        k = spec.k
        ids, count = _vertex_ids(spec)
        labels = [None] * count
        for i in range(spec.n):
            r = self._offsets[i]
            for j, v in enumerate(ids[i * k:(i + 1) * k]):
                lab = (j + r) % k
                if labels[v] is None:
                    labels[v] = lab
                elif labels[v] != lab:
                    raise SpecError(f"offsets disagree at a shared vertex of cell {i}")
        return labels

    @cached_property
    def _by_key(self) -> dict[tuple[int, ...], int]:
        """Label by vertex key, for lookups by value."""
        labels = self._by_id
        ids, _ = _vertex_ids(self._spec)
        return {key: labels[v] for v, key in zip(ids, _vertex_key_stream(self._spec))}

    def __getitem__(self, v: CycInt) -> int:
        if isinstance(v, CycInt) and v.order == self._spec.k:
            return self._by_key[v.canonical_key()]
        raise KeyError(v)

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[CycInt]:
        self._by_id  # offsets that disagree raise here, as on any read
        k = self._spec.k
        ids, _ = _vertex_ids(self._spec)
        seen = 0  # ids are numbered as first seen in cell order
        for i, cell in enumerate(self._spec.cells):
            for v, value in zip(ids[i * k:(i + 1) * k], cyc_unit_translates(cell.barycenter)):
                if v == seen:
                    seen += 1
                    yield value

    def __repr__(self) -> str:
        return f"<vertex labels of {self._spec.n} order-{self._spec.k} cells>"


@dataclass(frozen=True)
class Verdict:
    glp: bool
    labeling: Labeling | None = None
    witness: tuple[int, ...] | None = None
    classes: dict[int, int] | None = None

    def serialize(self) -> str:
        if self.glp:
            lines = ["GLP"]
            assert self.labeling is not None
            for i in sorted(self.labeling.offsets):
                lines.append(f"offset {i} {self.labeling.offsets[i]}")
        else:
            assert self.witness is not None
            lines = ["NOGLP", "cycle " + " ".join(str(i) for i in self.witness)]
        return "\n".join(lines) + "\n"


def _require_nested(violation: tuple[int, int] | None) -> None:
    """Raise SpecError for a pair of cells sharing >= 2 vertices."""
    if violation is not None:
        raise SpecError(f"cells {violation} violate nesting (share >= 2 vertices)")


def build_constraint_graph(spec: FractalSpec) -> ConstraintGraph:
    """Adjacency graph with Z_k weights, spanning forest, and fundamental edges.

    Deterministic: edges sorted by (a, b), forest grown breadth-first
    from the lowest-index cell of each component.  The graph is the
    spec's memoized record (`model._constraint_graph`), shared by every
    caller.  Pairs sharing two or more vertices are rejected here, on every
    call, from the near-pair record; hull overlaps without shared vertices
    are validate's concern.
    """
    _require_nested(_near_pairs(spec).violation)
    return _constraint_graph(spec)


def _tree_cycle(graph: ConstraintGraph, u: int, v: int) -> tuple[int, ...]:
    """Cells along the fundamental cycle of non-tree edge (u, v): u .. lca .. v.

    u's ancestor chain is listed up to its root; then v climbs until it
    reaches a cell of that chain, the lowest common ancestor.  The forest
    is read through `parent` alone, in time linear in u's depth.
    """
    up = [u]
    while graph.parent[up[-1]] != -1:
        up.append(graph.parent[up[-1]])
    at = {c: i for i, c in enumerate(up)}
    down = [v]
    while down[-1] not in at:
        down.append(graph.parent[down[-1]])
    return tuple(up[:at[down[-1]] + 1] + down[:-1][::-1])


def fundamental_cycles(graph: ConstraintGraph) -> list[tuple[int, ...]]:
    """One cycle per non-tree edge, in deterministic edge order."""
    return [_tree_cycle(graph, e.a, e.b) for e in graph.nontree]


def cycle_weight(spec: FractalSpec, cycle: tuple[int, ...]) -> int:
    """Directed weight sum around a cell cycle, mod k."""
    weight = build_constraint_graph(spec).weight
    return sum(weight(u, cycle[(i + 1) % len(cycle)]) for i, u in enumerate(cycle)) % spec.k


def make_labeling(spec: FractalSpec, offsets: dict[int, int]) -> Labeling:
    """Vertex labels induced by per-cell offsets: vertex j gets (j + r) mod k.

    The labels are built and checked here, not on first read.
    """
    labeling = _decided_labeling(spec, dict(offsets))
    labeling.labels._by_id
    return labeling


def _decided_labeling(spec: FractalSpec, offsets: dict[int, int]) -> Labeling:
    """The labeling of `offsets`, one per cell index, which it keeps as its
    own: its offsets and its labels' are one dict.  Labels are built on
    first read."""
    return Labeling(spec.k, offsets, _VertexLabels(spec, offsets))


def _connected_graph(spec: FractalSpec) -> ConstraintGraph:
    """`build_constraint_graph`; DisconnectedSpec if a non-partial spec's
    graph has two or more components."""
    graph = build_constraint_graph(spec)
    if not spec.partial and graph.component_count > 1:
        raise DisconnectedSpec(
            f"non-partial spec has {graph.component_count} components"
        )
    return graph


def _forest_sums(
    graph: ConstraintGraph, m: int, edge_map: Callable[[Adjacency], int]
) -> tuple[list[int | None], tuple[int, ...] | None]:
    """Per-cell sums in Z_m of the mapped edge steps down the graph's
    spanning forest, None at the cells outside it.

    Every edge a -> b is mapped first, in edge order.  Also returns the
    fundamental cycle of the first edge the sums contradict, or None; tree
    edges agree by construction, so that edge is a non-tree edge.
    """
    steps = [edge_map(e) for e in graph.edges]
    sums: list[int | None] = [None] * graph.n
    for v in graph.order:
        u = graph.parent[v]
        if u == -1:
            sums[v] = 0
        else:
            idx = graph.parent_edge[v]
            step = steps[idx] if graph.edges[idx].a == u else -steps[idx]
            sums[v] = (sums[u] + step) % m
    for e, step in zip(graph.edges, steps):
        if (sums[e.a] + step - sums[e.b]) % m:
            return sums, _tree_cycle(graph, e.a, e.b)
    return sums, None


def decide_glp(spec: FractalSpec) -> Verdict:
    """General decider: propagate offsets over the forest, check non-tree edges.

    Partial specs may be disconnected; each component is labeled
    independently with its root offset normalized to 0.
    """
    k = spec.k
    r, witness = _forest_sums(_connected_graph(spec), k, lambda e: edge_weight(e, k))
    if witness is not None:
        return Verdict(glp=False, witness=witness)
    return Verdict(glp=True, labeling=_decided_labeling(spec, dict(enumerate(r))))


def decide_glp_even(spec: FractalSpec) -> Verdict:
    """Even-k decider: GLP iff the adjacency graph is bipartite.

    Every edge weight is k/2: zeta^(j + k/2) = -zeta^j, so
    zeta^ja - zeta^jb = zeta^(jb + k/2) - zeta^(ja + k/2), and the step
    table lists both index pairs for that difference.  They are one pair
    only when ja - jb = k/2 mod k; any other pair shares two vertices, a
    nesting violation and never an edge.  So a cycle violates exactly
    when its length is odd.  On success the verdict carries the two
    classes (1 and 2) and the offsets 0 / k/2 they induce.
    """
    k = spec.k
    if k % 2 != 0:
        raise ValueError("decide_glp_even requires even k")
    color, witness = _forest_sums(_connected_graph(spec), 2, lambda e: 1)
    if witness is not None:
        return Verdict(glp=False, witness=witness)
    offsets = [c * (k // 2) for c in color]
    classes = {i: c + 1 for i, c in enumerate(color)}
    return Verdict(glp=True, labeling=_decided_labeling(spec, dict(enumerate(offsets))), classes=classes)


def decide_glp_odd(spec: FractalSpec) -> Verdict:
    """Odd-k decider: every cycle's rotation counts must satisfy k | (c - d).

    Traversing an edge a -> b rotates the cell by angle pi*(k+1)/k
    (class +1, shared indices j_b - j_a = (k+1)/2) or pi*(k-1)/k
    (class -1, j_b - j_a = (k-1)/2); c and d count the two classes
    around a cycle.  A weight is -(k+1)/2 (the inverse of -2 mod k) times
    the class, so the offsets are -(k+1)/2 times the forest sums of c - d.
    """
    k = spec.k
    if k % 2 != 1:
        raise ValueError("decide_glp_odd requires odd k")

    def rotation_class(e: Adjacency) -> int:
        cls = _rotation_class(e, k)
        if cls is None:
            raise SpecError(f"edge ({e.a}, {e.b}) has shared-index difference "
                            f"{(e.jb - e.ja) % k}; odd-k adjacency must rotate by (k+-1)/k * pi")
        return cls

    rho, witness = _forest_sums(_connected_graph(spec), k, rotation_class)
    if witness is not None:
        return Verdict(glp=False, witness=witness)
    offsets = [-((k + 1) // 2) * c % k for c in rho]
    return Verdict(glp=True, labeling=_decided_labeling(spec, dict(enumerate(offsets))))


@dataclass(frozen=True)
class KClassification:
    """`classify_k`'s answer: why every configuration of order k has GLP
    ('prime' or 'power_of_two'), or None when that depends on the
    configuration; `always_glp` is read off it."""

    reason: str | None

    @property
    def always_glp(self) -> bool:
        return self.reason is not None

    def __str__(self) -> str:
        return f"AlwaysGLP({self.reason})" if self.always_glp else "Conditional"


# The prime bases of the primality test, and psi_13 (OEIS A014233): the
# least composite that is a strong probable prime to all of them.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3_317_044_064_679_887_385_961_981


def _strong_probable_prime(k: int, a: int) -> bool:
    """k passes the strong probable-prime test to base a: with k - 1 = d * 2^s,
    d odd, a^d = 1 or a^(d * 2^r) = -1 mod k for some r < s."""
    s = ((k - 1) & (1 - k)).bit_length() - 1
    x = pow(a, (k - 1) >> s, k)
    return x == 1 or any(pow(x, 1 << r, k) == k - 1 for r in range(s))


def classify_k(k: int) -> KClassification:
    """Fast classification: prime or power-of-two k always has GLP.

    k is prime when it is a strong probable prime to each of
    `_PRIME_BASES` below it.  That is exact below `_PSI_13`: a k up to 41
    is tested to base 2 at least, whose least strong pseudoprime is 2047,
    and from k = 42 on every base is below k.
    k at or above `_PSI_13` raises ValueError.

    Each class has a labeling read off the barycenters alone.  Two adjacent
    cells differ by zeta^ja - zeta^jb and need r_b - r_a = ja - jb mod k.
    For prime k, r_c = sum(i * c_i) mod k over the coefficients c_i of b_c
    gives exactly that, and adding a multiple of Phi_k (all ones) changes
    it by a multiple of k(k - 1)/2, so it depends on the point only.  For
    k = 2^m every step is zeta^ja - zeta^(ja + k/2) = 2 zeta^ja, whose
    canonical key sums to +-2, so r_c = (k/2) * ((sum of key(b_c - b_0)) / 2
    mod 2) flips by k/2 across every edge.  `tests/test_certificates.py`
    checks both against the deciders' offsets.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    if k >= _PSI_13:
        raise ValueError(f"k must be below {_PSI_13} (psi_13) to be classified")
    if all(_strong_probable_prime(k, a) for a in _PRIME_BASES if a < k):
        return KClassification("prime")
    if k & (k - 1) == 0:
        return KClassification("power_of_two")
    return KClassification(None)


@dataclass(frozen=True)
class SliceAssignment:
    k: int
    sector: tuple[int | None, ...]  # 1..k, or None for the central cell

    def cells_in(self, i: int) -> list[int]:
        return [idx for idx, s in enumerate(self.sector) if s == i]

    @property
    def central_cells(self) -> list[int]:
        return [idx for idx, s in enumerate(self.sector) if s is None]


def _sectors(spec: FractalSpec) -> tuple[tuple[int | None, ...], tuple[int | None, ...]]:
    """Per cell: its open sector, and the other closed slice it is in
    (None for none); kept in the spec's record table by its callers' `_memo`.

    Sector i covers angles in ((i-1) * 2pi/k, i * 2pi/k]; a cell exactly
    on a vertex ray belongs to the sector whose counter-clockwise edge
    that ray is, and it is also in the next closed slice, i % k + 1, whose
    clockwise edge the ray is.  The central cell (barycenter at the global
    barycenter) belongs to no sector and lies on no ray.

    A cell's position p is its key in the spec's `_scaled_points`.
    Sector i holds p when p is left of ray i-1 and not left of ray i.  The
    side of ray j, the sign of the cross product of zeta^j and p, is the
    float's when it clears 3E (see `glp_via_slices`); else 0 when
    reflection 2j fixes the key; else the sign of the real element
    `_twice_dot`(p, j + 1) - `_twice_dot`(p, j - 1) = 4 sin(2pi/k) Im(w),
    w = p * zeta^-j.
    The walk starts at the sector of the float angle and moves one sector
    at a time, and it is monotone: a move up needs side[i] > 0, which is
    the next side[i-1], and a move down needs side[i-1] <= 0, the next
    side[i].  So with consistent exact signs it settles within k - 1
    moves; ArithmeticError, naming the key, is raised after k.
    """
    k = spec.k
    circle = _unit_circle(k)
    sector: list[int | None] = []
    also: list[int | None] = []
    for key in _scaled_points(spec):
        if not any(key):
            sector.append(None)
            also.append(None)
            continue
        x, y = _embed(k, key)
        e = 3 * _embed_error(k, key)
        i = math.floor(math.atan2(y, x) * k / (2 * math.pi)) + 1
        side: dict[int, float] = {}
        for _ in range(k):
            for j in {i - 1, i} - side.keys():
                cos, sin = circle[j % k]
                side[j] = cos * y - sin * x
                if abs(side[j]) <= e and _mapped_key(k, key, 2 * j, -1) == key:
                    side[j] = 0
                elif abs(side[j]) <= e:
                    ahead, behind = _twice_dot(k, key, j + 1), _twice_dot(k, key, j - 1)
                    side[j] = _real_sign(k, tuple(a - b for a, b in zip(ahead, behind)))
            if side[i - 1] > 0 >= side[i]:
                break
            i += 1 if side[i - 1] > 0 else -1
        else:
            raise ArithmeticError(f"the sector walk of key {key} does not settle in {k} moves")
        sector.append((i - 1) % k + 1)
        also.append(i % k + 1 if side[i] == 0 else None)
    return tuple(sector), tuple(also)


def slices(spec: FractalSpec) -> SliceAssignment:
    """Assign each cell to the angular sector holding its barycenter (see `_sectors`)."""
    return SliceAssignment(spec.k, _memo(spec, "sect", _sectors)[0])


def closed_slices(spec: FractalSpec) -> list[frozenset[int]]:
    """Cell sets of the closed slices; on-axis cells belong to both neighbors.

    Entry i-1 holds closed slice i: open sector i (`slices`) and the cells
    on its clockwise ray, whose other closed slice `_sectors` records as i.
    The central cell is in no closed slice.  The list is new on every call.
    """
    members: list[set[int]] = [set() for _ in range(spec.k)]
    for idx, (s, also) in enumerate(zip(*_memo(spec, "sect", _sectors))):
        if s is None:
            continue
        members[s - 1].add(idx)
        if also is not None:
            members[also - 1].add(idx)
    return [frozenset(m) for m in members]


def _slice_ids(k: int, ids) -> list[int]:
    ids = sorted(set(ids))
    if not ids:
        raise ValueError("empty slice selection")
    for i in ids:
        if not 1 <= i <= k:
            raise ValueError(f"slice id {i} out of range 1..{k}")
    return ids


def slice_subspec(spec: FractalSpec, ids, closed: bool = False) -> FractalSpec:
    """Partial spec of the chosen (closed) slices, cells in original order.

    A cell is in open slice s (`slices`), and a cell on a vertex ray is
    also in the closed slice that `_sectors` records beside s
    (`closed_slices`).
    """
    k = spec.k
    ids = _slice_ids(k, ids)
    chosen = [cell.barycenter for cell, s, also in zip(spec.cells, *_memo(spec, "sect", _sectors))
              if s in ids or closed and also in ids]
    if not chosen:
        raise ValueError("selected slices contain no cells")
    return make_spec(k, chosen, partial=True)


def _region(k: int, keys: list[tuple[int, ...]], n: int) -> tuple[int, ...]:
    """The cells whose scaled position (`_scaled_points` key) is within n of
    the closed wedge of angles [0, 2pi/k] (even k) or [0, 4pi/k] (odd k),
    float error counted toward inclusion; see `glp_via_slices`."""
    c, s = _unit_circle(k)[1 + k % 2]
    chosen = []
    for i, key in enumerate(keys):
        x, y = _embed(k, key)
        e = 5 * _embed_error(k, key)
        dot, cross = c * x + s * y, c * y - s * x
        ray = min(math.hypot(min(x, 0.0), y), math.hypot(min(dot, 0.0), cross))
        if ray - e <= n or (y >= -e and cross <= e):
            chosen.append(i)
    return tuple(chosen)


def _slice_region(spec: FractalSpec) -> tuple[tuple[int, ...], ConstraintGraph]:
    """The `_region` cells of a D_k-invariant spec and the `_forest` of the
    spec's near-pair edges among them, kept in the spec's record table by
    `glp_via_slices`'s `_memo`; SpecError if the spec is not invariant."""
    dk = _dihedral(spec)
    if dk.symmetry_witness is not None:
        raise SpecError(
            f"spec fails symmetry {dk.symmetry_witness}; the slice reduction needs D_k invariance"
        )
    chosen = _region(spec.k, _scaled_points(spec), spec.n)
    inside = set(chosen)
    edges = tuple(e for e in _near_pairs(spec).edges if e.a in inside and e.b in inside)
    return chosen, _forest(spec, chosen, edges)


def glp_via_slices(spec: FractalSpec) -> Verdict:
    """Decide GLP on the cells near one wedge instead of the whole configuration.

    k in {3, 4, 5} always has GLP and is decided whole.  For k >= 6 let W
    be the closed wedge about the global barycenter of angles [0, 2pi/k]
    (even k) or [0, 4pi/k] (odd k), and R0 the cells whose polygon meets
    W.  `decide_glp` on any cell set S that holds R0 gives the verdict:

    * Inclusion.  S keeps the spec's adjacencies among its cells, so a
      nonzero cycle in S is one of the spec; GLP on S restricts to R0,
      which the transfer carries to the spec.  So S may err toward
      inclusion, and no cell needs an exact sector.
    * Transfer.  The reflections in the bounding rays of W, mirror axes
      of a D_k-invariant spec, fold the plane onto W (for even k W is
      their fundamental domain; for odd k they generate D_k).  The fold
      maps each shared vertex into W and its two cells onto adjacent
      cells of R0, the weight kept or negated; the paper's area reduction
      is that a nonzero cycle anywhere folds onto one among R0's cells.
    * Test.  A polygon lies in the unit disc about its barycenter, so at
      the scaled positions p = n * (b - mean) a cell of R0 has
      dist(p, W) <= n.  S (`_region`) takes the cells that pass this in
      floats, read off the keys, so specs whose coefficients differ by
      multiples of Phi_k get one S.  S is wider than the barycenter
      sectors of `slices`: it holds cells whose barycenter is outside W.

    Float error: with u = 2^-53, L the 1-norm of a scaled key and
    E = `_embed_error(k, key)` >= 60uL, the float position is within E of
    p per coordinate, |p| <= L, and the tabulated ray direction within
    19u of the exact one, so a float dot or cross product with a ray
    direction is within 2E + 44uL < 3E.  Outside the convex W, dist(p, W)
    is the distance hypot(min(dot, 0), cross) to the nearer bounding ray,
    within 3E * sqrt(2) + uL < 4.3E in floats.  A cell is taken when that
    less 5E is at most n (rounding by at most uL), or when it is within
    5E of both half-planes bounding W, as every point of W is.

    For k >= 6 a spec that is not D_k-invariant (`validate`'s `_dihedral`
    verdict) or has cells sharing two or more vertices raises SpecError
    before the region is read.  S is decided as `decide_glp` decides a spec,
    on the spanning forest of the spec's adjacencies among S's cells, which
    is kept on the spec with S, so a later call reads the same forest.

    A GLP verdict labels every cell.  A GLP labeling of a connected spec is
    unique up to a shift, and rotating it gives another one, so
    r[rot[c]] - r[c] is one constant t (`rot` of the `_dihedral` record).
    t is read off the first region cell whose image is in the region; each
    rotation cycle meets the region, as S holds every sector-1 cell, and is
    walked from each region cell on to the next; every offset is then
    shifted so that cell 0 has offset 0, `decide_glp`'s root.  A region
    forest of two or more components, or with no such cell, is left to
    `decide_glp`, which decides the whole spec or raises DisconnectedSpec.
    """
    if spec.partial:
        raise ValueError("glp_via_slices requires a non-partial spec")
    k = spec.k
    if k in (3, 4, 5):
        return decide_glp(spec)
    # a region verdict says nothing about nesting outside the region
    _require_nested(_near_pairs(spec).violation)
    chosen, graph = _memo(spec, "reg", _slice_region)
    r, witness = _forest_sums(graph, k, lambda e: edge_weight(e, k))
    if witness is not None:
        return Verdict(glp=False, witness=witness)
    rot = _dihedral(spec).rot
    d = next((c for c in chosen if r[rot[c]] is not None), None)
    if d is None or graph.component_count > 1:
        return decide_glp(spec)
    t = r[rot[d]] - r[d]
    for c in chosen:
        while r[rot[c]] is None:
            r[rot[c]] = (r[c] + t) % k
            c = rot[c]
    offsets = {i: (x - r[0]) % k for i, x in enumerate(r)}
    return Verdict(glp=True, labeling=_decided_labeling(spec, offsets))


def _labels_by_id(spec: FractalSpec, labeling: Labeling) -> list[int | None]:
    """The label of each vertex id of `spec` (`_vertex_ids`), None where
    the labeling has none.

    A decider's or `make_labeling`'s labels on this spec are that list
    already.  Any other labeling, such as a decider's read on a slice
    subspec, is read through canonical keys: a CycInt equals a vertex of
    order k exactly when it has order k and the vertex's key, so entries
    of another order are dropped.
    """
    labels = labeling.labels
    if isinstance(labels, _VertexLabels) and labels._spec is spec:
        return labels._by_id
    k = spec.k
    by_key = {v.canonical_key(): lab for v, lab in labels.items() if v.order == k}
    ids, count = _vertex_ids(spec)
    out: list[int | None] = [None] * count
    for v, key in zip(ids, _vertex_key_stream(spec)):
        out[v] = by_key.get(key)
    return out


def check_labeling(spec: FractalSpec, labeling: Labeling) -> bool:
    """Independent verification: each cell's labels are one rotation of 0..k-1.

    Scans cells directly; shared vertices agree automatically because a
    labeling maps each point to a single label.
    """
    k = spec.k
    labels = _labels_by_id(spec, labeling)
    ids, _ = _vertex_ids(spec)
    for i in range(spec.n):
        labs = [labels[v] for v in ids[i * k:(i + 1) * k]]
        if None in labs:
            raise LabelingError(f"vertex of cell {i} has no label")
        r = labs[0] % k
        if any((labs[j] - j) % k != r for j in range(k)):
            return False
    return True
