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
  * glp_via_slices   -- reduction to one or two angular slices.

The three forest deciders share one kernel and differ only in the edge
map (Z_k weight, parity, or +-1 rotation class); the odd decider derives
its offsets from the rotation counts.

A labeling is fixed by its offsets.  Its vertex labels are stored by
canonical key (the key CycInt equality uses) and checked for consistency
as they are stored: at once by `make_labeling`, on first read for the
labeling a decider returns, which a caller that needs only the offsets
never reads.  Vertex values are built only when the labels are iterated.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property

from .cyclotomic import CycInt, _embed, _embed_error, _mapped_key, _unit_circle, cyc_unit_translates
from .model import (
    Adjacency,
    Cell,
    FractalSpec,
    SpecError,
    _forest,
    _rotation_class,
    _scaled_points,
    _vertex_keys,
    find_adjacencies,
)


class DisconnectedSpec(ValueError):
    """Raised when a decider needs a connected non-partial configuration."""


class LabelingError(ValueError):
    """Raised when a labeling does not cover every vertex of the spec."""


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

    @property
    def component_count(self) -> int:
        return max(self.component) + 1

    @cached_property
    def _weights(self) -> dict[tuple[int, int], int]:
        """Weight of every edge in both directions, built on first use."""
        return _weight_map(self.edges, self.k)

    def weight(self, u: int, v: int) -> int:
        """Constraint weight for traversing u -> v: r_v = r_u + weight mod k."""
        return _lookup_weight(self._weights, u, v)


@dataclass(frozen=True)
class Labeling:
    """Per-cell offsets and the vertex labels they induce.

    `labels` may be a plain dict.  From `make_labeling` or a decider it is
    a read-only mapping stored by canonical key: lookups build nothing, and
    iterating it builds the vertex values, so on a spec with a coefficient
    of +-2^31 iteration raises CoefficientOverflow (ROADMAP item 3).
    """

    k: int
    offsets: dict[int, int]
    labels: Mapping[CycInt, int]


class _VertexLabels(Mapping[CycInt, int]):
    """Labels of the vertices of `spec` under per-cell `offsets` (indexed
    by cell index), stored by canonical key.

    The store is built when first read and written at most once with
    equal contents, so the mapping can be shared across threads.  An
    order-k CycInt is looked up by its key; iteration builds each vertex
    value when first seen in cell order, which is the order the store was
    filled in.
    """

    __slots__ = ("_spec", "_offsets", "_store")

    def __init__(self, spec: FractalSpec, offsets: Mapping[int, int] | list[int]):
        self._spec = spec
        self._offsets = offsets
        self._store: dict[tuple[int, ...], int] | None = None

    @property
    def _by_key(self) -> dict[tuple[int, ...], int]:
        """Label (j + r) mod k of vertex j of each cell with offset r, by
        vertex key (`_vertex_keys`), so no vertex value is built.  Raises
        SpecError where two cells give one vertex different labels."""
        store = self._store
        if store is None:
            k = self._spec.k
            store = {}
            for i, keys in enumerate(_vertex_keys(self._spec)):
                r = self._offsets[i]
                for j, key in enumerate(keys):
                    lab = (j + r) % k
                    if store.setdefault(key, lab) != lab:
                        raise SpecError(f"offsets disagree at a shared vertex of cell {i}")
            self._store = store
        return store

    def __getitem__(self, v: CycInt) -> int:
        if isinstance(v, CycInt) and v.order == self._spec.k:
            return self._by_key[v.canonical_key()]
        raise KeyError(v)

    def __len__(self) -> int:
        return len(self._by_key)

    def __iter__(self) -> Iterator[CycInt]:
        self._by_key  # offsets that disagree raise here, as on any read
        seen: set[tuple[int, ...]] = set()
        for cell in self._spec.cells:
            for v in cyc_unit_translates(cell.barycenter):
                key = v.canonical_key()
                if key not in seen:
                    seen.add(key)
                    yield v

    def __repr__(self) -> str:
        return repr(dict(self))


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


def edge_weight(e: Adjacency, k: int) -> int:
    """Weight for the stored direction a -> b."""
    return (e.ja - e.jb) % k


def _weight_map(edges, k: int) -> dict[tuple[int, int], int]:
    """Weight of every edge in both directions."""
    out: dict[tuple[int, int], int] = {}
    for e in edges:
        w = edge_weight(e, k)
        out[(e.a, e.b)] = w
        out[(e.b, e.a)] = -w % k
    return out


def _lookup_weight(weights: dict[tuple[int, int], int], u: int, v: int) -> int:
    """Weight of u -> v in a `_weight_map`; KeyError when u and v share no edge."""
    w = weights.get((u, v))
    if w is None:
        raise KeyError(f"no edge between {u} and {v}")
    return w


def _nested_adjacencies(spec: FractalSpec) -> list[Adjacency]:
    """`find_adjacencies`, raising SpecError for a pair sharing >= 2 vertices."""
    edges, violation = find_adjacencies(spec)
    if violation is not None:
        raise SpecError(f"cells {violation} violate nesting (share >= 2 vertices)")
    return edges


def build_constraint_graph(spec: FractalSpec) -> ConstraintGraph:
    """Adjacency graph with Z_k weights, spanning forest, and fundamental edges.

    Deterministic: edges sorted by (a, b), forest grown breadth-first
    from the lowest-index cell of each component.  Pairs sharing two or
    more vertices are rejected here; hull overlaps without shared
    vertices are validate's concern.
    """
    edges = _nested_adjacencies(spec)
    component, parent, parent_edge, depth = _forest(spec.n, edges)
    tree_idx = set(parent_edge)
    nontree = tuple(e for i, e in enumerate(edges) if i not in tree_idx)
    return ConstraintGraph(
        k=spec.k,
        n=spec.n,
        edges=tuple(edges),
        nontree=nontree,
        component=tuple(component),
        parent=tuple(parent),
        parent_edge=tuple(parent_edge),
        depth=tuple(depth),
    )


def _tree_cycle(graph: ConstraintGraph, u: int, v: int) -> tuple[int, ...]:
    """Cells along the fundamental cycle of non-tree edge (u, v): u .. lca .. v."""
    path_u = [u]
    path_v = [v]
    a, b = u, v
    while graph.depth[a] > graph.depth[b]:
        a = graph.parent[a]
        path_u.append(a)
    while graph.depth[b] > graph.depth[a]:
        b = graph.parent[b]
        path_v.append(b)
    while a != b:
        a = graph.parent[a]
        b = graph.parent[b]
        path_u.append(a)
        path_v.append(b)
    return tuple(path_u + path_v[:-1][::-1])


def fundamental_cycles(graph: ConstraintGraph) -> list[tuple[int, ...]]:
    """One cycle per non-tree edge, in deterministic edge order."""
    return [_tree_cycle(graph, e.a, e.b) for e in graph.nontree]


def cycle_weight(spec: FractalSpec, cycle: tuple[int, ...]) -> int:
    """Directed weight sum around a cell cycle, mod k."""
    weights = _weight_map(_nested_adjacencies(spec), spec.k)
    total = 0
    for i, u in enumerate(cycle):
        v = cycle[(i + 1) % len(cycle)]
        total += _lookup_weight(weights, u, v)
    return total % spec.k


def make_labeling(spec: FractalSpec, offsets: dict[int, int]) -> Labeling:
    """Vertex labels induced by per-cell offsets: vertex j gets (j + r) mod k.

    The labels are built and checked here, not on first read.
    """
    offsets = dict(offsets)
    labels = _VertexLabels(spec, offsets)
    labels._by_key
    return Labeling(spec.k, offsets, labels)


def _decided_labeling(spec: FractalSpec, offsets: list[int]) -> Labeling:
    """A decider's labeling, one offset per cell; labels built on first read."""
    return Labeling(spec.k, dict(enumerate(offsets)), _VertexLabels(spec, offsets))


def _require_connected(spec: FractalSpec, graph: ConstraintGraph) -> None:
    if not spec.partial and graph.component_count > 1:
        raise DisconnectedSpec(
            f"non-partial spec has {graph.component_count} components"
        )


def _forest_sums(
    spec: FractalSpec, m: int, edge_map: Callable[[Adjacency], int]
) -> tuple[list[int], tuple[int, ...] | None]:
    """Per-cell sums in Z_m of the mapped edge steps down the spanning forest.

    Every edge a -> b is mapped first, in edge order.  Also returns the
    fundamental cycle of the first edge the sums contradict, or None; tree
    edges agree by construction, so that edge is a non-tree edge.
    """
    graph = build_constraint_graph(spec)
    _require_connected(spec, graph)
    steps = [edge_map(e) for e in graph.edges]
    sums = [0] * graph.n
    for v in sorted(range(graph.n), key=graph.depth.__getitem__):
        u = graph.parent[v]
        if u != -1:
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
    r, witness = _forest_sums(spec, k, lambda e: edge_weight(e, k))
    if witness is not None:
        return Verdict(glp=False, witness=witness)
    return Verdict(glp=True, labeling=_decided_labeling(spec, r))


def decide_glp_even(spec: FractalSpec) -> Verdict:
    """Even-k decider: GLP iff the adjacency graph is bipartite.

    Every edge weight is k/2, so a cycle violates exactly when its
    length is odd.  On success the verdict carries the two classes
    (1 and 2) and the offsets 0 / k/2 they induce.
    """
    k = spec.k
    if k % 2 != 0:
        raise ValueError("decide_glp_even requires even k")

    def parity(e: Adjacency) -> int:
        if edge_weight(e, k) != k // 2:
            raise SpecError(f"edge ({e.a}, {e.b}) has weight {edge_weight(e, k)}; "
                            "even-k adjacency must have weight k/2")
        return 1

    color, witness = _forest_sums(spec, 2, parity)
    if witness is not None:
        return Verdict(glp=False, witness=witness)
    offsets = [c * (k // 2) for c in color]
    classes = {i: c + 1 for i, c in enumerate(color)}
    return Verdict(glp=True, labeling=_decided_labeling(spec, offsets), classes=classes)


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

    rho, witness = _forest_sums(spec, k, rotation_class)
    if witness is not None:
        return Verdict(glp=False, witness=witness)
    offsets = [-((k + 1) // 2) * c % k for c in rho]
    return Verdict(glp=True, labeling=_decided_labeling(spec, offsets))


@dataclass(frozen=True)
class KClassification:
    always_glp: bool
    reason: str | None  # 'prime' | 'power_of_two'

    def __str__(self) -> str:
        return f"AlwaysGLP({self.reason})" if self.always_glp else "Conditional"


def classify_k(k: int) -> KClassification:
    """Fast classification: prime or power-of-two k always has GLP."""
    if k < 3:
        raise ValueError("k must be >= 3")
    if k >= 2 and all(k % p for p in range(2, int(math.isqrt(k)) + 1)):
        return KClassification(True, "prime")
    if k & (k - 1) == 0:
        return KClassification(True, "power_of_two")
    return KClassification(False, None)


def odd_cycle_scan(spec: FractalSpec) -> list[tuple[int, ...]]:
    """Fundamental cycles of odd length below k; each one certifies no GLP.

    An empty result is inconclusive.
    """
    if spec.k % 2 != 1:
        raise ValueError("odd_cycle_scan requires odd k")
    graph = build_constraint_graph(spec)
    return [
        cyc for cyc in fundamental_cycles(graph)
        if len(cyc) % 2 == 1 and len(cyc) < spec.k
    ]


@dataclass(frozen=True)
class SliceAssignment:
    k: int
    sector: tuple[int | None, ...]  # 1..k, or None for the central cell

    def cells_in(self, i: int) -> list[int]:
        return [idx for idx, s in enumerate(self.sector) if s == i]

    @property
    def central_cells(self) -> list[int]:
        return [idx for idx, s in enumerate(self.sector) if s is None]


_Sectors = tuple[list[int | None], list[int | None]]


def _sectors(spec: FractalSpec) -> _Sectors:
    """Per cell: its open sector, and the vertex ray it lies on (None for neither).

    Sector i covers angles in ((i-1) * 2pi/k, i * 2pi/k]; a cell exactly
    on a vertex ray belongs to the sector whose counter-clockwise edge
    that ray is.  The central cell (barycenter at the global barycenter)
    belongs to no sector and lies on no ray.

    A cell's position p is its `_scaled_points` entry.  It lies on ray j
    when reflection 2j fixes it (exactly) and its float point is on the
    ray's side.  Beyond 2 * k * `_embed_error` from the origin the float
    angle of p is certain to within pi/(2k) (see `to_cartesian`), so the
    nearest ray is the only candidate; closer points try every ray.
    """
    k = spec.k
    tau = 2.0 * math.pi
    circle = _unit_circle(k)
    sector: list[int | None] = []
    rays: list[int | None] = []
    for coeffs, key in zip(*_scaled_points(spec)):
        if not any(key):
            sector.append(None)
            rays.append(None)
            continue
        x, y = _embed(k, coeffs)
        theta = math.atan2(y, x) % tau
        if math.hypot(x, y) > 2 * k * _embed_error(k, coeffs):
            candidates = [round(theta * k / tau) % k]
        else:
            candidates = range(k)
        ray = None
        for j in candidates:
            if _mapped_key(k, key, 2 * j, -1) == key and x * circle[j][0] + y * circle[j][1] > 0:
                ray = j
                break
        rays.append(ray)
        sector.append(int(theta * k / tau) + 1 if ray is None else (ray - 1) % k + 1)
    return sector, rays


def slices(spec: FractalSpec) -> SliceAssignment:
    """Assign each cell to the angular sector holding its barycenter (see `_sectors`)."""
    return SliceAssignment(spec.k, tuple(_sectors(spec)[0]))


def _closed_members(k: int, sectors: _Sectors) -> list[frozenset[int]]:
    members: list[set[int]] = [set() for _ in range(k)]
    for idx, (s, ray) in enumerate(zip(*sectors)):
        if s is None:
            continue
        members[s - 1].add(idx)
        if ray is not None:
            members[ray % k].add(idx)  # right edge of the next sector's closure
    return [frozenset(m) for m in members]


def closed_slices(spec: FractalSpec) -> list[frozenset[int]]:
    """Cell sets of the closed slices; on-axis cells belong to both neighbors.

    Entry i-1 holds closed slice i.  The central cell is in no closed
    slice.
    """
    return _closed_members(spec.k, _sectors(spec))


def _slice_ids(k: int, ids) -> list[int]:
    ids = sorted(set(ids))
    if not ids:
        raise ValueError("empty slice selection")
    for i in ids:
        if not 1 <= i <= k:
            raise ValueError(f"slice id {i} out of range 1..{k}")
    return ids


def _chosen_cells(k: int, ids: list[int], closed: bool, sectors: _Sectors) -> tuple[int, ...]:
    if closed:
        sets = _closed_members(k, sectors)
        chosen = set().union(*(sets[i - 1] for i in ids))
    else:
        chosen = {idx for idx, s in enumerate(sectors[0]) if s in ids}
    if not chosen:
        raise ValueError("selected slices contain no cells")
    return tuple(sorted(chosen))


def _subspec(spec: FractalSpec, chosen: tuple[int, ...]) -> FractalSpec:
    cells = tuple(
        Cell(spec.cells[orig].barycenter, new) for new, orig in enumerate(chosen)
    )
    return FractalSpec(spec.k, cells, partial=True)


def slice_subspec(spec: FractalSpec, ids, closed: bool = False) -> FractalSpec:
    """Partial spec of the chosen (closed) slices, cells in original order."""
    k = spec.k
    return _subspec(spec, _chosen_cells(k, _slice_ids(k, ids), closed, _sectors(spec)))


def _remap_verdict(sub: Verdict, mapping: tuple[int, ...]) -> Verdict:
    if sub.glp:
        assert sub.labeling is not None
        offsets = {mapping[i]: r for i, r in sub.labeling.offsets.items()}
        labeling = Labeling(sub.labeling.k, offsets, sub.labeling.labels)
        classes = (
            {mapping[i]: c for i, c in sub.classes.items()} if sub.classes else None
        )
        return Verdict(glp=True, labeling=labeling, classes=classes)
    assert sub.witness is not None
    return Verdict(glp=False, witness=tuple(mapping[i] for i in sub.witness))


def _central_cycle(n: int, edges: list[Adjacency], central: int) -> tuple[int, ...] | None:
    """A 3-cycle through the central cell and two mutually adjacent neighbors."""
    neighbor_sets: dict[int, set[int]] = {i: set() for i in range(n)}
    for e in edges:
        neighbor_sets[e.a].add(e.b)
        neighbor_sets[e.b].add(e.a)
    around = sorted(neighbor_sets[central])
    for u in around:
        for v in around:
            if u < v and v in neighbor_sets[u]:
                return (central, u, v)
    return None


def glp_via_slices(spec: FractalSpec) -> Verdict:
    """Decide GLP on a reduced region instead of the full configuration.

    Routing: a hexagonal configuration with a central cell can never be
    labeled (the six forced neighbors create odd cycles); k in {3, 4, 5}
    always can; otherwise the verdict of one closed slice (even k, and
    k = 6 without central cell) or of two neighboring open slices
    (odd k) transfers to the whole configuration.

    Known defect: the transfer can fail on symmetrized growth.
    `random_valid_spec(12, 40, 403123852, symmetrize=True)` passes
    `validate`, yet `decide_glp` finds the weight-6 cycle
    4 3 2 1 0 34 47 43 30 across sectors 12, 1 and 2, which closed
    slice 1 does not hold, and this route answers GLP.
    """
    if spec.partial:
        raise ValueError("glp_via_slices requires a non-partial spec")
    k = spec.k
    if k in (3, 4, 5):
        return decide_glp(spec)
    # a slice verdict says nothing about nesting outside the slice
    edges = _nested_adjacencies(spec)
    sectors = _sectors(spec)
    central = [idx for idx, s in enumerate(sectors[0]) if s is None]
    if k == 6 and central:
        cyc = _central_cycle(spec.n, edges, central[0])
        if cyc is not None:
            return Verdict(glp=False, witness=cyc)
        # reachable: a spec validate rejects, e.g. the lone central cell of
        # `snf k=6` / `cell 0 0 0 0 0 0`, has no 3-cycle and no slice cells
        return decide_glp(spec)
    if k % 2 == 0:
        chosen = _chosen_cells(k, [1], True, sectors)
    else:
        chosen = _chosen_cells(k, [1, 2], False, sectors)
    return _remap_verdict(decide_glp(_subspec(spec, chosen)), chosen)


def _labels_by_key(labeling: Labeling, k: int) -> dict[tuple[int, ...], int]:
    """The labels of order-k points, keyed by canonical key.

    A CycInt equals a vertex of order k exactly when it has order k and
    the vertex's key, so a lookup here answers `labeling.labels.get(v)`
    from the key of v without building v.  Labels from `make_labeling`
    are stored that way already.
    """
    labels = labeling.labels
    if isinstance(labels, _VertexLabels) and labels._spec.k == k:
        return labels._by_key
    return {v.canonical_key(): lab for v, lab in labels.items() if v.order == k}


def check_labeling(spec: FractalSpec, labeling: Labeling) -> bool:
    """Independent verification: each cell's labels are one rotation of 0..k-1.

    Scans cells directly; shared vertices agree automatically because a
    labeling maps each point to a single label.
    """
    k = spec.k
    labels = _labels_by_key(labeling, k)
    for i, keys in enumerate(_vertex_keys(spec)):
        labs = []
        for key in keys:
            lab = labels.get(key)
            if lab is None:
                raise LabelingError(f"vertex of cell {i} has no label")
            labs.append(lab)
        r = (labs[0] - 0) % k
        if any((labs[j] - j) % k != r for j in range(k)):
            return False
    return True
