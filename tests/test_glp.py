"""Constraint graph construction and the GLP deciders."""
from __future__ import annotations

import math
import os
import sys
import threading
from collections import deque
from functools import cache

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_glp, fold, recording
from test_invariance import moved_specs
from snfglp.cyclotomic import (
    CycInt,
    cyc_add,
    cyc_sub,
    cyc_unit_translate_keys,
    cyclotomic_polynomial,
    euler_phi,
    zeta,
)
from snfglp import glp, model
from snfglp.glp import (
    DisconnectedSpec,
    Labeling,
    LabelingError,
    build_constraint_graph,
    check_labeling,
    classify_k,
    closed_slices,
    cycle_weight,
    decide_glp,
    decide_glp_even,
    decide_glp_odd,
    edge_weight,
    fundamental_cycles,
    glp_via_slices,
    _decided_labeling,
    make_labeling,
    slice_subspec,
    slices,
)
from snfglp.construct import expand, generate_counterexample, generate_glp_example, random_valid_spec
from snfglp.model import CATALOG_NAMES, SpecError, catalog, find_adjacencies, make_spec, validate, vertices


def two_cell_path(k: int):
    if k % 2 == 0:
        delta = zeta(k, 0, 2)
    else:
        delta = cyc_sub(zeta(k, 0), zeta(k, (k + 1) // 2))
    return make_spec(k, [zeta(k, 0, 0), delta], partial=True)


class TestConstraintGraph:
    def test_hexagon_six_edges_weight_three(self):
        graph = build_constraint_graph(catalog("sierpinski-hexagon"))
        assert len(graph.edges) == 6
        assert all(edge_weight(e, 6) == 3 for e in graph.edges)

    def test_gasket_triangle_weights_sum_zero(self):
        spec = catalog("sierpinski-gasket")
        graph = build_constraint_graph(spec)
        assert len(graph.edges) == 3
        cycles = fundamental_cycles(graph)
        assert len(cycles) == 1 and len(cycles[0]) == 3
        assert cycle_weight(spec, cycles[0]) == 0

    def test_two_cell_path_has_no_cycles(self):
        graph = build_constraint_graph(two_cell_path(5))
        assert len(graph.edges) == 1
        assert graph.nontree == ()

    def test_reversed_edge_negates_weight(self):
        graph = build_constraint_graph(catalog("sierpinski-gasket"))
        for e in graph.edges:
            assert (graph.weight(e.a, e.b) + graph.weight(e.b, e.a)) % 3 == 0

    @pytest.mark.parametrize("k,seed", [(5, 0), (7, 1), (8, 2), (9, 3)])
    def test_weight_matches_edge_scan(self, k, seed):
        graph = build_constraint_graph(random_valid_spec(k, 20, seed))

        def scan(u, v):
            for e in graph.edges:
                if (e.a, e.b) == (u, v):
                    return (e.ja - e.jb) % k
                if (e.a, e.b) == (v, u):
                    return (e.jb - e.ja) % k
            return None

        for u in range(graph.n):
            for v in range(graph.n):
                want = scan(u, v)
                if want is None:
                    with pytest.raises(KeyError):
                        graph.weight(u, v)
                else:
                    assert graph.weight(u, v) == want

    @pytest.mark.parametrize("k,seed", [(5, 0), (6, 4), (9, 3), (12, 1)])
    def test_cycle_weight_matches_graph_weights(self, k, seed):
        spec = random_valid_spec(k, 30, seed)
        graph = build_constraint_graph(spec)
        for cycle in fundamental_cycles(graph):
            want = sum(graph.weight(u, cycle[(i + 1) % len(cycle)]) for i, u in enumerate(cycle))
            assert cycle_weight(spec, cycle) == want % k
        assert graph.nontree
        neighbours = {e.b for e in graph.edges if e.a == 0}
        far = min(set(range(1, graph.n)) - neighbours)
        with pytest.raises(KeyError):
            cycle_weight(spec, (0, far))

    def test_fundamental_cycles_are_tree_paths(self):
        # reference: each non-tree edge (a, b) closes the one path from a to
        # b in the spanning forest, here found by networkx
        specs = [random_valid_spec(k, 40, seed, symmetrize=sym)
                 for k in range(3, 13) for sym in (False, True) for seed in range(4)]
        specs.append(expand(generate_glp_example(8), 2))
        for spec in specs:
            graph = build_constraint_graph(spec)
            tree = nx.Graph()
            tree.add_nodes_from(range(graph.n))
            tree.add_edges_from((i, p) for i, p in enumerate(graph.parent) if p != -1)
            want = [tuple(nx.shortest_path(tree, e.a, e.b)) for e in graph.nontree]
            assert fundamental_cycles(graph) == want
        assert any(build_constraint_graph(spec).nontree for spec in specs)

    def test_cycle_weight_rejects_nesting_violation(self):
        # squares one unit chord apart share a whole edge
        spec = make_spec(4, [zeta(4, 0, 0), cyc_sub(zeta(4, 0), zeta(4, 1))], partial=True)
        with pytest.raises(SpecError):
            cycle_weight(spec, (0, 1))

    def test_even_k_weights_always_half_turn(self):
        for seed in range(5):
            spec = random_valid_spec(8, 25, seed)
            graph = build_constraint_graph(spec)
            assert all(edge_weight(e, 8) == 4 for e in graph.edges)

    def test_odd_k_weights_in_two_classes(self):
        legal = {(9 + 1) // 2, (9 - 1) // 2}
        for seed in range(5):
            spec = random_valid_spec(9, 25, seed)
            graph = build_constraint_graph(spec)
            assert all((e.jb - e.ja) % 9 in legal for e in graph.edges)


class TestDecideGlp:
    def test_catalog_verdicts(self):
        assert decide_glp(catalog("sierpinski-hexagon")).glp
        assert decide_glp(catalog("sierpinski-gasket")).glp
        assert decide_glp(catalog("vicsek-cross")).glp
        assert decide_glp(catalog("pentagon-ring")).glp
        v = decide_glp(catalog("lindstrom-snowflake"))
        assert not v.glp and len(v.witness) == 3

    def test_witness_resums_nonzero(self):
        spec = catalog("lindstrom-snowflake")
        v = decide_glp(spec)
        assert cycle_weight(spec, v.witness) != 0

    def test_glp_labeling_checks_out(self):
        for name in ("sierpinski-gasket", "sierpinski-hexagon", "vicsek-cross"):
            spec = catalog(name)
            v = decide_glp(spec)
            assert check_labeling(spec, v.labeling)

    def test_offsets_normalized_at_first_cell(self):
        for name in ("sierpinski-gasket", "pentagon-ring"):
            v = decide_glp(catalog(name))
            assert v.labeling.offsets[0] == 0

    def test_disconnected_nonpartial_raises(self):
        spec = make_spec(
            6,
            [(0,) * 6, (9, 0, 0, 0, 0, 0)] + [tuple(zeta(6, j, 2).coeffs) for j in range(4)],
        )
        with pytest.raises(DisconnectedSpec):
            decide_glp(spec)

    def test_disconnected_partial_labeled_per_component(self):
        spec = make_spec(6, [(0,) * 6, (9, 0, 0, 0, 0, 0)], partial=True)
        v = decide_glp(spec)
        assert v.glp
        assert v.labeling.offsets == {0: 0, 1: 0}

    def test_serialization_round(self):
        v = decide_glp(catalog("sierpinski-hexagon"))
        text = v.serialize()
        assert text.splitlines()[0] == "GLP"
        assert "offset 1 3" in text
        w = decide_glp(catalog("lindstrom-snowflake"))
        assert w.serialize().splitlines()[0] == "NOGLP"


class TestEvenDecider:
    def test_hexagon_bipartition_alternates(self):
        v = decide_glp_even(catalog("sierpinski-hexagon"))
        assert v.glp
        ring = [v.classes[i] for i in range(6)]
        assert ring == [1, 2, 1, 2, 1, 2]
        for a, b in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]:
            assert v.classes[a] != v.classes[b]

    def test_snowflake_odd_triangle(self):
        v = decide_glp_even(catalog("lindstrom-snowflake"))
        assert not v.glp and len(v.witness) == 3

    def test_vicsek_star_bipartite(self):
        v = decide_glp_even(catalog("vicsek-cross"))
        assert v.glp

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            decide_glp_even(catalog("sierpinski-gasket"))


class TestOddDecider:
    def test_pentagon_ring(self):
        assert decide_glp_odd(catalog("pentagon-ring")).glp

    def test_k9_counterexample(self):
        spec = generate_counterexample(9)
        v = decide_glp_odd(spec)
        assert not v.glp and len(v.witness) == 3

    def test_k9_six_cycle_labelable(self):
        # hexagonal ring of 9-gons alternating the two rotation classes:
        # c = d = 3, so the cycle is labelable despite its even length < k
        from snfglp.cyclotomic import cyc_add, cyc_is_zero, zero

        k = 9
        steps = [
            cyc_sub(zeta(k, 5), zeta(k, 0)),
            cyc_sub(zeta(k, 7), zeta(k, 3)),
            cyc_sub(zeta(k, 8), zeta(k, 3)),
            cyc_sub(zeta(k, 1), zeta(k, 6)),
            cyc_sub(zeta(k, 2), zeta(k, 6)),
            cyc_sub(zeta(k, 4), zeta(k, 0)),
        ]
        pos = zero(k)
        cells = []
        for step in steps:
            cells.append(pos)
            pos = cyc_add(pos, step)
        assert cyc_is_zero(pos)  # the ring closes exactly
        spec = make_spec(k, cells, partial=True)
        graph = build_constraint_graph(spec)
        assert len(graph.edges) == 6  # a single 6-cycle, no chords
        assert decide_glp_odd(spec).glp
        assert decide_glp(spec).glp

    def test_even_k_rejected(self):
        with pytest.raises(ValueError):
            decide_glp_odd(catalog("sierpinski-hexagon"))

    def test_first_illegal_edge_is_validates_witness(self):
        # every edge is classified before any cycle is checked, so the error
        # names validate's witness even though the cycle 1 0 3 also fails
        spec = make_spec(9, [
            (0, -1, 0, 2, 0, 0, 1, -2, 0),
            (0, 0, 0, 1, 0, 0, 0, -1, 0),
            (1, -1, 0, 1, 0, -1, 1, -1, 0),
            (0, -1, 0, 1, 0, 0, 1, -1, 0),
            (0,) * 9,
            (0, -1, 0, 1, 0, 0, 1, -2, 1),
        ], partial=True)
        assert validate(spec).odd_adjacency_witness == (2, 4)
        with pytest.raises(SpecError, match=r"edge \(2, 4\)"):
            decide_glp_odd(spec)


class TestClassify:
    @pytest.mark.parametrize("k,reason", [(3, "prime"), (5, "prime"), (7, "prime"),
                                          (11, "prime"), (13, "prime")])
    def test_primes(self, k, reason):
        got = classify_k(k)
        assert got.always_glp and got.reason == reason

    @pytest.mark.parametrize("k", [4, 8, 16, 32])
    def test_powers_of_two(self, k):
        got = classify_k(k)
        assert got.always_glp and got.reason == "power_of_two"

    @pytest.mark.parametrize("k", [6, 9, 10, 12, 15, 18, 21])
    def test_conditional(self, k):
        assert not classify_k(k).always_glp

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            classify_k(2)


class TestCheckLabeling:
    def test_decider_witness_passes(self):
        spec = catalog("sierpinski-gasket")
        assert check_labeling(spec, decide_glp(spec).labeling)

    def test_swapped_labels_fail(self):
        spec = catalog("sierpinski-gasket")
        lab = decide_glp(spec).labeling
        from snfglp.model import vertices

        tampered = dict(lab.labels)
        verts = vertices(spec.cells[0])
        tampered[verts[0]], tampered[verts[1]] = tampered[verts[1]], tampered[verts[0]]
        broken = Labeling(lab.k, dict(lab.offsets), tampered)
        assert not check_labeling(spec, broken)

    def test_alternating_hexagon_offsets(self):
        # alternating offsets 0/3 around the ring form a good labeling
        spec = catalog("sierpinski-hexagon")
        from snfglp.glp import make_labeling

        lab = make_labeling(spec, {i: (i % 2) * 3 for i in range(6)})
        assert check_labeling(spec, lab)

    def test_missing_vertex_raises(self):
        spec = catalog("sierpinski-gasket")
        with pytest.raises(LabelingError):
            check_labeling(spec, Labeling(3, {}, {}))

    def test_global_offset_shift_keeps_labeling_good(self):
        spec = catalog("pentagon-ring")
        base = decide_glp(spec).labeling
        from snfglp.glp import make_labeling

        for shift in range(1, 5):
            shifted = make_labeling(
                spec, {i: (r + shift) % 5 for i, r in base.offsets.items()}
            )
            assert check_labeling(spec, shifted)


def _reference_check_labeling(spec, labeling):
    """check_labeling as it was: every vertex built as a CycInt and looked up by value."""
    k = spec.k
    for cell in spec.cells:
        labs = []
        for v in vertices(cell):
            lab = labeling.labels.get(v)
            if lab is None:
                raise LabelingError(f"vertex of cell {cell.index} has no label")
            labs.append(lab)
        r = (labs[0] - 0) % k
        if any((labs[j] - j) % k != r for j in range(k)):
            return False
    return True


def _outcome(check, spec, labeling):
    try:
        return check(spec, labeling)
    except LabelingError as exc:
        return ("LabelingError", str(exc))


_LABELING_SPECS = (
    [lambda name=name: catalog(name) for name in CATALOG_NAMES]
    + [lambda k=k: generate_glp_example(k) for k in (4, 9, 12)]
    + [
        lambda: generate_counterexample(9),
        lambda: random_valid_spec(7, 12, 1),
        lambda: random_valid_spec(8, 15, 2),
    ]
)


@cache
def _labeling_spec(i):
    return _LABELING_SPECS[i]()


def _alias(v, label):
    """A point of another order whose canonical key is v's (when some order
    shares phi(k)), else one of another order with v's key cut or padded."""
    key = v.canonical_key()
    same = [m for m in range(3, 37) if m != v.order and euler_phi(m) == len(key)]
    m = same[label % len(same)] if same else (v.order % 36) + 1
    coeffs = (key + (0,) * m)[:m]
    return CycInt(m, coeffs)


class TestCheckLabelingReference:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_value_based_reference(self, data):
        base = _labeling_spec(data.draw(st.integers(0, len(_LABELING_SPECS) - 1)))
        k = base.k
        shift = CycInt(k, tuple(data.draw(
            st.lists(st.integers(-2**20, 2**20), min_size=k, max_size=k))))
        spec = make_spec(k, [cyc_add(c.barycenter, shift) for c in base.cells], base.partial)
        verdict = decide_glp(spec)
        if verdict.glp and data.draw(st.booleans()):
            turn = data.draw(st.integers(0, k - 1))
            offsets = [(verdict.labeling.offsets[i] + turn) % k for i in range(spec.n)]
        else:
            offsets = data.draw(st.lists(st.integers(0, k - 1), min_size=spec.n, max_size=spec.n))
        labels = {}
        for cell, r in zip(spec.cells, offsets):
            for j, v in enumerate(vertices(cell)):
                labels[v] = (j + r) % k
        for op in data.draw(st.lists(
                st.sampled_from(["swap", "drop", "alias", "replace"]), max_size=4)):
            points = list(labels)
            v = points[data.draw(st.integers(0, len(points) - 1))]
            if op == "swap":
                w = points[data.draw(st.integers(0, len(points) - 1))]
                labels[v], labels[w] = labels[w], labels[v]
            elif op == "drop" and v.order == k:
                del labels[v]
            elif op == "alias":
                labels[_alias(v, data.draw(st.integers(0, k - 1)))] = data.draw(st.integers(0, k - 1))
            elif op == "replace" and v.order == k:
                lab = labels.pop(v)
                labels[_alias(v, lab)] = lab
        labeling = Labeling(k, dict(enumerate(offsets)), labels)
        assert _outcome(check_labeling, spec, labeling) == _outcome(
            _reference_check_labeling, spec, labeling)


def _reference_labels(spec, offsets):
    """make_labeling's labels as they were: every vertex of the cells that
    `offsets` names, in index order, built as a CycInt and keyed by value."""
    k = spec.k
    labels = {}
    for i in sorted(offsets):
        for j, v in enumerate(vertices(spec.cells[i])):
            lab = (j + offsets[i]) % k
            prev = labels.get(v)
            if prev is not None and prev != lab:
                raise SpecError(f"offsets disagree at a shared vertex of cell {i}")
            labels[v] = lab
    return labels


def _labels_outcome(build, spec, offsets):
    """Entries of the built labels with their coefficients, in order, or the SpecError."""
    try:
        labels = build(spec, offsets)
    except SpecError as exc:
        return ("SpecError", str(exc))
    return [(v.order, v.coeffs, lab) for v, lab in labels.items()]


@st.composite
def keyed_label_cases(draw):
    """A catalog, generated or grown spec with one decider that applies to it."""
    kind = draw(st.sampled_from(["catalog", "example", "counterexample", "grown"]))
    if kind == "catalog":
        spec = catalog(draw(st.sampled_from(CATALOG_NAMES)))
    elif kind == "example":
        spec = generate_glp_example(draw(st.integers(3, 12)))
    elif kind == "counterexample":
        spec = generate_counterexample(draw(st.sampled_from([6, 9, 10, 12, 15])))
    else:
        symmetrize = draw(st.booleans())
        k = draw(st.integers(3, 12))
        spec = random_valid_spec(k, draw(st.integers(2, 40)), draw(st.integers(0, 10_000)),
                                 symmetrize=symmetrize)
    deciders = [decide_glp, decide_glp_even if spec.k % 2 == 0 else decide_glp_odd]
    if not spec.partial:
        deciders.append(glp_via_slices)
    return spec, draw(st.sampled_from(deciders))


class TestKeyedLabels:
    @given(keyed_label_cases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_value_based_reference(self, case, data):
        spec, decider = case
        k = spec.k
        verdict = decider(spec)
        if verdict.glp:
            labeling = verdict.labeling
        else:
            offsets = data.draw(st.lists(st.integers(0, k - 1), min_size=spec.n, max_size=spec.n))
            try:
                labeling = make_labeling(spec, dict(enumerate(offsets)))
            except SpecError:
                labeling = None
        if labeling is not None:
            labels = labeling.labels
            ref = _reference_labels(spec, labeling.offsets)
            assert dict(labels) == ref
            assert [(v.coeffs, lab) for v, lab in labels.items()] == [
                (v.coeffs, lab) for v, lab in ref.items()]
            assert len(labels) == len(ref)
            assert labeling == Labeling(k, dict(labeling.offsets), ref)
            assert Labeling(k, dict(labeling.offsets), ref) == labeling

            v = list(ref)[data.draw(st.integers(0, len(ref) - 1))]
            # the same point written with other coefficients: add a nonzero
            # multiple of Phi_k (zero at zeta_k), folded into k entries
            m = data.draw(st.integers(-9, 9).filter(bool))
            fold = cyclotomic_polynomial(k).coeffs + (0,) * k
            other = CycInt(k, tuple(c + m * f for c, f in zip(v.coeffs, fold)))
            assert other.coeffs != v.coeffs and other == v
            assert labels[other] == labels.get(other) == ref[v] and other in labels

            far = CycInt(k, (10**6,) + (0,) * (k - 1))
            alias = _alias(v, ref[v])
            for miss in (far, alias, v.canonical_key(), v.coeffs, "vertex", None):
                assert labels.get(miss) is None and ref.get(miss) is None
                assert miss not in labels
            with pytest.raises(KeyError):
                labels[alias]

        # the consistency check: decider offsets with one cell's offset changed, or any offsets
        if verdict.glp and len(verdict.labeling.offsets) == spec.n:
            offsets = dict(verdict.labeling.offsets)
        else:
            offsets = dict(enumerate(
                data.draw(st.lists(st.integers(0, k - 1), min_size=spec.n, max_size=spec.n))))
        offsets[data.draw(st.integers(0, spec.n - 1))] = data.draw(st.integers(0, k - 1))
        assert _labels_outcome(lambda s, o: make_labeling(s, o).labels, spec, offsets) == (
            _labels_outcome(_reference_labels, spec, offsets))


    def test_threads_share_one_labeling(self):
        # more threads than cores and a short switch interval: iteration and
        # lookups of one shared mapping must agree in every thread
        spec = generate_glp_example(12)
        labeling = glp_via_slices(spec).labeling
        labels = labeling.labels
        want = [(v.coeffs, lab) for v, lab in _reference_labels(spec, labeling.offsets).items()]
        n_threads = (os.cpu_count() or 1) + 3
        barrier = threading.Barrier(n_threads)
        seen: list[bool | None] = [None] * n_threads

        def work(slot: int) -> None:
            barrier.wait(timeout=30)
            ok = True
            for _ in range(20):
                items = [(v.coeffs, labels[v]) for v in labels]
                ok = ok and items == want and len(labels) == len(want)
            seen[slot] = ok

        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert seen == [True] * n_threads


def _cells_spec(spec, chosen):
    """The partial spec of the cells `chosen` (ascending) of `spec`, in order."""
    return make_spec(spec.k, [spec.cells[i].barycenter for i in chosen], partial=True)


@st.composite
def any_route_specs(draw):
    """A catalog, generated or grown spec (`keyed_label_cases`), or one of
    `moved_specs`: translated, or with Phi_k folded into its coefficients."""
    if draw(st.booleans()):
        return draw(keyed_label_cases())[0]
    return draw(st.sampled_from(draw(moved_specs())))


class TestLazyLabels:
    @given(any_route_specs())
    @settings(max_examples=150, deadline=None)
    def test_every_route_matches_make_labeling(self, spec):
        routes = [decide_glp, decide_glp_even if spec.k % 2 == 0 else decide_glp_odd]
        if not spec.partial:
            routes.append(glp_via_slices)
        for route in routes:
            try:
                verdict = route(spec)
            except (SpecError, DisconnectedSpec):
                continue  # the route does not accept the spec
            if not verdict.glp:
                continue
            offsets = verdict.labeling.offsets
            labels = verdict.labeling.labels
            assert "_by_id" not in vars(labels)  # nothing built before the first read
            assert sorted(offsets) == list(range(spec.n))  # every route labels every cell
            eager = make_labeling(spec, offsets)
            assert "_by_id" in vars(eager.labels)
            # point by point: each vertex key gets make_labeling's label
            assert labels._by_key == eager.labels._by_key and "_by_id" in vars(labels)
            assert len(labels) == len(eager.labels)
            assert labels._by_id == eager.labels._by_id
            with pytest.raises(KeyError):
                make_labeling(spec, {i: offsets[i] for i in range(1, spec.n)})


def _keyed_labels(spec, offsets):
    """Labels keyed by vertex key, filled in cell order as a key-indexed
    store would be, raising at the first cell whose offset disagrees."""
    k = spec.k
    labels = {}
    for i, cell in enumerate(spec.cells):
        for j, key in enumerate(cyc_unit_translate_keys(cell.barycenter)):
            lab = (j + offsets[i]) % k
            if labels.setdefault(key, lab) != lab:
                raise SpecError(f"offsets disagree at a shared vertex of cell {i}")
    return labels


def _keyed_check(spec, by_key):
    """check_labeling over a key-indexed label store."""
    k = spec.k
    for i, cell in enumerate(spec.cells):
        labs = [by_key.get(key) for key in cyc_unit_translate_keys(cell.barycenter)]
        if None in labs:
            raise LabelingError(f"vertex of cell {i} has no label")
        if any((labs[j] - j - labs[0]) % k for j in range(k)):
            return False
    return True


@st.composite
def id_table_specs(draw):
    """A catalog spec, or plain or symmetrized growth for k = 3..12."""
    kind = draw(st.sampled_from(["catalog", "plain", "symmetrized"]))
    if kind == "catalog":
        return catalog(draw(st.sampled_from(CATALOG_NAMES)))
    return random_valid_spec(draw(st.integers(3, 12)), draw(st.integers(2, 40)),
                             draw(st.integers(0, 10_000)), symmetrize=kind == "symmetrized")


class TestVertexIdLabels:
    @given(id_table_specs(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_key_based_reference(self, spec, data):
        k = spec.k
        verdict = decide_glp(spec)
        if verdict.glp:
            offsets = verdict.labeling.offsets
        else:
            offsets = dict(enumerate(
                data.draw(st.lists(st.integers(0, k - 1), min_size=spec.n, max_size=spec.n))))
        # labelings on this spec, on a slice subspec, and plain dicts
        cases = []
        try:
            cases.append((spec, offsets, make_labeling(spec, offsets)))
        except SpecError:
            pass
        if verdict.glp:
            cases.append((spec, offsets, verdict.labeling))
        if not spec.partial and spec.k >= 6:
            try:
                via = glp_via_slices(spec)
            except SpecError:
                via = None
            if via is not None and via.glp:
                chosen = tuple(sorted(via.labeling.offsets))
                sub = _cells_spec(spec, chosen)
                cases.append((sub, {new: via.labeling.offsets[old] for new, old in enumerate(chosen)},
                              via.labeling))
        for owner, own_offsets, labeling in cases:
            ref = _keyed_labels(owner, own_offsets)
            labels = labeling.labels
            assert [v.canonical_key() for v in labels] == list(ref)
            assert {v.canonical_key(): lab for v, lab in dict(labels).items()} == ref
            assert len(labels) == len(ref)
            assert _outcome(check_labeling, spec, labeling) == _outcome(_keyed_check, spec, ref)
            plain = dict(labels)
            if data.draw(st.booleans()):
                v = list(plain)[data.draw(st.integers(0, len(plain) - 1))]
                if data.draw(st.booleans()):
                    del plain[v]
                else:
                    plain[v] = (plain[v] + data.draw(st.integers(1, k - 1))) % k
            by_key = {v.canonical_key(): lab for v, lab in plain.items()}
            assert _outcome(check_labeling, spec, Labeling(k, own_offsets, plain)) == (
                _outcome(_keyed_check, spec, by_key))

        # offsets that disagree raise at the same cell, eagerly or on first read
        changed = dict(offsets)
        changed[data.draw(st.integers(0, spec.n - 1))] = data.draw(st.integers(0, k - 1))
        lazy = _decided_labeling(spec, dict(enumerate(changed[i] for i in range(spec.n)))).labels
        want = _raised(lambda: list(_keyed_labels(spec, changed).values()))
        assert want == _raised(lambda: make_labeling(spec, changed).labels._by_id)
        assert want == _raised(lambda: lazy._by_id)


def _raised(build):
    try:
        return build()
    except SpecError as exc:
        return str(exc)


class TestBruteForceOracle:
    @pytest.mark.parametrize(
        "name", ["sierpinski-gasket", "vicsek-cross", "sierpinski-hexagon",
                 "lindstrom-snowflake", "pentagon-ring"]
    )
    def test_catalog_agreement(self, name):
        spec = catalog(name)
        assert brute_force_glp(spec) == decide_glp(spec).glp

    def test_counterexample_agreement(self):
        for k in (6, 9):
            spec = generate_counterexample(k)
            assert brute_force_glp(spec) is False
            assert not decide_glp(spec).glp

    @given(st.integers(3, 9), st.integers(2, 8), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_small_specs_agree(self, k, cells, seed):
        spec = random_valid_spec(k, cells, seed)
        assert brute_force_glp(spec) == decide_glp(spec).glp


class TestDeciderEquivalence:
    @given(st.integers(0, 10_000), st.integers(2, 30))
    @settings(max_examples=30, deadline=None)
    def test_even_matches_general(self, seed, cells):
        for k in (6, 8):
            spec = random_valid_spec(k, cells, seed)
            general, even = decide_glp(spec), decide_glp_even(spec)
            assert even.serialize() == general.serialize()
            if general.glp:
                offsets = general.labeling.offsets
                assert even.labeling.offsets == offsets
                assert even.classes == {i: r // (k // 2) + 1 for i, r in offsets.items()}

    @given(st.integers(0, 10_000), st.integers(2, 30))
    @settings(max_examples=30, deadline=None)
    def test_odd_matches_general(self, seed, cells):
        for k in (5, 9):
            spec = random_valid_spec(k, cells, seed)
            general, odd = decide_glp(spec), decide_glp_odd(spec)
            assert odd.serialize() == general.serialize()
            if general.glp:
                assert odd.labeling.offsets == general.labeling.offsets

    @given(st.integers(3, 10), st.integers(4, 25), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_unlabelable_prefix_poisons_grown_spec(self, k, cells, seed):
        # growth prefixes are connected sub-configurations: a prefix with no
        # labeling forces the full grown spec to have none
        spec = random_valid_spec(k, cells, seed)
        prefix = make_spec(k, [c.barycenter for c in spec.cells[: cells // 2]], partial=True)
        if not decide_glp(prefix).glp:
            assert not decide_glp(spec).glp

    def test_weight_sum_tracks_rotation_count(self):
        # along any cycle: weight sum = -(k+1)/2 * (c - d) mod k
        for k, seed in ((9, 3), (5, 7), (7, 11)):
            spec = random_valid_spec(k, 30, seed)
            graph = build_constraint_graph(spec)
            plus = (k + 1) // 2
            for cyc in fundamental_cycles(graph):
                total, c_minus_d = 0, 0
                for i, u in enumerate(cyc):
                    v = cyc[(i + 1) % len(cyc)]
                    w = graph.weight(u, v)
                    total += w
                    c_minus_d += 1 if (-w) % k == plus else -1
                assert total % k == (-plus * c_minus_d) % k


def _sorted_forest(n, edges):
    """The spanning forest as built before `_forest` relied on edge order:
    each adjacency list sorted explicitly."""
    adj = [[] for _ in range(n)]
    for idx, e in enumerate(edges):
        adj[e.a].append((e.b, idx))
        adj[e.b].append((e.a, idx))
    for lst in adj:
        lst.sort()
    parent, parent_edge = [-1] * n, [-1] * n
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, idx in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    parent[v], parent_edge[v] = u, idx
                    queue.append(v)
    return tuple(parent), tuple(parent_edge)


def _forest_corpus():
    specs = [catalog(name) for name in CATALOG_NAMES]
    for k in range(3, 13):
        for symmetrize in (False, True):
            specs += [random_valid_spec(k, cells, seed, symmetrize) for cells, seed in ((12, k), (40, 7 * k))]
    specs += [expand(generate_glp_example(k), 2) for k in range(6, 13)]
    for k in range(3, 13):
        ring = generate_glp_example(k)
        specs.append(make_spec(k, [fold(k, c.barycenter.coeffs, c.index % k, 2**29 - c.index)
                                   for c in ring.cells]))
    return specs


class TestForestEdgeOrder:
    """`_forest` visits neighbours in ascending order without sorting them,
    which holds because the edges come in ascending (a, b) order."""

    def test_edges_come_in_pair_order(self):
        for spec in _forest_corpus():
            pairs = [(e.a, e.b) for e in find_adjacencies(spec)[0]]
            assert all(a < b for a, b in pairs)
            assert pairs == sorted(set(pairs))

    def test_forest_matches_sorted_reference(self):
        for spec in _forest_corpus():
            graph = build_constraint_graph(spec)
            got = (graph.parent, graph.parent_edge)
            assert got == _sorted_forest(spec.n, list(graph.edges))

    def test_order_puts_parents_first(self):
        for spec in _forest_corpus():
            graph = build_constraint_graph(spec)
            seen = set()
            for v in graph.order:
                assert graph.parent[v] == -1 or graph.parent[v] in seen
                seen.add(v)
            assert sorted(graph.order) == list(range(spec.n))


class TestSpecRecords:
    """Each spec derives its graph, its sectors and its slice region once,
    however many callers read them, and errors still raise on every call."""

    @pytest.mark.parametrize("k", [9, 12])
    def test_one_forest_per_spec(self, k):
        spec = random_valid_spec(k, 40, 3, symmetrize=True)
        by_parity = decide_glp_even if k % 2 == 0 else decide_glp_odd
        e = find_adjacencies(spec)[0][0]
        with recording(model, "_forest") as built:
            for _ in range(2):
                assert validate(spec).valid
                assert decide_glp(spec).glp == by_parity(spec).glp
                assert cycle_weight(spec, (e.a, e.b)) == 0
        assert [args[0] for args in built] == [spec]
        graph = build_constraint_graph(spec)
        assert build_constraint_graph(spec) is graph and spec._records["graph"] is graph

    @pytest.mark.parametrize("k", [7, 12])
    def test_one_sector_pass_per_spec(self, k):
        spec = generate_glp_example(k)
        with recording(glp, "_sectors") as passes:
            for _ in range(2):
                sector = slices(spec).sector
                closed = closed_slices(spec)
                assert slice_subspec(spec, [1]).n == sector.count(1)
                assert slice_subspec(spec, [1], closed=True).n == len(closed[0])
        assert passes == [(spec,)]

    @pytest.mark.parametrize("k", [6, 9, 12])
    def test_one_region_per_spec(self, k):
        spec = generate_glp_example(k)
        with (recording(glp, "_region") as regions, recording(glp, "_forest") as built,
              recording(model, "_forest") as whole):
            first = glp_via_slices(spec).serialize()
            assert glp_via_slices(spec).serialize() == first
        assert len(regions) == 1
        # both calls decide on the one held region forest, built once on the
        # spec's own indices; the spec's whole graph is not built
        assert [args[0] for args in built] == [spec] and whole == []
        chosen, graph = spec._records["reg"]
        assert sorted(graph.order) == list(chosen) and "graph" not in spec._records

    def test_errors_raise_on_every_call(self):
        disconnected = make_spec(
            6,
            [(0,) * 6, (9, 0, 0, 0, 0, 0)] + [tuple(zeta(6, j, 2).coeffs) for j in range(4)],
        )
        illegal = make_spec(5, [(0,) * 5, cyc_sub(zeta(5, 0), zeta(5, 1))], partial=True)
        nested = make_spec(6, [(0,) * 6, (0, 0, 0, 0, -1, 1), (0, 0, -1, 0, 0, 1)])
        assert validate(nested).symmetry_witness is not None
        for _ in range(2):
            with pytest.raises(DisconnectedSpec):
                decide_glp(disconnected)
            with pytest.raises(SpecError, match="odd-k adjacency must rotate"):
                decide_glp_odd(illegal)
            with pytest.raises(SpecError, match="violate nesting"):
                glp_via_slices(nested)
        assert validate(disconnected).component_count == 2

    def test_closed_slices_list_is_fresh(self):
        # find_adjacencies: TestNearPairMemo::test_returned_edges_are_a_copy
        spec = generate_glp_example(8)
        closed = closed_slices(spec)
        want = list(closed)
        closed.clear()
        assert closed_slices(spec) == want and len(want) == 8

    @pytest.mark.parametrize("k", range(6, 13))
    def test_slice_labeling_covers_its_region(self, k):
        # the region is decided, and its labeling is carried to every cell
        spec = generate_glp_example(k)
        labeling = glp_via_slices(spec).labeling
        chosen = spec._records["reg"][0]
        assert len(chosen) < spec.n and sorted(labeling.offsets) == list(range(spec.n))
        assert check_labeling(_cells_spec(spec, chosen), labeling)
        assert check_labeling(spec, labeling)


# psi_13 (OEIS A014233): the least composite that is a strong probable prime
# to every prime base up to 41
PSI_13 = 3_317_044_064_679_887_385_961_981


class TestClassifyLargeK:
    def test_agrees_with_trial_division(self):
        for k in range(3, 20_000):
            prime = all(k % p for p in range(2, math.isqrt(k) + 1))
            reason = "prime" if prime else "power_of_two" if k & (k - 1) == 0 else None
            got = classify_k(k)
            assert (got.always_glp, got.reason) == (reason is not None, reason), k

    def test_mersenne_prime(self):
        assert str(classify_k(2**61 - 1)) == "AlwaysGLP(prime)"

    @pytest.mark.parametrize("k", [561, 1105, 1729, 41041, 3_825_123_056_546_413_051])
    def test_pseudoprimes_are_conditional(self, k):
        assert str(classify_k(k)) == "Conditional"

    @pytest.mark.parametrize("k", [PSI_13, PSI_13 + 2, 2**100])
    def test_at_or_above_psi_13_raises(self, k):
        with pytest.raises(ValueError, match=str(PSI_13)):
            classify_k(k)

    def test_below_psi_13_is_classified(self):
        assert str(classify_k(PSI_13 - 1)) == "Conditional"  # even, no power of two
