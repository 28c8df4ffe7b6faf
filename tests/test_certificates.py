"""Audit of every decider's certificate with code that shares nothing with them.

Each vertex b + zeta^j is keyed by long division by Phi_k
(`conftest.remainder_key`), not by `_canonical`, and vertices are matched in a
plain dict: no grid, no step table, no near-pair record.  So a missed or extra
adjacency in the library shows here as a labeling that gives one point two
labels, or as a witness whose cells do not share a vertex or whose weights sum
to zero.

* GLP: every cell has an offset, each point gets one label, the labeling's
  mapping counts the same points, and each cell's labels are a rotation of
  0..k-1.
* NOGLP: the witness is a closed walk of distinct cells, consecutive cells
  share exactly one vertex, and the sum of ja - jb around it is nonzero mod k.
"""
from __future__ import annotations

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fold, remainder_key
from snfglp.construct import (
    expand,
    generate_counterexample,
    generate_glp_example,
    random_valid_spec,
)
from snfglp.cyclotomic import from_coeffs
from snfglp.glp import (
    Labeling,
    Verdict,
    build_constraint_graph,
    classify_k,
    cycle_weight,
    decide_glp,
    decide_glp_even,
    decide_glp_odd,
    edge_weight,
    fundamental_cycles,
    glp_via_slices,
    make_labeling,
)
from snfglp.model import CATALOG_NAMES, catalog, make_spec


def _shifted(spec):
    """The same points with cell i's coefficients moved by a multiple of
    zeta^(i mod k) * Phi_k (zero) of up to 2^29."""
    rows = [fold(spec.k, c.barycenter.coeffs, c.index % spec.k, (-1) ** c.index * (2**29 - c.index))
            for c in spec.cells]
    return make_spec(spec.k, rows, spec.partial)


def _corpus():
    composite = [k for k in range(3, 37) if not classify_k(k).always_glp]
    out = [(f"catalog-{name}", lambda name=name: catalog(name)) for name in CATALOG_NAMES]
    out += [(f"ring-{k}", lambda k=k: generate_glp_example(k)) for k in range(3, 37)]
    out += [(f"counterexample-{k}", lambda k=k: generate_counterexample(k)) for k in composite]
    out += [(f"level2-{k}", lambda k=k: expand(generate_glp_example(k), 2)) for k in range(6, 13)]
    out += [(f"shifted-ring-{k}", lambda k=k: _shifted(generate_glp_example(k))) for k in range(3, 13)]
    out += [(f"shifted-counterexample-{k}", lambda k=k: _shifted(generate_counterexample(k)))
            for k in composite if k <= 15]
    return out


CORPUS = _corpus()


@cache
def _spec(name):
    return dict(CORPUS)[name]()


@cache
def _keys(name):
    """Per cell, the long-division key of each vertex b + zeta^j."""
    spec = _spec(name)
    out = []
    for cell in spec.cells:
        b = cell.barycenter.coeffs
        out.append([remainder_key(spec.k, b[:j] + (b[j] + 1,) + b[j + 1:]) for j in range(spec.k)])
    return out


def audit(spec, keys, verdict):
    """Assert that `verdict` carries a valid certificate for `spec`."""
    k = spec.k
    if verdict.glp:
        offsets = verdict.labeling.offsets
        assert sorted(offsets) == list(range(spec.n)), "labeling misses cells"
        label_of = {}
        for i, r in offsets.items():
            for j, key in enumerate(keys[i]):
                lab = (j + r) % k
                assert label_of.setdefault(key, lab) == lab, f"a vertex of cell {i} gets two labels"
        labels = verdict.labeling.labels
        assert len(labels) == len(label_of), "the labeling's points are not the cells' points"
        for i in offsets:
            b = spec.cells[i].barycenter.coeffs
            row = [labels[from_coeffs(k, b[:j] + (b[j] + 1,) + b[j + 1:])] for j in range(k)]
            assert row == [label_of[key] for key in keys[i]]
            assert {(lab - j) % k for j, lab in enumerate(row)} == {row[0]}, f"cell {i} is no rotation"
        return
    walk = verdict.witness
    assert len(walk) >= 3 and len(set(walk)) == len(walk), "witness is no cycle of distinct cells"
    assert set(walk) <= set(range(spec.n))
    total = 0
    for a, b in zip(walk, walk[1:] + walk[:1]):
        index_b = {key: jb for jb, key in enumerate(keys[b])}
        shared = [(ja, index_b[key]) for ja, key in enumerate(keys[a]) if key in index_b]
        assert len(shared) == 1, f"cells {a} and {b} share {len(shared)} vertices"
        total += shared[0][0] - shared[0][1]
    assert total % k != 0, "witness cycle has weight 0"


def _deciders(spec):
    """The deciders that apply to `spec`, by name."""
    out = [("general", decide_glp)]
    out.append(("even", decide_glp_even) if spec.k % 2 == 0 else ("odd", decide_glp_odd))
    if not spec.partial:
        out.append(("slices", glp_via_slices))
    return out


@pytest.mark.parametrize("name", [name for name, _ in CORPUS])
def test_every_decider_certificate(name):
    spec = _spec(name)
    keys = _keys(name)
    verdicts = {}
    for method, decider in _deciders(spec):
        verdict = decider(spec)
        audit(spec, keys, verdict)
        verdicts[method] = verdict.glp
    assert len(set(verdicts.values())) == 1, verdicts


def test_audit_rejects_bad_certificates():
    """The audit itself: a shifted offset, a zero-weight cycle and a walk
    through cells that share no vertex all fail it."""
    spec, keys = _spec("ring-12"), _keys("ring-12")
    offsets = dict(decide_glp(spec).labeling.offsets)
    offsets[1] = (offsets[1] + 1) % spec.k
    with pytest.raises(AssertionError, match="two labels"):
        audit(spec, keys, Verdict(glp=True, labeling=Labeling(spec.k, offsets, {})))
    cycle = fundamental_cycles(build_constraint_graph(spec))[0]
    with pytest.raises(AssertionError, match="weight 0"):
        audit(spec, keys, Verdict(glp=False, witness=cycle))
    spec, keys = _spec("counterexample-15"), _keys("counterexample-15")
    witness = decide_glp(spec).witness
    with pytest.raises(AssertionError, match="share 0 vertices"):
        audit(spec, keys, Verdict(glp=False, witness=witness[::2] + witness[1::2]))


def _closed_form_offsets(spec):
    """The offsets that prove GLP for prime and power-of-two k, read off the
    barycenter coefficients alone.

    * Prime k: r_c = sum(i * c_i) mod k over the coefficients c_i of b_c.
      Adding m * zeta^j * Phi_k adds m to every coefficient and changes the
      sum by m * k(k - 1)/2 = 0 mod k, so r_c depends on the point only.  A
      shared vertex has b_b - b_a = zeta^ja - zeta^jb, so r_b - r_a = ja - jb.
    * k = 2^m: r_c = (k/2) * ((sum of key(b_c - b_0)) / 2 mod 2), with keys
      by long division (`remainder_key`).  An adjacency step is
      zeta^ja - zeta^(ja + k/2) = 2 zeta^ja, whose key sums to +-2, so the
      half-sum's parity flips along every edge.
    """
    k = spec.k
    if classify_k(k).reason == "prime":
        return {c.index: sum(i * x for i, x in enumerate(c.barycenter.coeffs)) % k for c in spec.cells}
    base = spec.cells[0].barycenter.coeffs
    out = {}
    for c in spec.cells:
        total = sum(remainder_key(k, [x - y for x, y in zip(c.barycenter.coeffs, base)]))
        assert total % 2 == 0
        out[c.index] = k // 2 * (total // 2 % 2)
    return out


def _same_up_to_shift(k, offsets, other):
    """offsets[c] = other[c] + s mod k for one s and every cell c."""
    assert sorted(offsets) == sorted(other)
    return len({(offsets[c] - other[c]) % k for c in offsets}) == 1


@pytest.mark.parametrize("name", [name for name, _ in CORPUS
                                  if classify_k(_spec(name).k).always_glp])
def test_closed_form_labelings(name):
    spec = _spec(name)
    offsets = _closed_form_offsets(spec)
    audit(spec, _keys(name), Verdict(glp=True, labeling=make_labeling(spec, offsets)))
    by_parity = decide_glp_even if spec.k % 2 == 0 else decide_glp_odd
    # the slice route folds a region's offsets onto every cell
    for decider in (decide_glp, by_parity) + (() if spec.partial else (glp_via_slices,)):
        assert _same_up_to_shift(spec.k, offsets, decider(spec).labeling.offsets), decider.__name__


@pytest.mark.parametrize("name", [name for name, _ in CORPUS if _spec(name).k % 2 == 0])
def test_even_k_edges_weigh_half_k(name):
    # decide_glp_even maps every edge to 1, as the step table makes every
    # even-k edge weigh k/2
    spec = _spec(name)
    assert {edge_weight(e, spec.k) for e in build_constraint_graph(spec).edges} == {spec.k // 2}


@pytest.mark.parametrize("k, p", [(6, 3), (9, 3), (10, 5), (14, 7), (25, 5), (27, 3)])
def test_obstruction_bounds(k, p):
    """Bounds the abstract's "always GLP" theorems put on obstructions, on
    decide_glp's witnesses over plain growth (k <= 16, where it reaches)
    and the counterexample ring.

    * k = p^m: the prime-k functional sum(i * c_i) works mod p, so every
      cycle weight is 0 mod p.
    * k = 2p: zeta_2p^a = (-1)^a zeta_p^(a(p+1)/2), and zeta_p -> 1 sends
      each edge's step 2 zeta^ja to +-2 mod p, so an odd cycle has at least
      p cells.
    """
    specs = [random_valid_spec(k, t, seed) for seed in range(40) for t in (20, 40) if k <= 16]
    specs.append(generate_counterexample(k))
    witnesses = [(spec, v.witness) for spec in specs if not (v := decide_glp(spec)).glp]
    assert witnesses
    for spec, walk in witnesses:
        if k % 2:
            assert cycle_weight(spec, walk) % p == 0, walk
        else:
            assert len(walk) >= p, walk


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(6, 3), (9, 3), (10, 5), (14, 7)]), st.integers(0, 2**31 - 1),
       st.integers(2, 100), st.data())
def test_obstruction_bounds_over_growth_and_shifts(kp, seed, target, data):
    """test_obstruction_bounds' bounds on every fundamental cycle of plain
    growth, not only on witnesses; and decide_glp's verdict, which is read
    off the points, is unchanged when each cell's coefficients are moved by
    m * zeta^j * Phi_k (zero), |m| <= 2^29."""
    k, p = kp
    spec = random_valid_spec(k, target, seed)
    moves = st.tuples(st.integers(0, k - 1), st.integers(-(2**29), 2**29))
    rows = [fold(k, c.barycenter.coeffs, *data.draw(moves)) for c in spec.cells]
    assert decide_glp(make_spec(k, rows, partial=True)).serialize() == decide_glp(spec).serialize()
    for cycle in fundamental_cycles(build_constraint_graph(spec)):
        if k % 2:
            assert cycle_weight(spec, cycle) % p == 0, cycle
        elif len(cycle) % 2:
            assert len(cycle) >= p, cycle
