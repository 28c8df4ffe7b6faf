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
from itertools import product
from operator import add

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
from snfglp.model import CATALOG_NAMES, _dihedral, catalog, make_spec


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


def audit(spec, keys, verdict, looked_up=None):
    """Assert that `verdict` carries a valid certificate for `spec`.

    A labeling's offsets are checked at every vertex on the audit's own
    keys, and its mapping is looked up by value at the vertices of the
    cells `looked_up`, every cell by default; each lookup builds and
    reduces one vertex value."""
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
        for i in offsets if looked_up is None else looked_up:
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


# level-1 specs whose expansions are labeled by the closed form below
LEVEL1 = dict(
    [(f"ring-{k}", lambda k=k: generate_glp_example(k)) for k in range(3, 37)]
    + [(f"catalog-{name}", lambda name=name: catalog(name)) for name in CATALOG_NAMES]
    + [(f"growth-{k}-{seed}", lambda k=k, seed=seed: random_valid_spec(k, 40, seed, symmetrize=True))
       for k in (6, 8, 9, 10, 12) for seed in range(4)]
)
EXPANSION_CAP = 3_000  # cells of an expansion checked at levels 2 and 3


@cache
def _level1(name):
    return LEVEL1[name]()


def _whole(spec):
    """The same cells as a non-partial spec."""
    return make_spec(spec.k, [c.barycenter for c in spec.cells])


def _vertex_keys(spec, cells):
    """{cell: the long-division key of each vertex b + zeta^j} for `cells`,
    the keys `_keys` makes: remainder_key is linear, so the key of zeta^j is
    added to the barycenter's."""
    k = spec.k
    rows = [remainder_key(k, [int(i == j) for i in range(k)]) for j in range(k)]
    out = {}
    for i in cells:
        key = remainder_key(k, spec.cells[i].barycenter.coeffs)
        out[i] = [tuple(map(add, key, row)) for row in rows]
    return out


def _closed_form(spec, verdict, level):
    """The offsets of `expand(spec, level)` by the closed form of
    `test_expansion_labeled_in_closed_form`, from the level-1 GLP verdict."""
    k, r = spec.k, verdict.labeling.offsets
    t = (r[_dihedral(spec).rot[0]] - r[0]) % k
    return {i: sum(pow(1 + t, m, k) * r[d] for m, d in enumerate(choice)) % k
            for i, choice in enumerate(product(range(spec.n), repeat=level))}


@pytest.mark.parametrize("name", list(LEVEL1))
def test_expansion_labeled_in_closed_form(name):
    """GLP carries to every level by a formula that shares no code with the
    deciders.

    Let r be `decide_glp`'s offsets of a valid level-1 spec of n cells with
    GLP, and t = r[rot[0]] - r[0] mod k, `rot` of the dihedral record: a
    D_k-invariant labeling steps by one constant along the rotation, as
    `glp_via_slices` relies on.  Index cell i of `expand(spec, l)` by its
    offset choice (d_0, .., d_{l-1}) in the order of
    product(range(n), repeat=l), d_0 the unscaled choice.  Then

        offset(i) = sum over m of (1 + t)^m * r[d_m]  mod k.

    Sketch: two copies a and b of one depth meet where the level-1 cells a
    and b do, at the vertex ja of copy a's corner cell in direction ja and
    the vertex jb of copy b's corner cell in direction jb.  Corner offsets
    step by t along the rotation, so the constraint between the two copy
    shifts is (ja - jb)(1 + t): level 1's constraint times 1 + t, which
    compounds to (1 + t)^m at depth m.  Every route on the expansion, made
    non-partial, gives these offsets, and each labeling passes the audit on
    the audit's own keys, with by-value lookups at the first and last cell;
    `test_every_decider_certificate` looks up every cell of level-2
    expansions.

    NOGLP side: each copy is a translate of level 1, so the level-1 witness
    placed in copy 0, the cells (w, 0, .., 0), is a cycle of the expansion
    with the same weights, by the audit's own keys.
    """
    spec = _level1(name)
    n = spec.n
    verdict = decide_glp(spec)
    for level in (2, 3):
        if n**level > EXPANSION_CAP:
            continue
        big = _whole(expand(spec, level))
        if not verdict.glp:
            walk = tuple(w * n ** (level - 1) for w in verdict.witness)
            audit(big, _vertex_keys(big, walk), Verdict(glp=False, witness=walk))
            continue
        want = _closed_form(spec, verdict, level)
        keys = _vertex_keys(big, range(big.n))
        for method, decider in _deciders(big):
            got = decider(big)
            assert got.labeling.offsets == want, (name, level, method)
            audit(big, keys, got, looked_up=(0, big.n - 1))


def test_level3_ring_labeled_in_closed_form():
    """The closed form past EXPANSION_CAP, on one expansion: level 3 of the
    k = 12 ring, 13,824 cells, the spec of the fractal3 benchmark.  Offsets
    only: the long-division audit of its vertex keys is left to the smaller
    expansions.  Here t = 0, as 4 | k, so the offsets are plain sums of the
    level-1 offsets mod k."""
    spec = _level1("ring-12")
    verdict = decide_glp(spec)
    assert verdict.glp
    r = verdict.labeling.offsets
    assert r[_dihedral(spec).rot[0]] == r[0]  # t = 0
    big = _whole(expand(spec, 3))
    assert big.n == 13_824 > EXPANSION_CAP
    want = _closed_form(spec, verdict, 3)
    for method, decider in _deciders(big):
        assert decider(big).labeling.offsets == want, method


def test_expansions_reach_both_verdicts():
    # the NOGLP side is the snowflake and growth at k = 6 and 12
    noglp = [name for name in LEVEL1 if not decide_glp(_level1(name)).glp]
    assert "catalog-lindstrom-snowflake" in noglp
    assert {name.split("-")[1] for name in noglp if name.startswith("growth")} == {"6", "12"}
