"""Answers depend on the points, not on their coefficient vectors.

Adjacency, validation and the verdict must not change when every cell is
translated by one in-range vector, or when a cell's coefficients gain a
multiple of the folded cyclotomic polynomial (which is zero in Z[zeta_k]),
so that its float point is embedded from coefficients near 2^30.
"""
from __future__ import annotations

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fold
from snfglp.construct import generate_counterexample, generate_glp_example, random_valid_spec
from snfglp.glp import decide_glp
from snfglp.model import (
    CATALOG_NAMES,
    Adjacency,
    catalog,
    find_adjacencies,
    make_spec,
    parse,
    shared_vertices,
    validate,
)

_SPECS = (
    [lambda name=name: catalog(name) for name in CATALOG_NAMES]
    + [lambda k=k: generate_glp_example(k) for k in (5, 6, 8, 9, 12, 16, 36)]
    + [lambda k=k: generate_counterexample(k) for k in (6, 9, 12, 15)]
    + [
        lambda: random_valid_spec(7, 20, 3),
        lambda: random_valid_spec(12, 30, 4),
        lambda: random_valid_spec(8, 30, 5, symmetrize=True),
        lambda: random_valid_spec(12, 40, 6, symmetrize=True),
    ]
)


@cache
def _spec(i):
    return _SPECS[i]()


def shifted(spec, rows):
    return make_spec(spec.k, rows, spec.partial)


def translated(spec, t):
    """Every barycenter plus the vector t."""
    return shifted(spec, [tuple(map(int.__add__, c.barycenter.coeffs, t)) for c in spec.cells])


def folded(spec, draws):
    """Cell i plus m_i * zeta^(j_i) * Phi_k, the same point with other
    coefficients, m_i clamped so that they stay within 2^30."""
    rows = []
    for cell, (j, m) in zip(spec.cells, draws):
        bound = 2**30 - max(map(abs, cell.barycenter.coeffs))
        rows.append(fold(spec.k, cell.barycenter.coeffs, j, max(-bound, min(bound, m))))
    return shifted(spec, rows)


@st.composite
def moved_specs(draw):
    """A base spec and the same points moved by a translation or per-cell folds."""
    spec = _spec(draw(st.integers(0, len(_SPECS) - 1)))
    k = spec.k
    if draw(st.booleans()):
        t = draw(st.lists(st.integers(-(2**20), 2**20), min_size=k, max_size=k))
        return spec, translated(spec, t)
    pair = st.tuples(st.integers(0, k - 1), st.integers(-(2**30), 2**30))
    return spec, folded(spec, draw(st.lists(pair, min_size=spec.n, max_size=spec.n)))


def all_pairs_adjacencies(spec):
    """Reference: `shared_vertices` on every pair of cells."""
    edges = []
    violation = None
    for i, a in enumerate(spec.cells):
        for b in spec.cells[i + 1:]:
            pairs = shared_vertices(a, b)
            if len(pairs) == 1:
                edges.append(Adjacency(i, b.index, *pairs[0]))
            elif pairs and violation is None:
                violation = (i, b.index)
    return edges, violation


class TestMovedPoints:
    @given(moved_specs())
    @settings(max_examples=120, deadline=None)
    def test_answers_unchanged(self, pair):
        spec, moved = pair
        assert find_adjacencies(moved) == find_adjacencies(spec)
        assert validate(moved).lines() == validate(spec).lines()
        assert decide_glp(moved).serialize() == decide_glp(spec).serialize()

    @given(moved_specs())
    @settings(max_examples=60, deadline=None)
    def test_adjacencies_match_all_pairs_reference(self, pair):
        for spec in pair:
            assert find_adjacencies(spec) == all_pairs_adjacencies(spec)


class TestShiftedReproducers:
    """Inputs whose adjacency was lost to float error in the near-pair test."""

    def test_k12_example_shift(self):
        base = generate_glp_example(12)
        spec = translated(base, (0, 0, 0, 0, 1048570, 0, 0, 0, -366999, 0, -1048576, 0))
        edges, violation = find_adjacencies(spec)
        assert len(edges) == 24 and violation is None
        assert (edges, violation) == find_adjacencies(base)
        assert decide_glp(spec).glp
        assert validate(spec).lines()[-1] == "valid: yes"

    @pytest.mark.parametrize("k, m", [(6, 2**24), (8, 2**24), (12, 2**24), (8, 2**30)])
    def test_example_plus_multiple_of_one_plus_zeta(self, k, m):
        base = generate_glp_example(k)
        spec = translated(base, (m, m) + (0,) * (k - 2))
        assert find_adjacencies(spec) == find_adjacencies(base)
        assert decide_glp(spec).serialize() == decide_glp(base).serialize()
        assert validate(spec).valid

    def test_folded_snowflake(self):
        spec = parse(FOLDED_SNOWFLAKE)
        verdict = decide_glp(spec)
        assert not verdict.glp and verdict.witness == (1, 0, 6)
        report = validate(spec)
        assert report.component_count == 1 and report.valid


# The Lindstrom snowflake with each cell plus a multiple of a fold of Phi_6.
FOLDED_SNOWFLAKE = """\
snf k=6 partial
cell -19411101 19411103 -19411103 0 0 0
cell -105632175 105632177 -105632175 0 0 0
cell 150255908 -150255908 150255910 0 0 0
cell -252171772 252171772 -252171772 2 0 0
cell -199682220 199682220 -199682220 0 2 0
cell -97281079 97281079 -97281079 0 0 2
cell -222491084 222491084 -222491084 0 0 0
"""
