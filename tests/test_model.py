"""Configuration geometry, axiom validation, file format, catalog."""
from __future__ import annotations

import itertools
import math
import os
import random
import sys
import threading
from operator import sub

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import cell_sum, fold
from snfglp import model
from snfglp.construct import random_valid_spec
from snfglp.cyclotomic import (
    COEFF_LIMIT,
    CycInt,
    CoefficientOverflow,
    _canonical,
    _embed,
    _embed_error,
    _mapped_key,
    _unit_circle,
    cyc_add,
    cyc_conj,
    cyc_eq,
    cyc_is_zero,
    cyc_neg,
    cyc_reflect,
    cyc_rotate,
    cyc_scale,
    cyc_sub,
    from_coeffs,
    to_cartesian,
    zero,
    zeta,
)
from snfglp.glp import (
    check_labeling,
    decide_glp,
    decide_glp_even,
    decide_glp_odd,
    glp_via_slices,
    make_labeling,
    slices,
)
from snfglp.model import (
    HULL_EPS,
    Cell,
    ParseError,
    FractalSpec,
    ScalingError,
    SpecError,
    _NEAR,
    _Grid,
    _conflict_steps,
    _conflicting,
    _hulls_overlap,
    _overlap_at_vertex,
    _scaled_points,
    _step_table,
    _support_table,
    _vertex_keys,
    catalog,
    cells_conflict,
    derive_scaling,
    find_adjacencies,
    make_spec,
    parse,
    serialize,
    shared_vertices,
    validate,
    vertices,
)
from snfglp.render import RenderOptions, render_svg

GASKET_TEXT = "snf k=3\ncell 1 0 0\ncell 0 1 0\ncell 0 0 1\n"


def cell(k, coeffs, index=0):
    return Cell(from_coeffs(k, coeffs), index)


def sample_interior_points(poly, steps=14):
    """Oracle helper: a grid of points strictly inside a convex polygon."""
    cx = sum(x for x, _ in poly) / len(poly)
    cy = sum(y for _, y in poly) / len(poly)
    pts = []
    for i in range(1, steps):
        for j, (x, y) in enumerate(poly):
            x2, y2 = poly[(j + 1) % len(poly)]
            for t in (0.25, 0.5, 0.75):
                ex, ey = x + t * (x2 - x), y + t * (y2 - y)
                f = i / steps
                pts.append((cx + f * (ex - cx) * 0.999, cy + f * (ey - cy) * 0.999))
    return pts


def point_in_polygon(p, poly):
    """Oracle: strict half-plane test for a counter-clockwise convex polygon."""
    px, py = p
    for j, (x, y) in enumerate(poly):
        x2, y2 = poly[(j + 1) % len(poly)]
        if (x2 - x) * (py - y) - (y2 - y) * (px - x) <= 1e-12:
            return False
    return True


def hulls_overlap_oracle(a: Cell, b: Cell) -> bool:
    pa = [to_cartesian(v) for v in vertices(a)]
    pb = [to_cartesian(v) for v in vertices(b)]
    return any(point_in_polygon(p, pb) for p in sample_interior_points(pa))


def vertex_sat_overlap(a: Cell, b: Cell) -> bool:
    """Reference: separating-axis test on the two cells' float vertex polygons.

    Projects both polygons on each edge normal of the first one (the same
    k normals, since both are translates of one k-gon); a projection gap
    <= HULL_EPS on some axis means separated or merely touching.
    """
    k = a.barycenter.order
    pa = [to_cartesian(v) for v in vertices(a)]
    pb = [to_cartesian(v) for v in vertices(b)]
    for i in range(k):
        x0, y0 = pa[i]
        x1, y1 = pa[(i + 1) % k]
        nx, ny = y1 - y0, x0 - x1
        proj_a = [nx * x + ny * y for x, y in pa]
        proj_b = [nx * x + ny * y for x, y in pb]
        gap = min(max(proj_a), max(proj_b)) - max(min(proj_a), min(proj_b))
        if gap <= HULL_EPS:
            return False
    return True


def vertex_sat_conflict(a: Cell, b: Cell) -> bool:
    """Reference conflict rule: >= 2 shared vertices, else distance exit, else vertex SAT."""
    if len(shared_vertices(a, b)) >= 2:
        return True
    ax, ay = to_cartesian(a.barycenter)
    bx, by = to_cartesian(b.barycenter)
    if (ax - bx) ** 2 + (ay - by) ** 2 >= 4.0:
        return False
    return vertex_sat_overlap(a, b)


@st.composite
def cell_pairs(draw):
    """Two distinct cells of one order k in 3..16: a random small base plus an offset.

    The offset is a random small vector, a vertex-to-vertex step
    zeta^ja - zeta^jb (a touching pair; at exactly distance 2 when the
    vertices are opposite), or 2 * zeta^j (distance exactly 2).
    """
    k = draw(st.integers(3, 16))
    small = st.lists(st.integers(-2, 2), min_size=k, max_size=k)
    base = from_coeffs(k, draw(small))
    kind = draw(st.sampled_from(("random", "vertex-step", "double-root")))
    if kind == "random":
        delta = from_coeffs(k, draw(small))
    elif kind == "vertex-step":
        ja = draw(st.integers(0, k - 1))
        jb = draw(st.integers(0, k - 1))
        delta = cyc_sub(zeta(k, ja), zeta(k, jb))
    else:
        delta = zeta(k, draw(st.integers(0, k - 1)), 2)
    if cyc_is_zero(delta):
        delta = zeta(k, 0, 3)
    return Cell(base, 0), Cell(cyc_add(base, delta), 1)


class TestVertices:
    def test_gasket_cell(self):
        vs = vertices(cell(3, (0, 0, 0)))
        assert len(vs) == 3
        assert all(cyc_eq(v, zeta(3, j)) for j, v in enumerate(vs))

    def test_offset_cell_contains_zeta0(self):
        c = cell(6, (2, 0, 0, 0, 0, 0))
        assert any(cyc_eq(v, zeta(6, 0)) for v in vertices(c))

    def test_k4_contains_3zeta1(self):
        c = cell(4, (0, 2, 0, 0))
        assert any(cyc_eq(v, zeta(4, 1, 3)) for v in vertices(c))


class TestSharedVertices:
    def test_forced_single_pair(self):
        a = cell(3, (0, 0, 0), 0)
        b = Cell(cyc_sub(zeta(3, 0), zeta(3, 1)), 1)
        assert shared_vertices(a, b) == [(0, 1)]

    def test_diameter_pair(self):
        a = cell(6, (0,) * 6, 0)
        b = cell(6, (2, 0, 0, 0, 0, 0), 1)
        assert shared_vertices(a, b) == [(0, 3)]

    def test_far_cells_share_nothing(self):
        a = cell(6, (0,) * 6, 0)
        b = cell(6, (4, 0, 0, 0, 0, 0), 1)
        assert shared_vertices(a, b) == []

    def test_extreme_coefficients_with_out_of_range_difference(self):
        # a = 2^31 (1 + zeta + zeta^2) = 0 and b = 1 - zeta in k = 3; b - a,
        # built coefficient by coefficient, leaves the supported range
        a = cell(3, (COEFF_LIMIT,) * 3, 0)
        b = cell(3, (-COEFF_LIMIT + 2, -COEFF_LIMIT, -COEFF_LIMIT + 1), 1)
        with pytest.raises(CoefficientOverflow):
            cyc_sub(b.barycenter, a.barycenter)
        assert shared_vertices(a, b) == [(0, 1)]


def difference_shared(a: Cell, b: Cell) -> list[tuple[int, int]]:
    """Reference: shared vertices looked up by the key of the built value b - a."""
    delta = cyc_sub(b.barycenter, a.barycenter)
    return list(_step_table(a.barycenter.order).get(delta.canonical_key(), ()))


def difference_conflict(a: Cell, b: Cell) -> bool:
    """Reference: `cells_conflict` with its shared-vertex rule on the built b - a."""
    if len(difference_shared(a, b)) >= 2:
        return True
    ax, ay = to_cartesian(a.barycenter)
    bx, by = to_cartesian(b.barycenter)
    if (ax - bx) ** 2 + (ay - by) ** 2 >= 4.0:
        return False
    return _hulls_overlap(a.barycenter.order, bx - ax, by - ay)


@st.composite
def wide_cell_pairs(draw):
    """`cell_pairs` moved by a large base and given a large zero summand.

    The base has coefficients up to 2^30; the second cell also adds m times
    a vanishing sum of p-th roots of unity (p prime, p | k) with |m| up to
    2^29, so its coefficients differ from the first cell's by up to ~2^29
    while the cells stay close or touch.  Every coefficient of both cells
    and of their difference stays within COEFF_LIMIT.
    """
    a, b = draw(cell_pairs())
    k = a.barycenter.order
    big = st.integers(-(2**30), 2**30)
    base = from_coeffs(k, [draw(big) for _ in range(k)])
    p = min(d for d in range(2, k + 1) if k % d == 0)
    shift = draw(st.integers(0, k - 1))
    m = draw(st.integers(-(2**29), 2**29))
    vanishing = [0] * k
    for q in range(p):
        vanishing[(shift + q * (k // p)) % k] = m
    second = cyc_add(cyc_add(b.barycenter, base), from_coeffs(k, vanishing))
    return Cell(cyc_add(a.barycenter, base), 0), Cell(second, 1)


class TestConflicts:
    def test_diameter_touch_is_legal(self):
        a = cell(6, (0,) * 6, 0)
        b = cell(6, (2, 0, 0, 0, 0, 0), 1)
        assert not cells_conflict(a, b)
        assert not hulls_overlap_oracle(a, b)

    def test_overlapping_hexagons(self):
        a = cell(6, (0,) * 6, 0)
        b = cell(6, (1, 0, 0, 0, 0, 0), 1)
        assert cells_conflict(a, b)
        assert hulls_overlap_oracle(a, b)

    def test_disjoint_squares(self):
        a = cell(4, (0, 0, 0, 0), 0)
        b = cell(4, (2, 2, 0, 0), 1)
        assert not cells_conflict(a, b)
        assert not hulls_overlap_oracle(a, b)

    def test_two_shared_vertices_is_conflict(self):
        # squares one unit-chord apart share a whole edge
        a = cell(4, (0, 0, 0, 0), 0)
        b = Cell(cyc_sub(zeta(4, 0), zeta(4, 1)), 1)
        assert len(shared_vertices(a, b)) == 2
        assert cells_conflict(a, b)

    @pytest.mark.parametrize("k", range(3, 13))
    def test_oracle_agreement_on_lattice_offsets(self, k):
        a = cell(k, (0,) * k, 0)
        for j1 in range(k):
            for j2 in range(k):
                delta = cyc_sub(zeta(k, j1, 2), zeta(k, j2))
                if cyc_is_zero(delta):
                    continue
                b = Cell(delta, 1)
                shared = shared_vertices(a, b)
                if len(shared) >= 2:
                    continue  # conflict by definition, hull state irrelevant
                assert cells_conflict(a, b) == hulls_overlap_oracle(a, b), (j1, j2)

    @given(cell_pairs())
    @settings(max_examples=300, deadline=None)
    def test_matches_vertex_sat_reference(self, pair):
        a, b = pair
        assert cells_conflict(a, b) == vertex_sat_conflict(a, b)
        assert cells_conflict(b, a) == vertex_sat_conflict(b, a)

    @given(st.one_of(cell_pairs(), wide_cell_pairs()))
    @settings(max_examples=300, deadline=None)
    def test_matches_built_difference_reference(self, pair):
        a, b = pair
        assert shared_vertices(a, b) == difference_shared(a, b)
        assert shared_vertices(b, a) == difference_shared(b, a)
        assert cells_conflict(a, b) == difference_conflict(a, b)
        assert cells_conflict(b, a) == difference_conflict(b, a)


def fold_cell(cell_, j, m):
    k = cell_.barycenter.order
    return Cell(from_coeffs(k, fold(k, cell_.barycenter.coeffs, j, m)), cell_.index)


class TestExactConflicts:
    @given(cell_pairs(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_coefficients_do_not_matter(self, pair, data):
        # the answer depends on the points only, also when their float
        # embeddings come from coefficients near 2^30
        a, b = pair
        k = a.barycenter.order
        folds = st.tuples(st.integers(0, k - 1), st.integers(-(2**30) + 4, 2**30 - 4))
        fa, fb = fold_cell(a, *data.draw(folds)), fold_cell(b, *data.draw(folds))
        assert cells_conflict(fa, fb) == cells_conflict(a, b)
        assert cells_conflict(fb, fa) == cells_conflict(b, a)

    @pytest.mark.parametrize("k", range(3, 37))
    def test_one_vertex_steps_are_far_from_the_cut(self, k):
        # the index rule `_overlap_at_vertex` agrees with the float hull test
        # on every offset zeta^ja - zeta^jb, whose hulls touch (gap 0) or
        # clearly overlap, so float rounding cannot flip that test either
        circle = _unit_circle(k)
        for ja, jb in itertools.product(range(k), repeat=2):
            dx, dy = circle[ja][0] - circle[jb][0], circle[ja][1] - circle[jb][1]
            gap = min(w - abs(nx * dx + ny * dy) for nx, ny, w in _support_table(k))
            assert abs(gap) < 1e-12 or gap > 1e-3
            assert _overlap_at_vertex(k, ja, jb) == (gap > 1e-3) == _hulls_overlap(k, dx, dy)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_dihedral_and_negation_invariant(self, data):
        # symmetrized growth tests one cell per orbit on this: every element of
        # D_k, and negation, keeps the answer on a vertex step or on any other
        # key difference shorter than _NEAR
        k = data.draw(st.integers(3, 36))
        table = _step_table(k)
        if data.draw(st.booleans()):
            delta = data.draw(st.sampled_from(sorted(table)))
        else:
            coeffs = [0] * k
            for _ in range(data.draw(st.integers(2, 4))):
                coeffs[data.draw(st.integers(0, k - 1))] += data.draw(st.sampled_from((-1, 1)))
            delta = _canonical(k, tuple(coeffs))
            assume(any(delta) and delta not in table and math.hypot(*_embed(k, delta)) < _NEAR)
        answer = _conflicting(k, delta)
        assert _conflicting(k, tuple(-c for c in delta)) == answer
        for shift in range(k):
            for sign in (1, -1):
                assert _conflicting(k, _mapped_key(k, delta, shift, sign)) == answer


class TestNearGrid:
    def test_slack_covers_the_embedding_error(self):
        worst = max(_embed_error(k, (COEFF_LIMIT,) * k) for k in range(3, 37))
        assert worst == _embed_error(36, (COEFF_LIMIT,) * 36) < 2**-9.9
        # two points at exact distance 2 are within 2 * sqrt(2) * worst of it in
        # floats; the margin left covers rounding of d^2 and of x / _NEAR
        assert 2 + 2 * math.sqrt(2) * 2**-9.9 + 2**-11 < _NEAR
        assert 36 * COEFF_LIMIT / _NEAR < 2**36  # bucket rounding below 2^-17

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_finds_every_pair_at_distance_two(self, data):
        k = data.draw(st.integers(3, 36))
        big = st.integers(-(2**30), 2**30)
        base = Cell(from_coeffs(k, data.draw(st.lists(big, min_size=k, max_size=k))), 0)
        ja, jb = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1))
        step = [0] * k
        step[ja] += 1
        step[jb] -= 1
        other = Cell(cyc_add(base.barycenter, from_coeffs(k, step)), 1)
        folds = st.tuples(st.integers(0, k - 1), st.integers(-(2**30) + 2, 2**30 - 2))
        other = fold_cell(other, *data.draw(folds))
        grid = _Grid()
        grid.add(base)
        assert any(c is base for c in grid.near(other))


class TestBarycenter:
    def test_hexagon_ring_centered(self):
        assert cyc_is_zero(cell_sum(catalog("sierpinski-hexagon")))

    def test_single_cell(self):
        spec = make_spec(5, [(0, 0, 0, 0, 0)], partial=True)
        assert cyc_is_zero(cell_sum(spec))

    def test_gasket_centered(self):
        assert cyc_is_zero(cell_sum(catalog("sierpinski-gasket")))


class TestScaling:
    def test_gasket(self):
        assert cyc_eq(derive_scaling(catalog("sierpinski-gasket")), zeta(3, 0, 2))

    def test_vicsek(self):
        assert cyc_eq(derive_scaling(catalog("vicsek-cross")), zeta(4, 0, 3))

    def test_hexagon(self):
        assert cyc_eq(derive_scaling(catalog("sierpinski-hexagon")), zeta(6, 0, 3))

    def test_pentagon_ring_golden(self):
        scaling = derive_scaling(catalog("pentagon-ring"))
        x, y = to_cartesian(scaling)
        assert abs(y) < 1e-12
        assert abs(x - (1.5 + math.sqrt(5) / 2)) < 1e-12  # 1 + golden ratio

    def test_partial_rejected(self):
        spec = make_spec(5, [(0,) * 5, tuple(zeta(5, 2).coeffs)], partial=True)
        with pytest.raises(ScalingError):
            derive_scaling(spec)

    @pytest.mark.parametrize("jb", [1, 3])
    def test_real_cell_with_shared_tip_is_no_corner(self, jb):
        # rotations of 2 and of 3 - zeta^jb: the only real cell, 2, has its
        # tip 3 on vertex jb of the cell 3 - zeta^jb
        other = cyc_sub(zeta(4, 0, 3), zeta(4, jb))
        cells = [zero(4)] + [cyc_rotate(b, j) for b in (zeta(4, 0, 2), other) for j in range(4)]
        spec = make_spec(4, cells)
        report = validate(spec)
        assert (report.corner_ok, report.corner_witness) == (False, 0)
        with pytest.raises(ScalingError, match="no corner cell"):
            derive_scaling(spec)

    def test_central_cell_is_no_corner(self):
        # a ring with no cell on the positive real axis, around a central
        # cell 1 - zeta + zeta^2 = 0 whose scaled position embeds at x > 0
        ring = [tuple(2 * ((i - j) % 6 in (0, 1)) for i in range(6)) for j in range(6)]
        spec = make_spec(6, ring + [(1, -1, 1, 0, 0, 0)])
        assert _embed(6, _scaled_points(spec)[0][6])[0] > 0
        report = validate(spec)
        assert (report.corner_ok, report.corner_witness) == (False, 0)
        with pytest.raises(ScalingError, match="no corner cell"):
            derive_scaling(spec)


class TestValidate:
    def test_snowflake_valid_with_central_cell(self):
        report = validate(catalog("lindstrom-snowflake"))
        assert report.valid
        assert report.central_cell == 6

    def test_catalog_specs_valid(self):
        for name in (
            "sierpinski-gasket",
            "vicsek-cross",
            "sierpinski-hexagon",
            "pentagon-ring",
        ):
            assert validate(catalog(name)).valid, name

    def test_k7_central_cell_flagged(self):
        from snfglp.construct import generate_glp_example

        ring = generate_glp_example(7)
        spec = make_spec(7, [c.barycenter for c in ring.cells] + [zero(7)])
        report = validate(spec)
        assert not report.central_ok
        assert report.central_cell == 7
        assert not report.valid

    def test_broken_ring_fails_symmetry(self):
        ring = catalog("sierpinski-hexagon")
        spec = make_spec(6, [c.barycenter for c in ring.cells[:-1]])
        report = validate(spec)
        assert not report.symmetry_ok
        assert not report.valid

    def test_partial_flag_skips_symmetry(self):
        ring = catalog("sierpinski-hexagon")
        spec = make_spec(6, [c.barycenter for c in ring.cells[:-1]], partial=True)
        report = validate(spec)
        assert report.symmetry_ok and report.corner_ok

    def test_overlap_reported_with_witness(self):
        spec = make_spec(6, [(0,) * 6, (1, 0, 0, 0, 0, 0)], partial=True)
        report = validate(spec)
        assert not report.nesting_ok
        assert report.nesting_witness == (0, 1)

    def test_disconnected_counted(self):
        spec = make_spec(6, [(0,) * 6, (9, 0, 0, 0, 0, 0)], partial=True)
        report = validate(spec)
        assert not report.connectivity_ok
        assert report.component_count == 2

    def test_duplicate_barycenters_rejected(self):
        with pytest.raises(SpecError):
            # first two cells are equal mod Phi_3: (2,1,1) = (1,0,0) + (1,1,1)
            make_spec(3, [(1, 0, 0), (2, 1, 1), (0, 1, 0)])
        with pytest.raises(SpecError):
            make_spec(3, [(1, 0, 0), (1, 0, 0), (0, 1, 0)])

    def test_shift_past_coefficient_range_of_running_sum(self):
        # the sum of the barycenters has coefficients past COEFF_LIMIT; the
        # scaled positions are formed from Python ints, so nothing overflows
        from snfglp.construct import generate_glp_example

        ring = generate_glp_example(4)
        shift = cyc_scale(from_coeffs(4, (1, 1, 0, 0)), 2**28)
        shifted = make_spec(4, [cyc_add(c.barycenter, shift) for c in ring.cells])
        lines, plain = validate(shifted).lines(), validate(ring).lines()
        for axiom in ("symmetry:", "central-cell:"):
            assert [x for x in lines if x.startswith(axiom)] == [
                x for x in plain if x.startswith(axiom)
            ]

    def test_each_key_reflected_once(self, monkeypatch):
        # the symmetry test and the corner search share one reflection per
        # scaled key; rotation maps every key once more and the corner's
        # orbit k - 1 times
        from snfglp import model
        from snfglp.construct import expand, generate_glp_example

        level2 = expand(generate_glp_example(12), 2)
        spec = make_spec(12, [c.barycenter for c in level2.cells])
        mapped = model._mapped_key
        calls = []

        def counting(*args):
            calls.append(args[2:])
            return mapped(*args)

        monkeypatch.setattr(model, "_mapped_key", counting)
        assert validate(spec).valid
        assert spec.n == 576
        assert calls.count((0, -1)) == spec.n
        assert len(calls) == 2 * spec.n + 11

    def test_vertex_at_center_rejected(self):
        # symmetric orbit of cells whose vertices land exactly on the barycenter
        from snfglp.construct import generate_glp_example

        ring = generate_glp_example(4)
        orbit = [zeta(4, j) for j in range(4)]
        spec = make_spec(4, [c.barycenter for c in ring.cells] + orbit)
        report = validate(spec)
        assert report.vertex_at_center == 8
        assert not report.central_ok


def _scaled_positions(spec: FractalSpec) -> list[CycInt]:
    """n * (barycenter - global barycenter) for every cell; exact and integral."""
    total = cell_sum(spec)
    return [cyc_sub(cyc_scale(c.barycenter, spec.n), total) for c in spec.cells]


def per_j_vertex_at_center(spec) -> int | None:
    """Reference: the first cell with p + n * zeta^j == 0 for some j, p its scaled position."""
    k, n = spec.k, spec.n
    if spec.partial or k <= 3:
        return None
    for cell, p in zip(spec.cells, _scaled_positions(spec)):
        if any(cyc_eq(cyc_add(p, zeta(k, j, n)), zero(k)) for j in range(k)):
            return cell.index
    return None


@st.composite
def center_specs(draw):
    """Non-partial specs of small cells; half of them get one more cell that
    moves the mean barycenter onto a vertex of an earlier cell."""
    k = draw(st.integers(4, 12))
    rows = draw(
        st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k), min_size=1, max_size=8)
    )
    cells = [from_coeffs(k, row) for row in rows]
    hit = draw(st.booleans())
    if hit:
        i = draw(st.integers(0, len(cells) - 1))
        mean = cyc_add(cells[i], zeta(k, draw(st.integers(0, k - 1))))
        total = zero(k)
        for b in cells:
            total = cyc_add(total, b)
        cells.append(cyc_sub(cyc_scale(mean, len(cells) + 1), total))
    assume(len({b.canonical_key() for b in cells}) == len(cells))
    return make_spec(k, cells), hit


class TestVertexAtCenter:
    def test_ring_with_vertex_orbit(self):
        from snfglp.construct import generate_glp_example

        ring = generate_glp_example(4)
        spec = make_spec(4, [c.barycenter for c in ring.cells] + [zeta(4, j) for j in range(4)])
        assert per_j_vertex_at_center(spec) == validate(spec).vertex_at_center == 8

    @pytest.mark.parametrize("name", ["vicsek-cross", "sierpinski-hexagon", "lindstrom-snowflake", "pentagon-ring"])
    def test_catalog_has_none(self, name):
        spec = catalog(name)
        assert per_j_vertex_at_center(spec) is validate(spec).vertex_at_center is None

    @given(center_specs())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_j_reference(self, case):
        spec, hit = case
        found = validate(spec).vertex_at_center
        assert found == per_j_vertex_at_center(spec)
        if hit:
            assert found is not None


def all_reflections_symmetry(spec) -> tuple[bool, tuple[str, int] | None]:
    """Reference: the symmetry verdict of a non-partial spec, testing all k reflections."""
    positions = _scaled_positions(spec)
    keys = sorted(p.canonical_key() for p in positions)
    if sorted(cyc_rotate(p, 1).canonical_key() for p in positions) != keys:
        return False, ("rotation", 1)
    for m in range(spec.k):
        if sorted(cyc_reflect(p, m).canonical_key() for p in positions) != keys:
            return False, ("reflection", m)
    return True, None


@st.composite
def symmetry_specs(draw):
    """Non-partial copies of generated and grown specs; some lose a cell or
    gain a rotation orbit, with or without its mirror image."""
    from snfglp.construct import generate_counterexample, generate_glp_example, random_valid_spec

    k = draw(st.integers(3, 12))
    kind = draw(st.sampled_from(["example", "counterexample", "plain", "symmetrized"]))
    if kind == "example" or (kind == "counterexample" and k in (3, 4, 5, 7, 8, 11)):
        base = generate_glp_example(k)
    elif kind == "counterexample":
        base = generate_counterexample(k)
    else:
        seed = draw(st.integers(0, 10_000))
        base = random_valid_spec(k, draw(st.integers(2, 30)), seed, symmetrize=kind == "symmetrized")
    cells = [c.barycenter for c in base.cells]
    change = draw(st.sampled_from(["none", "drop", "chiral", "mirrored"]))
    if change == "drop" and len(cells) > 1:
        del cells[draw(st.integers(0, len(cells) - 1))]
    elif change in ("chiral", "mirrored"):
        p = from_coeffs(k, draw(st.lists(st.integers(-40, 40), min_size=k, max_size=k)))
        orbit = [cyc_rotate(p, j) for j in range(k)]
        if change == "mirrored":
            orbit += [cyc_rotate(cyc_conj(p), j) for j in range(k)]
        cells += orbit
    assume(len({b.canonical_key() for b in cells}) == len(cells))
    return make_spec(k, cells)


class TestReflectionSymmetry:
    def test_chiral_rotation_invariant_spec(self):
        # zeta^j * (3 + zeta): closed under rotation, not under any reflection
        p = from_coeffs(4, (3, 1, 0, 0))
        spec = make_spec(4, [cyc_rotate(p, j) for j in range(4)])
        report = validate(spec)
        assert "symmetry: FAIL ('reflection', 0)" in report.lines()
        assert all_reflections_symmetry(spec) == (False, ("reflection", 0))

    @given(symmetry_specs())
    @settings(max_examples=150, deadline=None)
    def test_matches_all_reflections_reference(self, spec):
        report = validate(spec)
        assert (report.symmetry_ok, report.symmetry_witness) == all_reflections_symmetry(spec)


class TestAdjacencies:
    def test_hexagon_ring_edges(self):
        edges, violation = find_adjacencies(catalog("sierpinski-hexagon"))
        assert violation is None
        assert [(e.a, e.b) for e in edges] == [(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)]

    def test_edge_share_flagged(self):
        a = zero(4)
        b = cyc_sub(zeta(4, 0), zeta(4, 1))
        spec = make_spec(4, [a, b], partial=True)
        edges, violation = find_adjacencies(spec)
        assert edges == [] and violation == (0, 1)


def _fresh_copy(spec):
    """The same configuration with every value built anew, so nothing is cached."""
    return make_spec(spec.k, [c.barycenter.coeffs for c in spec.cells], spec.partial)


class TestNearPairMemo:
    SPECS = [
        lambda: catalog("lindstrom-snowflake"),
        lambda: catalog("pentagon-ring"),
        lambda: random_valid_spec(9, 30, 2, symmetrize=True),
        lambda: random_valid_spec(12, 40, 6, symmetrize=True),
    ]

    @pytest.mark.parametrize("build", SPECS, ids=["snowflake", "pentagon", "sym-k9", "sym-k12"])
    def test_one_close_pair_pass_per_spec(self, build, monkeypatch):
        spec = _fresh_copy(build())
        seen = []
        close_pairs = model._close_pairs

        def counting(s):
            seen.append(s)
            return close_pairs(s)

        monkeypatch.setattr(model, "_close_pairs", counting)
        validate(spec)
        decide_glp(spec)
        (decide_glp_even if spec.k % 2 == 0 else decide_glp_odd)(spec)
        glp_via_slices(spec)
        find_adjacencies(spec)
        # the slice route may decide a subspec, a spec of its own
        assert sum(s is spec for s in seen) == 1
        assert len(seen) == len({id(s) for s in seen}) <= 2

    def test_returned_edges_are_a_copy(self):
        spec = catalog("sierpinski-hexagon")
        edges, violation = find_adjacencies(spec)
        want = list(edges)
        edges.clear()
        assert find_adjacencies(spec) == (want, violation)
        assert len(want) == 6

    def test_threads_share_fresh_spec(self):
        # more threads than cores and a short switch interval, so first
        # writes of the memoized pass and of the lazy labels interleave
        base = random_valid_spec(10, 60, 1, symmetrize=True)
        labeled = RenderOptions(show_labels=True)
        base_verdict = decide_glp(base)
        want = {
            "validate": validate(base),
            "adjacencies": find_adjacencies(base),
            "verdict": base_verdict.serialize(),
            "labels": [(v.coeffs, lab) for v, lab in base_verdict.labeling.labels.items()],
            "vertex_keys": _vertex_keys(base),
            "checked": check_labeling(base, base_verdict.labeling),
            "svg": render_svg(base, base_verdict, labeled),
        }
        spec = _fresh_copy(base)
        verdict = decide_glp(_fresh_copy(base))
        labels = verdict.labeling.labels
        assert verdict.glp and spec._near is None and labels._store is None
        assert spec._vkeys is None and labels._spec._vkeys is None
        calls = {
            "validate": lambda: validate(spec),
            "adjacencies": lambda: find_adjacencies(spec),
            "verdict": lambda: decide_glp(spec).serialize(),
            "labels": lambda: [(v.coeffs, lab) for v, lab in labels.items()],
            "vertex_keys": lambda: _vertex_keys(spec),
            "checked": lambda: check_labeling(spec, verdict.labeling),
            "svg": lambda: render_svg(spec, verdict, labeled),
        }
        n_threads = (os.cpu_count() or 1) + 3
        barrier = threading.Barrier(n_threads)
        seen: list[dict | None] = [None] * n_threads

        def work(slot: int) -> None:
            names = sorted(calls)
            random.Random(slot).shuffle(names)
            barrier.wait(timeout=30)
            seen[slot] = {name: calls[name]() for name in names}

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
        assert all(out == want for out in seen)


class TestVertexKeyMemo:
    def test_keys_of_each_vertex(self):
        spec = random_valid_spec(9, 30, 2, symmetrize=True)
        keys = _vertex_keys(spec)
        assert _vertex_keys(spec) is keys
        assert keys == tuple([v.canonical_key() for v in vertices(c)] for c in spec.cells)

    @pytest.mark.parametrize("decided", [False, True], ids=["make_labeling", "decider"])
    def test_built_once_per_spec(self, decided, monkeypatch):
        spec = _fresh_copy(random_valid_spec(10, 60, 1, symmetrize=True))
        built = []
        translate_keys = model.cyc_unit_translate_keys

        def counting(b):
            built.append(b)
            return translate_keys(b)

        monkeypatch.setattr(model, "cyc_unit_translate_keys", counting)
        verdict = decide_glp(spec)
        assert verdict.glp and not built
        labeling = verdict.labeling if decided else make_labeling(spec, verdict.labeling.offsets)
        assert check_labeling(spec, labeling)
        render_svg(spec, verdict, RenderOptions(show_labels=True))
        assert built == [c.barycenter for c in spec.cells]


def _old_step_table(k):
    """Reference: the table built from the CycInt differences zeta^ja - zeta^jb."""
    table = {}
    for ja in range(k):
        for jb in range(k):
            if ja != jb:
                key = cyc_sub(zeta(k, ja), zeta(k, jb)).canonical_key()
                table.setdefault(key, []).append((ja, jb))
    return {key: tuple(pairs) for key, pairs in table.items()}


def _old_conflict_steps(k):
    """Reference: one hull test per index pair (ja, jb)."""
    circle = _unit_circle(k)
    return frozenset(
        step
        for step, ((ja, jb), *more) in _old_step_table(k).items()
        if more or _hulls_overlap(k, *map(sub, circle[ja], circle[jb]))
    )


class TestPerKTables:
    @pytest.mark.parametrize("k", range(3, 37))
    def test_step_table_matches_values(self, k):
        assert list(_step_table(k).items()) == list(_old_step_table(k).items())

    @pytest.mark.parametrize("k", range(3, 37))
    def test_conflict_steps_match_per_pair_tests(self, k):
        assert _conflict_steps(k) == _old_conflict_steps(k)


def all_pairs_nesting_witness(spec):
    """Reference: every pair in (i, j) order, tested with shared_vertices and cells_conflict."""
    pairs = list(itertools.combinations(range(spec.n), 2))
    cells = spec.cells
    violation = next((p for p in pairs if len(shared_vertices(*map(cells.__getitem__, p))) >= 2), None)
    conflict = next((p for p in pairs if cells_conflict(*map(cells.__getitem__, p))), None)
    return violation or conflict


@st.composite
def cluttered_specs(draw):
    """Partial specs of a few cells with small coefficients: many close pairs
    that are no vertex step, many conflicts of both kinds."""
    k = draw(st.integers(3, 8))
    coeffs = st.lists(st.sampled_from((-1, 0, 0, 1, 2)), min_size=k, max_size=k)
    rows = draw(st.lists(coeffs, min_size=2, max_size=8))
    keys = [from_coeffs(k, r).canonical_key() for r in rows]
    assume(len(set(keys)) == len(keys))
    return make_spec(k, rows, partial=True)


class TestLazyConflictWitness:
    @staticmethod
    def _counting(monkeypatch):
        calls = []
        conflicting = model._conflicting

        def counting(k, delta):
            calls.append(delta)
            return conflicting(k, delta)

        monkeypatch.setattr(model, "_conflicting", counting)
        return calls

    @given(cluttered_specs())
    @settings(max_examples=300, deadline=None)
    def test_witness_matches_all_pairs_reference(self, spec):
        assert validate(spec).nesting_witness == all_pairs_nesting_witness(spec)

    def test_only_validate_embeds(self, monkeypatch):
        # the pair is close (distance 2) but no vertex step, and does not conflict
        spec = make_spec(3, [(0, 0, 0), (-1, 1, -1)], partial=True)
        calls = self._counting(monkeypatch)
        decide_glp(spec)
        decide_glp_odd(spec)
        slices(spec)
        render_svg(spec, decide_glp(spec), RenderOptions(show_labels=True))
        assert find_adjacencies(spec) == ([], None) and calls == []
        assert validate(spec).nesting_ok and len(calls) == 1

    def test_stops_at_the_first_step_conflict(self, monkeypatch):
        k = 5
        step = next(s for s, pairs in _step_table(k).items() if s in _conflict_steps(k))
        near = (-1, -1, -1, 0, 0)  # 1.618 from the origin, no vertex step, conflicting
        assert tuple(near[:4]) not in _step_table(k) and cells_conflict(cell(k, (0,) * k), cell(k, near))
        step_cell = tuple(step) + (0,)
        calls = self._counting(monkeypatch)
        assert validate(make_spec(k, [(0,) * k, step_cell, near], partial=True)).nesting_witness == (0, 1)
        assert calls == []
        assert validate(make_spec(k, [(0,) * k, near, step_cell], partial=True)).nesting_witness == (0, 1)
        assert len(calls) == 1


class TestFormat:
    def test_parse_gasket(self):
        spec = parse(GASKET_TEXT)
        assert spec.k == 3 and spec.n == 3 and not spec.partial
        assert cyc_eq(spec.cells[0].barycenter, zeta(3, 0))

    def test_round_trip_is_identity(self):
        for name in ("sierpinski-gasket", "pentagon-ring", "lindstrom-snowflake"):
            text = serialize(catalog(name))
            assert serialize(parse(text)) == text

    def test_comments_and_blank_lines_ignored(self):
        text = "# header comment\n\nsnf k=3\n# mid comment\ncell 1 0 0\ncell 0 1 0\ncell 0 0 1\n"
        assert parse(text).n == 3

    def test_partial_header(self):
        spec = parse("snf k=5 partial\ncell 0 0 0 0 0\n")
        assert spec.partial

    def test_k_too_small(self):
        with pytest.raises(ParseError):
            parse("snf k=2\ncell 1 0\n")

    def test_wrong_coefficient_count(self):
        with pytest.raises(ParseError):
            parse("snf k=3\ncell 1 0\n")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse("nope\n")
        with pytest.raises(ParseError):
            parse("snf k=3\nvertex 1 0 0\n")
        with pytest.raises(ParseError):
            parse("snf k=3\n")


class TestCatalog:
    def test_gasket(self):
        spec = catalog("sierpinski-gasket")
        assert spec.k == 3 and spec.n == 3
        assert validate(spec).valid

    def test_snowflake(self):
        spec = catalog("lindstrom-snowflake")
        assert spec.n == 7
        assert validate(spec).central_cell is not None

    def test_vicsek(self):
        spec = catalog("vicsek-cross")
        assert spec.k == 4 and spec.n == 5
        assert validate(spec).central_cell == 0

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            catalog("menger-sponge")
