"""Configuration geometry, axiom validation, file format, catalog."""
from __future__ import annotations

import itertools
import math
import os
import random
import sys
import threading
from functools import cache

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import PARSE_ERRORS, cell_sum, fold
from snfglp import model
from snfglp.construct import expand, generate_glp_example, random_valid_spec
from snfglp.cyclotomic import (
    COEFF_LIMIT,
    CycInt,
    CoefficientOverflow,
    _canonical,
    _cyclic_product,
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
    DisconnectedSpec,
    check_labeling,
    closed_slices,
    decide_glp,
    decide_glp_even,
    decide_glp_odd,
    glp_via_slices,
    make_labeling,
    slice_subspec,
    slices,
)
from snfglp.model import (
    CATALOG_NAMES,
    Cell,
    ParseError,
    FractalSpec,
    ScalingError,
    SpecError,
    _NEAR,
    _Grid,
    _conflict_steps,
    _conflicting,
    _facets,
    _hulls_overlap,
    _overlap_at_vertex,
    _scaled_points,
    _step_table,
    _vertex_ids,
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
    """Reference: separating-axis test on the two cells' vertex polygons at 50 digits.

    Projects both polygons on each edge normal of the first one (the same
    k normals, since both are translates of one k-gon); a projection gap
    on some axis that is at most 0, up to a 10^-40 rounding allowance at
    50 digits, means separated or merely touching.
    """
    k = a.barycenter.order
    with mpmath.workdps(50):
        circle = [(mpmath.cospi(mpmath.mpf(2 * j) / k), mpmath.sinpi(mpmath.mpf(2 * j) / k))
                  for j in range(k)]

        def polygon(c: Cell):
            bx = mpmath.fsum(x * cos for x, (cos, _) in zip(c.barycenter.coeffs, circle))
            by = mpmath.fsum(x * sin for x, (_, sin) in zip(c.barycenter.coeffs, circle))
            return [(bx + cos, by + sin) for cos, sin in circle]

        pa, pb = polygon(a), polygon(b)
        for i in range(k):
            x0, y0 = pa[i]
            x1, y1 = pa[(i + 1) % k]
            nx, ny = y1 - y0, x0 - x1
            proj_a = [nx * x + ny * y for x, y in pa]
            proj_b = [nx * x + ny * y for x, y in pb]
            gap = min(max(proj_a), max(proj_b)) - max(min(proj_a), min(proj_b))
            if gap <= mpmath.mpf(10) ** -40:
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
    """Reference: `cells_conflict` with its shared-vertex rule on the built
    b - a, and the hull test in place of the one-vertex rule."""
    if len(difference_shared(a, b)) >= 2:
        return True
    return _hulls_overlap(a.barycenter.order, cyc_sub(b.barycenter, a.barycenter).canonical_key())


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

    def test_cells_of_different_order_raise(self):
        a, b = cell(4, (0,) * 4, 0), cell(6, (2,) + (0,) * 5, 1)
        for test in (cells_conflict, shared_vertices):
            with pytest.raises(SpecError, match="^cells of different order$"):
                test(a, b)

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
        # the index rule `_overlap_at_vertex` agrees with the exact hull test
        # on every offset zeta^ja - zeta^jb, whose hulls touch (float gap 0,
        # decided by the exact gap) or clearly overlap
        circle = _unit_circle(k)
        normals, w, _ = _facets(k)
        for ja, jb in itertools.product(range(k), repeat=2):
            dx, dy = circle[ja][0] - circle[jb][0], circle[ja][1] - circle[jb][1]
            gap = min(w - abs(nx * dx + ny * dy) for nx, ny in normals)
            assert abs(gap) < 1e-12 or gap > 1e-3
            step = cyc_sub(zeta(k, ja), zeta(k, jb)).canonical_key()
            assert _overlap_at_vertex(k, ja, jb) == (gap > 1e-3) == _hulls_overlap(k, step)

    @pytest.mark.parametrize("n", [30, 36, 44])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_near_tangent_pentagons(self, n, sign):
        # base_step(5) + sign * phi^-n * zeta^2, phi^-1 = zeta + zeta^4: the
        # pentagon sharing a vertex with the one at 0, pushed by about phi^-n
        # into it (sign -1) or off it; from n = 36 the float gaps are within
        # their error bound of 0, and the exact gap decides
        k = 5
        w = zeta(k, 2).coeffs
        for _ in range(n):
            w = _canonical(k, _cyclic_product(w, (0, 1, 0, 0, 1))) + (0,)
        a, b = cell(k, (0,) * k), cell(k, [s + sign * c for s, c in zip((0, 0, 1, 0, -1), w)], 1)
        assert cells_conflict(a, b) == (sign < 0) == vertex_sat_overlap(a, b)
        normals, width, _ = _facets(k)
        delta = b.barycenter.canonical_key()
        dx, dy = _embed(k, delta)
        gap = min(abs(width - abs(nx * dx + ny * dy)) for nx, ny in normals)
        assert (gap <= 4 * _embed_error(k, delta)) == (n > 30)

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

    def test_corner_orbit_breaks_at_first_missing_rotation(self):
        # the hexagon ring without the opposite cells 2 and 5 keeps its
        # barycenter and its corner cell 0, whose orbit breaks at zeta^2
        report = validate(make_spec(6, [zeta(6, j, 2) for j in (0, 1, 3, 4)]))
        assert (report.corner_ok, report.corner_witness) == (False, 2)

    def test_central_cell_is_no_corner(self):
        # a ring with no cell on the positive real axis, around a central
        # cell 1 - zeta + zeta^2 = 0 whose coefficients embed at x > 0 and
        # whose scaled key is zero
        ring = [tuple(2 * ((i - j) % 6 in (0, 1)) for i in range(6)) for j in range(6)]
        spec = make_spec(6, ring + [(1, -1, 1, 0, 0, 0)])
        assert _embed(6, (1, -1, 1, 0, 0, 0))[0] > 0 and not any(_scaled_points(spec)[6])
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

    @pytest.mark.parametrize("k", range(3, 13))
    def test_central_cell_allowed_only_at_k_3_4_6(self, k):
        ring = generate_glp_example(k)
        report = validate(make_spec(k, [c.barycenter for c in ring.cells] + [zero(k)]))
        allowed = k in (3, 4, 6)
        assert report.central_ok == allowed
        assert f"central-cell: index {ring.n} ({'ok' if allowed else 'FAIL'})" in report.lines()

    @pytest.mark.parametrize("k", [6, 8])
    def test_vertex_at_barycenter_fails(self, k):
        # the k cells at zeta^j: vertex j + k/2 of cell j is their barycenter 0
        report = validate(make_spec(k, [zeta(k, j) for j in range(k)]))
        assert "central-cell: FAIL vertex of cell 0 at barycenter" in report.lines()
        assert report.vertex_at_center == 0 and not report.valid

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

    def test_near_tangent_overlap_reported(self):
        # base_step(5) - phi^-30 * zeta^2, phi^-1 = zeta + zeta^4: the hulls
        # overlap, by about 5e-7 along the edge normal of least overlap
        spec = parse(
            "snf k=5 partial\ncell 0 0 0 0 0\n"
            "cell -214978335 -214146295 -215492563 -214146295 -214978336\n"
        )
        assert validate(spec).nesting_witness == (0, 1)
        assert "nesting: FAIL cells (0, 1)" in validate(spec).lines()

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

    @pytest.mark.parametrize("k, cells, error", [
        (2, (cell(3, (0,) * 3),), "k must be >= 3, got 2"),
        (3, (), "a spec needs at least one cell"),
        (3, (cell(3, (0,) * 3), cell(4, (2,) + (0,) * 3, 1)), "cell order differs from spec order"),
        (3, (cell(3, (0,) * 3, 1),), "cell indices must match list positions"),
    ])
    def test_spec_boundary_error_text(self, k, cells, error):
        with pytest.raises(SpecError) as exc:
            FractalSpec(k, cells)
        assert str(exc.value) == error

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
        # the symmetry test and the corner search share one reflection and
        # one rotation per scaled key; the corner's orbit is walked on the
        # rotation's cell indices.  They run once per spec: the slice route
        # and the scaling factor read the record validate filled.
        from snfglp import model
        from snfglp.construct import expand, generate_glp_example

        level2 = expand(generate_glp_example(12), 2)
        spec = make_spec(12, [c.barycenter for c in level2.cells])
        want = derive_scaling(make_spec(12, [c.barycenter for c in level2.cells]))
        calls = []
        mapped_key = model._mapped_key

        def counting(*args):
            calls.append(args[2:])
            return mapped_key(*args)

        monkeypatch.setattr(model, "_mapped_key", counting)
        assert validate(spec).valid
        assert glp_via_slices(spec).glp
        assert cyc_eq(derive_scaling(spec), want)
        assert spec.n == 576
        assert calls.count((0, -1)) == spec.n
        assert len(calls) == 2 * spec.n

    def test_one_scaled_pass_per_spec(self, monkeypatch):
        # every record is built from its spec alone: the dihedral record makes
        # the one pass expand needs, the slice region one more, and later
        # callers read the records
        import inspect

        from snfglp import construct, glp, model
        from snfglp.construct import expand, generate_glp_example

        assert list(inspect.signature(model._dihedral).parameters) == ["spec"]
        assert not hasattr(construct, "_scaled_points") and not hasattr(construct, "_dihedral")
        scaled_points = model._scaled_points
        passes = []

        def counting(s):
            passes.append(s)
            return scaled_points(s)

        for module in (model, glp):
            monkeypatch.setattr(module, "_scaled_points", counting)
        first, second = generate_glp_example(9), generate_glp_example(12)
        assert expand(first, 2).n == first.n**2
        assert passes == [first]
        assert glp_via_slices(second).glp
        assert passes == [first, second, second]
        assert glp_via_slices(second).glp
        for spec in (first, second):
            derive_scaling(spec)
            assert validate(spec).valid
        assert passes == [first, second, second]

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
        # both shared vertices, (0, 1) and (3, 2), are numbered from the record
        ids, count = _vertex_ids(spec)
        assert list(ids) == [0, 1, 2, 3, 4, 0, 3, 5] and count == 6
        with pytest.raises(SpecError, match="shared vertex of cell 1"):
            make_labeling(spec, {0: 0, 1: 0})


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
        # writes of the memoized passes, of the dihedral record and of the
        # lazy labels interleave
        base = random_valid_spec(10, 60, 1, symmetrize=True)
        labeled = RenderOptions(show_labels=True)
        base_verdict = decide_glp(base)
        want = {
            "validate": validate(base),
            "adjacencies": find_adjacencies(base),
            "verdict": base_verdict.serialize(),
            "labels": [(v.coeffs, lab) for v, lab in base_verdict.labeling.labels.items()],
            "vertex_ids": _vertex_ids(base),
            "checked": check_labeling(base, base_verdict.labeling),
            "svg": render_svg(base, base_verdict, labeled),
            "slices": glp_via_slices(base).serialize(),
            "scaling": derive_scaling(base).coeffs,
            "even": decide_glp_even(base).serialize(),
            "sectors": slices(base),
            "closed": closed_slices(base),
        }
        spec = _fresh_copy(base)
        verdict = decide_glp(_fresh_copy(base))
        labels = verdict.labeling.labels
        assert verdict.glp and spec._near is None and labels._labels is None
        assert spec._vids is None and labels._spec._vids is None and spec._dk is None
        assert spec._graph is None and spec._sect is None and spec._reg is None
        calls = {
            "validate": lambda: validate(spec),
            "adjacencies": lambda: find_adjacencies(spec),
            "verdict": lambda: decide_glp(spec).serialize(),
            "labels": lambda: [(v.coeffs, lab) for v, lab in labels.items()],
            "vertex_ids": lambda: _vertex_ids(spec),
            "checked": lambda: check_labeling(spec, verdict.labeling),
            "svg": lambda: render_svg(spec, verdict, labeled),
            "slices": lambda: glp_via_slices(spec).serialize(),
            "scaling": lambda: derive_scaling(spec).coeffs,
            "even": lambda: decide_glp_even(spec).serialize(),
            "sectors": lambda: slices(spec),
            "closed": lambda: closed_slices(spec),
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

    def test_each_memo_written_once(self, monkeypatch):
        # a memo stored in two steps (a placeholder, then the record) can be
        # read half-built by another thread however short the gap, which a
        # threaded run does not show; model stores every memo through
        # `_memo`'s `object.__setattr__`, so every store is recorded here
        spec = _fresh_copy(random_valid_spec(10, 60, 1, symmetrize=True))
        writes = []

        def recording(target, name, value):
            writes.append((target, name, value))
            object.__setattr__(target, name, value)

        recorder = type("RecordingObject", (), {"__setattr__": staticmethod(recording)})
        monkeypatch.setattr(model, "object", recorder, raising=False)
        verdict = decide_glp(spec)
        validate(spec)
        find_adjacencies(spec)
        check_labeling(spec, make_labeling(spec, verdict.labeling.offsets))
        render_svg(spec, verdict, RenderOptions(show_labels=True, show_slices=True))
        for _ in range(2):
            glp_via_slices(spec)
            slices(spec)
            closed_slices(spec)
            slice_subspec(spec, [1], closed=True)
        derive_scaling(spec)
        mine = [(name, value) for target, name, value in writes if target is spec]
        assert sorted(name for name, _ in mine) == ["_dk", "_graph", "_near", "_reg", "_sect", "_vids"]
        assert all(value is getattr(spec, name) for name, value in mine)


@cache
def _level2_expansion(k):
    return expand(generate_glp_example(k), 2)


@st.composite
def vertex_id_specs(draw):
    """The catalog, plain and symmetrized growth for k = 3..12, level-2
    expansions and cluttered partial specs; for even k maybe with a cell
    added that shares two vertices with another, and maybe with every cell
    shifted by one point and folded by its own multiple of Phi_k, so that
    coefficients reach 2^30."""
    source = draw(st.sampled_from(["catalog", "growth", "expansion", "cluttered"]))
    if source == "catalog":
        spec = catalog(draw(st.sampled_from(CATALOG_NAMES)))
    elif source == "growth":
        k, target = draw(st.integers(3, 12)), draw(st.integers(2, 30))
        spec = random_valid_spec(k, target, draw(st.integers(0, 999)), symmetrize=draw(st.booleans()))
    elif source == "expansion":
        spec = _level2_expansion(draw(st.sampled_from((5, 6, 12))))
    else:
        spec = draw(cluttered_specs())
    k = spec.k
    rows = [list(c.barycenter.coeffs) for c in spec.cells]
    if k % 2 == 0 and draw(st.booleans()):
        # b + zeta^ja - zeta^jb shares vertex ja and vertex jb + k/2 of cell b
        ja, jb = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        assume((ja - jb) % k not in (0, k // 2))
        row = list(draw(st.sampled_from(rows)))
        row[ja] += 1
        row[jb] -= 1
        rows.insert(draw(st.integers(0, len(rows))), row)
    if draw(st.booleans()):
        bound = 2**29
        rng = random.Random(draw(st.integers(0, 2**32)))
        shift = [rng.randint(-bound, bound) for _ in range(k)]
        rows = [
            fold(k, list(map(sum, zip(row, shift))), rng.randrange(k), rng.randint(-bound, bound))
            for row in rows
        ]
    keys = [from_coeffs(k, row).canonical_key() for row in rows]
    assume(len(set(keys)) == len(keys))
    return make_spec(k, rows, spec.partial)


def labels_by_key(spec, keys, offsets):
    """Reference: (labels by vertex key, None), or (None, make_labeling's
    message) at the first vertex whose label disagrees."""
    k = spec.k
    labels = {}
    for slot, key in enumerate(keys):
        i, j = divmod(slot, k)
        lab = (j + offsets[i]) % k
        if labels.setdefault(key, lab) != lab:
            return None, f"offsets disagree at a shared vertex of cell {i}"
    return labels, None


class TestVertexKeyMemo:
    """One pass over the near-pair record numbers each vertex of a spec once."""

    def test_keys_of_each_vertex(self):
        spec = random_valid_spec(9, 30, 2, symmetrize=True)
        vids = _vertex_ids(spec)
        assert _vertex_ids(spec) is vids
        ids, count = vids
        keys = [v.canonical_key() for c in spec.cells for v in vertices(c)]
        # ids follow the keys, numbered as first seen in cell order
        first = list(dict.fromkeys(keys))
        assert list(ids) == [first.index(key) for key in keys]
        assert count == len(first) < len(keys)

    @pytest.mark.parametrize("decided", [False, True], ids=["make_labeling", "decider"])
    def test_built_once_per_spec(self, decided, monkeypatch):
        from snfglp import glp, render

        spec = _fresh_copy(random_valid_spec(10, 60, 1, symmetrize=True))
        built = []
        passes = []
        translate_keys = model.cyc_unit_translate_keys
        vertex_ids = model._vertex_ids

        def counting(b):
            built.append(b)
            return translate_keys(b)

        def computed(s):
            fresh = s._vids is None
            vids = vertex_ids(s)
            passes.append(fresh and s._vids is vids)
            return vids

        # the ids come from the near-pair record, and a labeling on its own
        # spec is read by id, so no vertex key is ever built
        monkeypatch.setattr(model, "cyc_unit_translate_keys", counting)
        for module in (glp, render):
            monkeypatch.setattr(module, "_vertex_ids", computed)
        verdict = decide_glp(spec)
        assert verdict.glp and spec._vids is None
        labeling = verdict.labeling if decided else make_labeling(spec, verdict.labeling.offsets)
        assert check_labeling(spec, labeling)
        render_svg(spec, verdict, RenderOptions(show_labels=True))
        assert built == []
        assert passes.count(True) == 1 and len(passes) >= 3
        # what stays is the id table and one label per id, no key index
        assert labeling.labels._index is None and verdict.labeling.labels._index is None
        assert len(labeling.labels._labels) == spec._vids[1]

    @given(vertex_id_specs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_ids_match_key_reference(self, spec, data):
        keys = [v.canonical_key() for c in spec.cells for v in vertices(c)]
        first = {key: v for v, key in enumerate(dict.fromkeys(keys))}
        ids, count = _vertex_ids(spec)
        assert list(ids) == [first[key] for key in keys] and count == len(first)
        # labels agree with labels keyed by value, and offsets that disagree
        # raise the same SpecError at the same cell, nested or not
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        offsets = [rng.randrange(spec.k) for _ in range(spec.n)]
        if data.draw(st.booleans()):
            try:
                verdict = decide_glp(spec)
            except (SpecError, DisconnectedSpec):
                verdict = None
            if verdict is not None and verdict.glp:
                offsets = [verdict.labeling.offsets[i] for i in range(spec.n)]
        want, error = labels_by_key(spec, keys, offsets)
        if error is None:
            labeling = make_labeling(spec, dict(enumerate(offsets)))
            assert labeling.labels._by_id == list(want.values())
        else:
            with pytest.raises(SpecError) as exc:
                make_labeling(spec, dict(enumerate(offsets)))
            assert str(exc.value) == error


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
    return frozenset(
        step
        for step, ((ja, jb), *more) in _old_step_table(k).items()
        if more or _hulls_overlap(k, cyc_sub(zeta(k, ja), zeta(k, jb)).canonical_key())
    )


class TestPerKTables:
    @pytest.mark.parametrize("k", range(3, 37))
    def test_step_table_matches_values(self, k):
        assert list(_step_table(k).items()) == list(_old_step_table(k).items())

    @pytest.mark.parametrize("k", range(4, 37, 2))
    def test_even_single_pair_steps_are_half_turns(self, k):
        # zeta^ja - zeta^jb = zeta^(jb + k/2) - zeta^(ja + k/2), so a step that
        # one index pair alone gives has ja - jb = k/2: every even-k edge weighs k/2
        for step, pairs in _step_table(k).items():
            if len(pairs) == 1:
                (ja, jb), = pairs
                assert (ja - jb) % k == k // 2, (step, pairs)

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

    @pytest.mark.parametrize("text, error", PARSE_ERRORS)
    def test_boundary_error_text(self, text, error):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == error


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
