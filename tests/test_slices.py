"""Angular slices, closed slices, subspec extraction, slice-based deciding."""
from __future__ import annotations

import math
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import remainder_key
from snfglp import glp
from snfglp.construct import generate_counterexample, generate_glp_example, random_valid_spec
from snfglp.glp import (
    closed_slices,
    decide_glp,
    glp_via_slices,
    slice_subspec,
    slices,
)
from snfglp.model import CATALOG_NAMES, SpecError, catalog, make_spec, validate
from snfglp.cyclotomic import (
    _embed,
    cyc_add,
    cyc_div_int,
    cyc_mul,
    cyc_rotate,
    cyc_scale,
    cyc_sub,
    cyclotomic_polynomial,
    from_coeffs,
    integer,
    to_cartesian,
    zero,
    zeta,
)


class TestSliceAssignment:
    def test_hexagon_one_cell_per_slice(self):
        got = slices(catalog("sierpinski-hexagon"))
        # cell j sits on the vertex ray j, which is the left edge of sector j
        assert got.sector == (6, 1, 2, 3, 4, 5)
        for i in range(1, 7):
            assert len(got.cells_in(i)) == 1

    def test_snowflake_central_cell(self):
        got = slices(catalog("lindstrom-snowflake"))
        assert got.sector[6] is None
        assert got.central_cells == [6]

    def test_gasket_three_slices(self):
        got = slices(catalog("sierpinski-gasket"))
        assert got.sector == (3, 1, 2)
        for i in range(1, 4):
            assert len(got.cells_in(i)) == 1

    def test_off_axis_cells_bucketed_by_angle(self):
        spec = generate_glp_example(8)  # corners on rays, mids strictly inside
        got = slices(spec)
        for i in range(1, 9):
            assert len(got.cells_in(i)) == 2  # one corner + one mid per sector


class TestClosedSlices:
    def test_hexagon_closed_slices_have_both_axes(self):
        sets = closed_slices(catalog("sierpinski-hexagon"))
        assert [sorted(s) for s in sets] == [
            [0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5],
        ]

    def test_no_on_axis_cells_means_closed_equals_open(self):
        spec = random_valid_spec(7, 12, seed=5)
        open_assignment = slices(spec)
        sets = closed_slices(spec)
        on_axis = set()
        for i in range(1, 8):
            on_axis |= set(sets[i - 1]) - set(open_assignment.cells_in(i))
        # cells not on any axis appear in exactly one closed slice
        for idx, s in enumerate(open_assignment.sector):
            if idx in on_axis:
                continue
            member_of = [i for i in range(1, 8) if idx in sets[i - 1]]
            assert member_of == [s]

    def test_central_cell_in_no_closed_slice(self):
        sets = closed_slices(catalog("lindstrom-snowflake"))
        assert all(6 not in s for s in sets)


class TestSubspec:
    def test_two_neighbor_slices_of_hexagon(self):
        sub = slice_subspec(catalog("sierpinski-hexagon"), [1, 2])
        assert sub.partial and sub.n == 2

    def test_closed_slice_includes_boundary(self):
        sub = slice_subspec(catalog("sierpinski-hexagon"), [1], closed=True)
        assert sub.n == 2

    def test_snowflake_slices_exclude_center(self):
        spec = catalog("lindstrom-snowflake")
        for ids in ([1], [1, 2], [3, 4]):
            sub = slice_subspec(spec, ids)
            for c in sub.cells:
                assert not (c.barycenter == zero(6))

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            slice_subspec(catalog("sierpinski-hexagon"), [])

    def test_bad_slice_id_rejected(self):
        with pytest.raises(ValueError):
            slice_subspec(catalog("sierpinski-hexagon"), [7])


class TestViaSlices:
    def test_catalog_agreement(self):
        for name in (
            "sierpinski-gasket",
            "vicsek-cross",
            "sierpinski-hexagon",
            "lindstrom-snowflake",
            "pentagon-ring",
        ):
            spec = catalog(name)
            assert glp_via_slices(spec).glp == decide_glp(spec).glp, name

    def test_snowflake_immediate_no(self):
        v = glp_via_slices(catalog("lindstrom-snowflake"))
        assert not v.glp
        assert len(v.witness) == 3
        assert 6 in v.witness  # the central cell is part of the obstruction

    def test_big_ring_uses_reduction(self):
        for k in (7, 8, 9, 10):
            spec = generate_glp_example(k)
            v = glp_via_slices(spec)
            assert v.glp
            # the reduced verdict must cover only a strict subset of cells
            assert len(v.labeling.offsets) < spec.n

    def test_partial_rejected(self):
        spec = make_spec(5, [tuple(zero(5).coeffs)], partial=True)
        with pytest.raises(ValueError):
            glp_via_slices(spec)

    def test_symmetric_random_agreement(self):
        for k in (6, 7, 8, 9, 10):
            for seed in range(6):
                spec = random_valid_spec(k, 30, seed, symmetrize=True)
                assert validate(spec).valid
                assert glp_via_slices(spec).glp == decide_glp(spec).glp, (k, seed)

    def test_k6_lone_central_cell_falls_back_to_general(self):
        # validate rejects it (no corner), but glp_via_slices must still
        # answer: it has no central 3-cycle and its slices hold no cells
        spec = make_spec(6, [(0,) * 6])
        assert not validate(spec).valid
        assert glp_via_slices(spec).serialize() == "GLP\noffset 0 0\n"
        assert glp_via_slices(spec).serialize() == decide_glp(spec).serialize()

    @staticmethod
    def _edge_sharing_k8():
        # the k = 8 ring plus a cell across an edge of ring cell 4, outside slice 1
        ring = [c.barycenter for c in generate_glp_example(8).cells]
        return make_spec(8, ring + [cyc_add(ring[4], cyc_add(zeta(8, 4), zeta(8, 5)))])

    @pytest.mark.parametrize("build", [
        lambda: make_spec(6, [(0,) * 6, (0, 0, 0, 0, -1, 1), (0, 0, -1, 0, 0, 1)]),
        lambda: TestViaSlices._edge_sharing_k8(),
    ], ids=["k6-central", "k8-ring"])
    def test_nesting_violation_raises_like_general(self, build):
        spec = build()
        assert not validate(spec).nesting_ok
        with pytest.raises(SpecError) as general:
            decide_glp(spec)
        with pytest.raises(SpecError) as via:
            glp_via_slices(spec)
        assert str(via.value) == str(general.value)

    @pytest.mark.parametrize("name", ["sierpinski-gasket", "vicsek-cross", "pentagon-ring"])
    def test_small_k_runs_one_adjacency_search(self, name):
        spec = catalog(name)
        calls = []
        find_adjacencies = glp.find_adjacencies

        def counting(s):
            calls.append(s)
            return find_adjacencies(s)

        with mock.patch.object(glp, "find_adjacencies", counting):
            verdict = glp_via_slices(spec)
        assert len(calls) == 1
        assert verdict.serialize() == decide_glp(spec).serialize()

    def test_k6_central_spec_no_by_both_paths(self):
        spec = catalog("lindstrom-snowflake")
        assert not decide_glp(spec).glp
        assert not glp_via_slices(spec).glp


def kscan_sectors(spec):
    """Reference for glp._sectors: every vertex ray tested on every cell.

    Positions are n * b - sum(b) in Python ints, reduced afresh by long
    division (`remainder_key`); a point is on the line of ray j when its
    reflection across that line, permuted on the coefficients and reduced
    again, has the same key, and on the ray when its float point has a
    positive component along zeta^j.
    """
    k, n = spec.k, spec.n
    rows = [c.barycenter.coeffs for c in spec.cells]
    total = [sum(col) for col in zip(*rows)]
    sector, rays = [], []
    for row in rows:
        coeffs = tuple(n * c - t for c, t in zip(row, total))
        key = remainder_key(k, coeffs)
        if not any(key):
            sector.append(None)
            rays.append(None)
            continue
        x, y = _embed(k, coeffs)
        ray = None
        for j in range(k):
            mirrored = tuple(coeffs[(2 * j - i) % k] for i in range(k))
            if remainder_key(k, mirrored) == key:
                ang = 2.0 * math.pi * j / k
                if x * math.cos(ang) + y * math.sin(ang) > 0:
                    ray = j
                    break
        rays.append(ray)
        if ray is not None:
            sector.append((ray - 1) % k + 1)
        else:
            theta = math.atan2(y, x) % (2.0 * math.pi)
            sector.append(int(theta * k / (2.0 * math.pi)) + 1)
    return sector, rays


def small_real(k):
    """A real point of Z[zeta_k] with 0 < |u| <= 1/2: 2 cos(2 pi a / k) minus its
    nearest integer, for the first a where that is not an integer (None for
    k = 3, 4, 6, whose real points are all integers)."""
    for a in range(1, k // 2 + 1):
        c = 2.0 * math.cos(2.0 * math.pi * a / k)
        if abs(c - round(c)) > 1e-6:
            return cyc_sub(cyc_add(zeta(k, a), zeta(k, -a)), integer(k, round(c)))
    return None


def tiny_on_ray(k, j):
    """zeta^j * u^e for the last power e of small_real(k) with coefficients
    within 2^26: a point on a vertex line, far closer to the origin than
    the float error of its coefficients."""
    u = small_real(k)
    w = u
    while max(map(abs, cyc_mul(w, u).coeffs)) <= 2**26:
        w = cyc_mul(w, u)
    return cyc_rotate(w, j)


@st.composite
def sector_cases(draw):
    """(spec, variant): a catalog, generated or grown spec, as it is
    ('plain'), with a folded multiple of Phi_k of up to 2^30 added to
    every cell ('shift'), or with two cells at mean +- a tiny point on a
    vertex line ('tiny'), which only the fallback can place."""
    kind = draw(st.sampled_from(["catalog", "example", "counterexample", "plain", "symmetrized"]))
    if kind == "catalog":
        base = catalog(draw(st.sampled_from(CATALOG_NAMES)))
    elif kind in ("example", "counterexample"):
        k = draw(st.integers(3, 36))
        composite = not glp.classify_k(k).always_glp
        base = generate_counterexample(k) if kind == "counterexample" and composite else generate_glp_example(k)
    else:
        k = draw(st.integers(3, 12))
        seed = draw(st.integers(0, 10_000))
        base = random_valid_spec(k, draw(st.integers(2, 30)), seed, symmetrize=kind == "symmetrized")
    k = base.k
    cells = [c.barycenter for c in base.cells]
    variant = draw(st.sampled_from(["plain", "shift", "tiny"]))
    if variant == "tiny" and small_real(k) is None:
        variant = "plain"
    if variant == "shift":
        phi = cyclotomic_polynomial(k).coeffs
        bound = 2**30 - max(abs(c) for b in cells for c in b.coeffs)
        shifted = []
        for b in cells:
            m, j = draw(st.integers(-bound, bound)), draw(st.integers(0, k - 1))
            row = list(b.coeffs)
            for d, c in enumerate(phi):
                row[(d + j) % k] += m * c
            shifted.append(from_coeffs(k, row))
        cells = shifted
    elif variant == "tiny":
        total = zero(k)
        for b in cells:
            total = cyc_add(total, b)
        mean = cyc_div_int(total, len(cells))
        if mean is None:  # scale the spec so that its mean is integral
            cells = [cyc_scale(b, len(cells)) for b in cells]
            mean = total
        w = tiny_on_ray(k, draw(st.integers(0, k - 1)))
        cells += [cyc_add(mean, w), cyc_sub(mean, w)]
    assume(len({b.canonical_key() for b in cells}) == len(cells))
    return make_spec(k, cells, partial=base.partial), variant


def outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, SpecError) as exc:
        return type(exc).__name__, str(exc)


class TestSectorsReference:
    @given(sector_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_kscan_reference(self, case):
        spec, variant = case
        tests = []
        mapped_key = glp._mapped_key

        def counting(*args):
            tests.append(args)
            return mapped_key(*args)

        reference = kscan_sectors(spec)
        with mock.patch.object(glp, "_mapped_key", counting):
            got = slices(spec)
        closed = closed_slices(spec)
        whole = make_spec(spec.k, [c.barycenter for c in spec.cells])
        via = outcome(lambda s: glp_via_slices(s).serialize(), whole)
        sector, rays = reference
        assert got.sector == tuple(sector)
        assert closed == [
            frozenset(i for i, (s, r) in enumerate(zip(sector, rays)) if s == m + 1 or r == m)
            for m in range(spec.k)
        ]
        with mock.patch.object(glp, "_sectors", kscan_sectors):
            assert via == outcome(lambda s: glp_via_slices(s).serialize(), whole)
        # one reflection test per cell whose float angle is certain; the two
        # tiny cells are not, and test rays 0, 1, ... until one holds them
        placed = sum(s is not None for s in sector)
        if variant == "plain":
            assert len(tests) == placed
        elif variant == "tiny":
            scanned = sum(spec.k if r is None else r + 1 for r in rays[-2:])
            assert len(tests) == placed - 2 + scanned

    def test_far_points_certain(self):
        # the hexagon's cells sit on the rays, 6 * 2 from the centre
        tests = []
        mapped_key = glp._mapped_key

        def counting(*args):
            tests.append(args)
            return mapped_key(*args)

        with mock.patch.object(glp, "_mapped_key", counting):
            assert slices(catalog("sierpinski-hexagon")).sector == (6, 1, 2, 3, 4, 5)
        assert len(tests) == 6

    def test_tiny_point_is_tiny(self):
        w = tiny_on_ray(8, 3)
        assert math.hypot(*to_cartesian(w)) < 1e-6
        assert max(map(abs, w.coeffs)) > 2**20
