"""Angular slices, closed slices, subspec extraction, slice-based deciding."""
from __future__ import annotations

import pytest

from snfglp.construct import generate_glp_example, random_valid_spec
from snfglp.glp import (
    closed_slices,
    decide_glp,
    glp_via_slices,
    slice_subspec,
    slices,
)
from snfglp.model import SpecError, catalog, make_spec, validate
from snfglp.cyclotomic import cyc_add, zero, zeta


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

    def test_k6_central_spec_no_by_both_paths(self):
        spec = catalog("lindstrom-snowflake")
        assert not decide_glp(spec).glp
        assert not glp_via_slices(spec).glp
