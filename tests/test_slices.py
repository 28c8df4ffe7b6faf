"""Angular slices, closed slices, subspec extraction, slice-based deciding."""
from __future__ import annotations

import functools
import math
import random
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import fold, recording, remainder_key, small_real
from snfglp import glp, model
from snfglp.construct import expand, generate_counterexample, generate_glp_example, random_valid_spec
from test_certificates import CORPUS, _spec
from test_cli import run_captured
from snfglp.glp import (
    DisconnectedSpec,
    Labeling,
    Verdict,
    check_labeling,
    closed_slices,
    decide_glp,
    glp_via_slices,
    slice_subspec,
    slices,
)
from snfglp.model import CATALOG_NAMES, FractalSpec, SpecError, catalog, make_spec, serialize, validate
from snfglp.cyclotomic import (
    _mapped_key,
    cyc_add,
    cyc_div_int,
    cyc_mul,
    cyc_rotate,
    cyc_scale,
    cyc_sub,
    cyclotomic_polynomial,
    from_coeffs,
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
            # the region decided is a strict subset of the cells
            assert len(spec._records["reg"][0]) < spec.n

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
        # answer: its region is the lone cell, which no slice holds
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
        with recording(model, "_close_pairs") as calls:
            verdict = glp_via_slices(spec)
        assert calls == [(spec,)]  # one grid pass
        assert verdict.serialize() == decide_glp(spec).serialize()

    @pytest.mark.parametrize("k", [6, 7, 9, 12])
    def test_asymmetric_spec_raises_before_slice_work(self, k):
        for spec, witness in asymmetric_specs(k):
            assert validate(spec).symmetry_witness == witness
            with mock.patch.object(glp, "_region", side_effect=AssertionError("region work")):
                with pytest.raises(SpecError) as raised:
                    glp_via_slices(spec)
            assert str(raised.value).startswith(f"spec fails symmetry {witness}")

    @pytest.mark.parametrize("k", [6, 9, 12])
    def test_one_scaled_points_pass(self, k):
        spec = generate_glp_example(k)
        with recording(glp, "_scaled_points") as calls:
            assert glp_via_slices(spec).glp
        assert calls == [(spec,)]

    @pytest.mark.parametrize("k", [6, 7, 12])
    def test_disconnected_region_left_to_general(self, k, tmp_path):
        # k cells far apart: the region's two or three cells share no vertex
        spec = make_spec(k, [zeta(k, j, 5) for j in range(k)])
        with pytest.raises(DisconnectedSpec) as general:
            decide_glp(spec)
        with pytest.raises(DisconnectedSpec) as via:
            glp_via_slices(spec)
        assert str(via.value) == str(general.value)
        path = tmp_path / "spec.snf"
        path.write_text(serialize(spec))
        code, out, err = run_captured(["decide", str(path), "--method", "slices"])
        assert (code, out, err) == run_captured(["decide", str(path)]) and code == 2

    def test_k6_central_spec_no_by_both_paths(self):
        spec = catalog("lindstrom-snowflake")
        assert not decide_glp(spec).glp
        assert not glp_via_slices(spec).glp


def asymmetric_specs(k):
    """The example ring without one cell, and the rotation orbit of a point
    off every mirror, far enough out that no two cells meet, each with its
    symmetry witness."""
    ring = make_spec(k, [c.barycenter for c in generate_glp_example(k).cells][1:])
    chiral = make_spec(k, [cyc_rotate(from_coeffs(k, (5, 2) + (0,) * (k - 2)), j) for j in range(k)])
    return [(ring, ("rotation", 1)), (chiral, ("reflection", 0))]


class TestRotationPermutation:
    """The dihedral record's `rot`: the cell at zeta times each cell's scaled
    key, or -1, and a permutation exactly when the spec is rotation-invariant."""

    @staticmethod
    def assert_rotation(spec):
        dk = model._dihedral(spec)
        if spec.partial:
            assert dk.rot is None
            return
        keys = model._scaled_points(spec)
        index_of = {key: i for i, key in enumerate(keys)}
        assert list(dk.rot) == [index_of.get(_mapped_key(spec.k, key, 1, 1), -1) for key in keys]
        assert (sorted(dk.rot) == list(range(spec.n))) == (dk.symmetry_witness != ("rotation", 1))

    @pytest.mark.parametrize("name", [name for name, _ in CORPUS])
    def test_audit_corpus(self, name):
        self.assert_rotation(_spec(name))

    @pytest.mark.parametrize("k", [6, 7, 9, 12])
    def test_asymmetric_specs(self, k):
        for spec, _ in asymmetric_specs(k):
            self.assert_rotation(spec)


def subspec_route(spec):
    """Reference for the slice route's region verdict, k >= 6, as a second
    spec: the region's cells (`glp._region`) copied into a partial spec,
    decided whole by `decide_glp`, its offsets and witness mapped back to
    the spec's indices."""
    k = spec.k
    chosen = glp._region(k, glp._scaled_points(spec), spec.n)
    region = make_spec(k, [spec.cells[i].barycenter for i in chosen], partial=True)
    sub = decide_glp(region)
    if not sub.glp:
        return Verdict(glp=False, witness=tuple(chosen[i] for i in sub.witness))
    offsets = {chosen[i]: r for i, r in sub.labeling.offsets.items()}
    return Verdict(glp=True, labeling=Labeling(k, offsets, {}))


class TestSubspecReference:
    """The slice route decides its region on the spec's own records: its
    verdict and witness are those of deciding a copy of the region as a
    second spec, and its offsets extend that copy's up to one shift."""

    @staticmethod
    def assert_matches_reference(spec):
        verdict = glp_via_slices(spec)
        ref = subspec_route(spec)
        if not verdict.glp:
            assert verdict.serialize() == ref.serialize()
            return
        # the region's offsets are the reference's up to one shift, and the
        # fold carries them to decide_glp's labeling of the whole spec
        assert ref.glp
        offsets = verdict.labeling.offsets
        assert len({(offsets[i] - r) % spec.k for i, r in ref.labeling.offsets.items()}) == 1
        assert verdict.serialize() == decide_glp(spec).serialize()
        assert check_labeling(spec, verdict.labeling)

    def test_audit_corpus(self):
        specs = [_spec(name) for name, _ in CORPUS]
        for spec in [s for s in specs if not s.partial and s.k >= 6]:
            self.assert_matches_reference(spec)

    @pytest.mark.parametrize("k", range(6, 13))
    def test_cell_0_outside_the_region(self, k):
        # the ring's cells listed from its far side: the region's forest is
        # rooted elsewhere, so the fold shifts its offsets to cell 0's
        cells = [c.barycenter for c in generate_glp_example(k).cells]
        spec = make_spec(k, cells[len(cells) // 2:] + cells[:len(cells) // 2])
        self.assert_matches_reference(spec)
        assert 0 not in spec._records["reg"][0]

    @pytest.mark.parametrize("k", range(6, 13))
    def test_symmetrized_growth(self, k):
        for seed in range(10):
            for target in (30, 60, 100):
                self.assert_matches_reference(random_valid_spec(k, target, 7919 * seed + k, symmetrize=True))

    @pytest.mark.parametrize("k", [6, 9, 12])
    def test_first_call_runs_one_grid_pass(self, k):
        level2 = expand(generate_glp_example(k), 2)
        for spec in (generate_glp_example(k), make_spec(k, [c.barycenter for c in level2.cells])):
            with recording(model, "_close_pairs") as calls:
                glp_via_slices(spec)
            assert calls == [(spec,)]
            assert not any(isinstance(part, FractalSpec) for part in spec._records["reg"])


def kscan_sectors(spec):
    """Reference for glp._sectors: every vertex ray tested on every cell.

    Positions are n * b - sum(b) in Python ints, reduced afresh by long
    division (`remainder_key`); a point is on the line of ray j when its
    reflection across that line, permuted on the coefficients and reduced
    again, has the same key, and on the ray when its point at 50 digits
    has a positive component along zeta^j.  Any other point's sector is
    read off its angle at 50 digits.
    """
    k, n = spec.k, spec.n
    rows = [c.barycenter.coeffs for c in spec.cells]
    total = [sum(col) for col in zip(*rows)]
    circle = circle50(k)
    sector, rays = [], []
    for row in rows:
        coeffs = tuple(n * c - t for c, t in zip(row, total))
        key = remainder_key(k, coeffs)
        if not any(key):
            sector.append(None)
            rays.append(None)
            continue
        with mpmath.workdps(50):
            x = mpmath.fsum(c * cos for c, (cos, _) in zip(coeffs, circle))
            y = mpmath.fsum(c * sin for c, (_, sin) in zip(coeffs, circle))
            ray = None
            for j, (cos, sin) in enumerate(circle):
                mirrored = tuple(coeffs[(2 * j - i) % k] for i in range(k))
                if remainder_key(k, mirrored) == key and x * cos + y * sin > 0:
                    ray = j
                    break
            rays.append(ray)
            if ray is not None:
                sector.append((ray - 1) % k + 1)
            else:
                theta = mpmath.atan2(y, x) % (2 * mpmath.pi)
                sector.append(int(theta * k / (2 * mpmath.pi)) + 1)
    return sector, rays


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
        reference = kscan_sectors(spec)
        with recording(glp, "_mapped_key") as tests, recording(glp, "_twice_dot") as dots:
            got = slices(spec)
        closed = closed_slices(spec)
        whole = make_spec(spec.k, [c.barycenter for c in spec.cells])
        via = outcome(lambda s: glp_via_slices(s).serialize(), whole)
        general = outcome(lambda s: decide_glp(s).serialize(), whole)
        sector, rays = reference
        assert got.sector == tuple(sector)
        assert closed == [
            frozenset(i for i, (s, r) in enumerate(zip(sector, rays)) if s == m + 1 or r == m)
            for m in range(spec.k)
        ]
        if isinstance(via, str) and isinstance(general, str):  # both routes decide
            assert via.split("\n", 1)[0] == general.split("\n", 1)[0]
        # one reflection test per on-ray cell whose float side is certain on
        # every other ray, none for the other cells; the two tiny cells are
        # within float error of every ray and are not counted, and only they
        # reach the exact side
        keys = glp._scaled_points(spec)
        tiny = set(keys[-2:]) if variant == "tiny" else set()
        on_ray = sum(r is not None for r, key in zip(rays, keys) if key not in tiny)
        assert sum(t[1] not in tiny for t in tests) == on_ray
        assert all(d[1] in tiny for d in dots)

    def test_far_points_certain(self):
        # one reflection test per cell on a ray: the hexagon's six cells sit
        # on the rays, 6 * 2 from the centre; the k = 8 ring has its eight
        # corners on the rays and its eight mids off them; no float side is
        # left to the exact test
        with recording(glp, "_mapped_key") as tests, recording(glp, "_twice_dot") as dots:
            assert slices(catalog("sierpinski-hexagon")).sector == (6, 1, 2, 3, 4, 5)
            assert len(tests) == 6
            slices(generate_glp_example(8))
        assert len(tests) == 6 + 8 and all(args[3] == -1 for args in tests)
        assert dots == []

    def test_tiny_cells_get_exact_sectors(self):
        # the k = 15 ring plus the cells +-w, w = tiny_on_ray(15, 0), about
        # 1e-8 from the centre and far inside the float error of their
        # coefficients: w lies on ray 0, in sector 15, and -w at angle pi,
        # in sector 8, on no ray since k is odd
        w = tiny_on_ray(15, 0)
        ring = [c.barycenter for c in generate_glp_example(15).cells]
        spec = make_spec(15, ring + [w, cyc_scale(w, -1)])
        assert slices(spec).sector[-2:] == (15, 8)
        closed = closed_slices(spec)
        assert [[m + 1 for m, s in enumerate(closed) if i in s] for i in (15, 16)] == [[1, 15], [8]]

    def test_walk_that_cannot_settle_raises(self):
        # w0 + 2 w1, w_j = tiny_on_ray(15, j), lies on no mirror line and is
        # within float error of every ray, so every side is exact; a
        # `_real_sign` that answers +1 puts it left of every ray, and the
        # walk, which would move up for ever, stops after k moves
        w = cyc_add(tiny_on_ray(15, 0), cyc_scale(tiny_on_ray(15, 1), 2))
        spec = make_spec(15, [c.barycenter for c in generate_glp_example(15).cells] + [w])
        with mock.patch.object(glp, "_real_sign", lambda k, key: 1):
            with pytest.raises(ArithmeticError, match="does not settle in 15 moves"):
                slices(spec)

    def test_tiny_point_is_tiny(self):
        w = tiny_on_ray(8, 3)
        assert math.hypot(*to_cartesian(w)) < 1e-6
        assert max(map(abs, w.coeffs)) > 2**20


@functools.lru_cache(maxsize=None)
def circle50(k):
    """(cos, sin) of 2 pi j / k at 50 digits, j = 0..k-1."""
    with mpmath.workdps(50):
        return tuple((mpmath.cospi(mpmath.mpf(2 * j) / k), mpmath.sinpi(mpmath.mpf(2 * j) / k))
                     for j in range(k))


def wedge_distance50(k, coeffs):
    """Distance at 50 digits from the point of `coeffs` to the closed wedge
    of angles [0, 2pi/k] (even k) or [0, 4pi/k] (odd k), by its polar
    angle: 0 inside, else r sin(delta) for the nearest bounding ray within
    a right angle of it, else r."""
    with mpmath.workdps(50):
        x = mpmath.fsum(c * cos for c, (cos, _) in zip(coeffs, circle50(k)))
        y = mpmath.fsum(c * sin for c, (_, sin) in zip(coeffs, circle50(k)))
        r, theta = mpmath.hypot(x, y), mpmath.atan2(y, x) % (2 * mpmath.pi)
        alpha = (2 if k % 2 == 0 else 4) * mpmath.pi / k
        if theta <= alpha:
            return mpmath.mpf(0)
        out = r
        for ray in (0, alpha):
            delta = abs(theta - ray)
            delta = min(delta, 2 * mpmath.pi - delta)
            if delta < mpmath.pi / 2:
                out = min(out, r * mpmath.sin(delta))
        return out


def region_corpus():
    """(id, spec): symmetrized growth at k = 6..12 with the k = 12 slice
    reproducer, the example rings at k = 6..36 and their level-2
    expansions at k = 6..12, taken whole."""
    out = [(f"sym-k{k}-s{seed}", random_valid_spec(k, 60, seed, symmetrize=True))
           for k in range(6, 13) for seed in (0, 1)]
    out.append(("sym-k12-403123852", random_valid_spec(12, 40, 403123852, symmetrize=True)))
    out += [(f"example-k{k}", generate_glp_example(k)) for k in range(6, 37)]
    for k in range(6, 13):
        level2 = expand(generate_glp_example(k), 2)
        out.append((f"level2-k{k}", make_spec(k, [c.barycenter for c in level2.cells])))
    return out


class TestRegion:
    """The slice decider's region holds every cell whose barycenter lies
    within one circumradius of the closed wedge, ties included, judged at
    50 digits from the coefficients, and it is the same region for a copy
    of the spec with folded multiples of Phi_k of up to 2^30 added."""

    @staticmethod
    def region_and_verdict(spec):
        got = []
        region = glp._region

        def record(*args):
            got.append(region(*args))
            return got[-1]

        with mock.patch.object(glp, "_region", record):
            verdict = glp_via_slices(spec).serialize()
        assert len(got) == 1
        return set(got[0]), verdict

    @pytest.mark.parametrize("name,spec", [pytest.param(*case, id=case[0]) for case in region_corpus()])
    def test_holds_every_cell_near_the_wedge(self, name, spec):
        k, n = spec.k, spec.n
        rows = [c.barycenter.coeffs for c in spec.cells]
        total = [sum(col) for col in zip(*rows)]
        scaled = [[n * c - t for c, t in zip(row, total)] for row in rows]
        distance = [wedge_distance50(k, p) for p in scaled]
        region, verdict = self.region_and_verdict(spec)
        for i, (d, p) in enumerate(zip(distance, scaled)):
            size = n + sum(map(abs, p))
            if d <= n + size * mpmath.mpf(10) ** -40:
                assert i in region, (name, i)
            elif i in region:  # only float error widens the region
                assert d <= n + size * 1e-9, (name, i)
        assert region < set(range(n))
        rng = random.Random(name)
        bound = 2**30 - max(map(abs, (c for row in rows for c in row)))
        shifted = make_spec(k, [fold(k, row, rng.randrange(k), rng.randint(-bound, bound)) for row in rows])
        assert self.region_and_verdict(shifted) == (region, verdict)


def _ring_at_limit(k):
    """The example ring with m added at zeta^0, zeta^t and zeta^2t, t = k/3,
    which sum to 0: the points are the ring's and a coefficient is 2^31."""
    t, rows = k // 3, []
    for cell in generate_glp_example(k).cells:
        b = list(cell.barycenter.coeffs)
        m = 2**31 - max(b[0], b[t], b[2 * t])
        for j in (0, t, 2 * t):
            b[j] += m
        rows.append(b)
    return make_spec(k, rows)


class TestSliceLabelsAtCoefficientLimit:
    @pytest.mark.parametrize("k", [6, 9, 12])
    def test_slice_labels_check_on_a_slice_at_the_limit(self, k):
        # a vertex value has a coefficient 2^31 + 1; the labels are read on
        # the slice by iterating them, which builds those values
        spec = _ring_at_limit(k)
        verdict = glp_via_slices(spec)
        assert verdict.glp
        sub = slice_subspec(spec, [1] if k % 2 == 0 else [1, 2])
        assert glp.check_labeling(sub, verdict.labeling)

    @pytest.mark.parametrize("name", ["gasket", 6, 9, 12])
    def test_vertices_and_labels_iterate_at_the_limit(self, name):
        # the gasket with 2^31 - 1 added at each zeta^j (1 + zeta + zeta^2 = 0),
        # or a ring at the limit: every vertex has a coefficient 2^31 + 1
        if name == "gasket":
            spec = make_spec(3, [[2**31 - (i != j) for i in range(3)] for j in range(3)])
        else:
            spec = _ring_at_limit(name)
        k = spec.k
        corners = model.vertices(spec.cells[0])
        assert len(corners) == k and max(max(v.coeffs) for v in corners) == 2**31 + 1
        verdict = decide_glp(spec)
        labels = dict(verdict.labeling.labels)
        assert len(labels) == len(verdict.labeling.labels) and glp.check_labeling(spec, verdict.labeling)
        sub = slice_subspec(spec, [1] if k % 2 == 0 else [1, 2])
        assert glp.check_labeling(sub, verdict.labeling)
        assert glp.check_labeling(sub, Labeling(k, verdict.labeling.offsets, labels))

    @pytest.mark.parametrize("k", [6, 9, 12])
    def test_verdicts_compare_and_print_at_the_limit(self, k):
        # labels compare as mappings, and their repr builds no vertex value
        spec = _ring_at_limit(k)
        verdict = decide_glp(spec)
        assert verdict == glp_via_slices(spec)
        turned = glp.make_labeling(spec, {i: (r + 1) % k for i, r in verdict.labeling.offsets.items()})
        assert turned.labels != verdict.labeling.labels
        assert "labels=<vertex labels of" in repr(verdict) and str(verdict) == repr(verdict)
