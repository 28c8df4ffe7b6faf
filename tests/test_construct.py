"""Generators and substitution expansion."""
from __future__ import annotations

import hashlib
import math
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_glp, cell_sum, recording
from snfglp import construct
from snfglp.construct import (
    GenerationError,
    _legal_steps,
    base_step,
    expand,
    generate_counterexample,
    generate_glp_example,
    random_valid_spec,
)
from snfglp.cyclotomic import (
    COEFF_LIMIT,
    CoefficientOverflow,
    CycInt,
    _real_sign,
    cyc_add,
    cyc_div_int,
    cyc_eq,
    cyc_is_zero,
    cyc_mul,
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
    build_constraint_graph,
    classify_k,
    decide_glp,
    fundamental_cycles,
    glp_via_slices,
)
from snfglp.model import (
    Cell,
    ScalingError,
    SpecError,
    catalog,
    cells_conflict,
    derive_scaling,
    make_spec,
    serialize,
    validate,
)

COMPOSITE_NON_P2 = (6, 9, 10, 12, 14, 15, 18, 20, 21, 22, 24, 25, 26, 27, 28, 30)


def largest_odd_divisor_below(k: int) -> int:
    return max(d for d in range(3, k, 2) if k % d == 0)


class TestCounterexamples:
    @pytest.mark.parametrize("k", COMPOSITE_NON_P2)
    def test_ring_is_unlabelable(self, k):
        spec = generate_counterexample(k)
        r = largest_odd_divisor_below(k)
        assert spec.partial and spec.n == r
        v = decide_glp(spec)
        assert not v.glp
        assert len(v.witness) == r

    @pytest.mark.parametrize("k", [8, 16])
    def test_powers_of_two_rejected(self, k):
        with pytest.raises(GenerationError):
            generate_counterexample(k)

    @pytest.mark.parametrize("k", [7, 11, 13])
    def test_primes_rejected(self, k):
        with pytest.raises(GenerationError):
            generate_counterexample(k)

    @pytest.mark.parametrize("k", [6, 9, 12, 15])
    def test_steps_are_root_rotations_of_base(self, k):
        spec = generate_counterexample(k)
        r = spec.n
        step = base_step(k)
        for q in range(r - 1):
            delta = cyc_sub(spec.cells[q + 1].barycenter, spec.cells[q].barycenter)
            assert cyc_eq(delta, cyc_rotate(step, q * (k // r)))

    @pytest.mark.parametrize("k", [9, 15, 21, 27])
    def test_odd_k_cycle_below_k(self, k):
        spec = generate_counterexample(k)
        assert spec.n % 2 == 1 and spec.n < k

    def test_passes_partial_validation(self):
        for k in (6, 9, 10, 12):
            report = validate(generate_counterexample(k))
            assert report.connectivity_ok and report.nesting_ok and report.odd_adjacency_ok

    def test_small_oracle_agreement(self):
        for k in (6, 9, 10, 12):
            spec = generate_counterexample(k)
            if spec.n <= 8:
                assert brute_force_glp(spec) is False


class TestExamples:
    @pytest.mark.parametrize("k", range(3, 21))
    def test_valid_and_labelable(self, k):
        spec = generate_glp_example(k)
        assert validate(spec).valid
        assert decide_glp(spec).glp
        assert spec.n == (2 * k if k % 4 == 0 else k)

    def test_k6_is_the_hexago(self):
        got = generate_glp_example(6)
        want = catalog("sierpinski-hexagon")
        got_keys = sorted(c.barycenter.canonical_key() for c in got.cells)
        want_keys = sorted(c.barycenter.canonical_key() for c in want.cells)
        assert got_keys == want_keys

    def test_pentagon_matches_catalog_up_to_translation(self):
        got = generate_glp_example(5)
        want = catalog("pentagon-ring")
        shift = cyc_sub(want.cells[0].barycenter, got.cells[0].barycenter)
        # same ring translated: every generated cell + shift is a catalog cell
        want_keys = {c.barycenter.canonical_key() for c in want.cells}
        from snfglp.cyclotomic import cyc_add

        for c in got.cells:
            assert cyc_add(c.barycenter, shift).canonical_key() in want_keys

    def test_k4_is_an_eight_ring(self):
        spec = generate_glp_example(4)
        assert spec.n == 8
        graph = build_constraint_graph(spec)
        assert len(graph.edges) == 8  # one even cycle
        assert all(len(c) == 8 for c in fundamental_cycles(graph))

    def test_k_too_small(self):
        with pytest.raises(GenerationError):
            generate_glp_example(2)


class TestFixedRings:
    """The ring constructions are fixed for each k the generators accept,
    3..36, so the facts they rest on are proved here for every such k
    rather than checked on every call."""

    @staticmethod
    def assert_closed_ring(cells: list[CycInt], steps: list[CycInt]) -> None:
        # cell q + 1 (cyclically, so the last step returns to cell 0) is cell q + step q
        for q, step in enumerate(steps):
            assert cyc_eq(cyc_add(cells[q], step), cells[(q + 1) % len(cells)]), q

    @pytest.mark.parametrize("k", range(3, 37))
    def test_example_ring_radius(self, k):
        # the step of the example ring, or for 4 | k the head of its corner ring
        if k % 2:
            step = base_step(k)
        elif k % 4:
            step = zeta(k, (k + 2) // 4, 2)
        else:
            step = cyc_scale(cyc_add(zeta(k, k // 4), zeta(k, k // 4 + 1)), 2)
        b = construct._ring_radius_vector(k, step)
        assert b is not None  # an integral radius
        assert cyc_eq(b, cyc_reflect(b, 0)) and _real_sign(k, b.canonical_key()) > 0
        assert cyc_eq(cyc_sub(cyc_rotate(b, 1), b), step)
        corners = [c.barycenter for c in generate_glp_example(k).cells][:: 2 if k % 4 == 0 else 1]
        self.assert_closed_ring(corners, [cyc_rotate(step, q) for q in range(k)])

    @pytest.mark.parametrize("k", [k for k in range(3, 37) if not classify_k(k).always_glp])
    def test_counterexample_ring_closes(self, k):
        r = largest_odd_divisor_below(k)
        cells = [c.barycenter for c in generate_counterexample(k).cells]
        assert len(cells) == r and cyc_is_zero(cells[0])
        self.assert_closed_ring(cells, [cyc_rotate(base_step(k), q * (k // r)) for q in range(r)])

    def test_pentagon_ring_closes(self):
        cells = [c.barycenter for c in catalog("pentagon-ring").cells]
        step = cyc_sub(zeta(5, 2), zeta(5, 4))
        self.assert_closed_ring(cells, [cyc_rotate(step, q) for q in range(5)])

    @pytest.mark.parametrize("k", [38, 39, 40])
    def test_orders_past_36_raise_before_any_ring(self, k):
        with pytest.raises(ValueError, match="order must be in 1..36"):
            generate_glp_example(k)
        with pytest.raises(ValueError, match="order must be in 1..36"):
            generate_counterexample(k)


class TestExpand:
    def test_gasket_level2_nine_cells(self):
        spec = expand(catalog("sierpinski-gasket"), 2)
        assert spec.n == 9 and spec.partial

    def test_gasket_level2_verdict_matches(self):
        assert decide_glp(expand(catalog("sierpinski-gasket"), 2)).glp

    def test_level1_is_identity_on_centred_specs(self):
        spec = catalog("sierpinski-hexagon")
        got = expand(spec, 1)
        assert sorted(c.barycenter.canonical_key() for c in got.cells) == sorted(
            c.barycenter.canonical_key() for c in spec.cells
        )

    @pytest.mark.parametrize(
        "name", ["sierpinski-gasket", "vicsek-cross", "sierpinski-hexagon",
                 "lindstrom-snowflake", "pentagon-ring"]
    )
    def test_level2_verdict_stable(self, name):
        spec = catalog(name)
        assert decide_glp(spec).glp == decide_glp(expand(spec, 2)).glp

    def test_cells_count_and_distinct(self):
        spec = catalog("vicsek-cross")
        got = expand(spec, 2)
        assert got.n == spec.n**2
        keys = {c.barycenter.canonical_key() for c in got.cells}
        assert len(keys) == got.n

    def test_expansion_conflict_free(self):
        report = validate(expand(catalog("pentagon-ring"), 2))
        assert report.nesting_ok and report.connectivity_ok

    def test_gasket_level3(self):
        assert expand(catalog("sierpinski-gasket"), 3).n == 27

    def test_size_cap(self):
        with pytest.raises(ValueError, match=r"^72\^3 cells exceed the size cap$"):
            expand(generate_glp_example(36), 3)

    def test_random_symmetric_specs_level_robust(self):
        for k, seed in ((6, 1), (7, 0), (8, 2), (9, 0), (10, 3)):
            spec = random_valid_spec(k, 30, seed, symmetrize=True)
            if spec.n**2 > 10_000:
                continue
            assert decide_glp(spec).glp == decide_glp(expand(spec, 2)).glp, (k, seed)

    def test_bad_level(self):
        with pytest.raises(ValueError):
            expand(catalog("sierpinski-gasket"), 4)

    def test_partial_spec_rejected(self):
        from snfglp.model import ScalingError

        with pytest.raises(ScalingError):
            expand(generate_counterexample(9), 2)

    @pytest.mark.parametrize("k", [5, 6, 8, 9, 12])
    def test_translated_spec_expands_alike(self, k):
        # expand recentres on the key mean, so a moved copy gives the same cells
        ring = generate_glp_example(k)
        shift = from_coeffs(k, [3, -2] + [0] * (k - 2))
        moved = make_spec(k, [cyc_add(c.barycenter, shift) for c in ring.cells])
        for level in (1, 2):
            assert serialize(expand(moved, level)) == serialize(expand(ring, level))

    def test_corner_not_integral_after_recentring(self):
        # two cells 3 apart on the real axis: the corner's scaled key is 3, n = 2
        spec = make_spec(6, [zero(6), zeta(6, 0, 3)])
        text = "corner barycenter is not integral after recentring"
        with pytest.raises(ScalingError, match=text):
            derive_scaling(spec)
        for level in (1, 2, 3):
            with pytest.raises(ScalingError, match=text):
                expand(spec, level)

    def test_output_past_the_range_raises(self):
        # cells 0 and 2^31 on the real axis: L = 1 + 2^30 and the offsets are
        # +-2^30, so level 1 stays in range and level 2's cells leave it
        spec = make_spec(6, [zero(6), zeta(6, 0, COEFF_LIMIT)])
        assert derive_scaling(spec).coeffs == (2**30 + 1, 0, 0, 0, 0, 0)
        assert [c.barycenter.coeffs[0] for c in expand(spec, 1).cells] == [-(2**30), 2**30]
        with pytest.raises(CoefficientOverflow, match=r"^coefficient -1152921506754330624 exceeds"):
            expand(spec, 2)
        # the scaling factor of cells at +-2^31 is built, though past the range
        wide = make_spec(6, [zeta(6, 0, -COEFF_LIMIT), zeta(6, 0, COEFF_LIMIT)])
        assert derive_scaling(wide).coeffs == (COEFF_LIMIT + 1, 0, 0, 0, 0, 0)


def reference_scaling(spec):
    """Reference: the scaling factor from CycInt values, corner by float x."""
    k, n = spec.k, spec.n
    total = cell_sum(spec)
    positions = [cyc_sub(cyc_scale(c.barycenter, n), total) for c in spec.cells]
    index_of = {p.canonical_key(): i for i, p in enumerate(positions)}
    best = None
    for i, p in enumerate(positions):
        x = to_cartesian(p)[0]
        if not cyc_eq(p, cyc_reflect(p, 0)) or x <= 1e-9:
            continue
        tip = cyc_add(p, zeta(k, 0, n))
        if any(index_of.get(cyc_sub(tip, zeta(k, j, n)).canonical_key(), i) != i for j in range(1, k)):
            continue
        if best is None or x > best[0]:
            best = (x, i)
    return cyc_add(cyc_div_int(positions[best[1]], n), zeta(k, 0))


def reference_expand(spec, level):
    """Reference: expand with CycInt values, summed choice by choice."""
    scaling = reference_scaling(spec)
    total, count = cell_sum(spec), spec.n
    offsets = [
        cyc_div_int(cyc_sub(cyc_scale(c.barycenter, count), total), count) for c in spec.cells
    ]
    scaled = [offsets]
    for _ in range(1, level):
        scaled.append([cyc_mul(scaling, t) for t in scaled[-1]])
    positions = []
    seen = set()
    for choice in product(range(spec.n), repeat=level):
        pos = zero(spec.k)
        for depth, i in enumerate(choice):
            pos = cyc_add(pos, scaled[depth][i])
        if pos.canonical_key() in seen:
            raise SpecError(f"duplicate cell produced by offset choice {choice}")
        seen.add(pos.canonical_key())
        positions.append(pos)
    return make_spec(spec.k, positions, partial=True)


class TestExpandReference:
    @pytest.mark.parametrize("k", range(3, 37))
    def test_example_ring_level2(self, k):
        spec = generate_glp_example(k)  # n <= 72, so n^2 is far below the cap
        scaling, expected = derive_scaling(spec), reference_scaling(spec)
        assert scaling.coeffs == expected.coeffs
        assert scaling.canonical_key() == expected.canonical_key()
        got, reference = expand(spec, 2), reference_expand(spec, 2)
        assert serialize(got) == serialize(reference)
        assert [c.barycenter.canonical_key() for c in got.cells] == [
            c.barycenter.canonical_key() for c in reference.cells
        ]

    @pytest.mark.parametrize("level", [2, 3])
    def test_duplicate_names_first_repeated_choice(self, level):
        # unit hexagons around a central one: level-2 sums repeat
        spec = make_spec(6, [zeta(6, j) for j in range(6)] + [zero(6)])
        with pytest.raises(SpecError) as reference:
            reference_expand(spec, level)
        with pytest.raises(SpecError) as got:
            expand(spec, level)
        assert str(got.value) == str(reference.value)


class TestConstructionBudget:
    """Derived points stay integer tuples: only cells a caller receives are built."""

    def test_values_built_by_validate_slices_and_expand(self):
        spec = generate_glp_example(12)
        # per-k tables (step keys, support normals) are built on first use; build them now
        validate(spec)
        glp_via_slices(spec)
        expand(spec, 2)
        with recording(CycInt, "__init__") as checked:
            assert validate(spec).valid
        with recording(CycInt, "__init__") as sliced:
            assert glp_via_slices(spec).glp
        with recording(CycInt, "__init__") as grown:
            expanded = expand(spec, 2)
        built = {"validate": len(checked), "glp_via_slices": len(sliced), "expand": len(grown)}
        # expand builds its output cells and the scaling factor L; k values
        # are the allowance for per-k constants
        assert sum(built.values()) <= expanded.n + spec.k, built


def reference_conflict_free(cand, accepted):
    """Reference: scan every accepted cell, in insertion order."""
    cx, cy = to_cartesian(cand)
    cand_cell = Cell(cand, 0)
    for other in accepted.values():
        ox, oy = to_cartesian(other)
        if (cx - ox) ** 2 + (cy - oy) ** 2 >= 4.0:
            continue
        if cells_conflict(cand_cell, Cell(other, 1)):
            return False
    return True


def reference_growth(k, target_cells, seed, symmetrize):
    """Reference: the O(n)-per-candidate growth that `random_valid_spec` replaces.

    Every candidate scans every accepted cell; a symmetrized candidate
    builds its whole orbit before any test and checks it against a copy of
    the accepted cells; touching is tested on built sums.  Argument checks
    are left to `random_valid_spec`.
    """
    rng = random.Random(seed)
    steps = _legal_steps(k)
    if not symmetrize:
        start = zero(k)
        accepted = {start.canonical_key(): start}
        order = [start]
        budget = 400 * target_cells
        while len(order) < target_cells and budget > 0:
            budget -= 1
            base = order[rng.randrange(len(order))]
            cand = cyc_add(base, steps[rng.randrange(len(steps))])
            key = cand.canonical_key()
            if key in accepted or not reference_conflict_free(cand, accepted):
                continue
            accepted[key] = cand
            order.append(cand)
        if len(order) < target_cells:
            raise GenerationError("growth stalled before reaching the target size")
        return make_spec(k, order, partial=True)

    ring = generate_glp_example(k)
    base_spec = ring
    if ring.n**2 <= 100 and rng.random() < 0.5:
        base_spec = make_spec(k, [c.barycenter for c in expand(ring, 2).cells])
    corner_radius = to_cartesian(derive_scaling(base_spec))[0] - 1.0
    accepted = {c.barycenter.canonical_key(): c.barycenter for c in base_spec.cells}
    order = [c.barycenter for c in base_spec.cells]
    budget = 40 * target_cells
    stale = 0
    while len(order) < target_cells and budget > 0 and stale < 300:
        budget -= 1
        stale += 1
        base = order[rng.randrange(len(order))]
        cand = cyc_add(base, steps[rng.randrange(len(steps))])
        if cand.canonical_key() in accepted:
            continue
        if cyc_is_zero(cand):
            if k not in (3, 4, 6):
                continue
        elif math.hypot(*to_cartesian(cand)) > corner_radius - 0.05:
            continue
        orbit = {}
        for j in range(k):
            rot = cyc_rotate(cand, j)
            orbit[rot.canonical_key()] = rot
            ref = cyc_reflect(rot, 0)
            orbit[ref.canonical_key()] = ref
        if any(key in accepted for key in orbit):
            continue
        trial = dict(accepted)
        ok = True
        for key, pos in sorted(orbit.items()):
            if not reference_conflict_free(pos, trial):
                ok = False
                break
            trial[key] = pos
        if not ok:
            continue
        if not all(
            any(cyc_add(pos, s).canonical_key() in accepted for s in steps)
            for pos in orbit.values()
        ):
            continue
        for key, pos in sorted(orbit.items()):
            accepted[key] = pos
            order.append(pos)
        stale = 0
    return make_spec(k, order, partial=False)


def grown_or_error(grow, k, target, seed, symmetrize):
    try:
        return serialize(grow(k, target, seed, symmetrize))
    except GenerationError as exc:
        return f"GenerationError: {exc}"


class TestRandomSpecs:
    @pytest.mark.parametrize("symmetrize", [False, True])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_growth(self, symmetrize, data):
        k = data.draw(st.integers(3, 12 if symmetrize else 16), label="k")
        target = data.draw(st.integers(1, 100), label="target")
        seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
        got = grown_or_error(random_valid_spec, k, target, seed, symmetrize)
        assert got == grown_or_error(reference_growth, k, target, seed, symmetrize)

    # SHA-256 over the serialized specs of every (k, target, seed) below, as
    # grown before growth remembered rejected keys; a stall hashes its message
    PINNED_CASES = [(2, 5), (10, 1), (25, 7), (40, 403123852), (60, 20261018), (100, 3)]
    PINNED = {
        True: "73c638904a8d84b1422f374a9c9db1d92773508e429affeb6c9e5536c0d803b1",
        False: "3c57e97f518105a8e96e87b0e8caa50b9dce137dc0f85a7bb045c6044d7c6d0d",
    }

    @pytest.mark.parametrize("symmetrize", [True, False], ids=["symmetrize", "plain"])
    def test_pinned_outputs(self, symmetrize):
        digest = hashlib.sha256()
        for k in range(3, 13 if symmetrize else 17):
            for target, seed in self.PINNED_CASES:
                try:
                    text = serialize(random_valid_spec(k, target, seed, symmetrize=symmetrize))
                except GenerationError as exc:
                    text = f"stalled: {exc}\n"
                digest.update(text.encode())
        assert digest.hexdigest() == self.PINNED[symmetrize]

    def test_repeatability(self):
        a = serialize(random_valid_spec(7, 30, seed=42))
        b = serialize(random_valid_spec(7, 30, seed=42))
        assert a == b

    def test_different_seeds_differ(self):
        a = serialize(random_valid_spec(7, 30, seed=1))
        b = serialize(random_valid_spec(7, 30, seed=2))
        assert a != b

    @pytest.mark.parametrize("k", range(3, 13))
    def test_grown_specs_validate(self, k):
        for seed in range(4):
            spec = random_valid_spec(k, 15, seed)
            assert spec.partial and spec.n == 15
            assert validate(spec).valid

    def test_two_cells_is_a_tree(self):
        spec = random_valid_spec(5, 2, seed=9)
        assert decide_glp(spec).glp
        assert build_constraint_graph(spec).nontree == ()

    def test_symmetrized_reaches_target(self):
        spec = random_valid_spec(6, 6, seed=1, symmetrize=True)
        assert not spec.partial and spec.n >= 6
        assert validate(spec).valid

    class FirstDraw:
        """An RNG that always draws the first cell and step, and the small base."""

        def __init__(self, seed):
            pass

        def randrange(self, n):
            return 0

        def random(self):
            return 0.9

    def test_plain_stall_raises(self, monkeypatch):
        # after one step from the origin every draw repeats an accepted key
        monkeypatch.setattr(construct.random, "Random", self.FirstDraw)
        with pytest.raises(GenerationError, match="growth stalled before reaching the target size"):
            random_valid_spec(5, 3, 0)

    def test_symmetrized_stall_returns_base(self, monkeypatch):
        # every draw repeats the first candidate, rejected, until patience runs out
        monkeypatch.setattr(construct.random, "Random", self.FirstDraw)
        spec = random_valid_spec(6, 60, 0, symmetrize=True)
        assert not spec.partial and spec.n == 6
        assert validate(spec).valid

    def test_bad_arguments(self):
        with pytest.raises(GenerationError):
            random_valid_spec(2, 5, seed=0)
        with pytest.raises(GenerationError):
            random_valid_spec(5, 0, seed=0)
        with pytest.raises(GenerationError):
            random_valid_spec(5, 200, seed=0)


class TestMonotonicity:
    def test_unlabelable_subring_poisons_supersets(self):
        # the counterexample ring embedded in a larger grown configuration
        from snfglp.cyclotomic import cyc_add
        from snfglp.model import make_spec

        base = generate_counterexample(9)
        cells = [c.barycenter for c in base.cells]
        step = base_step(9)
        extra = cyc_add(cells[0], cyc_rotate(step, 5))
        grown = make_spec(9, cells + [extra], partial=True)
        assert not decide_glp(base).glp
        assert not decide_glp(grown).glp
