"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -v` (test names list the criteria) or `pytest -s` to
see the printed summary lines.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

import pytest

from conftest import brute_force_glp, spec_targets
from snfglp.construct import (
    GenerationError,
    expand,
    generate_counterexample,
    generate_glp_example,
    random_valid_spec,
)
from snfglp.cyclotomic import (
    IntPolynomial,
    cyc_add,
    cyc_eq,
    cyc_is_zero,
    cyclotomic_polynomial,
    euler_phi,
    from_coeffs,
    to_cartesian,
    zero,
    zeta,
)
from snfglp.glp import (
    build_constraint_graph,
    check_labeling,
    cycle_weight,
    decide_glp,
    decide_glp_even,
    decide_glp_odd,
    fundamental_cycles,
    glp_via_slices,
    slices,
)
from snfglp.model import CATALOG_NAMES, catalog, find_adjacencies, validate

SWEEP_KS = tuple(range(3, 13))
PRIME_KS = (3, 5, 7, 11)
POW2_KS = (4, 8, 16)
COUNTER_KS = (6, 9, 10, 12, 14, 15, 18, 20, 21, 22, 24, 25, 26, 27, 28, 30)
SPECS_PER_K = 200


@dataclass
class Sweep:
    per_k: dict[int, list] = field(default_factory=dict)  # k -> [(spec, general, special)]
    mismatches: list = field(default_factory=list)
    invalid: list = field(default_factory=list)
    elapsed_3_to_12: float = 0.0


@pytest.fixture(scope="session")
def sweep() -> Sweep:
    data = Sweep()
    targets = spec_targets(SPECS_PER_K)
    start = time.perf_counter()
    for k in SWEEP_KS:
        bucket = []
        for seed, target in enumerate(targets):
            spec = random_valid_spec(k, target, seed)
            if not validate(spec).valid:
                data.invalid.append((k, seed))
                continue
            general = decide_glp(spec)
            special = decide_glp_even(spec) if k % 2 == 0 else decide_glp_odd(spec)
            if general.glp != special.glp:
                data.mismatches.append((k, seed))
            bucket.append((spec, general, special))
        data.per_k[k] = bucket
    data.elapsed_3_to_12 = time.perf_counter() - start
    # k = 16 extension used by the fast-path criterion
    bucket = []
    for seed, target in enumerate(targets):
        spec = random_valid_spec(16, target, seed)
        if not validate(spec).valid:
            data.invalid.append((16, seed))
            continue
        general = decide_glp(spec)
        special = decide_glp_even(spec)
        if general.glp != special.glp:
            data.mismatches.append((16, seed))
        bucket.append((spec, general, special))
    data.per_k[16] = bucket
    return data


def test_criterion_01_catalog_verdicts():
    budget = 1.0
    t0 = time.perf_counter()
    v = decide_glp(catalog("sierpinski-gasket"))
    assert v.glp and time.perf_counter() - t0 < budget

    t0 = time.perf_counter()
    v = decide_glp(catalog("vicsek-cross"))
    assert v.glp and time.perf_counter() - t0 < budget

    t0 = time.perf_counter()
    hexagon = catalog("sierpinski-hexagon")
    v = decide_glp_even(hexagon)
    assert v.glp and time.perf_counter() - t0 < budget
    edges, _ = find_adjacencies(hexagon)
    assert all(v.classes[e.a] != v.classes[e.b] for e in edges)
    assert set(v.classes.values()) == {1, 2}

    t0 = time.perf_counter()
    snowflake = catalog("lindstrom-snowflake")
    w = decide_glp(snowflake)
    assert not w.glp and time.perf_counter() - t0 < budget
    assert len(w.witness) == 3
    assert len(w.witness) % 2 == 1
    assert cycle_weight(snowflake, w.witness) != 0

    t0 = time.perf_counter()
    v = decide_glp(catalog("pentagon-ring"))
    assert v.glp and time.perf_counter() - t0 < budget

    print("ACCEPTANCE 1: PASS - catalog verdicts all as expected")


def test_criterion_02_decider_equivalence_sweep(sweep):
    assert not sweep.invalid, f"invalid random specs: {sweep.invalid[:5]}"
    assert not sweep.mismatches, f"decider disagreements: {sweep.mismatches[:5]}"
    for k in SWEEP_KS:
        assert len(sweep.per_k[k]) == SPECS_PER_K
    assert sweep.elapsed_3_to_12 < 60.0, f"sweep took {sweep.elapsed_3_to_12:.1f}s"
    total = sum(len(v) for k, v in sweep.per_k.items() if k in SWEEP_KS)
    print(
        f"ACCEPTANCE 2: PASS - {total} specs, 100% agreement, "
        f"{sweep.elapsed_3_to_12:.1f}s"
    )


def test_criterion_03_fast_path_guarantees(sweep):
    checked = 0
    for k in PRIME_KS + POW2_KS:
        for spec, general, _ in sweep.per_k[k]:
            assert general.glp, f"k={k} spec unexpectedly unlabelable"
            checked += 1
    cycles_checked = 0
    for k in POW2_KS:
        for spec, _, _ in sweep.per_k[k]:
            graph = build_constraint_graph(spec)
            for cyc in fundamental_cycles(graph):
                assert len(cyc) % 2 == 0, f"odd cycle in k={k} spec"
                cycles_checked += 1
    print(
        f"ACCEPTANCE 3: PASS - {checked} prime/power-of-two specs all labelable, "
        f"{cycles_checked} power-of-two cycles all even"
    )


def test_criterion_04_counterexample_generator():
    for k in COUNTER_KS:
        spec = generate_counterexample(k)
        r = max(d for d in range(3, k, 2) if k % d == 0)
        verdict = decide_glp(spec)
        assert not verdict.glp, f"k={k} counterexample labelable"
        assert len(verdict.witness) == r, f"k={k}: witness {len(verdict.witness)} != {r}"
    for k in (8, 16):
        with pytest.raises(GenerationError):
            generate_counterexample(k)
    print(f"ACCEPTANCE 4: PASS - {len(COUNTER_KS)} counterexamples + power-of-two errors")


def test_criterion_05_example_generator():
    for k in range(3, 21):
        spec = generate_glp_example(k)
        assert validate(spec).valid, f"k={k} example invalid"
        assert decide_glp(spec).glp, f"k={k} example unlabelable"
        if k % 4 == 0:
            assert spec.n == 2 * k
    print("ACCEPTANCE 5: PASS - examples for k=3..20 all valid and labelable")


def test_criterion_06_slice_reduction():
    checked = 0
    central_checked = 0
    for name in CATALOG_NAMES:
        spec = catalog(name)
        assert glp_via_slices(spec).glp == decide_glp(spec).glp, name
        checked += 1
    for k in range(6, 13):
        for seed in range(50):
            spec = random_valid_spec(k, 40, seed, symmetrize=True)
            assert validate(spec).valid
            via = glp_via_slices(spec)
            general = decide_glp(spec)
            assert via.glp == general.glp, (k, seed)
            checked += 1
            if k == 6 and slices(spec).central_cells:
                assert not via.glp and not general.glp
                central_checked += 1
    assert central_checked >= 1  # the snowflake shape occurs among the seeds
    # closed slice 1 misses cells 43 and 46 of this cycle by barycenter
    reproducer = random_valid_spec(12, 40, 403123852, symmetrize=True)
    assert validate(reproducer).valid
    assert decide_glp(reproducer).witness == (4, 3, 2, 1, 0, 34, 47, 43, 30)
    via = glp_via_slices(reproducer)
    assert not via.glp and cycle_weight(reproducer, via.witness) != 0
    print(
        f"ACCEPTANCE 6: PASS - {checked} specs agree via slices "
        f"({central_checked} hexagonal central-cell cases)"
    )


def test_criterion_07_expansion_robustness():
    for name in CATALOG_NAMES:
        spec = catalog(name)
        expanded = expand(spec, 2)
        assert decide_glp(spec).glp == decide_glp(expanded).glp, name
    assert expand(catalog("sierpinski-gasket"), 2).n == 9
    print("ACCEPTANCE 7: PASS - level-2 expansion preserves every catalog verdict")


def test_criterion_08_brute_force_oracle(sweep):
    checked = 0
    for k in SWEEP_KS:
        for spec, general, _ in sweep.per_k[k]:
            if spec.n <= 8:
                assert brute_force_glp(spec) == general.glp, f"k={k} oracle mismatch"
                checked += 1
    assert checked >= 10 * len(SWEEP_KS)
    print(f"ACCEPTANCE 8: PASS - exhaustive oracle agrees on {checked} small specs")


def test_criterion_09_cyclotomic_suite():
    for n in range(1, 37):
        prod = IntPolynomial(1)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_polynomial(d)
        assert prod.coeffs == tuple([-1] + [0] * (n - 1) + [1]), n
        assert cyclotomic_polynomial(n).degree() == euler_phi(n), n

    rng = random.Random(20240817)
    pairs = 0
    agree = 0
    for _ in range(10_000):
        k = rng.randint(1, 36)
        a = from_coeffs(k, [rng.randint(-10, 10) for _ in range(k)])
        if rng.random() < 0.3:
            phi = cyclotomic_polynomial(k)
            mult = rng.randint(-3, 3)
            folded = [0] * k
            for i, c in enumerate(phi.coeffs):
                folded[i % k] += mult * c
            b = cyc_add(a, from_coeffs(k, folded))
        else:
            b = from_coeffs(k, [rng.randint(-10, 10) for _ in range(k)])
        ax, ay = to_cartesian(a)
        bx, by = to_cartesian(b)
        close = math.hypot(ax - bx, ay - by) < 1e-9
        pairs += 1
        if cyc_eq(a, b) == close:
            agree += 1
    assert agree == pairs, f"{pairs - agree} disagreements"

    for k in range(2, 37):
        for r in range(2, k + 1):
            if k % r:
                continue
            total = zero(k)
            for h in range(r):
                total = cyc_add(total, zeta(k, h * (k // r)))
            assert cyc_is_zero(total), (k, r)
    print(f"ACCEPTANCE 9: PASS - polynomial identities, {pairs} equality pairs, root sums")


def test_criterion_10_labeling_integrity(sweep):
    glp_checked = 0
    witness_checked = 0

    def audit(spec, verdict):
        nonlocal glp_checked, witness_checked
        if verdict.glp:
            if verdict.labeling.offsets and len(verdict.labeling.offsets) == spec.n:
                assert check_labeling(spec, verdict.labeling)
                glp_checked += 1
        else:
            assert cycle_weight(spec, verdict.witness) != 0
            witness_checked += 1

    for name in CATALOG_NAMES:
        spec = catalog(name)
        audit(spec, decide_glp(spec))
    for k in COUNTER_KS:
        spec = generate_counterexample(k)
        audit(spec, decide_glp(spec))
    for k in SWEEP_KS:
        for spec, general, special in sweep.per_k[k]:
            audit(spec, general)
            audit(spec, special)
    assert glp_checked > 1000 and witness_checked > 20
    print(
        f"ACCEPTANCE 10: PASS - {glp_checked} labelings verified, "
        f"{witness_checked} witness cycles re-summed"
    )
