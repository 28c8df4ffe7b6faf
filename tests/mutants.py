"""Mutation check of the test suite: every mutant of the library must make
its named tests fail.

Run from the repository root, with the test dependencies installed:

    python tests/mutants.py [NAME ...]

Each mutant is a file, an exact old text, the new text that replaces it,
the tests that must kill it and the reason the new text is wrong.  An old
text must occur exactly once in its file, so a change that moves or
rewrites the mutated code fails here until its mutant is updated.  Each
set of named tests first runs on an unmutated copy and must pass.  Then
each mutant is applied to a fresh temporary copy of `src` and `tests`, and
`pytest -x -q` runs on its tests there.  A mutant is killed when they
fail, or when they run past three times their unmutated time plus 30 s,
as a mutant that makes the code loop does.  The report is JSON on stdout:
killed or survived, and seconds, per mutant.  Exit status 1 means a mutant
survived; 2 means a mutant does not apply or the unmutated tests fail.
It uses the standard library alone; pytest does not collect it.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]
    reason: str


MUTANTS = (
    Mutant(
        "fold-step-sign", "src/snfglp/glp.py",
        "r[rot[c]] = (r[c] + t) % k", "r[rot[c]] = (r[c] - t) % k",
        ("tests/test_glp.py::TestSpecRecords::test_slice_labeling_covers_its_region",),
        "the slice route's fold steps by +t along each rotation cycle",
    ),
    Mutant(
        "fold-no-root-shift", "src/snfglp/glp.py",
        "_decided_labeling(spec, [(x - r[0]) % k for x in r])", "_decided_labeling(spec, r)",
        ("tests/test_slices.py::TestSubspecReference",),
        "the folded offsets are shifted so that cell 0 has offset 0, as decide_glp's are",
    ),
    Mutant(
        "fold-no-fallback", "src/snfglp/glp.py",
        "if d is None or graph.component_count > 1:", "if d is None:",
        ("tests/test_slices.py::TestViaSlices::test_disconnected_region_left_to_general",),
        "the components of a disconnected region have independent offsets",
    ),
    Mutant(
        "corner-walk-from-2", "src/snfglp/model.py",
        "for j in range(1, k):", "for j in range(2, k):",
        ("tests/test_model.py::TestScaling",),
        "the corner's orbit is walked from zeta^1",
    ),
    Mutant(
        "corner-not-on-mirror", "src/snfglp/model.py",
        "if ref[i] != i or _real_sign(k, key) <= 0:", "if _real_sign(k, key) <= 0:",
        ("tests/test_model.py::TestScaling",),
        "a corner cell lies on the real axis, which reflection 0 fixes",
    ),
    Mutant(
        "central-cell-k8", "src/snfglp/model.py",
        "k in (3, 4, 6)", "k in (3, 4, 6, 8)",
        ("tests/test_model.py::TestValidate",),
        "a central cell is allowed at k = 3, 4 and 6 only",
    ),
    Mutant(
        "edge-weight-sign", "src/snfglp/model.py",
        "return (e.ja - e.jb) % k", "return (e.jb - e.ja) % k",
        ("tests/test_certificates.py",),
        "sharing vertices (ja, jb) forces r_b - r_a = ja - jb",
    ),
    Mutant(
        "expand-recentre-sign", "src/snfglp/construct.py",
        "quot = tuple(map(sub, key, mean))", "quot = tuple(map(add, key, mean))",
        ("tests/test_construct.py::TestExpand::test_translated_spec_expands_alike",),
        "an offset is the cell's position less the mean, which a translated spec shows",
    ),
    Mutant(
        "scaling-not-integral-unchecked", "src/snfglp/model.py",
        "if any(c % n for c in corner_key):", "if False:",
        ("tests/test_construct.py::TestExpand::test_corner_not_integral_after_recentring",),
        "L and the key mean are exact only where n divides the corner's scaled key",
    ),
    Mutant(
        "first-seen-repeats", "src/snfglp/glp.py",
        "if v == seen:", "if v <= seen:",
        ("tests/test_glp.py::TestVertexIdLabels",),
        "a vertex is yielded once, at the slot that first sees it",
    ),
    Mutant(
        "near-below-2", "src/snfglp/model.py",
        "_NEAR = 2 + 2**-8", "_NEAR = 2 - 2**-8",
        ("tests/test_model.py::TestNearGrid",),
        "cells at exact distance 2 share a vertex, so the float cut-off must exceed 2",
    ),
    Mutant(
        "overlap-at-vertex-closed", "src/snfglp/model.py",
        "return 2 * min(d, k - d) < k - 2", "return 2 * min(d, k - d) <= k - 2",
        ("tests/test_model.py::TestExactConflicts",),
        "cones whose axes are their half-angles' sum apart only touch",
    ),
    Mutant(
        "growth-member-key", "src/snfglp/construct.py",
        "Cell(_preset(k, coeffs, okey), 0)", "Cell(_preset(k, coeffs, key), 0)",
        ("tests/test_construct.py::TestRandomSpecs",),
        "an orbit member is keyed by its own orbit key, not by the candidate's",
    ),
    Mutant(
        "missing-header-unchecked", "src/snfglp/model.py",
        'if header is None:\n        raise ParseError("missing header line")',
        'if False:\n        raise ParseError("missing header line")',
        ("tests/test_model.py::TestFormat::test_boundary_error_text",),
        "a text of blank and comment lines alone has no header to read",
    ),
    Mutant(
        "labels-eq-by-value", "src/snfglp/glp.py",
        "return self._by_key == other._by_key", "return Mapping.__eq__(self, other)",
        ("tests/test_slices.py::TestSliceLabelsAtCoefficientLimit",),
        "a vertex value at the coefficient limit overflows, so labels compare by key",
    ),
    Mutant(
        "step-table-one-order", "src/snfglp/model.py",
        "if ja != jb:", "if ja < jb:",
        ("tests/test_model.py::TestPerKTables::test_even_single_pair_steps_are_half_turns",),
        "a difference of two unit steps is listed under every index pair that gives it",
    ),
    Mutant(
        "ring-stride", "src/snfglp/construct.py",
        "cyc_rotate(step, q * (k // r))", "cyc_rotate(step, q)",
        ("tests/test_construct.py::TestFixedRings",),
        "the counterexample ring's steps are the r-th roots of unity, k/r steps of zeta apart",
    ),
    Mutant(
        "odd-offsets-sign", "src/snfglp/glp.py",
        "offsets = [-((k + 1) // 2) * c % k for c in rho]",
        "offsets = [((k + 1) // 2) * c % k for c in rho]",
        ("tests/test_glp.py::TestDeciderEquivalence",),
        "an odd-k offset is -(k+1)/2, the inverse of -2 mod k, times the class sum",
    ),
    Mutant(
        "hull-gap-touch-overlaps", "src/snfglp/model.py",
        "for c, *t in zip(w2, *images))) <= 0:", "for c, *t in zip(w2, *images))) < 0:",
        ("tests/test_model.py::TestExactConflicts",),
        "hulls whose exact gap is 0 only touch, so a gap of 0 is no overlap",
    ),
    Mutant(
        "sector-on-ray-positive", "src/snfglp/glp.py",
        "side[j] = 0", "side[j] = 1",
        ("tests/test_slices.py::TestSectorsReference",),
        "a point on ray j lies on neither side of it, so it is in sector j and on the ray",
    ),
    Mutant(
        "vertex-at-center-skipped", "src/snfglp/model.py",
        "if k > 3:", "if False:",
        ("tests/test_model.py::TestVertexAtCenter",),
        "a vertex at the global barycenter fails the central-cell axiom",
    ),
)


def _copy(folder: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(folder, part), ignore=ignore)


def _pytest(folder: str, tests: tuple[str, ...], timeout: float | None = None) -> str:
    """"passed", "failed" or "timeout": `pytest -x -q` on `tests` in a copy."""
    env = dict(os.environ, PYTHONPATH=os.path.join(folder, "src"))
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        code = subprocess.run(argv, cwd=folder, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if code == 0 else "failed"


def _run(mutant: Mutant, timeout: float) -> dict:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as folder:
        _copy(folder)
        path = os.path.join(folder, mutant.path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        outcome = _pytest(folder, mutant.tests, timeout)
    return {"name": mutant.name, "killed": outcome != "passed", "outcome": outcome,
            "seconds": round(time.perf_counter() - start, 2)}


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    for m in chosen:
        with open(os.path.join(ROOT, m.path), encoding="utf-8") as fh:
            count = fh.read().count(m.old)
        if count != 1:
            print(f"mutant {m.name}: old text occurs {count} times in {m.path}", file=sys.stderr)
            return 2
    timeouts = {}
    with tempfile.TemporaryDirectory() as folder:
        _copy(folder)
        for tests in dict.fromkeys(m.tests for m in chosen):
            start = time.perf_counter()
            if _pytest(folder, tests) != "passed":
                print(f"{' '.join(tests)} fail on the unmutated code", file=sys.stderr)
                return 2
            timeouts[tests] = 3 * (time.perf_counter() - start) + 30
    results = [_run(m, timeouts[m.tests]) for m in chosen]
    survived = [r["name"] for r in results if not r["killed"]]
    print(json.dumps({"mutants": results, "killed": len(results) - len(survived),
                      "survived": survived}, indent=1))
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
