"""Self-tests of the benchmark: ``python3 -m pytest perfbench``."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import snfglp  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert f"digest {workload} seed=3 sha256=" in proc.stdout


def test_run_without_library_source_fails(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _plain_op(spec):
    parity = snfglp.decide_glp_even if spec.k % 2 == 0 else snfglp.decide_glp_odd
    report = snfglp.validate(spec)
    return {"kind": "plain", "spec": spec, "report": {"valid": report.valid, "lines": report.lines()},
            "general": snfglp.decide_glp(spec), "parity": parity(spec)}


@pytest.mark.parametrize("name", ["sierpinski-hexagon", "lindstrom-snowflake"])
def test_checker_flags_flipped_sweep_verdict(name):
    op = _plain_op(snfglp.catalog(name))
    assert checks.sweep_problems(snfglp, op) == []
    general = op["general"]
    if general.glp:
        flipped = snfglp.Verdict(glp=False, witness=tuple(range(snfglp.catalog(name).n)))
    else:
        flipped = snfglp.Verdict(glp=True, labeling=general.labeling)
    tally = checks.Tally()
    tally.add("flipped", checks.sweep_problems(snfglp, dict(op, general=flipped)))
    assert (tally.failed, tally.unexpected) == (1, 1)


def test_checker_flags_flipped_cli_verdict():
    spec = snfglp.catalog("lindstrom-snowflake")
    argv = ["decide", "snowflake.snf", "--method", "general"]
    ref = checks.cli_reference(snfglp, spec, argv, {})
    assert checks.cli_problems(ref, 1, ref.stdout, shifted=False) == []
    problems = checks.cli_problems(ref, 0, "GLP\n", shifted=False)
    assert problems and all(p.known is None for p in problems)
