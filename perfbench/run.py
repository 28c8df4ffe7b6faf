"""snfglp benchmark.

    python3 perfbench/run.py --workload {sweep,fractal3,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Set-up is timed in several fresh
interpreters and reported as its median; the measured loop runs in another
fresh interpreter, one process and one thread, so the library's caches start
cold; a last interpreter checks the recorded outputs.  With ``--trace 1`` the
same work runs twice, untraced and traced, and the per-layer metrics come
from the traced run.  Prints the metrics with
their units and the output digest, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
DEADLINE_S = 175.0

# Conventional names of each workload's headline numbers, printed beside the generic ones.
ALIASES = {
    "sweep": {"ops_per_s": "sweep_specs_per_s"},
    "fractal3": {"latency_p50_ms": "fractal3_s"},
    "cli": {"latency_p50_ms": "cli_p50_ms", "latency_tail_ms": "cli_tail_ms", "ops_per_s": "cli_rps"},
}


class ChildFailed(Exception):
    pass


def _child(args, phase: str, deadline: float, *extra: str) -> dict:
    """Run one worker phase to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), phase, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    if args.tiny:
        cmd.append("--tiny")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed(f"no time left for the {phase} phase")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=remaining, text=True)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{phase} phase timed out") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{phase} phase exited with {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise ChildFailed(f"{phase} phase printed no result") from exc


def _failure_lines(check: dict) -> list[str]:
    kinds = ", ".join(f"{k} {v}" for k, v in sorted(check["failed_by_kind"].items())) or "none"
    lines = [
        f"failed_frac = {check['failed'] / check['attempted']!r} ratio"
        f" ({check['failed']} failed / {check['attempted']} attempted; by kind: {kinds})"
    ]
    lines += [f"  known defect {kind}: {text}" for kind, text in sorted(check["known_defects"].items())]
    lines += [f"  failure: {text}" for text in check["failure_examples"]]
    return lines


def _end_to_end(args, run: dict, setups: list[float]) -> dict:
    metrics = {
        "ops_per_s": (run["ops"] / run["busy_s"], "1/s"),
        "latency_p50_ms": (run["p50_ms"], "ms"),
        "latency_tail_ms": (run["tail_ms"], "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    print(f"ops: {run['ops']} in {run['busy_s']!r} s; latency tail is p{run['tail_pct']:.2f}"
          f" of {run['samples']} samples; setup samples {setups}")
    for name, (value, unit) in metrics.items():
        alias = ALIASES[args.workload].get(name)
        shown = f"{name} = {value!r} {unit}"
        if alias == "fractal3_s":
            shown += f"  ({alias} = {value / 1000.0!r} s)"
        elif alias:
            shown += f"  ({alias})"
        print(shown)
    return metrics


def _per_layer(plain: dict, traced: dict) -> dict:
    metrics = {name: tuple(pair) for name, pair in traced["layers"].items()}
    metrics["trace.overhead_frac"] = (traced["busy_s"] / plain["busy_s"] - 1.0, "ratio")
    metrics["trace.accounted_frac"] = (traced["layer_self_s"] / traced["busy_s"], "ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"untraced {plain['busy_s']!r} s, traced {traced['busy_s']!r} s,"
          f" layer self time {traced['layer_self_s']!r} s; spans in {traced['trace_file']}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "snfglp" / "__init__.py").is_file():
        print(f"perfbench: no snfglp source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    try:
        setups = [_child(args, "setup", deadline)["setup_s"] for _ in range(1 if args.trace else SETUP_PROBES)]
        plain = _child(args, "measure", deadline)
        plain_check = _child(args, "check", deadline)
        if args.trace:
            traced = _child(args, "measure", deadline, "--trace")
            traced_check = _child(args, "check", deadline, "--trace")
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    check = traced_check if args.trace else plain_check
    for line in _failure_lines(check):
        print(line)
    metrics = _per_layer(plain, traced) if args.trace else _end_to_end(args, plain, setups)
    correct = check["unexpected"] == 0
    if check["digest"] != plain_check["digest"]:
        print("perfbench: the traced run produced different outputs", file=sys.stderr)
        correct = False
    print(f"digest {args.workload} seed={args.seed} sha256={check['digest']}")
    print(json.dumps({
        "correct": correct,
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
