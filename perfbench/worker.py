"""One phase of a benchmark run, each in a fresh interpreter.

    python3 perfbench/worker.py setup   --workload W --seed N [--tiny]
    python3 perfbench/worker.py measure --workload W --seed N --seconds S [--trace] [--tiny]
    python3 perfbench/worker.py check   --workload W --seed N [--trace] [--tiny]

``setup`` imports the library and writes the workload's inputs.
``measure`` reads them and runs the timed loop with the library's caches
cold; the loop length is fixed by the workload, seed and ``--seconds``, so
a run always does the same operations.  It streams each operation's outputs
to a results file, so it holds nothing between operations.  ``check`` checks
and digests every recorded output.  Each phase prints one JSON object on
stdout.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"


def _load_library():
    source = ROOT / "src" / "snfglp"
    if not (source / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library source at {source}")
    sys.path.insert(0, str(ROOT / "src"))
    import snfglp
    import snfglp.cli  # noqa: F401 - the cli workload and the tracer need the module loaded

    if Path(snfglp.__file__).resolve().parent != source.resolve():
        raise SystemExit(f"perfbench: imported snfglp from {snfglp.__file__}, not {source}")
    return snfglp


def _latency_summary(seconds: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it (max if too few)."""
    ordered = sorted(seconds)
    n = len(ordered)
    tail_rank = n - 11 if n >= 11 else n - 1
    return {
        "samples": n,
        "p50_ms": statistics.median(ordered) * 1000.0,
        "tail_ms": ordered[tail_rank] * 1000.0,
        "tail_pct": 100.0 * (tail_rank + 1) / n,
    }


def _measure(workload, units: int, tracer, results) -> tuple[list[float], float]:
    """Run ``units`` loop units and write each result."""
    latencies: list[float] = []
    busy = 0.0
    for i in range(units):
        start = perf_counter()
        ops = workload.step(i, tracer)
        busy += perf_counter() - start
        for latency, result in ops:
            latencies.append(latency)
            results.write(json.dumps(workload.record(result)) + "\n")
    return latencies, busy


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench-worker")
    parser.add_argument("phase", choices=["setup", "measure", "check"])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    started = perf_counter()
    lib = _load_library()
    workdir = WORKDIR / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](lib, args.seed, workdir, args.tiny)
    if args.phase == "setup":
        workload.setup()
        print(json.dumps({"setup_s": perf_counter() - started}))
        return 0

    workload.load()
    results_path = workdir / f"results-{'traced' if args.trace else 'plain'}.jsonl"
    if args.phase == "check":
        with open(results_path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        tally, digest = checks.Tally(), checks.Digest()
        workload.check(records, tally, digest)
        print(json.dumps({
            "attempted": tally.attempted,
            "failed": tally.failed,
            "unexpected": tally.unexpected,
            "failed_by_kind": tally.by_kind,
            "known_defects": {kind: checks.KNOWN_DEFECTS[kind] for kind in tally.by_kind if kind in checks.KNOWN_DEFECTS},
            "failure_examples": tally.examples,
            "digest": digest.hexdigest(),
        }))
        return 0

    units = workload.units(args.seconds)
    with open(results_path, "w", encoding="utf-8") as results:
        if args.trace:
            with tracing.Tracer(lib) as tracer:
                latencies, busy = _measure(workload, units, tracer, results)
        else:
            tracer = None
            latencies, busy = _measure(workload, units, None, results)
    out = {
        "units": units,
        "busy_s": busy,
        "ops": len(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **_latency_summary(latencies),
    }
    if tracer is not None:
        trace_file = WORKDIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_file, {"workload": args.workload, "seed": args.seed, "busy_s": busy})
        out["layers"] = tracer.metrics()
        out["layer_self_s"] = tracer.layer_self_total()
        out["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
