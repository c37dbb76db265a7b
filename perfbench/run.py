#!/usr/bin/env python3
"""Benchmark entry point for the elicit simulation stack.

    python3 perfbench/run.py --workload ordering-small --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it imports `elicit` from `src/` there,
writes its scratch files under `.perfbench_work/` and, with `--trace 1`, the
spans of the run to `.perfbench_out/`. It prints the machine, the output
checks and the run-level figures, then as its last line one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones, with `--trace 1` the per-layer ones, as
`BENCHMARK.json` at the root declares them (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def _load_baseline() -> dict:
    path = HERE / "baseline.json"
    return json.loads(path.read_text("utf-8")) if path.is_file() else {}


def render(spec: dict, outcome, trace: bool) -> tuple[list[str], dict]:
    """The metric lines and the result object for one run's outcome."""
    declared = spec["per_layer" if trace else "end_to_end"]
    missing = {m["name"] for m in declared} - set(outcome.metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    lines = [f"{m['name']} {outcome.metrics[m['name']]:.6g} {m['unit']}" for m in declared]
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": outcome.metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    return lines, result


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "elicit" / "__init__.py").is_file():
        print(f"error: no elicit sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads  # imports elicit, so only once src/ is on the path

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        reference = workloads.reference_digest(args.workload, work / "reference")
        outcome = workloads.run(
            workloads.WORKLOADS[args.workload],
            args.seed,
            args.seconds,
            bool(args.trace),
            work / "run",
            trace_path=ROOT / ".perfbench_out" / f"trace-{args.workload}.jsonl",
            min_rounds=2 if args.trace else 3,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only once no other run is using it

    recorded = _load_baseline().get("reference_digests", {}).get(args.workload)
    verdict = "matches" if reference == recorded else "differs" if recorded else "is not recorded"
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("machine: " + json.dumps(workloads.machine(), sort_keys=True))
    print(f"reference digest {verdict}: {reference}" + (f" (recorded {recorded})" if verdict == "differs" else ""))
    for line in outcome.lines:
        print(line)

    metric_lines, result = render(spec, outcome, bool(args.trace))
    for line in metric_lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
