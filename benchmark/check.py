"""Run every workload once and print every metric by name, with its unit.

    python3 benchmark/check.py            # full size: pinned fingerprints are checked
    python3 benchmark/check.py --tiny     # quick self-check at a tiny size

Each workload runs once with tracing off and once with tracing on. The check
fails (exit 1) when a run is not correct (a fingerprint mismatch, a failed or
non-deterministic call), when failed / attempted is above 0, when a metric
named in BENCHMARK.json is missing, has another unit or is not listed there,
or when the per-module self times plus trace.unattributed_ms do not add up
to trace.total_ms.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

sys.path.insert(0, BENCH_DIR)
import tracing  # noqa: E402


def run_workload(spec: dict, workload: str, trace: int, args) -> dict:
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.tiny:
        cmd += ["--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def problems_of(result: dict, declared: list, trace: int) -> list[str]:
    problems = []
    if not result["correct"]:
        problems.append("correct is false")
    if result["failed"] > 0 or result["attempted"] < 1:
        problems.append(f"failed share {result['failed']}/{result['attempted']}")
    metrics = result["metrics"]
    for metric in declared:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append(f"missing metric {metric['name']}")
        elif got["unit"] != metric["unit"]:
            problems.append(f"{metric['name']}: unit {got['unit']}, declared {metric['unit']}")
        elif not math.isfinite(got["value"]):
            problems.append(f"{metric['name']}: value {got['value']}")
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        problems.append(f"undeclared metrics {sorted(extra)}")
    if trace and not problems:
        parts = sum(metrics[f"{module}.self_ms"]["value"] for module in tracing.MODULES)
        total = metrics["trace.total_ms"]["value"]
        if not math.isclose(parts + metrics["trace.unattributed_ms"]["value"], total, rel_tol=1e-9):
            problems.append(f"module self times + unattributed != total ({parts} vs {total})")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tiny", action="store_true", help="tiny inputs: a quick self-check of the benchmark")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0, help="per run; each run makes at least two calls")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            try:
                result = run_workload(spec, workload, trace, args)
                problems = problems_of(result, declared, trace)
            except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
                result, problems = None, [str(exc)]
            print(f"== {workload} (trace {trace})")
            if result is not None:
                print(f"   failed share: {result['failed']}/{result['attempted']}")
                for name, metric in result["metrics"].items():
                    print(f"   {name:45s} {metric['value']:>22.9g} {metric['unit']}")
            for problem in problems:
                print(f"   PROBLEM: {problem}")
            failed = failed or bool(problems)
    print("check failed" if failed else "check passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
