"""Time one ffsched workload end to end, or layer by layer, and check its outputs.

Run from the root of a checkout:

    python3 benchmark/run.py --workload horizon40 --seed 1 --seconds 40 --trace 0

Every sample is a fresh interpreter (child.py) that imports ffsched from
./src, loads the workload's scenario and calls the CLI once in-process, so
each sample pays the set-up a user pays. Samples repeat until `--seconds`
has been spent; set-up-only samples are added until there are enough
set-up times for a stable median.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates plain
and traced calls and reports the per-layer metrics (see tracing.py); the
traced calls must reproduce the plain calls' output files exactly.

A call fails on a non-zero exit, an exception, output files that differ
from the pinned fingerprints (fingerprints.json) or from the run's first
call, or layer counts that differ between traced calls of the run. The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics. A result file with the environment and every sample is written to
.bench_out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from statistics import fmean, median

import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CHILD = os.path.join(BENCH_DIR, "child.py")
PINS = os.path.join(BENCH_DIR, "fingerprints.json")

MIN_CALLS = 2  # per kind of call (plain, traced), so determinism is always checked
MIN_SETUPS = 12  # set-up samples per run, for the setup_s median
# End-to-end times are scaled to a host on which one reference.reference() run
# takes 20 ms (about its time on the shared 2-core virtual machine it was defined on).
REF_NOMINAL_NS = 20_000_000
RUN_DEADLINE_S = 170  # the whole run, including the last call, ends before this
CHILD_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full", help="tiny is the self-check size")
    return parser.parse_args(argv)


class Run:
    """The samples of one benchmark run and the checks made on them."""

    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        self.work = os.path.join(ROOT, ".bench_out", "work")
        self.out = os.path.join(self.work, "out")
        self.attempted = 0
        self.failures: list[str] = []
        self.setups: list[tuple[int, float]] = []  # (set-up ns, reference ns) per child
        self.plain: list[dict] = []
        self.traced: list[dict] = []
        with open(PINS, encoding="utf-8") as fh:
            pins = json.load(fh).get(args.size, {}).get(args.workload, {})
        self.pinned = pins.get("*") or pins.get(str(args.seed))

    def spawn(self, mode: str) -> dict | None:
        """Run one child; returns its report, or None after recording a failure."""

        self.attempted += 1
        shutil.rmtree(self.out, ignore_errors=True)
        remaining = RUN_DEADLINE_S - (time.monotonic() - self.started)
        a = self.args
        cmd = [sys.executable, CHILD, "--root", ROOT, "--workload", a.workload, "--seed", str(a.seed),
               "--work", self.work, "--out", self.out, "--size", a.size, "--mode", mode]
        env = {**os.environ, **CHILD_ENV}
        try:
            proc = subprocess.run(cmd + ["--spawn-ns", str(time.monotonic_ns())], capture_output=True, text=True,
                                  env=env, timeout=max(remaining, 1))
        except subprocess.TimeoutExpired:
            return self._fail(f"{mode} call timed out")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return self._fail(f"{mode} call exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        report = json.loads(lines[-1])
        self.setups.append((report["setup_ns"], report["ref_setup_ns"]))
        if mode == "setup":
            return report
        if report["cli_rc"] != 0:
            return self._fail(f"{mode} call: ffsched exited {report['cli_rc']}")
        try:
            report["fingerprint"] = workloads.fingerprint(a.workload, self.out)
            report["tracking_error"], report["missed_total"] = workloads.outcomes(a.workload, self.out)
        except (OSError, ValueError, KeyError) as exc:
            return self._fail(f"{mode} call: unreadable outputs: {exc!r}")
        if self.pinned is not None and report["fingerprint"] != self.pinned:
            return self._fail(f"{mode} call: outputs {report['fingerprint']} differ from the pinned {self.pinned}")
        first = (self.plain + self.traced)[:1]
        if first and not _same_outputs(first[0], report):
            return self._fail(f"{mode} call: outputs differ from the run's first call")
        if mode == "traced" and self.traced and not _same_counts(self.traced[0], report):
            return self._fail("traced call: layer counts differ from the run's first traced call")
        self._samples(mode).append(report)
        return report

    def _fail(self, why: str) -> None:
        self.failures.append(why)
        print(f"failed: {why}", file=sys.stderr)
        return None

    def measure(self) -> None:
        workloads.write_inputs(self.work)
        self.spawn("setup")  # warm-up: compiles bytecode; not a set-up sample
        self.setups.clear()
        modes = ["plain", "traced"] if self.args.trace else ["plain"]
        took: list[float] = []
        while not self.failures:
            elapsed = time.monotonic() - self.started
            short = any(len(self._samples(m)) < MIN_CALLS for m in modes)
            if not short and elapsed + median(took) > self.args.seconds:
                break
            mode = min(modes, key=lambda m: len(self._samples(m)))
            start = time.monotonic()
            self.spawn(mode)
            took.append(time.monotonic() - start)
        while len(self.setups) < MIN_SETUPS and not self.failures:
            self.spawn("setup")

    def _samples(self, mode: str) -> list[dict]:
        return self.traced if mode == "traced" else self.plain

    def host(self) -> dict:
        """The raw host figures, not scaled by the reference time."""

        wall_s = median(r["wall_ns"] for r in self.plain) / 1e9
        return {
            "host.wall_s": (wall_s, "s"),
            "host.sim_jobs_per_s": (self.plain[0]["jobs_completed"] / wall_s, "1/s"),
            "host.setup_s": (median(ns for ns, _ in self.setups) / 1e9, "s"),
            "host.ref_ms": (median(ref for _, ref in self.setups) / 1e6, "ms"),
        }

    def end_to_end(self) -> dict:
        wall_s = median(r["wall_ns"] * REF_NOMINAL_NS / r["ref_ns"] for r in self.plain) / 1e9
        first = self.plain[0]
        return {
            "wall_s": (wall_s, "s"),
            "sim_jobs_per_s": (first["jobs_completed"] / wall_s, "1/s"),
            "setup_s": (median(ns * REF_NOMINAL_NS / ref for ns, ref in self.setups) / 1e9, "s"),
            "peak_rss_mb": (median(r["peak_rss_bytes"] for r in self.plain) / 1e6, "MB"),
            "sim.mean_tracking_error": (first["tracking_error"], "plant_units"),
        }

    def per_layer(self) -> dict:
        traces = [r["trace"] for r in self.traced]
        first = traces[0]
        metrics = {}
        for name, everywhere in tracing.SPANS:
            metrics[f"{name}.calls"] = (first["calls"][name], "count")
            if everywhere:
                metrics[f"{name}.self_ms"] = (fmean(t["self_ns"][name] for t in traces) / 1e6, "ms")
        for module in tracing.MODULES:
            mean_ns = fmean(sum(ns for n, ns in t["self_ns"].items() if n.split(".")[0] == module) for t in traces)
            metrics[f"{module}.self_ms"] = (mean_ns / 1e6, "ms")
        per_run = [ns for t in traces for ns in t["run_experiment_ns"]]
        metrics["experiment.run_experiment.p50_ms"] = (median(per_run) / 1e6, "ms")
        for name, count in first["counts"].items():
            metrics[name] = (count, "count")
        kernel_ns = fmean(t["self_ns"]["rtsim.Kernel.run"] for t in traces)
        metrics["rtsim.ns_per_job"] = (kernel_ns / first["counts"]["rtsim.jobs_released"], "ns")
        metrics["rtsim.sim.response_ms.p50"] = (first["response_ns_p50"] / 1e6, "sim_ms")
        metrics["rtsim.sim.response_ms.p99"] = (first["response_ns_p99"] / 1e6, "sim_ms")
        metrics["sim.missed_total"] = (self.traced[0]["missed_total"], "count")
        totals = [r["wall_ns"] for r in self.traced]
        metrics["trace.total_ms"] = (fmean(totals) / 1e6, "ms")
        attributed = [sum(t["self_ns"].values()) for t in traces]
        metrics["trace.unattributed_ms"] = (fmean(w - a for w, a in zip(totals, attributed)) / 1e6, "ms")
        overhead_ns = median(totals) - median(r["wall_ns"] for r in self.plain)
        metrics["trace.overhead_s"] = (overhead_ns / 1e9, "s")
        metrics["trace.span_ns"] = (median(t["span_ns"] for t in traces), "ns")
        metrics["trace.spans"] = (sum(first["calls"].values()), "count")
        metrics.update(self.host())
        return metrics

    def result(self) -> dict:
        complete = self.plain and (self.traced or not self.args.trace)
        metrics = {}
        if complete:
            raw = self.per_layer() if self.args.trace else self.end_to_end()
            metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in raw.items()}
        return {
            "correct": bool(complete) and not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": metrics,
        }


def _same_outputs(a: dict, b: dict) -> bool:
    keys = ("fingerprint", "tracking_error", "missed_total", "jobs_completed")
    return all(a[k] == b[k] for k in keys)


def _same_counts(a: dict, b: dict) -> bool:
    ta, tb = a["trace"], b["trace"]
    keys = ("calls", "counts", "response_ns_p50", "response_ns_p99")
    return all(ta[k] == tb[k] for k in keys) and len(ta["run_experiment_ns"]) == len(tb["run_experiment_ns"])


def environment(args, numpy_version: str | None) -> dict:
    """What the figures were measured on; RunSummary.wall_clock_s is never read."""

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_reaches_program": args.workload in workloads.SEEDED,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": _tree_digest(os.path.join(ROOT, "src", "ffsched")),
    }


def _tree_digest(top: str) -> str:
    """sha256 over the package sources, so a result names the code it measured without git."""

    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            path = os.path.join(dirpath, filename)
            digest.update(os.path.relpath(path, top).encode())
            with open(path, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def _terminate(signum, frame):
    # raising inside subprocess.run makes it kill and reap the running child
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isfile(os.path.join(ROOT, "src", "ffsched", "cli.py")):
        print(f"error: no ffsched sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    run = Run(args)
    run.measure()
    result = run.result()
    samples = run.plain + run.traced
    record = {
        "environment": environment(args, samples[0]["numpy"] if samples else None),
        "result": result,
        "failures": run.failures,
        "fingerprint": samples[0]["fingerprint"] if samples else None,
        "pinned": run.pinned,
        "setups": run.setups,
        "plain": run.plain,
        "traced": run.traced,
    }
    results = os.path.join(ROOT, ".bench_out", "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"samples: {len(run.plain)} plain, {len(run.traced)} traced, {len(run.setups)} set-up")
    if run.plain:
        print("host: " + ", ".join(f"{name} = {value:.6g} {unit}" for name, (value, unit) in run.host().items()))
    print(f"fingerprint: {json.dumps(record['fingerprint'])}")
    print(f"result file: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
