"""Run the benchmark in alternated parent/change pairs and write a BENCH_<n>.json.

Run from a checkout whose HEAD is the change:

    python3 tools/bench_pairs.py PARENT_REV --out BENCH_16.json --seed 41 --what "..."

Both sides are extracted with `git archive` into temporary directories, so
each runs from its committed files alone, with no bytecode cache or build
output of the checkout (uncommitted edits are not measured). The script
refuses to run when `benchmark/` or `BENCHMARK.json` differ between the two
commits, since then the two sides would not be measured alike. For each
workload in BENCHMARK.json it runs the benchmark command (`--trace 0`, for
BENCHMARK.json's `run_seconds`) for `PAIRS` pairs, alternating which side
goes first (even pairs from 0 run the parent first), then one `--trace 1`
pair. Every run's result file is kept whole in the output, which is written
as one compact JSON line.

Then it times whole start-up processes, `PAIRS` alternated pairs per command
in `STARTUP`, each run's wall time and its peak RSS (`os.wait4`'s
`ru_maxrss`). A run's environment is the caller's without its `PYTHON*`
variables, plus `benchmark/run.py`'s `CHILD_ENV` and `PYTHONPATH` set to the
side's `src`. Every run sets `PYTHONDONTWRITEBYTECODE=1`, as the benchmark's
children run on its measurement host. A cold command finds no bytecode cache
of ffsched (the extractions' `__pycache__` directories are removed first); a
warm one reads every module's cache from a `PYTHONPYCACHEPREFIX` directory
under the temporary directory, primed by one untimed run per side, so no run
writes into a tree.

The output has the keys `what`, `command`, `summary` (per workload and
end-to-end metric: each side's median and inclusive quartiles, the pairs in
which the change is better, ties and the pair count, plus failed calls per
side), `pairs`, `traced` and `startup` (per command: its arguments, whether
its cache is warm, its pairs and their `summary`). It ends by printing one
line per workload and end-to-end metric with the numbers a claim and a
no-regression check are judged by, the same per start-up command, then one
per workload and per-layer `*.self_ms` metric of the traced pair, compared
after scaling by each run's own `host.ref_ms`, and one per per-layer count
that differs between the traced pair's two sides. Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
from statistics import median, quantiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMPARED = ("benchmark", "BENCHMARK.json")  # must be identical on both sides
SIDES = ("parent", "change")
PAIRS = 10  # untraced pairs per workload, and pairs per start-up command
# start-up command -> (interpreter arguments, whether the bytecode cache is warm);
# a `{quiet}` argument names a file holding open-quiet40's noise-free scenario.
# "setup-numpy" imports what `benchmark/child.py` imports before its `setup_s`
# ends, in its order: numpy first, then the CLI, then the default scenario.
STARTUP = {
    "import-cold": (["-c", "import ffsched.cli"], False),
    "import-warm": (["-c", "import ffsched.cli"], True),
    "setup-numpy": (
        ["-c", "import numpy; import ffsched.cli; from ffsched.scenario import default_scenario; default_scenario()"],
        False,
    ),
    "table": (["-m", "ffsched.cli", "table"], False),
    "run-open-quiet": (
        ["-m", "ffsched.cli", "run", "--mode", "open", "--horizon", "4", "--scenario", "{quiet}"],
        False,
    ),
}
STARTUP_BETTER = {"wall_ms": "lower", "peak_rss_mb": "lower"}
# spawns argv[1:] with stdout discarded and prints its wall seconds, exit code and ru_maxrss (KiB)
TIMER = """
import os, sys, time
start = time.perf_counter()
discard_stdout = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions=discard_stdout)
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric in `better` (name -> "lower" or "higher"): each side's
    median and inclusive quartiles over the pairs, the pairs in which the
    change is better, the ties and the pairs counted; plus the failed calls
    of each side under "failed". A pair counts for a metric only when both of
    its records report it.
    """

    summary = {}
    for name, direction in better.items():
        values = [(_value(p["parent"], name), _value(p["change"], name)) for p in pairs]
        values = [(a, b) for a, b in values if a is not None and b is not None]
        if not values:
            continue
        parent, change = [a for a, _ in values], [b for _, b in values]
        sign = 1 if direction == "lower" else -1
        summary[name] = {
            "parent_median": median(parent),
            "parent_quartiles": _quartiles(parent),
            "change_median": median(change),
            "change_quartiles": _quartiles(change),
            "change_better_in": sum(sign * (a - b) > 0 for a, b in values),
            "ties": sum(a == b for a, b in values),
            "pairs": len(values),
        }
    summary["failed"] = {side: sum(p[side]["result"]["failed"] for p in pairs) for side in SIDES}
    return summary


def report(summary: dict) -> list[str]:
    """The lines printed at the end, from the output's `summary`: per
    workload, one per end-to-end metric with both medians, the relative
    change, the pairs the change won (ties count for neither side), the gap
    between the medians and the parent's quartile spread; then one with the
    failed calls of each side.
    """

    lines = []
    for workload, entry in summary.items():
        metrics = dict(entry["metrics"])
        failed = metrics.pop("failed")
        for name, m in metrics.items():
            a, b = m["parent_median"], m["change_median"]
            relative = f"{(b - a) / a:+.1%}" if a else "n/a"
            q1, q3 = m["parent_quartiles"]
            lines.append(
                f"{workload} {name}: {a:.6g} -> {b:.6g} ({relative}), change better in "
                f"{m['change_better_in']}/{m['pairs']} ({m['ties']} ties), median gap {abs(b - a):.3g} "
                f"vs parent quartile spread {q3 - q1:.3g}"
            )
        lines.append(f"{workload} failed calls: parent {failed['parent']}, change {failed['change']}")
    return lines


def traced_report(traced: dict) -> list[str]:
    """The lines printed after `report`'s, from the output's `traced`: per
    workload, one per per-layer `*.self_ms` metric of the traced pair, with
    both raw host values and the change relative to the parent once each
    run's value is divided by its own `host.ref_ms`, so that the host's drift
    between the two runs does not read as a layer change; and one per
    per-layer count (unit `count`: the `*.calls` and the `rtsim.*` counts
    among them) whose value differs between the two sides.
    """

    lines = []
    for workload, (pair,) in traced.items():
        parent, change = pair["parent"], pair["change"]
        ref_a, ref_b = _value(parent, "host.ref_ms"), _value(change, "host.ref_ms")
        for name, metric in parent["result"]["metrics"].items():
            a, b = metric["value"], _value(change, name)
            if b is None:
                continue
            if name.endswith(".self_ms"):
                scaled = f"{(b / ref_b) / (a / ref_a) - 1:+.1%}" if a and ref_a and ref_b else "n/a"
                lines.append(f"{workload} traced {name}: {a:.6g} -> {b:.6g} ms raw, {scaled} scaled by host.ref_ms")
            elif metric["unit"] == "count" and a != b:
                lines.append(f"{workload} traced {name}: {a} -> {b}")
    return lines


def _value(record: dict, name: str) -> float | None:
    metric = record["result"]["metrics"].get(name)
    return None if metric is None else metric["value"]


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, check=True)


def _extract(rev: str, into: str) -> None:
    archive = _git("archive", "--format=tar", rev).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter refuses links and paths out of `into`, where tarfile has it
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def _run(tree: str, command: list[str], workload: str, seed: int, seconds: float, trace: int) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command + args, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} in {tree}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    path = os.path.join(tree, ".bench_out", "results", f"{workload}-full-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _pair(trees: dict, order: list[str], *run_args) -> dict:
    """One run per side, in `order`; `run_args` are `_run`'s after the tree."""

    pair = {"order": order}
    for side in order:
        pair[side] = _run(trees[side], *run_args)
        metrics = pair[side]["result"]["metrics"]
        shown = {k: v["value"] for k, v in metrics.items() if k in ("wall_s", "rtsim.Kernel.run.self_ms")}
        print(f"  {side}: {shown}", file=sys.stderr, flush=True)
    return pair


def startup(trees: dict, tmp: str, pairs: int = PAIRS, commands: dict = STARTUP) -> dict:
    """The output's `startup`: per command, `pairs` alternated pairs of
    whole-process runs in `trees` (side -> checkout root), each recorded as
    `summarize` reads a benchmark record, and their summary."""

    quiet = os.path.join(tmp, "quiet.cfg")
    with open(quiet, "w", encoding="utf-8") as fh:
        fh.write(_benchmark_literal("workloads.py", "QUIET_SCENARIO"))
    base = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    base.update(_benchmark_literal("run.py", "CHILD_ENV"), PYTHONDONTWRITEBYTECODE="1")
    section = {}
    for name, (args, warm) in commands.items():
        argv = [sys.executable, *(quiet if a == "{quiet}" else a for a in args)]
        envs = {}
        for side, tree in trees.items():
            envs[side] = {**base, "PYTHONPATH": os.path.join(tree, "src")}
            if warm:
                envs[side]["PYTHONPYCACHEPREFIX"] = os.path.join(tmp, "pycache", side)
                priming = {k: v for k, v in envs[side].items() if k != "PYTHONDONTWRITEBYTECODE"}
                subprocess.run(argv, cwd=tree, env=priming, check=True, capture_output=True)
        runs = []
        for i in range(pairs):
            order = list(SIDES) if i % 2 == 0 else list(reversed(SIDES))
            runs.append({"order": order, **{side: _time_process(argv, trees[side], envs[side]) for side in order}})
        section[name] = {"args": args, "warm": warm, "pairs": runs, "summary": summarize(runs, STARTUP_BETTER)}
        print(f"startup {name}: {pairs} pairs", file=sys.stderr, flush=True)
    return section


def _benchmark_literal(module: str, name: str):
    """The value of the module-level `name = <literal>` in `benchmark/<module>`, read without importing it."""

    with open(os.path.join(ROOT, "benchmark", module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == [name]
    )


def _time_process(argv: list[str], cwd: str, env: dict) -> dict:
    """One run's wall time and peak RSS, as a benchmark record's metrics.

    The run is spawned by `TIMER` in a bare interpreter, not by this script:
    Linux keeps a process's RSS high-water mark across `exec`, so a child
    spawned from this script would report at least this script's size.
    """

    timer = [sys.executable, "-I", "-S", "-c", TIMER, *argv]
    proc = subprocess.run(timer, cwd=cwd, env=env, capture_output=True, text=True, check=True)
    wall_s, code, maxrss_kib = proc.stdout.split()
    if code != "0":
        raise RuntimeError(f"{argv[1:]} in {cwd}: exit {code}\n{proc.stderr[-2000:]}")
    metrics = {
        "wall_ms": {"value": float(wall_s) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": int(maxrss_kib) * 1024 / 1e6, "unit": "MB"},
    }
    return {"result": {"failed": 0, "metrics": metrics}}


def _drop_bytecode(tree: str) -> None:
    for top, dirs, _ in os.walk(tree):
        if "__pycache__" in dirs:
            dirs.remove("__pycache__")
            shutil.rmtree(os.path.join(top, "__pycache__"))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT_REV", help="the commit the change is measured against")
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--seed", type=int, default=1, help="benchmark seed; only seeded workloads use it")
    parser.add_argument("--what", default="", help="what the change is, put first in the output's `what`")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    revs = {side: _git("rev-parse", rev).stdout.decode().strip() for side, rev in zip(SIDES, (args.parent, "HEAD"))}
    differ = _git("diff", "--name-only", revs["parent"], revs["change"], "--", *COMPARED).stdout.decode().split()
    if differ:
        print(f"error: the benchmark differs between the commits: {', '.join(differ)}", file=sys.stderr)
        return 2
    tmp = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        trees = {side: os.path.join(tmp, side) for side in SIDES}
        for side in SIDES:
            _extract(revs[side], trees[side])
        with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        seconds = spec["run_seconds"]
        workloads = [w["name"] for w in spec["workloads"]]
        out = {"pairs": {}, "traced": {}}
        for workload in workloads:
            pairs = []
            for i in range(PAIRS):
                order = list(SIDES) if i % 2 == 0 else list(reversed(SIDES))
                print(f"{workload} pair {i + 1}/{PAIRS}", file=sys.stderr, flush=True)
                pairs.append(_pair(trees, order, spec["command"], workload, args.seed, seconds, 0))
            out["pairs"][workload] = {"seed": args.seed, "pairs": pairs}
            print(f"{workload} traced pair", file=sys.stderr, flush=True)
            out["traced"][workload] = [_pair(trees, list(SIDES), spec["command"], workload, args.seed, seconds, 1)]
        for tree in trees.values():
            _drop_bytecode(tree)  # a benchmark run may have cached bytecode in the tree
        out["startup"] = startup(trees, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    host = f"{os.cpu_count()} cores, Python {platform.python_version()}"
    what = (
        f"{args.what} Paired benchmark records: parent = {revs['parent'][:7]}, change = {revs['change'][:7]}. "
        f"Pairs alternate which side runs first (even-numbered pairs from 0 run the parent first); benchmark/ is "
        f"identical on both sides, and each side ran from a `git archive` extraction. Seed {args.seed} (only "
        f"seeded workloads use it). summary is computed from pairs (quartiles by statistics.quantiles("
        f"method='inclusive')); traced holds one --trace 1 pair per workload (per-layer times there are raw host "
        f"ms, not scaled by the reference time). Host: {host}."
    ).strip()
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    command = spec["command"] + [f"--workload <workload> --seed <seed> --seconds {seconds:g} --trace <0|1>"]
    document = {
        "what": what,
        "command": " ".join(command),
        "summary": {w: {"seed": args.seed, "metrics": summarize(out["pairs"][w]["pairs"], better)} for w in workloads},
        **out,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(document, fh)
        fh.write("\n")
    startup_lines = report({f"startup {name}": {"metrics": e["summary"]} for name, e in out["startup"].items()})
    print("\n".join(report(document["summary"]) + startup_lines + traced_report(document["traced"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
