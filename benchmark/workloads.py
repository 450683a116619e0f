"""The benchmark's workloads: the CLI arguments, generated inputs and outputs of each.

Standard library only, so the parent process (run.py) never imports ffsched
or numpy; only the child processes do.
"""

from __future__ import annotations

import hashlib
import os
from statistics import fmean

WORKLOADS = ("horizon40", "sweep-default", "open-quiet40")

# Workloads whose CLI arguments carry the benchmark seed. The sweep fixes its
# own seeds to 1..N and the quiet scenario makes no random draws, so neither
# depends on the seed; the program sees the same inputs for every seed.
SEEDED = frozenset({"horizon40"})

OUTPUTS = {
    "horizon40": ("trace.csv", "summary.txt"),
    "sweep-default": ("sweep_summary.csv",),
    "open-quiet40": ("trace.csv", "summary.txt"),
}

QUIET_SCENARIO = "# generated by the benchmark: no execution-time or measurement noise\n[noise]\nexec_std = 0\nutil_std = 0\n"

# "full" is the measured size; "tiny" is the self-check size (check.py --tiny).
SIZES = ("full", "tiny")


def scenario_path(work_dir: str) -> str:
    return os.path.join(work_dir, "quiet.cfg")


def write_inputs(work_dir: str) -> None:
    """Generate the input files the workloads read (the same for every seed)."""

    os.makedirs(work_dir, exist_ok=True)
    with open(scenario_path(work_dir), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(QUIET_SCENARIO)


def cli_args(name: str, seed: int, out_dir: str, work_dir: str, size: str = "full") -> list[str]:
    """The `ffsched` argv of one workload call."""

    horizon = "40" if size == "full" else "2"
    if name == "horizon40":
        return ["run", "--horizon", horizon, "--seed", str(seed), "--out", out_dir]
    if name == "sweep-default":
        if size == "full":
            return ["sweep", "--seeds", "10", "--out", out_dir]
        return ["sweep", "--seeds", "1", "--horizon", "1", "--out", out_dir]
    if name == "open-quiet40":
        return ["run", "--scenario", scenario_path(work_dir), "--mode", "open", "--horizon", horizon, "--out", out_dir]
    raise ValueError(f"unknown workload {name!r}")


def fingerprint(name: str, out_dir: str) -> dict[str, str]:
    """sha256 of each output file of one call."""

    digests = {}
    for filename in OUTPUTS[name]:
        with open(os.path.join(out_dir, filename), "rb") as fh:
            digests[filename] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def outcomes(name: str, out_dir: str) -> tuple[float, int]:
    """(mean tracking error, total deadline misses) read from the output files.

    For the sweep, the tracking error is the mean over its runs and the misses
    are summed over them.
    """

    if name == "sweep-default":
        with open(os.path.join(out_dir, "sweep_summary.csv"), encoding="utf-8") as fh:
            header, *rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
        err_col, missed_col = header.index("mean_tracking_error"), header.index("missed_total")
        return fmean(float(r[err_col]) for r in rows), sum(int(r[missed_col]) for r in rows)
    values = {}
    with open(os.path.join(out_dir, "summary.txt"), encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.partition(" = ")
            values[key] = value.strip()
    missed = sum(int(v) for k, v in values.items() if k.endswith(".missed"))
    return float(values["mean_tracking_error"]), missed
