"""Output pins: the default scenario's files must not change by a single byte.

The sha256 of `trace.csv` and `summary.txt` for every scheduling mode at
seed 1 on the default 4 s scenario and for a scenario whose mean execution
times change between consecutive jobs, and of a short noise sweep's
`sweep_summary.csv`. A refactor or speed-up of the simulation
must leave them as they are; a change that is meant to alter the numbers
re-takes these pins and says why.
"""

import hashlib
import os
from dataclasses import replace

import pytest

from ffsched.cli import main
from ffsched.experiment import emit_traces, run_experiment
from ffsched.scenario import default_scenario, validate_scenario

PINS = {
    "fuzzy": {
        "trace.csv": "ab7a7295032b90e4e8e97f39b86f8d952d7eae64dfd7481fae24ca6449b38c0c",
        "summary.txt": "23a05daa7930f0f2763a463d258a91968e1bdac44a49b4f75a6ad3474130bd4e",
    },
    "ideal": {
        "trace.csv": "9ed5cefcd6376d98b73d38380a90d9893885f86cfe30ffe2b487911b033040d4",
        "summary.txt": "43e188d1d9fe98f5cab76f67280efa55dd9c8c67351827cbfa9260625269005c",
    },
    "open": {
        "trace.csv": "538a9878c217d8db51ce6c395e37d4af9f89201609393d8aae307325584c9af3",
        "summary.txt": "08b80f4585ec18cdbfc15a1409cdfbec71fefd44992c28f522dc3784d076942d",
    },
}

# fuzzy mode at seed 1 with `_flickering_scenario()`
FLICKER_PINS = {
    "trace.csv": "ba27a9d26a22088569a86d9b854411d2ead4d9fb6ce2d0cba832e67d6659da0c",
    "summary.txt": "8b906bc5a9c18ef8d9446effd04cb6fd1efe2eeb64cca4e712bf229ab9eb90dd",
}

# sweep_summary.csv of `ffsched sweep --seeds 2 --horizon 1`
SWEEP_PIN = "6a0b613b532687fed357409429c323365fddc2c7394399e204c1a5357d4ee906"


@pytest.mark.parametrize("mode", sorted(PINS))
def test_default_scenario_outputs_are_pinned(mode, tmp_path):
    result = run_experiment(replace(default_scenario(), mode=mode), seed=1)
    paths = emit_traces(str(tmp_path), result)
    digests = {}
    for path in paths:
        with open(path, "rb") as fh:
            digests[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == PINS[mode]


def _flickering_scenario():
    """The default tasks over 0.4 s, with tau1's and tau3's mean execution
    times alternating 0.6 and 1.2 ms every 1 ms, shorter than any period, so
    the mean changes between most consecutive jobs of those tasks."""

    segments = tuple((k / 1000, (k + 1) / 1000, 0.0006 if k % 2 == 0 else 0.0012) for k in range(400))
    base = default_scenario()
    tasks = tuple(
        replace(t, exec_segments=segments) if t.name in ("tau1", "tau3") else t for t in base.tasks
    )
    cfg = replace(base, horizon_s=0.4, exec_std=0.2, tasks=tasks)
    validate_scenario(cfg)
    return cfg


def test_changing_means_outputs_are_pinned(tmp_path):
    result = run_experiment(_flickering_scenario(), seed=1)
    digests = {}
    for path in emit_traces(str(tmp_path), result):
        with open(path, "rb") as fh:
            digests[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == FLICKER_PINS


def test_sweep_output_is_pinned(tmp_path, capsys):
    assert main(["sweep", "--seeds", "2", "--horizon", "1", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "sweep_summary.csv", "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == SWEEP_PIN
