"""Output pins: the default scenario's files must not change by a single byte.

The sha256 of `trace.csv` and `summary.txt` for every scheduling mode at
seed 1 on the default 4 s scenario and for a scenario whose mean execution
times change between consecutive jobs, of a short noise sweep's
`sweep_summary.csv`, and of the `table` command's output, and of the two
inputs from outside the package that all of them rest on. A refactor or
speed-up of the simulation must leave them as they are; a change that is
meant to alter the numbers re-takes these pins and says why.
"""

import hashlib
import math
import os
from itertools import islice

import numpy as np
import pytest

import ffsched.experiment as experiment
from ffsched.cli import main
from ffsched.experiment import emit_traces, run_experiment
from ffsched.rtsim import normal_blocks, seconds_to_ns
from ffsched.scenario import default_scenario, validate_scenario
from invariants import JobStreamKernel
from reference_dispatch import dispatch

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

# stdout of `ffsched table` with each option: the golden table, the compiled
# one, and their per-cell difference report
TABLE_PINS = {
    "": "e8b9386f797282ca3b7f37ad52ea1486f63d91eeef743091462a86ed807d15fa",
    "--compile": "2cda78557681bf34e31644507b3a024897724550d4f9d6f710033fdf0ca81c22",
    "--diff": "e580e47742fbd39f993484c6da33ed87d9708f288edceffab6dcd086afe8c499",
}


@pytest.mark.parametrize("mode", sorted(PINS))
def test_default_scenario_outputs_are_pinned(mode, tmp_path):
    result = run_experiment(default_scenario().replace(mode=mode), seed=1)
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
        t.replace(exec_segments=segments) if t.name in ("tau1", "tau3") else t for t in base.tasks
    )
    cfg = base.replace(horizon_s=0.4, exec_std=0.2, tasks=tasks)
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


@pytest.mark.parametrize("option", sorted(TABLE_PINS))
def test_table_output_is_pinned(option, capsys):
    assert main(["table", *option.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == TABLE_PINS[option]


# every `sample_execution_time` call of the default fuzzy run at seed 1 and
# of `_flickering_scenario()`, as `(mean_ns, len(normals))`: the call count
# and the sha256 of the sequence's repr. The calls are the noise layer's
# numpy work, and the benchmark's tracer counts them as `rtsim.noise_draws`
CONVERSION_PINS = {
    "default": (25, "b1a7aab8ac1564f52f2e367be67366e1269a28504a301e74ddedd5526003b784"),
    "flickering": (275, "34f73c216ae310cb5219eece06a3d27e3609edab694eda652b2def15e81974ed"),
}


@pytest.mark.parametrize("scenario", sorted(CONVERSION_PINS))
def test_execution_time_conversions_are_pinned(monkeypatch, scenario):
    calls = []
    sample = experiment.sample_execution_time

    def recording(mean_ns, normals, rel_std):
        calls.append((mean_ns, len(normals)))
        return sample(mean_ns, normals, rel_std)

    monkeypatch.setattr(experiment, "sample_execution_time", recording)
    run_experiment(default_scenario() if scenario == "default" else _flickering_scenario(), seed=1)
    assert (len(calls), hashlib.sha256(repr(calls).encode()).hexdigest()) == CONVERSION_PINS[scenario]


# sha256 of every JobRecord the kernel produces in the default fuzzy run at
# seed 1, and of the segments the reference dispatcher makes of its job
# stream: no output file shows start instants, job indices or preemption
# splits, so this pins them directly
JOB_STREAM_PINS = {
    "jobs": "1d60cb32b6747887d49e6908eac7124c363bb46a7e00963d055258bd0787d435",
    "segments": "3acd024ac7a17b22fe83f8b64ad06582b7f7c3903c2a7927d6e1b87439e8cf5d",
}


def test_default_scenario_job_stream_is_pinned(monkeypatch):
    kernels = []

    class RecordingKernel(JobStreamKernel):
        def __init__(self, tasks, **kwargs):
            self.specs = list(tasks)
            self.jobs = []
            super().__init__(self.specs, on_job_finish=self.jobs.append, **kwargs)
            kernels.append(self)

    monkeypatch.setattr(experiment, "Kernel", RecordingKernel)
    cfg = default_scenario()
    run_experiment(cfg, seed=1)
    (kernel,) = kernels
    priorities = {spec.name: spec.priority for spec in kernel.specs}
    segments, completions, preemptions = dispatch(kernel.job_stream(), priorities, seconds_to_ns(cfg.horizon_s))
    assert [(r.task, r.index, r.release_ns, r.exec_ns, r.start_ns, r.finish_ns) for r in kernel.jobs] == completions
    assert preemptions == {name: kernel.stats(name).preemptions for name in priorities}
    assert len(kernel.jobs) > 3000 and len(segments) > len(kernel.jobs)
    assert any(r.missed for r in kernel.jobs) and any(r.start_ns > r.release_ns for r in kernel.jobs)
    digests = {
        "jobs": hashlib.sha256(repr([tuple(r) for r in kernel.jobs]).encode()).hexdigest(),
        "segments": hashlib.sha256(repr([tuple(s) for s in segments]).encode()).hexdigest(),
    }
    assert digests == JOB_STREAM_PINS


# Every output above rests on two inputs from outside the package: numpy's
# standard-normal stream and the platform's libm. These pin them by name, so
# a numpy or libm that moves fails here first, not in a dozen output pins.
# sha256 of the first four blocks of `normal_blocks(seed, stream)`, as
# little-endian float64
NORMAL_BLOCK_PINS = {
    (1, 0): "08cc9137285d85e1dd709d1b4df097b2a9df3cc722961ccba60bc21a43f325d1",
    (1, 3): "d66108ba83a913ed3962f96a55c2c53f0a7a338cca8681add14a2bf968a837c2",
    (97, 1): "91645ff5af75d75f5c1de3f260145dbf79734722ff04bf1bd6f0c7b84b98a1ed",
}

# sha256 of the reprs of `expm1`, `sin` and `cos`, the functions of the
# plant's discretization and the reference path, on k / 2**e for |k| <= 512:
# arguments up to 128 in magnitude, and down to tiny ones
LIBM_ARGS = [math.ldexp(k, -e) for e in (2, 8, 20, 40) for k in range(-512, 513)]
LIBM_PIN = "916f5ff223d5f6abe526ebf0a312d7f9dac544d0e2df6163225add877ffced46"


@pytest.mark.parametrize("seed_stream", sorted(NORMAL_BLOCK_PINS))
def test_numpy_normal_stream_is_pinned(seed_stream):
    blocks = islice(normal_blocks(*seed_stream), 4)
    data = b"".join(np.asarray(block, dtype="<f8").tobytes() for block in blocks)
    assert hashlib.sha256(data).hexdigest() == NORMAL_BLOCK_PINS[seed_stream]


def test_libm_is_pinned():
    text = "\n".join(f"{x!r} {math.expm1(x)!r} {math.sin(x)!r} {math.cos(x)!r}" for x in LIBM_ARGS)
    assert hashlib.sha256(text.encode()).hexdigest() == LIBM_PIN
