"""Metamorphic relations of the co-simulation on the default scenario.

Each relation compares two runs whose outputs the design ties together
without saying what either one is. They follow from the one-way coupling
described in `ffsched.experiment`: the schedule never reads the loops, the
noise streams are private to their consumer, and a run does not depend on
its horizon. A defect that breaks one of them can keep every pin.
"""

import math

import pytest

from ffsched.experiment import run_experiment
from ffsched.rtsim import TaskKind
from ffsched.scenario import TaskConfig, default_scenario

MODES = ("fuzzy", "ideal", "open")
SEEDS = (1, 2)


def _run(seed, horizon_s=1.0, **changes):
    return run_experiment(default_scenario().replace(horizon_s=horizon_s, **changes), seed)


def _schedule(result):
    """Each record's schedule columns (t, u_meas, u_raw, eta, periods), and
    every task's stats."""
    return [r[:5] for r in result.records], result.summary.task_stats


@pytest.mark.parametrize("mode", MODES)
def test_noise_free_run_ignores_the_seed(mode):
    runs = [_run(seed, mode=mode, exec_std=0.0, util_std=0.0) for seed in (1, 2, 7)]
    for other in runs[1:]:
        assert other.records == runs[0].records
        assert other.summary.task_stats == runs[0].summary.task_stats


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", ("open", "ideal"))
def test_open_and_ideal_ignore_util_std_outside_the_measurement(mode, seed):
    base = _run(seed, mode=mode, util_std=0.0)
    for util_std in (0.05, 0.3):
        noisy = _run(seed, mode=mode, util_std=util_std)
        # every column but u_meas and u_raw, and the task stats
        assert [(r[0], *r[3:]) for r in noisy.records] == [(r[0], *r[3:]) for r in base.records]
        assert noisy.summary.task_stats == base.summary.task_stats
        assert [r.u_raw for r in noisy.records] != [r.u_raw for r in base.records]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", MODES)
def test_doubling_kp_leaves_the_schedule(mode, seed):
    base = _run(seed, mode=mode)
    cfg_pid = default_scenario().pid
    stiffer = _run(seed, mode=mode, pid=cfg_pid.replace(kp=2 * cfg_pid.kp))
    assert _schedule(stiffer) == _schedule(base)
    assert [r.act for r in stiffer.records] != [r.act for r in base.records]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", MODES)
def test_shorter_run_is_a_prefix(mode, seed):
    short = _run(seed, mode=mode)
    long = _run(seed, mode=mode, horizon_s=2.0)
    assert len(long.records) > len(short.records) > 0
    assert long.records[: len(short.records)] == short.records


def test_open_mode_ignores_the_target():
    low, high = (_run(3, horizon_s=2.0, mode="open", target=target) for target in (0.6, 0.95))
    assert high.records == low.records
    assert high.summary == low.summary


@pytest.mark.parametrize("mode", MODES)
def test_order_preserving_priority_relabel_changes_nothing(mode):
    relabel = {2: 5, 3: 7, 4: 11}
    tasks = tuple(t.replace(priority=relabel[t.priority]) for t in default_scenario().tasks)
    base = _run(3, horizon_s=2.0, mode=mode)
    relabelled = _run(3, horizon_s=2.0, mode=mode, tasks=tasks)
    assert relabelled.records == base.records
    assert relabelled.summary == base.summary


@pytest.mark.parametrize("seed", (1, 3))
@pytest.mark.parametrize("horizon_s", (2.0, 4.0))
def test_appended_lowest_priority_task_in_open_mode(horizon_s, seed):
    # a load task below every other one preempts none of them, and open mode
    # ignores the utilization it adds
    tau9 = TaskConfig("tau9", TaskKind.LOAD, 9, 0.006, ((0.0, math.inf, 0.0005),))
    base = _run(seed, horizon_s=horizon_s, mode="open")
    loaded = _run(seed, horizon_s=horizon_s, mode="open", tasks=(*default_scenario().tasks, tau9))
    # every column but u_meas and u_raw, which count tau9's load (and take
    # the measurement noise from the stream after tau9's)
    assert [(r.t_s, *r[3:]) for r in loaded.records] == [(r.t_s, *r[3:]) for r in base.records]
    stats = dict(loaded.summary.task_stats)
    assert stats.pop("tau9").released > 0
    assert stats == base.summary.task_stats
    assert [r.u_raw for r in loaded.records] != [r.u_raw for r in base.records]
