"""`run_experiment` held to `decision_model.run_model` on generated scenarios,
and the checks that keep the model independent of the run."""

import ast
import os

import decision_model
import ffsched.experiment as experiment
from corpus import cases
from decision_model import run_model
from ffsched.errors import InfeasibleLoadError
from ffsched.experiment import run_experiment, trace_lines
from ffsched.rtsim import NOISE_BLOCK
from ffsched.scenario import parse_scenario
from invariants import JobStreamKernel

CORPUS_CASES = 200


def _outcome(run, cfg, seed):
    """`run(cfg, seed)`, or the message of the InfeasibleLoadError it raised."""
    try:
        return run(cfg, seed), None
    except InfeasibleLoadError as exc:
        return None, str(exc)


def assert_matches_model(monkeypatch, cfg, seed, text=None):
    """Holds `run_experiment(cfg, seed)` to `run_model`: equal records,
    trace.csv text and summary, and each task's job list equal to the run's
    job stream; or, where `ideal_eta` refuses the load, the same message.
    A failure names the seed and the scenario `text`, and shows the first
    differing record. Returns the run's result (None when refused) and its
    kernel, a `JobStreamKernel` that keeps its window snapshots in `windows`."""

    kernels = []

    class WindowKernel(JobStreamKernel):
        def __init__(self, tasks, **kwargs):
            super().__init__(tasks, **kwargs)
            self.windows = []
            kernels.append(self)

        def window_snapshot(self, window_end_ns):
            self.windows.append(super().window_snapshot(window_end_ns))
            return self.windows[-1]

    monkeypatch.setattr(experiment, "Kernel", WindowKernel)
    where = f"seed {seed}" + (f", scenario:\n{text}" if text else "")
    (run, refused), (modelled, model_refused) = _outcome(run_experiment, cfg, seed), _outcome(run_model, cfg, seed)
    assert refused == model_refused, where
    (kernel,) = kernels
    if refused:
        return None, kernel
    model, jobs = modelled
    first = next((i for i, (a, b) in enumerate(zip(run.records, model.records)) if a != b), None)
    assert first is None, f"record {first} differs, {where}\nrun:   {run.records[first]}\nmodel: {model.records[first]}"
    assert run.records == model.records, where
    assert "".join(trace_lines(run)) == "".join(trace_lines(model)), where  # also tells -0.0 from 0.0
    assert run.summary == model.summary, where
    assert kernel.job_stream() == jobs, where
    return run, kernel


def test_generated_scenarios_match_the_model(monkeypatch):
    modes, refused, long_horizons = set(), 0, 0
    for text, seed in cases(CORPUS_CASES):
        cfg = parse_scenario(text)
        result, _ = assert_matches_model(monkeypatch, cfg, seed, text)
        modes.add(cfg.mode)
        refused += result is None
        long_horizons += cfg.horizon_s > 1.0
    # the corpus reaches every mode, a refused ideal load and the last-second mean past 1 s
    assert modes == {"fuzzy", "ideal", "open"}
    assert 0 < refused < CORPUS_CASES // 10
    assert long_horizons >= CORPUS_CASES // 20


def test_corpus_is_fixed_and_each_case_differs():
    # `same_outputs.py --cases N` and this suite take prefixes of one sequence
    first = cases(50)
    assert cases(50) == first and cases(60)[:50] == first
    assert len({text for text, _ in first}) == 50


def test_model_shares_no_machinery_with_the_run():
    with open(os.path.join(os.path.dirname(__file__), "decision_model.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name for alias in node.names} | {alias.asname for alias in node.names}
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    shared = {"Kernel", "ExecDraws", "normal_blocks", "WindowData", "window_snapshot", "run_experiment"}
    assert not names & shared
    # the noise comes from Generators of the model's own, at another block
    # size than the run's, so no output may depend on the block size
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert "np.random.default_rng" in {ast.unparse(call.func) for call in calls}
    draws = [ast.unparse(call) for call in calls if ast.unparse(call.func).endswith("standard_normal")]
    assert draws == ["rng.standard_normal(BLOCK)"]
    assert decision_model.BLOCK != NOISE_BLOCK

