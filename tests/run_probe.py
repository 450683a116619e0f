"""The one way a test watches the kernel a run builds: `watch` puts a `Probe`
in place of `ffsched.experiment.Kernel`, the seam `benchmark/tracing.py`
uses too. A probe adds no hook of its own, so the run's kernel works as it
does untested; a test that needs a hook asks `watch` for it."""

import ffsched.experiment as experiment
from decision_model import run_model
from ffsched.errors import InfeasibleLoadError
from ffsched.experiment import run_experiment, trace_lines
from ffsched.rtsim import ExecSchedule, Kernel


def _chained(extra, own):
    """`extra`, then `own`, whose return value, a start hook's opt-out too, is passed on."""

    def hook(*args):
        extra(*args)
        return own(*args)

    return extra if own is None else hook


class Probe(Kernel):
    """A `Kernel` that keeps its `specs`, its window snapshots (`windows`)
    and, in `given`, the keywords its caller passed that were not `None`.
    Each of `extra_hooks` is chained before the caller's hook of its keyword."""

    def __init__(self, tasks, extra_hooks=None, **kwargs):
        self.specs, self.windows = list(tasks), []
        self.given = {key for key, value in kwargs.items() if value is not None}
        for key, extra in (extra_hooks or {}).items():
            kwargs[key] = _chained(extra, kwargs.get(key))
        super().__init__(self.specs, **kwargs)

    def window_snapshot(self, window_end_ns):
        self.windows.append(super().window_snapshot(window_end_ns))
        return self.windows[-1]

    def job_stream(self) -> dict[str, list[tuple[int, int]]]:
        """Takes a final snapshot and returns each task's `(release_ns,
        exec_ns)` pairs in release order, the input of `reference_dispatch.dispatch`."""
        last = self.window_snapshot(ExecSchedule.FOREVER)
        return {n: [job for w in self.windows for job in zip(w.releases[n], w.samples[n])] for n in last.releases}


def watch(monkeypatch, **extra_hooks) -> list[Probe]:
    """Has every run build a `Probe` with `extra_hooks`, and returns the list
    that each probe joins."""
    probes = []

    def probe(tasks, **kwargs):
        probes.append(Probe(tasks, extra_hooks, **kwargs))
        return probes[-1]

    monkeypatch.setattr(experiment, "Kernel", probe)
    return probes


def _outcome(run, cfg, seed):
    """`run(cfg, seed)`, or the message of the InfeasibleLoadError it raised."""
    try:
        return run(cfg, seed), None
    except InfeasibleLoadError as exc:
        return None, str(exc)


def assert_matches_model(monkeypatch, cfg, seed, text=None):
    """Holds `run_experiment(cfg, seed)` to `decision_model.run_model`: equal
    records, trace.csv text and summary, and each task's job list equal to
    the run's job stream; or, where `ideal_eta` refuses the load, the same
    message. The kernel runs with exactly the run's own keywords. A failure
    names the seed and the scenario `text`, and shows the first differing
    record. Returns the run's result (None when refused) and its `Probe`."""

    probes = watch(monkeypatch)
    where = f"seed {seed}" + (f", scenario:\n{text}" if text else "")
    (run, refused), (modelled, model_refused) = _outcome(run_experiment, cfg, seed), _outcome(run_model, cfg, seed)
    assert refused == model_refused, where
    (kernel,) = probes
    assert kernel.given == {"exec_time_of", "on_job_start"}, where
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
