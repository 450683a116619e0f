"""Per-layer timing of ffsched, installed from outside the package.

`install` replaces names in the `ffsched.experiment` and `ffsched.cli`
namespaces with timed wrappers, and swaps in subclasses of `Kernel` and
`FuzzyFeedbackScheduler`; no file under src/ is changed. Because
`run_experiment` and the CLI handlers look these names up at call time, every
call they make into a layer passes through one span.

Spans are kept in memory as aggregates only: per span name, the call count and
the self time (the span's duration minus the time covered by its child spans).
A sentinel root frame collects the time of top-level spans, so the self times
of all spans add up to the time spent inside any span.

Span names are `<module>.<function>`; `experiment.hooks` is the glue of the
four `Kernel` callbacks (job release, start and finish, and the execution-time
draw), whose calls into other layers are child spans.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from statistics import median

MODULES = ("rtsim", "control", "schedulers", "fuzzy", "experiment", "scenario", "cli")

# (span name, called on every workload). Only spans called on every workload
# report their own self time; the others report calls, and their time shows in
# their module's self time. A span with no calls would report a constant zero.
SPANS = (
    ("rtsim.Kernel.run", True),
    ("rtsim.Kernel.window_snapshot", True),
    ("rtsim.sample_execution_time", True),
    ("rtsim.measure_utilization", True),
    ("control.plant_step", True),
    ("control.pid_compute", True),
    ("control.reference_at", True),
    ("control.tracking_error", True),
    ("schedulers.FuzzyFeedbackScheduler.step", False),
    ("schedulers.apply_periods", True),
    ("schedulers.ideal_eta", False),
    ("fuzzy.load_golden_table", True),
    ("experiment.hooks", True),
    ("experiment.run_experiment", True),
    ("experiment.emit_traces", False),
    ("scenario.load_scenario", False),
    ("scenario.default_scenario", False),
    ("scenario.validate_scenario", False),
    ("cli.run", False),
    ("cli.sweep", False),
)

# Simulation counts gathered while tracing (not times).
COUNTS = ("rtsim.jobs_released", "rtsim.jobs_completed", "rtsim.preemptions", "rtsim.noise_draws")


@dataclass
class Tracer:
    self_ns: defaultdict = field(default_factory=lambda: defaultdict(int))
    calls: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    run_experiment_ns: list = field(default_factory=list)
    control_response_ns: list = field(default_factory=list)
    _stack: list = field(default_factory=lambda: [[0]])

    def wrap(self, name, fn, durations=None):
        """Return `fn` timed as span `name`; each call's duration is appended
        to `durations` when given."""

        clock = time.perf_counter_ns
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls

        def traced(*args, **kwargs):
            frame = [0]  # time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                stack[-1][0] += took
                self_ns[name] += took - frame[0]
                calls[name] += 1
                if durations is not None:
                    durations.append(took)

        traced.__wrapped__ = fn
        return traced

    def report(self) -> dict:
        """The aggregates of everything traced so far, as plain JSON data."""

        responses = sorted(self.control_response_ns)
        return {
            "self_ns": {name: self.self_ns.get(name, 0) for name, _ in SPANS},
            "calls": {name: self.calls.get(name, 0) for name, _ in SPANS},
            "counts": {name: self.counts.get(name, 0) for name in COUNTS},
            "run_experiment_ns": self.run_experiment_ns,
            "response_ns_p50": _quantile(responses, 0.50),
            "response_ns_p99": _quantile(responses, 0.99),
        }


def _quantile(sorted_values: list, q: float) -> int:
    """Nearest-rank quantile of integer samples (0 when there are none)."""

    if not sorted_values:
        return 0
    rank = max(1, -(-len(sorted_values) * q // 1))  # ceil(n * q), at least 1
    return sorted_values[int(rank) - 1]


def install(tracer: Tracer) -> None:
    """Route ffsched's calls into each layer through `tracer`."""

    import ffsched.cli as cli
    import ffsched.experiment as experiment
    from ffsched.fuzzy import LookupTable, load_golden_table
    from ffsched.rtsim import TaskKind

    wrap = tracer.wrap
    counts = tracer.counts
    responses = tracer.control_response_ns
    base_kernel = experiment.Kernel
    base_fuzzy = experiment.FuzzyFeedbackScheduler
    sample_execution_time = experiment.sample_execution_time
    measure_utilization = experiment.measure_utilization

    class TracedKernel(base_kernel):
        run_span = wrap("rtsim.Kernel.run", base_kernel.run)
        window_snapshot = wrap("rtsim.Kernel.window_snapshot", base_kernel.window_snapshot)

        def __init__(self, tasks, *, exec_time_of=None, on_job_release=None, on_job_start=None,
                     on_job_finish=None, **kwargs):
            specs = list(tasks)
            self._bench_names = [s.name for s in specs]
            control = {s.name for s in specs if s.kind is TaskKind.CONTROL}
            finish = on_job_finish and wrap("experiment.hooks", on_job_finish)

            def on_finish(rec):
                if finish is not None:
                    finish(rec)
                if rec.task in control:
                    responses.append(rec.finish_ns - rec.release_ns)

            super().__init__(
                specs,
                exec_time_of=exec_time_of and wrap("experiment.hooks", exec_time_of),
                on_job_release=on_job_release and wrap("experiment.hooks", on_job_release),
                on_job_start=on_job_start and wrap("experiment.hooks", on_job_start),
                on_job_finish=on_finish,
                **kwargs,
            )

        def run(self, until_ns):
            self.run_span(until_ns)
            for name in self._bench_names:
                stats = self.stats(name)
                counts["rtsim.jobs_released"] += stats.released
                counts["rtsim.jobs_completed"] += stats.completed
                counts["rtsim.preemptions"] += stats.preemptions

    @dataclass
    class TracedFuzzy(base_fuzzy):
        table: LookupTable = field(default_factory=wrap("fuzzy.load_golden_table", load_golden_table))
        step = wrap("schedulers.FuzzyFeedbackScheduler.step", base_fuzzy.step)

    def sample(mean_ns, rng, rel_std, *rest):
        if rel_std != 0:
            counts["rtsim.noise_draws"] += 1
        return sample_execution_time(mean_ns, rng, rel_std, *rest)

    def measure(window, periods_ns, rng=None, noise_std=0.0):
        if noise_std > 0:
            counts["rtsim.noise_draws"] += 1
        return measure_utilization(window, periods_ns, rng, noise_std)

    experiment.Kernel = TracedKernel
    experiment.FuzzyFeedbackScheduler = TracedFuzzy
    experiment.sample_execution_time = wrap("rtsim.sample_execution_time", sample)
    experiment.measure_utilization = wrap("rtsim.measure_utilization", measure)
    for module, name in (
        ("control", "plant_step"),
        ("control", "pid_compute"),
        ("control", "reference_at"),
        ("control", "tracking_error"),
        ("schedulers", "apply_periods"),
        ("schedulers", "ideal_eta"),
    ):
        setattr(experiment, name, wrap(f"{module}.{name}", getattr(experiment, name)))

    cli.run_experiment = wrap("experiment.run_experiment", cli.run_experiment, tracer.run_experiment_ns)
    cli.emit_traces = wrap("experiment.emit_traces", cli.emit_traces)
    for name in ("load_scenario", "default_scenario", "validate_scenario"):
        setattr(cli, name, wrap(f"scenario.{name}", getattr(cli, name)))
    cli._cmd_run = wrap("cli.run", cli._cmd_run)
    cli._cmd_sweep = wrap("cli.sweep", cli._cmd_sweep)


def span_cost_ns(n: int = 100_000) -> float:
    """Calibrated cost of one empty span: a wrapped no-op minus a bare no-op."""

    def noop():
        return None

    traced = Tracer().wrap("calibration", noop)
    best = []
    for fn in (noop, traced):
        runs = []
        for _ in range(3):
            start = time.perf_counter_ns()
            for _ in range(n):
                fn()
            runs.append(time.perf_counter_ns() - start)
        best.append(median(runs))
    return (best[1] - best[0]) / n
