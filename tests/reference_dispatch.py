"""A one-event-at-a-time reference for the kernel's dispatching.

Written from the `ffsched.rtsim.Kernel` docstring, not from `Kernel.run`,
and importing nothing from `ffsched`, so the tests can hold the kernel to
an independent model: one CPU, static priorities (a lower number preempts
a higher one), each task's jobs queued FIFO. `dispatch` takes the job
stream (every job's release instant and execution time) as given, so it
models dispatching alone: release instants, deadlines and execution times
are the caller's.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping, NamedTuple, Sequence


class Segment(NamedTuple):
    """A maximal stretch of CPU given to one job."""

    task: str
    index: int
    start_ns: int
    end_ns: int


class Completion(NamedTuple):
    """One completed job."""

    task: str
    index: int
    release_ns: int
    exec_ns: int
    start_ns: int
    finish_ns: int


def dispatch(
    jobs: Mapping[str, Sequence[tuple[int, int]]],
    priorities: Mapping[str, int],
    horizon_ns: int,
) -> tuple[list[Segment], list[Completion], dict[str, int]]:
    """Dispatch `jobs`, each task's `(release_ns, exec_ns)` list in release
    order, on one CPU from 0 until `horizon_ns`.

    At each instant every release due is queued before anything is
    dispatched; the head of the highest-priority non-empty queue runs until
    it completes or the next release instant, whichever comes first.
    Releases on the horizon are queued but get no CPU. A preemption counts
    against a task whose started, unfinished job loses the CPU to another
    task. Returns the segments in time order, the completed jobs in
    completion order and the preemptions per task.
    """

    order = sorted(jobs, key=lambda task: priorities[task])
    released = dict.fromkeys(jobs, 0)  # per task, the jobs queued so far
    queues: dict[str, deque[int]] = {task: deque() for task in jobs}  # job indices, oldest first
    remaining: dict[tuple[str, int], int] = {}  # the started, unfinished jobs' remaining time
    starts: dict[tuple[str, int], int] = {}
    holder = None  # the task whose started, unfinished job last had the CPU
    segments: list[Segment] = []
    completions: list[Completion] = []
    preemptions = dict.fromkeys(jobs, 0)
    now = 0
    while True:
        for task in order:
            while released[task] < len(jobs[task]) and jobs[task][released[task]][0] <= now:
                queues[task].append(released[task])
                released[task] += 1
        if now >= horizon_ns:
            break
        pending = [jobs[task][released[task]][0] for task in order if released[task] < len(jobs[task])]
        next_event = min(pending + [horizon_ns])
        ready = [task for task in order if queues[task]]
        if not ready:
            now = next_event
            continue
        task = ready[0]
        if holder is not None and holder != task:
            preemptions[holder] += 1
        holder = task
        job = (task, queues[task][0])
        release_ns, exec_ns = jobs[task][job[1]]
        starts.setdefault(job, now)
        left = remaining.get(job, exec_ns)
        end = min(now + left, next_event)
        if segments and segments[-1][:2] == job and segments[-1].end_ns == now:
            segments[-1] = segments[-1]._replace(end_ns=end)
        else:
            segments.append(Segment(*job, now, end))
        remaining[job] = left - (end - now)
        now = end
        if remaining[job] == 0:
            queues[task].popleft()
            completions.append(Completion(*job, release_ns, exec_ns, starts[job], now))
            holder = None
    return segments, completions, preemptions
