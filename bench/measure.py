"""Timing core: ops run one at a time in one thread, each under a time budget.

An op is one call into the library with a check on its result. A run makes
passes over its workload's ops until its time is up; the first pass always
runs in full, because it is the one whose outputs are digested. A pass runs
each op once, so an op's samples are spread over the whole run rather than
bunched in a few stretches of it. An op that takes less than BATCH_SECONDS
is timed in batches of calls that together take about that long, and a
sample is the batch's time per call. Every call is checked. A workload's
time per pass is the sum over its ops of each op's typical time: its
fastest sample in the run.

The fastest sample, because the machine this was tuned on, a shared
two-core Xeon, runs in stretches of a second or so that are either fast or
about 1.6 times slower: the fastest repeat of a fixed 0.7 ms loop in each of
forty 0.5 s windows was 0.67-0.71 ms in some windows and 1.0-1.1 ms in the
others, and in some runs the slow stretches last most of a minute. An op
cannot run faster than the fast level, so its fastest sample out of many
windows lands there as soon as one window is fast; a median or a percentile
needs many fast windows, and a run in a busy minute has few.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from corpus import digest


# An op faster than this is timed in batches of calls that take about this long.
BATCH_SECONDS = 0.002
MAX_BATCH = 1000


class OpTimeout(BaseException):
    """Raised by the SIGALRM handler when an op runs past its budget.

    It derives from BaseException so that no `except Exception` in the code
    under test can swallow it.
    """


class CheckFailed(Exception):
    """An op returned a result that disagrees with the committed answer."""


@contextmanager
def op_alarm():
    """Install the handler that turns an expired per-op timer into OpTimeout."""

    def on_alarm(signum, frame):
        raise OpTimeout

    previous = signal.signal(signal.SIGALRM, on_alarm)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Op:
    """One library call of a workload.

    group is "forward", "backward" or "reject". A reject op must raise one of
    `rejects`; any other op must return a result that passes `check`. `needs`
    names an earlier op of the same pass whose result is this op's input.
    """

    key: str
    group: str
    call: Callable[[object], object]
    budget: float
    check: Callable[[object], None] = lambda result: None
    rejects: tuple[type, ...] = ()
    needs: str | None = None
    encode: Callable[[object], object] | None = None
    kind: str = ""


@dataclass
class OpStats:
    samples: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    incorrect: int = 0
    timed_out: bool = False
    batch: int = 0
    digest: str | None = None
    errors: list[str] = field(default_factory=list)

    def typical(self, traced: bool = False) -> float | None:
        values = self.traced if traced else self.samples
        return min(values) if values else None


def timed_calls(call, arg, count: int, budget: float):
    """(seconds per call, outcomes) of count calls in a row under one budget.

    Each outcome is (result, None) or (None, error). A batch that runs out of
    its budget ends with an OpTimeout and counts exactly its budget.
    """
    outcomes = []
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            start = perf_counter()
            for _ in range(count):
                try:
                    outcomes.append((call(arg), None))
                except Exception as exc:  # judged by the caller; the run goes on
                    # without its traceback, so a batch holds no frames
                    outcomes.append((None, exc.with_traceback(None)))
            elapsed = (perf_counter() - start) / count
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout as exc:
        return budget, outcomes + [(None, exc)]
    return elapsed, outcomes


class Runner:
    """Makes passes over ops and keeps per-op statistics.

    With a tracer, even passes run traced and odd passes untraced, so one run
    gives both the per-layer figures and the tracing overhead. A traced pass
    calls each op once, never in a batch.
    """

    def __init__(self, ops: list[Op], tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.stats = {op.key: OpStats() for op in ops}
        self.passes = 0
        self.executions: list[str] = []

    def run(self, seconds: float, between_passes: Callable[[float], None] | None = None) -> None:
        """Make passes until `seconds` are up.

        between_passes, if given, is called after each pass with the share
        of the run's time gone so far.
        """
        start = perf_counter()
        deadline = start + seconds
        with op_alarm():
            while True:
                traced = self.tracer is not None and self.passes % 2 == 0
                if traced:
                    self.tracer.install()
                try:
                    self._one_pass(deadline)
                finally:
                    if traced:
                        self.tracer.remove()
                self.passes += 1
                if between_passes is not None:
                    between_passes(min(1.0, (perf_counter() - start) / seconds) if seconds else 1.0)
                if perf_counter() >= deadline:
                    return

    def _one_pass(self, deadline: float) -> None:
        results: dict[str, object] = {}
        for op in self.ops:
            if self.stats[op.key].timed_out:
                continue
            if self.passes and perf_counter() >= deadline:
                return
            self._execute(op, results)

    def _execute(self, op: Op, results: dict) -> None:
        """Run the op once or in a batch, record its time and outcomes."""
        stats = self.stats[op.key]
        if op.needs is not None and op.needs not in results:
            stats.attempted += 1
            self._fail(stats, f"no input: {op.needs} failed in this pass", incorrect=True)
            return
        traced = self.tracer is not None and self.tracer.active
        if traced:
            self.tracer.begin_op(len(self.executions))
        self.executions.append(op.key)
        count = 1 if traced else max(stats.batch, 1)
        elapsed, outcomes = timed_calls(op.call, results.get(op.needs), count, op.budget)
        if not stats.batch:
            stats.batch = max(1, min(MAX_BATCH, int(BATCH_SECONDS / max(elapsed, 1e-9))))
        (stats.traced if traced else stats.samples).append(elapsed)
        stats.attempted += len(outcomes)
        for result, error in outcomes:
            self._judge(op, stats, result, error)
        result, error = outcomes[-1]
        if error is None:
            results[op.key] = result

    def _judge(self, op: Op, stats: OpStats, result, error) -> None:
        if isinstance(error, OpTimeout):
            stats.timed_out = True
            self._fail(stats, f"timeout after {op.budget} s")
        elif error is not None:
            if op.rejects and isinstance(error, op.rejects):
                return
            self._fail(stats, f"{type(error).__name__}: {error}", incorrect=not op.rejects)
        elif op.rejects:
            self._fail(stats, "accepted although it must be rejected")
        else:
            try:
                op.check(result)
            except CheckFailed as exc:
                self._fail(stats, f"wrong result: {exc}", incorrect=True)
                return
            if stats.digest is None and op.encode is not None:
                stats.digest = digest(op.encode(result))

    @staticmethod
    def _fail(stats: OpStats, message: str, incorrect: bool = False) -> None:
        stats.failed += 1
        stats.incorrect += incorrect
        if len(stats.errors) < 3:
            stats.errors.append(message)

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------

    def group_seconds(self, group: str, traced: bool = False) -> float:
        """Sum over the group's ops of each op's typical time."""
        total = 0.0
        for op in self.ops:
            if op.group == group:
                value = self.stats[op.key].typical(traced)
                total += value or 0.0
        return total

    def totals(self) -> tuple[int, int, int]:
        """(ops attempted, ops that failed, ops that gave a wrong result).

        Counted per op, not per call: how often an op runs depends on the
        library's speed and the machine's, so per call the counts would
        differ between two runs of the same code.
        """
        attempted = sum(1 for s in self.stats.values() if s.attempted)
        failed = sum(1 for s in self.stats.values() if s.failed)
        incorrect = sum(1 for s in self.stats.values() if s.incorrect)
        return attempted, failed, incorrect

    def calls(self) -> int:
        return sum(s.attempted for s in self.stats.values())

    def failures(self) -> dict[str, list[str]]:
        return {key: s.errors for key, s in self.stats.items() if s.errors}
