"""Closed- and open-loop load generators over a fixed number of client threads.

Each thread asks its workload for the next :class:`Call` (what it is,
how many operations it carries, and the function that performs and
checks it), runs it, and records the latency.  A call that raises
:class:`Mismatch` returned a wrong answer: that fails the run's
correctness gate and is never counted as a metric.  Any other exception
is an unexpected failure and counts its operations as failed.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable


# p99 needs at least ten samples beyond it.
MIN_CALLS_FOR_P99 = 1000
# An open loop holds its offered rate only while calls go out on time:
# a run where more than LATE_SHARE_LIMIT of the calls were sent over
# LATE_LIMIT_MS after they fell due is marked as not having kept up.
LATE_LIMIT_MS = 10.0
LATE_SHARE_LIMIT = 0.05


class Mismatch(Exception):
    """The program's answer disagrees with the model of what it must be."""


@dataclass
class Call:
    kind: str
    items: int
    run: Callable[[], None]


@dataclass
class Window:
    """What one timed window did, as seen from the client."""

    start: float = 0.0
    end: float = 0.0
    calls: int = 0
    items: int = 0
    failed_items: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    by_kind_ms: dict[str, list[float]] = field(default_factory=dict)
    late_ms: list[float] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    server_cpu_s: float = 0.0
    client_cpu_s: float = 0.0
    open_loop: bool = False

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def ops_per_s(self) -> float:
        return self.items / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def cpu_ms_per_op(self) -> float:
        """Server plus client CPU time per operation."""
        return (self.server_cpu_s + self.client_cpu_s) * 1000.0 / max(self.items, 1)

    @property
    def late_share(self) -> float:
        """Share of open-loop calls sent more than LATE_LIMIT_MS after they fell due."""
        late = sum(1 for value in self.late_ms if value > LATE_LIMIT_MS)
        return late / len(self.late_ms) if self.late_ms else 0.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def sliced_p99(values: list[float]) -> float:
    """Median over consecutive slices of :data:`MIN_CALLS_FOR_P99` calls of each slice's p99.

    Each slice keeps ten samples beyond its p99; taking the median over
    slices keeps one burst of host noise from setting the whole run's
    tail.  A remainder shorter than a slice joins the last slice.
    """
    n_slices = max(1, len(values) // MIN_CALLS_FOR_P99)
    bounds = [i * MIN_CALLS_FOR_P99 for i in range(n_slices)] + [len(values)]
    return statistics.median(
        percentile(values[bounds[i]:bounds[i + 1]], 0.99) for i in range(n_slices)
    )


class _Collector:
    def __init__(self, window: Window, recorder):
        self.window = window
        self.recorder = recorder
        self.lock = threading.Lock()

    def execute(self, call: Call, due: float | None = None) -> None:
        recorder = self.recorder
        span = recorder.open("client.call") if recorder is not None and recorder.enabled else None
        start = time.monotonic()
        mismatch = error = None
        try:
            call.run()
        except Mismatch as exc:
            mismatch = "%s: %s" % (call.kind, exc)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            error = "%s: %s: %s" % (call.kind, type(exc).__name__, exc)
        end = time.monotonic()
        if span is not None:
            recorder.close(span)
        latency_ms = (end - (due if due is not None else start)) * 1000.0
        with self.lock:
            window = self.window
            window.calls += 1
            window.items += call.items
            window.end = max(window.end, end)
            window.latencies_ms.append(latency_ms)
            window.by_kind_ms.setdefault(call.kind, []).append(latency_ms)
            if due is not None:
                window.late_ms.append(max(0.0, start - due) * 1000.0)
            if mismatch is not None:
                window.mismatches.append(mismatch)
            if error is not None:
                window.failed_items += call.items
                window.errors.append(error)


def _run_threads(n_threads: int, body, server, window: Window) -> Window:
    """Start ``body(index, t0)`` on each thread from one common start time."""
    barrier = threading.Barrier(n_threads + 1)
    threads = []
    failures: list[BaseException] = []

    def target(index: int) -> None:
        barrier.wait()
        try:
            body(index, window.start)
        except BaseException as exc:  # noqa: BLE001 - re-raised after join
            failures.append(exc)

    for index in range(n_threads):
        thread = threading.Thread(target=target, args=(index,), name="load-%d" % index)
        thread.start()
        threads.append(thread)
    cpu0 = server.cpu_s()
    client_cpu0 = time.process_time()
    window.start = window.end = time.monotonic()
    barrier.wait()
    for thread in threads:
        thread.join()
    window.server_cpu_s = server.cpu_s() - cpu0
    window.client_cpu_s = time.process_time() - client_cpu0
    if failures:
        raise failures[0]
    return window


def closed_loop(n_threads: int, seconds: float, next_call, server, recorder=None) -> Window:
    """Each thread sends its next call as soon as the previous one returns."""
    window = Window()
    collector = _Collector(window, recorder)

    def body(index: int, t0: float) -> None:
        stop_at = t0 + seconds
        while time.monotonic() < stop_at:
            collector.execute(next_call(index))

    return _run_threads(n_threads, body, server, window)


def open_loop(
    n_threads: int, seconds: float, rate_per_thread: float, next_call, server, recorder=None
) -> Window:
    """Each thread's calls fall due at a fixed rate, whether or not it keeps up.

    A call is timed from when it fell due, so a stall is charged to every
    call it delays; how late each call was actually sent is recorded too.
    """
    window = Window(open_loop=True)
    collector = _Collector(window, recorder)
    interval = 1.0 / rate_per_thread

    def body(index: int, t0: float) -> None:
        # Stagger the threads so their schedules interleave.
        first = t0 + interval * index / n_threads
        sequence = 0
        while True:
            due = first + sequence * interval
            if due >= t0 + seconds:
                break
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            collector.execute(next_call(index), due=due)
            sequence += 1

    return _run_threads(n_threads, body, server, window)
