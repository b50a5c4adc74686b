"""What a load phase records, and the steal meter its windows are
judged by."""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class PhaseResult:
    """What one load phase measured; times are in seconds."""

    attempted: int = 0
    failed: int = 0
    #: ``(start, end)`` of each stretch of time the phase ran; several
    #: when the phase was interleaved with another.
    slices: list[tuple[float, float]] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    #: Completion time (``time.monotonic``) of each latency sample.
    done: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed

    @property
    def elapsed(self) -> float:
        return sum(end - start for start, end in self.slices)

    def record(self, latency: float, done: float) -> None:
        self.latencies.append(latency)
        self.done.append(done)

    def merge(self, other: "PhaseResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.slices.extend(other.slices)
        self.latencies.extend(other.latencies)
        self.done.extend(other.done)
        self.errors.extend(other.errors[:5])

    def counts(self) -> dict[str, int]:
        return {
            "attempted": self.attempted,
            "succeeded": self.succeeded,
            "failed": self.failed,
        }


def timed_call(call: Callable[[Any], Any], item: Any, result: PhaseResult) -> None:
    """``call(item)`` once, its latency recorded in *result* on success;
    a failure is counted, not raised."""
    result.attempted += 1
    t0 = time.monotonic()
    try:
        call(item)
    except Exception as exc:  # noqa: BLE001 - every failure is counted, not fatal
        result.failed += 1
        if len(result.errors) < 5:
            result.errors.append(f"{type(exc).__name__}: {exc}")
        return
    finished = time.monotonic()
    result.record(finished - t0, finished)


class StealMeter:
    """Samples the CPU time the hypervisor gave to other tenants.

    Reads the ``steal`` column of ``/proc/stat`` every *interval*
    seconds in a background thread, so each measurement window can be
    told apart from windows in which the machine was taken away.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self._interval = interval
        self._tick = 1.0 / os.sysconf("SC_CLK_TCK")
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    @staticmethod
    def _ticks() -> int:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) if len(fields) > 8 else 0

    def _run(self) -> None:
        while True:
            self.samples.append((time.monotonic(), self._ticks() * self._tick))
            if self._stop.wait(self._interval):
                return

    def __enter__(self) -> "StealMeter":
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join()

    def stolen(self, start: float, end: float) -> float:
        """CPU-seconds stolen between *start* and *end* (sample-accurate)."""
        before = after = None
        for at, value in self.samples:
            if at <= start:
                before = value
            if at <= end:
                after = value
        if before is None or after is None:
            return 0.0
        return after - before
