"""Pure helpers shared by the benchmark: percentiles, windows, self time.

Nothing here touches the program under test, so every rule the
benchmark's numbers depend on can be tested on plain lists.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from statistics import fmean
from typing import Hashable, Iterable, Sequence

#: Tail percentiles tried, highest first, by :func:`tail_percentile`.
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

#: A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10

#: The latency tail the benchmark reports.  Higher percentiles are
#: given per phase in the report line, but on a shared machine they
#: follow the hypervisor's pauses more than the program.
TAIL_Q = 90.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-th percentile of *values* (need not be sorted)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of *count* samples lie above the nearest-rank *q*-th one."""
    return count - max(1, math.ceil(q / 100.0 * count))


def tail_percentile(
    values: Sequence[float], ladder: Iterable[float] = TAIL_LADDER
) -> tuple[float, float, int]:
    """``(q, value, beyond)`` for the highest *q* with at least
    :data:`MIN_BEYOND` samples beyond it.

    Raises ``ValueError`` when even the lowest rung lacks them: such a
    run has too few samples to report any tail.
    """
    for q in ladder:
        beyond = samples_beyond(len(values), q)
        if beyond >= MIN_BEYOND:
            return q, percentile(values, q), beyond
    raise ValueError(
        f"{len(values)} samples leave fewer than {MIN_BEYOND} beyond every "
        f"percentile in {tuple(ladder)}"
    )


def window_bounds(start: float, end: float, count: int) -> list[tuple[float, float]]:
    """*count* equal measurement windows of ``[start, end]``."""
    if end <= start or count < 1:
        raise ValueError("need a positive span and at least one window")
    width = (end - start) / count
    return [(start + i * width, start + (i + 1) * width) for i in range(count)]


def windows(
    done: Sequence[float],
    values: Sequence[float],
    bounds: Sequence[tuple[float, float]],
) -> list[list[float]]:
    """Split *values* over the windows *bounds* (ordered, disjoint) by
    their completion times *done*; a time between two windows goes to
    the earlier one."""
    starts = [start for start, _end in bounds]
    out: list[list[float]] = [[] for _ in bounds]
    for at, value in zip(done, values):
        index = min(len(bounds) - 1, max(0, bisect_right(starts, at) - 1))
        out[index].append(value)
    return out


class ShortSample(ValueError):
    """Too few samples to report a percentile under the rule of
    :data:`MIN_BEYOND`; the run reports nothing rather than a lower one."""


def tail_at(values: Sequence[float], q: float, what: str) -> float:
    """The *q*-th percentile of *values*, which must leave at least
    :data:`MIN_BEYOND` samples beyond it (*what* names them in the error)."""
    beyond = samples_beyond(len(values), q)
    if not values or beyond < MIN_BEYOND:
        raise ShortSample(
            f"{what}: {len(values)} samples leave {max(beyond, 0)} beyond p{q:g}, "
            f"fewer than {MIN_BEYOND}"
        )
    return percentile(values, q)


def merge_short(parts: Sequence[Sequence[float]], q: float) -> list[list[float]]:
    """Merge every window too short for a *q*-th percentile into its
    smaller neighbour until each one supports it.

    Raises :class:`ShortSample` when even all windows together do not.
    """
    merged = [list(part) for part in parts]
    while True:
        short = [i for i, part in enumerate(merged) if samples_beyond(len(part), q) < MIN_BEYOND]
        if not short:
            return merged
        i = short[0]
        if len(merged) == 1:
            tail_at(merged[0], q, "all windows together")  # raises
        j = min((k for k in (i - 1, i + 1) if 0 <= k < len(merged)), key=lambda k: len(merged[k]))
        a, b = min(i, j), max(i, j)
        merged[a:b + 1] = [merged[a] + merged[b]]


def windowed_tail(parts: Sequence[Sequence[float]], q: float) -> float:
    """Mean over windows of each window's *q*-th percentile; every
    window must support *q* (see :func:`merge_short`)."""
    return fmean([tail_at(part, q, f"window {i}") for i, part in enumerate(parts)])


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of *intervals*.

    Overlapping intervals count once, and parts outside ``[start, end]``
    not at all.
    """
    clipped = sorted(
        (max(start, a), min(end, b)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(
    parent: tuple[float, float], children: Iterable[tuple[float, float]]
) -> float:
    """A span's duration minus the part of it its child spans cover."""
    start, end = parent
    return (end - start) - covered(start, end, children)


def nested(
    parents: Sequence[tuple[Hashable, float, float]],
    children: Sequence[tuple[Hashable, float, float]],
) -> list[list[tuple[float, float]]]:
    """For every ``(key, start, end)`` parent, the ``(start, end)`` of the
    children with the same key (a thread, a replica) lying inside it."""
    by_key: dict[Hashable, list[tuple[float, float]]] = {}
    for key, a, b in children:
        by_key.setdefault(key, []).append((a, b))
    starts: dict[Hashable, list[float]] = {}
    for key, spans in by_key.items():
        spans.sort()
        starts[key] = [a for a, _b in spans]
    out = []
    for key, a, b in parents:
        spans = by_key.get(key, ())
        inside = []
        if spans:
            i = bisect_left(starts[key], a)
            while i < len(spans) and spans[i][0] < b:
                if spans[i][1] <= b:
                    inside.append(spans[i])
                i += 1
        out.append(inside)
    return out


def self_times(
    parents: Sequence[tuple[Hashable, float, float]],
    children: Sequence[tuple[Hashable, float, float]],
) -> list[float]:
    """Self time of every ``(key, start, end)`` parent span, its children
    being the spans :func:`nested` finds inside it."""
    return [
        self_time((a, b), inside)
        for (_key, a, b), inside in zip(parents, nested(parents, children))
    ]
