"""Tests of the benchmark's own rules: percentiles, self time, failure
counting, the stand-in ring, and process ending.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import os
import subprocess
import sys

import pytest

from loadgen import PhaseResult, timed_call
from stats import (
    ShortSample,
    merge_short,
    nested,
    percentile,
    samples_beyond,
    self_time,
    self_times,
    tail_at,
    tail_percentile,
    window_bounds,
    windowed_tail,
    windows,
)


# -- percentile rule ----------------------------------------------------------


def test_tail_needs_ten_samples_beyond():
    # 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
    values = list(range(1000))
    q, value, beyond = tail_percentile(values)
    assert (q, beyond) == (99.0, 10)
    assert value == percentile(values, 99.0) == 989


def test_tail_falls_back_to_a_lower_percentile():
    values = list(range(300))  # p99 leaves 3, p98 6, p95 15
    q, _value, beyond = tail_percentile(values)
    assert q == 95.0 and beyond == samples_beyond(300, 95.0) == 15


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail_percentile(list(range(15)))  # p50 leaves only 7 beyond


def test_windowed_tail_is_the_median_of_window_percentiles():
    parts = [list(range(1000)), list(range(2000)), list(range(3000))]
    assert windowed_tail(parts, 99.0) == percentile(parts[1], 99.0)


def test_windowed_tail_refuses_a_short_window():
    # 300 samples leave 3 beyond p99: never reported as a lower percentile.
    with pytest.raises(ShortSample, match="window 1"):
        windowed_tail([list(range(1000)), list(range(300))], 99.0)


def test_short_windows_merge_into_their_smaller_neighbour():
    # p90 needs 100 samples; the 50-sample window joins the 120 one.
    parts = [list(range(200)), list(range(120)), list(range(50)), list(range(500))]
    merged = merge_short(parts, 90.0)
    assert [len(part) for part in merged] == [200, 170, 500]
    assert all(samples_beyond(len(part), 90.0) >= 10 for part in merged)


def test_short_windows_merge_until_one_supports_the_percentile():
    assert [len(p) for p in merge_short([[1.0] * 40] * 3, 90.0)] == [120]
    with pytest.raises(ShortSample, match="all windows together"):
        merge_short([[1.0] * 40, [1.0] * 40], 90.0)


def test_tail_at_keeps_its_percentile_or_refuses():
    assert tail_at(list(range(1000)), 99.0, "x") == 989
    with pytest.raises(ShortSample, match="patches: 50 samples leave 5 beyond p90"):
        tail_at(list(range(50)), 90.0, "patches")


def test_windows_split_by_completion_time():
    bounds = window_bounds(0.0, 2.0, 2)
    assert bounds == [(0.0, 1.0), (1.0, 2.0)]
    parts = windows([0.1, 0.9, 1.1, 1.9, 2.0], list("abcde"), bounds)
    assert parts == [["a", "b"], ["c", "d", "e"]]


# -- self time ----------------------------------------------------------------


def test_self_time_counts_overlapping_children_once():
    # Children cover [1, 6] (two overlapping spans) and [8, 10] (clipped
    # at the parent's end): 7 of the parent's 10 units.
    assert self_time((0, 10), [(1, 4), (3, 6), (8, 12)]) == 3


def test_self_time_of_identical_children():
    assert self_time((0, 10), [(2, 5), (2, 5), (2, 5)]) == 7


def test_self_times_attribute_children_by_thread_and_containment():
    parents = [(1, 0, 10), (2, 0, 10), (1, 20, 30)]
    children = [
        (1, 2, 4),  # inside the first parent
        (2, 5, 9),  # other thread: the second parent's
        (1, 9, 21),  # straddles two parents of thread 1: nobody's child
        (1, 25, 26),
    ]
    assert self_times(parents, children) == [8, 6, 9]


def test_nested_groups_children_by_any_key():
    # Keyed by replica address, as the client's server residency is.
    parents = [("a", 0, 10), ("b", 0, 10), ("a", 20, 30)]
    children = [("a", 1, 2), ("a", 3, 4), ("b", 2, 12), ("a", 21, 29)]
    assert nested(parents, children) == [[(1, 2), (3, 4)], [], [(21, 29)]]


# -- timed calls --------------------------------------------------------------


def test_timed_call_records_successes_and_counts_failures():
    result = PhaseResult()

    def call(item):
        if item == "bad":
            raise RuntimeError("refused")

    for item in ("ok", "bad", "ok"):
        timed_call(call, item, result)
    assert (result.attempted, result.failed, result.succeeded) == (3, 1, 2)
    assert len(result.latencies) == len(result.done) == 2
    assert result.errors == ["RuntimeError: refused"]


# -- stand-in ring ------------------------------------------------------------


def test_stand_in_places_every_node_like_the_shard_manager():
    from repro.cluster.shards import ShardManager
    from tier import REPLICAS, SHARDS, VNODES, StandIn, measurement_network

    network = measurement_network()
    manager = ShardManager(network, shards=SHARDS, replicas=REPLICAS, vnodes=VNODES)
    standin = StandIn([["addr"] * REPLICAS for _ in range(SHARDS)])
    assert (standin.num_shards, standin.num_replicas) == (SHARDS, REPLICAS)
    placement = {node: manager.shard_for(node) for node in network.nodes()}
    assert {node: standin.shard_for(node) for node in network.nodes()} == placement
    assert set(placement.values()) == set(range(SHARDS))


# -- process ending -----------------------------------------------------------

_ORPHAN_SCRIPT = """
import os, sys, time
sys.path.insert(0, {bench!r})
from reaper import _children, adopt_orphans, end_children

adopt_orphans()
read, write = os.pipe()
child = os.fork()
if child == 0:
    grandchild = os.fork()
    if grandchild == 0:
        time.sleep(60)
        os._exit(0)
    os.write(write, str(grandchild).encode())
    os._exit(0)
os.waitpid(child, 0)
grandchild = int(os.read(read, 32))
adopted = grandchild in _children()
end_children(grace=0.2)
print(adopted, os.path.exists(f"/proc/{{grandchild}}"), _children())
"""


def test_end_children_stops_adopted_orphans():
    # In a process of its own: adopting orphans changes the caller.
    bench = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _ORPHAN_SCRIPT.format(bench=bench)],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "False", "[]"]
