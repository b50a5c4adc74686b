"""Regression test: concurrent invalidation must never leak a failed channel.

The scenario behind ``EpochRouterCache.route_with_epoch`` reading the
path and the ``built_epoch`` under one lock: a writer marks a channel
degraded (after removing it from the network the cache's factory sees)
while readers hammer the same pair.  Answers stamped with an epoch at or
past the mark were built against the post-failure view, so they must
never traverse the failed channel.  Answers from older epochs may — that
is exactly what the epoch stamp (and the service's staleness flag) is
for.
"""

from __future__ import annotations

import sys
import threading
import time

from repro.core.network import WDMNetwork
from repro.exceptions import NoPathError
from repro.service.cache import EpochRouterCache


class TestConcurrentInvalidation:
    def test_failed_channel_never_served_from_new_epoch(self, paper_net):
        baseline = EpochRouterCache(paper_net).route(1, 7)
        hop = baseline.hops[0]
        victim = (hop.tail, hop.head, hop.wavelength)

        failed: set[tuple] = set()
        failed_lock = threading.Lock()

        def factory() -> WDMNetwork:
            with failed_lock:
                dead = set(failed)
            view = WDMNetwork(
                paper_net.num_wavelengths, paper_net.default_conversion
            )
            for node in paper_net.nodes():
                view.add_node(node, paper_net.explicit_conversion(node))
            for link in paper_net.links():
                costs = {
                    w: c
                    for w, c in link.costs.items()
                    if (link.tail, link.head, w) not in dead
                }
                view.add_link(link.tail, link.head, costs)
            return view

        cache = EpochRouterCache(factory)
        barrier = threading.Barrier(3)
        stop = threading.Event()
        mark_epoch: list[int] = []
        answers: list[tuple[int, frozenset]] = []
        errors: list[BaseException] = []

        def reader() -> None:
            barrier.wait()
            try:
                while not stop.is_set():
                    try:
                        path, epoch = cache.route_with_epoch(1, 7)
                    except NoPathError:
                        continue
                    channels = frozenset(
                        (h.tail, h.head, h.wavelength) for h in path.hops
                    )
                    answers.append((epoch, channels))
            except BaseException as exc:  # pragma: no cover - defensive
                errors.append(exc)

        def writer() -> None:
            barrier.wait()
            time.sleep(0.01)  # let the readers populate the pre-failure cache
            # Order matters and is the contract under test: the channel
            # leaves the factory's world *before* the epoch is bumped, so
            # any rebuild stamped with the new epoch cannot see it.
            with failed_lock:
                failed.add(victim)
            cache.mark_channel_degraded(*victim)
            mark_epoch.append(cache.epoch)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        threads[-1].join()
        marked = mark_epoch[0]
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if any(epoch >= marked for epoch, _ in answers):
                break
            time.sleep(0.005)
        stop.set()
        for thread in threads:
            thread.join()

        assert not errors, errors
        post_mark = [(e, chans) for e, chans in answers if e >= marked]
        assert post_mark, "readers never observed the post-failure epoch"
        for epoch, channels in post_mark:
            assert victim not in channels, (
                f"answer at epoch {epoch} (mark at {marked}) traversed the "
                f"failed channel {victim}"
            )
        # Sanity: the victim really was on the pre-failure optimum, so the
        # test had something to catch.
        assert any(victim in chans for _, chans in answers if _ < marked) or any(
            epoch < marked for epoch, _ in answers
        )


class _YieldingLock:
    """Re-entrant lock that yields the GIL right after every release.

    Widens the window between a cache call returning and its caller's
    next read, where a notification from another thread can land.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()

    def __enter__(self) -> "_YieldingLock":
        self._lock.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self._lock.release()
        time.sleep(0)


class TestServedEpochStamps:
    def test_answers_carry_the_epoch_they_were_built_at(self, paper_net):
        """Every answer is stamped with the ``built_epoch`` of the state
        it was computed on — for ``route_tree`` too, never an epoch read
        after the cache lock was released — while a writer flips a
        channel on the optimal path and worker threads serve routes."""
        from repro.service.service import RoutingService

        hop = EpochRouterCache(paper_net).route(1, 7).hops[0]
        victim = (hop.tail, hop.head, hop.wavelength)
        dark: set[tuple] = set()

        def factory() -> WDMNetwork:
            view = WDMNetwork(paper_net.num_wavelengths, paper_net.default_conversion)
            for node in paper_net.nodes():
                view.add_node(node, paper_net.explicit_conversion(node))
            for link in paper_net.links():
                view.add_link(
                    link.tail,
                    link.head,
                    {
                        w: c
                        for w, c in link.costs.items()
                        if (link.tail, link.head, w) not in dark
                    },
                )
            return view

        service = RoutingService(factory, workers=3)
        lock = service.cache._lock = _YieldingLock()
        flips = 300
        stamped: list[tuple] = []
        errors: list[BaseException] = []
        done = threading.Event()

        def writer() -> None:
            # The victim is dark exactly at odd epochs: each flip changes
            # the factory's world and bumps the epoch under the cache lock.
            try:
                for _ in range(flips):
                    with lock:
                        if victim in dark:
                            dark.discard(victim)
                            service.notify_link_recovered(*victim)
                        else:
                            dark.add(victim)
                            service.notify_link_degraded(*victim)
                    time.sleep(0)
            except BaseException as exc:  # pragma: no cover - defensive
                errors.append(exc)
            finally:
                done.set()

        def tree_reader() -> None:
            try:
                while not done.is_set():
                    for target in service.route_tree(1):
                        stamped.append(service._last_good[(1, target)])
            except BaseException as exc:  # pragma: no cover - defensive
                errors.append(exc)

        def route_reader() -> None:
            try:
                while not done.is_set():
                    try:
                        stamped.append(
                            service.engine.route_with_epoch(1, 7, timeout=30.0)
                        )
                    except NoPathError:
                        pass
            except BaseException as exc:  # pragma: no cover - defensive
                errors.append(exc)

        threads = [
            threading.Thread(target=target)
            for target in (writer, tree_reader, route_reader, route_reader)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            service.close()
        assert not any(thread.is_alive() for thread in threads)

        assert not errors, errors
        assert any(victim in path.channels() for path, _ in stamped)
        for path, epoch in stamped:
            if epoch % 2:
                assert victim not in path.channels(), (
                    f"a path through the dark channel {victim} was "
                    f"stamped with epoch {epoch}"
                )
