"""Epoch-versioned memoization of ``G_all`` and per-source trees.

:class:`~repro.core.batch.BatchRouter` amortizes ``G_all`` over many
queries but is frozen to one network — its documented contract is "if
the network changes, build a new instance".  The serving layer needs the
opposite: a long-lived cache over a network whose residual state keeps
changing.  :class:`EpochRouterCache` closes that gap with a
monotonically increasing **epoch**:

* Every mutation notification bumps the epoch (cheap — no rebuild).
* Queries lazily reconcile: the first query after a bump brings
  ``G_all`` up to date with the network provider's *current* view and
  prunes cached trees.
* Two invalidation granularities:

  - :meth:`invalidate` — anything may have changed (topology edited,
    costs re-priced).  All cached trees are dropped.
  - :meth:`mark_channel_degraded` / :meth:`mark_channels_reserved` /
    :meth:`mark_path_reserved` — channels were *removed* from the
    residual network (a reservation).  Removing resources can only raise
    optimal costs, so a cached tree whose paths avoid every degraded
    channel is still optimal and is **kept** across the epoch bump.
    Only trees actually touching a degraded channel are dropped.
    Releases (:meth:`mark_channels_released` /
    :meth:`mark_path_released`) add resources back, which can improve
    any route.

In **incremental** mode ``G_all`` is built once and then patched: every
fail and recover notification masks or unmasks CSR slots of the cached
overlay in place (:class:`~repro.shortestpath.delta.DeltaOverlay`), and
the cache remembers which channels are failed, so a later full rebuild
— after :meth:`invalidate`, say — re-masks them and can never forget
live occupancy.  That lets an on-line provisioner keep its pristine
network as the factory and express every reservation and release as a
patch.  Each source's entry is a resumable warm Dijkstra run
(:class:`~repro.shortestpath.flat.WarmRun`) plus the paths decoded from
it so far: a query resumes the run only until its target settles and
decodes only that path, a fail-only patch repairs the run and forgets
just the damaged paths, and a patch that restores anything drops the
entries (freed resources can shorten any route).

Thread safety: all public methods take an internal lock; the cache may
be shared by the query engine's worker pool.
"""

from __future__ import annotations

import math
import threading
from typing import TYPE_CHECKING, Callable, Hashable, Iterable

from repro.core import routing
from repro.core.auxiliary import KIND_SINK
from repro.core.network import WDMNetwork
from repro.core.routing import LiangShenRouter, decode_warm_targets
from repro.core.semilightpath import Semilightpath
from repro.exceptions import NoPathError
from repro.shortestpath.delta import DeltaOverlay
from repro.shortestpath.flat import WarmRun

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.metrics import MetricsRegistry

__all__ = ["EpochRouterCache"]

NodeId = Hashable
#: One channel: (tail, head, wavelength).
Channel = tuple[NodeId, NodeId, int]
#: A degraded channel: (tail, head, wavelength); wavelength None = whole link.
_DirtyKey = tuple[NodeId, NodeId, "int | None"]


class _WarmEntry:
    """One source's warm search plus the paths decoded from it so far."""

    __slots__ = ("run", "paths", "repaired")

    def __init__(self, run: WarmRun) -> None:
        self.run = run
        self.paths: dict[NodeId, Semilightpath] = {}
        #: Set by a repair that damaged the run; the next query that
        #: resumes it counts one ``tree_patches``.
        self.repaired = False


class EpochRouterCache:
    """Memoized Liang–Shen routing with explicit, epoch-versioned invalidation.

    Parameters
    ----------
    network:
        Either a :class:`~repro.core.network.WDMNetwork` (static serving)
        or a zero-argument callable returning the current network view
        (e.g. a provisioner's ``residual_network`` — called once per
        rebuild, never per query).
    heap:
        Dijkstra heap choice, forwarded to :class:`LiangShenRouter`.
    metrics:
        Optional :class:`~repro.service.metrics.MetricsRegistry`; when
        given, the cache maintains ``cache.hits`` / ``cache.misses`` /
        ``cache.rebuilds`` / ``cache.trees_kept`` / ``cache.trees_dropped``
        (plus, in incremental mode, ``cache.patches`` /
        ``cache.tree_patches``) counters and a ``cache.epoch`` gauge.
    incremental:
        Opt-in delta-epoch maintenance (default off — the legacy
        invalidation semantics are unchanged).  When on, fault, recovery,
        reservation and release notifications queue patch ops; the next
        refresh masks or unmasks the affected CSR slots of the cached
        ``G_all`` in place (:class:`~repro.shortestpath.delta.DeltaOverlay`)
        instead of rebuilding it, and per-source entries are lazy warm
        runs (see the module docstring).  Channels marked failed stay
        masked across full rebuilds until they are marked recovered, so
        the factory may return the pristine network.  A full rebuild
        still happens when a recovery predates the current overlay (the
        delta layer returns ``None``) or on :meth:`invalidate`; it
        remains the correctness oracle.

    Example
    -------
    >>> from repro.topology.reference import paper_figure1_network
    >>> cache = EpochRouterCache(paper_figure1_network())
    >>> cache.route(1, 7).total_cost
    2.0
    >>> cache.invalidate()
    >>> cache.epoch
    1
    """

    def __init__(
        self,
        network: "WDMNetwork | Callable[[], WDMNetwork]",
        heap: str = "flat",
        metrics: "MetricsRegistry | None" = None,
        incremental: bool = False,
    ) -> None:
        self._factory: Callable[[], "WDMNetwork"] = (
            network if callable(network) else (lambda: network)
        )
        self._heap = heap
        self._metrics = metrics
        self._incremental = bool(incremental)
        self._lock = threading.RLock()
        self._epoch = 0
        self._built_epoch = -1  # nothing built yet
        self._network: "WDMNetwork | None" = None
        self._inner: LiangShenRouter | None = None
        self._aux = None
        # Per-source entries: full decoded trees (legacy mode) or
        # _WarmEntry objects (incremental mode).
        self._trees: dict[NodeId, "dict[NodeId, Semilightpath] | _WarmEntry"] = {}
        self._dirty: set[_DirtyKey] = set()
        self._full_dirty = True
        # Incremental mode: the delta overlay over the cached G_all, the
        # queued patch ops as (DeltaOverlay method name, *args), applied
        # lazily at refresh like the legacy dirty set, and the channels
        # currently marked failed.  The last is replaced, never mutated,
        # so route_rebuild can read it without the cache lock.
        self._delta: DeltaOverlay | None = None
        self._patch_ops: list[tuple] = []
        self._failed: frozenset[Channel] = frozenset()
        # Counters mirrored into the registry (when one is attached) so
        # they are inspectable even without metrics.
        self.hits = 0
        self.misses = 0
        self.rebuilds = 0
        self.trees_kept = 0
        self.trees_dropped = 0
        self.patches = 0
        self.tree_patches = 0
        # Degraded-mode fallback: its own router + snapshot, cached per
        # epoch under a separate lock so it never contends with (or
        # deadlocks against) the main cache lock.
        self._fallback_lock = threading.Lock()
        self._fallback_router: LiangShenRouter | None = None
        self._fallback_network: "WDMNetwork | None" = None
        self._fallback_epoch = -1

    # -- epoch bookkeeping ---------------------------------------------------

    @property
    def epoch(self) -> int:
        """The current network epoch (bumped by every invalidation)."""
        return self._epoch

    @property
    def built_epoch(self) -> int:
        """Epoch the cached ``G_all`` was built at (-1 before first build)."""
        return self._built_epoch

    @property
    def cached_sources(self) -> int:
        """Number of sources with a cached shortest-path tree or warm run."""
        with self._lock:
            return len(self._trees)

    def _count(self, name: str, amount: int = 1) -> None:
        """Add *amount* to counter *name* and its ``cache.*`` registry twin."""
        setattr(self, name, getattr(self, name) + amount)
        if self._metrics is not None and amount:
            self._metrics.counter(f"cache.{name}").inc(amount)

    def _bump(self) -> None:
        self._epoch += 1
        if self._metrics is not None:
            self._metrics.gauge("cache.epoch").set(self._epoch)

    def _invalidate_locked(self) -> None:
        self._full_dirty = True
        self._dirty.clear()
        self._patch_ops.clear()

    def _queue(self, *op) -> None:
        """Queue a patch op; a pending full rebuild supersedes it."""
        if not self._full_dirty:
            self._patch_ops.append(op)

    def invalidate(self) -> None:
        """Full invalidation: the network may have changed arbitrarily.

        Cheap — only bumps the epoch and marks everything dirty; the
        rebuild happens lazily on the next query.  In incremental mode
        the rebuild re-masks every channel still marked failed.
        """
        with self._lock:
            self._invalidate_locked()
            self._bump()

    def mark_channels_reserved(self, channels: Iterable[Channel]) -> None:
        """Channels were removed from the network (one epoch bump).

        Cached trees that avoid every removed channel survive the bump
        (see module docstring for why that is safe).  In incremental
        mode the channels are remembered as failed and queued as mask
        patches; the next refresh masks their CSR slots in place and
        repairs the warm runs instead of rebuilding ``G_all``.
        """
        channels = list(channels)
        with self._lock:
            if self._incremental:
                self._failed = self._failed.union(channels)
                for channel in channels:
                    self._queue("fail_channel", *channel)
            elif not self._full_dirty:
                self._dirty.update(channels)
            self._bump()

    def mark_channels_released(self, channels: Iterable[Channel]) -> None:
        """Channels came back into the network (one epoch bump).

        Freed channels can improve arbitrary routes — without
        incremental mode this is a full invalidation.  In incremental
        mode they are queued as unmask patches: the ``O(k²n + km)``
        overlay rebuild is skipped, and only the warm entries are
        dropped (distances may decrease, which a warm run cannot
        repair).
        """
        channels = list(channels)
        with self._lock:
            if self._incremental:
                self._failed = self._failed.difference(channels)
                for channel in channels:
                    self._queue("recover_channel", *channel)
            else:
                self._invalidate_locked()
            self._bump()

    def mark_path_reserved(self, path: Semilightpath) -> None:
        """Mark every channel a just-reserved path occupies as degraded."""
        self.mark_channels_reserved(path.channels())

    def mark_path_released(self, path: Semilightpath) -> None:
        """Every channel a just-released path occupied is free again."""
        self.mark_channels_released(path.channels())

    def mark_channel_degraded(
        self, tail: NodeId, head: NodeId, wavelength: int | None = None
    ) -> None:
        """A channel was removed (or its cost raised) on one link.

        With ``wavelength=None`` the whole link is marked; one channel is
        treated exactly like a one-channel reservation.
        """
        if wavelength is not None:
            self.mark_channels_reserved([(tail, head, wavelength)])
            return
        with self._lock:
            if self._incremental:
                self._queue("fail_link", tail, head)
            elif not self._full_dirty:
                self._dirty.add((tail, head, None))
            self._bump()

    def mark_channel_recovered(
        self, tail: NodeId, head: NodeId, wavelength: int | None = None
    ) -> None:
        """A channel (or, with ``wavelength=None``, a link) came back.

        Recoveries add resources, which can improve arbitrary routes —
        without incremental mode this is a full invalidation (matching
        the fault injector's historical behavior); in incremental mode
        the overlay unmasks the affected slots in place.  One channel is
        treated exactly like a one-channel release.
        """
        if wavelength is not None:
            self.mark_channels_released([(tail, head, wavelength)])
            return
        with self._lock:
            if self._incremental:
                self._queue("recover_link", tail, head)
            else:
                self._invalidate_locked()
            self._bump()

    def mark_converter_failed(self, node: NodeId) -> None:
        """The converter bank at *node* failed (continuity only).

        A converter failure only removes conversion edges, so in
        incremental mode it is an ordinary fail-only patch; otherwise it
        is a full invalidation (converter state is not channel-keyed).
        """
        with self._lock:
            if self._incremental:
                self._queue("fail_converter", node)
            else:
                self._invalidate_locked()
            self._bump()

    def mark_converter_recovered(self, node: NodeId) -> None:
        """The converter bank at *node* recovered."""
        with self._lock:
            if self._incremental:
                self._queue("recover_converter", node)
            else:
                self._invalidate_locked()
            self._bump()

    # -- rebuild -------------------------------------------------------------

    def _tree_uses_dirty(self, tree: dict[NodeId, Semilightpath]) -> bool:
        for path in tree.values():
            for hop in path.hops:
                if (hop.tail, hop.head, hop.wavelength) in self._dirty:
                    return True
                if (hop.tail, hop.head, None) in self._dirty:
                    return True
        return False

    def _drop_trees_locked(self) -> None:
        self._count("trees_dropped", len(self._trees))
        self._trees.clear()

    def _try_patch_locked(self) -> bool:
        """Apply the queued patch ops to the delta overlay.

        Returns True when every op was expressible as a patch; the
        overlay's CSR weights are then up to date with the current epoch.
        Fail-only batches additionally repair every warm run and forget
        the decoded paths whose sink was damaged; batches that restored
        any edge drop the entries — distances can decrease, which warm
        state cannot express — but still keep the patched overlay.

        On False the caller must full-rebuild: some op predates this
        overlay, and earlier ops in the batch may already have mutated
        weights, so the half-patched overlay is only good for discarding.
        """
        delta = self._delta
        ops, self._patch_ops = self._patch_ops, []
        masked: list[int] = []
        restored = False
        for method, *args in ops:
            changed = getattr(delta, method)(*args)
            if changed is None:
                return False
            if method.startswith("fail"):
                masked.extend(changed)
            elif changed:
                restored = True
        if restored:
            self._drop_trees_locked()
            return True
        if masked:
            decode = self._aux.decode
            pairs = delta.slot_pairs(masked)
            for entry in self._trees.values():
                affected = entry.run.repair(pairs, delta.in_edges)
                if affected:
                    entry.repaired = True
                    for aid in affected:
                        aux_node = decode[aid]
                        if aux_node.kind == KIND_SINK:
                            entry.paths.pop(aux_node.node, None)
        self._count("trees_kept", len(self._trees))
        return True

    def _refresh_locked(self) -> None:
        """Bring ``G_all`` (and the tree cache) up to the current epoch."""
        if self._built_epoch == self._epoch and self._aux is not None:
            return
        if self._incremental and not self._full_dirty:
            if self._try_patch_locked():
                # Patched in place: same aux build, new degraded view.
                # The snapshot is stale now but nothing on the query path
                # reads it — :meth:`network_view` refetches lazily, so the
                # fault-to-answer path never pays the O(network) copy.
                self._network = None
                self._built_epoch = self._epoch
                self._count("patches")
                return
            self._full_dirty = True  # half-patched overlay: rebuild all
        if self._full_dirty:
            self._drop_trees_locked()
        elif self._dirty:
            survivors = {
                source: tree
                for source, tree in self._trees.items()
                if not self._tree_uses_dirty(tree)
            }
            self._count("trees_kept", len(survivors))
            self._count("trees_dropped", len(self._trees) - len(survivors))
            self._trees = survivors
        network = self._factory()
        self._inner = LiangShenRouter(network, heap=self._heap)
        # The router caches G_all for its lifetime; one rebuild = one
        # construction, shared by every tree run until the next epoch.
        self._aux = self._inner.all_pairs_graph()
        if self._incremental:
            self._delta = DeltaOverlay(self._aux)
            # Re-failing a channel the factory already left out is a
            # no-op, so this is safe for degraded-view factories too.
            for channel in self._failed:
                self._delta.fail_channel(*channel)
        self._network = None if self._failed else network
        self._patch_ops.clear()
        self._dirty.clear()
        self._full_dirty = False
        self._built_epoch = self._epoch
        self._count("rebuilds")

    def _tree_locked(self, source: NodeId) -> dict[NodeId, Semilightpath]:
        """The full tree from *source* at the current epoch."""
        self._refresh_locked()
        if self._incremental:
            entry = self._entry_locked(source)
            entry.run.run()
            aux = self._aux
            paths = entry.paths
            missing = [target for target in aux.sink_ids if target not in paths]
            decode_warm_targets(aux, source, entry.run, missing, paths)
            return {
                target: paths[target] for target in aux.sink_ids if target in paths
            }
        tree = self._trees.get(source)
        if tree is not None:
            self._count("hits")
            return tree
        self._count("misses")
        if self._inner is None:
            # _refresh_locked always installs a router; a None here means
            # the lock/refresh protocol was bypassed.  A real exception
            # so the invariant holds under ``python -O``.
            raise ValueError("epoch cache queried before refresh built a router")
        # Looked up on the module at call time, so a wrapper installed
        # on ``routing.run_tree`` (span tracing) sees every tree build.
        tree, run = routing.run_tree(
            self._aux,
            source,
            heap=self._inner.heap,
            scratch=self._inner._pool.get(self._aux.graph.num_nodes),
        )
        self._trees[source] = tree
        if self._metrics is not None:
            self._metrics.observe_query(
                _tree_stats(self._aux, run), prefix="cache.tree_build"
            )
        return tree

    def _entry_locked(self, source: NodeId) -> _WarmEntry:
        """*source*'s warm entry (incremental mode), created on a miss."""
        entry = self._trees.get(source)
        if entry is None:
            self._count("misses")
            run = WarmRun(self._aux.graph, self._aux.source_ids[source])
            entry = self._trees[source] = _WarmEntry(run)
            return entry
        self._count("hits")
        if entry.repaired:
            entry.repaired = False
            self._count("tree_patches")
        return entry

    def _paths_locked(
        self, source: NodeId, targets: "Iterable[NodeId]"
    ) -> "list[Semilightpath | None]":
        """Paths from *source* to each of *targets*, ``None`` if unreachable.

        In incremental mode the warm run resumes only until the
        requested sinks settle, and only their paths are decoded.
        """
        if not self._incremental:
            tree = self._tree_locked(source)
            return [tree.get(target) for target in targets]
        self._refresh_locked()
        entry = self._entry_locked(source)
        aux = self._aux
        paths = entry.paths
        answers: list[Semilightpath | None] = []
        for target in targets:
            path = paths.get(target)
            if path is None and target != source and target in aux.sink_ids:
                entry.run.run(target=aux.sink_ids[target])
                decode_warm_targets(aux, source, entry.run, (target,), paths)
                path = paths.get(target)
            answers.append(path)
        return answers

    # -- queries -------------------------------------------------------------

    def route(self, source: NodeId, target: NodeId) -> Semilightpath:
        """Optimal semilightpath at the current epoch.

        Raises :class:`~repro.exceptions.NoPathError` when unreachable.
        """
        return self.route_with_epoch(source, target)[0]

    def route_with_epoch(
        self, source: NodeId, target: NodeId
    ) -> tuple[Semilightpath, int]:
        """Like :meth:`route`, also returning the epoch the answer was
        computed on.

        The epoch is read under the same lock that served the path, so
        it is exactly the ``built_epoch`` of the ``G_all`` behind the
        answer — the serving layer's staleness flag and the chaos soak's
        certificate check both key on it.
        """
        if source == target:
            raise ValueError("source and target must differ")
        with self._lock:
            path = self._paths_locked(source, (target,))[0]
            epoch = self._built_epoch
        if path is None:
            raise NoPathError(source, target)
        return path, epoch

    def route_batch(
        self, source: NodeId, targets: "list[NodeId]"
    ) -> list[tuple["Semilightpath | None", int]]:
        """Answer a same-source batch under **one** lock acquisition.

        The engine's coalesced dispatch uses this to serve a claimed
        batch with one refresh check and one tree fetch instead of
        re-entering the lock (and re-walking the refresh logic) per
        request.  Returns ``(path, built_epoch)`` per target in order,
        with ``None`` for unreachable targets — the caller maps those to
        :class:`~repro.exceptions.NoPathError` per request.  Callers must
        filter out ``target == source`` entries first (they are a request
        error, not an unreachability answer).
        """
        with self._lock:
            paths = self._paths_locked(source, targets)
            epoch = self._built_epoch
        return [(path, epoch) for path in paths]

    def route_rebuild(
        self, source: NodeId, target: NodeId
    ) -> tuple[Semilightpath, "WDMNetwork"]:
        """Degraded-mode fallback: fresh-snapshot routing, no shared state.

        Runs on a *fresh* network snapshot under its own lock — never the
        cache lock, never the shared ``G'``/``G_all`` — so it stays
        available while the epoch cache is mid-invalidation or churning
        through a fault storm.  The snapshot is the factory's network
        minus every channel marked failed.  The fallback router (and its
        cached ``G_all``) is reused across calls at the same epoch
        instead of reconstructing ``G_{s,t}`` per query; a stale epoch
        rebuilds it from a new snapshot.  Answers are hop-for-hop what
        the Theorem-1 per-pair construction returns (see
        :meth:`~repro.core.routing.LiangShenRouter.route_via_all_pairs`).
        Returns the path together with the snapshot it was computed on
        (the caller's certificate check needs exactly that network).
        """
        epoch = self._epoch
        failed = self._failed
        with self._fallback_lock:
            if self._fallback_router is None or self._fallback_epoch != epoch:
                network = _without_channels(self._factory(), failed)
                self._fallback_router = LiangShenRouter(network, heap=self._heap)
                self._fallback_network = network
                self._fallback_epoch = epoch
            router = self._fallback_router
            network = self._fallback_network
            return router.route_via_all_pairs(source, target).path, network

    def cost(self, source: NodeId, target: NodeId) -> float:
        """Optimal cost at the current epoch, ``math.inf`` if unreachable."""
        if source == target:
            return 0.0
        with self._lock:
            path = self._paths_locked(source, (target,))[0]
        return math.inf if path is None else path.total_cost

    def tree(self, source: NodeId) -> dict[NodeId, Semilightpath]:
        """A copy of the full shortest-path tree from *source*."""
        return self.tree_with_epoch(source)[0]

    def tree_with_epoch(
        self, source: NodeId
    ) -> tuple[dict[NodeId, Semilightpath], int]:
        """Like :meth:`tree`, also returning the ``built_epoch`` behind it,
        read under the same lock (see :meth:`route_with_epoch`)."""
        with self._lock:
            tree = dict(self._tree_locked(source))
            return tree, self._built_epoch

    def network_view(self) -> "WDMNetwork":
        """The network snapshot matching the current cache entries.

        That is the factory's network minus every channel marked failed.
        Patched refreshes drop the snapshot instead of eagerly re-copying
        the provider's network; it is refetched here on demand.
        """
        with self._lock:
            self._refresh_locked()
            if self._network is None:
                self._network = _without_channels(self._factory(), self._failed)
            return self._network

    def counters(self) -> dict[str, int]:
        """Plain-dict view of the cache counters (for tests and reports)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "rebuilds": self.rebuilds,
                "patches": self.patches,
                "tree_patches": self.tree_patches,
                "trees_kept": self.trees_kept,
                "trees_dropped": self.trees_dropped,
                "epoch": self._epoch,
            }


def _without_channels(
    network: "WDMNetwork", channels: frozenset[Channel]
) -> "WDMNetwork":
    """*network* with *channels* removed (itself when there are none)."""
    if not channels:
        return network
    view = WDMNetwork(network.num_wavelengths, network.default_conversion)
    for node in network.nodes():
        view.add_node(node, network.explicit_conversion(node))
    for link in network.links():
        view.add_link(
            link.tail,
            link.head,
            {
                w: c
                for w, c in link.costs.items()
                if (link.tail, link.head, w) not in channels
            },
        )
    return view


def _tree_stats(aux, run):
    from repro.core.instrumentation import QueryStats

    return QueryStats(
        sizes=aux.sizes,
        settled=run.settled,
        relaxations=run.relaxations,
        heap=dict(run.heap_stats),
    )
