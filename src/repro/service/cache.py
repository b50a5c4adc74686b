"""Epoch-versioned memoization of one patched ``G_all`` and per-source runs.

:class:`~repro.core.batch.BatchRouter` amortizes ``G_all`` over many
queries but is frozen to one network — its documented contract is "if
the network changes, build a new instance".  The serving layer needs the
opposite: a long-lived cache over a network whose residual state keeps
changing.  :class:`EpochRouterCache` closes that gap with a
monotonically increasing **epoch**:

* Every mutation notification bumps the epoch (cheap — no rebuild).
* Queries lazily reconcile: the first query after a bump brings the
  cached ``G_all`` up to date with the current epoch.

``G_all`` is built once and then patched.  Every fail and recover
notification — a reserved or released channel, a degraded or recovered
link, a failed or recovered converter — queues a mask or unmask of the
CSR slots that resource induces, and the next refresh applies the queue
to the cached overlay in place
(:class:`~repro.shortestpath.delta.DeltaOverlay`).  The cache remembers
every resource marked failed and not yet recovered, so a full rebuild
re-masks them all and can never forget live occupancy or a live fault.
That lets an on-line provisioner keep its pristine network as the
factory and express every reservation and release as a patch.

Each source's entry is a resumable warm Dijkstra run
(:class:`~repro.shortestpath.flat.WarmRun`) plus the paths decoded from
it so far: a query resumes the run only until its target settles and
decodes only that path.  A fail-only patch repairs the runs and forgets
just the damaged paths (removing resources can only raise costs, so an
undamaged path stays optimal); a patch that restores anything drops the
entries (freed resources can shorten any route).

A full rebuild happens on the first query, after :meth:`invalidate`
(the factory's network may have changed arbitrarily — topology edited,
costs re-priced), and when a recovery names a resource the current
overlay never saw (the delta layer cannot add structure).

Thread safety: all public methods take an internal lock; the cache may
be shared by the query engine's worker pool.
"""

from __future__ import annotations

import math
import threading
from typing import TYPE_CHECKING, Callable, Hashable, Iterable

from repro.core import routing
from repro.core.auxiliary import KIND_SINK
from repro.core.conversion import NoConversion
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
#: A network resource: ("channel", tail, head, wavelength),
#: ("link", tail, head) for one directed link, or ("converter", node).
#: The kind names the :class:`DeltaOverlay` ``fail_*``/``recover_*`` op.
Resource = tuple


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
        rebuild, never per query).  Resources marked failed stay masked
        across rebuilds until they are marked recovered, so the factory
        may return the pristine network.
    metrics:
        Optional :class:`~repro.service.metrics.MetricsRegistry`; when
        given, the cache maintains ``cache.hits`` / ``cache.misses`` /
        ``cache.rebuilds`` / ``cache.patches`` / ``cache.tree_patches`` /
        ``cache.trees_kept`` / ``cache.trees_dropped`` counters, the
        search work of its warm runs as ``cache.search.settled`` /
        ``cache.search.relaxations``, and a ``cache.epoch`` gauge.

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
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self._factory: Callable[[], "WDMNetwork"] = (
            network if callable(network) else (lambda: network)
        )
        self._metrics = metrics
        self._lock = threading.RLock()
        self._epoch = 0
        self._built_epoch = -1  # nothing built yet
        self._network: "WDMNetwork | None" = None
        self._aux = None
        self._delta: DeltaOverlay | None = None
        self._trees: dict[NodeId, _WarmEntry] = {}
        self._full_dirty = True
        # Patch ops queued since the last refresh, as (DeltaOverlay
        # method name, *args), and every resource currently marked
        # failed.  The latter is replaced, never mutated, so
        # route_rebuild can read it without the cache lock.
        self._patch_ops: list[tuple] = []
        self._failed: frozenset[Resource] = frozenset()
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
        """Number of sources with a cached warm run."""
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

    def invalidate(self) -> None:
        """Full invalidation: the network may have changed arbitrarily.

        Cheap — only bumps the epoch and marks everything dirty; the
        rebuild happens lazily on the next query and re-masks every
        resource still marked failed.
        """
        with self._lock:
            self._full_dirty = True
            self._patch_ops.clear()
            self._bump()

    def _mark(self, action: str, resources: "list[Resource]") -> None:
        """Remember *resources* as failed (``action="fail"``) or
        recovered (``"recover"``) and queue their patch ops; one bump.

        A pending full rebuild supersedes the ops, since it re-masks
        every remembered failure anyway.
        """
        with self._lock:
            if action == "fail":
                self._failed = self._failed.union(resources)
            else:
                self._failed = self._failed.difference(resources)
            if not self._full_dirty:
                self._patch_ops.extend(
                    (f"{action}_{kind}", *key) for kind, *key in resources
                )
            self._bump()

    def mark_channels_reserved(self, channels: Iterable[Channel]) -> None:
        """Channels were removed from the network (one epoch bump).

        The next refresh masks their CSR slots in place and repairs the
        warm runs; paths that avoid every removed channel stay cached.
        """
        self._mark("fail", [("channel", *channel) for channel in channels])

    def mark_channels_released(self, channels: Iterable[Channel]) -> None:
        """Channels came back into the network (one epoch bump).

        The next refresh unmasks their CSR slots in place and drops the
        warm entries: freed channels can shorten any route, which a warm
        run cannot repair.
        """
        self._mark("recover", [("channel", *channel) for channel in channels])

    def mark_path_reserved(self, path: Semilightpath) -> None:
        """Mark every channel a just-reserved path occupies as removed."""
        self.mark_channels_reserved(path.channels())

    def mark_path_released(self, path: Semilightpath) -> None:
        """Every channel a just-released path occupied is free again."""
        self.mark_channels_released(path.channels())

    def mark_channel_degraded(
        self, tail: NodeId, head: NodeId, wavelength: int | None = None
    ) -> None:
        """A channel was removed on one link.

        With ``wavelength=None`` the whole directed link is marked
        failed; one channel is treated exactly like a one-channel
        reservation.
        """
        if wavelength is not None:
            self.mark_channels_reserved([(tail, head, wavelength)])
        else:
            self._mark("fail", [("link", tail, head)])

    def mark_channel_recovered(
        self, tail: NodeId, head: NodeId, wavelength: int | None = None
    ) -> None:
        """A channel (or, with ``wavelength=None``, a link) came back.

        One channel is treated exactly like a one-channel release.
        """
        if wavelength is not None:
            self.mark_channels_released([(tail, head, wavelength)])
        else:
            self._mark("recover", [("link", tail, head)])

    def mark_converter_failed(self, node: NodeId) -> None:
        """The converter bank at *node* failed (continuity only).

        Only conversion edges are removed, so this is an ordinary
        fail-only patch.
        """
        self._mark("fail", [("converter", node)])

    def mark_converter_recovered(self, node: NodeId) -> None:
        """The converter bank at *node* recovered."""
        self._mark("recover", [("converter", node)])

    # -- refresh -------------------------------------------------------------

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
        """Bring ``G_all`` (and the warm entries) up to the current epoch."""
        if self._built_epoch == self._epoch and self._aux is not None:
            return
        if not self._full_dirty and self._try_patch_locked():
            # Patched in place: same aux build, new degraded view.  The
            # snapshot is stale now but nothing on the query path reads
            # it — :meth:`network_view` refetches lazily, so the
            # fault-to-answer path never pays the O(network) copy.
            self._network = None
            self._built_epoch = self._epoch
            self._count("patches")
            return
        self._drop_trees_locked()
        network = self._factory()
        # Looked up on the module at call time, so a wrapper installed
        # on ``routing.build_all_pairs_graph`` (span tracing) sees every
        # rebuild.
        self._aux = routing.build_all_pairs_graph(network)
        self._delta = DeltaOverlay(self._aux)
        # Re-failing a resource the factory already left out is a no-op,
        # so this is safe for degraded-view factories too.
        for kind, *key in self._failed:
            getattr(self._delta, f"fail_{kind}")(*key)
        self._network = None if self._failed else network
        self._patch_ops.clear()
        self._full_dirty = False
        self._built_epoch = self._epoch
        self._count("rebuilds")

    # -- warm runs -----------------------------------------------------------

    def _entry_locked(self, source: NodeId) -> _WarmEntry:
        """*source*'s warm entry, created on a miss."""
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

    def _resume_locked(self, run: WarmRun, target: int | None = None) -> None:
        """Resume *run* (to *target*, else to exhaustion), recording the
        nodes it settled and the edges it relaxed in the registry."""
        settled, relaxations = run.pops, run.relaxations
        run.run(target=target)
        if self._metrics is not None:
            self._metrics.counter("cache.search.settled").inc(run.pops - settled)
            self._metrics.counter("cache.search.relaxations").inc(
                run.relaxations - relaxations
            )

    def _tree_locked(self, source: NodeId) -> dict[NodeId, Semilightpath]:
        """The full tree from *source* at the current epoch."""
        self._refresh_locked()
        entry = self._entry_locked(source)
        self._resume_locked(entry.run)
        aux = self._aux
        paths = entry.paths
        missing = [target for target in aux.sink_ids if target not in paths]
        decode_warm_targets(aux, source, entry.run, missing, paths)
        return {target: paths[target] for target in aux.sink_ids if target in paths}

    def _paths_locked(
        self, source: NodeId, targets: "Iterable[NodeId]"
    ) -> "list[Semilightpath | None]":
        """Paths from *source* to each of *targets*, ``None`` if unreachable.

        The warm run resumes only until the requested sinks settle, and
        only their paths are decoded.
        """
        self._refresh_locked()
        entry = self._entry_locked(source)
        aux = self._aux
        paths = entry.paths
        answers: list[Semilightpath | None] = []
        for target in targets:
            path = paths.get(target)
            if path is None and target != source and target in aux.sink_ids:
                self._resume_locked(entry.run, aux.sink_ids[target])
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
        minus every resource marked failed.  The fallback router (and its
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
                network = _without_failed(self._factory(), failed)
                self._fallback_router = LiangShenRouter(network)
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

        That is the factory's network minus every resource marked failed.
        Patched refreshes drop the snapshot instead of eagerly re-copying
        the provider's network; it is refetched here on demand.
        """
        with self._lock:
            self._refresh_locked()
            if self._network is None:
                self._network = _without_failed(self._factory(), self._failed)
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


def _without_failed(
    network: "WDMNetwork", failed: frozenset[Resource]
) -> "WDMNetwork":
    """*network* minus the *failed* resources (itself when there are none).

    Failed channels lose their wavelength entry, failed directed links
    are left out, and failed converter banks fall back to wavelength
    continuity — the view the fault injector's ``network_view`` builds.
    """
    if not failed:
        return network
    view = WDMNetwork(network.num_wavelengths, network.default_conversion)
    for node in network.nodes():
        if ("converter", node) in failed:
            view.add_node(node, NoConversion())
        else:
            view.add_node(node, network.explicit_conversion(node))
    for link in network.links():
        if ("link", link.tail, link.head) in failed:
            continue
        view.add_link(
            link.tail,
            link.head,
            {
                w: c
                for w, c in link.costs.items()
                if ("channel", link.tail, link.head, w) not in failed
            },
        )
    return view
