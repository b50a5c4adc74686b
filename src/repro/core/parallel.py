"""Process-parallel all-pairs routing (Corollary 1's embarrassing parallelism).

Corollary 1 answers all ``n(n-1)`` ordered pairs with ``n`` independent
shortest-path-tree runs over one shared ``G_all``.  The runs share no
mutable state, so they partition perfectly across OS processes — the only
engineering problem is getting ``G_all`` into the workers without paying
a per-task serialization bill.

:func:`route_all_pairs_parallel` publishes the CSR arrays once into a
:class:`~repro.shortestpath.shared.SharedCSR` segment and each worker
*attaches* through the pool initializer — a header parse plus one small
metadata unpickle, independent of graph size.  No worker ever pickles or
copies the arrays, under any start method; the segment is unlinked when
the pool finishes.  A platform without usable shared memory raises
instead of routing.

Every all-pairs sweep in the package — the serial
:meth:`LiangShenRouter.route_all_pairs`, this module's pool, and the
router server's ``ALL_PAIRS_CHUNK`` jobs — runs the same chunk engine:
:func:`chunk_sources` splits the sources into contiguous chunks (several
per worker, for load balance against uneven tree sizes),
:func:`route_chunk` runs one tree per source of a chunk, and
:func:`merge_chunks` folds the chunks back in source order.  The result
is therefore identical — same paths, same dict iteration order, same
aggregated ``QueryStats`` — however the chunks were computed.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Callable, Hashable, Iterable

from repro.core.auxiliary import AllPairsGraph, build_all_pairs_graph
from repro.core.instrumentation import QueryStats
from repro.core.routing import AllPairsResult, run_tree
from repro.core.semilightpath import Semilightpath
from repro.shortestpath.flat import ScratchBuffers, ScratchPool
from repro.shortestpath.heaps import AddressableHeap
from repro.shortestpath.shared import (
    attach_all_pairs_graph,
    share_all_pairs_graph,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.network import WDMNetwork

__all__ = [
    "route_all_pairs_parallel",
    "chunk_sources",
    "route_chunk",
    "merge_chunks",
]

NodeId = Hashable

#: One chunk's output: ``(trees, settled, relaxations, heap_totals)``,
#: where ``trees`` lists ``(source, {target: path})`` in source order.
Chunk = tuple[
    list[tuple[NodeId, dict[NodeId, Semilightpath]]], int, int, dict[str, int]
]

#: Worker-side state, installed by the pool initializer.
_SHARED: dict[str, object] = {}


def chunk_sources(sources: list[NodeId], num_chunks: int) -> list[list[NodeId]]:
    """Split *sources* into up to *num_chunks* contiguous, balanced chunks."""
    num_chunks = max(1, min(num_chunks, len(sources)))
    size, extra = divmod(len(sources), num_chunks)
    chunks: list[list[NodeId]] = []
    start = 0
    for i in range(num_chunks):
        end = start + size + (1 if i < extra else 0)
        chunks.append(sources[start:end])
        start = end
    return chunks


def route_chunk(
    aux: AllPairsGraph,
    sources: Iterable[NodeId],
    heap: str | Callable[[], AddressableHeap] = "flat",
    scratch: ScratchBuffers | ScratchPool | None = None,
) -> Chunk:
    """One Corollary 1 tree per source, plus the summed work counters.

    Kernels that manage their own per-query state (the addressable
    heaps) ignore *scratch*.
    """
    trees: list[tuple[NodeId, dict[NodeId, Semilightpath]]] = []
    settled = relaxations = 0
    heap_totals: dict[str, int] = {}
    for source in sources:
        tree, run = run_tree(aux, source, heap=heap, scratch=scratch)
        trees.append((source, tree))
        settled += run.settled
        relaxations += run.relaxations
        for key, value in run.heap_stats.items():
            heap_totals[key] = heap_totals.get(key, 0) + value
    return trees, settled, relaxations, heap_totals


def merge_chunks(sizes, chunks: Iterable[Chunk]) -> AllPairsResult:
    """Fold *chunks* (in source order) into one :class:`AllPairsResult`."""
    paths: dict[tuple[NodeId, NodeId], Semilightpath] = {}
    settled = relaxations = 0
    heap_totals: dict[str, int] = {}
    for trees, chunk_settled, chunk_relaxations, chunk_heap in chunks:
        for source, tree in trees:
            for target, path in tree.items():
                paths[(source, target)] = path
        settled += chunk_settled
        relaxations += chunk_relaxations
        for key, value in chunk_heap.items():
            heap_totals[key] = heap_totals.get(key, 0) + value
    return AllPairsResult(
        paths=paths,
        stats=QueryStats(
            sizes=sizes,
            settled=settled,
            relaxations=relaxations,
            heap=heap_totals,
        ),
    )


def _worker_init(payload: tuple[str, str, object]) -> None:
    """Pool initializer: attach the published ``G_all`` by name.

    The payload carries only the segment *name* — deliberately, even
    under fork (where the worker could inherit the parent's handle), so
    every worker exercises the same zero-copy attach that spawned
    workers and the router server's pool rely on.
    """
    segment, heap, fault_hook = payload
    aux = attach_all_pairs_graph(segment)
    _SHARED["aux"] = aux
    _SHARED["heap"] = heap
    _SHARED["fault_hook"] = fault_hook
    # Reused across this worker's chunks.
    _SHARED["scratch"] = ScratchBuffers(aux.graph.num_nodes)


def _route_chunk(job: tuple[int, list[NodeId]]) -> Chunk:
    """Pool task: one chunk against the worker's attached ``G_all``."""
    index, sources = job
    fault_hook = _SHARED["fault_hook"]
    if fault_hook is not None:
        fault_hook(index)  # chaos layer: may raise inside this worker
    return route_chunk(
        _SHARED["aux"], sources, _SHARED["heap"], _SHARED["scratch"]
    )


def route_all_pairs_parallel(
    network: "WDMNetwork",
    workers: int,
    heap: str = "flat",
    aux: AllPairsGraph | None = None,
    chunks_per_worker: int = 4,
    fault_hook=None,
) -> AllPairsResult:
    """Corollary 1 with the ``n`` tree runs fanned across a process pool.

    Parameters
    ----------
    network:
        The network to route on (must match *aux* when one is given).
    workers:
        Process count.  ``1`` runs serially in this process (no pool).
    heap:
        Kernel per tree run, as in :class:`~repro.core.routing.LiangShenRouter`.
        Addressable-heap *factories* cannot cross a process boundary; pass
        a heap name.
    aux:
        A prebuilt ``G_all`` to share (e.g. a router's cached one);
        built here when omitted.
    chunks_per_worker:
        Oversubscription factor for load balancing — tree runs on
        high-degree sources settle more nodes than leaf sources.
    fault_hook:
        Optional picklable ``hook(chunk_index)`` called at the start of
        every worker chunk — the chaos layer's worker-crash injection
        point (e.g. :class:`repro.faults.injector.ChunkCrash`).  Applied
        only on the pool path (``workers > 1``); a hook that raises
        surfaces the exception through the pool exactly like a real
        worker crash.

    Returns
    -------
    AllPairsResult
        Identical paths and aggregated stats to the serial run.

    Raises
    ------
    OSError
        When ``G_all`` cannot be published into shared memory; no
        segment is left behind.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not isinstance(heap, str):
        raise TypeError("parallel all-pairs requires a heap name, not a factory")
    if aux is None:
        aux = build_all_pairs_graph(network)
    sources = network.nodes()

    if workers == 1 or len(sources) <= 1:
        chunk = route_chunk(aux, sources, heap, ScratchBuffers(aux.graph.num_nodes))
        return merge_chunks(aux.sizes, [chunk])

    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    segment = share_all_pairs_graph(aux)
    jobs = list(enumerate(chunk_sources(sources, workers * chunks_per_worker)))
    try:
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=ctx,
            initializer=_worker_init,
            initargs=((segment.name, heap, fault_hook),),
        ) as pool:
            chunks = list(pool.map(_route_chunk, jobs))
    finally:
        segment.unlink()
    return merge_chunks(aux.sizes, chunks)
