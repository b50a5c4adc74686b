"""Theorem 4 fast path: the restricted regime ``|Λ(e)| <= k₀``.

When every link carries at most ``k₀`` of the ``k`` wavelengths, the
paper's Observations 4-5 shrink the layered graph from ``O(k²n + km)``
to ``O(d²nk₀² + mk₀)`` — **independent of k**.  The general builder in
:mod:`repro.core.auxiliary` already produces a graph of that size (it
only materializes wavelengths that actually appear), but it pays
avoidable constant factors: ``Λ_in`` / ``Λ_out`` are recomputed per
pass, per-pair conversion costs go through a virtual ``cost()`` call,
and per-(v, λ) ids are fetched through tuple-keyed dict lookups.

:func:`build_restricted_graph` is the fused single-pass construction
Theorem 4's accounting assumes: wavelength sets are computed once per
node, the standard conversion models (:class:`NoConversion`,
:class:`FullConversion` / :class:`FixedCostConversion` with a constant
cost) are emitted by specialized loops that never call back into the
model, and edge targets are computed from the contiguous per-node id
blocks instead of dict probes.

The contract that makes this a drop-in for the general builder —
asserted byte-for-byte by the test suite — is **CSR identity**: nodes
and edges are emitted in exactly the insertion order of
``repro.core.auxiliary._emit_layered`` (node order, then sorted λ;
conversion edges before ``E_org``; ``E_org`` in link-insertion ×
sorted-λ order).  Identical arrays mean identical Dijkstra tie-breaking,
so every kernel returns hop-identical paths whichever builder produced
the overlay.

Routing in time independent of ``k`` additionally needs the *query*
structure to avoid ``G_all``'s ``2n`` virtual terminals:
:func:`restricted_tree` answers a one-to-all query terminal-free on
``G'`` itself — multi-source seeded on ``Y_s`` (what the virtual ``s'``
fan-out achieves) and read out per target as the min over ``X_t`` (what
the virtual ``t''`` edges compute).  Because virtual terminals never
influence the relaxation order of real nodes, the resulting trees are
hop-identical to :func:`repro.core.routing.run_tree` over ``G_all``.

This is an explicit construction, not a serving-path switch: the routers
always answer on the general structures, and the Theorem 4 path is
called directly by its tests, the ``liang:restricted`` verification
oracle and the ``restricted_crossover`` sweep in
``benchmarks/bench_routing_hotpath.py``.  :func:`restricted_applicable`
says whether a network is in the regime at all (measured ``k₀`` against
:data:`RESTRICTED_K0_CROSSOVER`); the oracle uses it as its gate.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Hashable

from repro.core.auxiliary import (
    KIND_IN,
    KIND_OUT,
    AuxNode,
    LayeredGraph,
    _sizes,
)
from repro.core.conversion import (
    INF,
    FixedCostConversion,
    FullConversion,
    NoConversion,
)
from repro.core.routing import _decode
from repro.core.semilightpath import Semilightpath
from repro.shortestpath.dijkstra import DijkstraResult
from repro.shortestpath.flat import ScratchBuffers, ScratchPool, flat_dijkstra
from repro.shortestpath.paths import reconstruct_path
from repro.shortestpath.structures import GraphBuilder

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.network import WDMNetwork

__all__ = [
    "RESTRICTED_K0_CROSSOVER",
    "restricted_applicable",
    "build_restricted_graph",
    "restricted_tree",
]

NodeId = Hashable

#: Largest k₀ :func:`restricted_applicable` treats as the restricted
#: regime (the ``liang:restricted`` oracle's gate).
RESTRICTED_K0_CROSSOVER = 4


def restricted_applicable(
    network: "WDMNetwork", crossover: int = RESTRICTED_K0_CROSSOVER
) -> bool:
    """True when *network* is in the Theorem 4 restricted regime.

    Requires a nonempty link set (``k₀ > 0``), a measured ``k₀`` at or
    below the benched *crossover*, and genuine restriction (``k₀ < k`` —
    with full wavelength availability the restricted and general
    structures coincide and the specialization buys nothing).
    """
    k0 = network.max_link_wavelengths
    return 0 < k0 <= crossover and k0 < network.num_wavelengths


def build_restricted_graph(network: "WDMNetwork") -> LayeredGraph:
    """Fused ``G'`` construction for the restricted regime.

    Returns a :class:`~repro.core.auxiliary.LayeredGraph` whose CSR
    arrays, decode table, id maps, and size accounting are byte-identical
    to ``build_layered_graph(network)`` — only the construction-time
    constant factors differ (one wavelength-set pass per node, no
    per-pair virtual calls for the standard conversion models, no
    tuple-keyed id lookups on the hot emission loops).
    """
    decode: list[AuxNode] = []
    x_ids: dict[tuple[NodeId, int], int] = {}
    y_ids: dict[tuple[NodeId, int], int] = {}

    # Pass 1 (fused): enumerate X_v / Y_v ids *and* retain the sorted
    # wavelength lists plus each node's contiguous id-block bases, so the
    # edge passes below never recompute sets or probe tuple keys.
    per_node: list[tuple[NodeId, list[int], list[int], int, int]] = []
    for v in network.nodes():
        lam_in = sorted(network.lambda_in(v))
        lam_out = sorted(network.lambda_out(v))
        x_base = len(decode)
        for lam in lam_in:
            x_ids[(v, lam)] = len(decode)
            decode.append(AuxNode(KIND_IN, v, lam))
        y_base = len(decode)
        for lam in lam_out:
            y_ids[(v, lam)] = len(decode)
            decode.append(AuxNode(KIND_OUT, v, lam))
        per_node.append((v, lam_in, lam_out, x_base, y_base))

    builder = GraphBuilder(len(decode))
    add_edge = builder.add_edge

    # Pass 2: conversion edges E_v.  Specialized emitters for the
    # standard models reproduce each model's ``finite_pairs`` enumeration
    # order exactly (λ_in-major, λ_out-minor, both sorted).
    num_conversion_edges = 0
    max_bip_nodes = 0
    max_bip_edges = 0
    for v, lam_in, lam_out, x_base, y_base in per_node:
        if len(lam_in) + len(lam_out) > max_bip_nodes:
            max_bip_nodes = len(lam_in) + len(lam_out)
        model = network.conversion(v)
        count = 0
        kind = type(model)
        if kind is NoConversion:
            out_pos = {lam: j for j, lam in enumerate(lam_out)}
            for i, p in enumerate(lam_in):
                j = out_pos.get(p)
                if j is not None:
                    add_edge(x_base + i, y_base + j, 0.0)
                    count += 1
        elif (
            (kind is FullConversion or kind is FixedCostConversion)
            and model._fn is None
            and model._flat < INF
        ):
            flat = model._flat
            for i, p in enumerate(lam_in):
                x = x_base + i
                for j, q in enumerate(lam_out):
                    add_edge(x, y_base + j, 0.0 if p == q else flat)
                    count += 1
        else:
            for p, q, cost in model.finite_pairs(lam_in, lam_out):
                add_edge(x_ids[(v, p)], y_ids[(v, q)], cost)
                count += 1
        num_conversion_edges += count
        if count > max_bip_edges:
            max_bip_edges = count

    # Pass 3: original edges E_org (link-insertion order, sorted λ —
    # exactly ``multigraph_edges``).
    num_org_edges = 0
    for link in network.links():
        tail, head, costs = link.tail, link.head, link.costs
        for lam in sorted(costs):
            add_edge(y_ids[(tail, lam)], x_ids[(head, lam)], costs[lam])
            num_org_edges += 1

    counters = {
        "num_conversion_edges": num_conversion_edges,
        "num_org_edges": num_org_edges,
        "max_bipartite_nodes": max_bip_nodes,
        "max_bipartite_edges": max_bip_edges,
        "num_layer_nodes": len(decode),
    }
    return LayeredGraph(
        network=network,
        graph=builder.build(),
        decode=decode,
        x_ids=x_ids,
        y_ids=y_ids,
        sizes=_sizes(network, counters),
    )


_EMPTY_RUN = DijkstraResult(
    source=(),
    dist=(),
    parent=(),
    parent_tag=(),
    settled=0,
    relaxations=0,
    heap_stats={},
    stopped_at=-1,
)


def restricted_tree(
    aux: LayeredGraph,
    source: NodeId,
    scratch: ScratchBuffers | ScratchPool | None = None,
) -> tuple[dict[NodeId, Semilightpath], DijkstraResult]:
    """Theorem 4 one-to-all: a terminal-free tree over ``G'``.

    Seeds the flat Dijkstra kernel multi-source on ``Y_s`` (distance 0 — what
    ``G_all``'s virtual ``s'`` achieves via zero-weight fan-out), runs to
    exhaustion, and decodes per target the minimum-distance member of
    ``X_t`` (ties broken toward the lowest auxiliary id, matching which
    member settles first and therefore which one ``G_all``'s
    strict-improvement relaxation records as ``parent[t'']``).  The tree
    is hop-identical to :func:`repro.core.routing.run_tree` on the same
    network; the run's counters exclude the ``2n`` virtual terminals
    ``G_all`` would also have visited.  A source with no outgoing
    wavelengths yields an empty tree and an empty run.

    *aux* is ``G'`` from either :func:`build_restricted_graph` or
    :func:`~repro.core.auxiliary.build_layered_graph` (CSR-identical).
    """
    seeds = aux.y_by_node.get(source)
    if not seeds:
        return {}, _EMPTY_RUN
    run = flat_dijkstra(aux.graph, seeds, scratch=scratch)
    dist = run.dist
    tree: dict[NodeId, Semilightpath] = {}
    for target, xs in aux.x_by_node.items():
        if target == source:
            continue
        best_d = math.inf
        best_x = -1
        for x in xs:
            d = dist[x]
            if d < best_d:
                best_d = d
                best_x = x
        if best_x >= 0:
            aux_path = reconstruct_path(run.parent, best_x)
            tree[target] = _decode(aux.decode, aux_path, best_d)
    return tree, run
