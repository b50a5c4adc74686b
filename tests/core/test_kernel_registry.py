"""The kernel registry: one name -> kernel table for every dispatch site."""

import pytest

from repro.core.routing import LiangShenRouter
from repro.shortestpath import (
    kernel_names,
    register_kernel,
    resolve_kernel,
)
from repro.shortestpath.flat import flat_dijkstra
from repro.shortestpath.heaps import BinaryHeap
from repro.topology.reference import paper_figure1_network


class TestRegistry:
    def test_builtin_names(self):
        assert set(kernel_names()) >= {
            "flat",
            "binary",
            "pairing",
            "fibonacci",
        }

    def test_flat_resolves_to_flat_kernel(self):
        assert resolve_kernel("flat") is flat_dijkstra

    def test_unknown_name_raises_with_inventory(self):
        with pytest.raises(ValueError, match="unknown kernel 'nope'"):
            resolve_kernel("nope")
        with pytest.raises(ValueError, match="flat"):
            resolve_kernel("nope")

    def test_callable_factory_wrapped(self):
        kernel = resolve_kernel(BinaryHeap)
        net = paper_figure1_network()
        router = LiangShenRouter(net)
        aux = router.layered_graph()
        run = kernel(aux.graph, 0, scratch=None)
        assert run.settled > 0

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_kernel("flat", flat_dijkstra)

    def test_custom_registration_reaches_router(self):
        calls = []

        def spy(graph, sources, target=None, targets=None, scratch=None):
            calls.append(1)
            return flat_dijkstra(
                graph, sources, target=target, targets=targets, scratch=scratch
            )

        name = "test-spy-kernel"
        try:
            register_kernel(name, spy)
            router = LiangShenRouter(paper_figure1_network(), heap=name)
            router.route(1, 7)
            assert calls
        finally:
            from repro.shortestpath import _KERNELS

            _KERNELS.pop(name, None)


class TestRouterDispatch:
    def test_unknown_heap_fails_eagerly_at_construction(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            LiangShenRouter(paper_figure1_network(), heap="bogus")

    @pytest.mark.parametrize("heap", ["flat", "binary"])
    def test_all_registered_kernels_route_identically(self, heap):
        net = paper_figure1_network()
        reference = LiangShenRouter(net, heap="flat").route(1, 7)
        result = LiangShenRouter(net, heap=heap).route(1, 7)
        assert result.path.hops == reference.path.hops
        assert result.cost == reference.cost
