"""Theorem 4 restricted construction: fused builder identity, tree parity."""

import pytest
from hypothesis import given, settings

from repro.core.auxiliary import build_layered_graph
from repro.core.conversion import (
    FixedCostConversion,
    MatrixConversion,
    NoConversion,
    RangeLimitedConversion,
)
from repro.core.network import WDMNetwork
from repro.core.routing import LiangShenRouter
from repro.exceptions import NoPathError
from repro.shortestpath.restricted import (
    RESTRICTED_K0_CROSSOVER,
    build_restricted_graph,
    restricted_applicable,
    restricted_tree,
)
from repro.topology.generators import waxman_network
from repro.topology.reference import paper_figure1_network
from tests.strategies import wdm_networks


def mixed_models_network():
    """Small network exercising every specialized conversion emitter."""
    net = WDMNetwork(num_wavelengths=3, default_conversion=FixedCostConversion(0.5))
    for v in range(5):
        net.add_node(v)
    net.set_conversion(1, NoConversion())
    net.set_conversion(2, RangeLimitedConversion(1, cost_per_step=0.25))
    net.set_conversion(
        3, MatrixConversion({(0, 1): 1.0, (1, 2): 1.0, (2, 0): 2.0, (1, 1): 0.0})
    )
    net.add_link(0, 1, {0: 1.0, 1: 2.0})
    net.add_link(1, 2, {1: 1.0, 2: 0.5})
    net.add_link(2, 3, {0: 0.25, 2: 1.0})
    net.add_link(3, 4, {1: 1.5})
    net.add_link(4, 0, {0: 2.0, 1: 0.5})
    net.add_link(1, 3, {2: 3.0})
    return net


NETWORKS = {
    "fig1": paper_figure1_network,
    "waxman": lambda: waxman_network(18, 4, seed=11),
    "mixed": mixed_models_network,
}


@pytest.mark.parametrize("name", sorted(NETWORKS))
class TestBuilderIdentity:
    def test_csr_byte_identical(self, name):
        net = NETWORKS[name]()
        gen = build_layered_graph(net)
        res = build_restricted_graph(net)
        for a, b in zip(gen.graph.csr(), res.graph.csr()):
            assert list(a) == list(b)
        assert gen.graph.num_nodes == res.graph.num_nodes

    def test_decode_tables_identical(self, name):
        net = NETWORKS[name]()
        gen = build_layered_graph(net)
        res = build_restricted_graph(net)
        assert gen.decode == res.decode
        assert gen.x_ids == res.x_ids
        assert gen.y_ids == res.y_ids
        assert gen.x_by_node == res.x_by_node
        assert gen.y_by_node == res.y_by_node

    def test_size_accounting_identical(self, name):
        net = NETWORKS[name]()
        assert build_layered_graph(net).sizes == build_restricted_graph(net).sizes


class TestApplicability:
    def test_requires_genuine_restriction(self):
        net = WDMNetwork(num_wavelengths=2)
        net.add_node(0)
        net.add_node(1)
        net.add_link(0, 1, {0: 1.0, 1: 1.0})  # k0 == k: nothing to gain
        assert not restricted_applicable(net)

    def test_requires_links(self):
        net = WDMNetwork(num_wavelengths=4)
        net.add_node(0)
        assert not restricted_applicable(net)

    def test_small_k0_below_k_applies(self):
        net = WDMNetwork(num_wavelengths=8)
        net.add_node(0)
        net.add_node(1)
        net.add_link(0, 1, {3: 1.0})
        assert restricted_applicable(net)

    def test_crossover_is_the_cutoff(self):
        net = WDMNetwork(num_wavelengths=RESTRICTED_K0_CROSSOVER + 2)
        net.add_node(0)
        net.add_node(1)
        costs = {w: 1.0 for w in range(RESTRICTED_K0_CROSSOVER + 1)}
        net.add_link(0, 1, costs)
        assert not restricted_applicable(net)
        assert restricted_applicable(net, crossover=RESTRICTED_K0_CROSSOVER + 1)

    def test_paper_example_is_restricted(self):
        assert restricted_applicable(paper_figure1_network())


def assert_trees_hop_identical(net):
    """Every restricted tree matches the general ``G_all`` tree."""
    general = LiangShenRouter(net)
    aux = build_restricted_graph(net)
    for source in net.nodes():
        reference = general.route_tree(source)
        tree, _run = restricted_tree(aux, source)
        assert tree.keys() == reference.keys()
        for target in reference:
            assert tree[target].hops == reference[target].hops
            assert tree[target].total_cost == reference[target].total_cost


@pytest.mark.parametrize("name", sorted(NETWORKS))
class TestTreeParity:
    def test_trees_hop_identical_to_general(self, name):
        assert_trees_hop_identical(NETWORKS[name]())

    def test_single_pair_unaffected(self, name):
        # Every single-pair overlay answer is the restricted tree's path.
        net = NETWORKS[name]()
        router = LiangShenRouter(net)
        aux = build_restricted_graph(net)
        for source in net.nodes():
            tree, _run = restricted_tree(aux, source)
            for target in net.nodes():
                if source == target:
                    continue
                try:
                    a = router.route(source, target)
                except NoPathError:
                    assert target not in tree
                    continue
                assert a.path.hops == tree[target].hops
                assert a.cost == tree[target].total_cost


class TestRouterPlumbing:
    def test_restricted_tree_avoids_g_all(self):
        # Terminal-free: the run covers exactly G''s nodes, none of
        # G_all's 2n virtual terminals.
        aux = build_restricted_graph(paper_figure1_network())
        _tree, run = restricted_tree(aux, 1)
        assert len(run.dist) == aux.graph.num_nodes

    def test_source_without_output_wavelengths(self):
        net = WDMNetwork(num_wavelengths=4)
        for v in range(3):
            net.add_node(v)
        net.add_link(0, 1, {0: 1.0})  # node 2 emits nothing
        tree, run = restricted_tree(build_restricted_graph(net), 2)
        assert tree == {}
        assert run.settled == 0


@given(net=wdm_networks())
@settings(max_examples=40, deadline=None)
def test_fused_builder_identity_property(net):
    gen = build_layered_graph(net)
    res = build_restricted_graph(net)
    for a, b in zip(gen.graph.csr(), res.graph.csr()):
        assert list(a) == list(b)
    assert gen.decode == res.decode
    assert gen.sizes == res.sizes


@given(net=wdm_networks(max_nodes=5))
@settings(max_examples=30, deadline=None)
def test_restricted_tree_parity_property(net):
    assert_trees_hop_identical(net)
