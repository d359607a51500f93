"""Routing matches networkx route for route, ties included.

``WideAreaNetwork`` routes with its own searches; networkx is the
oracle.  Every network built while a test runs gets a networkx mirror,
fed by the same ``add_site`` / ``add_link`` calls in the same order,
and every ordered site pair must get the same site list from both --
not merely a route of the same cost.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import (
    GIGABIT,
    HIPPI_SONET,
    REGIONAL_56K,
    T1,
    T3,
    Site,
    WanLink,
    WideAreaNetwork,
    best_single_upgrade,
    delta_consortium,
    upgrade_all_below,
    upgraded_network,
)
from repro.util.errors import NetworkError
from tests.network.test_network import line_network
from tests.network.test_queueing_capacity import star_network


#: Every network given a mirror, in the order they were built.
BUILT = []


@pytest.fixture(autouse=True, scope="module")
def mirrored():
    """Give every network built in this module a networkx ``oracle`` graph."""
    add_site, add_link = WideAreaNetwork.add_site, WideAreaNetwork.add_link

    def site_and_mirror(self, site):
        add_site(self, site)
        if "oracle" not in self.__dict__:
            self.oracle = nx.Graph()
            BUILT.append(self)
        self.oracle.add_node(site.name)

    def link_and_mirror(self, link):
        add_link(self, link)
        self.oracle.add_edge(link.a, link.b, link=link)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(WideAreaNetwork, "add_site", site_and_mirror)
        patch.setattr(WideAreaNetwork, "add_link", link_and_mirror)
        yield


def oracle_shortest(graph, src, dst):
    return nx.shortest_path(graph, src, dst, weight=lambda u, v, d: d["link"].latency_s)


def oracle_widest(graph, src, dst):
    """The binary-threshold search ``widest_path`` ran on networkx."""
    rates = sorted(
        {d["link"].link_class.throughput_bytes_per_s for _, _, d in graph.edges(data=True)},
        reverse=True,
    )
    for threshold in rates:
        sub = nx.Graph(
            (u, v, d)
            for u, v, d in graph.edges(data=True)
            if d["link"].link_class.throughput_bytes_per_s >= threshold
        )
        if sub.has_node(src) and sub.has_node(dst) and nx.has_path(sub, src, dst):
            return nx.shortest_path(sub, src, dst)
    return None


def assert_routes_match(net):
    graph = net.oracle
    assert net.links == [d["link"] for _, _, d in graph.edges(data=True)]
    assert net.is_connected() == (len(graph) == 0 or nx.is_connected(graph))
    names = [site.name for site in net.sites]
    for src in names:
        assert net.degree(src) == graph.degree[src]
        for dst in names:
            if not nx.has_path(graph, src, dst):
                with pytest.raises(NetworkError, match="no route"):
                    net.shortest_path(src, dst)
                with pytest.raises(NetworkError, match="no route"):
                    net.widest_path(src, dst)
                continue
            assert net.shortest_path(src, dst) == oracle_shortest(graph, src, dst)
            expected = oracle_widest(graph, src, dst)
            if expected is None:  # a lone site with no links at all
                with pytest.raises(NetworkError):
                    net.widest_path(src, dst)
            else:
                assert net.widest_path(src, dst) == expected


def test_consortium_network():
    assert_routes_match(delta_consortium())


@pytest.mark.parametrize("cls", [T3, HIPPI_SONET, GIGABIT])
@pytest.mark.parametrize("threshold_bps", [100e3, 2e6, 100e6])
def test_consortium_upgraded_below(threshold_bps, cls):
    assert_routes_match(upgrade_all_below(delta_consortium(), threshold_bps, cls))


def test_consortium_single_link_upgrades():
    net = delta_consortium()
    for chosen in net.links:
        assert_routes_match(upgraded_network(net, lambda link: link is chosen, GIGABIT))


def test_capacity_planning_candidates():
    """The networks ``best_single_upgrade`` builds and reroutes over."""
    BUILT.clear()
    for net in (star_network(), delta_consortium()):
        names = [site.name for site in net.sites]
        demands = {(names[1], names[-1]): 1e5, (names[-2], names[2]): 5e4}
        best_single_upgrade(net, demands, GIGABIT)
    assert len(BUILT) == 2 + len(star_network().links) + len(delta_consortium().links)
    for net in BUILT:
        assert_routes_match(net)


def test_test_suite_networks():
    assert_routes_match(line_network())
    assert_routes_match(star_network())
    net = line_network()
    net.add_site(Site("island"))
    assert_routes_match(net)


def test_empty_and_lone_site():
    net = WideAreaNetwork("empty")
    assert net.is_connected()
    net.add_site(Site("solo"))
    assert_routes_match(net)


CLASSES = [REGIONAL_56K, T1, T3, HIPPI_SONET]


@st.composite
def tied_networks(draw):
    """Small graphs of few link classes and distances, so equal-cost
    routes (the tie-breaking cases) are common."""
    n = draw(st.integers(2, 9))
    names = [f"s{i}" for i in draw(st.permutations(range(n)))]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n))
    net = WideAreaNetwork("generated")
    for name in names:
        net.add_site(Site(name))
    for a, b in chosen:
        if draw(st.booleans()):
            a, b = b, a
        net.add_link(WanLink(a, b, draw(st.sampled_from(CLASSES)),
                             draw(st.sampled_from([100.0, 200.0]))))
    return net


@settings(max_examples=200, deadline=None)
@given(tied_networks())
def test_generated_networks(net):
    assert_routes_match(net)
