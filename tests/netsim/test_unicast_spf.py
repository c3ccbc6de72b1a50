"""Unicast shortest paths against a reference Dijkstra, bit for bit.

``Network.unicast_latency`` runs over a cached live-adjacency table; the
reference below walks the topology and the network's public link-state
accessors on every edge, exactly as the uncached computation did. The
sums must agree to the last bit, because packet delivery times (and so
every recorded digest) are built from them.
"""

import heapq
import random

import pytest

from repro.netsim import (
    EventLoop,
    GeoPoint,
    LinkRelation,
    Network,
    Node,
    NodeKind,
    Topology,
)
from repro.netsim.network import HOP_COST_S


def reference_distances(network, src):
    topology = network.topology
    distances = {src: 0.0}
    frontier = [(0.0, src)]
    visited = set()
    while frontier:
        dist, node = heapq.heappop(frontier)
        if node in visited:
            continue
        visited.add(node)
        for neighbor in topology.neighbors(node):
            if not network.link_is_up(node, neighbor):
                continue
            _loss, extra_ms = network.link_degradation(node, neighbor)
            candidate = (dist + topology.link(node, neighbor).latency_ms
                         / 1000.0 + HOP_COST_S + extra_ms / 1000.0)
            if candidate < distances.get(neighbor, float("inf")):
                distances[neighbor] = candidate
                heapq.heappush(frontier, (candidate, neighbor))
    return distances


def direct_latency(network, a, b):
    return network.topology.link(a, b).latency_ms / 1000.0 + HOP_COST_S


def random_network(seed, n_routers=40, n_hosts=12):
    rng = random.Random(seed)
    topology = Topology()
    for i in range(n_routers):
        topology.add_node(Node(f"r{i}", 100 + i, NodeKind.TRANSIT,
                               GeoPoint(rng.uniform(-60, 60),
                                        rng.uniform(-180, 180))))
    for i in range(1, n_routers):
        # A random spanning tree keeps the graph connected; the extra
        # links make equal-ish alternatives for Dijkstra to choose from.
        topology.connect(f"r{i}", f"r{rng.randrange(i)}",
                         latency_ms=rng.uniform(0.5, 40.0))
    for _ in range(n_routers * 2):
        a, b = rng.sample(range(n_routers), 2)
        if not topology.has_link(f"r{a}", f"r{b}"):
            topology.connect(f"r{a}", f"r{b}",
                             latency_ms=rng.choice([1.0, 2.5, 10.0, 0.1]))
    for i in range(n_hosts):
        attach_host(topology, f"h{i}", f"r{rng.randrange(n_routers)}")
    network = Network(EventLoop(), topology, random.Random(seed))
    return rng, network


def attach_host(topology, host, router):
    topology.add_node(Node(host, 0, NodeKind.HOST,
                           topology.node(router).location))
    topology.connect(host, router, LinkRelation.ACCESS, latency_ms=0.2)


def router_links(network):
    return [(link.a, link.b) for link in network.topology.links()
            if link.relation != LinkRelation.ACCESS]


def assert_matches_reference(network):
    nodes = [node.node_id for node in network.topology.nodes()]
    for src in nodes:
        want = reference_distances(network, src)
        got = {dst: network.unicast_latency(src, dst) for dst in nodes}
        assert got == {dst: want.get(dst) for dst in nodes}


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_matches_reference_with_down_and_degraded_links(seed):
    rng, network = random_network(seed)
    links = router_links(network)
    for a, b in rng.sample(links, 6):
        network.set_link_up(a, b, False)
    for a, b in rng.sample(links, 10):
        network.set_link_degraded(a, b, loss=0.1,
                                  extra_latency_ms=rng.uniform(0.0, 30.0))
    assert_matches_reference(network)


def test_link_state_changes_invalidate_cached_paths():
    rng, network = random_network(5)
    assert_matches_reference(network)
    links = router_links(network)
    down = rng.sample(links, 4)
    for a, b in down:
        network.set_link_up(a, b, False)
    assert_matches_reference(network)
    # Degrade a live link that carries its own endpoints' shortest
    # path, so a stale table would visibly keep the old latency.
    a, b = next((a, b) for a, b in links if (a, b) not in down
                and network.unicast_latency(a, b)
                == direct_latency(network, a, b))
    before = network.unicast_latency(a, b)
    network.set_link_degraded(a, b, extra_latency_ms=25.0)
    assert network.unicast_latency(a, b) > before
    assert_matches_reference(network)
    network.set_link_degraded(a, b)
    for a, b in down:
        network.set_link_up(a, b, True)
    assert_matches_reference(network)


def test_attaching_a_host_invalidates_cached_paths():
    _rng, network = random_network(6)
    assert network.unicast_latency("h0", "h1") is not None
    attach_host(network.topology, "late", "r3")
    assert network.unicast_latency("h0", "late") is not None
    assert_matches_reference(network)
