"""Fixed-port model tests."""

import numpy as np
import pytest

from repro.graph.generators import erdos_renyi, star
from repro.routing.ports import PortAssignment


class TestPortAssignment:
    def test_round_trip(self):
        g = erdos_renyi(30, 0.2, seed=1)
        ports = PortAssignment(g)
        for u in g.vertices():
            assert ports.degree(u) == g.degree(u)
            for p in range(ports.degree(u)):
                v = ports.neighbor(u, p)
                assert ports.port_to(u, v) == p
                assert g.has_edge(u, v)

    def test_vectorized_lookup_matches_port_to(self):
        g = erdos_renyi(30, 0.2, seed=1)
        ports = PortAssignment(g, seed=7)
        links = [(u, v) for u in g.vertices() for v in g.neighbors(u)]
        us, vs = (np.array(side) for side in zip(*links))
        got = ports.ports_to(us, vs).tolist()
        assert got == [ports.port_to(u, v) for u, v in links]

    def test_shuffled_ports_cover_same_neighbours(self):
        g = erdos_renyi(30, 0.2, seed=2)
        plain = PortAssignment(g)
        shuffled = PortAssignment(g, seed=99)
        for u in g.vertices():
            plain_set = {plain.neighbor(u, p) for p in range(plain.degree(u))}
            shuf_set = {
                shuffled.neighbor(u, p) for p in range(shuffled.degree(u))
            }
            assert plain_set == shuf_set

    def test_shuffle_deterministic(self):
        g = erdos_renyi(30, 0.2, seed=3)
        a = PortAssignment(g, seed=5)
        b = PortAssignment(g, seed=5)
        for u in g.vertices():
            for p in range(a.degree(u)):
                assert a.neighbor(u, p) == b.neighbor(u, p)

    def test_invalid_port_rejected(self):
        g = star(5)
        ports = PortAssignment(g)
        with pytest.raises(ValueError):
            ports.neighbor(1, 1)  # leaf has a single port
        with pytest.raises(ValueError):
            ports.neighbor(0, -1)

    def test_non_neighbour_rejected(self):
        g = star(5)
        ports = PortAssignment(g)
        with pytest.raises(ValueError):
            ports.port_to(1, 2)  # two leaves are not adjacent
        with pytest.raises(ValueError, match="2 is not a neighbour of 1"):
            ports.ports_to(np.array([0, 1]), np.array([1, 2]))
        # a hop column's -1 sentinel must not alias the link (0, 4)
        with pytest.raises(ValueError):
            ports.ports_to(np.array([1]), np.array([-1]))
