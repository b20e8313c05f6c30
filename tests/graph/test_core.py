"""Unit tests for the Graph representation."""

import pytest

from repro.graph.core import Graph, GraphError


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(0)
        assert g.n == 0
        assert g.m == 0
        assert g.is_connected()

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(GraphError):
            Graph(-1)

    def test_from_edges_unweighted(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.n == 4
        assert g.m == 3
        assert g.weight(0, 1) == 1.0

    def test_from_edges_weighted(self):
        g = Graph.from_edges(3, [(0, 1, 2.5), (1, 2, 0.5)])
        assert g.weight(0, 1) == 2.5
        assert g.weight(2, 1) == 0.5

    def test_from_networkx_roundtrip(self):
        import networkx as nx

        nxg = nx.Graph()
        nxg.add_edge(0, 1, weight=3.0)
        nxg.add_edge(1, 2)
        g = Graph.from_networkx(nxg)
        assert g.n == 3
        assert g.weight(0, 1) == 3.0
        assert g.weight(1, 2) == 1.0
        back = g.to_networkx()
        assert set(back.edges()) == {(0, 1), (1, 2)}

    def test_copy_is_independent(self):
        g = Graph.from_edges(3, [(0, 1)])
        h = g.copy()
        h.add_edge(1, 2)
        assert g.m == 1
        assert h.m == 2

    def test_copy_preserves_neighbor_insertion_order(self):
        """Regression: copy() used to re-add edges in u < v scan order,
        silently permuting the port numbering of copied graphs."""
        g = Graph(4)
        g.add_edge(2, 3)
        g.add_edge(2, 0)
        g.add_edge(2, 1)
        g.add_edge(0, 1)
        h = g.copy()
        for u in g.vertices():
            assert h.neighbors(u) == g.neighbors(u)
        assert h.neighbors(2) == [3, 0, 1]  # insertion order, not [0, 1, 3]
        assert h.neighbor_items(2) == g.neighbor_items(2)

    def test_copy_preserves_ports(self):
        from repro.routing.ports import PortAssignment

        g = Graph(5)
        for u, v in [(3, 1), (3, 4), (3, 0), (1, 0), (4, 0), (2, 4)]:
            g.add_edge(u, v)
        h = g.copy()
        pg, ph = PortAssignment(g), PortAssignment(h)
        for u in g.vertices():
            assert pg.degree(u) == ph.degree(u)
            for p in range(pg.degree(u)):
                assert pg.neighbor(u, p) == ph.neighbor(u, p)


class TestMutation:
    def test_self_loop_rejected(self):
        g = Graph(2)
        with pytest.raises(GraphError):
            g.add_edge(0, 0)

    def test_duplicate_edge_rejected(self):
        g = Graph(2)
        g.add_edge(0, 1)
        with pytest.raises(GraphError):
            g.add_edge(1, 0)

    def test_nonpositive_weight_rejected(self):
        g = Graph(2)
        with pytest.raises(GraphError):
            g.add_edge(0, 1, 0.0)
        with pytest.raises(GraphError):
            g.add_edge(0, 1, -2.0)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf")],
        ids=["nan", "inf", "-inf"],
    )
    def test_non_finite_weight_rejected(self, bad):
        g = Graph(3)
        with pytest.raises(GraphError, match="finite weight"):
            g.add_edge(0, 1, bad)
        g.add_edge(1, 2, 2.0)
        with pytest.raises(GraphError, match="finite weight"):
            g.add_or_update_edge(1, 2, bad)
        with pytest.raises(GraphError, match="finite weight"):
            Graph.from_adjacency([[(1, bad)], [(0, bad)]])
        assert g.m == 1 and g.weight(1, 2) == 2.0

    def test_out_of_range_vertex_rejected(self):
        g = Graph(2)
        with pytest.raises(GraphError):
            g.add_edge(0, 2)
        with pytest.raises(GraphError):
            g.add_edge(-1, 1)

    def test_bool_vertex_rejected(self):
        g = Graph(2)
        with pytest.raises(GraphError):
            g.add_edge(True, 1)

    def test_add_or_update_edge(self):
        g = Graph(2)
        g.add_or_update_edge(0, 1, 2.0)
        g.add_or_update_edge(0, 1, 5.0)
        assert g.m == 1
        assert g.weight(0, 1) == 5.0
        assert g.weight(1, 0) == 5.0
        # an update keeps every weight positive, as add_edge does
        for bad in (0.0, -1.0):
            with pytest.raises(GraphError, match="positive weight"):
                g.add_or_update_edge(0, 1, bad)
        assert g.weight(0, 1) == 5.0


class TestQueries:
    def test_edges_listed_once(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        edges = list(g.edges())
        assert len(edges) == 3
        assert all(u < v for u, v, _ in edges)

    def test_neighbors_deterministic_order(self):
        g = Graph(4)
        g.add_edge(0, 2)
        g.add_edge(0, 1)
        g.add_edge(0, 3)
        assert g.neighbors(0) == [2, 1, 3]  # insertion order

    def test_degree(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degree(0) == 3
        assert g.degree(1) == 1

    def test_missing_edge_weight_raises(self):
        g = Graph(3)
        with pytest.raises(GraphError):
            g.weight(0, 1)

    def test_is_unweighted(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.is_unweighted()
        g2 = Graph.from_edges(3, [(0, 1, 2.0)])
        assert not g2.is_unweighted()

    def test_min_max_weight(self):
        g = Graph.from_edges(3, [(0, 1, 2.0), (1, 2, 5.0)])
        assert g.min_weight() == 2.0
        assert g.max_weight() == 5.0

    def test_min_weight_on_edgeless_raises(self):
        with pytest.raises(GraphError):
            Graph(3).min_weight()


class TestConnectivity:
    def test_connected_components(self):
        g = Graph.from_edges(5, [(0, 1), (2, 3)])
        comps = g.connected_components()
        assert comps == [[0, 1], [2, 3], [4]]

    def test_is_connected(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.is_connected()
        g2 = Graph.from_edges(3, [(0, 1)])
        assert not g2.is_connected()


class TestConversion:
    def test_to_csr_symmetric(self):
        pytest.importorskip("scipy")  # the conversion's one dependency
        g = Graph.from_edges(3, [(0, 1, 2.0), (1, 2, 3.0)])
        csr = g.to_csr()
        assert csr.shape == (3, 3)
        assert csr[0, 1] == 2.0
        assert csr[1, 0] == 2.0
        assert csr[0, 2] == 0.0

    def test_repr(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert "n=2" in repr(g)
