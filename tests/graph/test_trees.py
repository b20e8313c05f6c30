"""RootedTree normalization and path queries."""

import pytest

from repro.graph.trees import RootedTree


def _sample_tree():
    #       0
    #      / \
    #     1   2
    #    /|    \
    #   3 4     5
    #   |
    #   6
    return RootedTree({0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 3})


class TestConstruction:
    def test_root_detection(self):
        t = _sample_tree()
        assert t.root == 0
        assert len(t) == 7

    def test_no_root_rejected(self):
        with pytest.raises(ValueError):
            RootedTree({0: 1, 1: 0})

    def test_two_roots_rejected(self):
        with pytest.raises(ValueError):
            RootedTree({0: 0, 1: 1})

    def test_foreign_parent_rejected(self):
        with pytest.raises(ValueError):
            RootedTree({0: 0, 1: 9})

    def test_children_sorted(self):
        t = RootedTree({0: 0, 5: 0, 2: 0, 9: 0})
        assert t.children[0] == [2, 5, 9]


class TestStructure:
    def test_subtree_sizes(self):
        t = _sample_tree()
        assert t.size[0] == 7
        assert t.size[1] == 4
        assert t.size[2] == 2
        assert t.size[6] == 1

    def test_depths(self):
        t = _sample_tree()
        assert t.depth[0] == 0
        assert t.depth[6] == 3

    def test_vertices_root_first(self):
        t = _sample_tree()
        order = t.vertices
        assert order[0] == 0
        pos = {v: i for i, v in enumerate(order)}
        for v, p in t.parent.items():
            if v != t.root:
                assert pos[p] < pos[v]


class TestPaths:
    def test_path_to_root(self):
        t = _sample_tree()
        assert t.path_to_root(6) == [6, 3, 1, 0]

    def test_tree_path(self):
        t = _sample_tree()
        assert t.tree_path(6, 5) == [6, 3, 1, 0, 2, 5]
        assert t.tree_path(3, 4) == [3, 1, 4]
        assert t.tree_path(2, 2) == [2]

    def test_tree_distance_unweighted(self):
        t = _sample_tree()
        assert t.tree_distance(6, 5) == 5.0

    def test_tree_distance_weighted(self):
        t = RootedTree(
            {0: 0, 1: 0, 2: 1}, weight={1: 2.0, 2: 3.0}
        )
        assert t.tree_distance(0, 2) == 5.0
        assert t.tree_distance(2, 0) == 5.0

    def test_contains(self):
        t = _sample_tree()
        assert 6 in t
        assert 99 not in t
