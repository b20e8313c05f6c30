"""RootedTree normalization, and the tree-path oracle of the routing
tests (``tests/tree_reference.py``)."""

import pytest

from repro.graph.trees import RootedTree
from tree_reference import tree_path


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
        assert tree_path(t, 6, t.root) == [6, 3, 1, 0]
        assert tree_path(t, t.root, 6) == [0, 1, 3, 6]
        for v, p in t.parent.items():
            if v != t.root:
                assert tree_path(t, v, t.root) == (
                    [v] + tree_path(t, p, t.root)
                )

    def test_tree_path(self):
        t = _sample_tree()
        assert tree_path(t, 6, 5) == [6, 3, 1, 0, 2, 5]
        assert tree_path(t, 3, 4) == [3, 1, 4]
        assert tree_path(t, 2, 2) == [2]

    def test_contains(self):
        t = _sample_tree()
        assert 6 in t
        assert 99 not in t
