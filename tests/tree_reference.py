"""Test-side reference for the Lemma 3 heavy-path tree construction.

:func:`reference_tree_routing` is the construction the library once ran
per tree: pick each vertex's heavy child by ``(size, -id)``, assign DFS
intervals with an explicit stack, heavy child first, then build the
records and accumulate the light stops of the labels in two more passes.
The library now builds every tree, cluster trees and full-graph trees
alike, in one array pass over a batch
(:func:`repro.routing.tree_routing.tree_routings`); the parity tests hold
it to this reference, and :func:`routing_of` runs that builder on one
:class:`~repro.graph.trees.RootedTree`.  :func:`spt_parents` gives the
reference full tree: each vertex's parent is its first hop toward the
root.  :func:`tree_path` is the routing tests' oracle: the unique tree
path between two vertices.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.graph.metric import MetricView
from repro.graph.trees import RootedTree
from repro.routing.ports import PortAssignment
from repro.routing.tree_routing import (
    TreeLabel,
    TreeRecord,
    TreeRouting,
    tree_routings,
)


def spt_parents(metric: MetricView, root: int) -> Dict[int, int]:
    """The full shortest-path tree at ``root`` as a child -> parent map,
    read off ``root``'s hop column; vertices that cannot reach ``root``
    are left out."""
    col = metric.hop_column(root).tolist()
    assert -2 not in col, f"a vertex has no tight edge toward {root}"
    return {v: p for v, p in enumerate(col) if p >= 0}


def routing_of(tree: RootedTree, ports: PortAssignment) -> TreeRouting:
    """The library's tree routing over ``tree``: a batch of one parent
    map through :func:`tree_routings`."""
    (tr,) = tree_routings([(tree.root, tree.parent)], ports)
    return tr


def tree_path(tree: RootedTree, u: int, v: int) -> List[int]:
    """The unique ``u``–``v`` path in ``tree``."""
    def to_root(x: int) -> List[int]:
        path = [x]
        while path[-1] != tree.root:
            path.append(tree.parent[path[-1]])
        return path

    up, vp = to_root(u), to_root(v)
    up_at = {x: i for i, x in enumerate(up)}
    for j, x in enumerate(vp):
        if x in up_at:
            return up[: up_at[x] + 1] + vp[:j][::-1]
    raise AssertionError("tree paths to root do not meet; corrupt tree")


def reference_tree_routing(
    tree: RootedTree, ports: PortAssignment
) -> Tuple[Dict[int, TreeRecord], Dict[int, TreeLabel]]:
    """``(records, labels)`` of ``tree``, built by the DFS construction."""
    heavy: Dict[int, Optional[int]] = {
        v: (
            max(tree.children[v], key=lambda c: (tree.size[c], -c))
            if tree.children[v] else None
        )
        for v in tree.parent
    }
    # Iterative DFS, heavy child first, to assign intervals.
    dfs_in: Dict[int, int] = {}
    dfs_out: Dict[int, int] = {}
    counter = 0
    stack: List[Tuple[int, bool]] = [(tree.root, False)]
    while stack:
        v, processed = stack.pop()
        if processed:
            dfs_out[v] = counter
            continue
        dfs_in[v] = counter
        counter += 1
        stack.append((v, True))
        kids = tree.children[v]
        h = heavy[v]
        ordered = ([h] if h is not None else []) + [
            c for c in kids if c != h
        ]
        # Push in reverse so the heavy child is visited first.
        for c in reversed(ordered):
            stack.append((c, False))

    records: Dict[int, TreeRecord] = {}
    for v in tree.parent:
        parent_port = (
            -1 if v == tree.root else ports.port_to(v, tree.parent[v])
        )
        h = heavy[v]
        if h is None:
            records[v] = (dfs_in[v], dfs_out[v], parent_port, -1, 0, 0)
        else:
            records[v] = (
                dfs_in[v],
                dfs_out[v],
                parent_port,
                ports.port_to(v, h),
                dfs_in[h],
                dfs_out[h],
            )

    # Labels: accumulate light stops down from the root.
    light_stops: Dict[int, Tuple[Tuple[int, int], ...]] = {tree.root: ()}
    for v in tree.vertices:
        if v == tree.root:
            continue
        p = tree.parent[v]
        inherited = light_stops[p]
        if heavy[p] == v:
            light_stops[v] = inherited
        else:
            light_stops[v] = inherited + ((dfs_in[v], ports.port_to(p, v)),)
    labels: Dict[int, TreeLabel] = {
        v: (dfs_in[v], light_stops[v]) for v in tree.parent
    }
    return records, labels
