"""Tree routing (Lemma 3, after Thorup–Zwick / Fraigniaud–Gavoille).

Routes on the unique tree path between any two vertices of a rooted tree,
with **O(1) words of routing information per vertex per tree** and
**O(log n)-word labels**.  The construction is the classic heavy-path
interval scheme:

* order every vertex's children heavy-first and assign DFS intervals
  ``[in, out)``; a vertex's subtree is exactly the interval.  No DFS
  runs: in a preorder a subtree fills ``size`` consecutive indices, so
  one top-down pass hands each child the index after its parent (the
  heavy child) or after its previous sibling's subtree (the rest, in id
  order) — the heavy-first preorder, with ``out = in + size``,
* each vertex keeps: its own interval, the port to its parent, and the port
  plus interval of its *heavy* child (largest subtree, smallest id among
  equals),
* the label of ``v`` is its DFS index plus, for every **light** edge
  ``p -> c`` on the root-to-``v`` path, the pair ``(dfs_in(c), port at p)``.

A light edge at least halves the subtree size, so a label carries at most
``log2 n`` pairs.  Routing at ``u`` toward label ``L``:

1. ``u``'s interval does not contain ``L`` → go to the parent;
2. the heavy child's interval contains ``L`` → take the heavy port;
3. otherwise the next edge is light and ``u``'s child on the path is the
   entry of ``L`` with the smallest DFS index inside ``u``'s interval.

Every routing table in this repository stores tree information as the plain
6-tuple produced here, so the word accounting of
:mod:`repro.routing.model` sees its true cost.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..graph.trees import RootedTree
from .ports import PortAssignment

__all__ = ["TreeRecord", "TreeLabel", "TreeRouting", "tree_step"]

# (dfs_in, dfs_out, parent_port, heavy_port, heavy_in, heavy_out)
# parent_port = -1 at the root; heavy_port = -1 at leaves.
TreeRecord = Tuple[int, int, int, int, int, int]

# (dfs_in, ((light_child_dfs_in, port_at_parent), ...))
TreeLabel = Tuple[int, Tuple[Tuple[int, int], ...]]


def tree_step(record: TreeRecord, label: TreeLabel) -> Optional[int]:
    """One routing decision: the port to forward on, or ``None`` to deliver."""
    dfs_in, dfs_out, parent_port, heavy_port, heavy_in, heavy_out = record
    target_in, light_stops = label
    if target_in == dfs_in:
        return None
    if not dfs_in <= target_in < dfs_out:
        if parent_port < 0:
            raise ValueError("target outside the tree reached the root")
        return parent_port
    if heavy_port >= 0 and heavy_in <= target_in < heavy_out:
        return heavy_port
    # The next edge is light: find the label entry that is u's child, i.e.
    # the shallowest stop inside u's interval.
    best: Optional[Tuple[int, int]] = None
    for stop_in, port in light_stops:
        if dfs_in < stop_in < dfs_out and (best is None or stop_in < best[0]):
            best = (stop_in, port)
    if best is None:
        raise ValueError(
            f"no light stop inside interval [{dfs_in},{dfs_out}); corrupt label"
        )
    return best[1]


class TreeRouting:
    """Preprocessed tree routing structure for one rooted tree.

    Built in one top-down pass over the tree's root-first order (see the
    module docstring): each vertex, reached with the DFS index and light
    stops its parent handed down, takes as heavy child the first largest
    subtree among its id-sorted children, emits its record and hands its
    children their intervals and stops.  Only the root, the records and
    the labels are kept; the records are keyed in root-first order.

    Parameters
    ----------
    tree:
        The rooted tree (vertices are graph vertex ids; every tree edge must
        be a graph edge).
    ports:
        The fixed-port assignment of the underlying graph.
    """

    def __init__(self, tree: RootedTree, ports: PortAssignment) -> None:
        root = self.root = tree.root
        parent = tree.parent
        children = tree.children
        size = tree.size
        port_rows = ports._port_of  # the hot loop: one port row per vertex
        # Records go in root-first, so their keys are the member order.
        records: Dict[int, TreeRecord] = {}
        # A vertex's label is written by its parent, before its turn.
        labels: Dict[int, TreeLabel] = {root: (0, ())}
        try:
            for v in tree.vertices:
                v_in, stops = labels[v]
                row = port_rows[v]
                up = -1 if v == root else row[parent[v]]
                kids = children[v]
                if not kids:
                    records[v] = (v_in, v_in + 1, up, -1, 0, 0)
                    continue
                heavy = max(kids, key=size.__getitem__)
                h_in = v_in + 1
                nxt = h_in + size[heavy]
                records[v] = (v_in, v_in + size[v], up, row[heavy], h_in, nxt)
                labels[heavy] = (h_in, stops)
                for c in kids:
                    if c != heavy:
                        labels[c] = (nxt, stops + ((nxt, row[c]),))
                        nxt += size[c]
        except KeyError as exc:
            raise ValueError(
                f"{exc.args[0]} is not a neighbour of {v}"
            ) from None
        self._records = records
        self._labels = labels

    # ------------------------------------------------------------------
    def record_of(self, v: int) -> TreeRecord:
        """Routing record stored at tree vertex ``v`` (6 words)."""
        return self._records[v]

    def label_of(self, v: int) -> TreeLabel:
        """Tree label of ``v`` (``1 + 2 * #light-edges`` words)."""
        return self._labels[v]

    def members(self) -> List[int]:
        """Vertices covered by this tree, root first."""
        return list(self._records)

    @staticmethod
    def step(record: TreeRecord, label: TreeLabel) -> Optional[int]:
        """Forwarding decision (see :func:`tree_step`)."""
        return tree_step(record, label)
