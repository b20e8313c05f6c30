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

Cluster trees, asked for one at a time, take :class:`TreeRouting`'s
Python pass over a :class:`~repro.graph.trees.RootedTree`.  Full-graph
shortest-path trees (landmark and hub trees) come in batches:
:func:`spt_routings` builds a batch in one array pass over the roots'
hop columns, and :class:`SPTRouting` builds a label only when asked.
Both give the same records and labels for the same tree.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graph.metric import HopWalkError, MetricView
from ..graph.trees import RootedTree
from .ports import PortAssignment

__all__ = [
    "SPTRouting", "TreeRecord", "TreeLabel", "TreeRouting",
    "full_tree_routings", "spt_routings", "tree_step",
]

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


class SPTRouting:
    """Tree routing over one full-graph SPT, built by :func:`spt_routings`.

    Holds only the records.  :meth:`label_of` climbs from ``v`` (each
    parent read off its record's up port) to the nearest ancestor with
    a label and walks back down, memoizing every vertex on the way.
    """

    def __init__(
        self, root: int, records: List[TreeRecord], base: int,
        ports: PortAssignment,
    ) -> None:
        self.root = root
        self._records = records  # the batch's; this tree's from ``base``
        self._base = base
        self._ports = ports
        self._labels: Dict[int, TreeLabel] = {root: (0, ())}

    def record_of(self, v: int) -> TreeRecord:
        """Routing record stored at ``v`` (6 words)."""
        return self._records[self._base + v]

    def label_of(self, v: int) -> TreeLabel:
        """Tree label of ``v`` (``1 + 2 * #light-edges`` words)."""
        labels, records, base = self._labels, self._records, self._base
        path = []
        while v not in labels:
            path.append(v)
            v = self._ports._ports[v][records[base + v][2]]
        label = labels[v]
        for c in reversed(path):
            c_in, stops = records[base + c][0], label[1]
            if records[base + v][4] != c_in:  # not the heavy child
                stops += ((c_in, self._ports._port_of[v][c]),)
            label = labels[c] = (c_in, stops)
            v = c
        return label


def spt_routings(
    cols: np.ndarray, roots: Sequence[int], ports: PortAssignment
) -> List[SPTRouting]:
    """Tree routing over the full SPT of each root, in one array pass.

    ``cols[i]`` is ``roots[i]``'s hop column: every vertex hangs from
    its first hop toward the root.  The ``k`` trees are one forest over
    ``k * n`` slots.  Depths come from pointer jumping (a pointer short
    of its root after ``ceil(log2 n) + 1`` doublings means the column
    cycles: :class:`HopWalkError`), subtree sizes from one ``bincount``
    per level, bottom-up, and DFS indices from one gather per level,
    top-down, with each light child placed after the heavy subtree and
    its smaller-id light siblings.  The records equal
    :class:`TreeRouting`'s over the same tree.
    """
    roots = [int(r) for r in roots]
    k, n = len(roots), cols.shape[1]
    parent = np.asarray(cols, dtype=np.int64)
    if (parent < 0).any():  # -1: unreachable, -2: no tight edge
        i, u = (int(x[0]) for x in np.nonzero(parent < 0))
        raise ValueError(f"{u} has no first hop toward {roots[i]} "
                         f"(hop column entry {parent[i, u]})")
    slots = np.arange(k * n, dtype=np.int64)
    base = slots - slots % n
    up = parent.ravel() + base  # each slot's parent slot
    root_of = np.repeat(np.asarray(roots, dtype=np.int64), n) + base
    depth = (up != slots).astype(np.int64)
    anc = up
    for _ in range((n - 1).bit_length() + 1):
        if (anc == root_of).all():
            break
        depth += depth[anc]
        anc = anc[anc]
    else:
        if (anc != root_of).any():
            j = int(np.argmax(anc != root_of))
            raise HopWalkError(j % n, roots[j // n], n)

    by_depth = np.argsort(depth, kind="stable")
    levels = np.split(by_depth, np.cumsum(np.bincount(depth))[:-1])[1:]
    size = np.ones(k * n, dtype=np.int64)
    for level in reversed(levels):  # children before their parents
        size += np.bincount(up[level], size[level], k * n).astype(np.int64)

    child = slots[up != slots]
    order = child[np.lexsort((child, -size[child], up[child]))]
    first = np.diff(up[order], prepend=-1) != 0
    heavy = np.full(k * n, -1, dtype=np.int64)
    heavy[up[order[first]]] = order[first]
    light = child[heavy[up[child]] != child]
    light = light[np.argsort(up[light], kind="stable")]  # by parent, id
    ahead = np.cumsum(size[light]) - size[light]
    first = np.diff(up[light], prepend=-1) != 0
    ahead -= ahead[first][np.cumsum(first) - 1]
    offset = np.ones(k * n, dtype=np.int64)
    offset[light] += size[heavy[up[light]]] + ahead
    dfs_in = np.zeros(k * n, dtype=np.int64)
    for level in levels:
        dfs_in[level] = dfs_in[up[level]] + offset[level]

    us, vs = slots[child] - base[child], up[child] - base[child]
    port = ports.ports_to(np.r_[us, vs], np.r_[vs, us])
    up_port, down_port = np.full((2, k * n), -1, dtype=np.int64)
    up_port[child], down_port[child] = port.reshape(2, -1)
    leaf = heavy < 0
    h = np.where(leaf, slots, heavy)
    heavy_in = np.where(leaf, 0, dfs_in[h])
    records: List[TreeRecord] = list(zip(
        dfs_in.tolist(), (dfs_in + size).tolist(), up_port.tolist(),
        np.where(leaf, -1, down_port[h]).tolist(),
        heavy_in.tolist(), np.where(leaf, 0, heavy_in + size[h]).tolist(),
    ))
    return [SPTRouting(r, records, i * n, ports) for i, r in enumerate(roots)]


def full_tree_routings(
    metric: MetricView, ports: PortAssignment, roots: Sequence[int]
) -> List[SPTRouting]:
    """:func:`spt_routings` over ``metric``'s hop columns of ``roots``,
    read by :meth:`MetricView.target_sweep` in batches of at most
    ``cache_rows`` roots, which bounds each pass's arrays."""
    out: List[SPTRouting] = []
    for lo in range(0, len(roots), metric.cache_rows):
        batch = roots[lo : lo + metric.cache_rows]
        cols = [col for _, _, col in metric.target_sweep(batch)]
        out.extend(spt_routings(np.array(cols), batch, ports))
    return out
