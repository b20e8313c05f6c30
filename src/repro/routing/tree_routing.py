"""Tree routing (Lemma 3, after Thorup–Zwick / Fraigniaud–Gavoille).

Routes on the unique tree path between any two vertices of a rooted tree,
with **O(1) words of routing information per vertex per tree** and
**O(log n)-word labels**.  The construction is the classic heavy-path
interval scheme:

* order every vertex's children heavy-first and assign DFS intervals
  ``[in, out)``; a vertex's subtree is exactly the interval.  No DFS
  runs: in a preorder a subtree fills ``size`` consecutive indices, so
  going down level by level each child takes the index after its parent
  (the heavy child) or after its previous sibling's subtree (the rest,
  in id order) — the heavy-first preorder, with ``out = in + size``,
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

Every tree is built by :func:`tree_routings`, in batches: one array
pass over flat slot arrays builds the records of every tree of the
batch, whether a cluster tree (a ``child -> parent`` map over a vertex
subset) or a full-graph shortest-path tree (a root's hop column, as the
landmark and hub trees are).  Each tree is held by a
:class:`TreeRouting`, which keeps its records and builds a label only
when asked.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..graph.metric import HopWalkError, MetricView
from .ports import PortAssignment

__all__ = [
    "Parents", "TreeRecord", "TreeLabel", "TreeRouting",
    "full_tree_routings", "tree_routings", "tree_step",
]

# (dfs_in, dfs_out, parent_port, heavy_port, heavy_in, heavy_out)
# parent_port = -1 at the root; heavy_port = -1 at leaves.
TreeRecord = Tuple[int, int, int, int, int, int]

# (dfs_in, ((light_child_dfs_in, port_at_parent), ...))
TreeLabel = Tuple[int, Tuple[Tuple[int, int], ...]]

# A tree's parents: its root's hop column (every vertex, by id) or a
# ``child -> parent`` map over the tree's members (a cluster tree).
Parents = Union[np.ndarray, Mapping[int, int]]


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
    """Tree routing over one tree of a :func:`tree_routings` batch.

    Holds only the tree's records, keyed by vertex: a list indexed by
    vertex id for a full-graph tree, a dict over the members for a
    cluster tree.  :meth:`label_of` climbs from ``v`` (each parent read
    off its record's up port) to the nearest ancestor with a label and
    walks back down, memoizing every vertex on the way.
    """

    def __init__(
        self,
        root: int,
        records: Union[List[TreeRecord], Dict[int, TreeRecord]],
        ports: PortAssignment,
    ) -> None:
        self.root = root
        self._records = records
        self._ports = ports
        self._labels: Dict[int, TreeLabel] = {root: (0, ())}

    def record_of(self, v: int) -> TreeRecord:
        """Routing record stored at tree vertex ``v`` (6 words)."""
        return self._records[v]

    def label_of(self, v: int) -> TreeLabel:
        """Tree label of ``v`` (``1 + 2 * #light-edges`` words)."""
        labels, records = self._labels, self._records
        path = []
        while v not in labels:
            path.append(v)
            v = self._ports._ports[v][records[v][2]]
        label = labels[v]
        for c in reversed(path):
            c_in, stops = records[c][0], label[1]
            if records[v][4] != c_in:  # not the heavy child
                stops += ((c_in, self._ports._port_of[v][c]),)
            label = labels[c] = (c_in, stops)
            v = c
        return label


def tree_routings(
    trees: Sequence[Tuple[int, Parents]], ports: PortAssignment
) -> List[TreeRouting]:
    """Tree routing over each ``(root, parents)`` tree, in one array pass.

    ``parents`` is the root's hop column (every vertex hangs from its
    first hop toward the root; the members are ``0 .. n-1``) or a
    ``child -> parent`` map (the members are its keys; the root maps to
    itself).  The trees are one forest over flat slots, tree after tree,
    each tree's members in id order, so one ``searchsorted`` over the
    ``(tree, vertex)`` keys finds every parent's slot.  Depths come from
    pointer jumping (a pointer short of its root after
    ``ceil(log2 size) + 1`` doublings, for the largest tree's ``size``,
    means the parents cycle: :class:`HopWalkError`), subtree sizes from
    one ``bincount`` per level, bottom-up, and DFS indices from one
    gather per level, top-down, with each light child placed after the
    heavy subtree and its smaller-id light siblings.  A negative hop
    column entry, a parent outside its tree, a tree whose roots (the
    members that are their own parent) are not exactly ``root`` and a
    tree edge that is not a graph edge raise :class:`ValueError`.
    """
    if not trees:
        return []
    roots = [int(r) for r, _ in trees]
    members, parents = [], []
    for _, parent in trees:
        if isinstance(parent, np.ndarray):
            members.append(np.arange(parent.size, dtype=np.int64))
            parents.append(parent)
        else:
            pairs = np.array(
                sorted(parent.items()), dtype=np.int64
            ).reshape(-1, 2)
            members.append(pairs[:, 0])
            parents.append(pairs[:, 1])
    k = len(trees)
    sizes = np.array([m.size for m in members], dtype=np.int64)
    vert = np.concatenate(members)
    par = np.concatenate(parents).astype(np.int64)
    tree = np.repeat(np.arange(k, dtype=np.int64), sizes)
    if (par < 0).any():  # -1: unreachable, -2: no tight edge
        j = int(np.argmax(par < 0))
        raise ValueError(f"{vert[j]} has no first hop toward "
                         f"{roots[tree[j]]} (hop column entry {par[j]})")
    span = int(max(vert.max(initial=0), par.max(initial=0))) + 1
    keys = tree * span + vert  # sorted: tree-major, members in id order
    total = keys.size
    slots = np.arange(total, dtype=np.int64)

    want = tree * span + par
    up = np.searchsorted(keys, want)  # each slot's parent slot
    inside = up < total
    inside[inside] = keys[up[inside]] == want[inside]
    if not inside.all():
        j = int(np.argmin(inside))
        raise ValueError(f"parent {par[j]} of {vert[j]} is not a vertex "
                         f"of the tree rooted at {roots[tree[j]]}")
    is_root = up == slots
    tops = slots[is_root]
    found, root_slot = np.full((2, k), -1, dtype=np.int64)
    found[tree[tops]], root_slot[tree[tops]] = vert[tops], tops
    ok = (np.bincount(tree[tops], minlength=k) == 1) & (found == roots)
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(
            f"the tree rooted at {roots[i]} must have exactly that one "
            f"root, found {vert[tops[tree[tops] == i]].tolist()}"
        )
    root_of = root_slot[tree]
    depth = (~is_root).astype(np.int64)
    anc = up
    for _ in range((int(sizes.max()) - 1).bit_length() + 1):
        if (anc == root_of).all():
            break
        depth += depth[anc]
        anc = anc[anc]
    else:
        if (anc != root_of).any():
            j = int(np.argmax(anc != root_of))
            raise HopWalkError(
                int(vert[j]), roots[tree[j]], int(sizes[tree[j]])
            )

    by_depth = np.argsort(depth, kind="stable")
    levels = np.split(by_depth, np.cumsum(np.bincount(depth))[:-1])[1:]
    size = np.ones(total, dtype=np.int64)
    for level in reversed(levels):  # children before their parents
        size += np.bincount(up[level], size[level], total).astype(np.int64)

    child = slots[~is_root]
    order = child[np.lexsort((child, -size[child], up[child]))]
    first = np.diff(up[order], prepend=-1) != 0
    heavy = np.full(total, -1, dtype=np.int64)
    heavy[up[order[first]]] = order[first]
    light = child[heavy[up[child]] != child]
    light = light[np.argsort(up[light], kind="stable")]  # by parent, id
    ahead = np.cumsum(size[light]) - size[light]
    first = np.diff(up[light], prepend=-1) != 0
    ahead -= ahead[first][np.cumsum(first) - 1]
    offset = np.ones(total, dtype=np.int64)
    offset[light] += size[heavy[up[light]]] + ahead
    dfs_in = np.zeros(total, dtype=np.int64)
    for level in levels:
        dfs_in[level] = dfs_in[up[level]] + offset[level]

    us, vs = vert[child], vert[up[child]]
    port = ports.ports_to(np.r_[us, vs], np.r_[vs, us])
    up_port, down_port = np.full((2, total), -1, dtype=np.int64)
    up_port[child], down_port[child] = port.reshape(2, -1)
    leaf = heavy < 0
    h = np.where(leaf, slots, heavy)
    heavy_in = np.where(leaf, 0, dfs_in[h])
    records: List[TreeRecord] = list(zip(
        dfs_in.tolist(), (dfs_in + size).tolist(), up_port.tolist(),
        np.where(leaf, -1, down_port[h]).tolist(),
        heavy_in.tolist(), np.where(leaf, 0, heavy_in + size[h]).tolist(),
    ))
    out: List[TreeRouting] = []
    for (root, parent), mem, hi in zip(trees, members, np.cumsum(sizes)):
        recs = records[hi - mem.size : hi]
        out.append(TreeRouting(
            root,
            recs if isinstance(parent, np.ndarray)
            else dict(zip(mem.tolist(), recs)),
            ports,
        ))
    return out


def full_tree_routings(
    metric: MetricView, ports: PortAssignment, roots: Sequence[int]
) -> List[TreeRouting]:
    """:func:`tree_routings` over ``metric``'s hop columns of ``roots``,
    read by :meth:`MetricView.target_sweep` in batches of at most
    ``cache_rows`` roots, which bounds each pass's arrays."""
    out: List[TreeRouting] = []
    for lo in range(0, len(roots), metric.cache_rows):
        batch = roots[lo : lo + metric.cache_rows]
        out.extend(tree_routings(
            [(r, col) for r, _, col in metric.target_sweep(batch)], ports
        ))
    return out
