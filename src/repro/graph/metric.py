"""Exact metric view used by the centralized preprocessing phase.

Compact routing schemes have two phases: a *centralized preprocessing* phase
that may inspect the whole graph, and a *distributed routing* phase that may
only touch local tables.  This module implements the global knowledge the
preprocessing phase is allowed to use: exact distances, shortest path
walking, vicinity balls and the normalized diameter ``D``.

Distance rows
-------------
:class:`MetricView` is a per-row distance oracle: rows are computed on
demand — the CSR kernel's threshold scan with all-``inf`` thresholds
(:meth:`repro.graph.csr.CSRGraph.rows`), or ``dijkstra_py`` under
``REPRO_KERNEL=pure`` — and LRU-cached.  Peak memory is
``O(cache_rows * n)``, never ``O(n^2)``, matching the preprocessing
access pattern (landmark columns, row blocks, one target sweep).  A
scheme build reads each vertex's row about once: its per-target work
runs inside :meth:`MetricView.target_sweep`, and the global scalars the
paper's structures need are ``O(m)`` edge facts, not scans
(:meth:`MetricView.tight_min_weight`,
:meth:`MetricView.min_pairwise_distance`,
:meth:`MetricView.diameter_bound`).  Whole-metric consumers use the
row-oriented API (:meth:`MetricView.rows`, :meth:`MetricView.columns`,
:meth:`MetricView.iter_row_blocks`).

Clusters ``C_S(w) = {v : d(w, v) < d(v, S)}`` read no rows: the
*threshold scan* :meth:`MetricView.iter_bounded_rows` (counted by
:meth:`MetricView.count_rows_below`) searches from ``w`` and drops every
relaxation into ``v`` at or beyond ``d(v, S)``, so it settles exactly
the (shortest-path closed) cluster with its distances, from which
:func:`repro.graph.trees.cluster_parents` derives the cluster tree.

Vicinity balls never read distance rows: :meth:`MetricView.all_balls` is
one call to the batched sweep :func:`repro.graph.shortest_paths.all_balls`.

:meth:`MetricView.next_hop` reads one int32 *hop column* per target ``v``:
the first hop toward ``v`` from every vertex, computed from ``row(v)``
alone in one ``O(n + m)`` pass over the CSR arrays
(:meth:`repro.graph.csr.CSRGraph.hop_column`, the native kernel when it
loads) — the graph is undirected, so ``row(v)[x]`` stands in for
``d(x, v)`` and one distance row serves every source (see the exception
under "Canonical row orientation" below).  The view keeps an LRU of
``cache_rows`` columns beside its LRU of rows.  Full shortest-path trees
read the same column: :meth:`MetricView.spt_parents` makes each vertex's
first hop toward the root its parent, so trees and
:meth:`MetricView.shortest_path` walks share one first-hop rule.

:meth:`MetricView.target_sweep` visits the targets in order and yields
each one's row and hop column, computing the rows in chunks of
``cache_rows``, one batched kernel call per chunk.  Builds do every
per-target job while the target is in hand — the ball ports of its
holders, label first edges and the Lemma 8 walks toward it (thm11), the
intersection and colour entries that read its row (thm10) — so each row
and each column is computed once, not once per consumer.

Canonical row orientation
-------------------------
On weighted graphs a float shortest-path sum depends on the accumulation
order, so the forward value ``d_fwd(u, v)`` (Dijkstra from ``u``) and the
reverse one ``d_fwd(v, u)`` can differ by one ulp at exact real ties.  All
of :meth:`row`, :meth:`d`, :meth:`rows`, :meth:`columns` and the block
iterators therefore return the **forward row orientation**: ``d(u, v)`` is
always the value computed from ``u``'s side, on every dispatch path
(native, numpy, pure) — they are the same least float64 fixpoint, hence
bit-identical.  Consumers that compare distances strictly (cluster
membership, pivots) always read one orientation consistently, which
keeps every structure exact.

Hop columns are the one exception: :meth:`MetricView.hop_column` reads
every distance it compares from the *target's* row, so the tie-break of
:meth:`MetricView.next_hop` uses ``row(v)[x] = d_fwd(v, x)``, not
``d(x, v) = d_fwd(x, v)``.  The two agree except at exact real ties, where
one ulp can pick a different (equally short) first hop.

Floating point
--------------
Weighted graphs use float weights, so "is this edge on a shortest path?"
is decided with a relative tolerance (:attr:`MetricView.tol`).  All
structures derive shortest-path facts from the *same* oracle, which keeps
them mutually consistent.  The tolerance scale is the running maximum
over all finite distances computed up to the first tolerance read
(frozen afterwards, so band decisions stay self-consistent within a
build) — always within a factor of two of the largest finite distance,
because any eccentricity is at least half the diameter, without ever
paying a full all-pairs scan.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import csr
from .core import Graph, GraphError
from .shortest_paths import (
    all_balls,
    dijkstra_py,
    threshold_dijkstra_py,
    use_kernel,
)

__all__ = ["MetricView"]


class MetricView:
    """Immutable exact-distance oracle over a graph.

    Parameters
    ----------
    g:
        The (connected) graph.
    mode:
        Only ``"lazy"`` is accepted: the eager all-pairs (dense) mode was
        removed, and any other value raises :class:`ValueError`.  The
        keyword stays only for the end-to-end benchmark's build-lazy
        workload, which still passes it; it goes at the next change to
        that benchmark.
    cache_rows:
        LRU capacity per kind of row (distance row, hop column), and the
        chunk size of :meth:`target_sweep`'s batched row calls; defaults
        to ``max(32, 4 sqrt(n))``, so ``O(sqrt(n) * n)`` memory.
    """

    def __init__(
        self,
        g: Graph,
        *,
        mode: str = "lazy",
        cache_rows: Optional[int] = None,
    ) -> None:
        if mode != "lazy":
            raise ValueError(
                f"MetricView mode {mode!r} is not supported: dense mode "
                "was removed, every view computes rows lazily"
            )
        self.graph = g
        self.n = g.n
        self._tol: Optional[float] = None
        self._scale_seen = 0.0
        #: forward rows computed so far (full-length distance rows).
        self.rows_computed = 0
        #: sources swept by threshold scans (iter_bounded_rows).
        self.bounded_rows_computed = 0
        self._row_cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._cache_rows = (
            cache_rows
            if cache_rows is not None
            else max(32, 4 * int(math.isqrt(max(1, g.n))))
        )
        self._diameter: Optional[float] = None
        self._diameter_bound: Optional[float] = None
        #: an LRU of hop columns by target (hop_column)
        self._hop_cols: "OrderedDict[int, np.ndarray]" = OrderedDict()

    # ------------------------------------------------------------------
    # Kernel plumbing
    # ------------------------------------------------------------------
    def _kernel(self):
        """The CSR kernel of the graph, or ``None`` on the pure path."""
        if self.n == 0 or not use_kernel():
            return None
        return csr.csr_graph(self.graph)

    @property
    def tol(self) -> float:
        """Absolute tolerance for shortest-path membership tests.

        The scale is the *running* maximum over every row computed up to
        the first tolerance read, then frozen: any single eccentricity is
        at least half the diameter, so the scale always sits within a
        factor of two of the largest finite distance, and freezing keeps
        every strict-band decision in one structure build
        self-consistent (a tolerance that kept growing with later rows
        could make ``ball_radius`` disagree with the radii ``all_balls``
        already returned).  A heuristic, like the tolerance itself — it
        only sets the order of magnitude.
        """
        if self._tol is not None:
            return self._tol
        if self._scale_seen == 0.0 and self.n > 0:
            self.row(0)  # seed the running maximum with one eccentricity
        self._tol = 1e-9 * max(self._scale_seen, 1.0)
        return self._tol

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def _compute_rows(self, sources: Sequence[int]) -> np.ndarray:
        """Distance rows for ``sources``, bypassing the cache."""
        sources = list(sources)
        for s in sources:
            if not 0 <= s < self.n:
                raise GraphError(f"vertex {s} out of range [0, {self.n})")
        if not sources:
            return np.zeros((0, self.n), dtype=np.float64)
        kernel = self._kernel()
        if kernel is not None:
            out = kernel.rows(sources)
        else:
            out = np.empty((len(sources), self.n), dtype=np.float64)
            for i, s in enumerate(sources):
                out[i] = dijkstra_py(self.graph, s)[0]
        self.rows_computed += len(sources)
        finite = out[np.isfinite(out)]
        if finite.size:
            self._scale_seen = max(self._scale_seen, float(finite.max()))
        return out

    def row(self, u: int) -> np.ndarray:
        """Read-only distance row of ``u`` (length ``n``)."""
        if not 0 <= u < self.n:
            raise GraphError(f"vertex {u} out of range [0, {self.n})")
        cached = self._row_cache.get(u)
        if cached is not None:
            self._row_cache.move_to_end(u)
            return cached
        row = self._compute_rows([u])[0]
        self.row_cache_put(u, row)
        return row

    def d(self, u: int, v: int) -> float:
        """Exact distance between ``u`` and ``v``."""
        # Both ids in [0, n), in one chained comparison: this is hot.
        if not 0 <= u < self.n > v >= 0:
            raise GraphError(
                f"vertex pair ({u}, {v}) out of range [0, {self.n})"
            )
        return float(self.row(u)[v])

    def rows(self, sources: Sequence[int]) -> np.ndarray:
        """Distance rows for ``sources`` as a ``(len(sources), n)`` array."""
        sources = list(sources)
        missing = [s for s in sources if s not in self._row_cache]
        fresh: Dict[int, np.ndarray] = {}
        if missing:
            computed = self._compute_rows(missing)
            for s, row in zip(missing, computed):
                fresh[s] = row
        out = np.empty((len(sources), self.n), dtype=np.float64)
        for i, s in enumerate(sources):
            out[i] = fresh[s] if s in fresh else self.row(s)
        # Cache the fresh rows afterwards so assembling a batch larger
        # than the LRU capacity cannot evict rows mid-assembly.
        for s, row in fresh.items():
            self.row_cache_put(s, row)
        return out

    def row_cache_put(self, u: int, row: np.ndarray) -> None:
        """Insert a computed row into the LRU cache."""
        self._row_cache[u] = row
        self._row_cache.move_to_end(u)
        while len(self._row_cache) > self._cache_rows:
            self._row_cache.popitem(last=False)

    def columns(self, members: Sequence[int]) -> np.ndarray:
        """Distance columns of ``members`` as an ``(n, len(members))`` array.

        ``columns(A)[v, j]`` is the canonical forward value ``d(a_j, v)``
        — the members' rows transposed, ``O(|members| * n)`` memory,
        which is exactly the landmark access pattern of the
        preprocessing phase.  Every consumer that compares these against
        row reads uses the same ``(… , v)`` orientation, so strict
        comparisons stay exact (see the module docstring).
        """
        return self.rows(members).T

    def iter_row_blocks(
        self, block_rows: Optional[int] = None
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(start, rows)`` blocks covering all sources in order.

        Computes transient blocks of ``block_rows`` rows (default sized
        so a block stays a few MB) without populating the row cache, so
        a full scan stays ``O(block * n)`` memory.
        """
        if self.n == 0:
            return
        if block_rows is None:
            block_rows = max(1, (1 << 22) // max(1, 8 * self.n))
        for start in range(0, self.n, block_rows):
            stop = min(start + block_rows, self.n)
            yield start, self._compute_rows(range(start, stop))

    def iter_bounded_rows(
        self, thresholds, sources: Optional[Sequence[int]] = None
    ) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(u, verts, dists)`` with ``d(u, v) < thresholds[v]``.

        The *threshold scan* behind the Section 2 structures.
        ``thresholds`` (length ``n``) must be ``d(·, S)`` for a vertex set
        ``S``, or all ``inf``: then ``verts`` (ascending) is exactly the
        cluster ``C_S(u)`` and ``dists`` its canonical forward distances.
        Work is the clusters' edges, never a row: the CSR kernel's
        bounded engine (native, numpy or the pool) or a pruned pure
        Dijkstra (:func:`~repro.graph.shortest_paths.threshold_dijkstra_py`).
        """
        if sources is None:
            sources = range(self.n)
        sources = [int(u) for u in sources]
        for u in sources:
            if not 0 <= u < self.n:
                raise GraphError(f"vertex {u} out of range [0, {self.n})")
        thr = np.ascontiguousarray(thresholds, dtype=np.float64)
        self.bounded_rows_computed += len(sources)
        kernel = self._kernel()
        if kernel is not None:
            yield from kernel.bounded_rows(sources, thr)
            return
        thr_list = thr.tolist()
        for u in sources:
            found = threshold_dijkstra_py(self.graph, u, thr_list)
            verts = sorted(found)
            yield u, np.array(verts, dtype=np.int64), np.array(
                [found[v] for v in verts], dtype=np.float64
            )

    def count_rows_below(
        self,
        thresholds: np.ndarray,
        sources: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """``out[i] = |{v : d(sources[i], v) < thresholds[v]}|``.

        The cluster-size count of Lemma 4 (all of ``V`` when ``sources``
        is omitted), read off :meth:`iter_bounded_rows`.  Precondition:
        ``thresholds`` is ``d(·, S)`` for a vertex set ``S``, or all
        ``inf``; for any other array the scan prunes vertices whose
        shortest paths leave the set, and the counts are wrong.
        """
        scan = self.iter_bounded_rows(thresholds, sources)
        return np.array([len(v) for _, v, _ in scan], dtype=np.int64)

    # ------------------------------------------------------------------
    # Global scalar facts
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """True when every pairwise distance is finite."""
        if self.n == 0:
            return True
        # Undirected graph: one row decides connectivity (row 0 is
        # cached; the tol estimate computes it anyway).
        return bool(np.isfinite(self.row(0)).all())

    def diameter(self) -> float:
        """Maximum finite pairwise distance (cached).

        One blockwise pass over every row — the one full scan left,
        behind :meth:`normalized_diameter`.  Callers that only need a cap
        use :meth:`diameter_bound`.
        """
        if self._diameter is None:
            dmax = 0.0
            for _, block in self.iter_row_blocks():
                finite = block[np.isfinite(block)]
                if finite.size:
                    dmax = max(dmax, float(finite.max()))
            self._diameter = dmax
        return self._diameter

    def diameter_bound(self) -> float:
        """An ``O(m)`` upper bound on :meth:`diameter`: the weight sum.

        A shortest path is simple, so it uses each edge at most once.
        """
        if self._diameter_bound is None:
            weights = csr.csr_graph(self.graph).weights
            self._diameter_bound = float(weights.sum()) / 2.0
        return self._diameter_bound

    def normalized_diameter(self) -> float:
        """The paper's ``D = max d(u,v) / min_{u != v} d(u,v)``."""
        if self.n < 2:
            return 1.0
        dmin = self.min_pairwise_distance()
        dmax = self.diameter()
        if dmax <= 0:
            return 1.0
        if dmin <= 0:
            raise ValueError("graph contains distinct vertices at distance 0")
        return dmax / dmin

    def min_pairwise_distance(self) -> float:
        """``min_{u != v} d(u, v)`` (the paper's ``omega_min`` analogue).

        The minimum edge weight, ``O(m)`` — by the lightest-edge argument
        of :meth:`tight_min_weight`, and no path of two or more edges is
        shorter.  ``1.0`` when no two vertices are connected.
        """
        if self.n < 2 or self.graph.m == 0:
            return 1.0
        return self._min_edge_weight()

    def _min_edge_weight(self) -> float:
        return float(csr.csr_graph(self.graph).weights.min())

    # ------------------------------------------------------------------
    # Shortest-path structure
    # ------------------------------------------------------------------
    def on_shortest_path(self, u: int, x: int, v: int) -> bool:
        """Whether ``x`` lies on some shortest ``u``–``v`` path."""
        return abs(self.d(u, x) + self.d(x, v) - self.d(u, v)) <= self.tol

    def tight_min_weight(self) -> float:
        """Minimum weight among edges lying on shortest paths.

        This is the paper's ``omega_min`` from Lemma 8: edges with
        ``w(u,v) > d(u,v)`` never appear on shortest paths and are ignored.
        It is simply the minimum edge weight, read in ``O(m)`` without a
        distance row.  Weights are positive, so the lightest edge
        ``{u, v}`` is tight: any other ``u``–``v`` path has at least two
        edges, each at least as heavy, so it is at least twice as long.
        That holds in float64 too — a sum of positive doubles never rounds
        below its largest term, and ``2 w`` is representable — so the
        row value ``d(u, v)`` is exactly ``w(u, v)``.
        """
        if self.graph.m == 0:
            raise ValueError("graph has no shortest-path edges")
        return self._min_edge_weight()

    def hop_column(self, v: int) -> np.ndarray:
        """First hops toward ``v`` from every vertex (int32, length ``n``).

        With ``r = row(v)``, ``out[u]`` is the neighbour ``x`` with the
        smallest ``(r[x], x)`` among tight edges (``w(u, x) + r[x] = r[u]``
        within :attr:`tol`; ``r[x]`` is ``d_fwd(v, x)``, the target-side
        orientation, see the module docstring); ``out[v] = v``, ``-1``
        marks a ``u`` that cannot reach ``v`` and ``-2`` a reachable ``u``
        with no tight edge.  Built once per target from one distance row,
        then kept in an LRU of ``cache_rows`` columns.
        """
        col = self._hop_cols.get(v)
        if col is not None:
            self._hop_cols.move_to_end(v)
            return col
        return self._hop_column_from(v, self.row(v))

    def _hop_column_from(self, v: int, row: np.ndarray) -> np.ndarray:
        """Build, cache and return ``v``'s hop column from ``row(v)``."""
        col = csr.csr_graph(self.graph).hop_column(row, v, self.tol)
        self._hop_cols[v] = col
        if len(self._hop_cols) > self._cache_rows:
            self._hop_cols.popitem(last=False)
        return col

    def target_sweep(
        self, targets: Optional[Sequence[int]] = None
    ) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Visit ``targets`` (default: every vertex) in order, one row each.

        Yields ``(v, row(v), hop_column(v))``.  The rows are computed in
        chunks of at most ``cache_rows`` targets, one batched kernel call
        per chunk for the rows not already cached, and the current
        target's row and column are left the most recent entries of their
        LRUs.  So while the caller holds ``v``, every per-target read —
        :meth:`row`, :meth:`d` from ``v``'s side, :meth:`next_hop` toward
        ``v`` — is a cache hit: a build that does all its per-target work
        inside one sweep computes each row once.
        """
        order: Sequence[int] = range(self.n)
        if targets is not None:
            order = [int(v) for v in targets]
            for v in order:
                if not 0 <= v < self.n:
                    raise GraphError(
                        f"vertex {v} out of range [0, {self.n})"
                    )
        _ = self.tol  # fix the tolerance scale before the first chunk
        step = self._cache_rows
        for start in range(0, len(order), step):
            chunk = order[start : start + step]
            rows = self._chunk_rows(chunk)
            for v in chunk:
                row = rows[v]
                col = self._hop_cols.get(v)
                if col is None:
                    col = self._hop_column_from(v, row)
                else:
                    self._hop_cols.move_to_end(v)
                self.row_cache_put(v, row)
                yield v, row, col

    def _chunk_rows(self, chunk: Sequence[int]) -> Dict[int, np.ndarray]:
        """Rows of ``chunk`` (at most ``cache_rows`` ids), all in the LRU.

        Cached rows are touched first, so inserting the missing ones
        (computed in one call) cannot evict any row of the chunk.
        """
        held: Dict[int, np.ndarray] = {}
        missing = []
        for v in dict.fromkeys(chunk):
            cached = self._row_cache.get(v)
            if cached is None:
                missing.append(v)
            else:
                self._row_cache.move_to_end(v)
                held[v] = cached
        for v, row in zip(missing, self._compute_rows(missing)):
            held[v] = row
            self.row_cache_put(v, row)
        return held

    def next_hop(self, u: int, v: int) -> int:
        """First vertex after ``u`` on a shortest ``u``–``v`` path.

        Deterministic choice, with every distance read from ``r = row(v)``:
        among neighbours ``x`` with ``w(u,x) + r[x] = r[u]``, the one with
        the smallest ``(r[x], x)`` — i.e. maximal progress, ties to the
        smaller id.  A lookup in :meth:`hop_column` of ``v``.
        """
        if not 0 <= u < self.n > v >= 0:
            raise GraphError(
                f"vertex pair ({u}, {v}) out of range [0, {self.n})"
            )
        if u == v:
            raise ValueError("next_hop undefined for u == v")
        hop = int(self.hop_column(v)[u])
        if hop < 0:
            if hop == -1:
                raise ValueError(f"{v} unreachable from {u}")
            raise RuntimeError(
                f"no tight edge out of {u} toward {v}; inconsistent metric"
            )
        return hop

    def spt_parents(self, root: int) -> Dict[int, int]:
        """A shortest-path tree rooted at ``root`` as a child->parent map.

        The parent of ``u`` is :meth:`next_hop` ``(u, root)``, read off
        ``root``'s hop column, so trees and :meth:`shortest_path` walks
        share one first-hop rule.  Vertices that cannot reach ``root``
        are left out; a reachable vertex with no tight edge raises
        :class:`RuntimeError`, as :meth:`next_hop` does.
        """
        if not 0 <= root < self.n:
            raise GraphError(f"vertex {root} out of range [0, {self.n})")
        col = self.hop_column(root)
        stuck = np.flatnonzero(col == -2)
        if stuck.size:
            raise RuntimeError(
                f"no tight edge out of {stuck[0]} toward {root}; "
                "inconsistent metric"
            )
        reach = np.flatnonzero(col >= 0)
        return dict(zip(reach.tolist(), col[reach].tolist()))

    def shortest_path(self, u: int, v: int) -> List[int]:
        """A concrete shortest ``u``–``v`` path (via :meth:`next_hop`)."""
        path = [u]
        cur = u
        guard = 0
        while cur != v:
            cur = self.next_hop(cur, v)
            path.append(cur)
            guard += 1
            if guard > self.n:
                raise RuntimeError("shortest-path walk did not terminate")
        return path

    # ------------------------------------------------------------------
    # Vicinity balls
    # ------------------------------------------------------------------
    def ball(self, u: int, ell: int) -> List[int]:
        """``B(u, ell)``: the ``ell`` closest vertices in ``(dist, id)`` order.

        ``u`` itself is always first (distance 0).  When ``ell >= n`` the
        whole vertex set is returned.
        """
        if ell <= 0:
            return []
        row = self.row(u)
        order = np.lexsort((np.arange(self.n), row))
        ball: List[int] = []
        for idx in order:
            if not np.isfinite(row[idx]):
                break
            ball.append(int(idx))
            if len(ball) == ell:
                break
        return ball

    def all_balls(
        self, ell: int, *, with_radii: bool = True
    ) -> Tuple[List[List[int]], Optional[List[float]]]:
        """``B(u, ell)`` (and radii) for every vertex — the batched sweep.

        One call to :func:`repro.graph.shortest_paths.all_balls` with this
        view's :attr:`tol`: the balls never read distance rows, so the
        whole family costs the sweep's batch memory, and the balls and
        radii are the same whatever the kernel.  They equal :meth:`ball`
        and :meth:`ball_radius` on the forward rows.
        """
        return all_balls(
            self.graph, ell, tol=self.tol, with_radii=with_radii
        )

    def ball_radius(self, u: int, ball: Sequence[int]) -> float:
        """The paper's ``r_u(ell)`` for a ball produced by :meth:`ball`.

        The largest radius ``r`` such that *every* vertex at distance exactly
        ``r`` from ``u`` belongs to the ball.  Because balls are
        ``(dist, id)``-prefixes, this is the boundary distance when the
        boundary level is fully contained, else the previous level.
        """
        return csr._radius_from_row(self.row(u), list(ball), self.tol)
