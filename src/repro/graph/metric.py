"""Exact metric view used by the centralized preprocessing phase.

Compact routing schemes have two phases: a *centralized preprocessing* phase
that may inspect the whole graph, and a *distributed routing* phase that may
only touch local tables.  This module implements the global knowledge the
preprocessing phase is allowed to use: exact distances, shortest path
walking, vicinity balls and the normalized diameter ``D``.

Dense vs. lazy mode
-------------------
The original implementation eagerly built the full ``n x n`` distance
matrix, which caps experiments at small ``n`` (32 MB at ``n = 2000``,
quadratic beyond).  :class:`MetricView` now has two modes:

* ``mode="dense"`` — the eager all-pairs matrix, exactly as before
  (scipy's C Dijkstra when available, pure-Python otherwise, symmetrized).
  Best for small graphs and access patterns that genuinely read most pairs.
* ``mode="lazy"`` — a per-row distance oracle: rows are computed on demand
  through the CSR kernel (:mod:`repro.graph.csr`) or scipy's
  ``csgraph.dijkstra(indices=...)``, and LRU-cached.  Peak memory is
  ``O(cache_rows * n)`` instead of ``O(n^2)``, matching the preprocessing
  access pattern (balls, landmark columns, row blocks).

``mode="auto"`` (the default) picks dense up to ``dense_threshold``
vertices and lazy above, so existing small-graph callers see bit-identical
behaviour while large-``n`` benchmarks stop paying quadratic memory.
Whole-matrix consumers were rewritten against the row-oriented API
(:meth:`rows`, :meth:`columns`, :meth:`iter_row_blocks`,
:meth:`iter_bounded_rows`, :meth:`count_rows_below`); :attr:`matrix`
remains as an escape hatch that materializes (and keeps) the full
symmetrized matrix.

:meth:`MetricView.next_hop` reads one int32 *next-hop row* per source, built
from the neighbours' distance rows in batched fetches of a few MB; dense
mode keeps every such row, lazy mode an LRU of ``cache_rows`` of them.

Canonical row orientation
-------------------------
On weighted graphs a float shortest-path sum depends on the accumulation
order, so the forward value ``d_fwd(u, v)`` (Dijkstra from ``u``) and the
reverse one ``d_fwd(v, u)`` can differ by one ulp at exact real ties.  All
of :meth:`row`, :meth:`d`, :meth:`rows`, :meth:`columns` and the block
iterators therefore return the **forward row orientation**: ``d(u, v)`` is
always the value computed from ``u``'s side, in every mode and on every
dispatch path (dense, lazy, CSR kernel, scipy, pure) — they are the same
least float64 fixpoint, hence bit-identical.  Consumers that compare
distances strictly (cluster membership, pivots) always read one
orientation consistently, which keeps every structure exact without the
old dense-mode ``min(dist, dist.T)`` rewrite that the lazy oracle could
not reproduce.  :attr:`matrix` still returns an exactly-symmetric matrix
for external code that expects one.

Floating point
--------------
Weighted graphs use float weights, so "is this edge on a shortest path?"
is decided with a relative tolerance (:attr:`MetricView.tol`).  All
structures derive shortest-path facts from the *same* oracle, which keeps
them mutually consistent.  In lazy mode the tolerance scale is the running
maximum over all finite distances computed up to the first tolerance read
(frozen afterwards, so band decisions stay self-consistent within a
build) — always within a factor of two of the dense scale, because any
eccentricity is at least half the diameter, without ever paying a full
all-pairs scan.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .core import Graph
from .shortest_paths import (
    dijkstra,
    dijkstra_py,
    subgraph_dijkstra,
    use_kernel,
)
from .trees import parents_from_pred_row

__all__ = ["MetricView"]

_INF = float("inf")

#: bytes of neighbour distance rows one next-hop row compares per batch
_HOP_BLOCK_BYTES = 1 << 22


class MetricView:
    """Immutable exact-distance oracle over a graph.

    Parameters
    ----------
    g:
        The (connected) graph.
    use_scipy:
        Use ``scipy.sparse.csgraph.dijkstra`` for distance computations.
        The pure-Python path exists for environments without scipy and for
        differential testing.
    mode:
        ``"dense"`` (eager all-pairs matrix), ``"lazy"`` (on-demand
        LRU-cached rows) or ``"auto"`` (dense up to ``dense_threshold``
        vertices).
    dense_threshold:
        The ``auto`` cut-over size.
    cache_rows:
        Lazy-mode LRU capacity per kind of row (distance, next hop);
        defaults to ``max(32, 4 sqrt(n))``, so ``O(sqrt(n) * n)`` memory.
    """

    def __init__(
        self,
        g: Graph,
        use_scipy: bool = True,
        *,
        mode: str = "auto",
        dense_threshold: int = 2048,
        cache_rows: Optional[int] = None,
    ) -> None:
        if mode not in ("auto", "dense", "lazy"):
            raise ValueError(f"unknown MetricView mode {mode!r}")
        self.graph = g
        self.n = g.n
        self._use_scipy = bool(use_scipy)
        if mode == "auto":
            mode = "dense" if g.n <= dense_threshold else "lazy"
        self._mode = mode
        self._csr = None
        self._dist: Optional[np.ndarray] = None
        self._sym: Optional[np.ndarray] = None
        self._tol: Optional[float] = None
        self._scale_seen = 0.0
        #: forward rows computed so far (full-length distance rows).
        self.rows_computed = 0
        #: sources swept by the bounded (truncated) kernel engine.
        self.bounded_rows_computed = 0
        self._row_cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._cache_rows = (
            cache_rows
            if cache_rows is not None
            else max(32, 4 * int(math.isqrt(max(1, g.n))))
        )
        self._diameter: Optional[float] = None
        self._stats: Optional[Tuple[bool, float, float]] = None
        #: next-hop rows by source; an LRU only in lazy mode (_next_hop_row)
        self._hop_rows: "OrderedDict[int, np.ndarray]" = OrderedDict()
        #: batched SPT predecessor rows staged by prefetch_spt_parents,
        #: consumed (popped) by spt_parents.
        self._pred_rows: Dict[int, np.ndarray] = {}

        if self._mode == "dense":
            if self._use_scipy and g.n > 0 and g.m > 0:
                try:
                    from scipy.sparse.csgraph import (
                        dijkstra as csgraph_dijkstra,
                    )
                except ImportError:
                    self._use_scipy = False
                else:
                    self._csr = g.to_csr()
                    # Raw forward rows — the canonical orientation every
                    # mode shares (see the module docstring); the
                    # symmetrized escape hatch lives behind ``matrix``.
                    # Both edge directions are stored: no transpose needed.
                    self._dist = csgraph_dijkstra(self._csr, directed=True)
            if self._dist is None:
                rows = []
                for u in g.vertices():
                    dist_u, _ = dijkstra_py(g, u)
                    rows.append(dist_u)
                self._dist = (
                    np.asarray(rows, dtype=float)
                    if rows
                    else np.zeros((0, 0), dtype=float)
                )
            self.rows_computed += g.n
            finite = self._dist[np.isfinite(self._dist)]
            scale = float(finite.max()) if finite.size else 1.0
            self._tol = 1e-9 * max(scale, 1.0)

    # ------------------------------------------------------------------
    # Mode and kernel plumbing
    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """``"dense"`` or ``"lazy"`` (resolved, never ``"auto"``)."""
        return self._mode

    @property
    def is_lazy(self) -> bool:
        return self._mode == "lazy"

    def _kernel(self):
        """The CSR kernel of the graph, or ``None`` on the pure path."""
        if self.n == 0 or not use_kernel():
            return None
        from .csr import csr_graph

        return csr_graph(self.graph)

    @property
    def tol(self) -> float:
        """Absolute tolerance for shortest-path membership tests.

        Dense mode fixes the scale at construction (the true maximum
        finite distance).  Lazy mode derives it from the *running* maximum
        over every row computed up to the first tolerance read, then
        freezes it: any single eccentricity is at least half the diameter,
        so the lazy scale always sits within a factor of two of the dense
        one, and freezing keeps every strict-band decision in one
        structure build self-consistent (a tolerance that kept growing
        with later rows could make ``ball_radius`` disagree with the
        radii ``all_balls`` already returned).  A heuristic, like the
        tolerance itself — it only sets the order of magnitude.
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
        if not sources:
            return np.zeros((0, self.n), dtype=np.float64)
        kernel = self._kernel()
        if kernel is not None:
            out = kernel.rows(sources, prefer_scipy=self._use_scipy)
        else:
            out = np.empty((len(sources), self.n), dtype=np.float64)
            for i, s in enumerate(sources):
                out[i] = dijkstra(self.graph, s)[0]
        self.rows_computed += len(sources)
        finite = out[np.isfinite(out)]
        if finite.size:
            self._scale_seen = max(self._scale_seen, float(finite.max()))
        return out

    def row(self, u: int) -> np.ndarray:
        """Read-only distance row of ``u`` (length ``n``)."""
        if self._dist is not None:
            return self._dist[u]
        cached = self._row_cache.get(u)
        if cached is not None:
            self._row_cache.move_to_end(u)
            return cached
        row = self._compute_rows([u])[0]
        self._row_cache[u] = row
        if len(self._row_cache) > self._cache_rows:
            self._row_cache.popitem(last=False)
        return row

    def d(self, u: int, v: int) -> float:
        """Exact distance between ``u`` and ``v``."""
        if self._dist is not None:
            return float(self._dist[u, v])
        return float(self.row(u)[v])

    def rows(self, sources: Sequence[int]) -> np.ndarray:
        """Distance rows for ``sources`` as a ``(len(sources), n)`` array."""
        sources = list(sources)
        if self._dist is not None:
            return self._dist[sources]
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
        """Insert a computed row into the lazy LRU cache (no-op when dense)."""
        if self._dist is not None:
            return
        self._row_cache[u] = row
        self._row_cache.move_to_end(u)
        while len(self._row_cache) > self._cache_rows:
            self._row_cache.popitem(last=False)

    def columns(self, members: Sequence[int]) -> np.ndarray:
        """Distance columns of ``members`` as an ``(n, len(members))`` array.

        ``columns(A)[v, j]`` is the canonical forward value ``d(a_j, v)``
        — the members' rows transposed, ``O(|members| * n)`` memory in
        lazy mode, which is exactly the landmark access pattern of the
        preprocessing phase.  Every consumer that compares these against
        row reads uses the same ``(… , v)`` orientation, so strict
        comparisons stay exact (see the module docstring).
        """
        return self.rows(members).T

    def iter_row_blocks(
        self, block_rows: Optional[int] = None
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(start, rows)`` blocks covering all sources in order.

        Dense mode yields the whole matrix as one zero-copy block; lazy
        mode computes transient blocks of ``block_rows`` rows (default
        sized so a block stays a few MB) without populating the row cache,
        so a full scan stays ``O(block * n)`` memory.
        """
        if self.n == 0:
            return
        if self._dist is not None:
            yield 0, self._dist
            return
        if block_rows is None:
            block_rows = max(1, (1 << 22) // max(1, 8 * self.n))
        for start in range(0, self.n, block_rows):
            stop = min(start + block_rows, self.n)
            yield start, self._compute_rows(range(start, stop))

    def iter_bounded_rows(
        self, limits, sources: Optional[Sequence[int]] = None
    ) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(u, verts, dists)`` with ``d(u, v) < limit`` per source.

        ``limits`` is a scalar or a per-source array; ``verts`` ascends by
        vertex id and covers exactly the vertices strictly closer than the
        source's limit (``inf`` sweeps the whole component).  This is the
        cluster-scan primitive of the Section 2 structures: with a lazy
        metric and the CSR kernel it runs the batched truncated
        delta-stepping engine — work proportional to the scanned
        neighbourhoods, never a full APSP — and otherwise it filters
        full rows (free in dense mode).
        """
        if sources is None:
            sources = range(self.n)
        sources = list(sources)
        lim = np.broadcast_to(
            np.asarray(limits, dtype=np.float64), (len(sources),)
        )
        if self._dist is None:
            kernel = self._kernel()
            if kernel is not None:
                self.bounded_rows_computed += len(sources)
                yield from kernel.bounded_rows(sources, lim)
                return
        for i, u in enumerate(sources):
            row = self.row(u)
            verts = np.flatnonzero(row < lim[i])
            yield u, verts, row[verts]

    def count_rows_below(
        self,
        thresholds: np.ndarray,
        sources: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """``out[i] = |{v : d(sources[i], v) < thresholds[v]}|``.

        The cluster-size count of Lemma 4 (all of ``V`` when ``sources``
        is omitted).  No vertex beyond ``max(thresholds)`` can ever be
        counted, so the lazy path scans bounded neighbourhoods through
        :meth:`iter_bounded_rows` instead of full rows; the dense path
        reads the matrix rows it already has.  Both count the exact same
        strict comparisons on the same canonical forward rows.
        """
        if sources is None:
            sources = range(self.n)
        sources = list(sources)
        if self._dist is not None:
            return (
                (self._dist[sources] < thresholds[None, :])
                .sum(axis=1)
                .astype(np.int64)
            )
        out = np.zeros(len(sources), dtype=np.int64)
        limit = float(thresholds.max()) if thresholds.size else 0.0
        for i, (_, verts, dists) in enumerate(
            self.iter_bounded_rows(limit, sources)
        ):
            out[i] = int((dists < thresholds[verts]).sum())
        return out

    @property
    def matrix(self) -> np.ndarray:
        """The full symmetrized ``n x n`` distance matrix (do not mutate).

        Escape hatch for external code that expects an exactly-symmetric
        all-pairs matrix: ``min(d_fwd, d_fwd.T)`` over the forward rows,
        materialized (and kept) on first access — ``O(n^2)`` memory, plus
        the raw forward matrix in lazy mode.  Internal consumers use the
        row-oriented API, which keeps the canonical forward orientation
        (see the module docstring) instead.
        """
        if self._sym is None:
            if self._dist is None:
                blocks = [block for _, block in self.iter_row_blocks()]
                self._dist = (
                    np.vstack(blocks)
                    if blocks
                    else np.zeros((0, 0), dtype=float)
                )
                self._row_cache.clear()
            self._sym = np.minimum(self._dist, self._dist.T)
        return self._sym

    # ------------------------------------------------------------------
    # Global scalar facts
    # ------------------------------------------------------------------
    def _scan_stats(self) -> Tuple[bool, float, float]:
        """``(all_finite, max_finite, min_finite_offdiag)`` over all pairs.

        One blockwise pass in lazy mode (cached); direct reads when dense.
        """
        if self._stats is None:
            all_finite = True
            dmax = 0.0
            dmin = _INF
            any_finite = False
            for start, block in self.iter_row_blocks():
                finite_mask = np.isfinite(block)
                if not finite_mask.all():
                    all_finite = False
                finite = block[finite_mask]
                if finite.size:
                    any_finite = True
                    dmax = max(dmax, float(finite.max()))
                    # Exclude the diagonal zeros from the minimum.
                    rows_idx, cols_idx = np.nonzero(finite_mask)
                    offdiag = block[finite_mask][
                        (rows_idx + start) != cols_idx
                    ]
                    if offdiag.size:
                        dmin = min(dmin, float(offdiag.min()))
            if not any_finite:
                dmax = 0.0
            self._stats = (all_finite, dmax, dmin)
        return self._stats

    def is_connected(self) -> bool:
        """True when every pairwise distance is finite."""
        if self._dist is not None:
            return bool(np.isfinite(self._dist).all())
        if self.n == 0:
            return True
        # Undirected graph: one row decides connectivity — no need for
        # the full blockwise scan (row 0 is cached; the tol estimate
        # computes it anyway).
        return bool(np.isfinite(self.row(0)).all())

    def diameter(self) -> float:
        """Maximum finite pairwise distance (cached — hot in Lemma 8)."""
        if self._diameter is None:
            if self._dist is not None:
                finite = self._dist[np.isfinite(self._dist)]
                self._diameter = float(finite.max()) if finite.size else 0.0
            else:
                self._diameter = self._scan_stats()[1]
        return self._diameter

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
        """``min_{u != v} d(u, v)`` (the paper's ``omega_min`` analogue)."""
        if self.n < 2:
            return 1.0
        if self._dist is not None:
            off_diag = self._dist[~np.eye(self.n, dtype=bool)]
            finite = off_diag[np.isfinite(off_diag)]
            return float(finite.min()) if finite.size else 1.0
        dmin = self._scan_stats()[2]
        return dmin if math.isfinite(dmin) else 1.0

    # ------------------------------------------------------------------
    # Shortest-path structure
    # ------------------------------------------------------------------
    def on_shortest_path(self, u: int, x: int, v: int) -> bool:
        """Whether ``x`` lies on some shortest ``u``–``v`` path."""
        return abs(self.d(u, x) + self.d(x, v) - self.d(u, v)) <= self.tol

    def is_tight_edge(self, u: int, v: int) -> bool:
        """Whether edge ``{u, v}`` realizes the distance between u and v."""
        return abs(self.graph.weight(u, v) - self.d(u, v)) <= self.tol

    def tight_min_weight(self) -> float:
        """Minimum weight among edges lying on shortest paths.

        This is the paper's ``omega_min`` from Lemma 8: edges with
        ``w(u,v) > d(u,v)`` never appear on shortest paths and are ignored.
        With the CSR kernel available the scan is vectorized per distance
        row block; the scalar edge loop remains as the fallback.
        """
        kernel = self._kernel()
        if kernel is not None and self.graph.m > 0:
            tol = self.tol
            best = _INF
            indptr, indices, weights = (
                kernel.indptr,
                kernel.indices,
                kernel.weights,
            )
            for start, block in self.iter_row_blocks():
                for i in range(block.shape[0]):
                    u = start + i
                    lo, hi = indptr[u], indptr[u + 1]
                    if lo == hi:
                        continue
                    w_u = weights[lo:hi]
                    d_u = block[i, indices[lo:hi]]
                    tight = np.abs(w_u - d_u) <= tol
                    if tight.any():
                        best = min(best, float(w_u[tight].min()))
            if best is _INF or not math.isfinite(best):
                raise ValueError("graph has no shortest-path edges")
            return best
        weights = [
            w for u, v, w in self.graph.edges() if self.is_tight_edge(u, v)
        ]
        if not weights:
            raise ValueError("graph has no shortest-path edges")
        return min(weights)

    def _next_hop_row(self, u: int) -> np.ndarray:
        """Compute and cache ``u``'s first hops (int32, length ``n``).

        ``out[v]`` is the neighbour ``x`` with the smallest ``(d(x, v), x)``
        among tight edges (``w(u, x) + d(x, v) = d(u, v)`` within
        :attr:`tol`); ``out[u] = u``, ``-1`` marks unreachable targets and
        ``-2`` a reachable target with no tight edge.
        """
        row_u = self.row(u)
        nbrs = sorted(self.graph.neighbors(u))
        best_d = np.full(self.n, _INF)
        hops = np.where(np.isfinite(row_u), -2, -1).astype(np.int32)
        # Ascending-id neighbour blocks of a few MB; argmin keeps the first
        # minimum and later blocks must improve strictly, so ties go to the
        # smaller id.  Unreachable targets give inf - inf = nan: not tight.
        block = max(1, _HOP_BLOCK_BYTES // max(1, 8 * self.n))
        for lo in range(0, len(nbrs), block):
            xs = nbrs[lo : lo + block]
            rows_x = self.rows(xs)
            w = np.array([self.graph.weight(u, x) for x in xs])
            with np.errstate(invalid="ignore"):
                tight = np.abs(w[:, None] + rows_x - row_u) <= self.tol
            cand = np.where(tight, rows_x, _INF)
            first = cand.argmin(axis=0)
            best = cand.min(axis=0)
            better = best < best_d
            best_d[better] = best[better]
            hops[better] = np.asarray(xs, dtype=np.int32)[first[better]]
        hops[u] = u
        self._hop_rows[u] = hops
        if self._dist is None and len(self._hop_rows) > self._cache_rows:
            self._hop_rows.popitem(last=False)
        return hops

    def next_hop(self, u: int, v: int) -> int:
        """First vertex after ``u`` on a shortest ``u``–``v`` path.

        Deterministic choice: among neighbours ``x`` with
        ``w(u,x) + d(x,v) = d(u,v)``, the one with the smallest
        ``(d(x,v), x)`` — i.e. maximal progress, ties to the smaller id.
        """
        if u == v:
            raise ValueError("next_hop undefined for u == v")
        hops = self._hop_rows.get(u)
        if hops is None:
            hops = self._next_hop_row(u)
        elif self._dist is None:
            self._hop_rows.move_to_end(u)
        hop = int(hops[v])
        if hop < 0:
            if hop == -1:
                raise ValueError(f"{v} unreachable from {u}")
            raise RuntimeError(
                f"no tight edge out of {u} toward {v}; inconsistent metric"
            )
        return hop

    def prefetch_spt_parents(self, roots: Sequence[int]) -> None:
        """Stage predecessor rows for many roots in one batched sweep.

        Runs the kernel's (possibly multiprocess, see
        :mod:`repro.graph.parallel`) batched Dijkstra once over all
        ``roots`` and caches one predecessor row per root;
        :meth:`spt_parents` consumes the cache.  The rows come from the
        same scipy matrix the per-root path would use, so the resulting
        trees are bit-identical with or without prefetching.

        No-op (the per-root path stays authoritative) in dense mode —
        where ``spt_parents`` runs on the dense-precompute matrix, not
        the kernel's — and whenever scipy or the kernel is unavailable.
        """
        if self._csr is not None or not self._use_scipy:
            return
        kernel = self._kernel()
        if kernel is None:
            return
        missing = [r for r in dict.fromkeys(int(r) for r in roots)
                   if r not in self._pred_rows]
        if not missing:
            return
        rows = kernel.spt_pred_rows(missing)
        if rows is None:
            return
        for r, row in zip(missing, rows):
            self._pred_rows[r] = row

    def spt_parents(self, root: int) -> Dict[int, int]:
        """A shortest-path tree rooted at ``root`` as a child->parent map.

        Uses scipy's C Dijkstra when available (the hot path — schemes build
        hundreds of trees).  Any valid SPT serves tree routing; consistency
        with the distance oracle is guaranteed because distances agree.
        Rows staged by :meth:`prefetch_spt_parents` are consumed first.
        """
        staged = self._pred_rows.pop(root, None)
        if staged is not None:
            return parents_from_pred_row(root, staged)
        mat = self._csr
        if mat is None and self._use_scipy:
            kernel = self._kernel()
            if kernel is not None:
                mat = kernel._scipy_matrix()
        if mat is not None:
            from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

            _, pred = csgraph_dijkstra(
                mat, directed=False, indices=root,
                return_predecessors=True,
            )
            parents = {root: root}
            for v in range(self.n):
                if v != root and pred[v] >= 0:
                    parents[v] = int(pred[v])
            return parents
        dist, parent = dijkstra(self.graph, root)
        parents = {root: root}
        for v in range(self.n):
            if v != root and parent[v] is not None:
                parents[v] = parent[v]
        return parents

    def restricted_spt_parents(
        self, root: int, members: Sequence[int]
    ) -> Dict[int, int]:
        """SPT parents restricted to a shortest-path-closed member set.

        Used for cluster trees ``T_{C_A(w)}``: every member's SPT parent is
        itself a member (closure), so the restriction is a valid tree.

        Runs Dijkstra on the *induced subgraph* — work proportional to the
        cluster instead of the whole graph (flat-array CSR kernel when
        active, an equivalent pure loop otherwise) — and validates closure
        by checking the induced distances against the oracle's global
        distances: they coincide exactly when the member set realizes all
        its shortest paths internally.  Both dispatch paths apply the same
        criterion, so they accept and reject the same member sets.
        """
        member_set = set(members)
        if root not in member_set:
            raise ValueError(f"root {root} not among members")
        dist, parent = subgraph_dijkstra(self.graph, root, members)
        row = self.row(root)
        tol = self.tol
        out = {root: root}
        for v in members:
            if v == root:
                continue
            dv = dist.get(v, _INF)
            if not math.isfinite(dv) or abs(dv - float(row[v])) > tol:
                raise ValueError(
                    f"member set not shortest-path closed toward {root}: "
                    f"induced distance of {v} is {dv}, global is "
                    f"{float(row[v])}"
                )
            out[v] = parent[v]
        return out

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

        In lazy mode this goes through the CSR kernel's chunked
        :meth:`~repro.graph.csr.CSRGraph.all_balls`, so the whole family
        costs ``O(chunk * n)`` memory; dense mode reads the matrix rows it
        already has.  Each mode is internally consistent (balls match that
        mode's :meth:`ball`/:meth:`row`); across modes results coincide
        exactly on unweighted graphs, while weighted distances can differ
        from the symmetrized dense matrix by one ulp at exact float ties
        (see the module docstring).
        """
        if self.n == 0 or ell <= 0:
            return (
                [[] for _ in range(self.n)],
                [0.0] * self.n if with_radii else None,
            )
        if self._dist is None:
            kernel = self._kernel()
            if kernel is not None:
                return kernel.all_balls(
                    min(ell, self.n),
                    tol=self.tol,
                    with_radii=with_radii,
                    prefer_scipy=self._use_scipy,
                )
        balls = [self.ball(u, ell) for u in range(self.n)]
        radii = (
            [self.ball_radius(u, balls[u]) for u in range(self.n)]
            if with_radii
            else None
        )
        return balls, radii

    def ball_radius(self, u: int, ball: Sequence[int]) -> float:
        """The paper's ``r_u(ell)`` for a ball produced by :meth:`ball`.

        The largest radius ``r`` such that *every* vertex at distance exactly
        ``r`` from ``u`` belongs to the ball.  Because balls are
        ``(dist, id)``-prefixes, this is the boundary distance when the
        boundary level is fully contained, else the previous level.
        """
        from .csr import _radius_from_row

        return _radius_from_row(self.row(u), list(ball), self.tol)
