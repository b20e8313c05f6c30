"""Flat-array CSR shortest-path kernel — the preprocessing hot path.

Every scheme in this reproduction spends nearly all of its preprocessing
time running (truncated) Dijkstra over the list-of-dicts :class:`Graph`.
This module provides an immutable, numpy-backed CSR mirror of a graph —
:class:`CSRGraph` — plus flat-array implementations of the shortest-path
primitives, and a batched :meth:`CSRGraph.all_balls` that computes the
paper's vicinities ``B(u, ell)`` for *every* vertex at once.

Kernel dispatch
---------------
Callers reach this module through :func:`repro.graph.shortest_paths.
all_balls` and :class:`~repro.graph.metric.MetricView`; every row, ball
and cluster scan of a build runs here.  ``REPRO_KERNEL`` only picks
whether the inner loops are numpy or the compiled ones of
:mod:`repro.native` (resolved once per process).  Whole distance rows
(:meth:`CSRGraph.rows`) are the threshold scan with all-``inf``
thresholds scattered into dense rows — the same engine as the cluster
scans, so there is one shortest-path engine; callers ask for rows in
blocks, so peak memory stays ``O(block * n)``.

Batched ball engines
--------------------
:meth:`CSRGraph.all_balls` is the one batched ball sweep: a vectorized
level BFS on unit weights, and otherwise a *bucketed delta-stepping*
engine (:meth:`_delta_batch`) directly over the flat CSR arrays, with the
compiled inner loop from :mod:`repro.native` when it loads.  A batch of
``B`` sources is embedded into one flattened index space (``p = i*n + v``
for batch position ``i``), so every per-bucket edge relaxation is a single
ragged numpy gather/scatter over all sources at once — no per-edge Python
work and no per-source O(n) allocation.  Tentative distances live in
persistent flat buffers reused across batches; instead of an O(B*n) refill,
only the entries touched by the previous batch are re-initialised (the
float analogue of the generation-stamp trick of the BFS sweep).

*Bucket width*: ``delta`` defaults to an eighth of the mean edge weight
(:meth:`CSRGraph.delta_width`).  Rounds cost little — the candidate queue
touches only the open bucket — while each source's settled overshoot is
one bucket past its ball boundary, and on neighbourhood expanders the
region grows exponentially with that margin, so narrow buckets win.  The
width never affects results — every bucket is relaxed to a fixpoint before
it is sealed, so final distances are the unique least fixpoint of
``d[v] = min(d[u] + w)`` in float64, bitwise identical to a heap Dijkstra.

Two truncation modes share the engine: *ball mode* stops a source once
``ell`` vertices settled and the bucket boundary cleared ``d_max + tol``
(everything the paper's radius rule can see is final), and *bounded mode*
(:meth:`bounded_rows`) drops every relaxation into ``v`` at or beyond a
per-vertex threshold ``thr[v]``.  With ``thr = d(·, S)`` that *threshold
scan* settles exactly the cluster ``C_S(s) = {v : d(s, v) < d(v, S)}`` of
each source — the Section 2 structures scan their clusters and nothing
else — and all-``inf`` thresholds sweep the whole component.

The CSR arrays are built once per :class:`Graph` *version* and cached on
the graph instance (:func:`csr_graph`); mutating the graph invalidates the
cache.  Per-source scratch state (tentative-distance and settled buffers)
is preallocated once per :class:`CSRGraph` and reset with a generation
counter instead of being reallocated for every source, which is what makes
the batched ball sweep cheap.

Tie-breaking invariant
----------------------
All kernels preserve the paper's Section 2 total order *exactly*: balls are
``(distance, id)``-ordered prefixes, and hop columns (the first hops
that shortest-path trees and walks read) take the tight neighbour with
the smallest ``(distance, id)``.  Distances are bitwise identical to a
heap Dijkstra's (the tests' pure-Python references): both accumulate the
same float64 edge weights along the same shortest paths, and the final
distance of a vertex is the minimum over the same candidate set
regardless of relaxation order.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import Graph

__all__ = ["CSRGraph", "csr_graph"]

_INF = float("inf")

#: default sizing budget for the delta-stepping batch (the flattened
#: tentative-distance buffer stays at ~half of this; candidate queues take
#: the rest).  Also caps batch*n at ~1M entries, so flattened ids — and
#: the batch-position sort key at extraction — stay comfortably narrow.
_DS_BATCH_BYTES = 1 << 24
_DS_NATIVE_BATCH_BYTES = 1 << 21

#: cap on the flattened (source, vertex) gather expansion inside one
#: delta-stepping relaxation round.  Frontiers on large batches can hold
#: millions of entries; blocking the ragged gather keeps every transient
#: (eidx/nd/tgt) array cache-sized and bounds per-worker peak memory in
#: the parallel tier.  Blocking never changes results: later blocks see
#: earlier blocks' dist scatters, which only filters candidates that are
#: superseded (or equal-valued duplicates whose minimum holder is already
#: queued) — the settled sets and least-fixpoint distances are identical.
_GATHER_BLOCK = 1 << 18


def _argsort_with_id_ties(keys: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Argsort by ``(keys, ids)`` without a stable float sort.

    numpy's stable (radix) argsort only covers 16-bit integers; its stable
    float path is ~6x slower than quicksort.  So: quicksort by ``keys``,
    then repair the (usually rare) equal-key runs with an exact
    ``(key, id)`` lexsort of just the tied entries.  Bitwise-deterministic
    for any input, fast when ties are sparse.
    """
    order = np.argsort(keys)
    sk = keys[order]
    tied = np.zeros(sk.size, dtype=bool)
    if sk.size > 1:
        np.equal(sk[1:], sk[:-1], out=tied[1:])
    if tied.any():
        tied[:-1] |= tied[1:]  # cover each run's head as well
        pos = np.flatnonzero(tied)
        sub = order[pos]
        order[pos] = sub[np.lexsort((ids[sub], keys[sub]))]
    return order


def _native_kernels():
    """The loaded native kernels when the resolved mode is ``native``.

    Resolved per call through the two process-level caches
    (:func:`repro.graph.shortest_paths.kernel_mode` and
    :func:`repro.native.try_kernels`), so tests flipping ``REPRO_KERNEL``
    between session-scoped graph fixtures see the flip — nothing is
    pinned on the graph object.
    """
    from .shortest_paths import kernel_mode

    if kernel_mode() != "native":
        return None
    from ..native import load_kernels

    return load_kernels()


def _queue_later(
    pending: Dict[int, List[Tuple[np.ndarray, np.ndarray]]],
    b: int,
    tgt: np.ndarray,
    nd: np.ndarray,
    delta: float,
    inv_delta: float,
) -> bool:
    """Queue out-of-bucket candidates under their bucket keys.

    Shared by the numpy and native engines (the native kernel returns its
    later-bucket candidates in one flat array and queues them through the
    exact same key pipeline).  Returns whether any key was int16-clamped,
    which re-arms the caller's spill guard.

    Bucket keys must agree with the boundary *float comparisons*
    (``nd < (k+1)*delta`` at apply/seal time), not just with
    ``floor(nd/delta)``: when ``nd`` sits one ulp below ``k*delta`` the
    product ``nd*inv_delta`` can round up to ``k``, which would settle the
    candidate one bucket late and let an exact distance tie span two
    buckets — breaking the (dist, id) assembly invariant.  One corrective
    compare pins ``k*delta <= nd``; a too-low key is healed by the spill
    guard.  (Truncation is floor here: every quotient is non-negative.)
    Keys are then clamped into int16, a radix-friendly two-byte sort key;
    the clamp re-arms the spill guard.
    """
    clipped = False
    rel = (nd * inv_delta).astype(np.int32)
    rel -= nd < rel * delta
    rel -= b + 1
    if int(rel.min()) < 0 or int(rel.max()) > 32000:
        np.clip(rel, 0, 32000, out=rel)
        clipped = True
    rel16 = rel.astype(np.int16)
    order = np.argsort(rel16, kind="stable")
    rel16 = rel16[order]
    tgt = tgt[order]
    nd = nd[order]
    cuts = np.flatnonzero(
        np.concatenate(([True], rel16[1:] != rel16[:-1]))
    )
    for j, lo in enumerate(cuts):
        hi = cuts[j + 1] if j + 1 < len(cuts) else rel16.size
        pending.setdefault(b + 1 + int(rel16[lo]), []).append(
            (tgt[lo:hi], nd[lo:hi])
        )
    return clipped


def csr_graph(g: Graph) -> "CSRGraph":
    """The CSR mirror of ``g``, built once per graph version and cached."""
    cached = g._csr_cache
    if cached is not None and cached[0] == g._version:
        return cached[1]
    kernel = CSRGraph.from_graph(g)
    g._csr_cache = (g._version, kernel)
    return kernel


class CSRGraph:
    """Immutable flat-array (CSR) view of an undirected weighted graph.

    ``indptr``/``indices``/``weights`` are the usual CSR triple with both
    edge directions materialized; per-row neighbour order is the graph's
    deterministic insertion order.
    """

    __slots__ = (
        "n",
        "m",
        "indptr",
        "indices",
        "weights",
        "_gen",
        "_np_stamp",
        "_degrees",
        "_unweighted",
        "_ds_dist",
        "_ds_delta",
        "_ds_csr32",
        "_ds_arange",
        "_ds_stamp",
        "_ds_gen",
        "_ds_wmax",
        "_parallel",
        "_edge_src",
        "__weakref__",
    )

    def __init__(
        self,
        n: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        self.n = int(n)
        self.m = int(len(indices) // 2)
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        # The BFS ball sweep's generation-stamped visited array: a slot is
        # valid only when its stamp equals the current generation, so
        # "resetting" all n slots between sources is an integer increment.
        self._gen = 0
        self._np_stamp = np.zeros(self.n, dtype=np.int64)
        self._degrees = np.diff(indptr)
        self._unweighted: Optional[bool] = None
        # Delta-stepping scratch (lazily grown, reused across batches).
        self._ds_dist: Optional[np.ndarray] = None
        self._ds_delta: Optional[float] = None
        self._ds_csr32 = None
        self._ds_arange: Optional[np.ndarray] = None
        # Native-tier scratch: a generation-stamped expansion record the
        # compiled bucket kernel uses instead of the numpy wave dedupe.
        self._ds_stamp: Optional[np.ndarray] = None
        self._ds_gen = 0
        self._ds_wmax: Optional[float] = None
        # The published multiprocess engine (repro.graph.parallel),
        # cached so one graph publishes its shared segments once.
        self._parallel: Optional[Any] = None
        # Source vertex of every CSR slot (the numpy hop column's gather).
        self._edge_src: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, g: Graph) -> "CSRGraph":
        """Build the CSR arrays from a :class:`Graph` (insertion order kept)."""
        n = g.n
        nnz = 2 * g.m
        indptr = np.zeros(n + 1, dtype=np.int64)
        indices = np.empty(nnz, dtype=np.int64)
        weights = np.empty(nnz, dtype=np.float64)
        pos = 0
        for u in range(n):
            adj_u = g._adj[u]
            indptr[u + 1] = indptr[u] + len(adj_u)
            for v, w in adj_u.items():
                indices[pos] = v
                weights[pos] = w
                pos += 1
        return cls(n, indptr, indices, weights)

    # ------------------------------------------------------------------
    # Batched kernels
    # ------------------------------------------------------------------
    def rows(self, sources: Sequence[int]) -> np.ndarray:
        """Distance rows for ``sources`` as a ``(len(sources), n)`` array.

        The threshold scan (:meth:`bounded_rows`) with all-``inf``
        thresholds settles each source's whole component with its least
        float64 fixpoint distances; those are scattered into ``inf`` rows.
        """
        sources = list(sources)
        out = np.full((len(sources), self.n), _INF)
        scan = self.bounded_rows(sources, np.full(self.n, _INF))
        for i, (_, verts, ds) in enumerate(scan):
            out[i, verts] = ds
        return out

    def hop_column(self, row: np.ndarray, v: int, tol: float) -> np.ndarray:
        """First hops toward ``v`` from every vertex, from ``row = d(v, .)``.

        ``out[u]`` is the neighbour ``x`` of ``u`` on a tight edge
        (``|(w(u, x) + row[x]) - row[u]| <= tol``) with the smallest
        ``(row[x], x)`` — maximal progress, ties to the smaller id;
        ``out[v] = v``, ``-1`` marks a ``u`` that cannot reach ``v`` and
        ``-2`` a reachable ``u`` with no tight edge.  One pass over the CSR
        arrays: the native kernel when it loads, else
        :meth:`_hop_column_numpy`, which evaluates the same float
        expression and returns the same column.
        """
        native = _native_kernels()
        if native is not None:
            indptr, indices, _ = self._ds_csr_arrays()
            return native.hop_column(
                indptr, indices, self.weights,
                np.ascontiguousarray(row, dtype=np.float64), v, tol,
            )
        return self._hop_column_numpy(row, v, tol)

    def _hop_column_numpy(
        self, row: np.ndarray, v: int, tol: float
    ) -> np.ndarray:
        """The numpy reference of :meth:`hop_column` (and its fallback)."""
        n = self.n
        out = np.where(np.isfinite(row), -2, -1).astype(np.int32)
        if self.indices.size:
            if self._edge_src is None:
                self._edge_src = np.repeat(
                    np.arange(n, dtype=np.int64), self._degrees
                )
            src = self._edge_src
            dx = row[self.indices]
            # An unreachable u gives inf - inf = nan: never tight.
            with np.errstate(invalid="ignore"):
                tight = np.abs((self.weights + dx) - row[src]) <= tol
            cand = np.where(tight, dx, _INF)
            # Per-vertex minima over the CSR segments: the least tight
            # distance, then the least id among the slots attaining it.
            owners = np.flatnonzero(self._degrees)
            starts = self.indptr[owners]
            best = np.full(n, _INF)
            best[owners] = np.minimum.reduceat(cand, starts)
            ids = np.where(tight & (cand == best[src]), self.indices, n)
            first = np.full(n, n, dtype=np.int64)
            first[owners] = np.minimum.reduceat(ids, starts)
            found = first < n
            out[found] = first[found]
        out[v] = v
        return out

    def _resolve_ball_engine(
        self, engine: Optional[str], *, tol: float
    ) -> str:
        """Resolve the ``all_balls`` engine name to a concrete choice.

        Auto picks BFS on unit weights and delta otherwise; an explicit
        ``bfs`` on weighted input, or any other name, raises rather than
        silently timing a different engine (benchmarks race engines by
        name).  Factored out so the parallel tier ships workers a
        concrete engine, never the auto rule.
        """
        unit = self.is_unweighted() and tol < 0.5
        if engine is None:
            # Unit weights: distances are exact integer levels and a level
            # set ordered by id IS the (dist, id) order, so a vectorized
            # level-BFS reproduces the Dijkstra balls.
            return "bfs" if unit else "delta"
        if engine == "bfs":
            if not unit:
                raise ValueError("bfs engine requires unit weights")
            return "bfs"
        if engine != "delta":
            raise ValueError(f"unknown all_balls engine {engine!r}")
        return "delta"

    def all_balls(
        self,
        ell: int,
        *,
        tol: float = 0.0,
        with_radii: bool = False,
        batch_bytes: int = _DS_BATCH_BYTES,
        engine: Optional[str] = None,
        as_arrays: bool = False,
    ) -> Union[
        Tuple[List[List[int]], Optional[List[float]]],
        Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]],
    ]:
        """``B(u, ell)`` for every vertex ``u``, in ``(dist, id)`` order.

        ``engine`` picks the batched implementation:

        * ``None`` (auto) — vectorized level BFS on unit-weight graphs,
          the delta-stepping engine otherwise.
        * ``"delta"`` — force the delta-stepping engine.
        * ``"bfs"`` — the unit-weight level sweep (unit weights only).

        When ``REPRO_PARALLEL`` enables the multiprocess tier (see
        :mod:`repro.graph.parallel`) the source range is fanned out over
        shared-memory workers each running the very same engine; results
        are spliced back in source order and are bit-identical to the
        serial sweep for every engine.

        ``as_arrays=True`` returns the compact ``(bounds, verts, radii)``
        arrays instead of Python lists — ``verts[bounds[u]:bounds[u+1]]``
        is ``B(u, ell)`` — which is what 10^5+-vertex builds want (the
        list-of-lists materialization dwarfs the compute there).

        Every engine returns exactly the same balls and radii.
        """
        n = self.n
        ell = min(ell, n)
        if n == 0 or ell <= 0:
            if as_arrays:
                return (
                    np.zeros(n + 1, dtype=np.int64),
                    np.empty(0, dtype=np.int32),
                    np.zeros(n) if with_radii else None,
                )
            return [[] for _ in range(n)], ([0.0] * n if with_radii else None)
        resolved = self._resolve_ball_engine(engine, tol=tol)
        from . import parallel

        # n sources, each settling ell vertices and scanning their edges
        eng = parallel.engine_for(
            self, 2 * self.m * ell, floor=parallel._MIN_PARALLEL_WORK
        )
        if eng is not None:
            bounds, verts, radii_arr = eng.ball_arrays(
                n,
                ell,
                tol=tol,
                with_radii=with_radii,
                engine=resolved,
                batch_bytes=batch_bytes,
            )
        else:
            bounds, verts, radii_arr = self._ball_chunk_arrays(
                0,
                n,
                ell,
                tol=tol,
                with_radii=with_radii,
                engine=resolved,
                batch_bytes=batch_bytes,
            )
        if as_arrays:
            return bounds, verts, radii_arr
        balls = [
            verts[bounds[u] : bounds[u + 1]].tolist() for u in range(n)
        ]
        radii = radii_arr.tolist() if radii_arr is not None else None
        return balls, radii

    def _ball_chunk_arrays(
        self,
        lo: int,
        hi: int,
        ell: int,
        *,
        tol: float,
        with_radii: bool,
        engine: str,
        batch_bytes: int = _DS_BATCH_BYTES,
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Balls for the source range ``[lo, hi)`` as compact arrays.

        The unit of work the parallel tier ships to a worker: returns
        ``(bounds, verts, radii)`` with ``bounds`` of length
        ``hi - lo + 1`` and ``verts[bounds[i]:bounds[i+1]]`` the ball of
        source ``lo + i``.  ``engine`` must already be resolved.
        """
        if engine == "bfs":
            return self._ball_chunk_bfs(lo, hi, ell, with_radii=with_radii)
        return self._ball_chunk_delta(
            lo, hi, ell, tol=tol, with_radii=with_radii,
            batch_bytes=batch_bytes,
        )

    def is_unweighted(self) -> bool:
        """True when every edge weight is exactly 1.0 (cached)."""
        if self._unweighted is None:
            self._unweighted = bool(np.all(self.weights == 1.0))
        return self._unweighted

    # ------------------------------------------------------------------
    # Delta-stepping engine
    # ------------------------------------------------------------------
    def delta_width(self) -> float:
        """Default bucket width: one eighth of the mean edge weight.

        Small buckets keep the settled overshoot (one bucket past each
        source's ball boundary) tight — on neighbourhood-expander graphs
        the region grows exponentially with distance, so the margin
        matters far more than the round count; rounds themselves are
        cheap because the candidate queue touches only the open bucket.
        Any positive width is *correct* (buckets relax to a fixpoint
        before sealing); the width only tunes the work profile.  Measured
        on the bench workload (ER ``n=2000, m~4n``, uniform ``[1, 10]``
        weights), ``mean/8``–``mean/16`` is the flat optimum.
        """
        if self._ds_delta is None:
            w = self.weights
            mean = float(w.mean()) if w.size else 1.0
            self._ds_delta = mean / 8.0 if mean > 0.0 else 1.0
        return self._ds_delta

    def _ds_batch_size(self, batch_bytes: int = _DS_BATCH_BYTES) -> int:
        """Sources per delta batch so the scratch stays ~``batch_bytes``.

        The native engine's scratch is a 24-byte per-vertex record that
        its scalar hot loop revisits constantly, so it runs smaller,
        cache-sized batches than the numpy engine's vectorised sweeps.
        Per-source outputs are independent of the batch split (each
        source's fixpoint and bookkeeping never read another source's
        state), so the engines stay bit-identical while batching
        differently.
        """
        if _native_kernels() is not None:
            batch_bytes = min(batch_bytes, _DS_NATIVE_BATCH_BYTES)
            per_source = 24 * self.n
        else:
            per_source = 16 * self.n
        return max(1, min(self.n, batch_bytes // max(1, per_source)))

    def _ds_csr_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Int32 CSR mirrors for the engine (half the gather traffic).

        Flattened ``(batch, vertex)`` ids stay below ``batch * n``, which
        :meth:`_ds_batch_size` keeps well inside int32 range, so the whole
        index pipeline — including its radix sorts — runs on 4-byte ints.
        """
        if self._ds_csr32 is None:
            self._ds_csr32 = (
                self.indptr.astype(np.int32),
                self.indices.astype(np.int32),
                self._degrees.astype(np.int32),
            )
        return self._ds_csr32

    def _ds_buffers(self, batch: int) -> np.ndarray:
        """Persistent flattened ``(batch * n)`` scratch, inf-initialised.

        Reused across batches; callers must restore every touched entry to
        ``inf`` before returning (sparse reset — the float analogue of the
        generation-stamp trick).
        """
        need = batch * self.n
        if self._ds_dist is None or self._ds_dist.size < need:
            self._ds_dist = np.full(need, _INF)
        return self._ds_dist

    def _ds_ring_size(self, delta: float) -> int:
        """Bucket-ring slots for the native engine: ``wmax/delta`` + slop.

        A candidate generated in bucket ``b`` has ``nd < (b+1)*delta +
        wmax``, so its key lands within ``wmax/delta`` buckets ahead; the
        slop covers the corrective-compare and requeue-one-ahead edges.
        """
        if self._ds_wmax is None:
            self._ds_wmax = (
                float(self.weights.max()) if self.weights.size else 0.0
            )
        return int(self._ds_wmax / delta) + 8

    def _ds_native_vtx(self, batch: int) -> Tuple[np.ndarray, int]:
        """Scratch for the native batch kernel: ``(vtx, gen)``.

        ``vtx`` is ``batch * n`` interleaved 24-byte records ``{dist,
        expanded, stamp}`` — one cache-line touch per vertex access in
        the C hot loop.  A record is valid only while its stamp matches
        the generation (the kernel reads untouched slots as ``+inf``),
        so clearing all slots between kernel calls is one integer
        increment; the buffer is zeroed once at allocation and the
        generation starts at 1, so a zero stamp is never current (and
        int64 never wraps).
        """
        need = 3 * batch * self.n
        if self._ds_stamp is None or self._ds_stamp.size < need:
            self._ds_stamp = np.zeros(need, dtype=np.int64)
            self._ds_gen = 0
        self._ds_gen += 1
        return self._ds_stamp, self._ds_gen

    def _ds_arange_view(self, tot: int) -> np.ndarray:
        """A read-only ``arange(tot)`` view from a grown-on-demand buffer."""
        if self._ds_arange is None or self._ds_arange.size < tot:
            self._ds_arange = np.arange(
                max(tot, 2 * len(self.indices) or 1), dtype=np.int32
            )
        return self._ds_arange[:tot]

    def _delta_batch(
        self,
        sources: Sequence[int],
        *,
        ell: Optional[int] = None,
        thresholds: Optional[np.ndarray] = None,
        tol: float = 0.0,
        delta: Optional[float] = None,
        prune: float = _INF,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One bucketed delta-stepping pass over a batch of sources.

        Exactly one of the truncation modes applies:

        * *ball mode* (``ell``): a source finishes once ``ell`` of its
          vertices settled **and** the sealed bucket boundary cleared the
          fill boundary by ``tol`` — every distance the radius rule can
          inspect is final at that point.
        * *bounded mode* (``thresholds``, length ``n``): every
          relaxation into ``v`` at or beyond ``thresholds[v]`` is
          dropped (and so is such an output), and a source finishes when
          its queue runs dry.  For ``thresholds = d(·, S)`` the cluster
          ``{v : d(s, v) < d(v, S)}`` is shortest-path closed toward
          ``s`` — ``x`` on a shortest ``s``–``v`` path has ``d(x, S) >=
          d(v, S) - d(x, v) > d(s, x)``, in float64 too, since rows are
          least fixpoints — so exactly the cluster settles, at its exact
          distances; all-``inf`` thresholds sweep the whole component.

        ``prune`` discards relaxation candidates at distance >= ``prune``
        *before* the scatter, confining the search to the target
        neighbourhood instead of everything below the bucket boundary.
        Distances below ``prune`` stay exact (every prefix of a shortest
        path is at most its endpoint's distance, so no contributing
        relaxation is dropped); entries at or beyond it may be missing or
        stale, which callers must account for (bounded mode leaves it at
        ``inf``; ball mode certifies ``d_max + tol < prune`` per source
        and recomputes the rest).

        Returns ``(bounds, verts, dists)``: per-source slices
        ``verts[bounds[i]:bounds[i+1]]`` of settled vertices, sorted by
        ``(dist, id)`` in ball mode and by ``id`` in bounded mode.
        Distances are the least float64 fixpoint of the Bellman relaxation
        — bitwise identical to the scalar Dijkstra kernels.
        """
        n = self.n
        srcs = np.asarray(list(sources), dtype=np.int64)
        nb = len(srcs)
        if nb == 0:
            return (
                np.zeros(1, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
            )
        if delta is None:
            delta = self.delta_width()
        cap = np.full(nb, prune)
        indptr, indices, degrees = self._ds_csr_arrays()
        weights = self.weights
        start = np.arange(nb, dtype=np.int32) * np.int32(n) + srcs.astype(
            np.int32
        )
        native = _native_kernels()
        if native is not None:
            # Compiled engine: one call runs the whole batch — bucket
            # queue, apply/relax fixpoints, scatter-min, sealing and the
            # per-source fill/finish bookkeeping all in C over zero-copy
            # pointers into the CSR mirrors and the cap array (mutated
            # in place, exactly like the loop below).  Settled ids come
            # back in bucket order with their final distances: ball-mode
            # chunks already (dist, id)-sorted — the concatenated
            # per-chunk assembly the numpy path builds below — so the
            # only work left is the shared per-source regrouping.
            vtx, gen = self._ds_native_vtx(nb)
            settled, settled_d = native.delta_batch(
                indptr, indices, weights, n, nb, start, vtx, cap,
                thresholds, delta, self._ds_ring_size(delta), ell, tol,
                gen,
            )
            if thresholds is None:
                all_t, ds = settled, settled_d
            else:
                order = np.argsort(settled)
                all_t = settled[order]
                ds = settled_d[order]
            return self._ds_assemble(all_t, ds, nb, thresholds)
        dist = self._ds_buffers(nb)
        inv_delta = 1.0 / delta
        # Candidate bucket queue: pending[b] holds (target, dist) chunks
        # whose tentative distance lies in [b*delta, (b+1)*delta).
        # Candidates scatter their minimum into the dist buffer the
        # moment they are generated (so later, worse candidates for the
        # same vertex are never queued), and a queued entry is *applied*
        # — confirmed equal to the surviving tentative value — only once
        # its bucket opens.  Nothing is ever rescanned across buckets.
        pending: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {
            0: [(start, np.zeros(nb, dtype=np.float64))]
        }
        # Sources are queued like any candidate but must also be
        # pre-scattered: apply never writes the dist buffer, generation
        # does.
        dist[start] = 0.0
        touched: List[np.ndarray] = [start]
        any_clipped = False
        settled_chunks: List[np.ndarray] = []
        counts = np.zeros(nb, dtype=np.int64)
        fill_t = np.full(nb, _INF)
        done = np.zeros(nb, dtype=bool)
        has_cap = bool(np.isfinite(cap).any())
        while pending:
            b = min(pending)
            chunks = pending.pop(b)
            t_high = (b + 1) * delta
            if len(chunks) == 1:
                cand_t, cand_d = chunks[0]
            else:
                cand_t = np.concatenate([c[0] for c in chunks])
                cand_d = np.concatenate([c[1] for c in chunks])
            # Bucket keys agree with the boundary comparisons by
            # construction (see the key fix-up below), so a candidate can
            # only sit at or past its bucket's boundary when its key was
            # int16-clamped; the spill scan runs only once that has
            # happened, forwarding such candidates bucket by bucket —
            # the monotone requeue keeps sealing sound regardless.
            if any_clipped:
                spill = cand_d >= t_high
                if spill.any():
                    pending.setdefault(b + 1, []).append(
                        (cand_t[spill], cand_d[spill])
                    )
                    inb = ~spill
                    cand_t, cand_d = cand_t[inb], cand_d[inb]
            written: List[np.ndarray] = []
            # Apply + relax to a fixpoint; edges shorter than delta can
            # re-enter the open bucket, everything else is queued.
            while cand_t.size:
                # A queued candidate is live iff it still IS the best
                # tentative value of its target (the generation-time
                # scatter keeps dist at the running minimum, so `<=`
                # means "not superseded").
                alive = cand_d <= dist[cand_t]
                if has_cap:
                    alive &= cand_d < cap[cand_t // n]
                t_i = cand_t[alive]
                if t_i.size == 0:
                    break
                d_i = cand_d[alive]
                # Distinct candidates can tie at the same (minimal) value
                # for one target; a plain sort + first-hit dedupes.  No
                # stability needed — every live duplicate carries the
                # identical value.  (numpy's stable argsort has no radix
                # path beyond int16, so quicksort is ~6x faster here.)
                order = np.argsort(t_i)
                t_s = t_i[order]
                d_s = d_i[order]
                head = np.empty(t_s.size, dtype=bool)
                head[0] = True
                np.not_equal(t_s[1:], t_s[:-1], out=head[1:])
                t_u = t_s[head]
                d_u = d_s[head]
                written.append(t_u)
                # Generate the relaxation candidates of the just-settled
                # vertices (their distances are in the open bucket).  The
                # ragged gather is *cache-blocked*: the flattened
                # (source, vertex) expansion of a big frontier can reach
                # many millions of entries, so it is cut into runs of
                # ~_GATHER_BLOCK edges and each run does the full
                # expand/cap/scatter/queue pass before the next starts.
                # Blocking keeps every transient array cache-sized (and
                # bounds per-worker peak memory in the parallel tier)
                # without changing results: later blocks observe earlier
                # blocks' dist scatters, which only drops candidates that
                # are superseded — or equal-valued duplicates whose
                # minimum holder is already queued — so the settled sets
                # and least-fixpoint distances are identical.
                v_all = t_u % n
                cnt_all = degrees[v_all]
                tot_all = int(cnt_all.sum())
                if tot_all == 0:
                    break
                if tot_all <= _GATHER_BLOCK:
                    edges = [0, t_u.size]
                else:
                    cum_all = np.cumsum(cnt_all)
                    marks = np.searchsorted(
                        cum_all,
                        np.arange(_GATHER_BLOCK, tot_all, _GATHER_BLOCK),
                        side="left",
                    )
                    edges = [0]
                    for e in (marks + 1).tolist():
                        if edges[-1] < e < t_u.size:
                            edges.append(e)
                    edges.append(t_u.size)
                now_t_parts: List[np.ndarray] = []
                now_d_parts: List[np.ndarray] = []
                for blo, bhi in zip(edges[:-1], edges[1:]):
                    t_b = t_u[blo:bhi]
                    d_b = d_u[blo:bhi]
                    v = v_all[blo:bhi]
                    cnt = cnt_all[blo:bhi]
                    tot = int(cnt.sum())
                    if tot == 0:
                        continue
                    cum = np.cumsum(cnt)
                    eidx = np.repeat(indptr[v] - (cum - cnt), cnt)
                    eidx += self._ds_arange_view(tot)
                    nd = np.repeat(d_b, cnt) + weights[eidx]
                    row_base = np.repeat(t_b - v, cnt)
                    nbr = indices[eidx]
                    within = None
                    if has_cap:
                        within = nd < np.repeat(cap[t_b // n], cnt)
                    if thresholds is not None:
                        below = nd < thresholds[nbr]
                        within = below if within is None else within & below
                    if within is not None and not within.all():
                        nd = nd[within]
                        row_base = row_base[within]
                        nbr = nbr[within]
                    tgt = row_base + nbr
                    # Keep only genuine improvements and scatter their
                    # minimum into the tentative buffer immediately:
                    # later, worse candidates for the same vertex then
                    # never enter the queues at all.
                    useful = nd < dist[tgt]
                    if not useful.all():
                        nd = nd[useful]
                        tgt = tgt[useful]
                    if nd.size == 0:
                        continue
                    np.minimum.at(dist, tgt, nd)
                    touched.append(tgt)
                    now = nd < t_high
                    if now.any():
                        now_t_parts.append(tgt[now])
                        now_d_parts.append(nd[now])
                        later = ~now
                        tgt, nd = tgt[later], nd[later]
                    if nd.size:
                        if _queue_later(
                            pending, b, tgt, nd, delta, inv_delta
                        ):
                            any_clipped = True
                if now_t_parts:
                    if len(now_t_parts) == 1:
                        cand_t = now_t_parts[0]
                        cand_d = now_d_parts[0]
                    else:
                        cand_t = np.concatenate(now_t_parts)
                        cand_d = np.concatenate(now_d_parts)
                else:
                    cand_t = t_u[:0]
            # Seal the bucket: everything written here is now final.
            if written:
                if len(written) == 1:
                    newly = written[0]
                else:
                    newly = np.unique(np.concatenate(written))
                settled_chunks.append(newly)
                counts += np.bincount(newly // n, minlength=nb)
            if ell is not None:
                just_filled = ~done & np.isinf(fill_t) & (counts >= ell)
                if just_filled.any():
                    # A filled source's boundary d_max lies strictly below
                    # this bucket, so nothing at or beyond fill_t + tol
                    # can reach its ball or its tol-band: shrink its
                    # horizon while it waits out the tol margin.
                    fill_t[just_filled] = t_high
                    np.minimum(cap, fill_t + tol, out=cap)
                    has_cap = True
                finished = ~done & (t_high >= fill_t + tol)
                if finished.any():
                    done |= finished
                    # Kill the source outright: every queued or future
                    # candidate dies against an impossible horizon.
                    cap[finished] = -_INF
            # Sources whose queues run dry simply stop contributing —
            # their settled set is their reachable region below the cap
            # (bounded mode: below the thresholds).
        # Assemble the per-source output order without a full 3-key
        # lexsort.  Seal chunks arrive in bucket order (disjoint,
        # ascending distance ranges), each sorted by flattened id:
        # * ball mode — sort every chunk by distance (stable, so equal
        #   distances keep id order; a distance tie cannot span buckets),
        #   concatenate, then one stable sort by source recovers the
        #   exact (source, dist, id) order.
        # * bounded mode — the flattened id itself fuses (source, id), so
        #   a single integer sort is the whole ordering.
        if not settled_chunks:
            all_t = np.empty(0, dtype=np.int32)
            ds = np.empty(0, dtype=np.float64)
        elif thresholds is None:
            parts_t = []
            parts_d = []
            for chunk in settled_chunks:
                dsc = dist[chunk]
                o = _argsort_with_id_ties(dsc, chunk)
                parts_t.append(chunk[o])
                parts_d.append(dsc[o])
            all_t = np.concatenate(parts_t)
            ds = np.concatenate(parts_d)
        else:
            all_t = np.concatenate(settled_chunks)
            order = np.argsort(all_t)
            all_t = all_t[order]
            ds = dist[all_t]
        # Sparse reset of every scattered tentative entry (duplicates are
        # harmless) — the float analogue of the generation-stamp trick.
        dist[np.concatenate(touched)] = _INF
        return self._ds_assemble(all_t, ds, nb, thresholds)

    def _ds_assemble(
        self,
        all_t: np.ndarray,
        ds: np.ndarray,
        nb: int,
        thr: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Shared engine tail: regroup flattened settled ids per source.

        ``all_t``/``ds`` arrive in global (dist, id)-within-bucket order
        (ball mode, ``thr is None``) or ascending-id order (bounded
        mode); both engines produce the identical arrays, so this split
        is the bit-identity seam between them.  Bounded mode keeps
        ``d < thr[v]`` (a source settles itself even where
        ``thr[source] <= 0``).
        """
        n = self.n
        bpos = all_t // n
        verts = all_t - bpos * n
        if thr is None:
            # Batch positions always fit int16 (batch * n is capped at
            # ~1M entries), where numpy's stable argsort is a radix sort.
            order = np.argsort(bpos.astype(np.int16), kind="stable")
            bpos = bpos[order]
            verts = verts[order]
            ds = ds[order]
        else:
            sel = ds < thr[verts]
            bpos, verts, ds = bpos[sel], verts[sel], ds[sel]
        bounds = np.searchsorted(bpos, np.arange(nb + 1))
        return bounds, verts, ds

    def _ball_chunk_delta(
        self,
        lo: int,
        hi: int,
        ell: int,
        *,
        tol: float,
        with_radii: bool,
        delta: Optional[float] = None,
        batch_bytes: int = _DS_BATCH_BYTES,
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Weighted balls for ``[lo, hi)`` via the delta-stepping engine.

        Each source's search self-truncates: once its ball fills, its cap
        drops to the fill boundary plus ``tol``, so expansion never
        exceeds the ball region by more than one bucket.  Sources that
        run dry early (small components) yield their whole reachable set,
        exactly like a truncated heap Dijkstra.  Per-source results depend only
        on the CSR arrays and the (graph-global) bucket width, so any
        partition of the source range is bit-identical.
        """
        count = hi - lo
        sizes = np.zeros(count, dtype=np.int64)
        verts_parts: List[np.ndarray] = []
        radii: Optional[np.ndarray] = (
            np.zeros(count, dtype=np.float64) if with_radii else None
        )
        batch = self._ds_batch_size(batch_bytes)
        for start in range(lo, hi, batch):
            stop = min(start + batch, hi)
            bounds, verts, ds = self._delta_batch(
                range(start, stop), ell=ell, tol=tol, delta=delta
            )
            seg_lens = np.diff(bounds)
            k_arr = np.minimum(ell, seg_lens)
            sizes[start - lo : stop - lo] = k_arr
            total = int(bounds[-1])
            if total:
                # Keep each segment's k-prefix: global position j of
                # segment i survives iff j < bounds[i] + k_i.
                keep = np.arange(total) < np.repeat(
                    bounds[:-1] + k_arr, seg_lens
                )
                verts_parts.append(verts[keep])
            if radii is None or total == 0:
                continue
            # Same rule as _radius_from_row, exploiting that each
            # per-source segment is distance-sorted: the boundary level
            # is complete iff nothing past the ball lies within tol of
            # d_max.  Every vertex within tol of the boundary is settled
            # (see _delta_batch), so the counts are exact.  Vectorised
            # O(1)-per-source check: with tol >= 0 the level is complete
            # iff the ball is the whole segment or the first vertex past
            # it clears d_max + tol; the rare incomplete sources fall
            # back to the two-searchsorted band scan.
            nz = k_arr > 0
            b0 = bounds[:-1]
            dmax = ds[np.maximum(b0 + k_arr - 1, 0)]
            past = ds[np.minimum(b0 + k_arr, total - 1)]
            if tol >= 0.0:
                complete = nz & (
                    (k_arr == seg_lens) | (past > dmax + tol)
                )
            else:
                complete = np.zeros(len(k_arr), dtype=bool)
            batch_radii = np.where(complete, dmax, 0.0)
            for i in np.flatnonzero(nz & ~complete):
                seg = ds[bounds[i] : bounds[i + 1]]
                band_lo = int(
                    np.searchsorted(seg, float(dmax[i]) - tol, "left")
                )
                if band_lo > 0:
                    batch_radii[i] = float(seg[band_lo - 1])
            radii[start - lo : stop - lo] = batch_radii
        out_bounds = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(sizes, out=out_bounds[1:])
        out_verts = (
            np.concatenate(verts_parts)
            if verts_parts
            else np.empty(0, dtype=np.int32)
        )
        return out_bounds, out_verts, radii

    def bounded_rows(
        self,
        sources: Sequence[int],
        thresholds: Union[Sequence[float], np.ndarray],
        *,
        delta: Optional[float] = None,
        batch_bytes: int = _DS_BATCH_BYTES,
    ) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(source, verts, dists)`` with ``d(source, v) < thr[v]``.

        The *threshold scan*: the delta-stepping engine in bounded mode,
        batched, with one per-vertex ``thresholds`` array ``thr``
        (length ``n``) shared by every source; ``verts`` ascends by id.  For
        ``thresholds = d(·, S)`` each source settles exactly its cluster
        ``C_S(source)``, and all-``inf`` thresholds sweep the source's
        whole component (see :meth:`_delta_batch`).
        """
        sources = list(sources)
        # the C kernel reads the raw buffer
        thr = np.ascontiguousarray(thresholds, dtype=np.float64)
        if thr.shape != (self.n,):
            raise ValueError(
                f"thresholds must have length {self.n}, got {thr.shape}"
            )
        from . import parallel

        eng = parallel.engine_for(self, len(sources))
        if eng is not None:
            for (bounds, verts, ds), chunk in eng.bounded_chunks(
                sources, thr, delta, batch_bytes
            ):
                for i, s in enumerate(chunk):
                    lo, hi = int(bounds[i]), int(bounds[i + 1])
                    yield s, verts[lo:hi], ds[lo:hi]
            return
        batch = self._ds_batch_size(batch_bytes)
        for start in range(0, len(sources), batch):
            chunk = sources[start : start + batch]
            bounds, verts, ds = self._delta_batch(
                chunk, thresholds=thr, delta=delta
            )
            for i, s in enumerate(chunk):
                lo, hi = int(bounds[i]), int(bounds[i + 1])
                yield s, verts[lo:hi], ds[lo:hi]

    def _bounded_chunk_arrays(
        self,
        sources: Sequence[int],
        thresholds: np.ndarray,
        *,
        delta: Optional[float] = None,
        batch_bytes: int = _DS_BATCH_BYTES,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Threshold scans for an explicit source list, as compact arrays.

        The worker-side unit of :meth:`bounded_rows`: runs the serial
        batched engine over ``sources`` and splices the per-batch
        ``(bounds, verts, ds)`` triples into one.  Per-source results
        depend only on the CSR arrays and the shared thresholds, so any
        chunking is bit-identical to the serial generator.
        """
        sources = list(sources)
        batch = self._ds_batch_size(batch_bytes)
        sizes_parts: List[np.ndarray] = []
        verts_parts: List[np.ndarray] = []
        ds_parts: List[np.ndarray] = []
        for start in range(0, len(sources), batch):
            chunk = sources[start : start + batch]
            bounds, verts, ds = self._delta_batch(
                chunk, thresholds=thresholds, delta=delta
            )
            sizes_parts.append(np.diff(bounds))
            verts_parts.append(verts)
            ds_parts.append(ds)
        out_bounds = np.zeros(len(sources) + 1, dtype=np.int64)
        if sizes_parts:
            np.cumsum(np.concatenate(sizes_parts), out=out_bounds[1:])
        out_verts = (
            np.concatenate(verts_parts)
            if verts_parts
            else np.empty(0, dtype=np.int32)
        )
        out_ds = (
            np.concatenate(ds_parts)
            if ds_parts
            else np.empty(0, dtype=np.float64)
        )
        return out_bounds, out_verts, out_ds

    def _ball_chunk_bfs(
        self, lo: int, hi: int, ell: int, *, with_radii: bool
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Balls for ``[lo, hi)`` on unit-weight graphs via level BFS.

        Per source, each BFS level is gathered with one ragged numpy
        indexing pass over the CSR arrays (no per-edge Python work) and
        deduplicated with a sort, whose sorted output is exactly the
        within-level id order of the ``(dist, id)`` total order.  The
        visited array is generation-stamped — no per-source reallocation.
        Each source's BFS is independent, so chunking is bit-identical.
        """
        indptr, indices, degrees = self.indptr, self.indices, self._degrees
        stamp = self._np_stamp
        sizes = np.zeros(hi - lo, dtype=np.int64)
        verts_parts: List[np.ndarray] = []
        radii: Optional[np.ndarray] = (
            np.zeros(hi - lo, dtype=np.float64) if with_radii else None
        )
        for u in range(lo, hi):
            self._gen += 1
            gen = self._gen
            frontier = np.array([u], dtype=np.int64)
            stamp[u] = gen
            parts = [frontier]
            size = 1
            depth = 0
            dmax = 0
            complete = True
            while size < ell and frontier.size:
                if frontier.size == 1:
                    f = int(frontier[0])
                    nbrs = indices[indptr[f] : indptr[f + 1]]
                else:
                    starts = indptr[frontier]
                    counts = degrees[frontier]
                    total = int(counts.sum())
                    if total == 0:
                        break
                    cum = np.cumsum(counts)
                    base = np.repeat(starts - (cum - counts), counts)
                    nbrs = indices[base + np.arange(total)]
                fresh = nbrs[stamp[nbrs] != gen]
                if fresh.size == 0:
                    break
                # sort + adjacent-diff dedup: same result as np.unique,
                # without its hashing overhead on these small arrays.
                fresh = np.sort(fresh)
                new = fresh[
                    np.concatenate(([True], fresh[1:] != fresh[:-1]))
                ]
                stamp[new] = gen
                depth += 1
                frontier = new
                if size + new.size <= ell:
                    parts.append(new)
                    size += new.size
                    dmax = depth
                else:
                    parts.append(new[: ell - size])
                    size = ell
                    dmax = depth
                    complete = False
            ball = np.concatenate(parts)
            sizes[u - lo] = ball.size
            verts_parts.append(ball)
            if radii is not None:
                radii[u - lo] = float(dmax if complete else dmax - 1)
        bounds = np.zeros(hi - lo + 1, dtype=np.int64)
        np.cumsum(sizes, out=bounds[1:])
        verts = (
            np.concatenate(verts_parts).astype(np.int32)
            if verts_parts
            else np.empty(0, dtype=np.int32)
        )
        return bounds, verts, radii

def _radius_from_row(row: np.ndarray, ball: List[int], tol: float) -> float:
    """The paper's ``r_u(ell)`` from a full distance row.

    Mirrors :meth:`repro.graph.metric.MetricView.ball_radius`: the boundary
    distance when the boundary level is fully contained in the ball, else
    the previous level.
    """
    if not ball:
        raise ValueError("empty ball has no radius")
    member_dist = row[np.asarray(ball, dtype=np.int64)]
    dmax = float(member_dist[-1])
    at_dmax_total = int(np.count_nonzero(np.abs(row - dmax) <= tol))
    at_dmax_in_ball = int(
        np.count_nonzero(np.abs(member_dist - dmax) <= tol)
    )
    if at_dmax_in_ball == at_dmax_total:
        return dmax
    inner = member_dist[member_dist < dmax - tol]
    return float(inner.max()) if inner.size else 0.0
