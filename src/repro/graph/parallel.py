"""Multiprocess source-batching for the CSR kernel — the parallel tier.

Per-source truncated searches (balls, and threshold scans, which also
give whole distance rows) are embarrassingly parallel: each source's
result depends only on the CSR arrays, never on any other source in the
batch.  This module fans those batches out over a spawn-mode process
pool while keeping the results **bit-identical** to the serial kernel:

* The parent publishes the CSR triple (``indptr``/``indices``/
  ``weights``) once into ``multiprocessing.shared_memory`` segments
  (:class:`SharedCSR`) and hands workers a ``(generation, name, dtype,
  shape)`` descriptor per array.  Workers attach zero-copy
  (:class:`_AttachedCSR`) and refuse stale descriptors — an unlinked or
  resized segment raises :class:`StaleSharedSegmentError` instead of
  computing over garbage.
* Each worker runs the *existing* ball engines (``delta``/``bfs``) over
  a contiguous source chunk and returns compact ``(bounds, verts, ds)``
  arrays; the parent splices chunks back in source order.  Because
  every engine is per-source deterministic and the one graph-global
  tuning constant (the bucket width) is a pure function of the shared
  arrays, any chunking of the source range reproduces the serial output
  bit for bit.

Worker-count resolution mirrors the ``REPRO_KERNEL`` dispatch:
``REPRO_PARALLEL=N|auto|off`` is read once per process
(:func:`parallel_workers`), with :func:`reset_parallel_choice` as the
test hook.  ``off``/``0``/``1``/empty disable the tier, ``auto`` uses
``os.cpu_count()`` (disabled on single-core hosts), an explicit ``N >=
2`` forces ``N`` workers, and anything else raises
:class:`ParallelError` — a typo must never silently serialize a build.
Workers themselves always resolve to 0, so nested pools are impossible.

Lifecycle: segments are owned by :class:`SharedCSR` (closed + unlinked
via ``close()``), the pool by the module :class:`_PoolHandle`; both are
torn down by an ``atexit`` hook, and a crashed worker
(``BrokenProcessPool``) triggers exactly one pool respawn + retry of
the unfinished tasks before :class:`ParallelWorkerError` is raised.
"""

from __future__ import annotations

import atexit
import itertools
import os
import signal
import weakref
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context, shared_memory
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

__all__ = [
    "ParallelError",
    "StaleSharedSegmentError",
    "ParallelWorkerError",
    "parallel_workers",
    "reset_parallel_choice",
    "pool_respawns",
    "SharedCSR",
    "ParallelEngine",
    "engine_for",
]


class ParallelError(RuntimeError):
    """Misconfigured or unusable parallel tier (bad ``REPRO_PARALLEL``)."""


class StaleSharedSegmentError(ParallelError):
    """A worker was handed a descriptor for a dead or resized segment."""


class ParallelWorkerError(ParallelError):
    """The worker pool broke twice for the same batch; giving up."""


# ----------------------------------------------------------------------
# Worker-count resolution (mirrors the REPRO_KERNEL choice)
# ----------------------------------------------------------------------
_PARALLEL_CHOICE: Optional[int] = None
_IN_WORKER = False

#: below this many sources the pool/pickle overhead beats the speedup
_MIN_PARALLEL_SOURCES = 192
#: An all-balls sweep counts its estimated edge scans (``2 m ell``)
#: against this floor instead of its sources.  On a 2-vCPU host an
#: n=2000 sweep (ell=64, mean degree 8: about 10^6 scans) took 0.91 s
#: through a fresh 2-worker pool against 0.08 s serial, while at
#: n=2*10^4 (about 10^7 scans) the pool ran 1.79x faster.
_MIN_PARALLEL_WORK = 4_000_000


def _resolve_parallel_choice() -> int:
    raw = os.environ.get("REPRO_PARALLEL", "").strip().lower()
    if raw in ("", "off", "no", "false", "0", "1"):
        return 0
    if raw == "auto":
        cores = os.cpu_count() or 1
        return cores if cores >= 2 else 0
    try:
        workers = int(raw)
    except ValueError:
        raise ParallelError(
            f"REPRO_PARALLEL={raw!r}: expected a worker count, "
            "'auto', or 'off'"
        ) from None
    if workers < 0:
        raise ParallelError(
            f"REPRO_PARALLEL={workers} is negative; "
            "use 'off' to disable the parallel tier"
        )
    return workers if workers >= 2 else 0


def parallel_workers() -> int:
    """The resolved worker count (0 = serial), cached per process."""
    global _PARALLEL_CHOICE
    if _IN_WORKER:
        return 0
    if _PARALLEL_CHOICE is None:
        _PARALLEL_CHOICE = _resolve_parallel_choice()
    return _PARALLEL_CHOICE


def reset_parallel_choice() -> None:
    """Drop the cached worker count (test hook; pool survives)."""
    global _PARALLEL_CHOICE
    if not _IN_WORKER:
        _PARALLEL_CHOICE = None


_RESPAWNS = 0


def _note_respawn() -> None:
    global _RESPAWNS
    _RESPAWNS += 1


def pool_respawns() -> int:
    """How many times a broken pool was respawned (test observability)."""
    return _RESPAWNS


# ----------------------------------------------------------------------
# Shared-memory CSR publication (parent side)
# ----------------------------------------------------------------------
_SEGMENT_IDS = itertools.count(1)
_LIVE_SEGMENTS: "weakref.WeakSet[SharedCSR]" = weakref.WeakSet()


class SharedCSR:
    """Parent-side owner of the published CSR shared-memory segments.

    ``close()`` both closes and unlinks every segment; descriptors
    handed out afterwards would be stale, so :meth:`descriptor` raises
    once closed.  Each publication gets a fresh generation id, and the
    segment names embed ``(pid, generation)``, so a worker can never
    accidentally attach an older publication under a reused name.
    """

    def __init__(
        self,
        generation: int,
        n: int,
        segments: List[Tuple[str, Any, str, Tuple[int, ...]]],
    ) -> None:
        self.generation = generation
        self.n = n
        self._segments = segments
        self.closed = False
        _LIVE_SEGMENTS.add(self)

    @classmethod
    def publish(cls, csr: Any) -> "SharedCSR":
        """Copy ``csr``'s CSR triple into fresh shared segments."""
        generation = next(_SEGMENT_IDS)
        arrays = (
            ("indptr", np.ascontiguousarray(csr.indptr)),
            ("indices", np.ascontiguousarray(csr.indices)),
            ("weights", np.ascontiguousarray(csr.weights)),
        )
        segments: List[Tuple[str, Any, str, Tuple[int, ...]]] = []
        try:
            for label, arr in arrays:
                name = f"repro-{os.getpid()}-{generation}-{label}"
                shm = shared_memory.SharedMemory(
                    name=name, create=True, size=max(1, arr.nbytes)
                )
                segments.append((label, shm, str(arr.dtype), arr.shape))
                view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
                view[:] = arr
                del view
        except BaseException:
            for _, shm, _, _ in segments:
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:
                    pass
            raise
        return cls(generation, csr.n, segments)

    def descriptor(
        self,
    ) -> Tuple[int, int, Tuple[Tuple[str, str, str, Tuple[int, ...]], ...]]:
        """The picklable attach ticket: ``(generation, n, per-array specs)``."""
        if self.closed:
            raise StaleSharedSegmentError(
                f"shared CSR generation {self.generation} is closed; "
                "republish before dispatching work"
            )
        return (
            self.generation,
            self.n,
            tuple(
                (label, shm.name, dtype, tuple(shape))
                for label, shm, dtype, shape in self._segments
            ),
        )

    def close(self) -> None:
        """Close + unlink every segment (idempotent)."""
        if self.closed:
            return
        self.closed = True
        _LIVE_SEGMENTS.discard(self)
        for _, shm, _, _ in self._segments:
            try:
                shm.close()
            except BufferError:  # a stray view still maps the buffer
                pass
            try:
                shm.unlink()
            except FileNotFoundError:
                pass


# ----------------------------------------------------------------------
# Worker side: attach + task functions
# ----------------------------------------------------------------------
class _AttachedCSR:
    """Worker-side zero-copy attachment of one published generation."""

    def __init__(self, descriptor: Tuple[Any, ...]) -> None:
        generation, n, segments = descriptor
        self.generation = generation
        self.csr: Any = None
        self._shms: List[Any] = []
        arrays: Dict[str, np.ndarray] = {}
        try:
            for label, name, dtype, shape in segments:
                try:
                    shm = shared_memory.SharedMemory(name=name)
                except FileNotFoundError as exc:
                    raise StaleSharedSegmentError(
                        f"shared CSR segment {name!r} (generation "
                        f"{generation}) no longer exists"
                    ) from exc
                self._shms.append(shm)
                # Python 3.11's SharedMemory has no track=False, so this
                # attach re-registers the name with the resource tracker
                # (bpo-38119).  That is benign here: spawn-mode workers
                # share the parent's tracker process, whose cache is a
                # set — duplicate registrations collapse, and the
                # parent's unlink() clears the single entry.  Explicitly
                # unregistering instead would race other workers AND
                # strip the parent's crash-cleanup registration.
                dt = np.dtype(dtype)
                need = dt.itemsize * int(np.prod(shape, dtype=np.int64))
                if shm.size < need:
                    raise StaleSharedSegmentError(
                        f"shared CSR segment {name!r} holds {shm.size} "
                        f"bytes but generation {generation} promises "
                        f"{need}; refusing the stale attach"
                    )
                arr: np.ndarray = np.ndarray(shape, dtype=dt, buffer=shm.buf)
                arr.flags.writeable = False
                arrays[label] = arr
        except BaseException:
            del arrays
            self.close()
            raise
        from .csr import CSRGraph

        self.csr = CSRGraph(
            n, arrays["indptr"], arrays["indices"], arrays["weights"]
        )

    def close(self) -> None:
        # Drop the numpy views before unmapping, else close() raises
        # BufferError against the exported buffers.
        self.csr = None
        shms, self._shms = self._shms, []
        for shm in shms:
            try:
                shm.close()
            except BufferError:  # a view is still alive in a frame
                pass


_WORKER_CSR: Optional[_AttachedCSR] = None


def _worker_init() -> None:
    global _IN_WORKER, _PARALLEL_CHOICE
    _IN_WORKER = True
    _PARALLEL_CHOICE = 0  # a worker never spawns a nested pool


def _attached_csr(descriptor: Tuple[Any, ...]) -> Any:
    """The cached attachment for this generation (stale ones closed)."""
    global _WORKER_CSR
    if _WORKER_CSR is not None and _WORKER_CSR.generation == descriptor[0]:
        return _WORKER_CSR.csr
    if _WORKER_CSR is not None:
        _WORKER_CSR.close()
        _WORKER_CSR = None
    _WORKER_CSR = _AttachedCSR(descriptor)
    return _WORKER_CSR.csr


def _task_ball_chunk(
    descriptor: Tuple[Any, ...],
    lo: int,
    hi: int,
    ell: int,
    tol: float,
    with_radii: bool,
    engine: str,
    batch_bytes: int,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    csr = _attached_csr(descriptor)
    return csr._ball_chunk_arrays(
        lo,
        hi,
        ell,
        tol=tol,
        with_radii=with_radii,
        engine=engine,
        batch_bytes=batch_bytes,
    )


def _task_bounded_chunk(
    descriptor: Tuple[Any, ...],
    sources: List[int],
    thresholds: np.ndarray,
    delta: Optional[float],
    batch_bytes: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    csr = _attached_csr(descriptor)
    return csr._bounded_chunk_arrays(
        sources, thresholds, delta=delta, batch_bytes=batch_bytes
    )


def _task_pid() -> int:
    """Test hook: the worker's pid (so a test can SIGKILL it)."""
    return os.getpid()


def _task_kill_self() -> None:
    """Test hook: die mid-task, exactly like an OOM-killed worker."""
    os.kill(os.getpid(), signal.SIGKILL)


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class _PoolHandle:
    """Owner of the lazily-spawned process pool (``close()`` = shutdown).

    Spawn mode, not fork: workers must re-import cleanly (fork would
    duplicate open sockets and the parent's own pool).
    """

    def __init__(self) -> None:
        self._executor: Optional[ProcessPoolExecutor] = None
        self._workers = 0

    def executor(self, workers: int) -> ProcessPoolExecutor:
        if self._executor is not None and self._workers != workers:
            self.discard()
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=get_context("spawn"),
                initializer=_worker_init,
            )
            self._workers = workers
        return self._executor

    def discard(self) -> None:
        """Drop a (likely broken) pool without waiting on dead workers."""
        ex, self._executor = self._executor, None
        self._workers = 0
        if ex is not None:
            ex.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        ex, self._executor = self._executor, None
        self._workers = 0
        if ex is not None:
            ex.shutdown(wait=True, cancel_futures=True)


_POOL = _PoolHandle()


def run_tasks(
    fn: Callable[..., Any], tasks: Sequence[Tuple[Any, ...]], workers: int
) -> List[Any]:
    """Run ``fn(*task)`` for every task, results in task order.

    A ``BrokenProcessPool`` (worker killed mid-batch) discards the pool,
    respawns once, and re-runs only the unfinished tasks — results that
    completed before the crash are kept, and determinism makes the
    retry's outputs identical to what the dead worker would have
    returned.  A second crash raises :class:`ParallelWorkerError`.
    """
    results: List[Any] = [_UNSET] * len(tasks)
    for attempt in range(2):
        pend = [i for i, r in enumerate(results) if r is _UNSET]
        if not pend:
            break
        try:
            ex = _POOL.executor(workers)
            futures = {i: ex.submit(fn, *tasks[i]) for i in pend}
            for i in pend:
                results[i] = futures[i].result()
        except BrokenProcessPool as exc:
            _POOL.discard()
            _note_respawn()
            if attempt:
                raise ParallelWorkerError(
                    "parallel worker pool broke twice running "
                    f"{getattr(fn, '__name__', fn)!s}; giving up"
                ) from exc
    return results


def iter_tasks(
    fn: Callable[..., Any],
    tasks: Sequence[Tuple[Any, ...]],
    workers: int,
    *,
    window: Optional[int] = None,
) -> Iterator[Any]:
    """Yield ``fn(*task)`` results in task order, windowed submission.

    Keeps at most ``window`` tasks in flight so generators over huge
    sweeps (bounded rows) never materialize every chunk result at once.
    Same one-respawn crash policy as :func:`run_tasks`.
    """
    if window is None:
        window = 2 * workers
    next_yield = 0
    for attempt in range(2):
        try:
            ex = _POOL.executor(workers)
            futures: "deque[Any]" = deque()
            next_submit = next_yield
            while next_yield < len(tasks):
                while next_submit < len(tasks) and len(futures) < window:
                    futures.append(ex.submit(fn, *tasks[next_submit]))
                    next_submit += 1
                res = futures.popleft().result()
                next_yield += 1
                yield res
            return
        except BrokenProcessPool as exc:
            _POOL.discard()
            _note_respawn()
            if attempt:
                raise ParallelWorkerError(
                    "parallel worker pool broke twice running "
                    f"{getattr(fn, '__name__', fn)!s}; giving up"
                ) from exc


_UNSET = object()


# ----------------------------------------------------------------------
# The engine facade used by CSRGraph
# ----------------------------------------------------------------------
class ParallelEngine:
    """One published CSR generation + the chunk dispatch over it."""

    def __init__(self, csr: Any, workers: int) -> None:
        self.workers = workers
        self.closed = False
        self._shared = SharedCSR.publish(csr)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._shared.close()

    def _chunks(self, count: int) -> List[Tuple[int, int]]:
        # ~4 chunks per worker amortizes stragglers without drowning the
        # result pipe; tiny chunks are not worth a pickle round-trip.
        size = max(64, -(-count // (self.workers * 4)))
        return [
            (lo, min(lo + size, count)) for lo in range(0, count, size)
        ]

    def ball_arrays(
        self,
        n: int,
        ell: int,
        *,
        tol: float,
        with_radii: bool,
        engine: str,
        batch_bytes: int,
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        desc = self._shared.descriptor()
        tasks = [
            (desc, lo, hi, ell, tol, with_radii, engine, batch_bytes)
            for lo, hi in self._chunks(n)
        ]
        parts = run_tasks(_task_ball_chunk, tasks, self.workers)
        return _splice(parts, with_radii)

    def bounded_chunks(
        self,
        sources: Sequence[int],
        thresholds: np.ndarray,
        delta: Optional[float],
        batch_bytes: int,
    ) -> Iterator[Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], List[int]]]:
        desc = self._shared.descriptor()
        chunks = self._chunks(len(sources))
        # every task carries the whole threshold array (8n bytes)
        tasks = [
            (desc, list(sources[lo:hi]), thresholds, delta, batch_bytes)
            for lo, hi in chunks
        ]
        results = iter_tasks(_task_bounded_chunk, tasks, self.workers)
        for result, (lo, hi) in zip(results, chunks):
            yield result, list(sources[lo:hi])


def _splice(
    parts: Sequence[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]],
    with_radii: bool,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Rejoin per-chunk ``(bounds, verts, radii)`` in source order."""
    sizes = np.concatenate([np.diff(p[0]) for p in parts])
    bounds = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    verts = np.concatenate([p[1] for p in parts])
    radii = (
        np.concatenate([p[2] for p in parts]) if with_radii else None
    )
    return bounds, verts, radii


def engine_for(
    csr: Any, count: int, *, floor: Optional[int] = None
) -> Optional[ParallelEngine]:
    """The parallel engine for ``csr``, or ``None`` to stay serial.

    Returns ``None`` when the tier is off, inside a worker, or the
    batch (``count`` sources; an all-balls sweep passes its estimated
    edge scans and :data:`_MIN_PARALLEL_WORK`) is below the engagement
    floor, so no worker starts for a batch the pool would slow down.  The
    engine — and with it the published segments — is cached on the
    ``CSRGraph`` instance and torn down when the graph is collected.
    """
    if floor is None:
        floor = _MIN_PARALLEL_SOURCES
    workers = parallel_workers()
    if workers < 2 or count < floor:
        return None
    engine = csr._parallel
    if (
        engine is not None
        and engine.workers == workers
        and not engine.closed
    ):
        return engine
    if engine is not None:
        engine.close()
    engine = ParallelEngine(csr, workers)
    csr._parallel = engine
    weakref.finalize(csr, engine._shared.close)
    return engine


def _shutdown() -> None:
    _POOL.close()
    for seg in list(_LIVE_SEGMENTS):
        seg.close()


atexit.register(_shutdown)
