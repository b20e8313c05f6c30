"""Differential and fault tests for the multiprocess preprocessing tier.

The contract of :mod:`repro.graph.parallel` is *bit-identity*: turning
``REPRO_PARALLEL`` on changes wall-clock, never a single byte of any
result.  Every test here therefore compares parallel output against the
serial path with exact equality — arrays with ``np.array_equal``,
scheme tables via their canonical shard encoding.

Worker crashes are simulated with real ``SIGKILL`` (exactly what the
OOM killer delivers): one dead worker must be retried transparently; a
pool that keeps dying must surface the typed
:class:`~repro.graph.parallel.ParallelWorkerError`; and no shared-memory
segment may outlive its engine either way.
"""

from __future__ import annotations

import gc
import glob
import os
import signal
import time

import pytest

np = pytest.importorskip("numpy")

from repro.api import all_specs
from repro.graph import parallel
from repro.graph.csr import csr_graph
from repro.graph.generators import (
    erdos_renyi,
    random_sparse,
    with_random_weights,
)
from repro.graph.metric import MetricView
from repro.routing.shard_codec import encode_node_table

pytestmark = pytest.mark.skipif(
    (os.cpu_count() or 1) < 1, reason="needs a scheduler"
)


def _weighted(n: int, p: float, seed: int):
    return with_random_weights(erdos_renyi(n, p, seed=seed), seed=seed + 1)


@pytest.fixture
def two_workers(monkeypatch):
    """Force the tier on with 2 workers and every engagement floor off."""
    monkeypatch.setenv("REPRO_PARALLEL", "2")
    monkeypatch.setattr(parallel, "_MIN_PARALLEL_SOURCES", 1)
    monkeypatch.setattr(parallel, "_MIN_PARALLEL_TREES", 1)
    monkeypatch.setattr(parallel, "_MIN_PARALLEL_WORK", 0)
    parallel.reset_parallel_choice()
    yield
    parallel.reset_parallel_choice()


def _serial(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL", "off")
    parallel.reset_parallel_choice()


# ----------------------------------------------------------------------
# REPRO_PARALLEL resolution
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "raw,expected",
    [
        ("", 0),
        ("off", 0),
        ("no", 0),
        ("false", 0),
        ("0", 0),
        ("1", 0),  # one worker is just serial with IPC overhead
        ("2", 2),
        ("6", 6),
    ],
)
def test_choice_resolution(monkeypatch, raw, expected):
    monkeypatch.setenv("REPRO_PARALLEL", raw)
    parallel.reset_parallel_choice()
    assert parallel.parallel_workers() == expected


def test_choice_auto_matches_cores(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL", "auto")
    parallel.reset_parallel_choice()
    cores = os.cpu_count() or 1
    assert parallel.parallel_workers() == (cores if cores >= 2 else 0)


@pytest.mark.parametrize("raw", ["-2", "many", "2.5"])
def test_choice_rejects_garbage(monkeypatch, raw):
    monkeypatch.setenv("REPRO_PARALLEL", raw)
    parallel.reset_parallel_choice()
    with pytest.raises(parallel.ParallelError):
        parallel.parallel_workers()


def test_choice_is_cached_until_reset(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL", "4")
    parallel.reset_parallel_choice()
    assert parallel.parallel_workers() == 4
    monkeypatch.setenv("REPRO_PARALLEL", "off")
    assert parallel.parallel_workers() == 4  # cached
    parallel.reset_parallel_choice()
    assert parallel.parallel_workers() == 0


# ----------------------------------------------------------------------
# The all-balls floor counts work, not sources
# ----------------------------------------------------------------------
def test_pool_floor_counts_work(monkeypatch):
    """Under ``REPRO_PARALLEL=2`` an n=2000 all-balls sweep (ell=64, mean
    degree 8) stays serial and starts no worker; the same sweep at
    n=2*10^4 takes the pool."""
    monkeypatch.setenv("REPRO_PARALLEL", "2")
    parallel.reset_parallel_choice()

    def no_worker(*_args, **_kwargs):
        raise AssertionError("a pool worker was started")

    class Engaged(Exception):
        pass

    def engaged(*_args, **_kwargs):
        raise Engaged

    monkeypatch.setattr(parallel._POOL, "executor", no_worker)
    monkeypatch.setattr(parallel.ParallelEngine, "ball_arrays", engaged)
    small = csr_graph(
        with_random_weights(random_sparse(2000, 8000, seed=97), seed=98)
    )
    big = csr_graph(
        with_random_weights(random_sparse(20000, 80000, seed=97), seed=98)
    )
    try:
        small.all_balls(64, tol=0.0, as_arrays=True)
        assert small._parallel is None
        with pytest.raises(Engaged):
            big.all_balls(64, tol=0.0, as_arrays=True)
        assert big._parallel is not None
    finally:
        if big._parallel is not None:
            big._parallel.close()
        parallel.reset_parallel_choice()


# ----------------------------------------------------------------------
# Engine differentials: parallel == serial, bit for bit
# ----------------------------------------------------------------------
# Weighted input admits one engine; the unit-weight bfs sweep has its own
# test below, and every engine x tier meets the pure reference on small
# tie-heavy graphs in tests/graph/test_csr.py::test_ball_engines_match_pure.
@pytest.mark.parametrize("engine", ["delta"])
def test_all_balls_engines_bit_identical_weighted(
    monkeypatch, two_workers, engine
):
    csr = csr_graph(_weighted(2000, 0.003, seed=17))
    ell = 24
    pb, pv, pr = csr.all_balls(
        ell, tol=0.0, with_radii=True, engine=engine, as_arrays=True
    )
    sb, sv, sr = csr._ball_chunk_arrays(
        0, csr.n, ell, tol=0.0, with_radii=True, engine=engine
    )
    assert np.array_equal(pb, sb)
    assert np.array_equal(pv, sv)
    assert np.array_equal(pr, sr)


def test_all_balls_bfs_bit_identical_unweighted(monkeypatch, two_workers):
    csr = csr_graph(erdos_renyi(2000, 0.003, seed=17))
    pb, pv, pr = csr.all_balls(
        24, with_radii=True, engine="bfs", as_arrays=True
    )
    sb, sv, sr = csr._ball_chunk_arrays(
        0, csr.n, 24, tol=0.0, with_radii=True, engine="bfs"
    )
    assert np.array_equal(pb, sb)
    assert np.array_equal(pv, sv)
    assert np.array_equal(pr, sr)


def test_all_balls_lists_mode_bit_identical(monkeypatch, two_workers):
    csr = csr_graph(_weighted(600, 0.01, seed=3))
    balls_p, radii_p = csr.all_balls(16, with_radii=True)
    _serial(monkeypatch)
    balls_s, radii_s = csr.all_balls(16, with_radii=True)
    assert balls_p == balls_s
    assert radii_p == radii_s


def test_bounded_rows_bit_identical(monkeypatch, two_workers):
    csr = csr_graph(_weighted(700, 0.01, seed=9))
    par = [
        (s, v.copy(), d.copy())
        for s, v, d in csr.bounded_rows(range(csr.n), 9.0)
    ]
    assert csr._parallel is not None  # not serial against serial
    _serial(monkeypatch)
    ser = list(csr.bounded_rows(range(csr.n), 9.0))
    assert len(par) == len(ser)
    for (s1, v1, d1), (s2, v2, d2) in zip(par, ser):
        assert s1 == s2
        assert np.array_equal(v1, v2)
        assert np.array_equal(d1, d2)


def test_spt_pred_rows_bit_identical(monkeypatch, two_workers):
    pytest.importorskip("scipy")
    csr = csr_graph(_weighted(700, 0.01, seed=21))
    roots = list(range(0, csr.n, 7))
    rows_p = csr.spt_pred_rows(roots)
    _serial(monkeypatch)
    rows_s = csr.spt_pred_rows(roots)
    assert np.array_equal(rows_p, rows_s)


def test_metric_prefetch_changes_no_tree(monkeypatch, two_workers):
    pytest.importorskip("scipy")
    g = _weighted(600, 0.01, seed=33)
    roots = list(range(0, 600, 29))
    warm = MetricView(g)
    warm.prefetch_spt_parents(roots)
    cold = MetricView(g)
    for r in roots:
        assert warm.spt_parents(r) == cold.spt_parents(r)
    assert not warm._pred_rows  # prefetched rows are consumed


# ----------------------------------------------------------------------
# Substrate / registered-scheme differentials
# ----------------------------------------------------------------------
def test_substrate_artifacts_bit_identical_at_2000(monkeypatch, two_workers):
    """Ball distances/radii, hitting sets and landmark samples at
    n=2000 — the lazy-metric substrate the schemes all share — do not
    change by a bit when the pool is on (above the real engagement
    floor: no patched thresholds here beyond the fixture's)."""
    pytest.importorskip("scipy")
    from repro.api import Substrate

    n, ell = 2000, 18

    def artifacts():
        g = _weighted(n, 0.003, seed=41)
        sub = Substrate(g, metric=MetricView(g))
        family = sub.ball_family(ell)
        return (
            family.balls(),
            [family.radius(u) for u in range(n)],
            sub.hitting_set(ell),
            sub.landmark_sample(n / 12, 5),
        )

    par = artifacts()
    _serial(monkeypatch)
    ser = artifacts()
    assert par == ser


@pytest.mark.parametrize(
    "spec", all_specs(), ids=lambda s: s.name
)
def test_registered_schemes_bit_identical(monkeypatch, two_workers, spec):
    """Every registered scheme builds byte-identical tables and labels
    with the pool on (floors forced to 1 so even this small build runs
    through the workers)."""
    pytest.importorskip("scipy")
    n = 160
    gu = erdos_renyi(n, 0.05, seed=61)
    g = with_random_weights(gu, seed=62) if spec.prefers_weighted else gu

    def build():
        scheme = spec.factory(
            g, metric=MetricView(g), **spec.defaults()
        )
        blobs = [encode_node_table(r) for r in scheme.compile_tables()]
        labels = [scheme.label_of(v) for v in range(n)]
        return blobs, labels

    par = build()
    assert csr_graph(g)._parallel is not None  # the pool ran
    _serial(monkeypatch)
    ser = build()
    assert par == ser


def test_packed_shard_write_byte_identical(monkeypatch, two_workers, tmp_path):
    pytest.importorskip("scipy")
    from repro.api import get_spec
    from repro.routing.serving import write_shards

    g = erdos_renyi(180, 0.05, seed=71)
    scheme = get_spec("thm10").factory(g, eps=0.5)

    def tree_bytes(root):
        out = {}
        for dirpath, _, names in os.walk(root):
            for name in names:
                p = os.path.join(dirpath, name)
                with open(p, "rb") as fh:
                    out[os.path.relpath(p, root)] = fh.read()
        return out

    write_shards(
        scheme, str(tmp_path / "par"), spec_name="thm10",
        packed=True, group_size=16, replicas=2,
    )
    _serial(monkeypatch)
    write_shards(
        scheme, str(tmp_path / "ser"), spec_name="thm10",
        packed=True, group_size=16, replicas=2,
    )
    assert tree_bytes(tmp_path / "par") == tree_bytes(tmp_path / "ser")


# ----------------------------------------------------------------------
# Crashes, staleness, leaks
# ----------------------------------------------------------------------
def test_killed_worker_is_retried_bit_identically(monkeypatch, two_workers):
    csr = csr_graph(_weighted(300, 0.03, seed=5))
    _serial(monkeypatch)
    sb, sv, sr = csr._ball_chunk_arrays(
        0, csr.n, 15, tol=0.0, with_radii=True, engine="delta"
    )
    monkeypatch.setenv("REPRO_PARALLEL", "2")
    parallel.reset_parallel_choice()
    pids = parallel.run_tasks(parallel._task_pid, [(), ()], 2)
    before = parallel.pool_respawns()
    os.kill(pids[0], signal.SIGKILL)
    # A sweep sent before the executor sees the death may never break.
    deadline = time.monotonic() + 10.0
    while not parallel._POOL._executor._broken:
        assert time.monotonic() < deadline, "pool never reported broken"
        time.sleep(0.01)
    pb, pv, pr = csr.all_balls(
        15, tol=0.0, with_radii=True, engine="delta", as_arrays=True
    )
    assert np.array_equal(pb, sb)
    assert np.array_equal(pv, sv)
    assert np.array_equal(pr, sr)
    assert parallel.pool_respawns() > before


def test_repeatedly_dying_pool_raises_typed_error(two_workers):
    with pytest.raises(parallel.ParallelWorkerError):
        parallel.run_tasks(parallel._task_kill_self, [()], 2)
    # and the tier recovers for the next caller
    assert parallel.run_tasks(parallel._task_pid, [()], 2)


def test_stale_descriptor_refused(two_workers):
    csr = csr_graph(_weighted(300, 0.03, seed=5))
    shared = parallel.SharedCSR.publish(csr)
    desc = shared.descriptor()
    shared.close()
    with pytest.raises(parallel.StaleSharedSegmentError):
        shared.descriptor()
    task = (desc, 0, 10, 5, 0.0, False, "delta", 1 << 24)
    with pytest.raises(parallel.StaleSharedSegmentError):
        parallel.run_tasks(parallel._task_ball_chunk, [task], 2)


def test_no_shared_memory_leaks(two_workers):
    csr = csr_graph(_weighted(400, 0.02, seed=13))
    csr.all_balls(12, tol=0.0, as_arrays=True)
    assert csr._parallel is not None  # the engine engaged
    pattern = f"/dev/shm/*repro-{os.getpid()}-*"
    assert glob.glob(pattern)  # segments live while the engine does
    del csr
    gc.collect()
    assert glob.glob(pattern) == []
