"""CLI and session surface of the cluster subsystem.

``repro cluster route`` must print hop lines byte-identical to
single-process ``repro route --shards`` over the same directory;
``cluster serve`` runs as a real process that stops cleanly on SIGTERM
while ``cluster status`` / ``cluster route --cluster`` /
``RoutingSession.connect`` talk to it over the written spec.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.__main__ import main
from repro.api import RoutingSession, SubstrateCache, build
from repro.graph.generators import erdos_renyi, with_random_weights
from repro.routing.serving import write_shards

N = 120
GROUP_SIZE = 16
SOURCE, TARGET = 3, 77


@pytest.fixture(scope="module")
def shards(tmp_path_factory):
    g = with_random_weights(
        erdos_renyi(N, 7.0 / (N - 1), seed=17), seed=18, low=1.0, high=8.0
    )
    session = build("tz2", g, cache=SubstrateCache(), seed=6)
    path = str(tmp_path_factory.mktemp("cli-cluster") / "shards")
    write_shards(
        session.scheme, path,
        spec_name=session.spec_name, params=session.params,
        seed=session.seed, packed=True, group_size=GROUP_SIZE,
        replicas=2,
    )
    return path


def _hop_lines(text):
    return [
        line for line in text.splitlines() if line.startswith("route ")
    ]


def test_cluster_route_hop_lines_match_single_process(shards, capsys):
    rc = main([
        "route", "--shards", shards,
        "--source", str(SOURCE), "--target", str(TARGET),
    ])
    assert rc == 0
    single = _hop_lines(capsys.readouterr().out)
    rc = main([
        "cluster", "route", "--shards", shards, "--workers", "4",
        "--source", str(SOURCE), "--target", str(TARGET),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert _hop_lines(out) == single  # byte-identical
    assert "health: ok" in out


def test_route_max_resident_bounds_the_lru(shards, capsys):
    rc = main([
        "route", "--shards", shards, "--max-resident", "4",
        "--source", str(SOURCE), "--target", str(TARGET),
    ])
    assert rc == 0
    assert "route " in capsys.readouterr().out


def test_max_resident_without_shards_rejected():
    with pytest.raises(SystemExit, match="requires --shards"):
        main(["route", "--max-resident", "4"])


def test_cluster_route_needs_exactly_one_target(shards):
    with pytest.raises(SystemExit, match="exactly one"):
        main(["cluster", "route"])
    with pytest.raises(SystemExit, match="exactly one"):
        main([
            "cluster", "route", "--shards", shards,
            "--cluster", "whatever.json",
        ])


def test_cluster_route_pairs_batch(shards, capsys):
    rc = main([
        "cluster", "route", "--shards", shards, "--workers", "3",
        "--pairs", "5", "--seed", "9",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert len(_hop_lines(out)) == 5
    assert "5 routes" in out


def test_cluster_serve_sigterm_and_reconnect(shards, tmp_path, capsys):
    """`cluster serve` as a real process: the spec it writes serves
    `status`, `route --cluster` and RoutingSession.connect, and the
    fleet stops cleanly on SIGTERM."""
    spec_path = str(tmp_path / "cluster.json")
    env = dict(os.environ)
    src_dir = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src_dir) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "cluster", "serve",
         "--shards", shards, "--workers", "3", "--out", spec_path],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
        # its own process group: a failed run kills the workers too
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not os.path.exists(spec_path):
            assert proc.poll() is None, proc.stdout.read()
            assert time.monotonic() < deadline, "serve never wrote spec"
            time.sleep(0.1)
        with open(spec_path) as fh:
            spec = json.load(fh)
        assert spec["placement"]["workers"] == 3
        assert spec["spec"] == "tz2"

        rc = main(["cluster", "status", "--cluster", spec_path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "health: ok" in out
        assert "worker 2" in out

        rc = main([
            "cluster", "route", "--cluster", spec_path,
            "--source", str(SOURCE), "--target", str(TARGET),
        ])
        assert rc == 0
        assert f"route {SOURCE} -> {TARGET}" in capsys.readouterr().out

        session = RoutingSession.connect(spec_path)
        with session.scheme:
            result = session.route(SOURCE, TARGET)
            assert result.delivered
            assert session.serve_stats()["routes"] == 1
            assert session.health()["serving"] is True
            assert "cluster of 3 workers" in session.describe()

        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0, out
        assert "stopping cluster" in out
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the group already exited
        if proc.returncode is None:
            proc.communicate(timeout=10)
