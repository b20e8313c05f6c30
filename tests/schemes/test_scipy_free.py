"""Builds never depend on scipy.

Distance rows, cluster scans and shortest-path trees all come from the
repository's own kernels, so every registered scheme builds the same
table and label bytes whether or not scipy imports — and a build never
imports it.  Each check runs a fresh interpreter: one with scipy blocked
(``sys.modules["scipy"] = None`` makes every import of it raise
``ImportError``), one as is.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from functools import lru_cache

from repro.api import all_specs
from repro.graph.generators import erdos_renyi, with_random_weights
from repro.graph.metric import MetricView
from repro.routing.shard_codec import encode_node_table

N = 90

_CHILD = """
import json, sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
sys.path.insert(0, sys.argv[2])
from test_scipy_free import build_digests
print(json.dumps({"digests": build_digests(),
                  "scipy_loaded": "scipy" in sys.modules}))
"""


@lru_cache(maxsize=None)
def build_digests():
    """SHA-256 of every scheme's table blobs and labels, per graph kind.

    Every scheme builds on an unweighted graph (tie-heavy: trees choose
    among equal first hops) and, when it accepts one, a weighted one.
    """
    gu = erdos_renyi(N, 0.07, seed=91)
    graphs = {"unweighted": gu, "weighted": with_random_weights(gu, seed=92)}
    out = {}
    for spec in all_specs():
        for kind, g in graphs.items():
            if kind == "weighted" and not spec.weighted_capable:
                continue
            scheme = spec.factory(g, metric=MetricView(g), **spec.defaults())
            h = hashlib.sha256()
            for table in scheme.compile_tables():
                blob = encode_node_table(table)
                h.update(len(blob).to_bytes(8, "little") + blob)
            labels = [scheme.label_of(v) for v in range(g.n)]
            h.update(repr(labels).encode())
            out[f"{spec.name}/{kind}"] = h.hexdigest()
    return out


def _child(mode):
    env = dict(os.environ)
    src_dir = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src_dir) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    here = os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, mode, here],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_builds_identical_without_scipy():
    blocked = _child("blocked")["digests"]
    here = build_digests()
    assert sorted(blocked) == sorted(here)
    differ = [key for key in here if blocked[key] != here[key]]
    assert not differ, f"builds depend on scipy: {differ}"


def test_fresh_build_never_imports_scipy():
    fresh = _child("plain")
    assert not fresh["scipy_loaded"]
    assert fresh["digests"] == build_digests()
