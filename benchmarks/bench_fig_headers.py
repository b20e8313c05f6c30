"""Figure E (implicit): true on-the-wire header bits.

The theorems bound *header bits*: ``Õ(1/eps)`` for Theorem 10,
``Õ((1/eps) log D)`` for Theorem 11, ``o(log^2 n)`` for tree-routing
labels.  The simulator's word counts approximate this; here every header
a message ever carries is serialized through the value codec the
cluster wire ships (:func:`repro.routing.shard_codec.encode_value`) and
the maximum wire size is reported, per scheme, next to the routed
workload.  Expected shape: tens of bytes, growing with 1/eps (waypoint
count), never with n beyond ``log n`` id widths or with route length.
"""

import pytest

from repro.baselines.thorup_zwick import ThorupZwickScheme
from repro.eval.workloads import sample_pairs
from repro.graph.generators import erdos_renyi, with_random_weights
from repro.graph.metric import MetricView
from repro.routing.model import Deliver, Forward
from repro.routing.shard_codec import header_bits
from repro.schemes import (
    Stretch2Plus1Scheme,
    Stretch5PlusScheme,
    Warmup3Scheme,
)

N = 260
SECTION = "Fig E: true header bits on the wire (value codec)"


@pytest.fixture(scope="module")
def worlds():
    g = erdos_renyi(N, 0.025, seed=941)
    gw = with_random_weights(g, seed=942)
    return {
        "g": g,
        "gw": gw,
        "m": MetricView(g),
        "mw": MetricView(gw),
        "pairs": sample_pairs(N, 250, seed=943),
    }


def _max_header_bits(scheme, pairs):
    worst = 0
    for s, t in pairs:
        header = None
        cur = s
        dest = scheme.label_of(t)
        for _ in range(4000):
            action = scheme.step(cur, header, dest)
            if isinstance(action, Deliver):
                break
            assert isinstance(action, Forward)
            header = action.header
            worst = max(worst, header_bits(header))
            cur = scheme.ports.neighbor(cur, action.port)
        else:
            raise AssertionError("routing did not terminate")
    return worst


CASES = [
    pytest.param(
        Stretch2Plus1Scheme, {"eps": 0.5}, False,
        "Thm 10: Õ(1/eps)-bit headers", id="thm10",
    ),
    pytest.param(
        Stretch5PlusScheme, {"eps": 0.6}, True,
        "Thm 11: Õ((1/eps) logD)-bit headers", id="thm11",
    ),
    pytest.param(
        Warmup3Scheme, {"eps": 0.25}, True,
        "warm-up, eps=0.25 (bigger 1/eps)", id="warmup-eps4",
    ),
    pytest.param(
        ThorupZwickScheme, {"k": 3}, True,
        "TZ k=3: o(log^2 n)-bit headers", id="tz3",
    ),
]


@pytest.mark.parametrize("factory,kwargs,weighted,claim", CASES)
def test_header_bits(benchmark, report, worlds, factory, kwargs, weighted, claim):
    def run():
        g = worlds["gw"] if weighted else worlds["g"]
        metric = worlds["mw"] if weighted else worlds["m"]
        scheme = factory(g, metric=metric, seed=71, **kwargs)
        return _max_header_bits(scheme, worlds["pairs"])

    bits = benchmark.pedantic(run, rounds=1, iterations=1)
    assert 0 < bits < 4096  # sanity: headers are tens of bytes, not KBs
    report.section(SECTION)
    report.line(f"{claim:<42} max {bits} bits ({bits // 8} bytes)")
