"""Header bits: scheme headers on the value codec, true bit measurement."""

import math

from repro.graph.generators import erdos_renyi, with_random_weights
from repro.graph.metric import MetricView
from repro.routing import header_bits
from repro.routing.model import Deliver, Forward
from repro.routing.shard_codec import decode_value, encode_value
from repro.schemes import Stretch5PlusScheme, Warmup3Scheme


class TestRoundTrip:
    def test_scheme_shaped_headers(self):
        shapes = [
            None,
            ("ball",),
            ("torep", 17),
            ("t1", ("seq", 2, (3, 4, 5), (7, ((1, 2), (3, 4))))),
            ("t2", (0, (9, 8, 7, 6))),
            ("tree", 12, (5, ())),
        ]
        for header in shapes:
            assert decode_value(encode_value(header)) == header


class TestVarint:
    def test_small_ints_are_small(self):
        assert len(encode_value(0)) == 2  # tag + one varint byte
        assert len(encode_value(63)) == 2
        assert len(encode_value(10_000)) <= 4


class TestRealHeaderBits:
    """Measure true on-the-wire header bits of routed messages."""

    def _max_header_bits(self, scheme, pairs):
        worst = 0
        for s, t in pairs:
            header = None
            cur = s
            dest = scheme.label_of(t)
            for _ in range(2000):
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

    def test_warmup_headers_logarithmic(self):
        g = with_random_weights(erdos_renyi(70, 0.08, seed=501), seed=502)
        scheme = Warmup3Scheme(g, eps=0.5, metric=MetricView(g), seed=1)
        pairs = [(u, (u * 7 + 3) % 70) for u in range(0, 70, 3)]
        bits = self._max_header_bits(scheme, [(u, v) for u, v in pairs if u != v])
        # O((1/eps) log n) bits: generous numeric cap for eps=0.5, n=70
        b = scheme.technique.b
        cap = 8 * (2 * b + 6) * math.ceil(math.log2(70)) + 256
        assert 0 < bits <= cap

    def test_thm11_headers_bounded(self):
        g = with_random_weights(erdos_renyi(70, 0.08, seed=503), seed=504)
        metric = MetricView(g)
        scheme = Stretch5PlusScheme(g, eps=0.6, metric=metric, seed=2)
        pairs = [(u, (u * 11 + 5) % 70) for u in range(0, 70, 3)]
        bits = self._max_header_bits(scheme, [(u, v) for u, v in pairs if u != v])
        b = scheme.technique.b
        log_nd = math.log2(max(2.0, 70 * metric.normalized_diameter()))
        cap = 8 * (2 * b * (log_nd + 2) + 16) * math.ceil(math.log2(70))
        assert 0 < bits <= cap
