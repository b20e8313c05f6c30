"""Waypoint-sequence construction (Lemmas 7 and 8 preprocessing)."""

import pytest

from repro.graph.generators import erdos_renyi, grid, with_random_weights
from repro.graph.metric import MetricView
from repro.structures.balls import BallFamily
from repro.structures.hitting_set import greedy_hitting_set
from repro.core.sequences import (
    build_lemma7_sequence,
    build_lemma8_sequence,
)


@pytest.fixture(scope="module")
def setup_unweighted():
    g = erdos_renyi(70, 0.07, seed=21)
    m = MetricView(g)
    fam = BallFamily(m, 8)
    hitting = greedy_hitting_set([fam.ball(u) for u in range(70)])
    return m, fam, hitting


@pytest.fixture(scope="module")
def setup_weighted():
    g = with_random_weights(erdos_renyi(60, 0.08, seed=22), seed=23)
    m = MetricView(g)
    fam = BallFamily(m, 8)
    return m, fam


class TestLemma7Sequence:
    def test_waypoints_on_shortest_path_until_hub(self, setup_unweighted):
        m, fam, hitting = setup_unweighted
        for u in range(0, 70, 6):
            for v in range(1, 70, 9):
                if u == v:
                    continue
                seq = build_lemma7_sequence(
                    m, fam, hitting, u, v, b=4, d_uv=m.d(u, v)
                )
                body = (
                    seq.waypoints
                    if seq.hub is None
                    else seq.waypoints[:-1]
                    if seq.waypoints and seq.waypoints[-1] == seq.hub
                    else seq.waypoints
                )
                for x in body:
                    assert m.on_shortest_path(u, x, v), (u, v, seq)

    def test_length_bound(self, setup_unweighted):
        m, fam, hitting = setup_unweighted
        for b in (1, 2, 4, 8):
            for u in range(0, 70, 10):
                for v in range(1, 70, 11):
                    if u == v:
                        continue
                    seq = build_lemma7_sequence(
                        m, fam, hitting, u, v, b=b, d_uv=m.d(u, v)
                    )
                    assert len(seq.waypoints) <= 2 * b + 2

    def test_direct_sequences_end_at_target(self, setup_unweighted):
        m, fam, hitting = setup_unweighted
        for u in range(0, 70, 6):
            for v in range(1, 70, 9):
                if u == v:
                    continue
                seq = build_lemma7_sequence(
                    m, fam, hitting, u, v, b=4, d_uv=m.d(u, v)
                )
                if seq.hub is None:
                    assert seq.waypoints[-1] == v

    def test_hub_is_in_hitting_set(self, setup_unweighted):
        m, fam, hitting = setup_unweighted
        hubs = 0
        for u in range(70):
            for v in range(70):
                if u == v:
                    continue
                seq = build_lemma7_sequence(
                    m, fam, hitting, u, v, b=1, d_uv=m.d(u, v)
                )
                if seq.hub is not None:
                    hubs += 1
                    assert seq.hub in hitting
        assert hubs > 0  # b=1 forces hub endings on distant pairs

    def test_ball_local_target_is_single_waypoint(self, setup_unweighted):
        m, fam, hitting = setup_unweighted
        u = 0
        v = fam.ball(u)[1]
        seq = build_lemma7_sequence(
            m, fam, hitting, u, v, b=4, d_uv=m.d(u, v)
        )
        assert seq.waypoints == (v,)
        assert seq.hub is None

    def test_self_pair_rejected(self, setup_unweighted):
        m, fam, hitting = setup_unweighted
        with pytest.raises(ValueError):
            build_lemma7_sequence(
                m, fam, hitting, 3, 3, b=2, d_uv=m.d(3, 3)
            )

    def test_invalid_b_rejected(self, setup_unweighted):
        m, fam, hitting = setup_unweighted
        with pytest.raises(ValueError):
            build_lemma7_sequence(
                m, fam, hitting, 0, 1, b=0, d_uv=m.d(0, 1)
            )


class TestLemma8Sequence:
    def _relay_pool(self, fam, members):
        member_set = set(members)
        def pool(x):
            return next((y for y in fam.ball(x) if y in member_set), None)
        return pool

    def test_prefix_follows_shortest_path(self, setup_weighted):
        m, fam = setup_weighted
        pool = self._relay_pool(fam, range(m.n))  # everyone is a relay
        lam = m.tight_min_weight()
        for u in range(0, m.n, 5):
            for w in range(1, m.n, 7):
                if u == w:
                    continue
                seq = build_lemma8_sequence(m, fam, pool, u, w, b=4, lam=lam)
                body = seq.waypoints[:-1] if seq.to_relay else seq.waypoints
                for x in body:
                    assert m.on_shortest_path(u, x, w)

    def test_direct_sequences_end_at_target(self, setup_weighted):
        m, fam = setup_weighted
        pool = self._relay_pool(fam, range(m.n))
        lam = m.tight_min_weight()
        for u in range(0, m.n, 5):
            for w in range(1, m.n, 7):
                if u == w:
                    continue
                seq = build_lemma8_sequence(m, fam, pool, u, w, b=4, lam=lam)
                if not seq.to_relay:
                    assert seq.waypoints[-1] == w

    def test_relay_strictly_closer(self):
        """Claim 9: a relay ending is strictly closer to the target.

        Uses a grid (long shortest paths, small balls) and a sparse relay
        class, which forces the relay branch of the construction.
        """
        g = grid(9, 9)
        m = MetricView(g)
        fam = BallFamily(m, 8)
        relays = set(range(0, m.n, 3))
        # patch the relay class so every ball contains one (Lemma 6 would
        # guarantee this; here we enforce it by hand)
        for x in range(m.n):
            if not relays & set(fam.ball(x)):
                relays.add(fam.ball(x)[1])
        pool = self._relay_pool(fam, relays)
        found_relay = False
        for u in sorted(relays):
            for w in range(0, m.n, 5):
                if u == w or pool(u) is None:
                    continue
                seq = build_lemma8_sequence(m, fam, pool, u, w, b=2, lam=1.0)
                if seq.to_relay:
                    found_relay = True
                    relay = seq.waypoints[-1]
                    assert relay in relays or relay == u
                    assert m.d(relay, w) < m.d(u, w)
        assert found_relay

    def test_adjacent_target(self, setup_weighted):
        m, fam = setup_weighted
        pool = self._relay_pool(fam, range(m.n))
        lam = m.tight_min_weight()
        u = 0
        w = m.graph.neighbors(0)[0]
        seq = build_lemma8_sequence(m, fam, pool, u, w, b=3, lam=lam)
        assert not seq.to_relay

    def test_self_pair_rejected(self, setup_weighted):
        m, fam = setup_weighted
        with pytest.raises(ValueError):
            build_lemma8_sequence(m, fam, lambda x: 0, 2, 2, b=3, lam=1.0)

    def test_bad_lam_rejected(self, setup_weighted):
        m, fam = setup_weighted
        with pytest.raises(ValueError):
            build_lemma8_sequence(m, fam, lambda x: 0, 0, 1, b=3, lam=0.0)

    def test_grid_long_paths(self):
        """Grids force many subsequences (long shortest paths)."""
        g = grid(9, 9)
        m = MetricView(g)
        fam = BallFamily(m, 6)
        pool = self._relay_pool(fam, range(m.n))
        seq = build_lemma8_sequence(m, fam, pool, 0, 80, b=3, lam=1.0)
        assert seq.waypoints  # built without hitting the round cap
