"""Random walks, window pairs, and negative sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disene import sampling
from disene.graph_core import build_graph
from disene.sampling import (PairBatch, WalkConfig, build_pair_batch,
                             generate_walks, pairs_from_walks,
                             sample_negatives)


def window_pairs_oracle(walk, window):
    """Every ordered co-occurrence within the window, no self-pairs."""
    out = []
    for i, u in enumerate(walk):
        for j in range(max(0, i - window), min(len(walk), i + window + 1)):
            if i != j and u != walk[j]:
                out.append((u, walk[j]))
    return out


def walks_reference(g, cfg):
    """The loop that defines the walks: each start node draws from its own
    stream, one rng.integers call per step over all its walks."""
    rows = []
    for v in range(g.num_nodes):
        if g.degrees[v] == 0:
            rows += [[v] + [-1] * (cfg.walk_length - 1)] * cfg.num_walks
            continue
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, v]))
        cur = np.full(cfg.num_walks, v)
        trace = [cur]
        for _ in range(1, cfg.walk_length):
            cur = g.indices[g.indptr[cur] + rng.integers(0, g.degrees[cur])]
            trace.append(cur)
        rows += np.stack(trace, axis=1).tolist()
    return np.array(rows, dtype=np.int64).reshape(-1, cfg.walk_length)


@st.composite
def walk_graphs(draw):
    """Paths, stars and arbitrary graphs, plus isolated nodes."""
    shape = draw(st.sampled_from(["path", "star", "any"]))
    n = draw(st.integers(2, 12))
    if shape == "path":
        pairs = [(i, i + 1) for i in range(n - 1)]
    elif shape == "star":
        pairs = [(0, i) for i in range(1, n)]
    else:
        node = st.integers(0, n - 1)
        pairs = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    return build_graph(n + draw(st.integers(0, 3)), pairs)


class TestWalks:
    def test_shape_and_validity(self, two_cliques):
        g, _ = two_cliques
        cfg = WalkConfig(walk_length=8, num_walks=3, seed=0)
        walks = generate_walks(g, cfg)
        assert len(walks) == g.num_nodes * cfg.num_walks
        for w in walks:
            assert len(w) == cfg.walk_length
            for a, b in zip(w[:-1], w[1:]):
                assert (min(a, b), max(a, b)) in g.edge_set

    def test_walks_start_at_their_node(self, two_cliques):
        g, _ = two_cliques
        cfg = WalkConfig(walk_length=5, num_walks=2, window=2, seed=1)
        walks = generate_walks(g, cfg)
        for v in range(g.num_nodes):
            for r in range(cfg.num_walks):
                assert walks[v * cfg.num_walks + r][0] == v

    def test_isolated_node_gets_singleton_walks(self):
        g = build_graph(3, [(0, 1)])
        walks = generate_walks(g, WalkConfig(walk_length=6, num_walks=2, seed=0))
        assert walks.shape == (6, 6)
        np.testing.assert_array_equal(walks[4:], [[2, -1, -1, -1, -1, -1]] * 2)

    @settings(max_examples=80, deadline=None)
    @given(g=walk_graphs(), walk_length=st.integers(1, 8),
           num_walks=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_replay_matches_the_step_loop(self, g, walk_length, num_walks,
                                          seed):
        cfg = WalkConfig(walk_length=walk_length, num_walks=num_walks,
                         window=1, seed=seed)
        got = generate_walks(g, cfg)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, walks_reference(g, cfg))

    def test_rejected_draw_redoes_the_node(self, monkeypatch):
        # zero draws at a node of degree 3 fall under numpy's rejection
        # threshold (2**32 - 3) % 3 = 1; the star's centre is redone from
        # its real stream, the leaves keep the one-pass walks
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        cfg = WalkConfig(walk_length=6, num_walks=3, window=2, seed=5)
        inner, scalar = sampling._node_draws, sampling._scalar_walks

        def zero_centre(seed, nodes, count):
            draws = inner(seed, nodes, count)
            draws[nodes == 0] = 0
            return draws

        redone = []
        monkeypatch.setattr(sampling, "_node_draws", zero_centre)
        monkeypatch.setattr(sampling, "_scalar_walks",
                            lambda g, cfg, v: redone.append(v) or scalar(g, cfg, v))
        np.testing.assert_array_equal(generate_walks(g, cfg),
                                      walks_reference(g, cfg))
        assert redone == [0]

    def test_lemire_bound(self):
        x = np.array([0, 0, 2**32 - 1, 1 << 31], dtype=np.uint64)
        d = np.array([3, 4, 3, 2], dtype=np.uint64)
        step, rejected = sampling._lemire(x, d)
        np.testing.assert_array_equal(step, [0, 0, 2, 1])
        np.testing.assert_array_equal(rejected, [True, False, False, False])

    def test_deterministic(self, two_cliques):
        g, _ = two_cliques
        cfg = WalkConfig(seed=9)
        a = generate_walks(g, cfg)
        b = generate_walks(g, cfg)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestPairs:
    def test_matches_window_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            length = int(rng.integers(2, 12))
            window = int(rng.integers(1, max(2, length)))
            walk = rng.integers(0, 6, size=length)
            got = pairs_from_walks([walk], window)
            want = window_pairs_oracle(walk.tolist(), window)
            assert sorted(map(tuple, got.tolist())) == sorted(want)

    def test_both_directions_present(self):
        got = pairs_from_walks([np.array([3, 8])], window=5)
        assert sorted(map(tuple, got.tolist())) == [(3, 8), (8, 3)]

    def test_singleton_walk_no_pairs(self):
        assert len(pairs_from_walks([np.array([4])], window=3)) == 0
        assert len(pairs_from_walks(np.array([[4, -1, -1]]), window=3)) == 0


class TestNegatives:
    def test_count_and_grouping(self):
        g = build_graph(10, [(i, i + 1) for i in range(9)])
        pos = np.array([[0, 1], [2, 3], [4, 5]])
        neg = sample_negatives(g, pos, k=4, seed=0)
        assert neg.shape == (12, 2)
        # positive-major grouping: block i keeps positive i's second endpoint
        for i, (_, v) in enumerate(pos.tolist()):
            block = neg[i * 4:(i + 1) * 4]
            assert (block[:, 1] == v).all()

    def test_only_first_endpoint_corrupted(self):
        g = build_graph(40, [(i, i + 1) for i in range(39)])
        pos = np.array([[1, 2]] * 50)
        neg = sample_negatives(g, pos, k=1, seed=3)
        assert (neg[:, 1] == 2).all()
        assert len(np.unique(neg[:, 0])) > 5  # actually resampled

    def test_deterministic(self):
        g = build_graph(8, [(i, i + 1) for i in range(7)])
        pos = np.array([[0, 1], [2, 3]])
        a = sample_negatives(g, pos, 2, seed=5)
        b = sample_negatives(g, pos, 2, seed=5)
        assert np.array_equal(a, b)


class TestBatch:
    def test_build_pair_batch(self, two_cliques):
        g, _ = two_cliques
        cfg = WalkConfig(walk_length=6, num_walks=2,
                         negatives_per_positive=2, seed=0)
        batch = build_pair_batch(g, cfg)
        assert isinstance(batch, PairBatch)
        assert len(batch.negatives) == 2 * len(batch.positives)
        assert batch.positives[:, 0].max() < g.num_nodes
        # no self-pairs survive
        assert (batch.positives[:, 0] != batch.positives[:, 1]).all()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WalkConfig(walk_length=0).validate()
        with pytest.raises(ValueError):
            WalkConfig(window=0).validate()
        with pytest.raises(ValueError):
            WalkConfig(negatives_per_positive=0).validate()
