"""Loss terms against brute-force oracles, gradients against finite
differences, and end-to-end trainer behavior."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from disene import training
from disene.graph_core import build_graph, split_edges, train_subgraph
from disene.model import forward, init_params
from disene.sampling import (PairBatch, WalkConfig, build_pair_batch,
                             count_pairs)
from disene.synth import default_spec, generate_synthetic
from disene.training import (COSINE_EPS, SIGMA_CLAMP, AdamState, GradBuffer,
                             LossConfig, adam_step, loss_breakdown,
                             total_loss_and_grads, train)
from disene.training import (_count_pattern, _dis_value_grad, _ent_value_grad,
                             _rw_value_grad)


def _rand_h(rng, n, k, scale=1.0):
    return np.abs(rng.normal(size=(n, k))) * scale


def loss_rw(h, batch):
    """The trainer's L_rw value on a pair batch."""
    return _rw_value_grad(h, _count_pattern(batch.positives, batch.negatives,
                                            h.shape[0]))[0]


def loss_dis(h):
    return _dis_value_grad(h)[0]


def entropy_reg(h):
    return _ent_value_grad(h)[0]


def rw_oracle(h, batch):
    lo, hi = SIGMA_CLAMP, 1.0 - SIGMA_CLAMP
    h = h.astype(np.float64)
    total = 0.0
    for u, v in batch.positives.tolist():
        total -= math.log(min(max(expit(h[u] @ h[v]), lo), hi))
    for u, v in batch.negatives.tolist():
        total -= math.log(min(max(expit(-(h[u] @ h[v])), lo), hi))
    return total


def dis_oracle(h):
    h = h.astype(np.float64)
    f = h * h.sum(axis=0)[None, :]
    k = h.shape[1]
    total = 0.0
    for d in range(k):
        for l in range(k):
            if d == l:
                continue
            denom = np.linalg.norm(f[:, d]) * np.linalg.norm(f[:, l]) + COSINE_EPS
            total += float(f[:, d] @ f[:, l]) / denom
    return total


class TestLossRw:
    def test_matches_per_pair_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(4, 12))
            h = _rand_h(rng, n, 3).astype(np.float64)
            pos = rng.integers(0, n, size=(int(rng.integers(1, 40)), 2))
            neg = rng.integers(0, n, size=(len(pos), 2))
            batch = PairBatch(pos, neg)
            assert loss_rw(h, batch) == pytest.approx(rw_oracle(h, batch), rel=1e-9)

    def test_duplicate_pairs_double_the_loss(self):
        rng = np.random.default_rng(1)
        h = _rand_h(rng, 6, 2).astype(np.float64)
        pos = np.array([[0, 1], [2, 3]])
        neg = np.array([[4, 1], [5, 3]])
        once = loss_rw(h, PairBatch(pos, neg))
        twice = loss_rw(h, PairBatch(np.tile(pos, (2, 1)), np.tile(neg, (2, 1))))
        assert twice == pytest.approx(2 * once, rel=1e-12)

    def test_clamp_keeps_saturated_pairs_finite(self):
        h = np.full((2, 3), 100.0)  # sigmoid(-3e4) underflows without the clamp
        val = loss_rw(h, PairBatch(np.array([[0, 1]]), np.array([[1, 0]])))
        assert math.isfinite(val)
        assert val == pytest.approx(-math.log(SIGMA_CLAMP), rel=1e-6)

    def test_clamp_keeps_saturated_negative_scores_finite(self):
        # s = -3e4: the positive pair's log sigmoid(s) hits the lower clamp,
        # the negative pair's log sigmoid(-s) the upper one
        h = np.array([[100.0] * 3, [-100.0] * 3])
        batch = PairBatch(np.array([[0, 1]]), np.array([[1, 0]]))
        val = loss_rw(h, batch)
        assert math.isfinite(val)
        assert val == pytest.approx(-math.log(SIGMA_CLAMP), rel=1e-6)
        _, dh = _rw_value_grad(h, _count_pattern(batch.positives,
                                                  batch.negatives, 2))
        np.testing.assert_array_equal(dh, rw_grad_oracle(h, batch))


def rw_grad_oracle(h, batch):
    """dL_rw/dh, accumulated pair by pair in float64."""
    h = h.astype(np.float64)
    dh = np.zeros_like(h)
    for pairs, sign in ((batch.positives, 1.0), (batch.negatives, -1.0)):
        for u, v in pairs.tolist():
            # d/ds of -log sigmoid(sign * s)
            coef = expit(h[u] @ h[v]) - (1.0 if sign > 0 else 0.0)
            dh[u] += coef * h[v]
            dh[v] += coef * h[u]
    return dh


def _corpus_with_edge_cases(rng, n):
    """Pairs over nodes 0..n-4: repeats, negatives that hit their own anchor;
    the last three nodes are in no pair."""
    live = n - 3
    pos = rng.integers(0, live, size=(30, 2))
    pos = np.concatenate([pos, pos[:7], pos[:2]])        # duplicate pairs
    neg = np.stack([rng.integers(0, live, size=len(pos)), pos[:, 1]], axis=1)
    neg[::4, 0] = neg[::4, 1]                            # diagonal entries
    return PairBatch(pos, neg)


class TestCountPattern:
    def test_value_and_gradient_match_pair_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            n = int(rng.integers(8, 16))
            h = _rand_h(rng, n, 4, scale=0.6)
            batch = _corpus_with_edge_cases(rng, n)
            value, dh = _rw_value_grad(h, _count_pattern(
                batch.positives, batch.negatives, n))
            assert value == pytest.approx(rw_oracle(h, batch), rel=1e-10)
            assert _rel_err(dh, rw_grad_oracle(h, batch)) < 1e-10
            assert not dh[n - 3:].any()

    def test_mixed_sign_embedding_matches_pair_loop(self):
        # an identity-activation encoder (baseline-sgns) gives H of both
        # signs, so scores fall on both sides of the log-sigmoid
        rng = np.random.default_rng(15)
        for _ in range(5):
            n = int(rng.integers(8, 16))
            h = rng.normal(size=(n, 4)) * 1.5
            batch = _corpus_with_edge_cases(rng, n)
            scores = np.einsum("ij,ij->i", h[batch.positives[:, 0]],
                               h[batch.positives[:, 1]])
            assert (scores < 0).any() and (scores > 0).any()
            value, dh = _rw_value_grad(h, _count_pattern(
                batch.positives, batch.negatives, n))
            assert value == pytest.approx(rw_oracle(h, batch), rel=1e-10)
            assert _rel_err(dh, rw_grad_oracle(h, batch)) < 1e-10

    def test_one_upper_entry_per_unordered_pair(self):
        rng = np.random.default_rng(14)
        n = 10
        batch = _corpus_with_edge_cases(rng, n)
        cp = _count_pattern(batch.positives, batch.negatives, n)
        rows, cols = cp.rows, cp.matrix.indices
        np.testing.assert_array_equal(
            rows, np.repeat(np.arange(n), np.diff(cp.matrix.indptr)))
        assert (rows <= cols).all()
        entries = list(zip(rows.tolist(), cols.tolist()))
        assert len(set(entries)) == len(entries)
        counts = [Counter(map(tuple, pairs.tolist()))
                  for pairs in (batch.positives, batch.negatives)]
        assert set(entries) == {tuple(sorted(p)) for c in counts for p in c}
        # the corpus holds some pair in both orders
        assert any(u != v and counts[0][(v, u)] for u, v in counts[0])
        for got, c in zip((cp.pos, cp.neg), counts):
            want = [c[(u, v)] + (c[(v, u)] if u != v else 0)
                    for u, v in entries]
            np.testing.assert_array_equal(got, want)

    def test_empty_corpus(self):
        h = _rand_h(np.random.default_rng(12), 5, 3)
        empty = np.empty((0, 2), dtype=np.int64)
        value, dh = _rw_value_grad(h, _count_pattern(empty, empty, 5))
        assert value == 0.0
        assert dh.shape == h.shape and not dh.any()
        assert loss_rw(h, PairBatch(empty, empty)) == 0.0

    def test_row_blocks_equal_one_block(self, monkeypatch):
        rng = np.random.default_rng(13)
        n = 12
        # BLAS may sum a block's dot products in another order; on dyadic
        # entries every order gives the exact sum
        h = rng.integers(0, 9, size=(n, 5)) / 8.0
        batch = _corpus_with_edge_cases(rng, n)
        cp = _count_pattern(batch.positives, batch.negatives, n)
        assert training.BLOCK_ENTRIES >= n * n
        want_value, want_dh = _rw_value_grad(h, cp)
        assert len(cp.plan) == 1
        # blocks of 2 rows; rows 9-11 hold no pair, so block [10, 12) is
        # empty. A pattern plans its blocks on first use, so the patch needs
        # a new pattern to reach the kernel
        monkeypatch.setattr(training, "BLOCK_ENTRIES", 2 * n)
        blocked = _count_pattern(batch.positives, batch.negatives, n)
        value, dh = _rw_value_grad(h, blocked)
        assert len(blocked.plan) > 1
        assert all(r1 - r0 == 2 for r0, r1, *_ in blocked.plan)
        assert value == want_value
        np.testing.assert_array_equal(dh, want_dh)


# the L_rw kernels: (gradient, dots) forced through share constants
RW_PATHS = {
    "dense": {"DENSE_SHARE": 0.0, "GATHER_SHARE": 0.0},
    "csr": {"DENSE_SHARE": math.inf, "GATHER_SHARE": 0.0},
    "gather": {"DENSE_SHARE": math.inf, "GATHER_SHARE": math.inf},
}


class TestCountPatternPaths(TestCountPattern):
    """TestCountPattern's oracles through each L_rw kernel in turn."""

    @pytest.fixture(autouse=True, params=sorted(RW_PATHS))
    def rw_path(self, request, monkeypatch):
        for name, value in RW_PATHS[request.param].items():
            monkeypatch.setattr(training, name, value)

    def test_dense_scratch_follows_the_dtype(self):
        rng = np.random.default_rng(16)
        batch = _corpus_with_edge_cases(rng, 10)
        cp = _count_pattern(batch.positives, batch.negatives, 10)
        # float32 values, so both dtypes see the same embedding
        h = _rand_h(rng, 10, 3).astype(np.float32).astype(np.float64)
        want_value, want_dh = rw_oracle(h, batch), rw_grad_oracle(h, batch)
        for dtype, rtol in ((np.float32, 1e-5), (np.float64, 1e-10),
                            (np.float32, 1e-5)):
            value, dh = _rw_value_grad(h.astype(dtype), cp)
            assert dh.dtype == dtype
            assert value == pytest.approx(want_value, rel=rtol)
            np.testing.assert_allclose(dh, want_dh, rtol=rtol, atol=rtol)
        assert set(cp.scratch) == {np.dtype(np.float32), np.dtype(np.float64)}

    def test_float32_matches_the_float64_oracles(self):
        rng = np.random.default_rng(17)
        for scale, signs in ((0.6, False), (1.5, True), (4.0, False)):
            n = int(rng.integers(8, 16))
            h = _rand_h(rng, n, 4, scale=scale)
            if signs:  # scores on both sides of the log-sigmoid
                h *= rng.choice([-1.0, 1.0], size=h.shape)
            h32 = h.astype(np.float32)
            batch = _corpus_with_edge_cases(rng, n)
            value, dh = _rw_value_grad(h32, _count_pattern(
                batch.positives, batch.negatives, n))
            assert dh.dtype == np.float32
            assert value == pytest.approx(rw_oracle(h32, batch), rel=1e-5)
            want = rw_grad_oracle(h32, batch)
            np.testing.assert_allclose(dh, want, rtol=1e-5,
                                       atol=1e-5 * np.abs(want).max())


def reference_pattern(g, cfg):
    """The count pattern of the materialised corpus."""
    batch = build_pair_batch(g, cfg)
    return _count_pattern(batch.positives, batch.negatives, g.num_nodes)


def assert_walk_counts_match(g, cfg):
    """`count_pairs` gives the reference pattern, bit for bit."""
    got = training._pattern(*count_pairs(g, cfg), g.num_nodes)
    want = reference_pattern(g, cfg)
    for name in ("indptr", "indices"):
        a, b = getattr(got.matrix, name), getattr(want.matrix, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert (got.flat is None) == (want.flat is None)
    for name in ("rows", "pos", "neg", "flat"):
        a, b = getattr(got, name), getattr(want, name)
        if b is not None:
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def _split_graph(kind, seed, **spec):
    g, _ = generate_synthetic(replace(default_spec(kind, seed=seed), **spec))
    return train_subgraph(g, split_edges(g, 0.1, seed))


# cliques of two and these seeds leave nodes without a training edge at
# split 0.1, whose walks are padded with -1
ISOLATING = {"ring_cliques": 1, "sbm_cliques": 0, "ba_cliques": 0,
             "er_cliques": 6}
WALK_CASES = {
    "default": {},
    "three_negatives": {"negatives_per_positive": 3},
    "window_1": {"window": 1},
    "window_walk_length_minus_1": {"walk_length": 8, "window": 7},
    "one_walk": {"num_walks": 1},
}


class TestWalkCounts:
    """`train` counts its pattern from the walks; the reference counts the
    corpus `build_pair_batch` materialises. The two agree bit for bit."""

    @pytest.mark.parametrize("kind", sorted(ISOLATING))
    def test_benchmark_sized_families(self, kind):
        assert_walk_counts_match(_split_graph(kind, 20001),
                                 WalkConfig(seed=20001))

    @pytest.mark.parametrize("case", sorted(WALK_CASES))
    @pytest.mark.parametrize("kind", sorted(ISOLATING))
    def test_isolated_nodes_and_walk_settings(self, kind, case):
        g = _split_graph(kind, ISOLATING[kind], num_cliques=16,
                         clique_size=2, base_nodes=32,
                         noise_edges=4 if kind == "ring_cliques" else 0)
        assert (g.degrees == 0).any()
        assert_walk_counts_match(
            g, WalkConfig(seed=ISOLATING[kind], **WALK_CASES[case]))

    def test_codes_past_int32(self):
        # V * V >= 2**31 counts in int64: the live nodes are the last ten,
        # so the positives' codes min * V + max pass 2**31
        n = 50000
        live = range(n - 10, n)
        g = build_graph(n, [(u, v) for u in live for v in live if u < v])
        cfg = WalkConfig(walk_length=4, num_walks=2, window=2, seed=3)
        codes, pos, _ = count_pairs(g, cfg)
        assert codes[pos > 0].min() >= 2**31
        assert_walk_counts_match(g, cfg)

    def test_train_equals_training_on_the_reference_pattern(self,
                                                            monkeypatch):
        g = _split_graph("er_cliques", 20001)
        cfg, walks = LossConfig(epochs=5, seed=20001), WalkConfig(seed=20001)
        got = train(g, cfg, walks, dim_hidden=16, dim=8)
        want_pattern = reference_pattern(g, walks)
        monkeypatch.setattr(training, "_pattern", lambda *_: want_pattern)
        want = train(g, cfg, walks, dim_hidden=16, dim=8)
        assert got.embedding.tobytes() == want.embedding.tobytes()
        assert got.loss_trace == want.loss_trace
        assert got.final_loss == want.final_loss

    def test_train_builds_no_pair_batch(self, monkeypatch):
        # nor does it count with np.unique or np.union1d, which take a hash
        # path far slower than a sort on numpy 2.4
        def refuse(*_, **__):
            raise AssertionError("train built or hashed the pair corpus")

        monkeypatch.setattr(training, "build_pair_batch", refuse)
        monkeypatch.setattr(training, "_count_pattern", refuse)
        monkeypatch.setattr(np, "unique", refuse)
        monkeypatch.setattr(np, "union1d", refuse)
        g = build_graph(6, [(i, i + 1) for i in range(5)])
        train(g, LossConfig(epochs=2), WalkConfig(walk_length=4, window=2),
              dim_hidden=4, dim=2)


class TestDensityRegimes:
    """Which L_rw kernel the benchmark's graphs take by default."""

    @staticmethod
    def _pattern(kind, num_walks, **spec):
        g, _ = generate_synthetic(replace(default_spec(kind, seed=401), **spec))
        batch = build_pair_batch(g, WalkConfig(num_walks=num_walks, seed=401))
        return g, batch

    @staticmethod
    def _gathered_blocks(cp):
        assert cp.plan
        return np.array([offsets is None for *_, offsets in cp.plan])

    def test_er64_full_batch_is_dense(self):
        g, batch = self._pattern("er_cliques", 10)
        cp = _count_pattern(batch.positives, batch.negatives, g.num_nodes)
        assert cp.flat is not None
        assert not self._gathered_blocks(cp).any()

    def test_ba2560_full_batch_is_csr_blocks_and_slices_gather(self):
        g, batch = self._pattern("ba_cliques", 1, num_cliques=128,
                                 base_nodes=1280)
        n = g.num_nodes
        cp = _count_pattern(batch.positives, batch.negatives, n)
        assert cp.flat is None
        assert not self._gathered_blocks(cp).any()
        # a sparse pattern gathers: 4096 of the corpus's pairs, like the
        # full corpus of a far larger graph, fill too few entries per block
        idx = np.random.default_rng(0).permutation(len(batch.positives))[:4096]
        sl = _count_pattern(batch.positives[idx], batch.negatives[idx], n)
        assert sl.flat is None
        assert self._gathered_blocks(sl).all()


class TestLossDis:
    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            h = _rand_h(rng, int(rng.integers(3, 15)), int(rng.integers(2, 6)))
            assert loss_dis(h) == pytest.approx(dis_oracle(h), rel=1e-6)

    def test_disjoint_supports_score_zero(self):
        h = np.zeros((6, 2))
        h[:3, 0] = 1.0
        h[3:, 1] = 1.0
        assert loss_dis(h) == pytest.approx(0.0, abs=1e-9)

    def test_identical_columns_score_max(self):
        h = np.ones((5, 3))
        # every off-diagonal cosine is 1: K(K-1) terms
        assert loss_dis(h) == pytest.approx(6.0, rel=1e-6)

    def test_single_dimension_counts_no_regularizer(self):
        g = build_graph(6, [(i, i + 1) for i in range(5)])
        cfg = LossConfig(lambda_dis=0.7, lambda_ent=0.5)
        batch = build_pair_batch(g, WalkConfig(walk_length=4, num_walks=2,
                                               window=2, seed=0))
        params = init_params(g, "fc", 4, 1, seed=0, dtype=np.float64)
        bd = loss_breakdown(params, g, batch, cfg)
        assert bd["dis"] == bd["ent"] == 0.0
        assert bd["total"] == bd["rw"] > 0.0


class TestEntropyReg:
    def test_uniform_masses_give_zero(self):
        h = np.ones((7, 4))
        assert entropy_reg(h) == pytest.approx(0.0, abs=1e-12)

    def test_single_live_column_gives_one(self):
        h = np.zeros((5, 4))
        h[:, 2] = 3.0
        assert entropy_reg(h) == pytest.approx(1.0, abs=1e-9)

    def test_all_zero_embedding_gives_one(self):
        assert entropy_reg(np.zeros((5, 4))) == 1.0

    def test_single_dimension_gives_zero(self):
        assert entropy_reg(np.ones((5, 1))) == 0.0

    def test_formula_and_range_on_random_sweep(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h = _rand_h(rng, 8, int(rng.integers(2, 7)))
            s = h.sum(axis=0)
            p = s / s.sum()
            want = 1.0 - float(-(p * np.log(p)).sum()) / math.log(h.shape[1])
            got = entropy_reg(h)
            assert got == pytest.approx(want, abs=1e-9)
            assert -1e-12 <= got <= 1.0 + 1e-12


def _fd_grads(params, g, batch, cfg, eps=1e-5):
    """Central finite differences of the total loss, entry by entry."""
    out = {}
    for name in ("W1", "W"):
        w = getattr(params, name)
        grad = np.zeros_like(w)
        for idx in np.ndindex(*w.shape):
            keep = w[idx]
            w[idx] = keep + eps
            fp = total_loss_and_grads(params, g, batch, cfg)[0]
            w[idx] = keep - eps
            fm = total_loss_and_grads(params, g, batch, cfg)[0]
            w[idx] = keep
            grad[idx] = (fp - fm) / (2 * eps)
        out[name] = grad
    return out


def _rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)


class TestGradients:
    @pytest.mark.parametrize("kind", ["fc", "gcn"])
    @pytest.mark.parametrize("activation", ["relu", "softplus"])
    def test_analytic_matches_finite_differences(self, kind, activation):
        g = build_graph(8, [(i, (i + 1) % 8) for i in range(8)] + [(0, 4), (2, 6)])
        cfg = LossConfig(lambda_dis=0.7, lambda_ent=0.5)
        batch = build_pair_batch(g, WalkConfig(walk_length=5, num_walks=2,
                                               window=2, seed=1))
        params = init_params(g, kind, dim_hidden=3, dim=3, seed=4,
                             activation=activation, dtype=np.float64)
        _, buf = total_loss_and_grads(params, g, batch, cfg)
        fd = _fd_grads(params, g, batch, cfg)
        assert _rel_err(buf.dW1, fd["W1"]) < 1e-6
        assert _rel_err(buf.dW, fd["W"]) < 1e-6

    def test_rw_only_gradient(self):
        g = build_graph(6, [(i, i + 1) for i in range(5)])
        cfg = LossConfig(lambda_dis=0.0, lambda_ent=0.0)
        batch = build_pair_batch(g, WalkConfig(walk_length=4, num_walks=2,
                                               window=2, seed=0))
        params = init_params(g, "fc", 4, 2, seed=0, dtype=np.float64)
        _, buf = total_loss_and_grads(params, g, batch, cfg)
        fd = _fd_grads(params, g, batch, cfg)
        assert _rel_err(buf.dW1, fd["W1"]) < 1e-6
        assert _rel_err(buf.dW, fd["W"]) < 1e-6


class TestObjective:
    @pytest.mark.parametrize("kind", ["fc", "gcn"])
    def test_breakdown_total_is_the_step_loss(self, kind):
        # both come from one objective, so they agree to the last bit
        g = build_graph(8, [(i, (i + 1) % 8) for i in range(8)] + [(0, 4), (2, 6)])
        cfg = LossConfig(lambda_dis=0.7, lambda_ent=0.5)
        batch = build_pair_batch(g, WalkConfig(walk_length=5, num_walks=2,
                                               window=2, seed=1))
        params = init_params(g, kind, dim_hidden=6, dim=4, seed=3)
        bd = loss_breakdown(params, g, batch, cfg)
        assert bd["dis"] > 0.0 and bd["ent"] > 0.0
        assert bd["total"] == total_loss_and_grads(params, g, batch, cfg)[0]


class TestAdam:
    def test_matches_reference_trace(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        params = init_params(g, "fc", 2, 2, seed=5, dtype=np.float64)
        want_w1 = params.W1.copy()
        want_w = params.W.copy()
        state = AdamState.zeros(params)
        rng = np.random.default_rng(6)
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        m1, v1 = np.zeros_like(want_w1), np.zeros_like(want_w1)
        m2, v2 = np.zeros_like(want_w), np.zeros_like(want_w)
        for t in range(1, 4):
            g1 = rng.normal(size=want_w1.shape)
            g2 = rng.normal(size=want_w.shape)
            adam_step(params, GradBuffer(g1.copy(), g2.copy()), state, lr)
            m1 = b1 * m1 + (1 - b1) * g1
            v1 = b2 * v1 + (1 - b2) * g1 * g1
            m2 = b1 * m2 + (1 - b1) * g2
            v2 = b2 * v2 + (1 - b2) * g2 * g2
            want_w1 -= lr * (m1 / (1 - b1 ** t)) / (np.sqrt(v1 / (1 - b2 ** t)) + eps)
            want_w -= lr * (m2 / (1 - b1 ** t)) / (np.sqrt(v2 / (1 - b2 ** t)) + eps)
        np.testing.assert_allclose(params.W1, want_w1, rtol=1e-12)
        np.testing.assert_allclose(params.W, want_w, rtol=1e-12)


class TestLossConfig:
    @pytest.mark.parametrize("bad", [
        dict(lambda_dis=-0.1), dict(lambda_ent=-1.0), dict(epochs=0),
        dict(learning_rate=0.0), dict(lambda_dis=math.nan),
        dict(lambda_ent=math.inf), dict(learning_rate=math.nan),
        dict(learning_rate=math.inf),
    ])
    def test_validate_rejects(self, bad):
        with pytest.raises(ValueError):
            LossConfig(**bad).validate()


class TestTrain:
    WALKS = WalkConfig(walk_length=8, num_walks=3, window=2, seed=0)

    def test_loss_decreases_and_embedding_nonnegative(self, two_cliques):
        g, _ = two_cliques
        res = train(g, LossConfig(epochs=20), self.WALKS, dim_hidden=16, dim=4)
        assert res.loss_trace[-1] < res.loss_trace[0]
        assert (res.embedding >= 0).all()
        assert res.embedding.shape == (10, 4)
        assert len(res.loss_trace) == 20

    def test_deterministic(self, two_cliques):
        g, _ = two_cliques
        cfg = LossConfig(epochs=5, seed=7)
        a = train(g, cfg, self.WALKS, dim_hidden=8, dim=3)
        b = train(g, cfg, self.WALKS, dim_hidden=8, dim=3)
        np.testing.assert_array_equal(a.embedding, b.embedding)
        assert a.loss_trace == b.loss_trace

    def test_identity_activation_requires_zero_weights(self, two_cliques):
        g, _ = two_cliques
        with pytest.raises(ValueError, match="identity"):
            train(g, LossConfig(epochs=2), self.WALKS, activation="identity")

    def test_identity_with_zero_weights_trains(self, two_cliques):
        g, _ = two_cliques
        res = train(g, LossConfig(lambda_dis=0.0, lambda_ent=0.0, epochs=5),
                    self.WALKS, dim_hidden=8, dim=3, activation="identity")
        assert (res.embedding < 0).any()  # plain skip-gram is unconstrained

    def test_final_embedding_is_encoded_once(self, two_cliques, monkeypatch):
        g, _ = two_cliques
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return forward(*args, **kwargs)

        monkeypatch.setattr(training, "forward", counting)
        res = train(g, LossConfig(epochs=5), self.WALKS, dim_hidden=8, dim=3)
        assert len(calls) == 5 + 1
        assert len(res.loss_trace) == 5

    @pytest.mark.parametrize("path", sorted(RW_PATHS))
    def test_final_loss_is_the_objective_total(self, two_cliques, path,
                                               monkeypatch):
        # read without dL/dH, the final loss is still the total that the
        # objective with its gradient gives, to the bit
        for name, value in RW_PATHS[path].items():
            monkeypatch.setattr(training, name, value)
        rw_value_grad, grads = training._rw_value_grad, []

        def recording(h, cp, grad=True):
            grads.append(grad)
            return rw_value_grad(h, cp, grad)

        monkeypatch.setattr(training, "_rw_value_grad", recording)
        g, _ = two_cliques
        cfg = LossConfig(epochs=3)
        res = train(g, cfg, self.WALKS, dim_hidden=8, dim=4)
        assert grads == [True] * 3 + [False]
        batch = build_pair_batch(g, self.WALKS)
        cp = _count_pattern(batch.positives, batch.negatives, g.num_nodes)
        assert (cp.flat is not None) == (path == "dense")
        assert all((offsets is None) == (path == "gather")
                   for *_, offsets in cp.plan)
        terms, dh = training._objective(res.embedding, cp, cfg)
        assert dh is not None
        assert res.final_loss == terms["total"]

    def test_final_loss_matches_breakdown(self, two_cliques):
        g, _ = two_cliques
        cfg = LossConfig(epochs=4)
        res = train(g, cfg, self.WALKS, dim_hidden=8, dim=4)
        batch = build_pair_batch(g, self.WALKS)
        bd = loss_breakdown(res.params, g, batch, cfg)
        assert res.final_loss == pytest.approx(bd["total"], rel=1e-6)
        assert bd["total"] == pytest.approx(
            bd["rw"] + cfg.lambda_dis * bd["dis"] + cfg.lambda_ent * bd["ent"],
            rel=1e-12)
