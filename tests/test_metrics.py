"""Metric oracles: every scalar here is recomputed by a naive independent
implementation or pinned from a hand calculation."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from disene import graph_core, metrics
from disene.cli import _write_json
from disene.explain import Explanation, build_explanations, node_support
from disene.graph_core import build_graph, communities_from_labels, twin_quotient
from disene.metrics import (auc_pr, comprehensibility, compute_report, fpc_matrix, jaccard,
                            overlap_consistency, pearson,
                            positional_coherence, proximities, sparsity,
                            weighted_f1)
from disene.synth import SynthSpec, default_spec, generate_synthetic


def _expl_from_sets(edge_sets, g=None):
    """Hand-built Explanation with unit weights on each dimension's edge set.

    Without a graph, the union of the sets is the edge universe.
    """
    if g is None:
        union = sorted(set().union(*edge_sets))
        g = build_graph(1 + max(max(e) for e in union), union)
    w = np.zeros((g.num_edges, len(edge_sets)))
    for d, es in enumerate(edge_sets):
        w[g.edge_rows(sorted(es)), d] = 1.0
    return Explanation(graph=g, weights=w, mu=np.zeros(len(edge_sets)),
                       background_size=1)


def _mask(g, weights):
    """(E, 1) mask column over g's edges from an {edge: weight} dict."""
    w = np.zeros((g.num_edges, 1))
    for e, x in weights.items():
        w[g.edge_rows([e]), 0] = x
    return w


class TestPearson:
    def test_matches_corrcoef(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x, y = rng.normal(size=(2, 30))
            assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1],
                                                  abs=1e-12)

    def test_constant_input_is_nan(self):
        assert math.isnan(pearson(np.ones(5), np.arange(5.0)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pearson(np.ones(3), np.ones(4))


def _dense_weighted_f1(weights, truth):
    """The two-GEMM formula over a float64 copy of the truth: the oracle."""
    w = np.asarray(weights, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        prec = (w.T @ t) / w.sum(axis=0)[:, None]
        rec = ((w > 0.0).T.astype(np.float64) @ t) / t.sum(axis=0)[None, :]
        f1 = 2.0 * prec * rec / (prec + rec)
    return np.where((prec > 0.0) & (rec > 0.0), f1, 0.0)


def _members(truth):
    """The (C, N) bool membership CSR of an (N, C) indicator."""
    return sp.csr_matrix(np.asarray(truth, dtype=bool).T)


def _random_f1_case(seed, n, k, c, dtype):
    """Sparse masks with an all-zero last column, and 0/1 truth with an empty
    last column and, from C = 3, a first row in two communities."""
    rng = np.random.default_rng(seed)
    w = rng.random((n, k)) * (rng.random((n, k)) < 0.5)
    w[:, -1] = 0.0
    t = rng.random((n, c)) < 0.3
    if c:
        t[:, -1] = False
    if c >= 3:
        t[0, :2] = True
    return w, t.astype(dtype)


class TestWeightedF1:
    def test_hand_case(self):
        # rows (0,1), (2,3); precision 2/3 (weighted), recall 1 -> f1 = 0.8
        got = weighted_f1(np.array([[2.0], [1.0]]), _members([[1], [0]]))
        assert got.shape == (1, 1)
        assert got[0, 0] == pytest.approx(0.8, abs=1e-12)

    def test_zero_truth_or_no_overlap_scores_zero(self):
        # rows (0,1), (5,6); the mask holds (0,1); truths: empty, {(5,6)}
        got = weighted_f1(np.array([[1.0], [0.0]]),
                          _members([[0, 0], [0, 1]]))
        assert got.tolist() == [[0.0, 0.0]]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           k=st.integers(1, 5), c=st.integers(0, 6))
    def test_matches_the_dense_formula(self, seed, n, k, c):
        w, t = _random_f1_case(seed, n, k, c, bool)
        got = weighted_f1(w, _members(t))
        assert got.shape == (k, c)
        np.testing.assert_allclose(got, _dense_weighted_f1(w, t),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, c", [(1, 0), (1, 3), (9, 0), (9, 4)])
    @pytest.mark.parametrize("dtype", [bool])
    def test_edge_shapes_match_the_dense_formula(self, n, c, dtype):
        w, t = _random_f1_case(n + c, n, 3, c, dtype)
        got = weighted_f1(w, _members(t))
        assert got.shape == (3, c)
        np.testing.assert_allclose(got, _dense_weighted_f1(w, t),
                                   rtol=0, atol=1e-12)


class TestComprehensibility:
    def test_exact_community_mask_scores_one(self, two_cliques):
        g, gts = two_cliques
        mask = gts.edge_members[[0]].T.toarray().astype(np.float64)
        score, best = comprehensibility(mask, gts.edge_members)
        assert score[0] == pytest.approx(1.0, abs=1e-12)
        assert best == [0]

    def test_picks_the_best_community(self, two_cliques):
        g, gts = two_cliques
        mask = gts.edge_members[[1]].T.toarray().astype(np.float64)
        _, best = comprehensibility(mask, gts.edge_members)
        assert best == [1]

    def test_empty_mask(self, two_cliques):
        g, gts = two_cliques
        score, best = comprehensibility(np.zeros((g.num_edges, 1)),
                                        gts.edge_members)
        assert score.tolist() == [0.0] and best == [None]

    def test_partial_mask_hand_value(self, two_cliques):
        # 3 of community 0's 10 edges, uniform: prec 1, rec 0.3 -> 6/13
        g, gts = two_cliques
        mask = _mask(g, {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0})
        score, best = comprehensibility(mask, gts.edge_members)
        assert score[0] == pytest.approx(6.0 / 13.0, abs=1e-12)
        assert best == [0]


class TestSparsity:
    def test_single_edge_is_perfectly_sparse(self):
        w = np.zeros((10, 1))
        w[3, 0] = 5.0
        assert sparsity(w).tolist() == [0.0]

    def test_uniform_over_all_edges_is_one(self):
        assert sparsity(np.full((7, 1), 2.0))[0] == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        # two equal weights over a 4-edge graph: ln2 / ln4 = 0.5
        w = np.array([[3.0], [3.0], [0.0], [0.0]])
        assert sparsity(w)[0] == pytest.approx(0.5, abs=1e-12)

    def test_empty_mask_and_tiny_graph(self):
        assert sparsity(np.zeros((5, 1))).tolist() == [0.0]
        with pytest.raises(ValueError):
            sparsity(np.ones((1, 1)))


class TestJaccard:
    def test_hand_values(self):
        # rows (0,1), (1,2), (2,3), (3,4); columns a, b and an empty set
        a = [1, 1, 1, 0]
        b = [0, 1, 1, 1]
        got = jaccard(np.array([a, b, [0, 0, 0, 0]], dtype=bool).T)
        assert got[0, 1] == got[1, 0] == pytest.approx(0.5)
        assert got[0, 0] == 1.0
        assert got[0, 2] == 0.0
        assert got[2, 2] == 0.0


class TestOverlapConsistency:
    def test_perfect_alignment(self):
        # dims 0 and 1: identical columns and identical edge sets;
        # dim 2: exactly uncorrelated column, disjoint edge set
        h = np.array([[1, 1, 1], [2, 2, 0], [3, 3, 0], [4, 4, 1]], dtype=float)
        expl = _expl_from_sets([{(0, 1), (1, 2)}, {(0, 1), (1, 2)}, {(2, 3)}])
        val, reason = overlap_consistency(h, expl)
        assert reason is None
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_anti_alignment_hand_value(self):
        # JSI = (0.5, 0.5, 1.0) against rho^2 = (1, 0, 0) -> pearson -0.5
        h = np.array([[1, 1, 1], [2, 2, 0], [3, 3, 0], [4, 4, 1]], dtype=float)
        expl = _expl_from_sets([{(0, 1)}, {(0, 1), (1, 2)}, {(0, 1), (1, 2)}])
        val, reason = overlap_consistency(h, expl)
        assert reason is None
        assert val == pytest.approx(-0.5, abs=1e-12)

    def test_constant_column_counts_as_zero_correlation(self):
        h = np.array([[1, 1, 7], [2, 2, 7], [3, 3, 7], [4, 5, 7]], dtype=float)
        expl = _expl_from_sets([{(0, 1)}, {(0, 1)}, {(2, 3)}])
        val, reason = overlap_consistency(h, expl)
        assert reason is None
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_undefined_cases(self):
        h2 = np.random.default_rng(0).random((5, 2))
        expl2 = _expl_from_sets([{(0, 1)}, {(1, 2)}])
        val, reason = overlap_consistency(h2, expl2)
        assert val is None and "K >= 3" in reason

        h3 = np.random.default_rng(1).random((5, 3))
        same = {(0, 1), (1, 2)}
        expl3 = _expl_from_sets([same, same, same])
        val, reason = overlap_consistency(h3, expl3)
        assert val is None and "variance" in reason


class TestProximity:
    def test_single_source_on_path(self, path_graph):
        zeta = proximities(path_graph, [0])[0]
        want = 1.0 / (1.0 + np.arange(6))
        np.testing.assert_allclose(zeta, want, atol=1e-12)

    def test_additive_over_sources(self, path_graph):
        both = proximities(path_graph, [0, 5]).sum(axis=0)
        want = proximities(path_graph, [0])[0] + proximities(path_graph, [5])[0]
        np.testing.assert_allclose(both, want, atol=1e-12)

    def test_unreachable_contributes_zero(self):
        g = build_graph(4, [(0, 1)])  # nodes 2, 3 isolated
        zeta = proximities(g, [0])[0]
        assert zeta[2] == 0.0 and zeta[3] == 0.0
        assert zeta[0] == 1.0 and zeta[1] == 0.5


def _fpc_oracle(h, g, nodes, l):
    """Pearson(zeta(., V_d), H_:,l) from a plain BFS per node of V_d."""
    adj = {v: [] for v in range(g.num_nodes)}
    for a, b in g.edges.tolist():
        adj[a].append(b)
        adj[b].append(a)

    def hops(s):
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        return dist
    zeta = np.zeros(g.num_nodes)
    for v in nodes:
        for u, d in hops(v).items():
            zeta[u] += 1.0 / (1.0 + d)
    return pearson(zeta, h[:, l])


class TestFpc:
    def test_perfect_coherence_on_path(self, path_graph):
        h = np.zeros((6, 2))
        u = np.arange(6.0)
        h[:, 0] = 1.0 / (1.0 + u) + 1.0 / (1.0 + np.abs(u - 1))  # zeta(., {0, 1})
        h[:, 1] = u
        expl = _expl_from_sets([{(0, 1)}, {(4, 5)}], path_graph)
        got = fpc_matrix(h, expl)[0, 0]
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_none_for_empty_set_or_constant_column(self, path_graph):
        h = np.ones((6, 2))
        h[:, 0] = np.arange(6.0)
        expl = _expl_from_sets([set(), {(0, 1)}], path_graph)
        mat = fpc_matrix(h, expl)
        assert math.isnan(mat[0, 0])      # empty V_d
        assert math.isnan(mat[1, 1])      # constant column

    def test_matrix_matches_entrywise(self):
        rng = np.random.default_rng(2)
        g = build_graph(7, [(i, i + 1) for i in range(6)] + [(0, 3)])
        h = np.abs(rng.normal(size=(7, 3)))
        expl = build_explanations(h, g)
        nodes = node_support(expl)
        mat = fpc_matrix(h, expl)
        for d in range(3):
            for l in range(3):
                want = _fpc_oracle(h, g, np.flatnonzero(nodes[:, d]), l)
                if math.isnan(want):
                    assert math.isnan(mat[d, l])
                else:
                    assert mat[d, l] == pytest.approx(want, abs=1e-12)


    def test_source_blocks_equal_one_block(self, monkeypatch):
        # two disconnected halves, one with a pendant path, so blocks mix
        # sources of both components
        rng = np.random.default_rng(4)
        edges = [(i, i + 1) for i in range(9)] + [(0, 5), (2, 7)]
        edges += [(10 + i, 11 + i) for i in range(5)] + [(10, 13)]
        g = build_graph(17, edges)
        h = np.abs(rng.normal(size=(17, 4)))
        expl = build_explanations(h, g)
        used = node_support(expl).any(axis=1).sum()
        assert metrics.SOURCE_BLOCK_ENTRIES >= used * g.num_nodes
        want = fpc_matrix(h, expl)
        monkeypatch.setattr(metrics, "SOURCE_BLOCK_ENTRIES", 3 * g.num_nodes)
        got = fpc_matrix(h, expl)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@st.composite
def clique_graphs(draw):
    """Two components, each a random base with planted cliques hooked to it
    by one or two of their nodes, plus isolated nodes, relabelled at random."""
    edges, n = [], 0
    for _ in range(2):
        base = draw(st.integers(1, 5))
        nodes = list(range(n, n + base))
        edges += [(nodes[i], nodes[i + 1]) for i in range(base - 1)]
        edges += draw(st.lists(st.tuples(st.sampled_from(nodes),
                                         st.sampled_from(nodes)), max_size=3))
        n += base
        for _ in range(draw(st.integers(1, 3))):
            size = draw(st.integers(2, 5))
            clique = list(range(n, n + size))
            edges += [(a, b) for i, a in enumerate(clique) for b in clique[i + 1:]]
            for hook in clique[:draw(st.integers(1, min(2, size)))]:
                edges.append((hook, draw(st.sampled_from(nodes))))
            n += size
    n += draw(st.integers(0, 2))
    perm = np.array(draw(st.permutations(range(n))))
    return build_graph(n, perm[np.array(edges)])


def _closed_neighbourhoods(g):
    closed = [{v} for v in range(g.num_nodes)]
    for a, b in g.edges.tolist():
        closed[a].add(b)
        closed[b].add(a)
    return [frozenset(c) for c in closed]


def _check_twin_classes(g, cls, q):
    """cls groups g's nodes by closed neighbourhood, numbered by smallest
    node, and q joins the classes whose members g joins."""
    closed = _closed_neighbourhoods(g)
    for u in range(g.num_nodes):
        for v in range(g.num_nodes):
            assert (cls[u] == cls[v]) == (closed[u] == closed[v])
    _, first = np.unique(cls, return_index=True)
    assert np.all(np.diff(first) > 0) and q.num_nodes == len(first)
    want = {tuple(sorted(e)) for e in cls[g.edges].tolist() if e[0] != e[1]}
    assert set(map(tuple, q.edges.tolist())) == want


def _check_fpc_against_oracle(g, seed):
    h = np.abs(np.random.default_rng(seed).normal(size=(g.num_nodes, 3)))
    expl = build_explanations(h, g)
    nodes = node_support(expl)
    mat = fpc_matrix(h, expl)
    for d in range(3):
        for l in range(3):
            want = _fpc_oracle(h, g, np.flatnonzero(nodes[:, d]), l)
            if math.isnan(want):
                assert math.isnan(mat[d, l])
            else:
                assert abs(mat[d, l] - want) <= 1e-12
    return h, expl, mat


class TestTwinContraction:
    @settings(max_examples=40, deadline=None)
    @given(g=clique_graphs(), seed=st.integers(0, 2**32 - 1))
    def test_classes_and_fpc_match_brute_force(self, g, seed):
        _check_twin_classes(g, *twin_quotient(g))
        _check_fpc_against_oracle(g, seed)

    @settings(max_examples=20, deadline=None)
    @given(g=clique_graphs(), seed=st.integers(0, 2**32 - 1))
    def test_colliding_keys_split_no_class_wrongly(self, g, seed):
        # every closed neighbourhood hashes alike, so only the exact row
        # comparison keeps non-twins apart
        h, expl, want = _check_fpc_against_oracle(g, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_core, "_mix64", np.zeros_like)
            _check_twin_classes(g, *twin_quotient(g))
            got = fpc_matrix(h, expl)
        np.testing.assert_array_equal(got, want)

    def test_fpc_searches_one_source_per_used_class(self, monkeypatch):
        spec = replace(default_spec("ba_cliques", seed=3), num_cliques=16,
                       base_nodes=160)
        g, _ = generate_synthetic(spec)
        h = np.abs(np.random.default_rng(3).normal(size=(g.num_nodes, 8)))
        expl = build_explanations(h, g)
        closed = _closed_neighbourhoods(g)
        used = node_support(expl).any(axis=1)
        searched, bfs = [], metrics.bfs_distances

        def record(graph, sources):
            searched.append((graph.num_nodes, len(sources)))
            return bfs(graph, sources)
        monkeypatch.setattr(metrics, "bfs_distances", record)
        fpc_matrix(h, expl)
        assert searched
        assert {n for n, _ in searched} == {len(set(closed))}
        assert len(set(closed)) < g.num_nodes
        assert sum(b for _, b in searched) == len(
            {closed[v] for v in np.flatnonzero(used)})


class TestPositionalCoherence:
    @pytest.mark.parametrize("count", [0, -3])
    def test_needs_a_permutation(self, count):
        mat = np.full((4, 4), 0.5)
        with pytest.raises(ValueError, match="at least 1 permutation"):
            positional_coherence(mat, num_permutations=count)

    def test_constant_matrix_scores_exactly_one(self):
        mat = np.full((4, 4), 0.5)
        val, reason = positional_coherence(mat)
        assert reason is None
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_zero_matrix_is_undefined(self):
        val, reason = positional_coherence(np.zeros((3, 3)))
        assert val is None and "denominator" in reason

    def test_sparse_diagonal_is_undefined(self):
        mat = np.full((3, 3), np.nan)
        mat[0, 0] = 0.9
        val, reason = positional_coherence(mat)
        assert val is None and "diagonal" in reason

    def test_deterministic_in_the_seed(self):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(5, 5)) + 2.0
        a = positional_coherence(mat, seed=11)
        b = positional_coherence(mat, seed=11)
        assert a == b
        assert a[0] is not None

    def test_strong_diagonal_scores_above_one(self):
        mat = np.full((6, 6), 0.1)
        np.fill_diagonal(mat, 0.9)
        val, reason = positional_coherence(mat)
        assert reason is None
        assert val > 1.0


def ap_oracle(scores, labels):
    npos = sum(labels)
    ap, prev_rec = 0.0, 0.0
    for t in sorted(set(scores), reverse=True):
        taken = [l for s, l in zip(scores, labels) if s >= t]
        tp = sum(taken)
        prec, rec = tp / len(taken), tp / npos
        ap += (rec - prev_rec) * prec
        prev_rec = rec
    return ap


class TestAucPr:
    def test_perfect_ranking(self):
        assert auc_pr([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_hand_case(self):
        got = auc_pr([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
        assert got == pytest.approx(0.5 + (0.5 * 2.0 / 3.0), abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_scores(self, bad):
        # a NaN never ties, so positives listed first would rank perfectly
        with pytest.raises(ValueError, match="finite"):
            auc_pr([bad] * 4, [1, 1, 0, 0])
        with pytest.raises(ValueError, match="finite"):
            auc_pr([0.9, bad, 0.2, 0.1], [1, 1, 0, 0])

    def test_ties_share_a_threshold(self):
        assert auc_pr([1.0, 1.0], [1, 0]) == pytest.approx(0.5)
        assert auc_pr([1.0, 1.0, 0.0], [1, 1, 0]) == pytest.approx(1.0)

    def test_matches_oracle_with_ties(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(4, 40))
            scores = (rng.integers(0, 5, size=n) / 4.0).tolist()
            labels = rng.integers(0, 2, size=n).tolist()
            labels[0], labels[1] = 0, 1  # force both classes
            got = auc_pr(scores, labels)
            assert got == pytest.approx(ap_oracle(scores, labels), abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            auc_pr([0.5, 0.4], [1, 1])       # one class
        with pytest.raises(ValueError):
            auc_pr([0.5, 0.4], [1, 2])       # not 0/1
        with pytest.raises(ValueError):
            auc_pr([0.5], [1, 0])            # shape mismatch


class TestComputeReport:
    @pytest.fixture
    def indicator_setup(self, two_cliques):
        g, gts = two_cliques
        h = np.zeros((10, 3))
        h[:5, 0] = 1.0
        h[5:, 1] = 1.0
        h[:3, 2] = 1.0
        return g, gts, h, build_explanations(h, g)

    def test_metric_values_on_indicator_embedding(self, indicator_setup):
        g, gts, h, expl = indicator_setup
        rep = compute_report(h, expl, gts)
        assert rep["metrics"]["num_dims"] == 3
        assert rep["metrics"]["empty_dims"] == 0
        # dims 0/1 recover their cliques exactly; dim 2 covers 3 of 10 edges
        want = (1.0 + 1.0 + 6.0 / 13.0) / 3.0
        assert rep["metrics"]["comprehensibility_mean"] == pytest.approx(want, abs=1e-9)
        assert rep["per_dimension"]["best_community"] == [0, 1, 0]
        assert 0.0 < rep["metrics"]["sparsity_score"] < 1.0
        assert "ovc" in rep["metrics"] and "poc" in rep["metrics"]

    def test_toggles_drop_metrics(self, indicator_setup):
        g, gts, h, expl = indicator_setup
        rep = compute_report(h, expl, gts,
                             toggles={"ovc": False, "poc": False})
        assert "ovc" not in rep["metrics"] and "poc" not in rep["metrics"]
        assert "comprehensibility_mean" in rep["metrics"]

    def test_ground_truth_of_another_graph_rejected(self, indicator_setup):
        g, _, h, expl = indicator_setup
        other = build_graph(10, g.edges[:-1])
        gts = communities_from_labels(other, np.array([0] * 5 + [1] * 5))
        with pytest.raises(ValueError, match="ground truth covers 20 edges"):
            compute_report(h, expl, gts)
        # ring seeds 0 and 1: 320 nodes and 1619 edges each, other edges
        g0, _ = generate_synthetic(default_spec("ring_cliques", seed=0))
        g1, gts1 = generate_synthetic(default_spec("ring_cliques", seed=1))
        assert (g0.num_nodes, g0.num_edges) == (g1.num_nodes, g1.num_edges)
        h0 = np.random.default_rng(0).random((g0.num_nodes, 3))
        expl0 = build_explanations(h0, g0)
        for toggles in (None, {"comprehensibility": False}):
            with pytest.raises(ValueError, match="ground truth covers"):
                compute_report(h0, expl0, gts1, toggles=toggles)

    def test_ground_truth_stays_sparse(self):
        # a ring of 2000 3-cliques: V = 6000, E = 8000 and C = 2000, where a
        # dense (V, C) truth takes 11 MiB and an (E, C) one 15 MiB; the
        # sparse truth peaks under 2 MiB in each step
        spec = SynthSpec(kind="ring_cliques", num_cliques=2000, clique_size=3)
        tracemalloc.start()
        try:
            g, gts = generate_synthetic(spec)
            generate_peak = tracemalloc.get_traced_memory()[1]
            h = np.random.default_rng(0).random((g.num_nodes, 4))
            expl = build_explanations(h, g)
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            rep = compute_report(h, expl, gts, toggles={
                "sparsity": False, "ovc": False, "poc": False})
            report_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert (g.num_nodes, g.num_edges, gts.num_communities) == (6000, 8000, 2000)
        assert len(rep["per_dimension"]["comprehensibility"]) == 4
        assert generate_peak < 8 * 2**20
        assert report_peak < 8 * 2**20

    def test_no_ground_truth_skips_comprehensibility(self, indicator_setup):
        g, _, h, expl = indicator_setup
        rep = compute_report(h, expl, gts=None)
        assert "comprehensibility_mean" not in rep["metrics"]
        assert "sparsity_score" in rep["metrics"]

    def test_nulls_carry_reasons(self, two_cliques):
        g, gts = two_cliques
        h = np.zeros((10, 3))
        h[:5, :] = 1.0  # three identical columns: OvC has zero JSI variance
        expl = build_explanations(h, g)
        rep = compute_report(h, expl, gts)
        assert rep["metrics"]["ovc"] is None
        assert "ovc" in rep["nulls"]

    def test_save_round_trip(self, indicator_setup, tmp_path):
        import json
        g, gts, h, expl = indicator_setup
        rep = compute_report(h, expl, gts)
        assert sorted(rep) == ["metrics", "nulls", "per_dimension"]
        rep["metadata"] = {"run": "x"}
        p = tmp_path / "report.json"
        _write_json(p, rep)
        assert p.read_text() == json.dumps(rep, indent=1,
                                           sort_keys=True) + "\n"
        data = json.loads(p.read_text())
        assert data["metadata"] == {"run": "x"}
        assert data["metrics"]["num_dims"] == 3

    def test_save_refuses_nan(self, tmp_path):
        p = tmp_path / "report.json"
        with pytest.raises(ValueError):
            _write_json(p, {"metrics": {"poc": math.nan}})
        assert not p.exists()
