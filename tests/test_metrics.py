"""Metric oracles: every scalar here is recomputed by a naive independent
implementation or pinned from a hand calculation."""

import math

import numpy as np
import pytest

from disene.explain import (AttributionContext, Explanation, build_explanations,
                            node_support)
from disene.graph_core import build_graph, community_indicators
from disene.metrics import (MetricsReport, auc_pr, comprehensibility,
                            compute_report, fpc_matrix, jaccard,
                            overlap_consistency, pearson,
                            positional_coherence, proximities, sparsity,
                            weighted_f1)


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
    ctx = AttributionContext(mu=np.zeros(len(edge_sets)),
                             background=np.array([[0, 1]]))
    return Explanation(weights=w, context=ctx)


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


class TestWeightedF1:
    def test_hand_case(self):
        # rows (0,1), (2,3); precision 2/3 (weighted), recall 1 -> f1 = 0.8
        got = weighted_f1(np.array([[2.0], [1.0]]), np.array([[1], [0]]))
        assert got.shape == (1, 1)
        assert got[0, 0] == pytest.approx(0.8, abs=1e-12)

    def test_zero_truth_or_no_overlap_scores_zero(self):
        # rows (0,1), (5,6); the mask holds (0,1); truths: empty, {(5,6)}
        got = weighted_f1(np.array([[1.0], [0.0]]),
                          np.array([[0, 0], [0, 1]]))
        assert got.tolist() == [[0.0, 0.0]]


class TestComprehensibility:
    def test_exact_community_mask_scores_one(self, two_cliques):
        g, gts = two_cliques
        mask = _mask(g, {e: 1.0 for e in gts.communities[0].edges})
        score, best = comprehensibility(mask, community_indicators(g, gts)[0])
        assert score[0] == pytest.approx(1.0, abs=1e-12)
        assert best == [0]

    def test_picks_the_best_community(self, two_cliques):
        g, gts = two_cliques
        mask = _mask(g, {e: 1.0 for e in gts.communities[1].edges})
        _, best = comprehensibility(mask, community_indicators(g, gts)[0])
        assert best == [1]

    def test_empty_mask(self, two_cliques):
        g, gts = two_cliques
        score, best = comprehensibility(np.zeros((g.num_edges, 1)),
                                        community_indicators(g, gts)[0])
        assert score.tolist() == [0.0] and best == [None]

    def test_partial_mask_hand_value(self, two_cliques):
        # 3 of community 0's 10 edges, uniform: prec 1, rec 0.3 -> 6/13
        g, gts = two_cliques
        mask = _mask(g, {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0})
        score, best = comprehensibility(mask, community_indicators(g, gts)[0])
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
    def hops(s):
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in g.neighbors(u).tolist():
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
        got = fpc_matrix(h, expl, path_graph)[0, 0]
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_none_for_empty_set_or_constant_column(self, path_graph):
        h = np.ones((6, 2))
        h[:, 0] = np.arange(6.0)
        expl = _expl_from_sets([set(), {(0, 1)}], path_graph)
        mat = fpc_matrix(h, expl, path_graph)
        assert math.isnan(mat[0, 0])      # empty V_d
        assert math.isnan(mat[1, 1])      # constant column

    def test_matrix_matches_entrywise(self):
        rng = np.random.default_rng(2)
        g = build_graph(7, [(i, i + 1) for i in range(6)] + [(0, 3)])
        h = np.abs(rng.normal(size=(7, 3)))
        expl = build_explanations(h, g)
        nodes = node_support(expl, g)
        mat = fpc_matrix(h, expl, g)
        for d in range(3):
            for l in range(3):
                want = _fpc_oracle(h, g, np.flatnonzero(nodes[:, d]), l)
                if math.isnan(want):
                    assert math.isnan(mat[d, l])
                else:
                    assert mat[d, l] == pytest.approx(want, abs=1e-12)


class TestPositionalCoherence:
    def test_constant_matrix_scores_exactly_one(self):
        mat = np.full((4, 4), 0.5)
        val, reason = positional_coherence(None, None, None, fpc_mat=mat)
        assert reason is None
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_zero_matrix_is_undefined(self):
        val, reason = positional_coherence(None, None, None,
                                           fpc_mat=np.zeros((3, 3)))
        assert val is None and "denominator" in reason

    def test_sparse_diagonal_is_undefined(self):
        mat = np.full((3, 3), np.nan)
        mat[0, 0] = 0.9
        val, reason = positional_coherence(None, None, None, fpc_mat=mat)
        assert val is None and "diagonal" in reason

    def test_deterministic_in_the_seed(self):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(5, 5)) + 2.0
        a = positional_coherence(None, None, None, seed=11, fpc_mat=mat)
        b = positional_coherence(None, None, None, seed=11, fpc_mat=mat)
        assert a == b
        assert a[0] is not None

    def test_strong_diagonal_scores_above_one(self):
        mat = np.full((6, 6), 0.1)
        np.fill_diagonal(mat, 0.9)
        val, reason = positional_coherence(None, None, None, fpc_mat=mat)
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
        rep = compute_report(g, h, expl, gts)
        assert rep.metrics["num_dims"] == 3
        assert rep.metrics["empty_dims"] == 0
        # dims 0/1 recover their cliques exactly; dim 2 covers 3 of 10 edges
        want = (1.0 + 1.0 + 6.0 / 13.0) / 3.0
        assert rep.metrics["comprehensibility_mean"] == pytest.approx(want, abs=1e-9)
        assert rep.per_dimension["best_community"] == [0, 1, 0]
        assert 0.0 < rep.metrics["sparsity_score"] < 1.0
        assert "ovc" in rep.metrics and "poc" in rep.metrics

    def test_toggles_drop_metrics(self, indicator_setup):
        g, gts, h, expl = indicator_setup
        rep = compute_report(g, h, expl, gts,
                             toggles={"ovc": False, "poc": False})
        assert "ovc" not in rep.metrics and "poc" not in rep.metrics
        assert "comprehensibility_mean" in rep.metrics

    def test_no_ground_truth_skips_comprehensibility(self, indicator_setup):
        g, _, h, expl = indicator_setup
        rep = compute_report(g, h, expl, gts=None)
        assert "comprehensibility_mean" not in rep.metrics
        assert "sparsity_score" in rep.metrics

    def test_nulls_carry_reasons(self, two_cliques):
        g, gts = two_cliques
        h = np.zeros((10, 3))
        h[:5, :] = 1.0  # three identical columns: OvC has zero JSI variance
        expl = build_explanations(h, g)
        rep = compute_report(g, h, expl, gts)
        assert rep.metrics["ovc"] is None
        assert "ovc" in rep.nulls

    def test_save_round_trip(self, indicator_setup, tmp_path):
        import json
        g, gts, h, expl = indicator_setup
        rep = compute_report(g, h, expl, gts, metadata={"run": "x"})
        p = tmp_path / "report.json"
        rep.save(p)
        data = json.loads(p.read_text())
        assert data["metadata"] == {"run": "x"}
        assert data["metrics"]["num_dims"] == 3
