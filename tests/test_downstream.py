"""Classifier fit against a convex-optimizer oracle, exact-Shapley checks for
the linear attributions, and the two task runners end to end."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize
from scipy.special import expit

from disene import downstream
from disene.downstream import (LogRegModel, build_task_masks, edge_features,
                               fit_logreg, linear_shap, plausibility,
                               run_link_task, run_node_task)
from disene.graph_core import (EdgeSplit, build_graph,
                               communities_from_labels, sample_non_edges,
                               split_edges)
from disene.metrics import weighted_f1
from disene.synth import default_spec, generate_synthetic


def _toy_dataset(seed=0, n=60, k=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, k))
    true_beta = np.array([1.5, -2.0, 0.5])
    y = (rng.random(n) < expit(x @ true_beta + 0.3)).astype(float)
    y[0], y[1] = 0.0, 1.0
    return x, y


def _hadamard_dataset(seed=0, n=5000, k=64, v=400):
    """Non-negative Hadamard edge features h(u) * h(v), labels from a
    logistic model on them, like the link task's design."""
    rng = np.random.default_rng(seed)
    h = rng.random((v, k)) ** 2
    x = edge_features(h, rng.integers(0, v, size=(n, 2)))
    beta = rng.normal(scale=3.0, size=k)
    y = (rng.random(n) < expit(x @ beta - beta.sum() / 9)).astype(float)
    return x, y


def _objective_and_grad(x, y, l2):
    """The fit's objective over w = (beta, intercept) and its gradient."""
    n = len(y)

    def fun(w):
        z = x @ w[:-1] + w[-1]
        r = expit(z) - y
        value = np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * l2 * w[:-1] @ w[:-1]
        return value, np.append(x.T @ r / n + l2 * w[:-1], r.mean())
    return fun


def _max_grad(model, x, y, l2):
    w = np.append(model.beta, model.intercept)
    return np.abs(_objective_and_grad(x, y, l2)(w)[1]).max()


def _oracle(x, y, l2):
    return minimize(_objective_and_grad(x, y, l2), np.zeros(x.shape[1] + 1),
                    jac=True, method="BFGS", options={"gtol": 1e-11}).x


def _relu_hadamard_dataset(seed=0, n=3000, k=32, v=300):
    """Hadamard features of a ReLU embedding in which a tenth of the nodes
    are all zero, so many feature rows are all zero."""
    rng = np.random.default_rng(seed)
    h = np.maximum(rng.normal(size=(v, k)) - 0.5, 0.0)
    h[: v // 10] = 0.0
    x = edge_features(h, rng.integers(0, v, size=(n, 2)))
    y = (rng.random(n) < expit(x @ rng.normal(scale=3.0, size=k) - 0.5)).astype(float)
    return x, y


def _sparse_dataset(seed=0, n=4000, k=64):
    """Non-negative features like er64's link design: about 3% of the
    entries non-zero and 40% of the rows all zero."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, k)) * (rng.random((n, k)) < 0.05)
    x[rng.random(n) < 0.4] = 0.0
    y = (rng.random(n) < expit(x @ rng.normal(scale=3.0, size=k) - 0.5)).astype(float)
    return x, y


# PAIR_SHARE values that send every design to one Hessian form: the pairs of
# non-zeros never exceed inf times the SYRK's work, and always exceed -1 times
HESSIAN_FORMS = {"pairs": math.inf, "syrk": -1.0}


def _reference_newton(x, y, l2):
    """The fit with its Hessian formed as x.T @ (x * s), step for step:
    (beta, intercept, Newton steps taken)."""
    n, k = x.shape
    w = np.zeros(k + 1)

    def objective(w):
        z = x @ w[:k] + w[k]
        loss = np.mean(np.logaddexp(0.0, z) - y * z)
        return loss + 0.5 * l2 * (w[:k] @ w[:k]), z

    f, z = objective(w)
    for steps in range(downstream.MAX_NEWTON_STEPS):
        p = expit(z)
        r = p - y
        grad = np.append(x.T @ r / n + l2 * w[:k], r.mean())
        if np.abs(grad).max() <= downstream.GRAD_TOL:
            return w[:k], w[k], steps
        s = p * (1.0 - p)
        xs = x * s[:, None]
        hess = np.empty((k + 1, k + 1))
        hess[:k, :k] = x.T @ xs
        hess[k, :k] = hess[:k, k] = xs.sum(axis=0)
        hess[k, k] = s.sum()
        hess /= n
        hess[:k, :k] += l2 * np.eye(k)
        step = -cho_solve(cho_factor(hess), grad)
        decrease = -(grad @ step)
        full = decrease <= downstream.F_RESOLUTION * max(abs(f), 1.0)
        t = 1.0
        for _ in range(downstream.LINE_SEARCH_STEPS):
            f_t, z_t = objective(w + t * step)
            if full or f_t <= f - downstream.ARMIJO * t * decrease:
                break
            t *= 0.5
        w, f, z = w + t * step, f_t, z_t
    raise AssertionError("reference Newton did not converge")


# separable up to the penalty: undamped Newton raises the objective on its
# ninth step, so the fit must backtrack
OVERSHOOT_X = np.array([[-2.0, 1.0], [-1.0, -15.0], [0.0, -2.0], [3.0, 1.0]])
OVERSHOOT_Y = np.array([0.0, 1.0, 1.0, 1.0])


class TestFitLogreg:
    def test_matches_convex_oracle(self):
        x, y = _toy_dataset()
        l2 = 0.1

        def objective(w):
            z = x @ w[:-1] + w[-1]
            nll = np.mean(np.logaddexp(0.0, z) - y * z)
            return nll + 0.5 * l2 * w[:-1] @ w[:-1]

        ref = minimize(objective, np.zeros(4), method="BFGS",
                       options={"gtol": 1e-12}).x
        model = fit_logreg(x, y, l2=l2)
        np.testing.assert_allclose(model.beta, ref[:-1], atol=1e-3)
        assert model.intercept == pytest.approx(ref[-1], abs=1e-3)

    @pytest.mark.parametrize("data, l2", [(_toy_dataset(), 0.1),
                                          (_toy_dataset(3), 1e-4),
                                          (_hadamard_dataset(), 1e-4)])
    def test_stationary_and_at_the_oracle_optimum(self, data, l2):
        x, y = data
        model = fit_logreg(x, y, l2=l2)
        assert _max_grad(model, x, y, l2) <= 1e-8
        ref = _oracle(x, y, l2)
        np.testing.assert_allclose(model.beta, ref[:-1], atol=1e-6)
        assert model.intercept == pytest.approx(ref[-1], abs=1e-6)

    # every entry of _hadamard_dataset is non-zero: as pairs its Hessian
    # would hold 20M of them, about 1 GB, which the rule never chooses
    @pytest.mark.parametrize("data, l2, forms", [
        (_toy_dataset(), 0.1, ("pairs", "syrk")),
        (_hadamard_dataset(), 1e-4, ("syrk",)),
        (_relu_hadamard_dataset(), 1e-4, ("pairs", "syrk")),
        (_sparse_dataset(), 1e-4, ("pairs", "syrk"))],
        ids=["data0-0.1", "data1-0.0001", "data2-0.0001", "data3-0.0001"])
    def test_matches_the_reference_newton(self, data, l2, forms, monkeypatch):
        x, y = data
        beta, intercept, steps = _reference_newton(x, y, l2)
        scale = max(np.abs(beta).max(), abs(intercept))
        for form in forms:
            monkeypatch.setattr(downstream, "PAIR_SHARE", HESSIAN_FORMS[form])
            solves = []
            monkeypatch.setattr(downstream, "cho_solve",
                                lambda *a: solves.append(1) or cho_solve(*a))
            model = fit_logreg(x, y, l2=l2)
            assert len(solves) == steps
            np.testing.assert_allclose(model.beta, beta, rtol=0,
                                       atol=1e-12 * scale)
            assert model.intercept == pytest.approx(intercept, rel=0,
                                                    abs=1e-12 * scale)

    @pytest.mark.parametrize("x", [
        np.zeros((5, 3)),                                   # no pairs
        np.array([[0.0], [2.0], [0.0], [-1.5]]),            # K = 1
        np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0],         # a full row,
                  [0.0, -4.0, 0.0], [5.0, 0.0, 0.0]]),      # a zero column
        np.array([[0.0, 1.0, 0.0, 2.0]] * 3 + [[0.0] * 4]),
        _sparse_dataset()[0], _relu_hadamard_dataset()[0], _toy_dataset()[0]])
    def test_pair_hessian_matches_the_dense_product(self, x):
        s = np.random.default_rng(1).random(len(x)) * 0.25
        csr, gram = downstream._pair_design(x)
        np.testing.assert_array_equal(csr.toarray(), x)
        want = x.T @ (x * s[:, None])
        np.testing.assert_allclose(gram(s), want, rtol=1e-13,
                                   atol=1e-13 * np.abs(want).max())

    # rows and densities of the benchmark workloads' designs at seeds
    # 28001-28003, where N K^2 / 2 was 217-228 x the pairs for er64's links
    # (3.4% non-zero, 38% of rows all zero), 85-98 x for its nodes (6.6%),
    # 11.7-12.6 x for ba2560's links (17.6%) and 4.2-4.3 x for its nodes
    # (32.8%); here 210, 92, 15 and 4.5 x, so a PAIR_SHARE outside 1/92 to
    # 1/15 moves a workload to the other form and fails
    @pytest.mark.parametrize("n, zero_rows, density, form", [
        (7738, 0.38, 0.034, "pairs"), (512, 0.0, 0.066, "pairs"),
        (22074, 0.0, 0.176, "syrk"), (2048, 0.0, 0.328, "syrk")])
    def test_workload_densities_pick_their_hessian_form(self, n, zero_rows,
                                                        density, form,
                                                        monkeypatch):
        rng = np.random.default_rng(0)
        nonzero = rng.random((n, 64)) < density / (1.0 - zero_rows)
        nonzero[rng.random(n) < zero_rows] = False
        x = rng.random((n, 64)) * nonzero
        y = (rng.random(n) < 0.5).astype(float)
        chosen = []
        for name, spied in (("pairs", "_pair_design"), ("syrk", "_syrk_design")):
            build = getattr(downstream, spied)
            monkeypatch.setattr(downstream, spied, lambda x, name=name, build=build:
                                chosen.append(name) or build(x))
        fit_logreg(x, y)
        assert chosen == [form]

    def test_backtracks_where_the_newton_step_overshoots(self, monkeypatch):
        l2 = 1e-4
        model = fit_logreg(OVERSHOOT_X, OVERSHOOT_Y, l2=l2)
        assert _max_grad(model, OVERSHOOT_X, OVERSHOOT_Y, l2) <= 1e-8
        ref = _oracle(OVERSHOOT_X, OVERSHOOT_Y, l2)
        np.testing.assert_allclose(model.beta, ref[:-1], rtol=1e-6)
        # with only the full step allowed the line search gives up
        monkeypatch.setattr(downstream, "LINE_SEARCH_STEPS", 1)
        with pytest.raises(RuntimeError, match="line search"):
            fit_logreg(OVERSHOOT_X, OVERSHOOT_Y, l2=l2)

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(downstream, "MAX_NEWTON_STEPS", 2)
        x, y = _toy_dataset()
        with pytest.raises(RuntimeError, match="did not converge"):
            fit_logreg(x, y)

    def test_all_zero_features_learn_the_prior(self):
        x = np.zeros((8, 2))
        y = np.array([1.0] * 6 + [0.0] * 2)
        model = fit_logreg(x, y)
        np.testing.assert_array_equal(model.beta, 0.0)
        assert model.predict_proba(np.zeros(2)) == pytest.approx(0.75, abs=1e-12)

    def test_stores_training_means(self):
        x, y = _toy_dataset(1)
        model = fit_logreg(x, y)
        np.testing.assert_allclose(model.background_mean, x.mean(axis=0),
                                   atol=1e-12)

    def test_deterministic(self):
        x, y = _toy_dataset(2)
        a, b = fit_logreg(x, y), fit_logreg(x, y)
        np.testing.assert_array_equal(a.beta, b.beta)
        assert a.intercept == b.intercept

    def test_byte_identical_refit(self):
        x, y = _hadamard_dataset(1)
        a, b = fit_logreg(x, y), fit_logreg(x, y)
        assert a.beta.tobytes() == b.beta.tobytes()
        assert a.intercept == b.intercept

    @pytest.mark.parametrize("l2", [np.nan, np.inf, -1.0, 0.0])
    def test_rejects_l2_that_is_not_finite_and_positive(self, l2):
        x, y = _toy_dataset()
        with pytest.raises(ValueError, match="l2"):
            fit_logreg(x, y, l2=l2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_features(self, bad):
        x, y = _toy_dataset()
        x[5, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_logreg(x, y)

    def test_rejects_bad_labels(self):
        x = np.ones((4, 2))
        with pytest.raises(ValueError):
            fit_logreg(x, np.ones(4))          # single class
        with pytest.raises(ValueError):
            fit_logreg(x, np.array([0, 1, 2, 1]))
        with pytest.raises(ValueError):
            fit_logreg(x, np.array([0.0, 1.0]))  # length mismatch


class TestEdgeFeatures:
    def test_hadamard_product(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(6, 4))
        pairs = np.array([[0, 1], [2, 5], [3, 3]])
        got = edge_features(h, pairs)
        for r, (u, v) in enumerate(pairs.tolist()):
            np.testing.assert_allclose(got[r], h[u] * h[v], atol=1e-12)


def shapley_oracle(model, x, mu):
    """Exact Shapley values of the logit by coalition enumeration."""
    k = len(x)
    out = np.zeros(k)
    for j in range(k):
        rest = [i for i in range(k) if i != j]
        for r in range(k):
            for s in combinations(rest, r):
                w = (math.factorial(len(s)) * math.factorial(k - len(s) - 1)
                     / math.factorial(k))
                xs = mu.copy()
                xs[list(s)] = x[list(s)]
                with_j = xs.copy()
                with_j[j] = x[j]
                out[j] += w * (float(model.logits(with_j))
                               - float(model.logits(xs)))
    return out


class TestLinearShap:
    def test_hand_example(self):
        model = LogRegModel(beta=np.array([2.0, -1.0]), intercept=0.3,
                            background_mean=np.array([0.5, 0.5]))
        psi = linear_shap(model, np.array([1.0, 0.0]))
        np.testing.assert_allclose(psi, [1.0, 0.5], atol=1e-12)

    def test_background_override(self):
        model = LogRegModel(beta=np.array([2.0, -1.0]), intercept=0.3,
                            background_mean=np.array([0.5, 0.5]))
        psi = linear_shap(model, np.array([1.0, 3.0]), np.zeros(2))
        np.testing.assert_allclose(psi, [2.0, -3.0], atol=1e-12)

    def test_batch_shape(self):
        model = LogRegModel(beta=np.ones(3), intercept=0.0,
                            background_mean=np.zeros(3))
        x = np.arange(12.0).reshape(4, 3)
        assert linear_shap(model, x).shape == (4, 3)

    @pytest.mark.parametrize("background", [None, "zeros"])
    def test_efficiency_identity(self, background):
        rng = np.random.default_rng(4)
        model = LogRegModel(beta=rng.normal(size=5), intercept=0.7,
                            background_mean=rng.normal(size=5))
        x = rng.normal(size=5)
        bg = np.zeros(5) if background == "zeros" else None
        mu = model.background_mean if bg is None else bg
        psi = linear_shap(model, x, bg)
        assert psi.sum() == pytest.approx(
            float(model.logits(x)) - float(model.logits(mu)), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(2, 30), k=st.integers(1, 6),
           l2=st.sampled_from([1e-4, 1e-2, 1.0]))
    def test_efficiency_identity_on_fitted_models(self, data, n, k, l2):
        feature = st.floats(-10.0, 10.0, allow_subnormal=False)
        x = data.draw(arrays(np.float64, (n, k), elements=feature))
        y = data.draw(arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0])))
        assume(0.0 < y.mean() < 1.0)
        model = fit_logreg(x, y, l2=l2)
        query = data.draw(arrays(np.float64, (3, k), elements=feature))
        for bg in (None, np.zeros(k)):
            mu = model.background_mean if bg is None else bg
            psi = linear_shap(model, query, bg)
            want = model.logits(query) - model.logits(mu)
            scale = 1.0 + np.abs(model.beta * query).sum(axis=1)
            np.testing.assert_array_less(np.abs(psi.sum(axis=1) - want),
                                         1e-12 * scale)

    def test_matches_exact_shapley_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            k = int(rng.integers(2, 6))
            model = LogRegModel(beta=rng.normal(size=k),
                                intercept=float(rng.normal()),
                                background_mean=rng.normal(size=k))
            x = rng.normal(size=k)
            want = shapley_oracle(model, x, model.background_mean)
            np.testing.assert_allclose(linear_shap(model, x), want, atol=1e-9)


class TestTaskMasks:
    def test_positive_attributions_only(self):
        model = LogRegModel(beta=np.array([1.0, -1.0]), intercept=0.0,
                            background_mean=np.array([0.0, 0.0]))
        feats = np.array([[2.0, 1.0], [0.0, 3.0], [4.0, 0.0]])
        masks = build_task_masks(model, feats)
        assert masks[:, 0].tolist() == [2.0, 0.0, 4.0]
        assert masks[:, 1].tolist() == [0.0, 0.0, 0.0]  # negative coefficient

    def test_background_override(self):
        model = LogRegModel(beta=np.ones(1), intercept=0.0,
                            background_mean=np.zeros(1))
        masks = build_task_masks(model, np.array([[1.0], [0.0]]),
                                 np.array([0.5]))
        assert masks.tolist() == [[0.5], [0.0]]


def _f1(g, gts, masks):
    """F1 of {edge: weight} task masks against every community: (J, C)."""
    w = np.zeros((g.num_edges, len(masks)))
    for j, m in enumerate(masks):
        for e, x in m.items():
            w[g.edge_rows([e]), j] = x
    return weighted_f1(w, gts.edge_members)


def _unit_mask(g, gts, c):
    """{edge: 1.0} over community c's edges."""
    return {tuple(e): 1.0 for e in g.edges[gts.edge_members[c].indices].tolist()}


class TestPlausibility:
    def test_hand_weighted_combination(self, two_cliques):
        g, gts = two_cliques
        perfect = _unit_mask(g, gts, 0)
        useless = {(4, 5): 1.0}  # the bridge: in no community
        f1 = _f1(g, gts, [perfect, useless])
        # f1 = (1.0, 0.0) weighted by psi = (3, 1) -> 0.75
        got = plausibility(np.array([[3.0, 1.0]]), f1, [0])
        assert got[0] == pytest.approx(0.75, abs=1e-12)

    def test_negative_attributions_are_ignored(self, two_cliques):
        g, gts = two_cliques
        perfect = _unit_mask(g, gts, 0)
        f1 = _f1(g, gts, [perfect, {(0, 1): 5.0}])
        got = plausibility(np.array([[2.0, -7.0]]), f1, [0])
        assert got[0] == pytest.approx(1.0, abs=1e-12)

    def test_none_when_nothing_positive(self, two_cliques):
        g, gts = two_cliques
        f1 = _f1(g, gts, [{}, {}])
        assert math.isnan(plausibility(np.array([[-1.0, 0.0]]), f1, [0])[0])

    def test_batch_matches_single_instances(self, two_cliques):
        g, gts = two_cliques
        f1 = _f1(g, gts, [_unit_mask(g, gts, 1),
                          {(0, 1): 2.0, (5, 6): 1.0}])
        psi = np.array([[1.0, 0.5], [0.2, 3.0], [-1.0, -2.0]])
        comm = [1, 0, 1]
        batch = plausibility(psi, f1, comm)
        for i in range(3):
            one = plausibility(psi[i:i + 1], f1, comm[i:i + 1])
            np.testing.assert_array_equal(batch[i:i + 1], one)
        assert math.isnan(batch[2])


class TestTrainNegatives:
    def test_valid_distinct_non_edges(self, two_cliques):
        g, _ = two_cliques
        neg = sample_non_edges(g, 10, np.random.default_rng(0))
        assert len(neg) == 10
        seen = set()
        for u, v in neg.tolist():
            e = (min(u, v), max(u, v))
            assert e not in g.edge_set
            assert e not in seen
            seen.add(e)

    def test_deterministic(self, two_cliques):
        g, _ = two_cliques
        np.testing.assert_array_equal(
            sample_non_edges(g, 8, np.random.default_rng(3)),
            sample_non_edges(g, 8, np.random.default_rng(3)))

    def test_exhaustion_rejected(self):
        g = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        with pytest.raises(ValueError):
            sample_non_edges(g, 1, np.random.default_rng(0))  # complete graph

    def test_every_remaining_non_edge(self):
        # a complete graph missing three edges: rejection sampling stalls,
        # so the sampler falls back to enumerating what is left
        n = 200
        missing = {(3, 50), (7, 199), (120, 121)}
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if (u, v) not in missing])
        rng = np.random.default_rng(np.random.SeedSequence([0, 0xD0]))
        neg = sample_non_edges(g, 3, rng)
        assert {tuple(e) for e in neg.tolist()} == missing


def _indicator_embedding(n=10):
    h = np.zeros((n, 2))
    h[:5, 0] = 1.0
    h[5:, 1] = 1.0
    return h


class TestLinkTask:
    def test_indicator_embedding_solves_the_task(self, two_cliques):
        g, gts = two_cliques
        split = split_edges(g, 0.2, seed=1)
        res = run_link_task(_indicator_embedding(), g, split, gts, seed=0)
        assert res.task == "link"
        assert res.auc_pr > 0.9
        assert res.plausibility_mean is not None
        assert 0.9 < res.plausibility_mean <= 1.0
        for (u, v), gi, val in res.per_instance:
            assert gts.community_of_edge(u, v) == gi
            assert 0.0 <= val <= 1.0

    def test_ground_truth_of_another_graph_rejected(self, two_cliques):
        g, gts = two_cliques
        bigger = build_graph(11, np.concatenate([g.edges, [[9, 10]]]))
        split = split_edges(bigger, 0.2, seed=1)
        h = np.vstack([_indicator_embedding(), [[0.0, 1.0]]])
        with pytest.raises(ValueError, match="ground truth covers"):
            run_link_task(h, bigger, split, gts, seed=0)
        with pytest.raises(ValueError, match="ground truth covers"):
            run_node_task(h, bigger, gts, seed=0)
        # ba seeds 0 and 1: 640 nodes and 3047 edges each, other edges
        g0, _ = generate_synthetic(default_spec("ba_cliques", seed=0))
        g1, gts1 = generate_synthetic(default_spec("ba_cliques", seed=1))
        assert (g0.num_nodes, g0.num_edges) == (g1.num_nodes, g1.num_edges)
        h0 = np.random.default_rng(0).random((g0.num_nodes, 3))
        with pytest.raises(ValueError, match="ground truth covers"):
            run_link_task(h0, g0, split_edges(g0, 0.1, seed=0), gts1, seed=0)
        with pytest.raises(ValueError, match="ground truth covers"):
            run_node_task(h0, g0, gts1, seed=0)

    def test_bridge_test_edge_is_excluded_from_plausibility(self, two_cliques):
        g, gts = two_cliques
        split = split_edges(g, 0.2, seed=1)
        res = run_link_task(_indicator_embedding(), g, split, gts, seed=0)
        keys = {k for k, _, _ in res.per_instance}
        assert (4, 5) not in keys

    def test_train_non_edge_rejected(self, two_cliques):
        g, gts = two_cliques
        split = split_edges(g, 0.2, seed=1)
        bad = EdgeSplit(np.concatenate([split.train_edges, [[0, 9]]]),
                        split.test_edges, split.test_negatives)
        with pytest.raises(ValueError, match=r"\(0, 9\) is not an edge"):
            run_link_task(_indicator_embedding(), g, bad, gts, seed=0)


def _fitted_model(run, monkeypatch):
    """Run a task and return its result with the classifier it fitted."""
    fitted = []

    def spy(*args, **kwargs):
        fitted.append(fit_logreg(*args, **kwargs))
        return fitted[-1]
    monkeypatch.setattr(downstream, "fit_logreg", spy)
    res = run()
    assert len(fitted) == 1
    return res, fitted[0]


def _instance_oracle(model, universe, members, x_inst, keys, g_index):
    """Per-instance path: each instance's own features -> linear_shap with the
    zero background -> plausibility against masks over the universe."""
    zero = np.zeros(x_inst.shape[1])
    f1 = weighted_f1(build_task_masks(model, universe, zero), members)
    values = plausibility(linear_shap(model, x_inst, zero), f1, g_index)
    kept = [(k, gi, float(v)) for k, gi, v in zip(keys, g_index, values)
            if not math.isnan(v)]
    mean = float(np.mean([v for *_, v in kept])) if kept else None
    return kept, mean, len(keys) - len(kept)


def _first_community(truth_rows):
    return [int(np.flatnonzero(t)[0]) for t in truth_rows]


@pytest.mark.parametrize("fixture", ["two_cliques", "clique_with_background"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_link_task_matches_the_per_instance_oracle(fixture, seed, request,
                                                   monkeypatch):
    g, gts = request.getfixturevalue(fixture)
    h = np.random.default_rng(seed).random((g.num_nodes, 4)) ** 2
    split = split_edges(g, 0.3, seed=seed)
    res, model = _fitted_model(
        lambda: run_link_task(h, g, split, gts, seed=seed), monkeypatch)
    truth = gts.edge_members.toarray().T[g.edge_rows(split.test_edges)]
    inside = truth.any(axis=1)
    pairs = split.test_edges[inside]
    assert len(pairs) > 0
    expected = _instance_oracle(model, edge_features(h, g.edges),
                                gts.edge_members, edge_features(h, pairs),
                                list(map(tuple, pairs.tolist())),
                                _first_community(truth[inside]))
    assert (res.per_instance, res.plausibility_mean, res.skipped) == expected


@pytest.mark.parametrize("seed", [0, 1, 5])   # seeds 2-4 split single-class
def test_node_task_matches_the_per_instance_oracle(clique_with_background,
                                                   seed, monkeypatch):
    g, gts = clique_with_background
    h = np.random.default_rng(seed).random((g.num_nodes, 4)) ** 2
    res, model = _fitted_model(lambda: run_node_task(h, g, gts, seed=seed),
                               monkeypatch)
    order = np.random.default_rng(
        np.random.SeedSequence([seed, 0xD1])).permutation(g.num_nodes)
    test = np.sort(order[:4])    # round(0.2 * 20) test nodes
    truth = gts.members.toarray().T
    nodes = test[truth[test].any(axis=1)]
    assert len(nodes) > 0
    expected = _instance_oracle(model, h.astype(np.float64), gts.members,
                                h[nodes].astype(np.float64), nodes.tolist(),
                                _first_community(truth[nodes]))
    assert (res.per_instance, res.plausibility_mean, res.skipped) == expected


@pytest.fixture
def clique_with_background():
    """5-clique (community 0) plus a 15-node background path."""
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges += [(i, i + 1) for i in range(4, 19)]
    g = build_graph(20, edges)
    labels = np.array([0] * 5 + [-1] * 15)
    gts = communities_from_labels(g, labels, exclude={-1})
    return g, gts


class TestNodeTask:
    def test_indicator_embedding_solves_the_task(self, clique_with_background):
        g, gts = clique_with_background
        h = np.zeros((20, 2))
        h[:5, 0] = 1.0
        h[5:, 1] = 1.0
        res = run_node_task(h, g, gts, seed=0)
        assert res.task == "node"
        assert res.auc_pr == pytest.approx(1.0, abs=1e-9)
        if res.per_instance:
            assert res.plausibility_mean == pytest.approx(1.0, abs=1e-9)
            for v, gi, val in res.per_instance:
                assert gts.community_of_node(v) == gi

    def test_requires_background_nodes(self, two_cliques):
        g, gts = two_cliques  # every node belongs to a community
        with pytest.raises(ValueError, match="background"):
            run_node_task(_indicator_embedding(), g, gts, seed=0)
