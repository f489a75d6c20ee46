"""Downstream tasks on frozen embeddings, with attribution-based plausibility.

Link prediction trains a logistic regression on Hadamard edge features
(train edges vs sampled non-edges); node classification trains on raw node
embeddings (planted-community membership vs background). The classifier
minimises mean log loss + 0.5 * l2 * ||beta||^2 (intercept unpenalized,
l2 finite and > 0) by damped Newton: Cholesky-solved (K+1)-dimensional
Newton steps with Armijo backtracking, until max |gradient| <= GRAD_TOL
(1e-10). Both tasks then explain the classifier with exact per-feature
attributions for linear models: Psi_j(x) = beta_j (x_j - mu_j) against the
training-feature means.

The positive parts of Psi_j over a global universe (all graph edges, or all
nodes) form per-feature masks B^(j), one (N, J) array whose rows follow
g.edges or the node index. An instance's attributions are its row of those
masks, and its plausibility is their weighted F1 against its own
ground-truth community.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit

from .explain import edge_features
from .graph_core import EdgeSplit, Graph, GroundTruth, sample_non_edges
from .metrics import auc_pr, weighted_f1

# fit_logreg stops once every partial derivative of its objective is this
# small, and raises if Newton's method needs more steps than the cap
GRAD_TOL = 1e-10
MAX_NEWTON_STEPS = 50
# a damped step tries t = 1, 1/2, 1/4, ... (at most LINE_SEARCH_STEPS
# values) until the objective falls by ARMIJO * t * the predicted decrease
ARMIJO = 1e-4
LINE_SEARCH_STEPS = 60
# predicted decreases below this share of |objective| are rounding noise
F_RESOLUTION = 1e-13
# share of the nodes the node task holds out for scoring
NODE_TEST_FRACTION = 0.2


@dataclass
class LogRegModel:
    beta: np.ndarray
    intercept: float
    background_mean: np.ndarray  # training-feature means, one per feature

    def logits(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ self.beta + self.intercept

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return expit(self.logits(x))


def fit_logreg(features: np.ndarray, labels: np.ndarray,
               l2: float = 1e-4) -> LogRegModel:
    """Binary L2-regularised logistic regression by damped Newton (IRLS).

    Objective: mean log loss plus 0.5 * l2 * ||beta||^2, intercept
    unpenalized. `l2` must be finite and > 0: the objective is then strictly
    convex and has a minimiser whatever the data (separable data have none
    at l2 = 0). From zero weights, each step solves the (K+1) x (K+1) Newton
    system with a Cholesky factor and halves the step until the objective
    falls by at least ARMIJO times the decrease predicted for it (Armijo
    backtracking). The fit stops once max |gradient| <= GRAD_TOL and raises
    RuntimeError if MAX_NEWTON_STEPS steps do not get there. Features must
    be finite. Deterministic.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.ndim != 2 or len(x) != len(y):
        raise ValueError("features must be (N, K) with one label per row")
    classes = np.unique(y)
    if not np.all(np.isin(classes, (0.0, 1.0))) or len(classes) != 2:
        raise ValueError("labels must contain both classes 0 and 1")
    if not (math.isfinite(l2) and l2 > 0.0):
        raise ValueError(f"l2 must be a finite number > 0, got {l2}")
    if not np.isfinite(x).all():
        raise ValueError("features must be finite")
    n, k = x.shape
    w = np.zeros(k + 1)           # beta, then the intercept

    def objective(w):
        z = x @ w[:k] + w[k]
        loss = np.mean(np.logaddexp(0.0, z) - y * z)
        return loss + 0.5 * l2 * (w[:k] @ w[:k]), z

    f, z = objective(w)
    for _ in range(MAX_NEWTON_STEPS):
        p = expit(z)
        r = p - y
        grad = np.append(x.T @ r / n + l2 * w[:k], r.mean())
        if np.abs(grad).max() <= GRAD_TOL:
            return LogRegModel(beta=w[:k].copy(), intercept=float(w[k]),
                               background_mean=x.mean(axis=0))
        s = p * (1.0 - p)
        xr = x * np.sqrt(s)[:, None]   # the one (N, K) temporary of a step
        hess = np.empty((k + 1, k + 1))
        hess[:k, :k] = xr.T @ xr          # numpy runs A^T A as one SYRK
        hess[k, :k] = hess[:k, k] = x.T @ s
        hess[k, k] = s.sum()
        del xr
        hess /= n
        hess[:k, :k] += l2 * np.eye(k)
        step = -cho_solve(cho_factor(hess), grad)
        decrease = -(grad @ step)     # squared Newton decrement
        # below float64's resolution of f the objective cannot rank trial
        # points; that close to the optimum the full step is taken
        full = decrease <= F_RESOLUTION * max(abs(f), 1.0)
        t = 1.0
        for _ in range(LINE_SEARCH_STEPS):
            f_t, z_t = objective(w + t * step)
            if full or f_t <= f - ARMIJO * t * decrease:
                break
            t *= 0.5
        else:
            raise RuntimeError("logistic regression line search found no "
                               "decrease")
        w, f, z = w + t * step, f_t, z_t
    raise RuntimeError(f"logistic regression did not converge in "
                       f"{MAX_NEWTON_STEPS} Newton steps")


def linear_shap(model: LogRegModel, x: np.ndarray,
                background: np.ndarray | None = None) -> np.ndarray:
    """Exact attributions for a linear model: Psi_j = beta_j (x_j - mu_j).

    Satisfies the efficiency identity sum_j Psi_j = logit(x) - mean
    background logit. Works on one instance (K,) or a batch (N, K).
    `background` overrides the stored training-feature means; the task
    masks pass zeros, the absence state of non-negative activations.
    """
    x = np.asarray(x, dtype=np.float64)
    mu = model.background_mean if background is None else background
    return model.beta * (x - mu)


def build_task_masks(model: LogRegModel, features: np.ndarray,
                     background: np.ndarray | None = None) -> np.ndarray:
    """B^(j) = max(0, Psi_j) over every universe instance: (N, J).

    Row i is the instance of features row i: an edge of g.edges for the link
    task, a node for the node task. Column j is feature j's mask.
    """
    return np.maximum(linear_shap(model, features, background), 0.0)


def plausibility(psi: np.ndarray, f1: np.ndarray, g_index) -> np.ndarray:
    """Attribution-weighted mask F1 of each instance against its community.

    P_i = sum_j f(Psi_ij) F1[j, g_i] / sum_j f(Psi_ij) with f = max(0, .),
    for the instances' attributions psi (N, J), the masks' F1 against every
    community (J, C) and each instance's community index g_i. nan where no
    attribution is positive (zero denominator).
    """
    f = np.maximum(np.asarray(psi, dtype=np.float64), 0.0)
    total = f.sum(axis=1)
    acc = np.einsum("ij,ji->i", f, f1[:, np.asarray(g_index, dtype=np.int64)])
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(total > 0.0, acc / total, np.nan)


@dataclass
class TaskResult:
    task: str
    auc_pr: float
    plausibility_mean: float | None
    per_instance: list = field(default_factory=list)   # (key, g_index, value)
    skipped: int = 0


def run_link_task(h: np.ndarray, g: Graph, split: EdgeSplit, gts: GroundTruth,
                  seed: int = 0, l2: float = 1e-4) -> TaskResult:
    """Link prediction plus per-edge plausibility.

    The classifier learns train edges vs an equal number of sampled
    non-edges. AUC-PR is scored on held-out edges vs the split's negatives.
    Features are built once over the full graph's edges (train and test
    edges are rows of it; a non-edge raises ValueError), and the masks
    B^(j) span them: a test edge's attributions are its row of the masks.
    Plausibility is averaged over test edges inside a community.

    Attributions use the zero-vector SHAP background: for non-negative
    embeddings a zero feature is an absent feature, so Psi_j is the
    feature's actual contribution to this instance's logit. A mean
    background instead flips the masks of negative-coefficient features
    onto the complement of their region, which buries the informative
    dimensions (most visible on the node task).
    """
    gts.check_graph(g)
    x = edge_features(h, g.edges)
    train_rows = g.edge_rows(split.train_edges)
    test_rows = g.edge_rows(split.test_edges)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD0]))
    train_neg = sample_non_edges(g, len(train_rows), rng)
    x_train = np.concatenate([x[train_rows], edge_features(h, train_neg)])
    y_train = np.concatenate([np.ones(len(train_rows)),
                              np.zeros(len(train_neg))])
    model = fit_logreg(x_train, y_train, l2=l2)

    x_test = np.concatenate([x[test_rows],
                             edge_features(h, split.test_negatives)])
    y_test = np.concatenate([np.ones(len(test_rows)),
                             np.zeros(len(split.test_negatives))])
    auc = auc_pr(model.predict_proba(x_test), y_test)

    inside = gts.edge_truth[test_rows].any(axis=1)
    return _task_result("link", auc, model, x, gts.edge_truth,
                        test_rows[inside],
                        list(map(tuple, split.test_edges[inside].tolist())))


def run_node_task(h: np.ndarray, g: Graph, gts: GroundTruth, seed: int = 0,
                  l2: float = 1e-4) -> TaskResult:
    """Community membership classification plus per-node plausibility.

    Nodes inside any planted community are the positive class, background
    nodes the negative one; needs both (so ring/sbm style graphs without
    background nodes are rejected). Masks B^(j) span all nodes and, as in
    the link task, are taken against the zero background; a test node's
    attributions are its row of the masks.
    """
    gts.check_graph(g)
    y = gts.node_truth.any(axis=1).astype(np.float64)
    if y.min() == y.max():
        raise ValueError("node task needs both community and background nodes")

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD1]))
    order = rng.permutation(g.num_nodes)
    n_test = int(math.floor(NODE_TEST_FRACTION * g.num_nodes + 0.5))
    if n_test < 1 or n_test >= g.num_nodes:
        raise ValueError("degenerate node split")
    test_idx = np.sort(order[:n_test])
    train_idx = np.sort(order[n_test:])
    if len(np.unique(y[train_idx])) < 2 or len(np.unique(y[test_idx])) < 2:
        raise ValueError("node split left a side single-class; use another seed")

    x = h.astype(np.float64)
    model = fit_logreg(x[train_idx], y[train_idx], l2=l2)
    auc = auc_pr(model.predict_proba(x[test_idx]), y[test_idx])

    nodes = test_idx[y[test_idx] == 1.0]
    return _task_result("node", auc, model, x, gts.node_truth, nodes,
                        nodes.tolist())


def _task_result(task, auc, model, x, truth, rows, keys) -> TaskResult:
    """Masks over the universe x, their F1 against truth, and the plausibility
    of the instances at x's rows (named by keys); an instance's attributions
    are its row of the masks, and those with none positive are skipped."""
    masks = build_task_masks(model, x, np.zeros_like(model.background_mean))
    f1 = weighted_f1(masks, truth)
    # an instance's community is the first one holding it
    g_index = truth[rows].argmax(axis=1).tolist()
    values = plausibility(masks[rows], f1, g_index)
    per_instance = [(key, gi, float(val))
                    for key, gi, val in zip(keys, g_index, values)
                    if not math.isnan(val)]
    mean = float(np.mean([p[2] for p in per_instance])) if per_instance else None
    return TaskResult(task=task, auc_pr=auc, plausibility_mean=mean,
                      per_instance=per_instance,
                      skipped=len(keys) - len(per_instance))
