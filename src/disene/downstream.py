"""Downstream tasks on frozen embeddings, with attribution-based plausibility.

Link prediction trains a logistic regression on Hadamard edge features
(train edges vs sampled non-edges); node classification trains on raw node
embeddings (planted-community membership vs background). The classifier
minimises mean log loss + 0.5 * l2 * ||beta||^2 (intercept unpenalized,
l2 finite and > 0) by damped Newton: Cholesky-solved (K+1)-dimensional
Newton steps with Armijo backtracking, until max |gradient| <= GRAD_TOL
(1e-10). A step's Hessian block X^T diag(s) X has two forms. Sparse
features, such as er64's link design (3% non-zero, 37% of rows all zero),
sum s_r x_rj x_rk over each row's pairs of non-zeros in one bincount; dense
ones, such as ba2560's (17% non-zero), take one SYRK of X diag(sqrt(s)).
The pairs are chosen when they number at most PAIR_SHARE of the SYRK's
N K^2 / 2 multiply-adds: one er64 link Hessian takes 0.2 ms as pairs against
2.1-2.3 ms as a SYRK, one ba2560 link Hessian 6.3-7.0 ms as a SYRK against
17-19 ms as pairs. Both tasks then explain the classifier with exact per-feature
attributions for linear models, Psi_j(x) = beta_j (x_j - mu_j), taken
against the zero background mu = 0: a zero feature of a non-negative
embedding is an absent feature.

The positive parts of Psi_j over a global universe (all graph edges, or all
nodes) form per-feature masks B^(j), one (N, J) array whose rows follow
g.edges or the node index. An instance's attributions are its row of those
masks, and its plausibility is their weighted F1 against the first
ground-truth community holding it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit

from .explain import edge_features
from .graph_core import (EdgeSplit, Graph, GroundTruth, first_community,
                         sample_non_edges)
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
# fit_logreg forms its Hessian block x^T diag(s) x from each row's pairs of
# non-zeros when they number at most PAIR_SHARE of the SYRK's N K^2 / 2
# multiply-adds (sum_r nnz_r^2 pairs). At K = 64 one Hessian took 0.17-0.20
# ms from er64's 3%-dense link features (N K^2 / 2 = 217-228 x the pairs)
# against 2.1-2.3 ms by SYRK, and 17-19 ms from ba2560's 17%-dense ones
# (12 x) against 6.3-7.0 ms. Whole fits, which also build the pairs, broke
# even between 30 x and 53 x: the pairs ran 0.62-0.90 x the SYRK's speed at
# 30 x and 1.02-1.15 x at 53 x (N = 512 to 22074; 2-core Xeon, 1 BLAS thread)
PAIR_SHARE = 1 / 64
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

    The Hessian block x^T diag(s) x comes from x's rows' pairs of non-zeros
    (with x @ w and x^T r from a CSR of x) when they are few enough against
    the SYRK's multiply-adds (PAIR_SHARE), and from one SYRK otherwise.
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
    nnz = np.count_nonzero(x, axis=1)
    sparse = nnz @ nnz <= PAIR_SHARE * n * k * k / 2
    design, gram = (_pair_design if sparse else _syrk_design)(x)
    design_t = design.T
    w = np.zeros(k + 1)           # beta, then the intercept

    def objective(w):
        z = design @ w[:k] + w[k]
        loss = np.mean(np.logaddexp(0.0, z) - y * z)
        return loss + 0.5 * l2 * (w[:k] @ w[:k]), z

    f, z = objective(w)
    for _ in range(MAX_NEWTON_STEPS):
        p = expit(z)
        r = p - y
        grad = np.append(design_t @ r / n + l2 * w[:k], r.mean())
        if np.abs(grad).max() <= GRAD_TOL:
            return LogRegModel(beta=w[:k].copy(), intercept=float(w[k]),
                               background_mean=x.mean(axis=0))
        s = p * (1.0 - p)
        hess = np.empty((k + 1, k + 1))
        hess[:k, :k] = gram(s)
        hess[k, :k] = hess[:k, k] = design_t @ s
        hess[k, k] = s.sum()
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


def _syrk_design(x: np.ndarray):
    """x, and the function s -> x^T diag(s) x that fills one (N, K) buffer
    with x * sqrt(s) and takes its symmetric product (a SYRK)."""
    scaled = np.empty_like(x)

    def gram(s):
        np.multiply(x, np.sqrt(s)[:, None], out=scaled)
        return scaled.T @ scaled   # numpy runs A^T A as one SYRK
    return x, gram


def _pair_design(x: np.ndarray):
    """x as a CSR, and the function s -> x^T diag(s) x that sums s_r x_rj
    x_rk over every row r and ordered pair (j, k) of its non-zero columns,
    as one bincount of the codes j * K + k."""
    n, k = x.shape
    # row-major, so each row's entries are adjacent and its columns ascend
    row, col = np.divmod(np.flatnonzero(x != 0), k)
    value = x[row, col]
    nnz = np.bincount(row, minlength=n)
    indptr = np.concatenate(([0], np.cumsum(nnz)))
    # entry e of row r pairs with the nnz_r entries from indptr[r]; its
    # pairs fill the block that starts at ends[e] - nnz_r
    reps = nnz[row]
    first = np.repeat(np.arange(len(row)), reps)
    ends = np.cumsum(reps)
    second = np.arange(len(first)) - np.repeat(ends - reps - indptr[row], reps)
    pair_row, pair_code = row[first], col[first] * k + col[second]
    pair_value = value[first] * value[second]

    def gram(s):
        return np.bincount(pair_code, weights=s[pair_row] * pair_value,
                           minlength=k * k).reshape(k, k)
    return sp.csr_matrix((value, col, indptr), shape=(n, k)), gram


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
    return _task_result("link", auc, model, x, gts.edge_members, test_rows,
                        list(map(tuple, split.test_edges.tolist())))


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
    y = np.zeros(g.num_nodes)
    y[gts.members.indices] = 1.0
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
    return _task_result("node", auc, model, x, gts.members, test_idx,
                        test_idx.tolist())


def _task_result(task, auc, model, x, members, rows, keys) -> TaskResult:
    """Masks over the universe x, their F1 against the (C, N) `members`, and
    the plausibility of the instances at x's rows (named by keys) that lie in
    a community, against the first one holding each; an instance's
    attributions are its row of the masks, and those with none positive are
    skipped."""
    masks = build_task_masks(model, x, np.zeros_like(model.background_mean))
    f1 = weighted_f1(masks, members)
    g_index = first_community(members, rows)
    inside = np.flatnonzero(g_index >= 0)
    values = plausibility(masks[rows[inside]], f1, g_index[inside])
    per_instance = [(keys[i], int(g_index[i]), float(val))
                    for i, val in zip(inside.tolist(), values)
                    if not math.isnan(val)]
    mean = float(np.mean([p[2] for p in per_instance])) if per_instance else None
    return TaskResult(task=task, auc_pr=auc, plausibility_mean=mean,
                      per_instance=per_instance,
                      skipped=len(inside) - len(per_instance))
