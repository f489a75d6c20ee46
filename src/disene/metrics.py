"""Interpretability metrics over explanation masks and embeddings.

All logarithms are natural; correlation is Pearson, computed in 64-bit on
mean-subtracted data. Metrics that can be undefined (overlap consistency,
positional coherence) return (None, reason) instead of a number.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import xlogy

from .explain import Explanation, node_support
from .graph_core import Graph, GroundTruth, bfs_distances, community_indicators


def correlations(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pearson correlation of every row of `a` with every row of `b`.

    nan where either row has zero variance.
    """
    # C order makes each row mean the same pairwise sum as a 1-D mean
    a = np.array(a, dtype=np.float64, ndmin=2, order="C")
    b = np.array(b, dtype=np.float64, ndmin=2, order="C")
    a -= a.mean(axis=1, keepdims=True)
    b -= b.mean(axis=1, keepdims=True)
    den = np.outer(np.sqrt(np.einsum("ij,ij->i", a, a)),
                   np.sqrt(np.einsum("ij,ij->i", b, b)))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0.0, (a @ b.T) / den, np.nan)


def pearson(x, y) -> float:
    """Pearson correlation; nan when either side has zero variance."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("pearson expects two equal-length vectors")
    if len(x) < 2:
        return float("nan")
    return float(correlations(x, y)[0, 0])


def weighted_f1(weights: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """F1 of every mask column against every truth column: (K, C).

    `weights` (N, K) holds non-negative masks and `truth` (N, C) 0/1
    indicators over the same N rows. Precision weights each row by its mask
    value (W^T T / sum w); recall counts the mask's strictly positive support
    against the truth size ([W > 0]^T T / |C|). A zero mask or an empty
    truth column scores 0.
    """
    w = np.asarray(weights, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        prec = (w.T @ t) / w.sum(axis=0)[:, None]
        rec = ((w > 0.0).T.astype(np.float64) @ t) / t.sum(axis=0)[None, :]
        f1 = 2.0 * prec * rec / (prec + rec)
    return np.where((prec > 0.0) & (rec > 0.0), f1, 0.0)


def comprehensibility(weights: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, list]:
    """Best F1 of each mask column against any ground-truth community.

    `truth` is the (E, C) community edge indicator. Returns the (K,) scores
    and the index of each column's best community; an empty mask scores 0
    with no community.
    """
    f1 = weighted_f1(weights, truth)
    empty = ~(np.asarray(weights) > 0.0).any(axis=0)
    scores = np.where(empty, 0.0, f1.max(axis=1))
    best = [None if e else int(i) for e, i in zip(empty, f1.argmax(axis=1))]
    return scores, best


def sparsity(weights: np.ndarray) -> np.ndarray:
    """Normalized Shannon entropy of each mask column's weight distribution.

    0 means all mass on one edge, 1 means uniform over all E rows (every
    edge of the graph). Empty masks score 0.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.shape[0] < 2:
        raise ValueError("sparsity needs a graph with at least 2 edges")
    total = w.sum(axis=0)
    q = w / np.where(total > 0.0, total, 1.0)
    entropy = -xlogy(q, q).sum(axis=0)
    return np.where(total > 0.0, entropy / math.log(w.shape[0]), 0.0)


def jaccard(support: np.ndarray) -> np.ndarray:
    """|E_d & E_l| / |E_d | E_l| for every pair of boolean columns: (K, K).

    Two empty columns give 0.
    """
    s = np.asarray(support, dtype=np.float64)
    inter = s.T @ s
    size = np.diag(inter)
    union = size[:, None] + size[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0.0, inter / union, 0.0)


def overlap_consistency(h: np.ndarray, expl: Explanation) -> tuple[float | None, str | None]:
    """Correlation between explanation overlap and embedding correlation.

    Over all dimension pairs d < l, Pearson between JSI(E_d, E_l) and
    rho^2(H_:,d, H_:,l). A constant embedding column contributes rho = 0 for
    its pairs. Undefined for K < 3 or when either condensed vector has zero
    variance.
    """
    k = h.shape[1]
    if k < 3:
        return None, "overlap consistency needs K >= 3"
    pairs = np.triu_indices(k, k=1)
    rho = correlations(h.T, h.T)
    rho2 = np.where(np.isnan(rho), 0.0, rho * rho)
    value = pearson(jaccard(expl.support)[pairs], rho2[pairs])
    if math.isnan(value):
        return None, "zero variance in JSI or rho^2 vector"
    return value, None


def proximities(g: Graph, sources) -> np.ndarray:
    """1 / (1 + dist(s, u)) for each source s and node u: (len(sources), V).

    Unreachable pairs get 0.
    """
    prox = bfs_distances(g, sources)
    # in place: for FPC this block is the largest array of the evaluation
    prox += 1.0
    return np.reciprocal(prox, out=prox)


def fpc_matrix(h: np.ndarray, expl: Explanation, g: Graph) -> np.ndarray:
    """All FPC(d, l) = Pearson(zeta(., V_d), H_:,l); undefined entries are nan.

    zeta(u, V_d) = sum_{v in V_d} 1 / (1 + dist(u, v)), the proximities
    from the union of the V_d summed per dimension.
    """
    k = h.shape[1]
    nodes = node_support(expl, g)
    used = np.flatnonzero(nodes.any(axis=1))
    if len(used) == 0:
        return np.full((k, k), np.nan)
    zeta = nodes[used].T.astype(np.float64) @ proximities(g, used)
    return correlations(zeta, h.T)


def positional_coherence(h: np.ndarray, expl: Explanation, g: Graph,
                         num_permutations: int = 100, seed: int = 0,
                         fpc_mat: np.ndarray | None = None) -> tuple[float | None, str | None]:
    """Diagonal FPC sum over its average under random dimension permutations.

    Permutations are drawn uniformly (fixed points included). Undefined FPC
    entries are skipped from numerator and permutation sums alike; needs at
    least 2 defined diagonal entries and a non-negligible denominator.
    """
    mat = fpc_matrix(h, expl, g) if fpc_mat is None else fpc_mat
    k = mat.shape[0]
    diag = np.diag(mat)
    if np.sum(~np.isnan(diag)) < 2:
        return None, "fewer than 2 defined diagonal FPC values"
    numer = float(np.nansum(diag))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF9C]))
    sums = np.empty(num_permutations)
    idx = np.arange(k)
    for i in range(num_permutations):
        perm = rng.permutation(k)
        sums[i] = np.nansum(mat[idx, perm])
    denom = float(sums.mean())
    if abs(denom) < 1e-9:
        return None, "permutation-average denominator is ~0"
    return numer / denom, None


def auc_pr(scores, labels) -> float:
    """Average precision: step-wise integral of the precision-recall curve.

    Scores are ranked descending with a stable sort; tied scores share one
    threshold. Scores must be finite (a NaN never ties, so the input order
    would rank it). Both classes must be present.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    npos = int(np.sum(labels == 1))
    nneg = int(np.sum(labels == 0))
    if npos + nneg != len(labels):
        raise ValueError("labels must be 0/1")
    if npos == 0 or nneg == 0:
        raise ValueError("both classes must be present")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order].astype(np.float64)
    tp = np.cumsum(y)
    ranks = np.arange(1, len(y) + 1, dtype=np.float64)
    # last index of each tied block marks one threshold
    boundary = np.nonzero(np.append(s[1:] != s[:-1], True))[0]
    prec = tp[boundary] / ranks[boundary]
    rec = tp[boundary] / npos
    prev = np.concatenate([[0.0], rec[:-1]])
    return float(np.sum((rec - prev) * prec))


@dataclass
class MetricsReport:
    """One evaluation row: scalar metrics plus per-dimension breakdowns."""
    metadata: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    per_dimension: dict = field(default_factory=dict)
    nulls: dict = field(default_factory=dict)   # metric name -> reason

    def to_json(self) -> dict:
        return {"metadata": self.metadata, "metrics": self.metrics,
                "per_dimension": self.per_dimension, "nulls": self.nulls}

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")


def compute_report(g: Graph, h: np.ndarray, expl: Explanation,
                   gts: GroundTruth | None = None,
                   num_permutations: int = 100, seed: int = 0,
                   metadata: dict | None = None,
                   toggles: dict | None = None) -> MetricsReport:
    """Embedding-level metrics for one trained model.

    `toggles` may switch off individual metrics by name
    (comprehensibility, sparsity, ovc, poc). Ground truth is only needed
    for comprehensibility.
    """
    on = lambda name: toggles is None or toggles.get(name, True)
    rep = MetricsReport(metadata=metadata or {})
    rep.metrics["num_dims"] = h.shape[1]
    rep.metrics["empty_dims"] = len(expl.empty_dims)

    if on("comprehensibility") and gts is not None and gts.communities:
        edge_truth, _ = community_indicators(g, gts)
        scores, best = comprehensibility(expl.weights, edge_truth)
        rep.per_dimension["comprehensibility"] = scores.tolist()
        rep.per_dimension["best_community"] = best
        rep.metrics["comprehensibility_mean"] = float(np.mean(scores))

    if on("sparsity"):
        sp = sparsity(expl.weights)
        rep.per_dimension["sparsity"] = sp.tolist()
        rep.metrics["sparsity_score"] = 1.0 - float(np.mean(sp))

    if on("ovc"):
        val, reason = overlap_consistency(h, expl)
        if val is None:
            rep.metrics["ovc"] = None
            rep.nulls["ovc"] = reason
        else:
            rep.metrics["ovc"] = val

    if on("poc"):
        mat = fpc_matrix(h, expl, g)
        rep.per_dimension["fpc_diag"] = [None if math.isnan(x) else float(x)
                                         for x in np.diag(mat)]
        val, reason = positional_coherence(h, expl, g, num_permutations, seed,
                                           fpc_mat=mat)
        if val is None:
            rep.metrics["poc"] = None
            rep.nulls["poc"] = reason
        else:
            rep.metrics["poc"] = val

    return rep
