"""Interpretability metrics over explanation masks and embeddings.

All logarithms are natural; correlation is Pearson, computed in 64-bit on
mean-subtracted data. Metrics that can be undefined (overlap consistency,
positional coherence) return (None, reason) instead of a number.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.special import xlogy

from .explain import Explanation, node_support
from .graph_core import (Graph, GroundTruth, bfs_distances, membership,
                         twin_quotient)


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


def weighted_f1(weights: np.ndarray, members: sp.csr_matrix) -> np.ndarray:
    """F1 of every mask column against every community: (K, C).

    `weights` (N, K) holds non-negative masks over N rows and `members` is
    the (C, N) membership CSR M of the communities over the same rows.
    Precision weights each row by its mask value (M W / sum w); recall
    counts the mask's strictly positive support against the community size
    (M [W > 0] / |C|). A zero mask or an empty community scores 0. Both
    numerators are summed over the members only.
    """
    w = np.asarray(weights, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        prec = (members @ w).T / w.sum(axis=0)[:, None]
        rec = ((members @ (w > 0.0).astype(np.float64)).T
               / np.diff(members.indptr)[None, :])
        f1 = 2.0 * prec * rec / (prec + rec)
    return np.where((prec > 0.0) & (rec > 0.0), f1, 0.0)


def comprehensibility(weights: np.ndarray, members: sp.csr_matrix) -> tuple[np.ndarray, list]:
    """Best F1 of each mask column against any ground-truth community.

    `members` is the (C, E) community edge membership. Returns the (K,)
    scores and the index of each column's best community; an empty mask
    scores 0 with no community.
    """
    f1 = weighted_f1(weights, members)
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

    Unreachable pairs get 0. Hop counts come from `bfs_distances`, which
    holds a few (V, len(sources)) arrays while it runs.
    """
    prox = bfs_distances(g, sources)
    # in place: for FPC this block is the largest array of the evaluation
    prox += 1.0
    return np.reciprocal(prox, out=prox)


# entries of the (sources x V') proximity block fpc_matrix holds at once, at
# most, for the V' nodes of the twin-contracted graph
SOURCE_BLOCK_ENTRIES = 1 << 20


def fpc_matrix(h: np.ndarray, expl: Explanation) -> np.ndarray:
    """All FPC(d, l) = Pearson(zeta(., V_d), H_:,l); undefined entries are nan.

    zeta(u, V_d) = sum_{v in V_d} 1 / (1 + dist(u, v)). The search runs on
    `twin_quotient`'s graph, one node per class of nodes with the same
    closed neighbourhood, which keeps every distance between classes. Each
    class c holding explanation nodes is one source, weighted by W_c, its
    number of V_d's nodes. That sum puts x's twins 0 hops from x, where
    they sit at 1, so node x of class c gets zeta(x) = zeta_q(c) -
    (W_c - w_x) / 2, with w_x = 1 when x is in V_d: exact in float64, and
    0 for a one-node class. Sources go in blocks of
    SOURCE_BLOCK_ENTRIES // V' for the quotient's V' nodes, so memory is
    O(block * V' + K * V) however many nodes the explanations cover.
    """
    k, g = h.shape[1], expl.graph
    w = node_support(expl).astype(np.float64)
    cls, q = twin_quotient(g)
    classes = membership(cls, np.arange(g.num_nodes), (q.num_nodes, g.num_nodes))
    wq = classes @ w
    used = np.flatnonzero(wq.any(axis=1))
    if len(used) == 0:
        return np.full((k, k), np.nan)
    zeta = np.zeros((k, q.num_nodes))
    height = max(1, SOURCE_BLOCK_ENTRIES // q.num_nodes)
    for r0 in range(0, len(used), height):
        block = used[r0:r0 + height]
        zeta += wq[block].T @ proximities(q, block)
    # in place, w becomes each node's (w_x - W_c) / 2
    w -= wq[cls]
    w *= 0.5
    zeta = zeta[:, cls]
    zeta += w.T
    del w, wq  # freed before correlations copies zeta and h
    return correlations(zeta, h.T)


def positional_coherence(fpc: np.ndarray, num_permutations: int = 100,
                         seed: int = 0) -> tuple[float | None, str | None]:
    """Diagonal FPC sum over its average under random dimension permutations.

    `fpc` is the (K, K) matrix `fpc_matrix` returns. Permutations are drawn
    uniformly (fixed points included). Undefined (nan) FPC entries are
    skipped from numerator and permutation sums alike; needs at least 2
    defined diagonal entries and a non-negligible denominator.
    """
    if num_permutations < 1:
        raise ValueError(f"positional coherence needs at least 1 permutation, "
                         f"got {num_permutations}")
    k = fpc.shape[0]
    diag = np.diag(fpc)
    if np.sum(~np.isnan(diag)) < 2:
        return None, "fewer than 2 defined diagonal FPC values"
    numer = float(np.nansum(diag))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF9C]))
    sums = np.empty(num_permutations)
    idx = np.arange(k)
    for i in range(num_permutations):
        perm = rng.permutation(k)
        sums[i] = np.nansum(fpc[idx, perm])
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


def compute_report(h: np.ndarray, expl: Explanation,
                   gts: GroundTruth | None = None,
                   num_permutations: int = 100, seed: int = 0,
                   toggles: dict | None = None) -> dict:
    """Embedding-level metrics for one trained model.

    Returns the report as `report.json` holds it, less its metadata:
    {"metrics": scalar metrics, "per_dimension": per-dimension lists,
    "nulls": metric name -> why it is null}. `toggles` may switch off
    individual metrics by name (comprehensibility, sparsity, ovc, poc).
    Ground truth is only needed for comprehensibility; when given, it must
    be of the explanation's graph.
    """
    if gts is not None:
        gts.check_graph(expl.graph)
    on = lambda name: toggles is None or toggles.get(name, True)
    metrics = {"num_dims": h.shape[1], "empty_dims": len(expl.empty_dims)}
    per_dim = {}

    if on("comprehensibility") and gts is not None and gts.num_communities:
        scores, best = comprehensibility(expl.weights, gts.edge_members)
        per_dim["comprehensibility"] = scores.tolist()
        per_dim["best_community"] = best
        metrics["comprehensibility_mean"] = float(np.mean(scores))

    if on("sparsity"):
        sp = sparsity(expl.weights)
        per_dim["sparsity"] = sp.tolist()
        metrics["sparsity_score"] = 1.0 - float(np.mean(sp))

    # the metrics that may be undefined: a null value comes with its reason
    undefined = {}
    if on("ovc"):
        undefined["ovc"] = overlap_consistency(h, expl)
    if on("poc"):
        mat = fpc_matrix(h, expl)
        per_dim["fpc_diag"] = [None if math.isnan(x) else float(x)
                               for x in np.diag(mat)]
        undefined["poc"] = positional_coherence(mat, num_permutations, seed)
    metrics.update((name, val) for name, (val, _) in undefined.items())
    nulls = {name: why for name, (val, why) in undefined.items() if val is None}

    return {"metrics": metrics, "per_dimension": per_dim, "nulls": nulls}
