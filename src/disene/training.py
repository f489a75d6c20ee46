"""Joint objective and trainer for the disentangled embeddings.

The total loss is

    L = L_rw + lambda_dis * L_dis + lambda_ent * (1 - H_ent / ln K)

with three ingredients, all on the non-negative embedding matrix H:

- L_rw:   skip-gram negative sampling over walk co-occurrence pairs,
          -sum log sigmoid(h(u).h(v)) over positives
          -sum log sigmoid(-h(u').h(v)) over corrupted pairs
- L_dis:  pairwise cosine between the scaled affiliation columns
          F_:,d = S_d * H_:,d (S_d the column sum), summed over d != l,
          pushing distinct dimensions toward disjoint supports
- H_ent:  Shannon entropy of the normalized column masses p_d = S_d / sum_l S_l,
          so the penalty 1 - H_ent/ln K discourages dead dimensions

L_rw is computed as a weighted factorisation of pair counts (Levy &
Goldberg, NeurIPS 2014). With P(u, v) and N(u, v) the number of times the
corpus holds (u, v) as a positive and as a negative pair, and S = H H^T,

    L_rw = -sum P * log sigmoid(S) - sum N * log sigmoid(-S)

summed over the entries where P or N is non-zero. S is symmetric, so the
counts live on one upper-triangular CSR pattern M, built once per corpus:
it holds each unordered pair {u, v} once, as (min, max), with P and N summed
over both orders. Each step evaluates S on M's entries from row blocks of
the upper half of H H^T, writes C = P * (sigmoid(S) - 1) + N * sigmoid(S)
into M and takes

    dL_rw/dH = (M + M^T) H

(a diagonal entry, a negative that hit its own anchor, counts 2C as it
should). Both log-sigmoids come from one exp: with e = exp(-|s|),
log sigmoid(+-s) = -(max(-+s, 0) + log1p(e)), clipped to the logs of the
sigmoid clamp, and sigmoid(s) = 1/(1 + e) for s >= 0, e/(1 + e) below.

The kernels follow M's density, in three regimes:
- sparse (a full corpus on a very large graph: 25,600 ba nodes with one
  walk per node fill 1.5% of the upper triangle, and 547 of the 640 row
  blocks gather): a row block holding fewer than GATHER_SHARE of its
  entries in M gathers its dots, one h(u).h(v) per entry, instead of
  computing the block;
- mid-density (a full corpus on a large graph, such as 2560 nodes with one
  walk per node, 13% of the upper triangle): dense row blocks for S, and
  the gradient from the two sparse products M H and M^T H;
- near-dense (a full corpus on a small graph, such as er64, 99%): M holds
  at least DENSE_SHARE of the V(V+1)/2 upper-triangle entries, C is
  written into a dense V x V array D, zero elsewhere, and the gradient is
  the two GEMMs D H + D^T H.
All three compute the same sums; only their order, and so the last bits of
a float32 result, differ.

Gradients are computed analytically (no autodiff) and pass a central
finite-difference check in 64-bit mode; see the test suite. Optimization is
bias-corrected Adam, one full-corpus step per epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph_core import Graph
from .model import (EncoderParams, activation_grad, forward, init_params,
                    normalized_adjacency)
from .sampling import PairBatch, WalkConfig, build_pair_batch

SIGMA_CLAMP = 1e-7   # sigmoid outputs clipped to [c, 1-c] before the log
COSINE_EPS = 1e-12   # cosine denominator guard
MASS_EPS = 1e-12     # entropy: total-mass and probability floor
ADAM_BETA1 = 0.9     # Adam's moment decay rates and denominator guard
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class LossConfig:
    lambda_dis: float = 1.0
    lambda_ent: float = 1.0
    epochs: int = 50
    learning_rate: float = 0.01
    seed: int = 0

    def validate(self):
        if not all(map(math.isfinite, (self.lambda_dis, self.lambda_ent,
                                       self.learning_rate))):
            raise ValueError("loss weights and learning_rate must be finite")
        if self.lambda_dis < 0 or self.lambda_ent < 0:
            raise ValueError("loss weights must be non-negative")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class GradBuffer:
    """Parameter gradients, shaped like the parameters."""
    dW1: np.ndarray
    dW: np.ndarray


@dataclass
class AdamState:
    """Adam's first and second moments and its step count."""
    m_W1: np.ndarray
    v_W1: np.ndarray
    m_W: np.ndarray
    v_W: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, params: EncoderParams):
        z = lambda a: np.zeros_like(a)
        return cls(z(params.W1), z(params.W1), z(params.W), z(params.W))


@dataclass
class _Weighted:
    """Unique pairs with multiplicities; exact regrouping of a pair list."""
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray


def _distinct(codes: np.ndarray):
    """Distinct values of non-negative int64 codes, ascending, with counts."""
    codes = np.sort(codes)
    first = np.flatnonzero(np.diff(codes, prepend=-1))
    return codes[first], np.diff(first, append=len(codes))


def _aggregate(pairs: np.ndarray, num_nodes: int) -> _Weighted:
    """Unique pairs in lexicographic order, with their counts."""
    codes, counts = _distinct(pairs[:, 0].astype(np.int64) * num_nodes
                              + pairs[:, 1])
    return _Weighted(codes // num_nodes, codes % num_nodes,
                     counts.astype(np.float64))


@dataclass
class _CountPattern:
    """Positive and negative pair counts on one upper-triangular CSR pattern.

    S = H H^T is symmetric, so the pattern holds each unordered pair once, as
    the entry (min, max). `pos` and `neg` count how often the corpus holds
    the pair in either order, and `rows` is each entry's row, all aligned
    with the CSR entries. `matrix.data` is scratch that each gradient
    overwrites. When the pattern holds at least DENSE_SHARE of the upper
    triangle, `flat` is each entry's offset rows * V + cols in a flattened
    (V, V) array, and the gradient writes C into `dense`, that array, zero
    off the pattern and allocated on first use, instead of `matrix.data`.
    """
    matrix: sp.csr_matrix
    rows: np.ndarray
    pos: np.ndarray
    neg: np.ndarray
    flat: np.ndarray | None = None
    dense: np.ndarray | None = None


def _count_pattern(positives: np.ndarray, negatives: np.ndarray,
                   num_nodes: int) -> _CountPattern:
    n = num_nodes
    sides = (_aggregate(positives, n), _aggregate(negatives, n))
    folded = [np.minimum(w.u, w.v) * n + np.maximum(w.u, w.v) for w in sides]
    codes, _ = _distinct(np.concatenate(folded))
    pos, neg = (np.bincount(np.searchsorted(codes, f), weights=w.w,
                            minlength=len(codes))
                for f, w in zip(folded, sides))
    rows, cols = codes // n, codes % n
    indptr = np.searchsorted(rows, np.arange(n + 1))
    matrix = sp.csr_matrix((np.zeros(len(codes)), cols, indptr), shape=(n, n))
    # a pair's code min * V + max is its offset in a flattened (V, V) array
    flat = codes if len(codes) >= DENSE_SHARE * n * (n + 1) / 2 else None
    return _CountPattern(matrix, rows, pos, neg, flat)


def _as_pattern(batch, num_nodes: int) -> _CountPattern:
    if isinstance(batch, PairBatch):
        return _count_pattern(batch.positives, batch.negatives, num_nodes)
    return batch  # already built


# entries of the dense product h[r0:r1] @ h[r0:].T held at once, at most
BLOCK_ENTRIES = 1 << 20
# a row block holding fewer pattern entries than this share of its product's
# entries gathers their dots instead: at K = 64 one gathered dot cost 60-70
# ns and one entry of a block product 1.2-2.1 ns (2-core Xeon, 1 BLAS thread)
GATHER_SHARE = 1 / 64
# share of the V(V+1)/2 upper-triangle entries from which a pattern's
# gradient is two dense GEMMs rather than two CSR products; the two broke
# even at 22-25% at V = 640-2560 (2-core Xeon, 1 BLAS thread, K = 64)
DENSE_SHARE = 0.25


def _pattern_dots(h, cp: _CountPattern) -> np.ndarray:
    """S = h h^T at the pattern's entries, from row blocks of h h^T's upper
    half, h[r0:r1] @ h[r0:].T, or gathered where a block holds few."""
    n = h.shape[0]
    indptr, cols = cp.matrix.indptr, cp.matrix.indices
    s = np.empty(len(cols))
    height = max(1, BLOCK_ENTRIES // n)
    for r0 in range(0, n, height):
        r1 = min(r0 + height, n)
        lo, hi = indptr[r0], indptr[r1]
        if hi - lo < GATHER_SHARE * (r1 - r0) * (n - r0):
            s[lo:hi] = np.einsum("ij,ij->i", h[cp.rows[lo:hi]], h[cols[lo:hi]])
        else:
            block = h[r0:r1] @ h[r0:].T
            offsets = (cp.rows[lo:hi] - r0) * (n - r0) + cols[lo:hi] - r0
            s[lo:hi] = block.ravel()[offsets]
    return s


def _rw_value_sigma(h, cp: _CountPattern):
    """L_rw and sigma(S) on the pattern."""
    s = _pattern_dots(h, cp)
    # with e = exp(-|s|): log sigmoid(+-s) = -(max(-+s, 0) + log1p(e)); the
    # clip is the sigmoid clamp [c, 1-c] taken through the log
    e = np.exp(-np.abs(s))
    log1p_e = np.log1p(e)
    lo, hi = math.log(SIGMA_CLAMP), math.log(1.0 - SIGMA_CLAMP)
    log_sig = np.clip(-(np.maximum(-s, 0.0) + log1p_e), lo, hi)
    log_sig_neg = np.clip(-(np.maximum(s, 0.0) + log1p_e), lo, hi)
    value = -(float(cp.pos @ log_sig) + float(cp.neg @ log_sig_neg))
    return value, np.where(s >= 0.0, 1.0, e) / (1.0 + e)


def loss_rw(h: np.ndarray, batch: PairBatch) -> float:
    """Skip-gram negative-sampling loss, summed over the batch."""
    return _rw_value_sigma(h, _as_pattern(batch, h.shape[0]))[0]


def _rw_value_grad(h, cp: _CountPattern):
    value, sig = _rw_value_sigma(h, cp)
    # d/dh(u) of a pair term is C(u, v) h(v), and C(u, v) h(u) for h(v);
    # with C stored once, in M's upper triangle, M h and M^T h give the two
    c = cp.pos * (sig - 1.0) + cp.neg * sig
    if cp.flat is None:
        cp.matrix.data = c.astype(h.dtype)
        grad = cp.matrix @ h
        grad += cp.matrix.T @ h
        return value, grad
    if cp.dense is None or cp.dense.dtype != h.dtype:
        cp.dense = np.zeros((h.shape[0],) * 2, dtype=h.dtype)
    cp.dense.ravel()[cp.flat] = c
    return value, cp.dense @ h + cp.dense.T @ h


def _cosine_parts(h):
    s = h.sum(axis=0)
    f = h * s[None, :]
    g = f.T @ f
    nsq = np.maximum(np.diag(g), 0.0)
    n = np.sqrt(nsq)
    d = np.outer(n, n) + COSINE_EPS
    c = g / d
    return s, f, g, n, d, c


def loss_dis(h: np.ndarray) -> float:
    """Sum of off-diagonal cosines between scaled affiliation columns."""
    if h.shape[1] < 2:
        raise ValueError("disentanglement loss needs at least 2 dimensions")
    _, _, _, _, _, c = _cosine_parts(h)
    return float(c.sum() - np.trace(c))


def _dis_value_grad(h):
    s, f, g, n, d, c = _cosine_parts(h)
    k = h.shape[1]
    value = float(c.sum() - np.trace(c))
    alive = n > 0.0
    n_safe = np.where(alive, n, 1.0)
    a = 1.0 / d
    np.fill_diagonal(a, 0.0)
    b = g * n[None, :] / (n_safe[:, None] * d * d)
    np.fill_diagonal(b, 0.0)
    bsum = b.sum(axis=1)
    # dL/dF_:,d = 2 [ sum_{l != d} F_:,l / D_dl  -  (sum_{l != d} B_dl) F_:,d ]
    df = 2.0 * (f @ a - f * bsum[None, :])
    df[:, ~alive] = 0.0  # cosine is flat-by-convention at an all-zero column
    # chain F = H diag(S) back to H: S depends on every entry of its column
    dh = df * s[None, :] + (df * h).sum(axis=0)[None, :]
    return value, dh.astype(h.dtype, copy=False)


def entropy_reg(h: np.ndarray) -> float:
    """1 - H(p)/ln K for the column-mass distribution p; in [0, 1].

    All-zero H carries no mass to distribute, which counts as maximally
    concentrated: penalty 1.
    """
    k = h.shape[1]
    if k < 2:
        return 0.0
    s = h.sum(axis=0, dtype=np.float64)
    t = s.sum()
    if t <= MASS_EPS:
        return 1.0
    p = s / t
    ent = -float(np.sum(p * np.log(np.maximum(p, MASS_EPS))))
    return 1.0 - ent / math.log(k)


def _ent_value_grad(h):
    k = h.shape[1]
    if k < 2:
        return 0.0, np.zeros_like(h)
    s = h.sum(axis=0, dtype=np.float64)
    t = s.sum()
    if t <= MASS_EPS:
        return 1.0, np.zeros_like(h)
    p = s / t
    logp = np.log(np.maximum(p, MASS_EPS))
    ent = -float(np.sum(p * logp))
    value = 1.0 - ent / math.log(k)
    dpen_ds = (logp + ent) / (t * math.log(k))
    dh = np.broadcast_to(dpen_ds.astype(h.dtype), h.shape).copy()
    return value, dh


def loss_breakdown(params, g, batch, cfg: LossConfig, adj=None) -> dict:
    """Loss terms at the current parameters, for reporting and tests.

    `batch` is a PairBatch or the count pattern `train` built from one.
    """
    _, _, h = forward(params, g, adj)
    out = {"rw": _rw_value_sigma(h, _as_pattern(batch, g.num_nodes))[0]}
    out["dis"] = loss_dis(h) if (cfg.lambda_dis > 0 and h.shape[1] >= 2) else 0.0
    out["ent"] = entropy_reg(h) if cfg.lambda_ent > 0 else 0.0
    out["total"] = out["rw"] + cfg.lambda_dis * out["dis"] + cfg.lambda_ent * out["ent"]
    return out


def total_loss_and_grads(params: EncoderParams, g: Graph, batch, cfg: LossConfig,
                         adj=None):
    """Total loss and analytic parameter gradients.

    `batch` is a PairBatch or the count pattern `train` built from one.
    The two regularizers always see the full-graph embedding, regardless of
    which pairs the batch holds.
    """
    cp = _as_pattern(batch, g.num_nodes)
    if params.kind == "gcn" and adj is None:
        adj = normalized_adjacency(g, dtype=params.W1.dtype)
    z, pre, h = forward(params, g, adj)

    value, dh = _rw_value_grad(h, cp)
    if cfg.lambda_dis > 0 and h.shape[1] >= 2:
        v_dis, dh_dis = _dis_value_grad(h)
        value += cfg.lambda_dis * v_dis
        dh = dh + cfg.lambda_dis * dh_dis
    if cfg.lambda_ent > 0:
        v_ent, dh_ent = _ent_value_grad(h)
        value += cfg.lambda_ent * v_ent
        dh = dh + cfg.lambda_ent * dh_ent

    if not math.isfinite(value):
        raise FloatingPointError(f"loss diverged (value={value})")

    dpre = dh * activation_grad(params.activation, pre)
    dW = z.T @ dpre
    dz = dpre @ params.W.T
    dW1 = (adj.T @ dz) if params.kind == "gcn" else dz
    return value, GradBuffer(dW1.astype(params.W1.dtype, copy=False),
                             dW.astype(params.W.dtype, copy=False))


def adam_step(params: EncoderParams, grads: GradBuffer, state: AdamState,
              lr: float):
    """One bias-corrected Adam update of params and state, in place."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    state.step += 1
    t = state.step
    for wname, gname, mname, vname in (("W1", "dW1", "m_W1", "v_W1"),
                                       ("W", "dW", "m_W", "v_W")):
        w = getattr(params, wname)
        gr = getattr(grads, gname)
        m = getattr(state, mname)
        v = getattr(state, vname)
        m *= b1
        m += (1 - b1) * gr
        v *= b2
        v += (1 - b2) * gr * gr
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        w -= (lr * mhat / (np.sqrt(vhat) + ADAM_EPS)).astype(w.dtype, copy=False)
    return params


@dataclass
class TrainResult:
    params: EncoderParams
    embedding: np.ndarray
    loss_trace: list[float]
    final_loss: float


def train(g: Graph, cfg: LossConfig, walk_cfg: WalkConfig, kind: str = "fc",
          dim_hidden: int = 128, dim: int = 32,
          activation: str = "relu") -> TrainResult:
    """Full training run: corpus generation, epochs of Adam, final encode.

    The walk corpus (positives and negatives) is generated once up front and
    counted into one pattern; each epoch is one Adam step on the whole
    pattern, and its trace entry is that step's loss. Parameters are
    float32.
    """
    cfg.validate()
    walk_cfg.validate()
    if activation == "identity" and (cfg.lambda_dis > 0 or cfg.lambda_ent > 0):
        raise ValueError("regularizers assume non-negative H; "
                         "identity activation requires lambda_dis = lambda_ent = 0")
    batch = build_pair_batch(g, walk_cfg)
    params = init_params(g, kind, dim_hidden, dim, seed=cfg.seed,
                         activation=activation)
    adj = normalized_adjacency(g) if kind == "gcn" else None
    state = AdamState.zeros(params)
    corpus = _count_pattern(batch.positives, batch.negatives, g.num_nodes)

    trace = []
    for _ in range(cfg.epochs):
        value, grads = total_loss_and_grads(params, g, corpus, cfg, adj)
        adam_step(params, grads, state, cfg.learning_rate)
        del grads  # freed before the next step allocates its own
        trace.append(value)

    _, _, h = forward(params, g, adj)
    final = loss_breakdown(params, g, corpus, cfg, adj)["total"]
    return TrainResult(params=params, embedding=h, loss_trace=trace, final_loss=final)
