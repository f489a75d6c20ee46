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
    dL_rw/dH = (C + C^T) H,   C = P * (sigmoid(S) - 1) + N * sigmoid(S)

summed over the entries where P or N is non-zero. The counts live on one
symmetric CSR pattern built once per corpus; each step evaluates S on the
pattern from row blocks of H H^T and takes one sparse product.

Gradients are computed analytically (no autodiff) and pass a central
finite-difference check in 64-bit mode; see the test suite. Optimization is
bias-corrected Adam, full batch by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .graph_core import Graph
from .model import (EncoderParams, activation_grad, forward, init_params,
                    normalized_adjacency)
from .sampling import PairBatch, WalkConfig, build_pair_batch

SIGMA_CLAMP = 1e-7   # sigmoid outputs clipped to [c, 1-c] before the log
COSINE_EPS = 1e-12   # cosine denominator guard
MASS_EPS = 1e-12     # entropy: total-mass and probability floor


@dataclass
class LossConfig:
    lambda_dis: float = 1.0
    lambda_ent: float = 1.0
    epochs: int = 50
    learning_rate: float = 0.01
    batch_size: int | None = None  # positive pairs per step; None = full corpus
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    dtype: str = "float32"         # "float64" for gradient checking

    def validate(self):
        if self.lambda_dis < 0 or self.lambda_ent < 0:
            raise ValueError("loss weights must be non-negative")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1 when given")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be float32 or float64")

    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


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
    """Positive and negative pair counts on one symmetric CSR pattern.

    The pattern holds every positive and negative pair and its mirror. Entry
    i is the pair (code // V, code % V); `pos` and `neg` count how often the
    corpus holds that ordered pair, and `mirror[i]` is the entry of the
    reversed pair. `matrix.data` is scratch that each gradient overwrites.
    """
    matrix: sp.csr_matrix
    codes: np.ndarray
    pos: np.ndarray
    neg: np.ndarray
    mirror: np.ndarray


def _count_pattern(positives: np.ndarray, negatives: np.ndarray,
                   num_nodes: int) -> _CountPattern:
    n = num_nodes
    pos = _aggregate(positives, n)
    neg = _aggregate(negatives, n)
    u = np.concatenate([pos.u, neg.u])
    v = np.concatenate([pos.v, neg.v])
    codes, _ = _distinct(np.concatenate([u * n + v, v * n + u]))
    counts = []
    for side in (pos, neg):
        c = np.zeros(len(codes))
        c[np.searchsorted(codes, side.u * n + side.v)] = side.w
        counts.append(c)
    rows, cols = codes // n, codes % n
    indptr = np.searchsorted(rows, np.arange(n + 1))
    matrix = sp.csr_matrix((np.zeros(len(codes)), cols, indptr), shape=(n, n))
    return _CountPattern(matrix, codes, counts[0], counts[1],
                         np.searchsorted(codes, cols * n + rows))


def _as_pattern(batch, num_nodes: int) -> _CountPattern:
    if isinstance(batch, PairBatch):
        return _count_pattern(batch.positives, batch.negatives, num_nodes)
    return batch  # already built


# entries of the dense product h[r0:r1] @ h.T held at once
BLOCK_ENTRIES = 1 << 20


def _pattern_dots(h, cp: _CountPattern) -> np.ndarray:
    """S = h h^T at the pattern's entries, from row blocks of the product."""
    n = h.shape[0]
    indptr = cp.matrix.indptr
    s = np.empty(len(cp.codes))
    height = max(1, BLOCK_ENTRIES // n)
    for r0 in range(0, n, height):
        r1 = min(r0 + height, n)
        lo, hi = indptr[r0], indptr[r1]
        if lo < hi:
            block = h[r0:r1] @ h.T
            s[lo:hi] = block.ravel()[cp.codes[lo:hi] - r0 * n]
    return s


def _rw_value_sigma(h, cp: _CountPattern):
    """L_rw and sigma(S) on the pattern."""
    lo, hi = SIGMA_CLAMP, 1.0 - SIGMA_CLAMP
    s = _pattern_dots(h, cp)
    sig = expit(s)
    value = -(float(np.sum(cp.pos * np.log(np.clip(sig, lo, hi))))
              + float(np.sum(cp.neg * np.log(np.clip(expit(-s), lo, hi)))))
    return value, sig


def loss_rw(h: np.ndarray, batch: PairBatch) -> float:
    """Skip-gram negative-sampling loss, summed over the batch."""
    return _rw_value_sigma(h, _as_pattern(batch, h.shape[0]))[0]


def _rw_value_grad(h, cp: _CountPattern):
    value, sig = _rw_value_sigma(h, cp)
    # d/dh(u) of a pair term is C(u, v) h(v), and C(u, v) h(u) for h(v)
    c = cp.pos * (sig - 1.0) + cp.neg * sig
    cp.matrix.data = (c + c[cp.mirror]).astype(h.dtype)
    return value, cp.matrix @ h


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


def entropy_reg(h: np.ndarray, num_dims: int | None = None) -> float:
    """1 - H(p)/ln K for the column-mass distribution p; in [0, 1].

    All-zero H carries no mass to distribute, which counts as maximally
    concentrated: penalty 1.
    """
    k = num_dims if num_dims is not None else h.shape[1]
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
        raise RuntimeError(f"loss diverged (value={value})")

    dpre = dh * activation_grad(params.activation, pre)
    dW = z.T @ dpre
    dz = dpre @ params.W.T
    dW1 = (adj.T @ dz) if params.kind == "gcn" else dz
    return value, GradBuffer(dW1.astype(params.W1.dtype, copy=False),
                             dW.astype(params.W.dtype, copy=False))


def adam_step(params: EncoderParams, grads: GradBuffer, state: AdamState,
              lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8):
    """One bias-corrected Adam update of params and state, in place."""
    state.step += 1
    t = state.step
    for wname, gname, mname, vname in (("W1", "dW1", "m_W1", "v_W1"),
                                       ("W", "dW", "m_W", "v_W")):
        w = getattr(params, wname)
        gr = getattr(grads, gname)
        m = getattr(state, mname)
        v = getattr(state, vname)
        m *= beta1
        m += (1 - beta1) * gr
        v *= beta2
        v += (1 - beta2) * gr * gr
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        w -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(w.dtype, copy=False)
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

    The walk corpus (positives and negatives) is generated once up front.
    With batch_size unset each epoch is a single full-corpus step over the
    corpus's count pattern, built once; otherwise positives are shuffled per
    epoch and sliced, each slice carrying its own negatives and counted into
    its own pattern, and the epoch's trace entry is the mean step loss.
    """
    cfg.validate()
    walk_cfg.validate()
    if activation == "identity" and (cfg.lambda_dis > 0 or cfg.lambda_ent > 0):
        raise ValueError("regularizers assume non-negative H; "
                         "identity activation requires lambda_dis = lambda_ent = 0")
    dtype = cfg.np_dtype()
    batch = build_pair_batch(g, walk_cfg)
    params = init_params(g, kind, dim_hidden, dim, seed=cfg.seed,
                         activation=activation, dtype=dtype)
    adj = normalized_adjacency(g, dtype=dtype) if kind == "gcn" else None
    state = AdamState.zeros(params)

    def step(pairs):
        value, grads = total_loss_and_grads(params, g, pairs, cfg, adj)
        adam_step(params, grads, state, cfg.learning_rate, cfg.beta1,
                  cfg.beta2, cfg.adam_eps)
        return value

    trace = []
    corpus = batch
    if cfg.batch_size is None:
        corpus = _count_pattern(batch.positives, batch.negatives, g.num_nodes)
        for _ in range(cfg.epochs):
            trace.append(step(corpus))
    else:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xB472]))
        k = walk_cfg.negatives_per_positive
        p = len(batch.positives)
        for _ in range(cfg.epochs):
            order = rng.permutation(p)
            step_losses = []
            for lo in range(0, p, cfg.batch_size):
                idx = order[lo:lo + cfg.batch_size]
                nidx = (idx[:, None] * k + np.arange(k)[None, :]).ravel()
                step_losses.append(step(_count_pattern(
                    batch.positives[idx], batch.negatives[nidx], g.num_nodes)))
            trace.append(float(np.mean(step_losses)))

    _, _, h = forward(params, g, adj)
    final = loss_breakdown(params, g, corpus, cfg, adj)["total"]
    return TrainResult(params=params, embedding=h, loss_trace=trace, final_loss=final)
