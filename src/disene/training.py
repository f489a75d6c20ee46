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
counts live on one upper-triangular CSR pattern M, built once per run:
it holds each unordered pair {u, v} once, as (min, max), with P and N summed
over both orders. `train` counts M straight from the walks
(`sampling.count_pairs`), without materialising the pairs; `_count_pattern`
counts the materialised corpus of `build_pair_batch`, gives the same M bit
for bit, and serves as the reference. Each step evaluates S on M's entries
from row blocks of the upper half of H H^T, writes
C = (P + N) * sigmoid(S) - P, which is P * (sigmoid(S) - 1) + N * sigmoid(S),
into M and takes

    dL_rw/dH = (M + M^T) H

(a diagonal entry, a negative that hit its own anchor, counts 2C as it
should). Both log-sigmoids come from one exp: with e = exp(-|s|) and
t = max(s, 0) + log1p(e), log sigmoid(s) = s - t and log sigmoid(-s) = -t,
each clipped to the logs of the sigmoid clamp, and sigmoid(s) = 1/(1 + e)
for s >= 0, e/(1 + e) below.

L_rw runs in H's dtype: float32 in training, float64 in the gradient
checks. S, e, the log-sigmoids and C are arrays of that dtype; only the
loss value is summed in float64, as the dot products of the float64 counts
P and N with the two log-sigmoids. (The counts in H's dtype, which C uses,
are exact in float32 up to 2**24 occurrences of one pair.) The pattern
keeps everything a step can reuse: its row-block plan, with each block's
offsets into the block product, is built on first use, and so are the
per-dtype buffers for S, the elementwise pass, the block products and the
dense C, so a step allocates little beyond its gradient. When one block is
all of H H^T (V * V <= BLOCK_ENTRIES, such as er64), S comes from SYRK,
which computes one triangle of it.

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
  written into a dense V x V array D, zero elsewhere, with its diagonal
  doubled, and the gradient (D + D^T) H is one SYMM on D's upper triangle
  (0.35 ms against 0.60 ms for the two GEMMs D H + D^T H at V = 640,
  K = 64, float32, 2-core Xeon, 1 BLAS thread).
All three compute the same sums; only their order, and so the last bits of
a float32 result, differ.

Each term has one function returning its value and dL/dH, and
`_objective` adds them up for both the training step and `loss_breakdown`,
so the loss trace and the final loss come from the same code; the final
loss and the breakdown ask for the values only, which skips the gradients. Gradients
are computed analytically (no autodiff) and pass a central
finite-difference check in 64-bit mode; see the test suite. Optimization is
bias-corrected Adam, one full-corpus step per epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_blas_funcs

from .graph_core import Graph, _distinct
from .model import (EncoderParams, activation_grad, forward, init_params,
                    normalized_adjacency)
# train counts its pattern with count_pairs; build_pair_batch stays
# importable here because the benchmark's tracer wraps it by this name
from .sampling import PairBatch, WalkConfig, build_pair_batch, count_pairs

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


def _aggregate(pairs: np.ndarray, num_nodes: int) -> _Weighted:
    """Unique pairs in lexicographic order, with their counts."""
    codes, counts = _distinct(pairs[:, 0].astype(np.int64) * num_nodes
                              + pairs[:, 1])
    return _Weighted(codes // num_nodes, codes % num_nodes,
                     counts.astype(np.float64))


@dataclass
class _Buffers:
    """One count pattern's scratch for the steps in one dtype."""
    pos: np.ndarray      # the counts P in this dtype
    both: np.ndarray     # P + N in this dtype
    work: np.ndarray     # (4, entries): S, exp(-|S|) and two temporaries
    negative: np.ndarray  # per entry, whether S < 0
    block: np.ndarray    # the largest planned block product, flattened
    dense: np.ndarray | None  # near-dense patterns: the (V, V) array D


@dataclass
class _CountPattern:
    """Positive and negative pair counts on one upper-triangular CSR pattern.

    S = H H^T is symmetric, so the pattern holds each unordered pair once, as
    the entry (min, max). `pos` and `neg` count how often the corpus holds
    the pair in either order, and `rows` is each entry's row, all aligned
    with the CSR entries. When the pattern holds at least DENSE_SHARE of the
    upper triangle, `flat` is each entry's offset rows * V + cols in a
    flattened (V, V) array, and the gradient writes C into a dense array
    instead of `matrix.data`. `plan` and the per-dtype `buffers` are built
    on first use and reused by every step.
    """
    matrix: sp.csr_matrix
    rows: np.ndarray
    pos: np.ndarray
    neg: np.ndarray
    flat: np.ndarray | None = None
    scratch: dict = field(default_factory=dict, repr=False)

    @cached_property
    def plan(self) -> list:
        """Row blocks (r0, r1, lo, hi, offsets) of h h^T's upper half, one
        per BLOCK_ENTRIES: pattern entries lo:hi lie in rows r0:r1, at
        `offsets` in the flattened product h[r0:r1] @ h[r0:].T, or gathered
        (offsets None) where the block holds few of them. Empty blocks are
        left out."""
        n = self.matrix.shape[0]
        indptr, cols = self.matrix.indptr, self.matrix.indices
        height = max(1, BLOCK_ENTRIES // n)
        plan = []
        for r0 in range(0, n, height):
            r1 = min(r0 + height, n)
            lo, hi = int(indptr[r0]), int(indptr[r1])
            if lo == hi:
                continue
            offsets = None
            if hi - lo >= GATHER_SHARE * (r1 - r0) * (n - r0):
                offsets = (self.rows[lo:hi] - r0) * (n - r0) + cols[lo:hi] - r0
            plan.append((r0, r1, lo, hi, offsets))
        return plan

    def buffers(self, dtype) -> _Buffers:
        """The scratch for steps in `dtype`, allocated on first use."""
        dtype = np.dtype(dtype)
        if dtype not in self.scratch:
            n, m = self.matrix.shape[0], len(self.pos)
            block = max(((r1 - r0) * (n - r0) for r0, r1, _, _, offsets
                         in self.plan if offsets is not None), default=0)
            self.scratch[dtype] = _Buffers(
                self.pos.astype(dtype), (self.pos + self.neg).astype(dtype),
                np.empty((4, m), dtype), np.empty(m, dtype=bool),
                np.zeros(block, dtype),
                None if self.flat is None else np.zeros((n, n), dtype))
        return self.scratch[dtype]


def _count_pattern(positives: np.ndarray, negatives: np.ndarray,
                   num_nodes: int) -> _CountPattern:
    n = num_nodes
    sides = (_aggregate(positives, n), _aggregate(negatives, n))
    folded = [np.minimum(w.u, w.v) * n + np.maximum(w.u, w.v) for w in sides]
    codes, _ = _distinct(np.concatenate(folded))
    pos, neg = (np.bincount(np.searchsorted(codes, f), weights=w.w,
                            minlength=len(codes))
                for f, w in zip(folded, sides))
    return _pattern(codes, pos, neg, n)


def _pattern(codes: np.ndarray, pos: np.ndarray, neg: np.ndarray,
             n: int) -> _CountPattern:
    """The count pattern of ascending int64 codes min * V + max and their
    positive and negative counts."""
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
# gradient is a dense product rather than two CSR products; two dense GEMMs
# broke even with them at 22-25% at V = 640-2560 (2-core Xeon, 1 BLAS
# thread, K = 64), and the one SYMM that replaced them costs less
DENSE_SHARE = 0.25


def _pattern_dots(h, cp: _CountPattern, out: np.ndarray) -> np.ndarray:
    """S = h h^T at the pattern's entries, written into `out`, block by
    block of `cp.plan`. A block that is all of h h^T comes from SYRK, which
    fills one triangle: its lower triangle, column-major, holds S(u, v),
    u <= v, at the offset u * V + v, the same as the row-major product."""
    n = h.shape[0]
    cols, block = cp.matrix.indices, cp.buffers(h.dtype).block
    for r0, r1, lo, hi, offsets in cp.plan:
        if offsets is None:
            np.einsum("ij,ij->i", h[cp.rows[lo:hi]], h[cols[lo:hi]],
                      out=out[lo:hi])
            continue
        if r1 - r0 == n:
            syrk = get_blas_funcs("syrk", (h,))
            prod = syrk(1.0, h.T, trans=1, lower=1, overwrite_c=1,
                        c=block.reshape((n, n), order="F")).ravel(order="F")
        else:
            prod = np.matmul(h[r0:r1], h[r0:].T, out=block[
                :(r1 - r0) * (n - r0)].reshape(r1 - r0, n - r0)).ravel()
        # the offsets are in range; mode "clip" lets take write into out
        # without a buffered copy
        np.take(prod, offsets, out=out[lo:hi], mode="clip")
    return out


def _rw_value_grad(h, cp: _CountPattern, grad: bool = True):
    """L_rw and dL_rw/dH on the pattern, in h's dtype; the value is summed
    in float64. Without `grad` the gradient is None."""
    buf = cp.buffers(h.dtype)
    s, e, t, c = buf.work
    _pattern_dots(h, cp, s)
    # with e = exp(-|s|) and t = max(s, 0) + log1p(e): log sigmoid(s) = s - t
    # and log sigmoid(-s) = -t; the clip is the sigmoid clamp [c, 1-c] taken
    # through the log
    np.exp(np.negative(np.abs(s, out=e), out=e), out=e)
    np.add(np.maximum(s, 0, out=t), np.log1p(e, out=c), out=t)
    lo, hi = math.log(SIGMA_CLAMP), math.log(1.0 - SIGMA_CLAMP)
    np.clip(np.subtract(s, t, out=c), lo, hi, out=c)
    np.clip(np.negative(t, out=t), lo, hi, out=t)
    value = -(float(cp.pos @ c) + float(cp.neg @ t))
    if not grad:
        return value, None
    # sigmoid(s) = 1/(1 + e) for s >= 0 and e/(1 + e) below, and
    # C = P (sigmoid(s) - 1) + N sigmoid(s) = (P + N) sigmoid(s) - P
    np.add(e, 1, out=t)
    np.divide(1, t, out=c)
    np.divide(e, t, out=c, where=np.less(s, 0, out=buf.negative))
    c *= buf.both
    c -= buf.pos
    # d/dh(u) of a pair term is C(u, v) h(v), and C(u, v) h(u) for h(v);
    # with C stored once, in M's upper triangle, M h and M^T h give the two
    if cp.flat is None:
        cp.matrix.data = c
        grad = cp.matrix @ h
        grad += cp.matrix.T @ h
        return value, grad
    # D + D^T is the symmetric matrix with D's upper triangle off the
    # diagonal and 2C on it; SYMM reads it from the lower triangle of the
    # column-major D^T, which is D's upper one
    buf.dense.ravel()[cp.flat] = c
    buf.dense.ravel()[::h.shape[0] + 1] *= 2
    symm = get_blas_funcs("symm", (h,))
    return value, symm(1.0, buf.dense.T, h.T, side=1, lower=1).T


def _dis_value_grad(h, grad: bool = True):
    """L_dis, the sum of cosines between scaled affiliation columns over the
    ordered pairs d != l, and dL_dis/dH (None without `grad`)."""
    s = h.sum(axis=0)
    f = h * s[None, :]
    g = f.T @ f
    n = np.sqrt(np.maximum(np.diag(g), 0.0))
    d = np.outer(n, n) + COSINE_EPS
    c = g / d
    value = float(c.sum() - np.trace(c))
    if not grad:
        return value, None
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


def _ent_value_grad(h, grad: bool = True):
    """1 - H(p)/ln K for the column-mass distribution p, in [0, 1], and its
    gradient (None without `grad`). All-zero H carries no mass to
    distribute, which counts as maximally concentrated: penalty 1. One
    dimension has penalty 0."""
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
    if not grad:
        return value, None
    dpen_ds = (logp + ent) / (t * math.log(k))
    dh = np.broadcast_to(dpen_ds.astype(h.dtype), h.shape).copy()
    return value, dh


def _objective(h, cp: _CountPattern, cfg: LossConfig, grad: bool = True):
    """The loss terms at H, keyed rw, dis, ent and total, and dL/dH (None
    without `grad`; the terms are the same either way).

    A regularizer counts when its weight is positive; a term that does not
    count reads 0.0. The total adds the weighted terms in the order rw, dis,
    ent.
    """
    rw, dh = _rw_value_grad(h, cp, grad)
    terms = {"rw": rw, "dis": 0.0, "ent": 0.0}
    total = rw
    # L_dis compares pairs of dimensions, so one dimension leaves it out
    regularizers = (
        ("dis", cfg.lambda_dis if h.shape[1] >= 2 else 0.0, _dis_value_grad),
        ("ent", cfg.lambda_ent, _ent_value_grad))
    for name, weight, value_grad in regularizers:
        if weight > 0:
            terms[name], dh_term = value_grad(h, grad)
            total += weight * terms[name]
            if grad:
                dh = dh + weight * dh_term
    terms["total"] = total
    return terms, dh


def loss_breakdown(params, g, batch, cfg: LossConfig, adj=None) -> dict:
    """Loss terms at the current parameters, keyed rw, dis, ent and total.

    `batch` is a PairBatch or the count pattern `train` builds. The
    total is the one `total_loss_and_grads` returns at these parameters.
    """
    _, _, h = forward(params, g, adj)
    return _objective(h, _as_pattern(batch, g.num_nodes), cfg, grad=False)[0]


def total_loss_and_grads(params: EncoderParams, g: Graph, batch, cfg: LossConfig,
                         adj=None):
    """Total loss and analytic parameter gradients.

    `batch` is a PairBatch or the count pattern `train` builds.
    The two regularizers always see the full-graph embedding, regardless of
    which pairs the batch holds.
    """
    cp = _as_pattern(batch, g.num_nodes)
    if params.kind == "gcn" and adj is None:
        adj = normalized_adjacency(g, dtype=params.W1.dtype)
    z, pre, h = forward(params, g, adj)

    terms, dh = _objective(h, cp, cfg)
    value = terms["total"]
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
    for w, gr, m, v in ((params.W1, grads.dW1, state.m_W1, state.v_W1),
                        (params.W, grads.dW, state.m_W, state.v_W)):
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
    """Full training run: corpus counts, epochs of Adam, final encode.

    The walks are generated once up front and their positive and negative
    pairs counted into one pattern as they are read, with no pair arrays;
    each epoch is one Adam step on the whole pattern, and its trace entry
    is that step's loss. Parameters are float32.
    """
    cfg.validate()
    walk_cfg.validate()
    if activation == "identity" and (cfg.lambda_dis > 0 or cfg.lambda_ent > 0):
        raise ValueError("regularizers assume non-negative H; "
                         "identity activation requires lambda_dis = lambda_ent = 0")
    corpus = _pattern(*count_pairs(g, walk_cfg), g.num_nodes)
    params = init_params(g, kind, dim_hidden, dim, seed=cfg.seed,
                         activation=activation)
    adj = normalized_adjacency(g) if kind == "gcn" else None
    state = AdamState.zeros(params)

    trace = []
    try:
        # an overflow or a NaN raises where it happens, not at the next check
        with np.errstate(over="raise", invalid="raise"):
            for _ in range(cfg.epochs):
                value, grads = total_loss_and_grads(params, g, corpus, cfg, adj)
                adam_step(params, grads, state, cfg.learning_rate)
                del grads  # freed before the next step allocates its own
                trace.append(value)
            _, _, h = forward(params, g, adj)
            final = _objective(h, corpus, cfg, grad=False)[0]["total"]
    except FloatingPointError as exc:
        epoch = len(trace) + 1
        where = (f"in epoch {epoch}" if epoch <= cfg.epochs
                 else f"after epoch {cfg.epochs}")
        raise FloatingPointError(f"training diverged {where} of {cfg.epochs}: "
                                 f"{exc}") from exc
    return TrainResult(params=params, embedding=h, loss_trace=trace, final_loss=final)
