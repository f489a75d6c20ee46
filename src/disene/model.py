"""Shallow encoders producing non-negative node embeddings.

Two variants share the head H = rho(Z W):

- fc:  Z = W1 (a free embedding table; input features are the identity)
- gcn: Z = A_hat W1 with the symmetric-normalized self-loop adjacency,
  which the caller builds once (`normalized_adjacency`) and passes in

rho is relu or softplus, so every embedding coordinate is >= 0 and the
column j of H reads as a soft node-community affiliation. Edge likelihood
is sigmoid(h(u) . h(v)). `ACTIVATIONS` maps each name to (rho, rho').
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .graph_core import Graph

ENCODER_KINDS = ("fc", "gcn")


def softplus(x):
    # stable for large |x|
    return np.logaddexp(0.0, x)


# name -> (rho, rho'), rho' evaluated at the pre-activation. identity exists
# for the plain skip-gram baseline; it drops the non-negativity guarantee,
# so the regularizers must stay off with it
ACTIVATIONS = {
    "relu": (lambda x: np.maximum(x, 0.0),
             lambda pre: (pre > 0).astype(pre.dtype)),
    "softplus": (softplus, expit),
    "identity": (lambda x: x, np.ones_like),
}


@dataclass
class EncoderParams:
    kind: str
    W1: np.ndarray  # (V, D)
    W: np.ndarray   # (D, K)
    activation: str = "relu"


def _glorot(rng, shape, dtype):
    s = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-s, s, size=shape).astype(dtype)


def init_params(g: Graph, kind: str, dim_hidden: int, dim: int, seed: int,
                activation: str = "relu", dtype=np.float32) -> EncoderParams:
    """Glorot-uniform initialization of both weight matrices."""
    if kind not in ENCODER_KINDS:
        raise ValueError(f"unknown encoder kind {kind!r}")
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    if dim_hidden < 1 or dim < 1:
        raise ValueError("dim_hidden and dim must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1417]))
    W1 = _glorot(rng, (g.num_nodes, dim_hidden), dtype)
    W = _glorot(rng, (dim_hidden, dim), dtype)
    return EncoderParams(kind=kind, W1=W1, W=W, activation=activation)


def normalized_adjacency(g: Graph, dtype=np.float32) -> sp.csr_matrix:
    """A_hat = D^{-1/2} (A + I) D^{-1/2}, sparse CSR.

    Self loops guarantee every degree is positive, so the normalization
    never divides by zero.
    """
    a = g.matrix(dtype) + sp.identity(g.num_nodes, dtype=dtype, format="csr")
    scale = sp.diags(1.0 / np.sqrt((g.degrees + 1).astype(dtype)))
    return (scale @ a @ scale).tocsr()


def forward(params: EncoderParams, adj: sp.csr_matrix | None = None):
    """Full forward pass, returning (Z, pre-activation, H) for backprop;
    gcn takes A_hat (`normalized_adjacency`) as `adj`, fc no adjacency."""
    if params.kind == "gcn" and adj is None:
        raise ValueError("the gcn encoder needs A_hat as adj")
    if params.kind == "fc" and adj is not None:
        raise ValueError("the fc encoder takes no adjacency")
    z = params.W1 if adj is None else adj @ params.W1
    pre = z @ params.W
    h = ACTIVATIONS[params.activation][0](pre)
    if not np.all(np.isfinite(h)):
        raise FloatingPointError("non-finite values in encoder output")
    return z, pre, h


def save_embedding_text(path, h: np.ndarray):
    """Plain-text export: header 'V K', then one row of K values per node."""
    v, k = h.shape
    # one %-format over all values writes what f"{x:.9g}" writes per value
    rows = (" ".join(["%.9g"] * k) + "\n") * v % tuple(h.ravel().tolist())
    with open(path, "w") as fh:
        fh.write(f"{v} {k}\n")
        fh.write(rows)


def save_embedding_binary(path, h: np.ndarray):
    """Binary export: 8-byte header (V, K as little-endian uint32), then
    row-major float32 little-endian payload."""
    v, k = h.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", v, k))
        fh.write(np.ascontiguousarray(h, dtype="<f4").tobytes())


def load_embedding_binary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError(f"{path}: truncated header")
        v, k = struct.unpack("<II", header)
        payload = fh.read()
    expect = v * k * 4
    if len(payload) != expect:
        raise ValueError(f"{path}: expected {expect} payload bytes, got {len(payload)}")
    return np.frombuffer(payload, dtype="<f4").reshape(v, k).astype(np.float32)
