"""Uniform random walks and skip-gram training pairs.

Walks are unbiased (every neighbor equally likely), fixed length, started
num_walks times from every node. Positive pairs come from a sliding window
over each walk, emitted in both directions; negatives corrupt the first
endpoint with a uniformly drawn node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import Graph


@dataclass(frozen=True)
class WalkConfig:
    walk_length: int = 20
    num_walks: int = 10
    window: int = 5
    negatives_per_positive: int = 1
    seed: int = 0

    def validate(self):
        if self.walk_length < 1 or self.num_walks < 1:
            raise ValueError("walk_length and num_walks must be >= 1")
        if not (1 <= self.window < max(self.walk_length, 2)):
            raise ValueError("window must satisfy 1 <= window < walk_length")
        if self.negatives_per_positive < 1:
            raise ValueError("negatives_per_positive must be >= 1")


@dataclass
class PairBatch:
    """Skip-gram corpus: ordered positive pairs and their negatives.

    negatives has exactly negatives_per_positive rows per positive, grouped
    positive-major, each the positive with its first endpoint corrupted.
    """
    positives: np.ndarray  # (P, 2)
    negatives: np.ndarray  # (P * k, 2)


def _node_rng(seed: int, node: int):
    # per-node stream: walk output is independent of scheduling order
    return np.random.default_rng(np.random.SeedSequence([seed, node]))


def generate_walks(g: Graph, cfg: WalkConfig) -> list[np.ndarray]:
    """All walks, grouped by start node in index order.

    Every node starts cfg.num_walks walks of cfg.walk_length nodes. A walk
    halts immediately only when its start node is isolated (possible in a
    training subgraph after edge holdout). Each start node draws from its own
    seeded stream, so results do not depend on iteration order.
    """
    cfg.validate()
    walks = []
    for v in range(g.num_nodes):
        if g.degrees[v] == 0:
            walks.extend(np.array([v], dtype=np.int64) for _ in range(cfg.num_walks))
            continue
        rng = _node_rng(cfg.seed, v)
        cur = np.full(cfg.num_walks, v, dtype=np.int64)
        trace = np.empty((cfg.num_walks, cfg.walk_length), dtype=np.int64)
        trace[:, 0] = cur
        for t in range(1, cfg.walk_length):
            step = rng.integers(0, g.degrees[cur])
            cur = g.indices[g.indptr[cur] + step]
            trace[:, t] = cur
        walks.extend(trace)
    return walks


def pairs_from_walks(walks, window: int) -> np.ndarray:
    """Sliding-window positive pairs over every walk, both directions.

    For each position i and offset 1 <= delta <= window with i + delta inside
    the walk, both (w_i, w_{i+delta}) and (w_{i+delta}, w_i) are emitted.
    Pairs with identical endpoints are dropped. Output order is fixed
    (offset-major) and deterministic.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if not len(walks):
        return np.empty((0, 2), dtype=np.int64)
    max_len = max(len(w) for w in walks)
    mat = np.full((len(walks), max_len), -1, dtype=np.int64)
    for i, w in enumerate(walks):
        mat[i, :len(w)] = w
    chunks = []
    for delta in range(1, window + 1):
        if delta >= max_len:
            break
        a = mat[:, :-delta].ravel()
        b = mat[:, delta:].ravel()
        ok = (a >= 0) & (b >= 0) & (a != b)
        a, b = a[ok], b[ok]
        chunks.append(np.stack([a, b], axis=1))
        chunks.append(np.stack([b, a], axis=1))
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(chunks, axis=0)


def sample_negatives(g: Graph, positives: np.ndarray, k: int, seed: int) -> np.ndarray:
    """k corruptions per positive: first endpoint replaced by a uniform node.

    The drawn node may coincide with either endpoint or with a real edge;
    the objective tolerates that, matching the uniform-corruption setup.
    Ordering is positive-major: rows i*k..(i+1)*k-1 corrupt positive i.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    p = len(positives)
    u = rng.integers(0, g.num_nodes, size=p * k)
    v = np.repeat(positives[:, 1], k)
    return np.stack([u, v], axis=1).astype(np.int64)


def build_pair_batch(g: Graph, cfg: WalkConfig) -> PairBatch:
    """Walks -> window pairs -> negatives, one deterministic corpus."""
    walks = generate_walks(g, cfg)
    pos = pairs_from_walks(walks, cfg.window)
    neg = sample_negatives(g, pos, cfg.negatives_per_positive, cfg.seed)
    return PairBatch(positives=pos, negatives=neg)
