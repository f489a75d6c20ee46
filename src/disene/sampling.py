"""Uniform random walks and skip-gram training pairs.

Walks are unbiased (every neighbor equally likely), fixed length, started
num_walks times from every node. Positive pairs come from a sliding window
over each walk, emitted in both directions; negatives corrupt the first
endpoint with a uniformly drawn node. `build_pair_batch` materialises that
corpus as (P, 2) arrays and is the reference; `count_pairs` reads the same
corpus from the walks, window offset by window offset, and returns only how
often each unordered pair occurs, which is all the trainer needs.

The walks are defined by a step-by-step loop: start node v owns the PCG64
stream of `SeedSequence([seed, v])`, and at each step its walks, in order,
draw `rng.integers(0, degrees[cur])`. `generate_walks` replays that loop
for all walks at once, and the replay is exact because it reads the stream
the way numpy does:
- each 64-bit output serves two 32-bit draws, its low half first;
- a draw x maps to the slot (x * d) >> 32 of a node of degree d (Lemire's
  bound), and numpy draws again when (x * d) mod 2**32 < (2**32 - d) mod d;
- a node of degree 1 consumes no draw.
A start node with a draw that would be drawn again is redone by the loop
itself, so the walks stay those of the loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import Graph, _distinct, _fold


@dataclass(frozen=True)
class WalkConfig:
    walk_length: int = 20
    num_walks: int = 10
    window: int = 5
    negatives_per_positive: int = 1
    seed: int = 0

    def validate(self):
        self.validate_walks()
        # a window needs two walk positions, so walk_length 1 has no corpus
        if not 1 <= self.window < self.walk_length:
            raise ValueError("window must satisfy 1 <= window < walk_length")
        if self.negatives_per_positive < 1:
            raise ValueError("negatives_per_positive must be >= 1")

    def validate_walks(self):
        """Check only what the walks use: walk_length and num_walks."""
        if self.walk_length < 1 or self.num_walks < 1:
            raise ValueError("walk_length and num_walks must be >= 1")


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


_LOW32 = np.uint64(0xFFFFFFFF)


def _node_draws(seed: int, nodes: np.ndarray, count: int) -> np.ndarray:
    """The first 2*count 32-bit draws of each node's stream, one row per node.

    PCG64 serves 32-bit draws from its 64-bit outputs, low half first, and
    keeps the high half for the next draw.
    """
    draws = np.empty((len(nodes), 2 * count), dtype=np.uint64)
    for i, v in enumerate(nodes.tolist()):
        raw = _node_rng(seed, v).bit_generator.random_raw(count)
        draws[i, 0::2] = raw & _LOW32
        draws[i, 1::2] = raw >> np.uint64(32)
    return draws


def _lemire(x: np.ndarray, d: np.ndarray):
    """numpy's bounded draw in [0, d) from a 32-bit draw x, and whether numpy
    would reject x and draw again. Both are uint64 arrays, 1 <= d < 2**32."""
    m = x * d
    threshold = (np.uint64(1 << 32) - d) % d
    return (m >> np.uint64(32)).astype(np.int64), (m & _LOW32) < threshold


def _scalar_walks(g: Graph, cfg: WalkConfig, v: int) -> np.ndarray:
    """The num_walks walks from v, drawn step by step from v's stream."""
    rng = _node_rng(cfg.seed, v)
    cur = np.full(cfg.num_walks, v, dtype=np.int64)
    trace = np.empty((cfg.num_walks, cfg.walk_length), dtype=np.int64)
    trace[:, 0] = cur
    for t in range(1, cfg.walk_length):
        step = rng.integers(0, g.degrees[cur])
        cur = g.indices[g.indptr[cur] + step]
        trace[:, t] = cur
    return trace


def generate_walks(g: Graph, cfg: WalkConfig) -> np.ndarray:
    """All walks, one (V * num_walks, walk_length) int64 array.

    Rows are grouped by start node in index order, num_walks rows per node.
    Every walk has walk_length nodes, except that a walk from an isolated
    node (possible in a training subgraph after edge holdout) halts at once:
    its row is the node followed by -1 padding.

    The walks are those of `_scalar_walks` run for every start node, which
    draws from the node's own stream, so they do not depend on iteration
    order. They are replayed in one pass, as the module docstring describes:
    each node's draws are taken up front (`_node_draws`) and every step
    bounds them for all walks at once. A node with a draw numpy would
    reject (probability below degree / 2**32 per draw) is redone by
    `_scalar_walks`.
    """
    cfg.validate_walks()
    n, w, length = g.num_nodes, cfg.num_walks, cfg.walk_length
    walks = np.full((n, w, length), -1, dtype=np.int64)
    walks[:, :, 0] = np.arange(n)[:, None]
    live = np.flatnonzero(g.degrees > 0)
    # at most one draw per walk and step
    draws = _node_draws(cfg.seed, live, -(-w * (length - 1) // 2))
    used = np.zeros(len(live), dtype=np.int64)
    redo = np.zeros(len(live), dtype=bool)
    cur = np.repeat(live[:, None], w, axis=1)
    for t in range(1, length):
        d = g.degrees[cur]
        drawing = d > 1
        at = used[:, None] + np.cumsum(drawing, axis=1) - drawing
        used += drawing.sum(axis=1)
        step, rejected = _lemire(np.take_along_axis(draws, at, axis=1),
                                 d.astype(np.uint64))
        redo |= (rejected & drawing).any(axis=1)
        cur = g.indices[g.indptr[cur] + np.where(drawing, step, 0)]
        walks[live, :, t] = cur
    for v in live[redo].tolist():
        walks[v] = _scalar_walks(g, cfg, v)
    return walks.reshape(n * w, length)


def pairs_from_walks(walks, window: int) -> np.ndarray:
    """Sliding-window positive pairs over every walk, both directions.

    `walks` is a 2-D array, one walk per row, padded with -1 after a walk's
    end. For each position i and offset 1 <= delta <= window with i + delta
    inside the walk, both (w_i, w_{i+delta}) and (w_{i+delta}, w_i) are
    emitted. Pairs with identical endpoints are dropped. Output order is
    fixed (offset-major) and deterministic.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    mat = np.asarray(walks, dtype=np.int64)
    spans = []
    for delta in range(1, min(window + 1, mat.shape[-1])):
        a, b = mat[:, :-delta], mat[:, delta:]
        ok = (a >= 0) & (b >= 0) & (a != b)
        spans.append((a, b, ok, np.count_nonzero(ok)))
    # each offset's m pairs, then the same m reversed, written into one array
    out = np.empty((2 * sum(m for *_, m in spans), 2), dtype=np.int64)
    at = 0
    for a, b, ok, m in spans:
        ahead, back = out[at:at + m], out[at + m:at + 2 * m]
        ahead[:, 0] = back[:, 1] = a[ok]
        ahead[:, 1] = back[:, 0] = b[ok]
        at += 2 * m
    return out


def _negative_rng(seed: int):
    # one stream for all negatives. Its key is also node 0x5EED's (24301)
    # walk stream key in _node_rng, so on a graph that large the two are one
    return np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))


def sample_negatives(g: Graph, positives: np.ndarray, k: int, seed: int) -> np.ndarray:
    """k corruptions per positive: first endpoint replaced by a uniform node.

    The drawn node may coincide with either endpoint or with a real edge;
    the objective tolerates that, matching the uniform-corruption setup.
    Ordering is positive-major: rows i*k..(i+1)*k-1 corrupt positive i.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = _negative_rng(seed)
    p = len(positives)
    u = rng.integers(0, g.num_nodes, size=p * k)
    v = np.repeat(positives[:, 1], k)
    return np.stack([u, v], axis=1).astype(np.int64)


def build_pair_batch(g: Graph, cfg: WalkConfig) -> PairBatch:
    """Walks -> window pairs -> negatives, one deterministic corpus."""
    cfg.validate()
    walks = generate_walks(g, cfg)
    pos = pairs_from_walks(walks, cfg.window)
    neg = sample_negatives(g, pos, cfg.negatives_per_positive, cfg.seed)
    return PairBatch(positives=pos, negatives=neg)


def count_pairs(g: Graph, cfg: WalkConfig):
    """`build_pair_batch`'s corpus counted per unordered pair, never built.

    Returns (codes, pos, neg): the ascending int64 codes min * V + max of
    the unordered pairs the corpus holds, and how often each occurs as a
    positive and as a negative, in either order, as float64 counts. They
    are the counts of `build_pair_batch(g, cfg)`, read offset by offset
    from the walks: an offset's window pairs (a, b) are its positives
    (a, b) and then (b, a), and their negatives are drawn from the same
    stream in that order, one chunk per offset. (A bounded draw below
    2**32 is a 32-bit PCG64 draw, and the generator keeps the spare half of
    a 64-bit output across calls, so the chunks read the stream as one
    draw does.) Codes are int32 while V * V < 2**31, int64 beyond.
    """
    cfg.validate()
    n, k = g.num_nodes, cfg.negatives_per_positive
    dtype = np.int32 if n * n < 2**31 else np.int64
    walks = generate_walks(g, cfg).astype(dtype)
    rng = _negative_rng(cfg.seed)
    folded = ([], [])
    for delta in range(1, cfg.window + 1):
        a, b = walks[:, :-delta], walks[:, delta:]
        ok = (a >= 0) & (b >= 0) & (a != b)
        a, b = a[ok], b[ok]
        folded[0].append(_fold(a, b, n))
        # a negative keeps its positive's second endpoint: b for (a, b),
        # then a for (b, a), k times each
        v = np.repeat(np.concatenate([b, a]), k)
        u = rng.integers(0, n, size=len(v), dtype=dtype)
        folded[1].append(_fold(u, v, n))
    (pos_codes, pos_counts), (neg_codes, neg_counts) = (
        _distinct(np.concatenate(side)) for side in folded)
    del walks, folded
    # merge the two ascending runs: a stable argsort is a timsort, which
    # merges them in one pass and keeps each side's codes in their order
    both = np.concatenate([pos_codes, neg_codes])
    order = np.argsort(both, kind="stable")
    both = both[order]
    from_pos = order < len(pos_codes)
    del order
    starts = np.ones(len(both), dtype=bool)
    np.not_equal(both[1:], both[:-1], out=starts[1:])
    codes = both[starts]
    # each code's rank among the distinct codes
    rank = np.cumsum(starts)
    rank -= 1
    # each window pair is two positives, (a, b) and (b, a)
    pos = np.bincount(rank[from_pos], weights=2 * pos_counts,
                      minlength=len(codes))
    neg = np.bincount(rank[~from_pos], weights=neg_counts,
                      minlength=len(codes))
    return codes.astype(np.int64, copy=False), pos, neg
