"""Synthetic benchmark graphs with planted clique communities.

Four families, all built around 32 planted 10-cliques by default:

- ring_cliques: cliques joined in a ring, plus uniform noise edges
- sbm_cliques:  stochastic block model, intra-block probability 1
- ba_cliques:   preferential-attachment base graph with cliques attached
- er_cliques:   Erdos-Renyi base graph with cliques attached

`_FAMILIES`, at the end, is their one table: a kind's generator, the
`SynthSpec` fields it reads and its defaults beyond the class's. `KINDS`,
`READS`, `default_spec`, `generate_synthetic` and the CLI's generator flags
and kind aliases come from it; a new family is one row and one generator.

Every generator returns edges as one (E, 2) array and leaves cleaning to
`build_graph`. Ground truth is the clique labels' intra-label edges, through
`communities_from_labels`; base nodes carry label -1. Generation is
deterministic: one seed, one byte-identical edge list.

The ba base is defined by a scalar loop: each new node's targets are
`repeated[rng.integers(len(repeated))]`, drawn until m of them differ.
`_ba_base` replays that loop from the bit generator's raw output, read in
chunks, the way numpy reads it for a bound k < 2**32:
- each 64-bit output serves two 32-bit draws, its low half first;
- a draw x maps to (x * k) >> 32 (Lemire, "Fast Random Integer Generation
  in an Interval", ACM TOMACS 2019), and numpy draws again when
  (x * k) mod 2**32 < (2**32 - k) mod k.
A bound of 2**32 or more, where numpy takes another path, raises instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .graph_core import (Graph, GroundTruth, build_graph, communities_from_labels,
                         sample_non_edges)

# calibrated so expected edge counts land on the benchmark sizes
_SBM_P_OUT = 517 / 49600
_ER_P = 2724 / 51040
_RING_NOISE = 147
# node pairs per uniform draw of the er base, bounding its memory
_ER_CHUNK = 1 << 20


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for one synthetic benchmark instance."""
    kind: str
    num_cliques: int = 32
    clique_size: int = 10
    base_nodes: int = 320
    attach_edges_per_clique: int = 1
    er_p: float = _ER_P
    sbm_p_out: float = _SBM_P_OUT
    ba_m: int = 5
    noise_edges: int = 0
    seed: int = 0

    def validate(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}, expected one of {KINDS}")
        if self.num_cliques < 1 or self.clique_size < 2:
            raise ValueError("need at least one clique of size >= 2")
        if "base_nodes" in READS[self.kind]:
            if self.base_nodes < 2:
                raise ValueError("base graph needs at least 2 nodes")
            if self.attach_edges_per_clique < 1:
                raise ValueError("each clique must attach with at least one edge")
            # a clique's hooks are distinct (base node, clique node) pairs
            hooks = self.clique_size * self.base_nodes
            if self.attach_edges_per_clique > hooks:
                raise ValueError(f"attach_edges_per_clique exceeds the {hooks} "
                                 f"distinct hooks of a clique to the base")
        if not (0.0 <= self.er_p <= 1.0) or not (0.0 <= self.sbm_p_out <= 1.0):
            raise ValueError("edge probabilities must lie in [0, 1]")
        if "ba_m" in READS[self.kind] and not 1 <= self.ba_m < self.base_nodes:
            raise ValueError("ba_m must satisfy 1 <= ba_m < base_nodes")
        if self.noise_edges < 0:
            raise ValueError("noise_edges must be non-negative")


def default_spec(kind: str, seed: int = 0) -> SynthSpec:
    """Benchmark-calibrated spec of a family: the class's defaults, then its own."""
    spec = SynthSpec(kind=kind, seed=seed)
    spec.validate()
    return replace(spec, **_FAMILIES[kind].defaults)


def generate_synthetic(spec: SynthSpec) -> tuple[Graph, GroundTruth]:
    """Generate one benchmark graph and its planted ground truth."""
    spec.validate()
    return _FAMILIES[spec.kind].generate(spec)


def _planted(spec: SynthSpec, offset: int) -> tuple[np.ndarray, np.ndarray]:
    """Clique edges and node labels for cliques occupying nodes
    offset..offset + num_cliques*clique_size - 1; nodes before offset get -1."""
    cs = spec.clique_size
    iu, iv = np.triu_indices(cs, k=1)
    starts = offset + cs * np.arange(spec.num_cliques)[:, None]
    edges = np.stack([(starts + iu).ravel(), (starts + iv).ravel()], axis=1)
    labels = np.full(offset + spec.num_cliques * cs, -1, dtype=np.int64)
    labels[offset:] = np.repeat(np.arange(spec.num_cliques), cs)
    return edges, labels


def _with_truth(num_nodes: int, edges: np.ndarray, labels: np.ndarray):
    g = build_graph(num_nodes, edges)
    return g, communities_from_labels(g, labels, exclude={-1})


def _ring_cliques(spec: SynthSpec):
    n = spec.num_cliques * spec.clique_size
    edges, labels = _planted(spec, offset=0)
    # last node of clique i to first node of clique i+1 (mod)
    i = np.arange(spec.num_cliques)
    ring = np.stack([i * spec.clique_size + spec.clique_size - 1,
                     (i + 1) % spec.num_cliques * spec.clique_size], axis=1)
    base = build_graph(n, np.concatenate([edges, ring]))
    noise = sample_non_edges(base, spec.noise_edges,
                             np.random.default_rng(spec.seed))
    return _with_truth(n, np.concatenate([base.edges, noise]), labels)


def _sbm_cliques(spec: SynthSpec):
    n = spec.num_cliques * spec.clique_size
    edges, labels = _planted(spec, offset=0)
    rng = np.random.default_rng(spec.seed)
    cs = spec.clique_size
    parts = [edges]
    for i in range(spec.num_cliques - 1):
        # blocks (i, i+1), ..., (i, C-1) in one draw, in the order of
        # one (cs, cs) draw per block
        k, a, b = np.nonzero(rng.random((spec.num_cliques - 1 - i, cs, cs))
                             < spec.sbm_p_out)
        parts.append(np.stack([i * cs + a, (i + 1 + k) * cs + b], axis=1))
    return _with_truth(n, np.concatenate(parts), labels)


def _ba_base(n: int, m: int, rng) -> np.ndarray:
    """Preferential attachment: each new node links to m distinct old nodes.

    Node m links to nodes 0..m-1; each later node links to m distinct
    targets drawn degree-proportionally from `repeated`, which lists every
    node once per edge end so far. `rng`'s stream is read ahead in chunks,
    so `rng` is spent after the call.
    """
    draws = _uint32_draws(rng.bit_generator)
    repeated: list[int] = []
    targets = list(range(m))
    ends = []
    for source in range(m, n):
        ends.extend(targets)
        repeated.extend(targets)
        repeated.extend([source] * m)
        targets = _draw_distinct(draws, repeated, m)
    return np.stack([np.array(ends, dtype=np.int64),
                     np.repeat(np.arange(m, n, dtype=np.int64), m)], axis=1)


def _uint32_draws(bit_generator, chunk: int = 4096):
    """The 32-bit draws numpy's Generator takes from `bit_generator`, in
    order: each 64-bit output in turn, its low half first."""
    while True:
        raw = bit_generator.random_raw(chunk).astype("<u8", copy=False)
        yield from raw.view("<u4").tolist()


def _draw_distinct(draws, pool, m: int) -> list[int]:
    """m distinct entries of `pool`, ascending, drawn as the loop

        while fewer than m differ: pool[rng.integers(len(pool))]

    draws them from the stream `draws` (the module docstring states how
    numpy maps a 32-bit draw into [0, len(pool))).
    """
    k = len(pool)
    if not 2 <= k < 1 << 32:
        raise ValueError(f"a bounded draw replays bounds in [2, 2**32), got {k}")
    threshold = ((1 << 32) - k) % k
    chosen: set[int] = set()
    while len(chosen) < m:
        x = next(draws) * k
        if (x & 0xFFFFFFFF) >= threshold:
            chosen.add(pool[x >> 32])
    return sorted(chosen)


def _er_base(n: int, p: float, rng) -> np.ndarray:
    """Each pair u < v is an edge with probability p.

    The uniforms are drawn in the lexicographic pair order of
    np.triu_indices(n, 1), a block of rows at a time, which gives the
    stream of one draw over all pairs in O(n * rows) memory.
    """
    rows = max(1, _ER_CHUNK // n)
    parts = []
    for lo in range(0, n - 1, rows):
        u = np.arange(lo, min(lo + rows, n - 1))
        ends = np.cumsum(n - 1 - u)           # pairs up to the end of each row
        hit = np.flatnonzero(rng.random(ends[-1]) < p)
        r = np.searchsorted(ends, hit, side="right")
        v = u[r] + 1 + hit - (ends[r] - (n - 1 - u[r]))
        parts.append(np.stack([u[r], v], axis=1))
    return np.concatenate(parts)


def _connected(num_nodes: int, edges: np.ndarray) -> bool:
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    adj = sp.coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                        shape=(num_nodes, num_nodes))
    return csgraph.connected_components(adj, directed=False)[0] == 1


def _attached_cliques(spec: SynthSpec):
    base = spec.kind.removesuffix("_cliques")     # ba or er
    # regenerate the base until connected; each retry reseeds deterministically
    base_edges = None
    for retry in range(100):
        rng = np.random.default_rng([spec.seed, retry])
        cand = (_ba_base(spec.base_nodes, spec.ba_m, rng) if base == "ba"
                else _er_base(spec.base_nodes, spec.er_p, rng))
        if _connected(spec.base_nodes, cand):
            base_edges = cand
            break
    if base_edges is None:
        setting = f"ba_m={spec.ba_m}" if base == "ba" else f"er_p={spec.er_p}"
        raise ValueError(f"{spec.kind}: no connected {base} base graph of "
                         f"base_nodes={spec.base_nodes} and {setting} in "
                         f"100 attempts")

    clique_edges, labels = _planted(spec, offset=spec.base_nodes)
    n = spec.base_nodes + spec.num_cliques * spec.clique_size

    # a clique-base pair is neither a base nor a clique edge, and pairs of
    # different cliques differ, so a hook only repeats one of its own clique
    rng = np.random.default_rng([spec.seed, 1000])
    hooks = []
    for i in range(spec.num_cliques):
        start = spec.base_nodes + i * spec.clique_size
        placed: set = set()
        while len(placed) < spec.attach_edges_per_clique:
            u = start + int(rng.integers(spec.clique_size))
            v = int(rng.integers(spec.base_nodes))
            placed.add((v, u))
        hooks.extend(placed)
    edges = np.concatenate([base_edges, clique_edges, np.array(hooks)])
    return _with_truth(n, edges, labels)


class _Family(NamedTuple):
    generate: Callable[[SynthSpec], tuple[Graph, GroundTruth]]
    reads: tuple[str, ...]  # SynthSpec fields besides kind; others change nothing
    defaults: dict          # default_spec's values beyond the class's


_EVERY = ("seed", "num_cliques", "clique_size")
_ATTACHED = (*_EVERY, "base_nodes", "attach_edges_per_clique")
_FAMILIES = {
    "ring_cliques": _Family(_ring_cliques, (*_EVERY, "noise_edges"),
                            {"noise_edges": _RING_NOISE}),
    "sbm_cliques": _Family(_sbm_cliques, (*_EVERY, "sbm_p_out"), {}),
    "ba_cliques": _Family(_attached_cliques, (*_ATTACHED, "ba_m"), {}),
    "er_cliques": _Family(_attached_cliques, (*_ATTACHED, "er_p"), {}),
}
KINDS = tuple(_FAMILIES)
READS = {kind: family.reads for kind, family in _FAMILIES.items()}
