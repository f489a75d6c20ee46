"""Synthetic benchmark graphs with planted clique communities.

Four families, all built around 32 planted 10-cliques by default:

- ring_cliques: cliques joined in a ring, plus uniform noise edges
- sbm_cliques:  stochastic block model, intra-block probability 1
- ba_cliques:   preferential-attachment base graph with cliques attached
- er_cliques:   Erdos-Renyi base graph with cliques attached

Ground truth is the set of intra-clique edge sets; base nodes carry label -1.
Generation is deterministic: one seed, one byte-identical edge list.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graph_core import (Community, Graph, GroundTruth, build_graph, canonical_edge,
                         connected_components, sample_non_edges)

KINDS = ("ring_cliques", "sbm_cliques", "ba_cliques", "er_cliques")

# calibrated so expected edge counts land on the benchmark sizes
_SBM_P_OUT = 517 / 49600
_ER_P = 2724 / 51040
_RING_NOISE = 147


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
        if self.kind in ("ba_cliques", "er_cliques"):
            if self.base_nodes < 2:
                raise ValueError("base graph needs at least 2 nodes")
            if self.attach_edges_per_clique < 1:
                raise ValueError("each clique must attach with at least one edge")
        if not (0.0 <= self.er_p <= 1.0) or not (0.0 <= self.sbm_p_out <= 1.0):
            raise ValueError("edge probabilities must lie in [0, 1]")
        if self.kind == "ba_cliques" and not (1 <= self.ba_m < self.base_nodes):
            raise ValueError("ba_m must satisfy 1 <= ba_m < base_nodes")
        if self.noise_edges < 0:
            raise ValueError("noise_edges must be non-negative")


def default_spec(kind: str, seed: int = 0) -> SynthSpec:
    """Benchmark-calibrated spec for a dataset family.

    ring gets 147 noise edges; the other families rely on their probability
    parameters, already calibrated at the class level.
    """
    spec = SynthSpec(kind=kind, seed=seed)
    spec.validate()
    if kind == "ring_cliques":
        spec = replace(spec, noise_edges=_RING_NOISE)
    return spec


def generate_synthetic(spec: SynthSpec) -> tuple[Graph, GroundTruth]:
    """Generate one benchmark graph and its planted ground truth."""
    spec.validate()
    if spec.kind == "ring_cliques":
        return _ring_cliques(spec)
    if spec.kind == "sbm_cliques":
        return _sbm_cliques(spec)
    if spec.kind == "ba_cliques":
        return _attached_cliques(spec, base="ba")
    return _attached_cliques(spec, base="er")


def _clique_edges(start: int, size: int) -> list:
    return [(start + i, start + j) for i in range(size) for j in range(i + 1, size)]


def _planted(spec: SynthSpec, offset: int) -> tuple[list, list[Community], np.ndarray]:
    """Cliques occupying nodes offset..offset + num_cliques*clique_size - 1."""
    edges = []
    comms = []
    labels = np.full(offset + spec.num_cliques * spec.clique_size, -1, dtype=np.int64)
    for i in range(spec.num_cliques):
        start = offset + i * spec.clique_size
        es = _clique_edges(start, spec.clique_size)
        edges.extend(es)
        comms.append(Community(nodes=frozenset(range(start, start + spec.clique_size)),
                               edges=frozenset(es)))
        labels[start:start + spec.clique_size] = i
    return edges, comms, labels


def _ring_cliques(spec: SynthSpec):
    n = spec.num_cliques * spec.clique_size
    edges, comms, labels = _planted(spec, offset=0)
    edge_set = set(edges)
    # last node of clique i to first node of clique i+1 (mod)
    for i in range(spec.num_cliques):
        u = i * spec.clique_size + spec.clique_size - 1
        v = ((i + 1) % spec.num_cliques) * spec.clique_size
        e = canonical_edge(u, v)
        if e not in edge_set and u != v:
            edge_set.add(e)
            edges.append(e)
    noise = sample_non_edges(build_graph(n, edges, None), spec.noise_edges,
                             np.random.default_rng(spec.seed))
    g = build_graph(n, edges + noise.tolist(), None)
    return g, GroundTruth(communities=comms, labels=labels)


def _sbm_cliques(spec: SynthSpec):
    n = spec.num_cliques * spec.clique_size
    edges, comms, labels = _planted(spec, offset=0)
    rng = np.random.default_rng(spec.seed)
    cs = spec.clique_size
    for i in range(spec.num_cliques):
        for j in range(i + 1, spec.num_cliques):
            mask = rng.random((cs, cs)) < spec.sbm_p_out
            for a, b in zip(*np.nonzero(mask)):
                edges.append((i * cs + int(a), j * cs + int(b)))
    g = build_graph(n, edges, None)
    return g, GroundTruth(communities=comms, labels=labels)


def _ba_base(n: int, m: int, rng) -> list:
    """Preferential attachment: each new node links to m distinct old nodes."""
    edges = []
    repeated: list[int] = []
    targets = list(range(m))
    for source in range(m, n):
        for t in targets:
            edges.append((min(source, t), max(source, t)))
        repeated.extend(targets)
        repeated.extend([source] * m)
        # sample m distinct targets, degree-proportional via the repeated list
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(repeated[int(rng.integers(len(repeated)))])
        targets = sorted(chosen)
    return edges


def _er_base(n: int, p: float, rng) -> list:
    iu, iv = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < p
    return list(zip(iu[mask].tolist(), iv[mask].tolist()))


def _connected(num_nodes: int, edges: list) -> bool:
    g = build_graph(num_nodes, edges, None)
    return len(connected_components(g)) == 1


def _attached_cliques(spec: SynthSpec, base: str):
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
        raise RuntimeError(f"{base} base graph not connected after 100 attempts")

    clique_edges, comms, labels = _planted(spec, offset=spec.base_nodes)
    edges = list(base_edges) + clique_edges
    edge_set = set(canonical_edge(u, v) for u, v in edges)
    n = spec.base_nodes + spec.num_cliques * spec.clique_size

    rng = np.random.default_rng([spec.seed, 1000])
    for i in range(spec.num_cliques):
        start = spec.base_nodes + i * spec.clique_size
        placed = 0
        while placed < spec.attach_edges_per_clique:
            u = start + int(rng.integers(spec.clique_size))
            v = int(rng.integers(spec.base_nodes))
            e = canonical_edge(u, v)
            if e in edge_set:
                continue
            edge_set.add(e)
            edges.append(e)
            placed += 1
    g = build_graph(n, edges, None)
    return g, GroundTruth(communities=comms, labels=labels)
