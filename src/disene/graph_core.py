"""Undirected graph container plus file I/O, edge splits and BFS distances.

Everything downstream (sampling, training, explanation, metrics) works on the
`Graph` type defined here: simple undirected graphs over a dense node index
range 0..num_nodes-1, no self loops, no duplicate edges, no weights.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph


def canonical_edge(u: int, v: int) -> tuple[int, int]:
    """Unordered pair identity: (u, v) with u < v."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable undirected graph.

    Nodes are dense integers 0..num_nodes-1. Edges are a lexicographically
    sorted (E, 2) int array with u < v per row; arrays indexed by edge
    (explanation masks, community indicators) follow its row order. The
    adjacency is stored once, in CSR form: the sorted neighbors of v are
    indices[indptr[v]:indptr[v + 1]]. `node_ids` optionally keeps the
    original string tokens of a loaded edge list (index-aligned).

    Instances are meant to be treated as immutable; mutate nothing after
    construction.
    """

    def __init__(self, num_nodes: int, edges: np.ndarray, node_ids: list[str] | None):
        self.num_nodes = num_nodes
        self.edges = edges
        self.node_ids = node_ids
        # both directions of every edge, ordered by (row, column)
        src = np.concatenate([edges[:, 0], edges[:, 1]])
        dst = np.concatenate([edges[:, 1], edges[:, 0]])
        self.indices = dst[np.lexsort((dst, src))]
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(src, minlength=num_nodes))]).astype(np.int64)
        self.degrees = np.diff(self.indptr)
        self._edge_set = frozenset(map(tuple, edges.tolist()))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        return canonical_edge(u, v) in self._edge_set

    @property
    def edge_set(self) -> frozenset:
        return self._edge_set

    def matrix(self, dtype=np.float64) -> sp.csr_matrix:
        """Symmetric 0/1 adjacency matrix over the CSR arrays."""
        data = np.ones(len(self.indices), dtype=dtype)
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=(self.num_nodes, self.num_nodes))

    def edge_rows(self, pairs) -> np.ndarray:
        """Row in self.edges of each (u, v) pair, in either orientation.

        Looks the pair codes u * V + v up in the edge codes, which the
        lexicographic edge order keeps sorted. Raises on a non-edge.
        """
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        codes = _pair_codes(self.edges, self.num_nodes)
        want = _pair_codes(np.sort(pairs, axis=1), self.num_nodes)
        rows = np.searchsorted(codes, want)
        found = rows < len(codes)
        found[found] = codes[rows[found]] == want[found]
        if not found.all():
            u, v = pairs[np.argmin(found)]
            raise ValueError(f"({u}, {v}) is not an edge of the graph")
        return rows

    def __repr__(self):
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


def _pair_codes(pairs: np.ndarray, num_nodes: int) -> np.ndarray:
    """u * V + v per (u, v) row: one integer per node pair, ordered as the pairs."""
    return pairs[:, 0] * num_nodes + pairs[:, 1]


def build_graph(num_nodes: int, edges, node_ids=None) -> Graph:
    """Construct a Graph from an edge iterable, cleaning as it goes.

    Self loops are dropped, duplicates (in either orientation) collapse to
    one undirected edge, and endpoints must lie in [0, num_nodes). Isolated
    nodes are allowed: num_nodes is authoritative, not the edge list.
    """
    if num_nodes < 1:
        raise ValueError("graph needs at least one node")
    seen = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            continue
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise ValueError(f"edge ({u}, {v}) out of range for {num_nodes} nodes")
        seen.add(canonical_edge(u, v))
    if seen:
        arr = np.array(sorted(seen), dtype=np.int64)
    else:
        arr = np.empty((0, 2), dtype=np.int64)
    return Graph(num_nodes, arr, list(node_ids) if node_ids else None)


def connected_components(g: Graph) -> list[list[int]]:
    """Connected components as node lists, each sorted, ordered by first node."""
    count, labels = csgraph.connected_components(g.matrix(), directed=False)
    order = np.argsort(labels, kind="stable")
    comps = np.split(order, np.cumsum(np.bincount(labels, minlength=count))[:-1])
    return sorted((c.tolist() for c in comps), key=lambda c: c[0])


def largest_component_subgraph(g: Graph) -> Graph:
    """Restrict to the largest connected component, reindexing densely.

    Ties go to the component containing the smallest node index. Original
    node order (and node_ids alignment) is preserved under the new indexing.
    """
    comps = connected_components(g)
    best = max(comps, key=len)  # max() keeps the first on ties
    keep = np.array(best, dtype=np.int64)
    remap = -np.ones(g.num_nodes, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    edges = [(remap[u], remap[v]) for u, v in g.edges.tolist() if remap[u] >= 0 and remap[v] >= 0]
    ids = [g.node_ids[i] for i in best] if g.node_ids else None
    return build_graph(len(best), edges, ids)


def load_edge_list(path, largest_component: bool = True) -> Graph:
    """Load a whitespace-separated edge list.

    Each non-comment line holds two node tokens; '#' starts a comment line and
    blank lines are skipped. Tokens are remapped to dense indices in order of
    first appearance. By default the graph is then restricted to its largest
    connected component (synthetic generators bypass this entirely by
    constructing Graph objects directly).
    """
    index: dict[str, int] = {}
    edges = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            toks = line.split()
            if len(toks) != 2:
                raise ValueError(f"{path}:{lineno}: expected two node tokens, got {len(toks)}")
            pair = []
            for t in toks:
                if t not in index:
                    index[t] = len(index)
                pair.append(index[t])
            edges.append(tuple(pair))
    if len(index) < 2:
        raise ValueError(f"{path}: fewer than 2 nodes after cleaning")
    ids = [None] * len(index)
    for tok, i in index.items():
        ids[i] = tok
    g = build_graph(len(index), edges, ids)
    if largest_component:
        g = largest_component_subgraph(g)
        if g.num_nodes < 2:
            raise ValueError(f"{path}: fewer than 2 nodes after cleaning")
    return g


def load_labels(path, g: Graph) -> np.ndarray:
    """Read 'node_token label_int' lines into an array aligned with g.

    Tokens that did not survive graph loading (e.g. dropped with a smaller
    component) are ignored. Every node of g must receive a label.
    """
    if g.node_ids is None:
        lookup = {str(i): i for i in range(g.num_nodes)}
    else:
        lookup = {tok: i for i, tok in enumerate(g.node_ids)}
    labels = np.full(g.num_nodes, np.iinfo(np.int64).min, dtype=np.int64)
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            toks = line.split()
            if len(toks) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'node label', got {len(toks)} tokens")
            if toks[0] in lookup:
                labels[lookup[toks[0]]] = int(toks[1])
    missing = int((labels == np.iinfo(np.int64).min).sum())
    if missing:
        raise ValueError(f"{path}: {missing} graph nodes have no label")
    return labels


@dataclass(frozen=True)
class Community:
    """One ground-truth community: its node set and its internal edge set."""
    nodes: frozenset
    edges: frozenset


@dataclass
class GroundTruth:
    """Ground-truth communities, optionally with per-node labels attached."""
    communities: list[Community]
    labels: np.ndarray | None = None
    _edge_lookup: dict = field(default=None, repr=False, compare=False)
    _node_lookup: dict = field(default=None, repr=False, compare=False)

    def community_of_edge(self, u, v):
        """Index of the community whose edge set contains (u, v), else None."""
        if self._edge_lookup is None:
            self._edge_lookup = {}
            for i, c in enumerate(self.communities):
                for e in c.edges:
                    self._edge_lookup.setdefault(e, i)
        return self._edge_lookup.get(canonical_edge(u, v))

    def community_of_node(self, v):
        if self._node_lookup is None:
            self._node_lookup = {}
            for i, c in enumerate(self.communities):
                for n in c.nodes:
                    self._node_lookup.setdefault(n, i)
        return self._node_lookup.get(int(v))


def communities_from_labels(g: Graph, labels: np.ndarray,
                            exclude: set | None = None) -> GroundTruth:
    """Group intra-label edges into communities.

    For each label value, the community edge set is every edge whose two
    endpoints carry that label; node set is the endpoints of those edges.
    Labels listed in `exclude` (e.g. a -1 background marker) form no
    community. Communities with no internal edge are dropped.
    """
    labels = np.asarray(labels)
    if len(labels) != g.num_nodes:
        raise ValueError("labels length does not match num_nodes")
    exclude = exclude or set()
    by_label: dict[int, list] = {}
    for u, v in g.edges.tolist():
        if labels[u] == labels[v] and labels[u] not in exclude:
            by_label.setdefault(int(labels[u]), []).append((u, v))
    comms = []
    for lab in sorted(by_label):
        es = by_label[lab]
        nodes = frozenset(n for e in es for n in e)
        comms.append(Community(nodes=nodes, edges=frozenset(es)))
    return GroundTruth(communities=comms, labels=labels)


def community_indicators(g: Graph, gts: GroundTruth) -> tuple[np.ndarray, np.ndarray]:
    """Community membership as an (E, C) edge and a (V, C) node indicator.

    Edge rows follow g.edges, node rows the node index; column c is
    community c. Every community edge must be an edge of g.
    """
    c = len(gts.communities)
    edges = np.zeros((g.num_edges, c), dtype=bool)
    nodes = np.zeros((g.num_nodes, c), dtype=bool)
    for i, comm in enumerate(gts.communities):
        edges[g.edge_rows(list(comm.edges)), i] = True
        nodes[list(comm.nodes), i] = True
    return edges, nodes


def ground_truth_to_json(g: Graph, gt: GroundTruth) -> dict:
    """Serialize communities as edge-index lists (indices into g.edges)."""
    payload = {"communities": []}
    for c in gt.communities:
        payload["communities"].append({
            "nodes": sorted(c.nodes),
            "edge_indices": sorted(g.edge_rows(list(c.edges)).tolist()),
        })
    if gt.labels is not None:
        payload["labels"] = [int(x) for x in gt.labels]
    return payload


def ground_truth_from_json(g: Graph, payload: dict) -> GroundTruth:
    comms = []
    for c in payload["communities"]:
        edges = frozenset(tuple(g.edges[i].tolist()) for i in c["edge_indices"])
        comms.append(Community(nodes=frozenset(int(n) for n in c["nodes"]), edges=edges))
    labels = None
    if "labels" in payload:
        labels = np.array(payload["labels"], dtype=np.int64)
        if len(labels) != g.num_nodes:
            raise ValueError("ground-truth labels length does not match graph")
    return GroundTruth(communities=comms, labels=labels)


def load_ground_truth(path, g: Graph) -> GroundTruth:
    with open(path) as fh:
        return ground_truth_from_json(g, json.load(fh))


@dataclass
class EdgeSplit:
    """Train/test edge split with matched non-edge negatives."""
    train_edges: np.ndarray      # (T, 2)
    test_edges: np.ndarray       # (S, 2)
    test_negatives: np.ndarray   # (S, 2), non-edges of the full graph


def split_edges(g: Graph, test_fraction: float, seed: int) -> EdgeSplit:
    """Uniform edge holdout plus an equal number of sampled non-edges.

    Exactly round(test_fraction * |E|) edges go to the test side. Negatives
    are distinct node pairs rejection-sampled against the full edge set.
    Deterministic for a given seed.
    """
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must lie strictly between 0 and 1")
    m = g.num_edges
    n_test = int(math.floor(test_fraction * m + 0.5))
    if n_test < 1:
        raise ValueError(f"graph too small: round({test_fraction} * {m}) < 1 test edge")
    rng = np.random.default_rng(seed)
    order = rng.permutation(m)
    test_idx = np.sort(order[:n_test])
    train_mask = np.ones(m, dtype=bool)
    train_mask[test_idx] = False
    negatives = sample_non_edges(g, n_test, rng)
    return EdgeSplit(train_edges=g.edges[train_mask],
                     test_edges=g.edges[test_idx],
                     test_negatives=negatives)


def sample_non_edges(g: Graph, count: int, rng) -> np.ndarray:
    """`count` distinct node pairs (u < v) that are not edges of g.

    Pairs are rejection-sampled from uniform node draws. If that stalls, as
    on a dense graph, the rest are drawn without replacement from the
    remaining non-edges, enumerated in lexicographic order.
    """
    n = g.num_nodes
    available = n * (n - 1) // 2 - g.num_edges
    if available < count:
        raise ValueError(f"asked for {count} non-edges, the graph has only {available}")
    chosen: list = []
    taken = set()
    attempts = 0
    limit = 200 * max(count, 1) + 10000
    while len(chosen) < count:
        attempts += 1
        if attempts > limit:
            rest = _remaining_non_edges(g, np.array(list(taken), dtype=np.int64))
            pick = rng.choice(len(rest), size=count - len(chosen), replace=False)
            chosen.extend(map(tuple, rest[np.sort(pick)].tolist()))
            break
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u == v:
            continue
        e = canonical_edge(u, v)
        if e in g.edge_set or e in taken:
            continue
        taken.add(e)
        chosen.append(e)
    return np.array(chosen, dtype=np.int64).reshape(-1, 2)


def _remaining_non_edges(g: Graph, taken: np.ndarray) -> np.ndarray:
    """Every pair u < v that is neither an edge nor in `taken`, lexicographic."""
    n = g.num_nodes
    pairs = np.stack(np.triu_indices(n, k=1), axis=1)
    blocked = np.concatenate([_pair_codes(g.edges, n),
                              _pair_codes(taken.reshape(-1, 2), n)])
    return pairs[~np.isin(_pair_codes(pairs, n), blocked)]


def train_subgraph(g: Graph, split: EdgeSplit) -> Graph:
    """Graph over the same node set containing only the training edges."""
    return build_graph(g.num_nodes, split.train_edges, g.node_ids)


def bfs_distances(g: Graph, sources) -> np.ndarray:
    """Hop distances from each source node: (len(sources), V), inf where unreachable."""
    # the matrix is symmetric, so the directed search needs no symmetrizing
    return csgraph.shortest_path(g.matrix(), unweighted=True,
                                 indices=np.asarray(sources, dtype=np.int64))
