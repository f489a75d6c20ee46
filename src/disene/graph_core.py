"""Graph container, ground truth, file I/O, edge splits, twin classes and BFS.

Everything downstream (sampling, training, explanation, metrics) works on the
`Graph` type defined here: simple undirected graphs over a dense node index
range 0..num_nodes-1, no self loops, no duplicate edges, no weights. An
unordered node pair {u, v} has the code min(u, v) * V + max(u, v), which only
`_fold` computes (for every caller, in either orientation), and a `Graph` is
built from its edges' ascending codes. Ground truth is a (C, V) membership
CSR of one graph; a community's edges are the graph's edges with both
endpoints in it. A ground-truth file stores only each community's node
names, as the edge list names them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph


class Graph:
    """Immutable undirected graph.

    Built from `codes`, the distinct ascending int64 pair codes of its
    edges (`build_graph` makes them). Edges are the codes decoded, a
    lexicographically sorted (E, 2) int64 array with u < v per row; arrays
    indexed by edge (explanation masks, community indicators) follow its
    row order, and an edge is found by binary search in `codes`. The
    adjacency is stored once, in CSR form: the sorted neighbors of v are
    indices[indptr[v]:indptr[v + 1]]. `node_ids` optionally keeps the
    original string tokens of a loaded edge list (index-aligned).

    Instances are meant to be treated as immutable; mutate nothing after
    construction.
    """

    def __init__(self, num_nodes: int, codes: np.ndarray, node_ids: list[str] | None):
        self.num_nodes = num_nodes
        self.codes = codes
        self.edges = np.stack([codes // num_nodes, codes % num_nodes], axis=1)
        self.node_ids = node_ids
        # both directions of every edge, ordered by (row, column)
        src = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
        dst = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
        self.indices = dst[np.argsort(src * num_nodes + dst)]
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(src, minlength=num_nodes))]).astype(np.int64)
        self.degrees = np.diff(self.indptr)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_set(self) -> frozenset:
        """The edges as (u, v) tuples with u < v, built on first use."""
        return frozenset(map(tuple, self.edges.tolist()))

    @cached_property
    def incidence(self) -> sp.csr_matrix:
        """(V, E) bool membership: node v is an endpoint of edge row e."""
        e = np.arange(self.num_edges)
        return membership(self.edges.T.ravel(), np.tile(e, 2),
                          (self.num_nodes, self.num_edges))

    def matrix(self, dtype=np.float64) -> sp.csr_matrix:
        """Symmetric 0/1 adjacency matrix over the CSR arrays."""
        data = np.ones(len(self.indices), dtype=dtype)
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=(self.num_nodes, self.num_nodes))

    def edge_rows(self, pairs) -> np.ndarray:
        """Row in self.edges of each (u, v) pair, in either orientation.

        Raises on a non-edge.
        """
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        rows, found = self._find(pairs)
        if not found.all():
            u, v = pairs[np.argmin(found)]
            raise ValueError(f"({u}, {v}) is not an edge of the graph")
        return rows

    def _find(self, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Candidate row of each (u, v) pair and whether it holds that pair."""
        rows, found = _find_codes(self.codes, _fold(*pairs.T, self.num_nodes))
        # a pair with a node outside the graph can share an edge's code
        found &= ((pairs >= 0) & (pairs < self.num_nodes)).all(axis=1)
        return rows, found

    def __repr__(self):
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


def _fold(u: np.ndarray, v: np.ndarray, num_nodes: int) -> np.ndarray:
    """The code min * V + max of each unordered pair {u, v}, in u's dtype."""
    return np.minimum(u, v) * num_nodes + np.maximum(u, v)


def membership(rows, cols, shape) -> sp.csr_matrix:
    """(R, N) bool CSR holding each (rows[i], cols[i]) pair: every row's
    columns ascending and distinct, repeated pairs held once."""
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    m = sp.csr_matrix((np.ones(len(rows), dtype=bool), (rows, cols)), shape=shape)
    m.sum_duplicates()
    return m


def first_community(members: sp.csr_matrix, rows) -> np.ndarray:
    """The smallest community holding each of the columns `rows` of the
    (C, N) membership `members`, or -1 for a column in none."""
    by_col = members.tocsc()        # each column's communities, ascending
    rows = np.asarray(rows, dtype=np.int64)
    start, end = by_col.indptr[rows], by_col.indptr[rows + 1]
    # a column in no community reads the -1 put past the last entry
    return np.append(by_col.indices, -1)[np.where(end > start, start, by_col.nnz)]


def _find_codes(codes: np.ndarray, want: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Insertion point of each `want` code in the sorted `codes`, and
    whether the code is there."""
    rows = np.searchsorted(codes, want)
    found = rows < len(codes)
    found[found] = codes[rows[found]] == want[found]
    return rows, found


def _distinct(codes: np.ndarray):
    """Distinct values of integer codes, ascending, with counts.

    A sort, since np.unique of int64 takes a far slower hash path on
    numpy 2.4. Each run starts where a value differs from the one before;
    the flags are bool, since np.flatnonzero of integer differences is
    several times slower.
    """
    codes = np.sort(codes)
    starts = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=starts[1:])
    first = np.flatnonzero(starts)
    return codes[first], np.diff(first, append=len(codes))


def build_graph(num_nodes: int, edges, node_ids=None) -> Graph:
    """Construct a Graph from an edge iterable, cleaning as it goes.

    Endpoints must lie in [0, num_nodes); self loops are then dropped, and
    duplicates (in either orientation) collapse to one undirected edge.
    Isolated nodes are allowed: num_nodes is authoritative, not the edge list.
    """
    if num_nodes < 1:
        raise ValueError("graph needs at least one node")
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    bad = ((pairs < 0) | (pairs >= num_nodes)).any(axis=1)
    if bad.any():
        u, v = pairs[np.argmax(bad)]
        raise ValueError(f"edge ({u}, {v}) out of range for {num_nodes} nodes")
    u, v = pairs.T
    codes, _ = _distinct(_fold(u, v, num_nodes)[u != v])
    return Graph(num_nodes, codes, list(node_ids) if node_ids else None)


def largest_component_subgraph(g: Graph) -> Graph:
    """Restrict to the largest connected component, reindexing densely.

    Ties go to the component containing the smallest node index. Original
    node order (and node_ids alignment) is preserved under the new indexing.
    """
    _, labels = csgraph.connected_components(g.matrix(), directed=False)
    sizes = np.bincount(labels)
    # the first node of any largest component names the one kept
    best = labels[np.argmax(sizes[labels] == sizes.max())]
    keep = np.flatnonzero(labels == best)
    remap = np.full(g.num_nodes, -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    # an edge lies in one component, so one endpoint decides
    edges = remap[g.edges[remap[g.edges[:, 0]] >= 0]]
    ids = [g.node_ids[i] for i in keep.tolist()] if g.node_ids else None
    return build_graph(len(keep), edges, ids)


def load_edge_list(path, largest_component: bool = True) -> Graph:
    """Load a whitespace-separated edge list.

    Each non-comment line holds two node tokens; '#' starts a comment line and
    blank lines are skipped. Tokens are numbered densely in ascending order:
    by integer value when every token is an integer, so a graph written
    with integer nodes comes back under the same numbering, and as strings
    otherwise. By default the graph is then restricted to its largest
    connected component (synthetic generators bypass this entirely by
    constructing Graph objects directly).
    """
    pairs = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            toks = line.split()
            if len(toks) != 2:
                raise ValueError(f"{path}:{lineno}: expected two node tokens, got {len(toks)}")
            pairs.append(toks)
    tokens = {t for pair in pairs for t in pair}
    if len(tokens) < 2:
        raise ValueError(f"{path}: fewer than 2 nodes after cleaning")
    try:
        ids = sorted(tokens, key=lambda t: (int(t), t))
    except ValueError:
        ids = sorted(tokens)
    index = {t: i for i, t in enumerate(ids)}
    g = build_graph(len(ids), [(index[u], index[v]) for u, v in pairs], ids)
    if largest_component:
        g = largest_component_subgraph(g)
        if g.num_nodes < 2:
            raise ValueError(f"{path}: fewer than 2 nodes after cleaning")
    return g


@dataclass(eq=False)
class GroundTruth:
    """Ground-truth communities of one graph.

    `members` is the (C, V) bool membership CSR (see `membership`) over the
    graph's node index; row c holds community c's nodes.
    """
    graph: Graph
    members: sp.csr_matrix

    @property
    def num_communities(self) -> int:
        return self.members.shape[0]

    @cached_property
    def edge_members(self) -> sp.csr_matrix:
        """(C, E) bool membership over the rows of graph.edges: both
        endpoints in c, so the edge meets c's nodes twice."""
        return self.members.astype(np.int8) @ self.graph.incidence == 2

    def check_graph(self, g: Graph):
        """Raise unless g is the graph this ground truth was built over.

        An equal graph passes: the same node count and edge array.
        """
        own = self.graph
        if g is own or (g.num_nodes == own.num_nodes
                        and np.array_equal(g.edges, own.edges)):
            return
        raise ValueError(f"ground truth covers {own.num_edges} edges and "
                         f"{own.num_nodes} nodes of another graph; this one "
                         f"has {g.num_edges} and {g.num_nodes}")

    def community_of_edge(self, u, v):
        """First community holding edge (u, v), else None (also for a non-edge)."""
        rows, found = self.graph._find(np.array([[u, v]], dtype=np.int64))
        c = first_community(self.edge_members, rows)[0] if found[0] else -1
        return None if c < 0 else int(c)

    def community_of_node(self, v):
        """First community holding node v, else None."""
        inside = 0 <= v < self.graph.num_nodes
        c = first_community(self.members, [v])[0] if inside else -1
        return None if c < 0 else int(c)


def communities_from_labels(g: Graph, labels: np.ndarray,
                            exclude: set | None = None) -> GroundTruth:
    """Group intra-label edges into communities.

    For each label value, the community's nodes are the endpoints of the
    edges whose two endpoints carry that label, so its edges are exactly
    those intra-label edges.
    Labels listed in `exclude` (e.g. a -1 background marker) form no
    community. Communities with no internal edge are dropped; the rest are
    ordered by label.
    """
    labels = np.asarray(labels)
    if len(labels) != g.num_nodes:
        raise ValueError("labels length does not match num_nodes")
    ends = labels[g.edges]
    inside = ends[:, 0] == ends[:, 1]
    inside &= ~np.isin(ends[:, 0], list(exclude or ()))
    rows = np.flatnonzero(inside)
    kinds, col = np.unique(ends[rows, 0], return_inverse=True)
    return GroundTruth(g, membership(np.tile(col, 2), g.edges[rows].T.ravel(),
                                     (len(kinds), g.num_nodes)))


def ground_truth_to_json(gt: GroundTruth) -> dict:
    """Serialize each community as the names of its nodes, in index order.

    A node is named as the graph's edge list names it: by its `node_ids`
    token, or by its integer index when the graph has none.
    """
    ids, m = gt.graph.node_ids, gt.members
    nodes = (m.indices[m.indptr[c]:m.indptr[c + 1]].tolist()
             for c in range(gt.num_communities))
    return {"communities": [{"nodes": [ids[v] for v in vs] if ids else vs}
                            for vs in nodes]}


def ground_truth_from_json(g: Graph, payload: dict) -> GroundTruth:
    """Communities of g from their node names; inverse of ground_truth_to_json.

    Each name is looked up, as a string, among g's `node_ids` (or the node
    indices when g has none), so the file does not depend on how a loader
    numbers the nodes. A community's edges are the edges of g with both
    endpoints in it. Raises on a name g lacks, such as a node cut with a
    smaller component, and on any key but "communities" and "generator" at
    the top or "nodes" in a community, which also refuses files of the
    older format that carried edge indices and labels.
    """
    if not isinstance(payload, dict) or not isinstance(
            payload.get("communities"), list):
        raise ValueError("ground truth must be a JSON object holding a "
                         "'communities' list")
    extra = sorted(set(payload) - {"communities", "generator"})
    if extra:
        raise ValueError(f"ground truth has unknown keys {extra}; it holds "
                         f"only 'communities' (node lists) and 'generator'")
    names = g.node_ids or [str(v) for v in range(g.num_nodes)]
    index = {name: v for v, name in enumerate(names)}
    comms = payload["communities"]
    rows, cols = [], []
    for c, comm in enumerate(comms):
        if not (isinstance(comm, dict) and set(comm) == {"nodes"}
                and isinstance(comm["nodes"], list)):
            raise ValueError(f"ground-truth community {c} must be an object "
                             f"with one key, 'nodes', holding a list")
        for name in comm["nodes"]:
            if str(name) not in index:
                raise ValueError(f"ground truth names node {name!r}, "
                                 f"outside the graph")
            rows.append(c)
            cols.append(index[str(name)])
    return GroundTruth(g, membership(rows, cols, (len(comms), g.num_nodes)))


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

    Exactly round(test_fraction * |E|) edges go to the test side, which
    must leave at least one edge on each side (ValueError). Negatives
    are distinct node pairs rejection-sampled against the full edge set.
    Deterministic for a given seed.
    """
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must lie strictly between 0 and 1")
    m = g.num_edges
    n_test = int(math.floor(test_fraction * m + 0.5))
    if not 1 <= n_test < m:
        raise ValueError(f"graph too small: round({test_fraction} * {m}) = "
                         f"{n_test} test edges leaves one side empty")
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

    Pairs are rejection-sampled from uniform node draws u, v, in order of
    draw. If that stalls, as on a dense graph, the rest are drawn without
    replacement from the remaining non-edges, enumerated in lexicographic
    order. Draws come in batches, whose values are those of one scalar draw
    per endpoint, so the pairs are those of a draw-by-draw loop; but a batch
    may draw past the last pair needed, which leaves `rng` in another state,
    so callers draw nothing from it afterwards.
    """
    n = g.num_nodes
    available = n * (n - 1) // 2 - g.num_edges
    if available < count:
        raise ValueError(f"asked for {count} non-edges, the graph has only {available}")
    taken = np.empty(0, dtype=np.int64)      # codes accepted, in draw order
    attempts = 0
    limit = 200 * max(count, 1) + 10000
    while len(taken) < count and attempts < limit:
        size = min(limit - attempts, 2 * (count - len(taken)) + 64)
        attempts += size
        u, v = rng.integers(n, size=2 * size).reshape(-1, 2).T
        codes = _fold(u, v, n)[u != v]
        fresh = ~_find_codes(g.codes, codes)[1] & ~np.isin(codes, taken)
        # a pair drawn twice in one batch is taken at its first draw
        _, first = np.unique(codes, return_index=True)
        keep = np.zeros(len(codes), dtype=bool)
        keep[first] = True
        new = codes[keep & fresh][:count - len(taken)]
        taken = np.concatenate([taken, new])
    chosen = np.stack([taken // n, taken % n], axis=1)
    if len(taken) < count:
        rest = _remaining_non_edges(g, taken)
        pick = rng.choice(len(rest), size=count - len(taken), replace=False)
        chosen = np.concatenate([chosen, rest[np.sort(pick)]])
    return chosen


def _remaining_non_edges(g: Graph, taken: np.ndarray) -> np.ndarray:
    """Every pair u < v that is neither an edge nor a `taken` code, lexicographic."""
    n = g.num_nodes
    pairs = np.stack(np.triu_indices(n, k=1), axis=1)
    return pairs[~np.isin(_fold(*pairs.T, n), np.concatenate([g.codes, taken]))]


def train_subgraph(g: Graph, split: EdgeSplit) -> Graph:
    """Graph over the same node set containing only the training edges."""
    return build_graph(g.num_nodes, split.train_edges, g.node_ids)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64's output mix of each uint64 in x: a fixed, seedless key."""
    z = x + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def twin_quotient(g: Graph) -> tuple[np.ndarray, Graph]:
    """Twin classes of g and the graph with one node per class: (cls, q).

    Twins are nodes with the same closed neighbourhood N[v] = N(v) | {v},
    such as the members of a clique without an outside edge. cls[v] is the
    class of node v; classes are numbered in the order of their smallest
    node. Two classes are adjacent in q when their members are adjacent in
    g. Twins have the same distance to every other node, so the distance
    between nodes of two classes is the distance between the classes in q;
    two twins lie 1 hop apart. A graph without twins is its own quotient,
    with cls the identity.

    Each N[v] is hashed as the wrapping sum of its nodes' `_mix64` keys;
    nodes of equal hash and degree share a class only if their sorted
    closed rows are equal, so a hash collision costs time, never a class.
    """
    n = g.num_nodes
    # sorted closed rows: the CSR rows with each node put into its own row
    rows = np.repeat(np.arange(n), g.degrees)
    closed = np.sort(np.concatenate([rows * n + g.indices,
                                     np.arange(n) * (n + 1)])) % n
    ptr = g.indptr + np.arange(n + 1)
    keys = _mix64(np.arange(n, dtype=np.uint64))
    hashes = np.add.reduceat(keys[closed], ptr[:-1])
    # the smallest twin of each node; pending nodes are in runs of equal
    # (hash, degree) in node order, and each round settles the first node
    # of every run and the rest of its run that matches it
    rep = np.arange(n)
    pending = np.lexsort((g.degrees, hashes))
    while len(pending):
        h, d = hashes[pending], g.degrees[pending]
        starts = np.ones(len(pending), dtype=bool)
        starts[1:] = (h[1:] != h[:-1]) | (d[1:] != d[:-1])
        first = pending[np.flatnonzero(starts)[np.cumsum(starts) - 1]]
        same = _rows_equal(closed, ptr, pending, first)
        rep[pending[same]] = first[same]
        pending = pending[~same]
    root = rep == np.arange(n)
    cls = (np.cumsum(root) - 1)[rep]
    return cls, build_graph(int(root.sum()), cls[g.edges])


def _rows_equal(closed: np.ndarray, ptr: np.ndarray, a: np.ndarray,
                b: np.ndarray) -> np.ndarray:
    """Whether closed row a[i] equals closed row b[i], for rows of equal length."""
    length = ptr[a + 1] - ptr[a]
    start = np.cumsum(length) - length
    offset = np.arange(length.sum()) - np.repeat(start, length)
    equal = (closed[np.repeat(ptr[a], length) + offset]
             == closed[np.repeat(ptr[b], length) + offset])
    return np.logical_and.reduceat(equal, start)


# Levels the word-packed BFS runs before the sources still open go to
# csgraph. A level costs about (V + nnz) * ceil(B / 64) word operations. One
# csgraph search per source costs as much as ~35 levels on a ring of cliques
# without chords, where csgraph is cheapest against a level, and 60-130 on
# ba, er and chorded rings (640-25600 nodes, 2-core Xeon, 1 BLAS thread). So
# a deeper search costs at most about twice csgraph's, and a ring of 512
# cliques with random chords (eccentricities up to 39) finishes in words. At
# most 255, the largest hop the uint8 hop array holds.
MAX_LEVELS = 40


def bfs_distances(g: Graph, sources) -> np.ndarray:
    """Hop distances from each source node: (len(sources), V), inf where unreachable.

    A multi-source BFS with one bit per source (MS-BFS, Then et al., PVLDB
    8(4), 2014): bit j % 64 of word j // 64 in row v of a (V, ceil(B / 64))
    uint64 array `seen` says that source j has reached v. One level gathers
    the frontier words of every node's neighbours, ORs them per node and
    masks out the bits already seen; the new bits are written, as the level,
    into a (V, B) uint8 hop array. Sources whose frontier is still open after
    MAX_LEVELS levels are searched per source by csgraph instead.

    The result is the transpose of a (V, B) array, so it is F-ordered.
    """
    sources = np.asarray(sources, dtype=np.int64)
    b, n = len(sources), g.num_nodes
    col = np.arange(b)
    seen = np.zeros((n, -(-b // 64)), dtype=np.uint64)
    # unbuffered, since repeated sources set bits in one row
    np.bitwise_or.at(seen, (sources, col // 64),
                     np.left_shift(np.uint64(1), (col % 64).astype(np.uint64)))
    hops = np.zeros((n, b), dtype=np.uint8)
    has = np.flatnonzero(g.degrees)
    frontier, open_ = seen, np.zeros(b, dtype=bool)
    for level in range(1, MAX_LEVELS + 1):
        new = np.zeros_like(seen)
        new[has] = np.bitwise_or.reduceat(np.take(frontier, g.indices, axis=0),
                                          g.indptr[has], axis=0)
        new &= ~seen
        rows = np.flatnonzero(new.any(axis=1))
        if not len(rows):
            break
        seen |= new
        hops[rows] += np.uint8(level) * _source_bits(new[rows], b)
        frontier = new
    else:
        open_ = _source_bits(np.bitwise_or.reduce(frontier), b).astype(bool)
    dist = np.where(_source_bits(seen, b), hops, np.inf).T
    if open_.any():
        dist[open_] = csgraph.shortest_path(g.matrix(), unweighted=True,
                                            indices=sources[open_])
    return dist


def _source_bits(words: np.ndarray, b: int) -> np.ndarray:
    """The first b bits of each row of uint64 words, as 0/1 uint8, bit j % 64
    of word j // 64 at column j."""
    # a little-endian view puts bit j at byte j // 8, bit j % 8
    return np.unpackbits(words.astype("<u8", copy=False).view(np.uint8),
                         axis=-1, count=b, bitorder="little")
