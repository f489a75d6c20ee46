"""Per-dimension explanation subgraphs from edge attributions.

For an edge (u, v) the model's logit decomposes exactly as
sum_d h_d(u) h_d(v). Centered against the mean contribution of dimension d
over a background edge set,

    phi_d(u, v) = h_d(u) h_d(v) - mu_d,

the positive part of phi_d over the graph's edges is dimension d's
explanation mask; its strictly positive support is the explanation
subgraph E_d with node set V_d. All K masks form one (E, K) array
Phi+ whose rows follow g.edges.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graph_core import Graph


def edge_features(h: np.ndarray, pairs) -> np.ndarray:
    """Hadamard features h(u) * h(v) for each (u, v) pair row: (P, K)
    float64, the products h_d(u) h_d(v) that phi_d centers.

    numpy casts h's rows to float64 inside the product, which is exact, so
    the result equals the product of the two casts without allocating them.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return np.multiply(h[pairs[:, 0]], h[pairs[:, 1]], dtype=np.float64)


@dataclass(eq=False)
class Explanation:
    """Phi+ = max(0, phi) over a graph's edges, every dimension.

    weights[i, d] is dimension d's mask weight on edge graph.edges[i]; it is
    non-zero exactly where phi_d is positive, so column d's support is the
    explanation subgraph E_d. mu holds the background means mu_d and
    background_size the number of edges they were taken over.
    """
    graph: Graph
    weights: np.ndarray       # (E, K) float64
    mu: np.ndarray            # (K,)
    background_size: int

    @property
    def num_dims(self):
        return self.weights.shape[1]

    @property
    def support(self) -> np.ndarray:
        """(E, K) bool: edge i lies in E_d."""
        return self.weights > 0.0

    @property
    def edge_sets(self) -> list[np.ndarray]:
        """Per dimension, the rows of g.edges that form E_d."""
        return [np.flatnonzero(col) for col in self.support.T]

    @property
    def empty_dims(self) -> list[int]:
        return np.flatnonzero(~self.support.any(axis=0)).tolist()


def build_explanations(h: np.ndarray, g: Graph,
                       background: np.ndarray | None = None) -> Explanation:
    """Masks M^(d) = max(0, phi_d) over the graph's edges, every dimension.

    `background` defaults to all edges of g, whose products are then the
    ones phi is taken from; pass a training edge set to center against what
    the model saw during optimization.
    """
    phi = edge_features(h, g.edges)
    prods = phi if background is None else edge_features(h, background)
    if len(prods) == 0:
        raise ValueError("background edge set must be non-empty")
    mu = prods.mean(axis=0)
    phi -= mu[None, :]
    return Explanation(graph=g, weights=np.maximum(phi, 0.0, out=phi), mu=mu,
                       background_size=len(prods))


def node_support(expl: Explanation) -> np.ndarray:
    """(V, K) bool: node v is an endpoint of an edge in E_d, i.e. v in V_d.

    The graph's (V, E) incidence times the (E, K) support counts each node's
    edges in each E_d; float32 counts are exact up to 2**24.
    """
    return (expl.graph.incidence @ expl.support.astype(np.float32)) > 0


def _compact(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def save_explanation(path, expl: Explanation):
    """Write the explanation as one line of JSON.

    The bytes are those of json.dumps(payload, sort_keys=True,
    separators=(",", ":")) plus a newline, for the payload
    {"background_size", "dims", "mu", "num_dims"}, where dims[d] is
    {"dim": d, "edges": [[u, v], ...], "empty", "nodes": [...],
    "weights": [...]} over E_d's rows of graph.edges, in row order, and V_d's
    nodes, ascending. The text is joined from per-graph tables of each
    edge's "[u,v]" and each node's digits; only the weights are formatted
    per dimension, by json itself.
    """
    g = expl.graph
    node_text = np.array([str(v) for v in range(g.num_nodes)], dtype=object)
    edge_text = (("[" + node_text + ",")[g.edges[:, 0]]
                 + (node_text + "]")[g.edges[:, 1]])
    nodes = node_support(expl)
    dims = []
    for d, rows in enumerate(expl.edge_sets):
        dims.append(
            f'{{"dim":{d},"edges":[{",".join(edge_text[rows].tolist())}],'
            f'"empty":{_compact(len(rows) == 0)},'
            f'"nodes":[{",".join(node_text[nodes[:, d]].tolist())}],'
            f'"weights":{_compact(expl.weights[rows, d].tolist())}}}')
    mu = _compact([float(x) for x in expl.mu])
    with open(path, "w") as fh:
        fh.write(f'{{"background_size":{expl.background_size},'
                 f'"dims":[{",".join(dims)}],"mu":{mu},'
                 f'"num_dims":{expl.num_dims}}}\n')
