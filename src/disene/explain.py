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


@dataclass
class AttributionContext:
    """Background means mu_d and the edges they were computed over."""
    mu: np.ndarray            # (K,)
    background: np.ndarray    # (B, 2)

    @classmethod
    def build(cls, h: np.ndarray, background: np.ndarray):
        background = np.asarray(background, dtype=np.int64)
        if len(background) == 0:
            raise ValueError("background edge set must be non-empty")
        prods = h[background[:, 0]].astype(np.float64) * h[background[:, 1]].astype(np.float64)
        return cls(mu=prods.mean(axis=0), background=background)


def attribution(h: np.ndarray, ctx: AttributionContext, d: int, u: int, v: int) -> float:
    """phi_d(u, v), defined for any node pair, edge or not."""
    return float(h[u, d]) * float(h[v, d]) - float(ctx.mu[d])


@dataclass
class Explanation:
    """Phi+ = max(0, phi) over the graph's edges, every dimension.

    weights[i, d] is dimension d's mask weight on edge g.edges[i]; it is
    non-zero exactly where phi_d is positive, so column d's support is the
    explanation subgraph E_d.
    """
    weights: np.ndarray       # (E, K) float64
    context: AttributionContext

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

    `background` defaults to all edges of g; pass a training edge set to
    center against what the model saw during optimization.
    """
    bg = g.edges if background is None else np.asarray(background, dtype=np.int64)
    ctx = AttributionContext.build(h, bg)
    eu, ev = g.edges[:, 0], g.edges[:, 1]
    phi = h[eu].astype(np.float64) * h[ev].astype(np.float64) - ctx.mu[None, :]
    return Explanation(weights=np.maximum(phi, 0.0, out=phi), context=ctx)


def node_support(expl: Explanation, g: Graph) -> np.ndarray:
    """(V, K) bool: node v is an endpoint of an edge in E_d, i.e. v in V_d."""
    out = np.zeros((g.num_nodes, expl.num_dims), dtype=bool)
    support = expl.support
    np.logical_or.at(out, g.edges[:, 0], support)
    np.logical_or.at(out, g.edges[:, 1], support)
    return out


def affiliation_matrix(h: np.ndarray, expl: Explanation, g: Graph) -> np.ndarray:
    """Node-dimension affiliations F_ud = sum_{v in V_d} phi_d(u, v).

    Closed form: the sum over the explanation's node set expands to
    H_ud * (sum_{v in V_d} H_vd) - |V_d| mu_d, which is zero for a
    dimension with an empty node set.
    """
    h = h.astype(np.float64)
    nodes = node_support(expl, g)
    return h * (h * nodes).sum(axis=0) - nodes.sum(axis=0) * expl.context.mu


def reconstruction_logit(h: np.ndarray, ctx: AttributionContext, u: int, v: int) -> float:
    """sum_d phi_d(u, v) + sum_d mu_d; equals the raw edge logit exactly."""
    k = h.shape[1]
    return float(sum(attribution(h, ctx, d, u, v) for d in range(k)) + ctx.mu.sum())


def explanation_to_json(expl: Explanation, g: Graph) -> dict:
    nodes = node_support(expl, g)
    dims = []
    for d, rows in enumerate(expl.edge_sets):
        dims.append({
            "dim": d,
            "edges": g.edges[rows].tolist(),
            "weights": expl.weights[rows, d].tolist(),
            "nodes": np.flatnonzero(nodes[:, d]).tolist(),
            "empty": len(rows) == 0,
        })
    return {
        "num_dims": expl.num_dims,
        "background_size": int(len(expl.context.background)),
        "mu": [float(x) for x in expl.context.mu],
        "dims": dims,
    }


def save_explanation(path, expl: Explanation, g: Graph):
    # json.dumps without indent runs the C encoder; json.dump never does
    text = json.dumps(explanation_to_json(expl, g), sort_keys=True,
                      separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(text + "\n")
