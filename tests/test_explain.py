"""Edge attributions: centering, mask supports, reconstruction identity,
JSON export."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from disene.explain import build_explanations, node_support, save_explanation
from disene.graph_core import build_graph


# scalar oracles of Phi's exactness, one pair and one dimension at a time

def attribution(h, expl, d, u, v) -> float:
    """phi_d(u, v), defined for any node pair, edge or not."""
    return float(h[u, d]) * float(h[v, d]) - float(expl.mu[d])


def reconstruction_logit(h, expl, u, v) -> float:
    """sum_d phi_d(u, v) + sum_d mu_d; equals the raw edge logit exactly."""
    k = h.shape[1]
    return float(sum(attribution(h, expl, d, u, v) for d in range(k))
                 + expl.mu.sum())


def node_support_oracle(expl):
    g = expl.graph
    out = np.zeros((g.num_nodes, expl.num_dims), dtype=bool)
    np.logical_or.at(out, g.edges[:, 0], expl.support)
    np.logical_or.at(out, g.edges[:, 1], expl.support)
    return out


def explanation_payload(expl) -> dict:
    """The explanations.json payload, built as nested lists."""
    g = expl.graph
    nodes = node_support_oracle(expl)
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
        "background_size": expl.background_size,
        "mu": [float(x) for x in expl.mu],
        "dims": dims,
    }


def _random_case(seed, n=9, k=3):
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < 14:
        u, v = sorted(rng.integers(0, n, size=2).tolist())
        if u != v:
            edges.add((u, v))
    g = build_graph(n, sorted(edges))
    h = np.abs(rng.normal(size=(n, k))).astype(np.float32)
    return g, h


class TestAttribution:
    def test_centering_zeroes_the_background_mean(self):
        for seed in range(5):
            g, h = _random_case(seed)
            expl = build_explanations(h, g)
            for d in range(h.shape[1]):
                phis = [attribution(h, expl, d, u, v)
                        for u, v in g.edges.tolist()]
                assert np.mean(phis) == pytest.approx(0.0, abs=1e-9)

    def test_defined_for_non_edges_too(self):
        g, h = _random_case(0)
        expl = build_explanations(h, g, background=g.edges)
        present = {tuple(e) for e in g.edges.tolist()}
        non_edge = next((u, v) for u in range(g.num_nodes)
                        for v in range(u + 1, g.num_nodes)
                        if (u, v) not in present)
        val = attribution(h, expl, 0, *non_edge)
        want = float(h[non_edge[0], 0]) * float(h[non_edge[1], 0]) - expl.mu[0]
        assert val == pytest.approx(want, abs=1e-12)

    def test_empty_background_rejected(self):
        g, h = _random_case(1)
        with pytest.raises(ValueError):
            build_explanations(h, g,
                               background=np.empty((0, 2), dtype=np.int64))

    def test_custom_background_shifts_mu(self):
        g, h = _random_case(2)
        sub = g.edges[:5]
        expl = build_explanations(h, g, background=sub)
        prods = h[sub[:, 0]].astype(np.float64) * h[sub[:, 1]].astype(np.float64)
        np.testing.assert_allclose(expl.mu, prods.mean(axis=0), atol=1e-12)
        assert expl.background_size == 5


class TestMasks:
    def test_weights_strictly_positive_and_on_graph_edges(self):
        g, h = _random_case(3)
        expl = build_explanations(h, g)
        assert expl.weights.shape == (g.num_edges, h.shape[1])
        assert (expl.weights >= 0.0).all()
        for i, d in zip(*np.nonzero(expl.weights)):
            u, v = g.edges[i]
            assert expl.weights[i, d] == pytest.approx(
                attribution(h, expl, d, u, v), abs=1e-12)

    def test_mask_keeps_exactly_the_positive_attributions(self):
        g, h = _random_case(4)
        expl = build_explanations(h, g)
        for d in range(expl.num_dims):
            for i, (u, v) in enumerate(g.edges.tolist()):
                phi = attribution(h, expl, d, u, v)
                assert (phi > 0) == (expl.weights[i, d] > 0)

    def test_node_sets_are_mask_endpoints(self):
        g, h = _random_case(5)
        expl = build_explanations(h, g)
        nodes = node_support(expl)
        for d in range(expl.num_dims):
            rows = np.flatnonzero(expl.weights[:, d])
            assert expl.edge_sets[d].tolist() == rows.tolist()
            assert set(np.flatnonzero(nodes[:, d])) == set(g.edges[rows].ravel())

    @pytest.mark.parametrize("seed", range(4))
    def test_node_support_matches_the_scatter(self, seed):
        # isolated nodes, an empty dimension and a dimension over every edge
        g, h = _random_case(seed, k=4)
        g = build_graph(g.num_nodes + 2, g.edges)
        h = np.vstack([h, np.ones((2, 4), dtype=h.dtype)])
        h[:, 1] = 0.0
        expl = build_explanations(h, g)
        expl.weights[:, 3] = 1.0
        got = node_support(expl)
        assert got.dtype == bool
        np.testing.assert_array_equal(got, node_support_oracle(expl))
        assert not got[-2:].any() and not got[:, 1].any()

    def test_zero_column_yields_empty_dim(self):
        g, h = _random_case(6)
        h[:, 1] = 0.0
        expl = build_explanations(h, g)
        assert 1 in expl.empty_dims
        assert not expl.weights[:, 1].any()


class TestReconstruction:
    def test_logit_identity_for_every_pair(self):
        g, h = _random_case(7)
        expl = build_explanations(h, g, background=g.edges)
        for u in range(g.num_nodes):
            for v in range(g.num_nodes):
                want = float(h[u].astype(np.float64) @ h[v].astype(np.float64))
                got = reconstruction_logit(h, expl, u, v)
                assert got == pytest.approx(want, abs=1e-9)


    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(2, 10), k=st.integers(1, 8))
    def test_decomposition_on_arbitrary_pairs(self, data, n, k):
        # sum_d phi_d(u, v) + sum_d mu_d = h(u) . h(v) for any pair, edge
        # or not, any background and any embedding sign
        h = data.draw(arrays(np.float64, (n, k),
                             elements=st.floats(-1e3, 1e3)))
        node = st.integers(0, n - 1)
        background = np.array(data.draw(st.lists(st.tuples(node, node),
                                                 min_size=1, max_size=20)))
        expl = build_explanations(h, build_graph(n, [(0, 1)]),
                                  background=background)
        u, v = data.draw(node), data.draw(node)
        phi = np.array([attribution(h, expl, d, u, v) for d in range(k)])
        want = float(h[u] @ h[v])
        scale = np.abs(h[u] * h[v]).sum() + np.abs(expl.mu).sum()
        assert abs(phi.sum() + expl.mu.sum() - want) <= 1e-12 * (1.0 + scale)
        assert reconstruction_logit(h, expl, u, v) == pytest.approx(
            want, rel=1e-12, abs=1e-12 * (1.0 + scale))


class TestJsonExport:
    def test_payload_mirrors_the_explanation(self, tmp_path):
        g, h = _random_case(9)
        expl = build_explanations(h, g)
        p = tmp_path / "expl.json"
        save_explanation(p, expl)
        data = json.loads(p.read_text())
        assert data["num_dims"] == expl.num_dims
        assert data["background_size"] == len(g.edges)
        np.testing.assert_allclose(data["mu"], expl.mu, atol=1e-12)
        for d, entry in enumerate(data["dims"]):
            assert entry["dim"] == d
            assert entry["empty"] == (d in expl.empty_dims)
            got = {(u, v): w for (u, v), w in
                   zip(map(tuple, entry["edges"]), entry["weights"])}
            rows = expl.edge_sets[d]
            want = {tuple(g.edges[i].tolist()): expl.weights[i, d] for i in rows}
            assert got == pytest.approx(want)
            assert list(got) == sorted(want)
            assert entry["nodes"] == np.flatnonzero(node_support(expl)[:, d]).tolist()

    def test_load_round_trips_the_payload(self, tmp_path):
        g, h = _random_case(11)
        expl = build_explanations(h, g)
        p = tmp_path / "expl.json"
        save_explanation(p, expl)
        assert json.loads(p.read_text()) == explanation_payload(expl)

    @pytest.mark.parametrize("case", ["random", "empty_dims", "one_dim",
                                      "exponent", "isolated_nodes"])
    def test_bytes_are_the_json_encoding(self, tmp_path, case):
        g, h = _random_case(11, k=1 if case == "one_dim" else 4)
        if case == "empty_dims":
            h[:, [0, 2]] = 0.0
        if case == "exponent":     # weights such as 1.25e-05
            h *= np.float32(1e-3)
        if case == "isolated_nodes":
            g = build_graph(g.num_nodes + 3, g.edges)
            h = np.vstack([h, np.ones((3, h.shape[1]), dtype=h.dtype)])
        expl = build_explanations(h, g)
        text = json.dumps(explanation_payload(expl), sort_keys=True,
                          separators=(",", ":")) + "\n"
        if case == "empty_dims":
            assert expl.empty_dims == [0, 2]
        if case == "exponent":
            assert "e-0" in text
        p = tmp_path / "expl.json"
        save_explanation(p, expl)
        assert p.read_bytes() == text.encode()

    def test_export_is_deterministic(self, tmp_path):
        g, h = _random_case(10)
        expl = build_explanations(h, g)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_explanation(a, expl)
        save_explanation(b, expl)
        assert a.read_bytes() == b.read_bytes()
