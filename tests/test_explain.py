"""Edge attributions: centering, mask supports, reconstruction identity,
affiliation closed form, JSON export."""

import json

import numpy as np
import pytest

from disene.explain import (AttributionContext, affiliation_matrix,
                            attribution, build_explanations,
                            explanation_to_json, node_support,
                            reconstruction_logit, save_explanation)
from disene.graph_core import build_graph, canonical_edge


def _random_case(seed, n=9, k=3):
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < 14:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add(canonical_edge(int(u), int(v)))
    g = build_graph(n, sorted(edges))
    h = np.abs(rng.normal(size=(n, k))).astype(np.float32)
    return g, h


class TestAttribution:
    def test_centering_zeroes_the_background_mean(self):
        for seed in range(5):
            g, h = _random_case(seed)
            expl = build_explanations(h, g)
            for d in range(h.shape[1]):
                phis = [attribution(h, expl.context, d, u, v)
                        for u, v in g.edges.tolist()]
                assert np.mean(phis) == pytest.approx(0.0, abs=1e-9)

    def test_defined_for_non_edges_too(self):
        g, h = _random_case(0)
        ctx = AttributionContext.build(h, g.edges)
        present = {tuple(e) for e in g.edges.tolist()}
        non_edge = next((u, v) for u in range(g.num_nodes)
                        for v in range(u + 1, g.num_nodes)
                        if (u, v) not in present)
        val = attribution(h, ctx, 0, *non_edge)
        want = float(h[non_edge[0], 0]) * float(h[non_edge[1], 0]) - ctx.mu[0]
        assert val == pytest.approx(want, abs=1e-12)

    def test_empty_background_rejected(self):
        _, h = _random_case(1)
        with pytest.raises(ValueError):
            AttributionContext.build(h, np.empty((0, 2), dtype=np.int64))

    def test_custom_background_shifts_mu(self):
        g, h = _random_case(2)
        sub = g.edges[:5]
        ctx = AttributionContext.build(h, sub)
        prods = h[sub[:, 0]].astype(np.float64) * h[sub[:, 1]].astype(np.float64)
        np.testing.assert_allclose(ctx.mu, prods.mean(axis=0), atol=1e-12)


class TestMasks:
    def test_weights_strictly_positive_and_on_graph_edges(self):
        g, h = _random_case(3)
        expl = build_explanations(h, g)
        assert expl.weights.shape == (g.num_edges, h.shape[1])
        assert (expl.weights >= 0.0).all()
        for i, d in zip(*np.nonzero(expl.weights)):
            u, v = g.edges[i]
            assert expl.weights[i, d] == pytest.approx(
                attribution(h, expl.context, d, u, v), abs=1e-12)

    def test_mask_keeps_exactly_the_positive_attributions(self):
        g, h = _random_case(4)
        expl = build_explanations(h, g)
        for d in range(expl.num_dims):
            for i, (u, v) in enumerate(g.edges.tolist()):
                phi = attribution(h, expl.context, d, u, v)
                assert (phi > 0) == (expl.weights[i, d] > 0)

    def test_node_sets_are_mask_endpoints(self):
        g, h = _random_case(5)
        expl = build_explanations(h, g)
        nodes = node_support(expl, g)
        for d in range(expl.num_dims):
            rows = np.flatnonzero(expl.weights[:, d])
            assert expl.edge_sets[d].tolist() == rows.tolist()
            assert set(np.flatnonzero(nodes[:, d])) == set(g.edges[rows].ravel())

    def test_zero_column_yields_empty_dim(self):
        g, h = _random_case(6)
        h[:, 1] = 0.0
        expl = build_explanations(h, g)
        assert 1 in expl.empty_dims
        assert not expl.weights[:, 1].any()


class TestReconstruction:
    def test_logit_identity_for_every_pair(self):
        g, h = _random_case(7)
        ctx = AttributionContext.build(h, g.edges)
        for u in range(g.num_nodes):
            for v in range(g.num_nodes):
                want = float(h[u].astype(np.float64) @ h[v].astype(np.float64))
                got = reconstruction_logit(h, ctx, u, v)
                assert got == pytest.approx(want, abs=1e-9)


class TestAffiliation:
    def test_closed_form_matches_explicit_sum(self):
        for seed in range(4):
            g, h = _random_case(seed, n=8, k=4)
            expl = build_explanations(h, g)
            f = affiliation_matrix(h, expl, g)
            nodes = node_support(expl, g)
            for d in range(4):
                for u in range(8):
                    want = sum(attribution(h, expl.context, d, u, v)
                               for v in np.flatnonzero(nodes[:, d]))
                    assert f[u, d] == pytest.approx(want, abs=1e-9)

    def test_empty_dimension_gets_zero_column(self):
        g, h = _random_case(8)
        h[:, 0] = 0.0
        expl = build_explanations(h, g)
        f = affiliation_matrix(h, expl, g)
        np.testing.assert_array_equal(f[:, 0], 0.0)


class TestJsonExport:
    def test_payload_mirrors_the_explanation(self, tmp_path):
        g, h = _random_case(9)
        expl = build_explanations(h, g)
        p = tmp_path / "expl.json"
        save_explanation(p, expl, g)
        data = json.loads(p.read_text())
        assert data["num_dims"] == expl.num_dims
        assert data["background_size"] == len(g.edges)
        np.testing.assert_allclose(data["mu"], expl.context.mu, atol=1e-12)
        for d, entry in enumerate(data["dims"]):
            assert entry["dim"] == d
            assert entry["empty"] == (d in expl.empty_dims)
            got = {(u, v): w for (u, v), w in
                   zip(map(tuple, entry["edges"]), entry["weights"])}
            rows = expl.edge_sets[d]
            want = {tuple(g.edges[i].tolist()): expl.weights[i, d] for i in rows}
            assert got == pytest.approx(want)
            assert list(got) == sorted(want)
            assert entry["nodes"] == np.flatnonzero(node_support(expl, g)[:, d]).tolist()

    def test_load_round_trips_the_payload(self, tmp_path):
        g, h = _random_case(11)
        expl = build_explanations(h, g)
        p = tmp_path / "expl.json"
        save_explanation(p, expl, g)
        assert json.loads(p.read_text()) == explanation_to_json(expl, g)

    def test_export_is_deterministic(self, tmp_path):
        g, h = _random_case(10)
        expl = build_explanations(h, g)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_explanation(a, expl, g)
        save_explanation(b, expl, g)
        assert a.read_bytes() == b.read_bytes()
