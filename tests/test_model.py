"""Encoders, activations, adjacency normalization, checkpoint formats."""

import numpy as np
import pytest

from disene.graph_core import build_graph
from disene.model import (ACTIVATIONS, forward, init_params,
                          load_embedding_binary, normalized_adjacency,
                          save_embedding_binary, save_embedding_text,
                          softplus)


@pytest.fixture
def small_graph():
    return build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])


def encode(params, g):
    """forward with the adjacency the encoder takes: A_hat for gcn."""
    adj = (normalized_adjacency(g, dtype=params.W1.dtype)
           if params.kind == "gcn" else None)
    return forward(params, adj)


def rho(name):
    return ACTIVATIONS[name][0]


class TestActivations:
    def test_relu_and_softplus_nonnegative(self):
        x = np.linspace(-5, 5, 101)
        assert (rho("relu")(x) >= 0).all()
        assert (rho("softplus")(x) > 0).all()

    def test_identity_passthrough(self):
        x = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_array_equal(rho("identity")(x), x)

    def test_softplus_stable_for_large_inputs(self):
        big = np.array([800.0, -800.0])
        got = softplus(big)
        assert np.isfinite(got).all()
        assert got[0] == pytest.approx(800.0)
        assert got[1] == pytest.approx(0.0, abs=1e-300)

    @pytest.mark.parametrize("name", ACTIVATIONS)
    def test_grad_matches_finite_differences(self, name):
        rng = np.random.default_rng(0)
        x = rng.normal(size=200) * 3
        x = x[np.abs(x) > 1e-3]  # stay away from the relu kink
        eps = 1e-6
        fd = (rho(name)(x + eps) - rho(name)(x - eps)) / (2 * eps)
        np.testing.assert_allclose(ACTIVATIONS[name][1](x), fd, atol=1e-6)


class TestAdjacency:
    def test_matches_dense_formula(self, small_graph):
        g = small_graph
        a = np.zeros((g.num_nodes, g.num_nodes))
        for u, v in g.edges.tolist():
            a[u, v] = a[v, u] = 1.0
        a += np.eye(g.num_nodes)
        dinv = np.diag(1.0 / np.sqrt(a.sum(axis=1)))
        want = dinv @ a @ dinv
        got = normalized_adjacency(g, dtype=np.float64).toarray()
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_rows_of_regular_graph_sum_to_one(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        got = normalized_adjacency(g, dtype=np.float64).toarray()
        np.testing.assert_allclose(got.sum(axis=1), 1.0, atol=1e-12)


class TestForward:
    def test_shapes_and_nonnegativity(self, small_graph):
        for kind in ("fc", "gcn"):
            params = init_params(small_graph, kind, dim_hidden=7, dim=3, seed=0)
            z, pre, h = encode(params, small_graph)
            assert z.shape == (5, 7) and pre.shape == (5, 3) and h.shape == (5, 3)
            assert (h >= 0).all()

    def test_fc_is_lookup(self, small_graph):
        params = init_params(small_graph, "fc", dim_hidden=4, dim=2, seed=1)
        z, _, _ = encode(params, small_graph)
        np.testing.assert_array_equal(z, params.W1)

    def test_gcn_smooths_with_adjacency(self, small_graph):
        params = init_params(small_graph, "gcn", dim_hidden=4, dim=2, seed=1)
        z, _, _ = encode(params, small_graph)
        adj = normalized_adjacency(small_graph, dtype=params.W1.dtype)
        np.testing.assert_allclose(z, adj @ params.W1, rtol=1e-6)

    def test_identity_activation_passes_sign_through(self, small_graph):
        params = init_params(small_graph, "fc", dim_hidden=6, dim=4, seed=2,
                             activation="identity")
        _, pre, h = encode(params, small_graph)
        np.testing.assert_array_equal(pre, h)
        assert (h < 0).any()  # glorot init straddles zero

    def test_nonfinite_rejected(self, small_graph):
        params = init_params(small_graph, "fc", dim_hidden=3, dim=2, seed=0)
        params.W1[0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            encode(params, small_graph)

    def test_adjacency_goes_with_gcn_only(self, small_graph):
        gcn = init_params(small_graph, "gcn", dim_hidden=4, dim=2, seed=0)
        fc = init_params(small_graph, "fc", dim_hidden=4, dim=2, seed=0)
        adj = normalized_adjacency(small_graph)
        with pytest.raises(ValueError, match="gcn encoder needs"):
            forward(gcn)
        with pytest.raises(ValueError, match="fc encoder takes no"):
            forward(fc, adj)

    def test_init_deterministic(self, small_graph):
        a = init_params(small_graph, "gcn", 8, 4, seed=3)
        b = init_params(small_graph, "gcn", 8, 4, seed=3)
        np.testing.assert_array_equal(a.W1, b.W1)
        np.testing.assert_array_equal(a.W, b.W)


class TestCheckpointFormats:
    def test_text_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(6, 3)).astype(np.float32)
        p = tmp_path / "emb.txt"
        save_embedding_text(p, h)
        header = p.read_text().splitlines()[0]
        assert header.split() == ["6", "3"]
        back = np.loadtxt(p, skiprows=1, ndmin=2)
        np.testing.assert_allclose(back, h, rtol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_text_matches_per_value_format(self, tmp_path, dtype):
        h = np.array([[0.0, 1e-30, 1 / 3, 123456789.0],
                      [-0.0, 1.5, 2.0 ** -20, 7e12],
                      [np.inf, -1e300 if dtype == np.float64 else -3e38,
                       5e-324 if dtype == np.float64 else 1e-45, -2.5]],
                     dtype=dtype)
        p = tmp_path / "emb.txt"
        save_embedding_text(p, h)
        want = "3 4\n" + "".join(" ".join(f"{x:.9g}" for x in row) + "\n"
                                  for row in h)
        assert p.read_text() == want

    def test_binary_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(5, 4)).astype(np.float32)
        p = tmp_path / "emb.bin"
        save_embedding_binary(p, h)
        np.testing.assert_array_equal(load_embedding_binary(p), h)

    def test_binary_rewrite_is_byte_identical(self, tmp_path):
        h = np.random.default_rng(2).normal(size=(4, 2)).astype(np.float32)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_embedding_binary(p1, h)
        save_embedding_binary(p2, h)
        assert p1.read_bytes() == p2.read_bytes()
