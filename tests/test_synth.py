"""Synthetic benchmark generators: sizes, structure, determinism."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from disene import synth
from disene.synth import KINDS, SynthSpec, default_spec, generate_synthetic


def edges_set(g):
    return {tuple(e) for e in g.edges.tolist()}


def edges_set_of(g, rows):
    return {tuple(e) for e in g.edges[rows].tolist()}


def clique_nodes(gts):
    return set(np.flatnonzero(gts.node_truth.any(axis=1)).tolist())


class TestShapes:
    def test_ring_matches_benchmark_statistics(self):
        g, gts = generate_synthetic(default_spec("ring_cliques", seed=0))
        assert g.num_nodes == 320
        assert g.num_edges == 1619  # 32 cliques + ring + 147 noise
        assert gts.num_communities == 32
        assert gts.node_truth.sum(axis=0).tolist() == [10] * 32

    @pytest.mark.parametrize("kind", ["sbm_cliques", "ba_cliques", "er_cliques"])
    def test_attached_families_have_base_plus_cliques(self, kind):
        g, gts = generate_synthetic(default_spec(kind, seed=0))
        expected = 640 if kind != "sbm_cliques" else 320
        assert g.num_nodes == expected
        assert gts.num_communities == 32
        assert len(clique_nodes(gts)) == 320

    def test_every_community_is_a_clique(self):
        for kind in KINDS:
            spec = default_spec(kind, seed=1)
            g, gts = generate_synthetic(spec)
            es = edges_set(g)
            for c in range(gts.num_communities):
                nodes = np.flatnonzero(gts.node_truth[:, c]).tolist()
                want = {(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]}
                assert want <= es
                assert edges_set_of(g, gts.edge_truth[:, c]) == want
            # the planted labels: clique c on the last nodes, -1 before them
            planted = spec.num_cliques * spec.clique_size
            labels = np.full(g.num_nodes, -1)
            labels[g.num_nodes - planted:] = np.repeat(
                np.arange(spec.num_cliques), spec.clique_size)
            ends = labels[g.edges]
            comm = np.arange(gts.num_communities)
            np.testing.assert_array_equal(
                gts.edge_truth,
                (ends[:, [0]] == comm) & (ends[:, [1]] == comm))

    def test_attachment_count(self):
        # each clique hangs off the base by exactly one extra edge
        spec = default_spec("ba_cliques", seed=3)
        g, gts = generate_synthetic(spec)
        inside = clique_nodes(gts)
        cross = [e for e in g.edges.tolist()
                 if (e[0] in inside) != (e[1] in inside)]
        assert len(cross) == spec.num_cliques * spec.attach_edges_per_clique


class TestStructure:
    @pytest.mark.parametrize("kind", KINDS)
    def test_connected(self, kind):
        for seed in (0, 1, 2):
            g, _ = generate_synthetic(default_spec(kind, seed=seed))
            assert connected_components(g.matrix(), directed=False)[0] == 1

    def test_base_connectivity_check(self):
        # the retry loop regenerates a base graph until this holds
        assert synth._connected(3, np.array([[0, 1], [1, 2]]))
        assert synth._connected(1, np.empty((0, 2), dtype=np.int64))
        assert not synth._connected(4, np.array([[0, 1], [2, 3]]))
        assert not synth._connected(3, np.array([[0, 1], [0, 1]]))

    def test_er_edge_count_near_expectation(self):
        spec = default_spec("er_cliques", seed=0)
        g, gts = generate_synthetic(spec)
        base_edges = g.num_edges - 32 * 45 - 32  # minus cliques and hooks
        expect = spec.er_p * spec.base_nodes * (spec.base_nodes - 1) / 2
        assert abs(base_edges - expect) < 4 * np.sqrt(expect)

    def test_ba_base_degree_sum(self):
        spec = default_spec("ba_cliques", seed=0)
        g, gts = generate_synthetic(spec)
        base_edges = g.num_edges - 32 * 45 - 32
        # preferential attachment adds m edges per new node
        assert base_edges == (spec.base_nodes - spec.ba_m) * spec.ba_m

    def test_ring_noise_respects_cliques(self):
        plain = generate_synthetic(SynthSpec(kind="ring_cliques", seed=0))[0]
        noisy = generate_synthetic(SynthSpec(kind="ring_cliques", seed=0,
                                             noise_edges=50))[0]
        extra = edges_set(noisy) - edges_set(plain)
        assert len(extra) == 50
        _, gts = generate_synthetic(SynthSpec(kind="ring_cliques", seed=0))
        for u, v in extra:
            assert gts.community_of_edge(u, v) is None


class TestErBase:
    @pytest.mark.parametrize("n,chunk", [(2, 1), (9, 1), (30, 7), (30, 64),
                                         (41, 100), (41, 10**6)])
    def test_row_blocks_replay_one_draw(self, n, chunk, monkeypatch):
        # blocks of whole rows, from a single row up to every pair at once
        monkeypatch.setattr(synth, "_ER_CHUNK", chunk)
        got = synth._er_base(n, 0.3, np.random.default_rng(17))
        iu, iv = np.triu_indices(n, k=1)
        keep = np.random.default_rng(17).random(len(iu)) < 0.3
        np.testing.assert_array_equal(got, np.stack([iu[keep], iv[keep]], axis=1))


def ba_base_loop(n, m, rng):
    """The scalar loop `_ba_base` replays: one rng.integers call per draw."""
    edges = []
    repeated = []
    targets = list(range(m))
    for source in range(m, n):
        for t in targets:
            edges.append((min(source, t), max(source, t)))
        repeated.extend(targets)
        repeated.extend([source] * m)
        chosen = set()
        while len(chosen) < m:
            chosen.add(repeated[int(rng.integers(len(repeated)))])
        targets = sorted(chosen)
    return np.array(edges, dtype=np.int64)


class TestBaBase:
    @pytest.mark.parametrize("n,m", [(2, 1), (6, 5), (40, 1), (40, 3),
                                     (320, 5), (200, 12)])
    @pytest.mark.parametrize("seed", [0, 1, 1901])
    def test_replays_the_scalar_loop(self, n, m, seed):
        for retry in range(3):
            want = ba_base_loop(n, m, np.random.default_rng([seed, retry]))
            got = synth._ba_base(n, m, np.random.default_rng([seed, retry]))
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("chunk", [1, 3, 4096])
    def test_draws_are_the_generators_32_bit_stream(self, chunk):
        draws = synth._uint32_draws(np.random.default_rng(3).bit_generator,
                                    chunk)
        want = np.random.default_rng(3).integers(2**32, size=25,
                                                 dtype=np.uint32)
        assert [next(draws) for _ in range(25)] == want.tolist()

    def test_bounded_draws_near_2_31(self):
        # (2**32 - k) mod k = 2**31 - 1, so about half of all draws are
        # drawn again
        k = 2**31 + 1
        stream = synth._uint32_draws(np.random.default_rng(5).bit_generator, 7)
        read = []

        def draws():
            for x in stream:
                read.append(x)
                yield x

        it = draws()
        got = [synth._draw_distinct(it, range(k), 1)[0] for _ in range(200)]
        rng = np.random.default_rng(5)
        assert got == [int(rng.integers(k)) for _ in range(200)]
        assert len(read) > 300
        # both streams go on in step
        assert next(it) == int(rng.integers(2**32, dtype=np.uint64))

    @pytest.mark.parametrize("k", [0, 1, 2**32, 2**40])
    def test_bound_outside_the_32_bit_path_raises(self, k):
        with pytest.raises(ValueError, match="bounded draw"):
            synth._draw_distinct(iter([]), range(k), 1)


class TestDeterminism:
    @pytest.mark.parametrize("kind", KINDS)
    def test_same_seed_same_graph(self, kind):
        a, _ = generate_synthetic(default_spec(kind, seed=7))
        b, _ = generate_synthetic(default_spec(kind, seed=7))
        assert np.array_equal(a.edges, b.edges)

    def test_different_seed_different_graph(self):
        a, _ = generate_synthetic(default_spec("er_cliques", seed=0))
        b, _ = generate_synthetic(default_spec("er_cliques", seed=1))
        assert not np.array_equal(a.edges, b.edges)


# a small spec every family generates from, and one other value per field
SMALL = dict(num_cliques=4, clique_size=4, base_nodes=20, ba_m=2, er_p=0.3,
             sbm_p_out=0.3, noise_edges=3, seed=0)
OTHER = dict(num_cliques=5, clique_size=5, base_nodes=24,
             attach_edges_per_clique=2, er_p=0.5, sbm_p_out=0.6, ba_m=3,
             noise_edges=6, seed=1)


class TestReads:
    @pytest.mark.parametrize("field", sorted(OTHER))
    @pytest.mark.parametrize("kind", KINDS)
    def test_a_family_reads_exactly_its_fields(self, kind, field):
        # a field of the table changes the graph; any other leaves it be
        base = SynthSpec(kind=kind, **SMALL)
        a, _ = generate_synthetic(base)
        b, _ = generate_synthetic(replace(base, **{field: OTHER[field]}))
        same = a.num_nodes == b.num_nodes and np.array_equal(a.edges, b.edges)
        assert same != (field in synth.READS[kind])


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SynthSpec(kind="torus_cliques").validate()

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            SynthSpec(kind="ring_cliques", clique_size=1).validate()
        with pytest.raises(ValueError):
            SynthSpec(kind="ba_cliques", ba_m=0).validate()
        with pytest.raises(ValueError):
            SynthSpec(kind="er_cliques", er_p=1.5).validate()

    @pytest.mark.parametrize("base_nodes, er_p", [(30, 0.0), (320, 0.001)])
    def test_er_base_that_cannot_connect_rejected(self, base_nodes, er_p):
        spec = SynthSpec(kind="er_cliques", num_cliques=2, clique_size=4,
                         base_nodes=base_nodes, er_p=er_p)
        with pytest.raises(ValueError, match=rf"er_cliques: .* "
                           rf"base_nodes={base_nodes} and er_p={er_p} "):
            generate_synthetic(spec)
