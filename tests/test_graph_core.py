"""Graph container, file loaders, community indicators, edge splits, BFS."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path

from disene.graph_core import (build_graph, canonical_edge,
                               communities_from_labels, community_indicators,
                               connected_components, bfs_distances,
                               ground_truth_from_json, ground_truth_to_json,
                               largest_component_subgraph, load_edge_list,
                               load_labels, split_edges, train_subgraph)


def random_graph(rng, n, p):
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < p
    return build_graph(n, np.stack([iu[keep], iv[keep]], axis=1))


class TestGraphBasics:
    def test_canonical_edge_orders(self):
        assert canonical_edge(7, 3) == (3, 7)
        assert canonical_edge(3, 7) == (3, 7)

    def test_build_graph_cleans_duplicates_and_orientation(self):
        g = build_graph(4, [(1, 0), (0, 1), (2, 3), (3, 2), (1, 2)])
        assert g.num_edges == 3
        assert g.edges.tolist() == [[0, 1], [1, 2], [2, 3]]

    def test_self_loops_dropped_and_range_checked(self):
        g = build_graph(3, [(0, 0), (0, 1)])
        assert g.num_edges == 1
        with pytest.raises(ValueError):
            build_graph(3, [(0, 5)])

    def test_adjacency_and_degrees(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degrees.tolist() == [3, 1, 1, 1]
        assert g.neighbors(0).tolist() == [1, 2, 3]
        assert g.has_edge(2, 0) and not g.has_edge(2, 3)
        assert g.indptr.tolist() == [0, 3, 4, 5, 6]
        assert g.indices.tolist() == [1, 2, 3, 0, 0, 0]

    def test_edge_rows(self):
        g = build_graph(5, [(3, 4), (0, 1), (1, 3)])
        assert g.edge_rows([(0, 1), (4, 3), (3, 1)]).tolist() == [0, 2, 1]
        with pytest.raises(ValueError, match="not an edge"):
            g.edge_rows([(0, 4)])

    def test_components_and_largest(self):
        ids = list("abcdefg")
        g = build_graph(7, [(2, 3), (3, 4), (0, 1), (5, 6)], node_ids=ids)
        comps = connected_components(g)
        assert sorted(len(c) for c in comps) == [2, 2, 3]
        sub = largest_component_subgraph(g)
        assert sub.num_nodes == 3
        assert sub.edges.tolist() == [[0, 1], [1, 2]]
        # node_ids stay aligned through the reindexing
        assert sub.node_ids == ["c", "d", "e"]


class TestLoaders:
    def test_edge_list_formats(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("# comment\n a b \nb c\n\na c\n")
        g = load_edge_list(p)
        assert g.num_nodes == 3 and g.num_edges == 3
        assert sorted(g.node_ids) == ["a", "b", "c"]

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("0 1\n2\n")
        with pytest.raises(ValueError, match="two node tokens"):
            load_edge_list(p)

    def test_largest_component_default(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("0 1\n1 2\n8 9\n")
        assert load_edge_list(p).num_nodes == 3
        assert load_edge_list(p, largest_component=False).num_nodes == 5

    def test_labels_roundtrip(self, tmp_path):
        e = tmp_path / "edges.txt"
        e.write_text("0 1\n1 2\n0 2\n")
        g = load_edge_list(e)
        l = tmp_path / "labels.txt"
        l.write_text("0 0\n1 0\n2 1\n")
        labels = load_labels(l, g)
        assert labels.tolist() == [0, 0, 1]

    def test_ground_truth_json_roundtrip(self, two_cliques):
        g, gts = two_cliques
        back = ground_truth_from_json(g, ground_truth_to_json(g, gts))
        assert len(back.communities) == len(gts.communities)
        for a, b in zip(back.communities, gts.communities):
            assert a.nodes == b.nodes and a.edges == b.edges


class TestCommunities:
    def test_from_labels_excludes(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        gts = communities_from_labels(g, np.array([0, 0, -1, -1]),
                                      exclude={-1})
        assert len(gts.communities) == 1
        assert gts.communities[0].nodes == frozenset({0, 1})

    def test_community_lookup(self, two_cliques):
        g, gts = two_cliques
        assert gts.community_of_node(0) == 0
        assert gts.community_of_node(7) == 1
        assert gts.community_of_edge(0, 1) == 0
        assert gts.community_of_edge(4, 5) is None  # bridge

    def test_indicators_match_lookups(self, two_cliques):
        g, gts = two_cliques
        edges, nodes = community_indicators(g, gts)
        assert edges.shape == (g.num_edges, 2) and nodes.shape == (10, 2)
        for (u, v), row in zip(g.edges.tolist(), edges):
            c = gts.community_of_edge(u, v)
            assert row.tolist() == [c == 0, c == 1]
        for v, row in enumerate(nodes):
            assert row.tolist() == [gts.community_of_node(v) == 0,
                                    gts.community_of_node(v) == 1]


class TestSplits:
    def test_exact_counts_and_disjointness(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_graph(rng, 25, 0.3)
            if g.num_edges < 10:
                continue
            f = rng.uniform(0.05, 0.4)
            s = split_edges(g, f, int(rng.integers(1000)))
            want = int(math.floor(f * g.num_edges + 0.5))
            assert len(s.test_edges) == want
            assert len(s.test_negatives) == want
            assert len(s.train_edges) + len(s.test_edges) == g.num_edges
            test = {tuple(e) for e in s.test_edges.tolist()}
            train = {tuple(e) for e in s.train_edges.tolist()}
            assert not (test & train)
            for u, v in s.test_negatives.tolist():
                assert not g.has_edge(u, v)

    def test_deterministic(self, two_cliques):
        g, _ = two_cliques
        a = split_edges(g, 0.2, 3)
        b = split_edges(g, 0.2, 3)
        assert np.array_equal(a.test_edges, b.test_edges)
        assert np.array_equal(a.test_negatives, b.test_negatives)

    def test_train_subgraph_drops_held_out(self, two_cliques):
        g, _ = two_cliques
        s = split_edges(g, 0.2, 1)
        sub = train_subgraph(g, s)
        assert sub.num_nodes == g.num_nodes
        assert sub.num_edges == len(s.train_edges)
        for u, v in s.test_edges.tolist():
            assert not sub.has_edge(u, v)


class TestBfs:
    def test_against_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = random_graph(rng, 20, 0.15)
            if g.num_edges == 0:
                continue
            rows = np.repeat(np.arange(g.num_nodes), g.degrees)
            cols = np.concatenate([g.neighbors(u) for u in range(g.num_nodes)])
            adj = sp.csr_matrix((np.ones(len(rows)), (rows, cols)),
                                shape=(g.num_nodes, g.num_nodes))
            want = shortest_path(adj, method="BF", unweighted=True)
            np.testing.assert_array_equal(
                bfs_distances(g, np.arange(g.num_nodes)), want)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(23)
        g = random_graph(rng, 15, 0.25)
        d = bfs_distances(g, np.arange(g.num_nodes))
        finite = np.isfinite(d)
        for k in range(g.num_nodes):
            lhs = d
            rhs = d[:, [k]] + d[[k], :]
            ok = ~finite | ~np.isfinite(rhs) | (lhs <= rhs + 1e-12)
            assert ok.all()

    def test_anchors(self, path_graph):
        d = bfs_distances(path_graph, [0, 5])
        assert d[0].tolist() == [0, 1, 2, 3, 4, 5]
        assert d[1].tolist() == [5, 4, 3, 2, 1, 0]
