"""Graph container, file loaders, community indicators, edge splits, BFS."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse.csgraph import connected_components, shortest_path

from disene import graph_core
from disene.graph_core import (build_graph, communities_from_labels,
                               bfs_distances, first_community,
                               ground_truth_from_json, ground_truth_to_json,
                               largest_component_subgraph, load_edge_list,
                               sample_non_edges, split_edges, train_subgraph)


@st.composite
def graphs(draw, max_nodes=12):
    """An arbitrary graph with at least one edge; isolated nodes allowed."""
    n = draw(st.integers(2, max_nodes))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]),
                          min_size=1, max_size=n * (n - 1)))
    return build_graph(n, pairs)


def random_graph(rng, n, p):
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < p
    return build_graph(n, np.stack([iu[keep], iv[keep]], axis=1))


class TestGraphBasics:
    def test_build_graph_cleans_duplicates_and_orientation(self):
        g = build_graph(4, [(1, 0), (0, 1), (2, 3), (3, 2), (1, 2)])
        assert g.num_edges == 3
        assert g.edges.tolist() == [[0, 1], [1, 2], [2, 3]]

    def test_self_loops_dropped_and_range_checked(self):
        g = build_graph(3, [(0, 0), (0, 1)])
        assert g.num_edges == 1
        with pytest.raises(ValueError):
            build_graph(3, [(0, 5)])

    @pytest.mark.parametrize("loop", [(5, 5), (-1, -1), (3, 3)])
    def test_out_of_range_self_loop_rejected(self, loop):
        # the range check comes before self loops are dropped
        with pytest.raises(ValueError, match="out of range"):
            build_graph(3, [(0, 1), loop])

    def test_adjacency_and_degrees(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degrees.tolist() == [3, 1, 1, 1]
        assert g.codes.tolist() == [1, 2, 3]      # u * 4 + v
        assert (0, 2) in g.edge_set and (2, 3) not in g.edge_set
        assert g.indptr.tolist() == [0, 3, 4, 5, 6]
        assert g.indices.tolist() == [1, 2, 3, 0, 0, 0]

    def test_edge_rows(self):
        g = build_graph(5, [(3, 4), (0, 1), (1, 3)])
        assert g.edge_rows([(0, 1), (4, 3), (3, 1)]).tolist() == [0, 2, 1]
        with pytest.raises(ValueError, match="not an edge"):
            g.edge_rows([(0, 4)])
        # 0 * 5 + 8 and -1 * 5 + 13 are the code of (1, 3)
        for outside in [(0, 8), (13, -1)]:
            with pytest.raises(ValueError, match="not an edge"):
                g.edge_rows([outside])

    def test_components_and_largest(self):
        ids = list("abcdefg")
        g = build_graph(7, [(2, 3), (3, 4), (0, 1), (5, 6)], node_ids=ids)
        _, labels = connected_components(g.matrix(), directed=False)
        assert sorted(np.bincount(labels)) == [2, 2, 3]
        sub = largest_component_subgraph(g)
        assert sub.num_nodes == 3
        assert sub.edges.tolist() == [[0, 1], [1, 2]]
        # node_ids stay aligned through the reindexing
        assert sub.node_ids == ["c", "d", "e"]

    def test_largest_component_tie_goes_to_the_smallest_node(self):
        g = build_graph(6, [(4, 5), (3, 4), (1, 2), (0, 2)])
        sub = largest_component_subgraph(g)
        assert sub.edges.tolist() == [[0, 2], [1, 2]]


class TestLoaders:
    def test_edge_list_formats(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("# comment\n a b \nb c\n\na c\n")
        g = load_edge_list(p)
        assert g.num_nodes == 3 and g.num_edges == 3
        assert sorted(g.node_ids) == ["a", "b", "c"]

    @pytest.mark.parametrize("text,ids", [
        ("10 2\n2 -1\n", ["-1", "2", "10"]),      # integers by value
        ("10 2\n2 b\n", ["10", "2", "b"]),        # else as strings
        ("7 007\n007 8\n", ["007", "7", "8"]),    # equal values stay apart
    ])
    def test_edge_list_numbering(self, tmp_path, text, ids):
        p = tmp_path / "edges.txt"
        p.write_text(text)
        g = load_edge_list(p)
        assert g.node_ids == ids
        named = sorted(tuple(sorted((ids[u], ids[v]))) for u, v in g.edges.tolist())
        assert named == sorted(tuple(sorted(line.split()))
                               for line in text.splitlines())

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

    def test_ground_truth_json_roundtrip(self, two_cliques):
        g, gts = two_cliques
        back = ground_truth_from_json(g, ground_truth_to_json(gts))
        assert (back.members != gts.members).nnz == 0
        assert (back.edge_members != gts.edge_members).nnz == 0

    @pytest.mark.parametrize("key,bad", [
        ("edge_indices", [-1, -2, -3]), ("edge_indices", [21]),
        ("edge_indices", [1000000]), ("nodes", [-1]), ("nodes", [10]),
        ("nodes", [1000000])])
    def test_ground_truth_json_index_outside_the_graph(self, two_cliques,
                                                      key, bad):
        g, gts = two_cliques            # 10 nodes, 21 edges
        payload = ground_truth_to_json(gts)
        payload["communities"][0][key] = bad
        # edge indices belong to the older format, which is refused whatever
        # they hold
        match = "outside" if key == "nodes" else "one key, 'nodes'"
        with pytest.raises(ValueError, match=match):
            ground_truth_from_json(g, payload)


    @settings(max_examples=60, deadline=None)
    @given(g=graphs(), data=st.data())
    def test_edge_list_round_trip(self, tmp_path_factory, g, data):
        # string ids, any line order and orientation, comments and blanks
        name = [f"n{v}" for v in range(g.num_nodes)]
        lines = [data.draw(st.sampled_from([f"{name[u]} {name[v]}",
                                            f"{name[v]}\t{name[u]}"]))
                 for u, v in g.edges.tolist()]
        lines = data.draw(st.permutations(lines)) + ["# comment", ""]
        path = tmp_path_factory.mktemp("edges") / "edges.txt"
        path.write_text("\n".join(lines) + "\n")
        got = load_edge_list(path, largest_component=False)
        assert got.num_nodes == len(np.unique(g.edges))
        ids = np.array([int(t[1:]) for t in got.node_ids])
        back = sorted((min(u, v), max(u, v)) for u, v in ids[got.edges].tolist())
        assert back == [tuple(e) for e in g.edges.tolist()]
        # communities named by the file's tokens, edges induced by the nodes
        comms = data.draw(st.lists(st.sets(st.sampled_from(got.node_ids)),
                                   max_size=4))
        gts = ground_truth_from_json(
            got, {"communities": [{"nodes": sorted(c)} for c in comms]})
        member = np.array([[t in c for c in comms] for t in got.node_ids],
                          dtype=bool).reshape(got.num_nodes, len(comms))
        assert gts.members.has_canonical_format
        np.testing.assert_array_equal(gts.members.toarray(), member.T)
        np.testing.assert_array_equal(
            gts.edge_members.toarray(),
            (member[got.edges[:, 0]] & member[got.edges[:, 1]]).T)
        payload = ground_truth_to_json(gts)
        assert [set(c["nodes"]) for c in payload["communities"]] == comms
        again = ground_truth_from_json(got, payload)
        assert (again.members != gts.members).nnz == 0
        assert (again.edge_members != gts.edge_members).nnz == 0


class TestCommunities:
    def test_from_labels_excludes(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        gts = communities_from_labels(g, np.array([0, 0, -1, -1]),
                                      exclude={-1})
        assert gts.num_communities == 1
        assert gts.members.toarray().tolist() == [[True, True, False, False]]
        assert gts.edge_members.toarray().tolist() == [[True, False]]

    def test_community_lookup(self, two_cliques):
        g, gts = two_cliques
        assert gts.community_of_node(0) == 0
        assert gts.community_of_node(7) == 1
        assert gts.community_of_edge(0, 1) == 0
        assert gts.community_of_edge(4, 5) is None  # bridge
        assert gts.community_of_edge(0, 9) is None  # not an edge
        assert gts.community_of_edge(0, 12) is None  # not a node
        assert gts.community_of_node(10) is None

    def test_lookups_convert_each_membership_once(self, two_cliques,
                                                  monkeypatch):
        g, gts = two_cliques
        converted = []
        to_csc = sp.csr_matrix.tocsc
        monkeypatch.setattr(sp.csr_matrix, "tocsc", lambda m, *a, **kw:
                            converted.append(m.shape) or to_csc(m, *a, **kw))
        for _ in range(3):
            assert [gts.community_of_node(v) for v in (0, 7, 10)] == [0, 1, None]
            assert [gts.community_of_edge(u, v) for u, v in
                    ((0, 1), (4, 5), (0, 9))] == [0, None, None]
        assert converted == [(2, 10), (2, g.num_edges)]

    def test_overlapping_communities_report_the_first(self, two_cliques):
        g, _ = two_cliques
        payload = {"communities": [{"nodes": [0, 1]}, {"nodes": [1, 2]}]}
        gts = ground_truth_from_json(g, payload)
        assert g.edges[[0, 4]].tolist() == [[0, 1], [1, 2]]
        assert gts.community_of_edge(1, 0) == 0
        assert gts.community_of_edge(1, 2) == 1
        assert gts.community_of_node(1) == 0
        assert gts.community_of_node(2) == 1

    def test_indicators_match_lookups(self, two_cliques):
        g, gts = two_cliques
        edges, nodes = gts.edge_members.toarray().T, gts.members.toarray().T
        assert edges.shape == (g.num_edges, 2) and nodes.shape == (10, 2)
        for (u, v), row in zip(g.edges.tolist(), edges):
            c = gts.community_of_edge(u, v)
            assert row.tolist() == [c == 0, c == 1]
        for v, row in enumerate(nodes):
            assert row.tolist() == [gts.community_of_node(v) == 0,
                                    gts.community_of_node(v) == 1]


@settings(max_examples=60, deadline=None)
@given(c=st.integers(0, 5), n=st.integers(1, 12), data=st.data())
def test_first_community_matches_brute_force(c, n, data):
    # communities overlap, some columns lie in none, and C may be 0
    member = data.draw(arrays(np.bool_, (c, n)))
    rows = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    got = first_community(sp.csr_matrix(member), rows)
    want = [next((k for k in range(c) if member[k, r]), -1) for r in rows]
    assert got.tolist() == want


def _non_edges_reference(g, count, rng):
    """The sampler as a loop of scalar draws, u then v per attempt."""
    n = g.num_nodes
    chosen, taken = [], set()
    for _ in range(200 * max(count, 1) + 10000):
        if len(chosen) == count:
            break
        u, v = int(rng.integers(n)), int(rng.integers(n))
        e = (min(u, v), max(u, v))
        if u != v and e not in g.edge_set and e not in taken:
            taken.add(e)
            chosen.append(e)
    if len(chosen) < count:
        rest = [(u, v) for u in range(n) for v in range(u + 1, n)
                if (u, v) not in g.edge_set and (u, v) not in taken]
        pick = rng.choice(len(rest), size=count - len(chosen), replace=False)
        chosen += [rest[i] for i in np.sort(pick)]
    return np.array(chosen, dtype=np.int64).reshape(-1, 2)


class TestNonEdges:
    @settings(max_examples=60, deadline=None)
    @given(g=graphs(), share=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_batches_replay_the_scalar_draws(self, g, share, seed):
        available = g.num_nodes * (g.num_nodes - 1) // 2 - g.num_edges
        count = int(share * available)
        got = sample_non_edges(g, count, np.random.default_rng(seed))
        want = _non_edges_reference(g, count, np.random.default_rng(seed))
        np.testing.assert_array_equal(got, want)

    def test_dense_graph_fallback_matches(self, monkeypatch):
        # a complete graph missing 4 edges: the attempt limit runs out, and
        # both enumerate what is left from the same generator state
        n = 200
        iu, iv = np.triu_indices(n, k=1)
        drop = np.random.default_rng(31).choice(len(iu), 4, replace=False)
        g = build_graph(n, np.delete(np.stack([iu, iv], axis=1), drop, axis=0))
        fallbacks = []
        inner = graph_core._remaining_non_edges
        monkeypatch.setattr(graph_core, "_remaining_non_edges",
                            lambda *a: fallbacks.append(1) or inner(*a))
        for count in (1, 2, 3, 4):
            for seed in range(3):
                np.testing.assert_array_equal(
                    sample_non_edges(g, count, np.random.default_rng(seed)),
                    _non_edges_reference(g, count, np.random.default_rng(seed)))
        assert 0 < len(fallbacks) < 12


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
                assert (u, v) not in g.edge_set

    @settings(max_examples=100, deadline=None)
    @given(g=graphs(), fraction=st.floats(0.01, 0.99),
           seed=st.integers(0, 2**32 - 1))
    def test_split_partitions_the_edges(self, g, fraction, seed):
        n_test = int(math.floor(fraction * g.num_edges + 0.5))
        non_edges = g.num_nodes * (g.num_nodes - 1) // 2 - g.num_edges
        assume(1 <= n_test <= non_edges and n_test < g.num_edges)
        s = split_edges(g, fraction, seed)
        train = {tuple(e) for e in s.train_edges.tolist()}
        test = {tuple(e) for e in s.test_edges.tolist()}
        assert len(train) == len(s.train_edges)
        assert len(test) == len(s.test_edges) == n_test
        assert not (train & test)
        assert train | test == {tuple(e) for e in g.edges.tolist()}
        neg = s.test_negatives
        assert neg.shape == (n_test, 2)
        assert (neg[:, 0] < neg[:, 1]).all()
        assert len({tuple(e) for e in neg.tolist()}) == n_test
        assert not {tuple(e) for e in neg.tolist()} & g.edge_set

    @pytest.mark.parametrize("fraction", [0.1, 0.9, 0.99])
    def test_split_with_an_empty_side_rejected(self, fraction):
        # a 3-edge path: round(0.1 * 3) = 0 holds out no edge, and
        # round(0.9 * 3) = 3 leaves none to train on
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match="leaves one side empty"):
            split_edges(g, fraction, 0)

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
            assert (u, v) not in sub.edge_set


class TestBfs:
    def test_against_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = random_graph(rng, 20, 0.15)
            if g.num_edges == 0:
                continue
            rows = np.repeat(np.arange(g.num_nodes), g.degrees)
            cols = g.indices
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

    @staticmethod
    def _oracle(g, sources):
        """Bellman-Ford hop counts over the edge list, rows of `sources`."""
        e = g.edges
        adj = sp.csr_matrix((np.ones(2 * len(e)),
                             (np.concatenate([e[:, 0], e[:, 1]]),
                              np.concatenate([e[:, 1], e[:, 0]]))),
                            shape=(g.num_nodes, g.num_nodes))
        return shortest_path(adj, method="BF", unweighted=True)[sources]

    def test_isolated_and_repeated_sources(self):
        # two components and isolated nodes 3, 8 and 9
        g = build_graph(10, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 7)])
        for sources in ([3, 3, 9, 0, 0, 4, 7, 3], [8, 9], [3]):
            got = bfs_distances(g, sources)
            np.testing.assert_array_equal(got, self._oracle(g, sources))

    def test_sources_over_several_words(self):
        # 150 sources fill three words; node 5 sits at columns 63 and 64 on
        # either side of the first word boundary, node 0 at 0, 127 and 128
        rng = np.random.default_rng(5)
        g = random_graph(rng, 40, 0.06)
        sources = rng.integers(40, size=150)
        sources[[63, 64]] = 5
        sources[[0, 127, 128]] = 0
        got = bfs_distances(g, sources)
        np.testing.assert_array_equal(got, self._oracle(g, sources))
        assert got.dtype == np.float64 and got.flags.f_contiguous

    def test_edgeless_graph(self):
        g = build_graph(4, [])
        np.testing.assert_array_equal(bfs_distances(g, [2, 0, 2]),
                                      self._oracle(g, [2, 0, 2]))

    def test_empty_source_list(self, path_graph):
        assert bfs_distances(path_graph, []).shape == (0, 6)

    def test_deep_path_goes_to_csgraph(self):
        n = 2 * graph_core.MAX_LEVELS + 5
        g = build_graph(n, [(i, i + 1) for i in range(n - 1)])
        sources = np.arange(0, n, 3)
        got = bfs_distances(g, sources)
        np.testing.assert_array_equal(got, self._oracle(g, sources))
        assert got.dtype == np.float64 and got.flags.f_contiguous

    def test_deep_component_beside_a_shallow_one(self):
        # a path with a pendant at its middle, and a triangle
        n = 2 * graph_core.MAX_LEVELS + 5
        mid = n // 2
        edges = [(i, i + 1) for i in range(n - 1)] + [(mid, n)]
        edges += [(n + 1, n + 2), (n + 2, n + 3), (n + 3, n + 1)]
        g = build_graph(n + 4, edges)
        sources = np.arange(n + 4)
        got = bfs_distances(g, sources)
        np.testing.assert_array_equal(got, self._oracle(g, sources))
        assert got.flags.f_contiguous

    def test_long_path_beside_a_star_is_handed_off(self):
        n = 2 * graph_core.MAX_LEVELS + 5
        edges = [(0, i) for i in range(1, 6)]
        edges += [(6 + i, 7 + i) for i in range(n - 1)]
        g = build_graph(6 + n, edges)
        sources = np.arange(6 + n)
        np.testing.assert_array_equal(bfs_distances(g, sources),
                                      self._oracle(g, sources))

    def test_longest_search_the_levels_finish(self):
        # source 3's eccentricity is MAX_LEVELS - 1, so its search ends in
        # the levels; sources 0-2 are still open after them
        n = graph_core.MAX_LEVELS + 3
        g = build_graph(n, [(i, i + 1) for i in range(n - 1)])
        sources = [0, 1, 2, 3, 2, 1]
        np.testing.assert_array_equal(bfs_distances(g, sources),
                                      self._oracle(g, sources))

    def test_anchors(self, path_graph):
        d = bfs_distances(path_graph, [0, 5])
        assert d[0].tolist() == [0, 1, 2, 3, 4, 5]
        assert d[1].tolist() == [5, 4, 3, 2, 1, 0]
