"""Pinned digests of generated graphs, edge splits and `gen` output.

The digests were recorded from the tuple-set implementation of the graph
layer and the generators. A change to a generator or to the non-edge
sampler that alters any graph, split or ground truth fails here, so it has
to say so and record new digests.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from disene.cli import main
from disene.graph_core import split_edges
from disene.synth import default_spec, generate_synthetic

# (kind, seed) -> (sha256 of g.edges, sha256 of the train edges, test edges
# and test negatives of split_edges(g, 0.1, seed)), each as little-endian int64
GRAPHS = {
    ("ring_cliques", 0): ("e42e810a8bb146b90713f1ff858f92916a9c087d343116202d41548337301e7b",
                          "4c540c02886aa26dbb8299ec9d2c891795ab7d88cdb3f0327929a0d4aa4357e0"),
    ("ring_cliques", 1): ("8c3c090e5a61a4415e76352f1f69da2b7eb4d21afedac736e6951528fd8e1ac0",
                          "df358b9f9bb1bda48c81f2406bf08ce357ac9bed4aa9baa16ff39d78444c52c7"),
    ("sbm_cliques", 0): ("4422b3e88e12e6552b7875066f685e88532141e1bb14c7fbf686e0cbf3e0b071",
                         "33757eb8344d6fbbf532e921e1b05f1f944859bac40d1b9b306a5b925aa63916"),
    ("sbm_cliques", 1): ("9f3e1956cdc10868755257227e1dc79debf1997faa198416a59263ba9ae63e77",
                         "f7e0a609e6b9163420b09f9bb25dbc7effb08b6983297fd50a409f44300fdc6e"),
    ("ba_cliques", 0): ("072f32c7827a9acdd1de242661adfc6526b22b45a8ffbce2c9491a2d9ac0465a",
                        "ea9acaf63e9cab657e9d0be7f62f77c1550b79e3d21cafffd786a33127eb1a9e"),
    ("ba_cliques", 1): ("3d4dc6f155862356f8aa4363411e71090db51095b4b01d4b31f62ae9093b9b3c",
                        "d15ad90602dbc2a5e2efbd1b789334a52d3e2c262bc455334ace6a20165cb72e"),
    ("er_cliques", 0): ("c09a3dc437f7aca0d6b4243ac535808e4b99b5925c02bca1d20cde3a43092d09",
                        "a0ec328ab4d31f6f3a5daa2eeecef67f438cb80502f99e96800b0e9b53d38adc"),
    ("er_cliques", 1): ("5a2666b45d08ac9e4ca8de84980cb9de36884d278ebbb31fb974b28516ce0add",
                        "ebe9c16f65b66e2d3763b0f75cf1362178e0d74cd0dd4aa7fa1d949fc33370cd"),
}

# kind -> sha256 of ground_truth.json from `disene gen --kind KIND --seed 1`
GEN_GROUND_TRUTH = {
    "ring": "3e2237874e277d4453c992b4cb9878c26bbe7c5d01f13ccf89030190235c1a90",
    "sbm": "e9c36f05cf49b1b598def832572d96f9f19ed9c4312b3d0f0460a35726c00ea6",
    "ba": "eeb3587f68473f622464b3ddcdc5e7725e0bbb25c88f80dc9af00cc715d0245b",
    "er": "8df2cc29507ed6d59b5a36e1b2e79113d3b2a20f12ec594c9df545a8db786537",
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kind,seed", sorted(GRAPHS))
def test_graph_and_split(kind, seed):
    g, _ = generate_synthetic(default_spec(kind, seed=seed))
    s = split_edges(g, 0.1, seed)
    got = (_digest(g.edges),
           _digest(s.train_edges, s.test_edges, s.test_negatives))
    assert got == GRAPHS[kind, seed]


@pytest.mark.parametrize("kind", sorted(GEN_GROUND_TRUTH))
def test_gen_ground_truth(kind, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--kind", kind, "--seed", "1",
                     "--out", str(tmp_path)]) == 0
    got = hashlib.sha256((tmp_path / "ground_truth.json").read_bytes())
    assert got.hexdigest() == GEN_GROUND_TRUTH[kind]
