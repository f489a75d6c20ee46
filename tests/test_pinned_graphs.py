"""Pinned digests of generated graphs, edge splits, walk corpora and `gen`
output.

The graph and split digests were recorded from the tuple-set
implementation of the graph layer and the generators, the corpus digests
from the step-by-step walk loop, and the ground-truth digests from files
holding only node lists, which equal those of the older files that also
held edge indices and labels. The pair-code and CSR digests were recorded
while `Graph` still encoded the edge array it was given. A change to a generator, to the non-edge
sampler or to the walks that alters any graph, split, ground truth or
corpus fails here, so it has to say so and record new digests.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from disene.cli import main
from disene.graph_core import split_edges
from disene.sampling import WalkConfig, build_pair_batch
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

# (kind, seed) -> sha256 of g.codes, g.indices and g.indptr, each as
# little-endian int64: the pair codes edge lookups search, and the CSR
# adjacency walks and BFS read
CSR = {
    ("ring_cliques", 0): ("c02fb8da1b8b9f8f7800d588f232dbb9a51ed15863cb84e779603772b3ce522b",
                          "dc12949cd26810060d19107206bc3a9c58bdfc0f3b83f2a2a8f78f0176e41fd9",
                          "260b9719c79994bc3207cbd27d41eac0cb0e011ce8c69fbd013c74b21e8dc2cf"),
    ("ring_cliques", 1): ("0dac6164cc0d9d8c401482c9f6ba141025a7c311285f1d515fa20158df648829",
                          "f52b232b0171077dc868ec05f5b117a2de04ea27baa30875358381212a754db3",
                          "7598f8bd0307bc0867df369421df5cb1fd4689faff7c0652829dd802cd01bb18"),
    ("sbm_cliques", 0): ("74cce5093a50770e86eb4d6c582c09a6196822b979dac492469e555f8276aff9",
                         "31c34fdc649cef577bfb4e616ea3ce6ce567058021958030b47e3a1771f125d3",
                         "4242f7620f87fa9661a9e66945530a854ae038eb70cc575cb999d15c749acc06"),
    ("sbm_cliques", 1): ("00dd8ef832b574890a91c3658bd7a9e40bda4c59710b8e496201ddfd53ca8d72",
                         "831107ab9b2d305de2f3f4c067e39adcb1ae8ba079250f867c9b8ce711490c63",
                         "ee4ed7d035a2b8d4513e26bab1a40cfe359100226ef34ac43748d7bc6659833c"),
    ("ba_cliques", 0): ("5b40d509eb0b3c6876347bbffae277193a53751cae1fbea0758a9efec5e58924",
                        "6e70874ea7d0a321f3edb4ade10766a3232d75ec76cf9dcbed3b2eb7454bbb11",
                        "f51409af999fe7a4f3d554c35e281753841e8ea4736e8ecc17baae84d562173c"),
    ("ba_cliques", 1): ("a0b78ce05aa3b17f40172895f8a96a53d76f6138fbe59103515c07755016581e",
                        "584ce3f570d5baf736be84c33d52392377bba7e2d33a2ecfec29c07f9ea4d871",
                        "b959bd20cbab21bfe1bae139a99e3d9335acb3db30e648583277265f0b4dc03b"),
    ("er_cliques", 0): ("2e55ff2fd6caad762c71e9cb9b9250b6067a73cd82cdb7645e5180134fdd1bc6",
                        "d0df3b1d238d40e8d56f62f4ae4fb207d6198f41df22734d6264b3c1c264d9d3",
                        "1d9109819f5f81f97fe9272d9510c5e69a72b1ede3cd7a3ac212a6a3964ccdcf"),
    ("er_cliques", 1): ("d465667de543f6167808550dc26835f5b3cbbaeec6183981f610bf423eef2f7d",
                        "e844610be1c896fb51b234183d33a58c33b44e6f373ed047f40d24461c493789",
                        "90a94b26387440b568063fabfb67ed10b5311bf19e238dd1453b95fe8255798d"),
}

# (kind, seed) -> (sha256 of the positives, of the negatives) of
# build_pair_batch(g, WalkConfig(seed=seed)) on the generated graph
CORPORA = {
    ("ring_cliques", 0): ("123a11828a348565c494be09505cc2635832aa2acb540d752505d3be37fb1442",
                          "4e5959f1243967b1138cd22f2171f78ed3748af9a46ae962773e616668bcc434"),
    ("ring_cliques", 1): ("f1aee9ea148608d7ebeb29988be08848e98a8bb2c7e95aacdfc0bc2840979651",
                          "8f4ee28e06654028806a494acf8d5332a489eee1230e4853681954cab49beeb7"),
    ("sbm_cliques", 0): ("48e9b9d2e2642d50aa91c08108a47622bafff7564b0ebc36d952db011b5c123b",
                         "53837cd7b737b5b010e3ac381ebac86a91b88921691c1a4f4a3485ae019d8592"),
    ("sbm_cliques", 1): ("2a6ced7e38119a93440149bc4e4e20fe2d36b59faceb91635d596e6260127b28",
                         "99574e7786141a19504590412ed45468b0cfffa14fb8c4e18b8c58838e43221f"),
    ("ba_cliques", 0): ("e4b7c3f277849ad82ebf207fca1bccac6483ba35efde61ccf0c41b90f6829d59",
                        "146544dd5dd40f02e5322ec0699a191a4a3083474529ff422e2469bf85e0d6fc"),
    ("ba_cliques", 1): ("569d23fcc5acca558cd807c9712cea800fdf2b2fa70d8f7a4a0d7d381302cbed",
                        "128ab7ece0307bf54b76995d2b13ddb2cec18171ea361afe4f2269c048207b97"),
    ("er_cliques", 0): ("64c637453603cab7312feb7c41f9cd8725951425290d86f6a7ff3667695177bc",
                        "aacb935edd3ffee841ceed1be82d01ff6aab0ec33af465cde65828163a39f8e9"),
    ("er_cliques", 1): ("5f77f55e00b20451333be48ef65e1983b57fd5b3b94e3e4e18058f4e7577e50e",
                        "46aba036041fb60f424a26e9eb5ec2143c7de1975833a2435341384b52f44996"),
}

# kind -> sha256 of ground_truth.json from `disene gen --kind KIND --seed 1`
GEN_GROUND_TRUTH = {
    "ring": "b1f66a2f9ac31ff51c1dfa0fa8fbcd8f91a8b46906fffefbee2aab1eed2d76c4",
    "sbm": "30431160195d8c2b48404333c09ad4a343d1cf8bb4db0e404d3d64c8c078721e",
    "ba": "13998dc053e7e787c7685f1427a312dabb59a98460f78c1982035699e2071309",
    "er": "f2f8f5e078c915295c8e4e688a29db06743562e4c3cd4918cddd1c6114cd0007",
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


@pytest.mark.parametrize("kind,seed", sorted(CSR))
def test_codes_and_csr(kind, seed):
    g, _ = generate_synthetic(default_spec(kind, seed=seed))
    got = (_digest(g.codes), _digest(g.indices), _digest(g.indptr))
    assert got == CSR[kind, seed]


@pytest.mark.parametrize("kind,seed", sorted(CORPORA))
def test_walk_corpus(kind, seed):
    g, _ = generate_synthetic(default_spec(kind, seed=seed))
    batch = build_pair_batch(g, WalkConfig(seed=seed))
    got = (_digest(batch.positives), _digest(batch.negatives))
    assert got == CORPORA[kind, seed]


@pytest.mark.parametrize("kind", sorted(GEN_GROUND_TRUTH))
def test_gen_ground_truth(kind, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--kind", kind, "--seed", "1",
                     "--out", str(tmp_path)]) == 0
    got = hashlib.sha256((tmp_path / "ground_truth.json").read_bytes())
    assert got.hexdigest() == GEN_GROUND_TRUTH[kind]
