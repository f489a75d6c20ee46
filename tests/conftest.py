"""Shared fixtures: small deterministic graphs and a session-wide run cache.

Training is the expensive part of this suite, so anything that needs a
trained embedding goes through `trained` / `trained_full`, which memoize per
(dataset, method, dim, seed) for the whole session. The acceptance tests
lean on this heavily; unit tests mostly build their own toy inputs.
"""

import warnings

import numpy as np
import pytest

from disene.graph_core import (GroundTruth, build_graph,
                               communities_from_labels, split_edges,
                               train_subgraph)
from disene.sampling import WalkConfig
from disene.synth import default_spec, generate_synthetic
from disene.training import LossConfig, train

ACCEPTANCE_LOG = []

# When a property test fails, Hypothesis's pytest plugin imports this module
# (and through it libcst) to suggest a patch. That import raises a
# DeprecationWarning, which filterwarnings = error turns into an
# INTERNALERROR that ends the session. Imported once here, with only that
# warning ignored, the plugin's later import finds it loaded.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LOG:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LOG:
            terminalreporter.write_line(line)


def clique_edges(nodes):
    return [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]


@pytest.fixture
def two_cliques():
    """Two 5-cliques bridged by one edge; labels 0/1 per clique."""
    a, b = list(range(5)), list(range(5, 10))
    g = build_graph(10, clique_edges(a) + clique_edges(b) + [(4, 5)])
    labels = np.array([0] * 5 + [1] * 5)
    return g, communities_from_labels(g, labels)


@pytest.fixture
def path_graph():
    return build_graph(6, [(i, i + 1) for i in range(5)])


def _method_config(method, seed):
    if method == "baseline-sgns":
        return LossConfig(lambda_dis=0.0, lambda_ent=0.0, seed=seed), "identity"
    return LossConfig(seed=seed), "relu"


def _encoder_kind(method):
    return "gcn" if method == "disene-gcn" else "fc"


@pytest.fixture(scope="session")
def run_cache():
    return {}


@pytest.fixture(scope="session")
def trained(run_cache):
    """Split-protocol run: train on the 90% edge subgraph.

    Returns (g, gts, split, h) for (dataset, method, dim, seed).
    """
    def _run(dataset, method, dim, seed):
        key = ("split", dataset, method, dim, seed)
        if key not in run_cache:
            g, gts = generate_synthetic(default_spec(dataset, seed=seed))
            split = split_edges(g, 0.1, seed)
            cfg, act = _method_config(method, seed)
            res = train(train_subgraph(g, split), cfg, WalkConfig(seed=seed),
                        kind=_encoder_kind(method), dim_hidden=128, dim=dim,
                        activation=act)
            run_cache[key] = (g, gts, split, res.embedding)
        return run_cache[key]
    return _run


@pytest.fixture(scope="session")
def trained_full(run_cache):
    """Interpretability-protocol run: train on the whole graph."""
    def _run(dataset, method, dim, seed, lambda_ent=1.0):
        key = ("full", dataset, method, dim, seed, lambda_ent)
        if key not in run_cache:
            g, gts = generate_synthetic(default_spec(dataset, seed=seed))
            cfg, act = _method_config(method, seed)
            if method != "baseline-sgns":
                cfg = LossConfig(lambda_ent=lambda_ent, seed=seed)
            res = train(g, cfg, WalkConfig(seed=seed),
                        kind=_encoder_kind(method), dim_hidden=128, dim=dim,
                        activation=act)
            run_cache[key] = (g, gts, res.embedding)
        return run_cache[key]
    return _run
