"""Command line workflow on miniature datasets: every subcommand in-process
through main(), checking artifacts, labeling rules, and error exits."""

import csv
import hashlib
import inspect
import json
import os
from dataclasses import fields

import numpy as np
import pytest

from disene import cli
from disene.cli import _build_parser, _resolve_run, main
from disene.downstream import fit_logreg, run_link_task, run_node_task
from disene.graph_core import load_edge_list, load_ground_truth
from disene.metrics import compute_report
from disene.model import load_embedding_binary, save_embedding_binary
from disene.sampling import WalkConfig
from disene.synth import default_spec, generate_synthetic
from disene.training import LossConfig, train

MICRO_GEN = ["--num-cliques", "4", "--clique-size", "4", "--noise-edges", "0"]
MICRO_TRAIN = ["--dim", "4", "--dim-hidden", "8", "--epochs", "3",
               "--walk-length", "6", "--num-walks", "2", "--window", "2"]
MICRO_BENCH = ["bench", "--datasets", "ring", "--methods", "disene-fc",
               "--dims", "2", "--seeds", "0", "--tasks", "link",
               "--permutations", "5"]


def _run(*argv) -> int:
    return main(list(argv))


def _status(*argv) -> int:
    """Exit status of main(argv), returned or raised as SystemExit."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def _config(tmp_path, **values) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(values))
    return str(path)


@pytest.fixture(scope="module")
def ring_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("ring_data")
    assert _run("gen", "--kind", "ring", *MICRO_GEN, "--out", str(out)) == 0
    return out


@pytest.fixture(scope="module")
def ring_ckpt(tmp_path_factory, ring_data):
    out = tmp_path_factory.mktemp("ring_ckpt")
    assert _run("train", "--data", str(ring_data / "edges.txt"),
                *MICRO_TRAIN, "--out", str(out)) == 0
    return out


@pytest.fixture(scope="module")
def ring_split_ckpt(tmp_path_factory, ring_data):
    out = tmp_path_factory.mktemp("ring_split_ckpt")
    assert _run("train", "--data", str(ring_data / "edges.txt"),
                *MICRO_TRAIN, "--split", "0.2", "--out", str(out)) == 0
    return out


@pytest.fixture(scope="module")
def ba_setup(tmp_path_factory):
    """Micro ba dataset (has background nodes) plus a checkpoint on it."""
    data = tmp_path_factory.mktemp("ba_data")
    assert _run("gen", "--kind", "ba", "--num-cliques", "3",
                "--clique-size", "4", "--base-nodes", "20", "--ba-m", "2",
                "--out", str(data)) == 0
    ckpt = tmp_path_factory.mktemp("ba_ckpt")
    assert _run("train", "--data", str(data / "edges.txt"), *MICRO_TRAIN,
                "--out", str(ckpt)) == 0
    return data, ckpt


class TestGen:
    def test_writes_exactly_three_files(self, ring_data):
        assert sorted(os.listdir(ring_data)) == ["edges.txt",
                                                 "ground_truth.json",
                                                 "labels.txt"]

    def test_labels_match_ground_truth(self, ring_data):
        gt = json.loads((ring_data / "ground_truth.json").read_text())
        labels = {}
        for line in (ring_data / "labels.txt").read_text().splitlines():
            v, lab = line.split()
            labels[int(v)] = int(lab)
        for i, comm in enumerate(gt["communities"]):
            for v in comm["nodes"]:
                assert labels[v] == i
        assert gt["generator"]["kind"] == "ring_cliques"

    def test_rerun_is_byte_identical(self, ring_data, tmp_path):
        assert _run("gen", "--kind", "ring", *MICRO_GEN,
                    "--out", str(tmp_path)) == 0
        for name in ("edges.txt", "labels.txt", "ground_truth.json"):
            assert (tmp_path / name).read_bytes() == (ring_data / name).read_bytes()

    def test_unknown_kind_fails(self, tmp_path):
        assert _run("gen", "--kind", "smallworld", "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("command, extra", [("gen", []),
                                                ("train", MICRO_TRAIN)])
    def test_er_base_that_cannot_connect_fails(self, tmp_path, capsys,
                                               command, extra):
        out = tmp_path / "out"
        assert _status(command, "--kind", "er", "--er-p", "0",
                       "--base-nodes", "30", "--num-cliques", "2", *extra,
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: er_cliques: ") and err.count("\n") == 1
        assert "base_nodes=30 and er_p=0.0" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["gen"], ["train", *MICRO_TRAIN]])
    def test_more_hooks_than_base_clique_pairs_fails(self, tmp_path, capsys,
                                                     command):
        # a clique of 2 has only 4 distinct hooks to a base of 2 nodes
        assert _run(*command, "--kind", "ba", "--clique-size", "2",
                    "--base-nodes", "2", "--ba-m", "1",
                    "--attach-edges-per-clique", "5",
                    "--out", str(tmp_path / "out")) == 2
        assert "exceeds the 4 distinct hooks" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, kind, given, flag", [
        ("gen", "sbm", ["--ba-m", "3"], "--ba-m"),
        ("gen", "sbm", ["--er-p", "0.5"], "--er-p"),
        ("gen", "sbm", ["--base-nodes", "30"], "--base-nodes"),
        ("gen", "sbm", ["--noise-edges", "3"], "--noise-edges"),
        ("gen", "ring", {"attach_edges_per_clique": 2},
         "--attach-edges-per-clique"),
        ("gen", "er", {"ba_m": 3}, "--ba-m"),
        ("train", "ba", ["--sbm-p-out", "0.1"], "--sbm-p-out"),
        ("train", "ring", {"base_nodes": 30}, "--base-nodes"),
    ])
    def test_setting_the_kind_does_not_read_fails(self, tmp_path, capsys,
                                                  command, kind, given, flag):
        # it would leave the graph as it is but change the recorded spec
        if isinstance(given, dict):
            given = ["--config", _config(tmp_path, **given)]
        assert _status(command, "--kind", kind, *given,
                       "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert f"{flag} does not go with --kind {kind}_cliques" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["ring", "sbm", "ba", "er"])
    def test_edge_list_keeps_the_generator_numbering(self, kind, tmp_path):
        # integer tokens are numbered by value, so --data and --kind name
        # one graph with one numbering
        assert _run("gen", "--kind", kind, "--seed", "1",
                    "--out", str(tmp_path)) == 0
        g = load_edge_list(tmp_path / "edges.txt")
        want, _ = generate_synthetic(default_spec(kind + "_cliques", seed=1))
        assert g.num_nodes == want.num_nodes
        np.testing.assert_array_equal(g.edges, want.edges)
        assert g.node_ids == [str(v) for v in range(want.num_nodes)]

    @pytest.mark.parametrize("kind", ["ring", "sbm", "ba", "er"])
    def test_ground_truth_reads_back_over_the_edge_list(self, kind, tmp_path):
        # the communities come back through the tokens, which hold for any
        # numbering the loader gives, not through the indices
        assert _run("gen", "--kind", kind, "--seed", "1",
                    "--out", str(tmp_path)) == 0
        g = load_edge_list(tmp_path / "edges.txt")
        gts = load_ground_truth(tmp_path / "ground_truth.json", g)
        want_g, want = generate_synthetic(default_spec(kind + "_cliques",
                                                       seed=1))
        assert gts.num_communities == want.num_communities
        ids = np.array([int(t) for t in g.node_ids])
        for c in range(want.num_communities):
            nodes = np.sort(ids[gts.members[c].indices])
            np.testing.assert_array_equal(nodes, want.members[c].indices)
            edges = ids[g.edges[gts.edge_members[c].indices]]
            assert (sorted(map(sorted, edges.tolist()))
                    == want_g.edges[want.edge_members[c].indices].tolist())


class TestTrain:
    def test_checkpoint_artifacts(self, ring_ckpt):
        names = sorted(os.listdir(ring_ckpt))
        assert names == ["embedding.bin", "embedding.txt", "run.json"]
        sidecar = json.loads((ring_ckpt / "run.json").read_text())
        assert sidecar["label"] == "disene-fc"
        assert sidecar["dim"] == 4
        assert sidecar["config"]["activation"] == "relu"
        assert len(sidecar["config_hash"]) == 12
        assert len(sidecar["loss_trace"]) == 3
        h = load_embedding_binary(ring_ckpt / "embedding.bin")
        assert h.shape == (sidecar["num_nodes"], 4)
        assert (h >= 0).all()

    def test_zero_weights_relabel_as_baseline(self, ring_data, tmp_path):
        assert _run("train", "--data", str(ring_data / "edges.txt"),
                    *MICRO_TRAIN, "--lambda-dis", "0", "--lambda-ent", "0",
                    "--out", str(tmp_path)) == 0
        sidecar = json.loads((tmp_path / "run.json").read_text())
        assert sidecar["label"] == "baseline-sgns"
        assert sidecar["config"]["activation"] == "identity"

    def test_baseline_method_defaults(self, ring_data, tmp_path):
        assert _run("train", "--data", str(ring_data / "edges.txt"),
                    *MICRO_TRAIN, "--method", "baseline-sgns",
                    "--out", str(tmp_path)) == 0
        sidecar = json.loads((tmp_path / "run.json").read_text())
        assert sidecar["label"] == "baseline-sgns"
        assert sidecar["config"]["lambda_dis"] == 0.0
        h = load_embedding_binary(tmp_path / "embedding.bin")
        assert (h < 0).any()

    def test_baseline_rejects_nonzero_weights(self, ring_data, tmp_path):
        assert _run("train", "--data", str(ring_data / "edges.txt"),
                    *MICRO_TRAIN, "--method", "baseline-sgns",
                    "--lambda-dis", "0.5", "--out", str(tmp_path)) == 2

    def test_missing_data_fails(self, tmp_path):
        assert _run("train", "--data", str(tmp_path / "nope.txt"),
                    *MICRO_TRAIN, "--out", str(tmp_path)) == 2

    def test_data_and_kind_conflict(self, ring_data, tmp_path):
        assert _run("train", "--data", str(ring_data / "edges.txt"),
                    "--kind", "ring", *MICRO_TRAIN,
                    "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--lambda-dis", "nan"), ("--lambda-ent", "inf"),
        ("--learning-rate", "nan")])
    def test_non_finite_loss_settings_fail(self, tmp_path, capsys, flag,
                                           value):
        assert _status("train", "--kind", "ring", *MICRO_GEN, *MICRO_TRAIN,
                       flag, value, "--out", str(tmp_path)) == 2
        assert "must be finite" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("split", ["-0.5", "nan", "1.0"])
    def test_split_outside_the_unit_interval_fails(self, tmp_path, capsys,
                                                   split):
        assert _status("train", "--kind", "ring", *MICRO_GEN, *MICRO_TRAIN,
                       "--split", split, "--out", str(tmp_path)) == 2
        assert "--split must lie in [0, 1)" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("given", [["--split-seed", "5"],
                                       ["--split", "0", "--split-seed", "5"],
                                       {"split_seed": 5}])
    def test_split_seed_without_split_fails(self, tmp_path, capsys, given):
        # without a split the seed draws nothing, yet would move config_hash
        if isinstance(given, dict):
            given = ["--config", _config(tmp_path, **given)]
        assert _status("train", "--kind", "ring", *MICRO_GEN, *MICRO_TRAIN,
                       *given, "--out", str(tmp_path / "out")) == 2
        assert "--split-seed goes with --split" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_split_holding_out_every_edge_fails(self, tmp_path, capsys):
        # round(0.9 * 3) holds out all three edges of a path
        data = tmp_path / "path4.txt"
        data.write_text("0 1\n1 2\n2 3\n")
        assert _run("train", "--data", str(data), *MICRO_TRAIN,
                    "--split", "0.9", "--out", str(tmp_path / "out")) == 2
        assert "3 test edges leaves one side empty" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_walk_too_short_for_the_window_fails(self, tmp_path, capsys):
        # one-node walks hold no window pair, so the corpus would be empty
        assert _status("train", "--kind", "ring", "--seed", "0", "--split",
                       "0.1", "--dim", "8", "--epochs", "2", "--walk-length",
                       "1", "--window", "1", "--out", str(tmp_path)) == 2
        assert ("window must satisfy 1 <= window < walk_length"
                in capsys.readouterr().err)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("flag, value", [("--learning-rate", "1e6"),
                                             ("--lambda-dis", "1e300"),
                                             ("--learning-rate", "1e300")])
    def test_diverging_run_fails(self, tmp_path, capsys, flag, value):
        assert _status("train", "--kind", "ring", "--epochs", "5", flag,
                       value, "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged ")
        assert " of 5: " in err
        assert os.listdir(tmp_path) == []

    def test_batch_size_is_not_a_setting(self, tmp_path):
        # training is full batch only, so no batch size can be set
        assert _status("train", "--kind", "ring", *MICRO_GEN, *MICRO_TRAIN,
                       "--batch-size", "8", "--out", str(tmp_path)) == 2
        cfg = _config(tmp_path, batch_size=8)
        assert _status("train", "--kind", "ring", *MICRO_GEN, *MICRO_TRAIN,
                       "--config", cfg, "--out", str(tmp_path)) == 2

    def test_every_own_flag_is_recorded(self):
        # train's own flags are its options beyond gen's (the shared and
        # generator flags) and --data; run.json's config records each of
        # them, the seed, and the encoder, which --method decides
        parser = _build_parser()
        train = parser.parse_args(["train"])
        gen = parser.parse_args(["gen"])
        own = set(train.config_keys) - set(gen.config_keys) - {"data"}
        recorded = set(_resolve_run(train).config)
        assert own | {"seed"} == recorded - {"encoder"}

    def test_flag_defaults_are_the_library_defaults(self):
        parser = _build_parser()
        flags = parser.parse_args(["train"])

        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        assert flags.dim == default(train, "dim")
        assert flags.dim_hidden == default(train, "dim_hidden")
        for command in ("evaluate", "bench"):
            assert (parser.parse_args([command]).permutations
                    == default(compute_report, "num_permutations"))
        l2 = parser.parse_args(["downstream"]).l2
        for fn in (fit_logreg, run_link_task, run_node_task):
            assert l2 == default(fn, "l2")
        for f in fields(WalkConfig):
            if f.name != "seed":
                assert getattr(flags, f.name) == f.default
        assert flags.epochs == LossConfig.epochs
        assert flags.learning_rate == LossConfig.learning_rate


class TestConfigFile:
    def test_config_supplies_values_and_flags_win(self, ring_data, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dim": 4, "dim_hidden": 8, "epochs": 2, "walk_length": 6,
            "num_walks": 2, "window": 2}))
        out = tmp_path / "run"
        assert _run("train", "--data", str(ring_data / "edges.txt"),
                    "--config", str(cfg), "--dim", "5",
                    "--out", str(out)) == 0
        sidecar = json.loads((out / "run.json").read_text())
        assert sidecar["dim"] == 5            # flag beat the config
        assert sidecar["config"]["epochs"] == 2

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = _config(tmp_path, dimension=4)
        assert _status("gen", "--kind", "ring", "--config", cfg,
                       "--out", str(tmp_path)) == 2
        assert "unknown config key 'dimension'" in capsys.readouterr().err

    def test_wrong_type_rejected(self, tmp_path, capsys):
        cfg = _config(tmp_path, num_cliques="four")
        assert _status("gen", "--kind", "ring", "--config", cfg,
                       "--out", str(tmp_path)) == 2
        assert ("config key 'num_cliques' expects int"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv, key, value", [
        (["train", "--kind", "ring", *MICRO_GEN, *MICRO_TRAIN],
         "l2", 0.5),                          # a downstream key
        (["train", "--kind", "ring", *MICRO_GEN, *MICRO_TRAIN],
         "permutations", 3),                  # an evaluate key
        (["train", "--kind", "ring", *MICRO_GEN, *MICRO_TRAIN],
         "workers", 9),                       # a bench key
        (["bench", "--datasets", "ring", "--methods", "disene-fc",
          "--dims", "2", "--seeds", "0", "--tasks", "link",
          "--permutations", "5"],
         "epochs", 1),                        # bench trains with train's defaults
    ])
    def test_key_of_another_subcommand_rejected(self, tmp_path, capsys,
                                                argv, key, value):
        cfg = _config(tmp_path, **{key: value})
        assert _status(*argv, "--config", cfg, "--out", str(tmp_path)) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_value_outside_the_flag_choices_rejected(self, tmp_path):
        cfg = _config(tmp_path, method="deepwalk")
        assert _status("train", "--kind", "ring", "--config", cfg,
                       "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("flags, values", [
        (["--learning-rate", "1", "--split", "0"],
         {"learning_rate": 1, "split": 0}),
        (["--learning-rate", "0.30000000000000004", "--lambda-ent", "0.5"],
         {"learning_rate": 0.1 + 0.2, "lambda_ent": 0.5}),
    ])
    def test_flag_and_config_give_one_hash(self, ring_data, tmp_path, flags,
                                           values):
        # a config value goes through its flag's type: an integer for a
        # float setting is recorded, and hashed, as that float
        graph = ["--data", str(ring_data / "edges.txt"), *MICRO_TRAIN]
        assert _run("train", *graph, *flags,
                    "--out", str(tmp_path / "flags")) == 0
        assert _run("train", *graph, "--config", _config(tmp_path, **values),
                    "--out", str(tmp_path / "config")) == 0
        flag_run, config_run = (
            json.loads((tmp_path / name / "run.json").read_text())
            for name in ("flags", "config"))
        assert (json.dumps(flag_run["config"], sort_keys=True)
                == json.dumps(config_run["config"], sort_keys=True))
        assert flag_run["config_hash"] == config_run["config_hash"]

    @pytest.mark.parametrize("key, items", [
        ("datasets", ["ring,sbm"]), ("methods", [""]),
        ("tasks", ["link", ""])])
    def test_list_item_no_flag_can_carry_rejected(self, tmp_path, capsys,
                                                 key, items):
        cfg = _config(tmp_path, **{key: items})
        assert _status(*MICRO_BENCH, "--config", cfg,
                       "--out", str(tmp_path / "out")) == 2
        assert "cannot be empty or hold a comma" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_deterministic_reexecs_single_threaded(self, tmp_path,
                                                         monkeypatch):
        class Reexec(Exception):
            pass

        def fake_execvpe(path, argv, env):
            raise Reexec(env)

        monkeypatch.delenv("DISENE_THREADS", raising=False)
        monkeypatch.setattr(os, "execvpe", fake_execvpe)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"deterministic": True}))
        with pytest.raises(Reexec) as ei:
            _run("gen", "--kind", "ring", *MICRO_GEN, "--config", str(cfg),
                 "--out", str(tmp_path))
        env = ei.value.args[0]
        assert env["OPENBLAS_NUM_THREADS"] == "1"
        assert env["DISENE_THREADS"] == "1"

    @pytest.mark.parametrize("argv, cfg, key", [
        (["gen", "--kind", "ring", *MICRO_GEN, "--threads", "0"], {},
         "threads"),
        (["gen", "--kind", "ring", *MICRO_GEN, "--threads", "-2"], {},
         "threads"),
        (["gen", "--kind", "ring", *MICRO_GEN], {"threads": 0}, "threads"),
        ([*MICRO_BENCH, "--workers", "0", "--threads", "1"], {}, "workers"),
        ([*MICRO_BENCH, "--threads", "1"], {"workers": -1}, "workers"),
    ])
    def test_counts_below_one_fail_before_any_reexec(self, tmp_path, capsys,
                                                     monkeypatch, argv, cfg,
                                                     key):
        calls = []
        monkeypatch.delenv("DISENE_THREADS", raising=False)
        monkeypatch.setattr(os, "execvpe", lambda *a: calls.append(a))
        if cfg:
            argv = [*argv, "--config", _config(tmp_path, **cfg)]
        assert _status(*argv, "--out", str(tmp_path / "out")) == 2
        assert f"--{key} must be at least 1" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("argv, cfg, flag", [
        (["gen", "--kind", "ring", *MICRO_GEN, "--seed", "-1"], {}, "seed"),
        (["gen", "--kind", "ring", *MICRO_GEN, "--threads", "1"],
         {"seed": -1}, "seed"),
        (["train", "--kind", "ring", *MICRO_GEN, *MICRO_TRAIN,
          "--seed", "-1"], {}, "seed"),
        (["train", "--kind", "ring", *MICRO_GEN, *MICRO_TRAIN, "--split",
          "0.1", "--split-seed", "-1"], {}, "split-seed"),
        (["train", "--kind", "ring", *MICRO_GEN, *MICRO_TRAIN, "--split",
          "0.1", "--threads", "1"], {"split_seed": -2}, "split-seed"),
        (["downstream", "--checkpoint", "ckpt", "--seed", "-1"], {}, "seed"),
        ([*MICRO_BENCH, "--seeds", "0,-1"], {}, "seeds"),
        (["bench", "--datasets", "ring", "--threads", "1"], {"seeds": [-1]},
         "seeds"),
    ])
    def test_negative_seeds_fail_before_any_reexec(self, tmp_path, capsys,
                                                   monkeypatch, argv, cfg,
                                                   flag):
        calls = []
        monkeypatch.delenv("DISENE_THREADS", raising=False)
        monkeypatch.setattr(os, "execvpe", lambda *a: calls.append(a))
        if cfg:
            argv = [*argv, "--config", _config(tmp_path, **cfg)]
        assert _status(*argv, "--out", str(tmp_path / "out")) == 2
        assert f"--{flag} must be at least 0, got -" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def ring_noiseless_ckpt(tmp_path_factory):
    """Checkpoint on the default ring graph with the noise edges turned off."""
    out = tmp_path_factory.mktemp("ring_noiseless")
    assert _run("train", "--kind", "ring", "--noise-edges", "0",
                *MICRO_TRAIN, "--out", str(out)) == 0
    return out


class TestProvenance:
    def test_checkpoint_rebuilds_its_own_graph(self, ring_noiseless_ckpt,
                                               tmp_path):
        sidecar = json.loads((ring_noiseless_ckpt / "run.json").read_text())
        assert sidecar["data"]["spec"]["noise_edges"] == 0
        assert sidecar["graph"]["num_edges"] == 1472
        assert _run("explain", "--checkpoint", str(ring_noiseless_ckpt),
                    "--out", str(tmp_path)) == 0
        data = json.loads((tmp_path / "explanations.json").read_text())
        assert data["background_size"] == 1472
        assert _run("evaluate", "--checkpoint", str(ring_noiseless_ckpt),
                    "--permutations", "5", "--out", str(tmp_path)) == 0

    @pytest.mark.parametrize("command", [
        ["explain"], ["evaluate"], ["downstream", "--task", "node"]])
    def test_other_graph_is_refused(self, ring_noiseless_ckpt, tmp_path,
                                    command, capsys):
        # --kind ring alone means the default ring, 147 noise edges more
        assert _run(*command, "--checkpoint", str(ring_noiseless_ckpt),
                    "--kind", "ring", "--out", str(tmp_path / "out")) == 2
        assert "not the one the checkpoint was trained on" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["explain", "evaluate", "downstream"])
    def test_data_and_kind_conflict(self, ring_split_ckpt, ring_data,
                                    tmp_path, command, capsys):
        assert _run(command, "--checkpoint", str(ring_split_ckpt),
                    "--data", str(ring_data / "edges.txt"), "--kind", "ring",
                    "--out", str(tmp_path)) == 2
        assert "give either --data or --kind, not both" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("graph", [[], ["--kind", "ring",
                                            "--noise-edges", "0"]])
    def test_ground_truth_needs_an_edge_list(self, ring_noiseless_ckpt,
                                             ring_data, tmp_path, graph,
                                             capsys):
        # a synthetic graph brings its own ground truth
        assert _run("evaluate", "--checkpoint", str(ring_noiseless_ckpt),
                    *graph, "--ground-truth",
                    str(ring_data / "ground_truth.json"),
                    "--out", str(tmp_path)) == 2
        assert "--ground-truth" in capsys.readouterr().err

    def test_generator_flags_match_config(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        assert _run("train", "--kind", "ring", *MICRO_GEN, *MICRO_TRAIN,
                    "--out", str(ckpt)) == 0
        assert _run("explain", "--checkpoint", str(ckpt), "--kind", "ring",
                    *MICRO_GEN, "--out", str(tmp_path / "flags")) == 0
        cfg = _config(tmp_path, kind="ring", num_cliques=4, clique_size=4,
                      noise_edges=0)
        assert _run("explain", "--checkpoint", str(ckpt), "--config", cfg,
                    "--out", str(tmp_path / "config")) == 0
        assert ((tmp_path / "flags" / "explanations.json").read_bytes()
                == (tmp_path / "config" / "explanations.json").read_bytes())
        # the flags name the graph: a different one is refused
        assert _run("explain", "--checkpoint", str(ckpt), "--kind", "ring",
                    *MICRO_GEN, "--num-cliques", "5",
                    "--out", str(tmp_path / "other")) == 2

    @pytest.mark.parametrize("command", [
        ["explain"], ["evaluate"], ["downstream", "--task", "node"]])
    def test_embedding_of_another_graph_is_refused(self, ring_ckpt, ba_setup,
                                                   tmp_path, command, capsys):
        # the ba run's embedding, then one of the ring graph with K = 6 in
        # place of the K = 4 run.json records
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "run.json").write_bytes((ring_ckpt / "run.json").read_bytes())
        num_nodes = json.loads((ring_ckpt / "run.json").read_text())[
            "num_nodes"]
        for i, write in enumerate([
                lambda p: p.write_bytes(
                    (ba_setup[1] / "embedding.bin").read_bytes()),
                lambda p: save_embedding_binary(p, np.ones((num_nodes, 6)))]):
            write(ckpt / "embedding.bin")
            out = tmp_path / f"out{i}"
            assert _run(*command, "--checkpoint", str(ckpt),
                        "--out", str(out)) == 2
            assert "run.json records" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("command, broken", [
        (["explain", "--background", "train"], "config"),
        (["evaluate"], "seed"),
        (["downstream", "--task", "link"], "config_hash"),
        (["downstream", "--task", "node"], "config.split_seed"),
        (["explain"], None),
        (["evaluate"], None),
        (["downstream", "--task", "link"], None),
        (["evaluate"], ("data.spec.foo", 1)),
        (["evaluate"], ("data.spec.num_cliques", "8")),
        (["downstream", "--task", "link"], ("config.split", "0.1")),
        (["evaluate"], ("seed", "7")),
        (["evaluate"], ("dim", 4.0))])
    def test_malformed_run_json_is_refused(self, ring_split_ckpt, ring_data,
                                           tmp_path, capsys, command, broken):
        # `broken` names the entry taken out, or is (entry, value) for one
        # set to a value it cannot hold; None makes run.json a list. A
        # data.spec entry is one of the generator spec `gen` recorded for
        # the checkpoint's edge list, which names the same graph.
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "embedding.bin").write_bytes(
            (ring_split_ckpt / "embedding.bin").read_bytes())
        sidecar = json.loads((ring_split_ckpt / "run.json").read_text())
        broken, value = broken if isinstance(broken, tuple) else (broken, None)
        if broken is None:
            sidecar = list(sidecar)
        else:
            if broken.startswith("data.spec."):
                truth = json.loads((ring_data / "ground_truth.json").read_text())
                sidecar["data"] = {"spec": truth["generator"]}
            *path, key = broken.split(".")
            entries = sidecar
            for step in path:
                entries = entries[step]
            if value is None:
                del entries[key]
            else:
                entries[key] = value
        (ckpt / "run.json").write_text(json.dumps(sidecar))
        assert _run(*command, "--checkpoint", str(ckpt),
                    "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint ") and err.count("\n") == 1
        if broken is None:
            assert "run.json holds no JSON object" in err
        elif value is None:
            assert f"run.json records no {broken!r}" in err
        else:
            assert f"{key!r}" in err
        assert "retrain the checkpoint" in err
        assert not (tmp_path / "out").exists()

    def test_train_records_what_the_checkpoint_reader_needs(self, ring_ckpt):
        # the writer and the one reader of run.json agree on its entries
        sidecar = json.loads((ring_ckpt / "run.json").read_text())
        assert set(cli._SIDECAR_KEYS) <= set(sidecar)
        assert set(cli._SIDECAR_CONFIG_KEYS) <= set(sidecar["config"])
        got, h = cli._load_checkpoint(str(ring_ckpt))
        assert got == sidecar
        assert h.shape == (sidecar["num_nodes"], sidecar["dim"])

    def test_outputs_name_their_graph(self, tmp_path):
        # the same settings on two graphs give one config hash; the graph
        # fingerprint in every output tells them apart
        fingerprints = []
        for base in ("20", "24"):
            ckpt, out = tmp_path / f"ckpt{base}", tmp_path / f"out{base}"
            assert _run("train", "--kind", "ba", "--num-cliques", "3",
                        "--clique-size", "4", "--base-nodes", base,
                        "--ba-m", "2", *MICRO_TRAIN, "--split", "0.2",
                        "--out", str(ckpt)) == 0
            for command in (["evaluate", "--permutations", "5"],
                            ["downstream", "--task", "link"],
                            ["downstream", "--task", "node"]):
                assert _run(*command, "--checkpoint", str(ckpt),
                            "--out", str(out)) == 0
            sidecar = json.loads((ckpt / "run.json").read_text())
            report = json.loads((out / "report.json").read_text())
            assert report["metadata"]["graph"] == sidecar["graph"]
            assert report["metadata"]["data"] == sidecar["data"]
            for task in ("link", "node"):
                payload = json.loads((out / f"{task}_task.json").read_text())
                assert payload["graph"] == sidecar["graph"]
                assert payload["data"] == sidecar["data"]
                assert payload["config_hash"] == sidecar["config_hash"]
            fingerprints.append((sidecar["config_hash"], sidecar["graph"]))
        (hash_a, graph_a), (hash_b, graph_b) = fingerprints
        assert hash_a == hash_b and graph_a != graph_b

    def test_data_checkpoint_records_the_file(self, ring_ckpt, ring_data):
        sidecar = json.loads((ring_ckpt / "run.json").read_text())
        assert sidecar["data"]["path"] == str(ring_data / "edges.txt")
        assert len(sidecar["data"]["sha256"]) == 64

    def test_relative_data_path_serves_any_directory(self, ring_data, tmp_path,
                                                     monkeypatch):
        # train records the edge list's absolute path, so a checkpoint
        # command run from another directory still finds it
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "edges.txt").write_bytes(
            (ring_data / "edges.txt").read_bytes())
        monkeypatch.chdir(tmp_path)
        assert _run("train", "--data", "data/edges.txt", *MICRO_TRAIN,
                    "--out", "ckpt") == 0
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert _status("evaluate", "--checkpoint", str(tmp_path / "ckpt"),
                       "--permutations", "5", "--out", "out") == 0
        sidecar = json.loads((tmp_path / "ckpt" / "run.json").read_text())
        assert sidecar["data"]["path"] == str(tmp_path / "data" / "edges.txt")

    def test_outputs_name_their_edge_list(self, ba_setup, tmp_path):
        # report.json and the task files carry run.json's data reference,
        # here the edge list's path and sha256
        data = ba_setup[0]
        ckpt, out = tmp_path / "ckpt", tmp_path / "out"
        assert _run("train", "--data", str(data / "edges.txt"), *MICRO_TRAIN,
                    "--split", "0.2", "--out", str(ckpt)) == 0
        truth = ["--ground-truth", str(data / "ground_truth.json")]
        for command in (["evaluate", "--permutations", "5"],
                        ["downstream", "--task", "link"],
                        ["downstream", "--task", "node"]):
            assert _run(*command, "--checkpoint", str(ckpt), *truth,
                        "--out", str(out)) == 0
        want = json.loads((ckpt / "run.json").read_text())["data"]
        assert want["path"] == str(data / "edges.txt")
        report = json.loads((out / "report.json").read_text())
        assert report["metadata"]["data"] == want
        for task in ("link", "node"):
            payload = json.loads((out / f"{task}_task.json").read_text())
            assert payload["data"] == want

    @pytest.mark.parametrize("command, given", [
        ("explain", ["--seed", "5"]),
        ("evaluate", ["--seed", "5"]),
        ("explain", ["--num-cliques", "64"]),
        ("evaluate", ["--noise-edges", "999"]),
        ("downstream", ["--num-cliques", "64"]),
        ("explain", {"num_cliques": 64}),
        ("evaluate", {"seed": 5}),
        ("downstream", {"er_p": 0.5}),
    ])
    def test_generator_setting_without_kind_fails(self, ring_noiseless_ckpt,
                                                  tmp_path, capsys, command,
                                                  given):
        # without --kind the checkpoint names the graph, so a generator
        # setting, or the generator seed of explain and evaluate, would be
        # ignored
        if isinstance(given, dict):
            given = ["--config", _config(tmp_path, **given)]
        assert _status(command, "--checkpoint", str(ring_noiseless_ckpt),
                       *given, "--out", str(tmp_path / "out")) == 2
        assert "goes with --kind" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("given", [["--num-cliques", "64"], {"ba_m": 3}])
    def test_generator_setting_with_an_edge_list_fails(self, ring_data,
                                                       tmp_path, capsys,
                                                       given):
        if isinstance(given, dict):
            given = ["--config", _config(tmp_path, **given)]
        assert _status("train", "--data", str(ring_data / "edges.txt"),
                       *MICRO_TRAIN, *given,
                       "--out", str(tmp_path / "out")) == 2
        assert "goes with --kind" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_downstream_seed_is_the_task_seed(self, ba_setup, tmp_path):
        data, ckpt = ba_setup
        assert _run("downstream", "--checkpoint", str(ckpt),
                    "--data", str(data / "edges.txt"),
                    "--ground-truth", str(data / "ground_truth.json"),
                    "--task", "node", "--seed", "5",
                    "--out", str(tmp_path)) == 0
        assert json.loads((tmp_path / "node_task.json").read_text())[
            "seed"] == 5


class TestExplain:
    def test_writes_explanations(self, ring_ckpt, ring_data, tmp_path):
        assert _run("explain", "--checkpoint", str(ring_ckpt),
                    "--data", str(ring_data / "edges.txt"),
                    "--out", str(tmp_path)) == 0
        data = json.loads((tmp_path / "explanations.json").read_text())
        assert data["num_dims"] == 4
        assert len(data["dims"]) == 4

    def test_train_background_needs_a_split(self, ring_ckpt, ring_data,
                                            tmp_path):
        assert _run("explain", "--checkpoint", str(ring_ckpt),
                    "--data", str(ring_data / "edges.txt"),
                    "--background", "train", "--out", str(tmp_path)) == 2

    def test_train_background_on_split_checkpoint(self, ring_split_ckpt,
                                                  ring_data, tmp_path):
        assert _run("explain", "--checkpoint", str(ring_split_ckpt),
                    "--data", str(ring_data / "edges.txt"),
                    "--background", "train", "--out", str(tmp_path)) == 0


class TestEvaluate:
    def test_single_checkpoint_report(self, ring_ckpt, ring_data, tmp_path):
        assert _run("evaluate", "--checkpoint", str(ring_ckpt),
                    "--data", str(ring_data / "edges.txt"),
                    "--ground-truth", str(ring_data / "ground_truth.json"),
                    "--permutations", "20", "--out", str(tmp_path)) == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["metrics"]["num_dims"] == 4
        assert "comprehensibility_mean" in rep["metrics"]
        with open(tmp_path / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["metric"] for r in rows} >= {"num_dims", "sparsity_score"}
        assert all(r["n"] == "1" for r in rows)

    # edge indices and labels belong to the older format, which is refused
    # whatever they hold; a node name must be one of the edge list's tokens
    @pytest.mark.parametrize("key,bad", [("edge_indices", [-1, -2, -3]),
                                         ("edge_indices", [1000000]),
                                         ("nodes", [1000000]),
                                         ("labels", [0]),
                                         ("nodes", ["n0"])])
    def test_ground_truth_index_outside_the_graph_fails(self, ba_setup,
                                                        tmp_path, key, bad,
                                                        capsys):
        data, ckpt = ba_setup
        gt = json.loads((data / "ground_truth.json").read_text())
        (gt if key == "labels" else gt["communities"][0])[key] = bad
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(gt))
        graph = ["--data", str(data / "edges.txt"), "--ground-truth",
                 str(path), "--out", str(tmp_path)]
        assert _status("evaluate", "--checkpoint", str(ckpt), *graph,
                       "--permutations", "2") == 2
        assert _status("downstream", "--checkpoint", str(ckpt), *graph,
                       "--task", "node") == 2
        err = capsys.readouterr().err
        assert err.count("error: ground") == 2
        assert {"nodes": "names node", "labels": "unknown keys"}.get(
            key, "one key, 'nodes'") in err
        assert os.listdir(tmp_path) == ["gt.json"]

    def test_multi_checkpoint_aggregation(self, ring_data, tmp_path):
        ckpts = []
        for seed in (0, 1):
            d = tmp_path / f"ckpt{seed}"
            assert _run("train", "--data", str(ring_data / "edges.txt"),
                        *MICRO_TRAIN, "--seed", str(seed),
                        "--out", str(d)) == 0
            ckpts.append(str(d))
        out = tmp_path / "agg"
        assert _run("evaluate", *ckpts,
                    "--data", str(ring_data / "edges.txt"),
                    "--ground-truth", str(ring_data / "ground_truth.json"),
                    "--permutations", "20", "--out", str(out)) == 0
        assert (out / "report_0.json").exists()
        assert (out / "report_1.json").exists()
        with open(out / "summary.csv", newline="") as fh:
            rows = {r["metric"]: r for r in csv.DictReader(fh)}
        assert rows["num_dims"]["n"] == "2"
        assert float(rows["num_dims"]["mean"]) == 4.0

    def test_dim_mismatch_fails(self, ring_ckpt, ring_data, tmp_path):
        assert _run("evaluate", "--checkpoint", str(ring_ckpt),
                    "--data", str(ring_data / "edges.txt"), "--dim", "8",
                    "--out", str(tmp_path)) == 2

    def test_positional_and_flag_checkpoint_conflict(self, ring_ckpt,
                                                     tmp_path):
        assert _run("evaluate", str(ring_ckpt), "--checkpoint",
                    str(ring_ckpt), "--out", str(tmp_path)) == 2

    def test_toggles_in_config(self, ring_ckpt, tmp_path):
        cfg = _config(tmp_path, no_ovc=True, no_poc=True)
        assert _run("evaluate", "--checkpoint", str(ring_ckpt),
                    "--config", cfg, "--out", str(tmp_path)) == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert "ovc" not in rep["metrics"]
        assert "poc" not in rep["metrics"]
        assert "sparsity_score" in rep["metrics"]

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_permutations_below_one_fail(self, ring_ckpt, tmp_path, count,
                                         capsys):
        # 0 permutations used to write "poc": NaN, which is not JSON
        assert _run("evaluate", "--checkpoint", str(ring_ckpt),
                    "--permutations", count, "--out", str(tmp_path)) == 2
        assert "--permutations must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_toggles_drop_metrics(self, ring_ckpt, ring_data, tmp_path):
        assert _run("evaluate", "--checkpoint", str(ring_ckpt),
                    "--data", str(ring_data / "edges.txt"),
                    "--no-ovc", "--no-poc", "--out", str(tmp_path)) == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert "ovc" not in rep["metrics"]
        assert "poc" not in rep["metrics"]


class TestDownstream:
    def test_link_task_outputs(self, ring_split_ckpt, ring_data, tmp_path):
        assert _run("downstream", "--checkpoint", str(ring_split_ckpt),
                    "--data", str(ring_data / "edges.txt"),
                    "--ground-truth", str(ring_data / "ground_truth.json"),
                    "--task", "link", "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "link_task.json").read_text())
        assert payload["task"] == "link"
        assert 0.0 <= payload["auc_pr"] <= 1.0
        with open(tmp_path / "link_instances.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == payload["instances"]
        for r in rows:
            assert "-" in r["instance"]
            assert 0.0 <= float(r["plausibility"]) <= 1.0

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_split_comes_only_from_the_checkpoint(self, ring_ckpt, ring_data,
                                                  tmp_path, how):
        # ring_ckpt trained on every edge: no split can hold out edges the
        # embedding has not seen, so naming one is refused
        given = (["--split", "0.2"] if how == "flag"
                 else ["--config", _config(tmp_path, split=0.2)])
        assert _status("downstream", "--checkpoint", str(ring_ckpt),
                       "--data", str(ring_data / "edges.txt"),
                       "--ground-truth", str(ring_data / "ground_truth.json"),
                       "--task", "link", *given,
                       "--out", str(tmp_path)) == 2
        assert not (tmp_path / "link_task.json").exists()

    def test_link_task_needs_a_split(self, ring_ckpt, ring_data, tmp_path):
        assert _run("downstream", "--checkpoint", str(ring_ckpt),
                    "--data", str(ring_data / "edges.txt"),
                    "--ground-truth", str(ring_data / "ground_truth.json"),
                    "--task", "link", "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("l2", ["nan", "inf", "-1", "0"])
    def test_l2_must_be_finite_and_positive(self, ring_split_ckpt, ring_data,
                                            tmp_path, capsys, l2):
        assert _run("downstream", "--checkpoint", str(ring_split_ckpt),
                    "--data", str(ring_data / "edges.txt"),
                    "--ground-truth", str(ring_data / "ground_truth.json"),
                    "--task", "link", "--l2", l2, "--out", str(tmp_path)) == 2
        assert "l2 must be a finite number > 0" in capsys.readouterr().err
        assert not (tmp_path / "link_task.json").exists()

    def test_link_task_on_a_truth_without_communities(self, ring_split_ckpt,
                                                      ring_data, tmp_path):
        # no test edge lies in a community: AUC-PR alone, as when the
        # communities miss every test edge
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps({"communities": []}))
        out = tmp_path / "out"
        assert _run("downstream", "--checkpoint", str(ring_split_ckpt),
                    "--data", str(ring_data / "edges.txt"),
                    "--ground-truth", str(truth),
                    "--task", "link", "--out", str(out)) == 0
        payload = json.loads((out / "link_task.json").read_text())
        assert 0.0 <= payload["auc_pr"] <= 1.0
        assert payload["plausibility"] is None
        assert payload["instances"] == 0 and payload["skipped"] == 0
        assert (out / "link_instances.csv").read_text().splitlines() == [
            "instance,community,plausibility"]

    def test_node_task_outputs(self, ba_setup, tmp_path):
        data, ckpt = ba_setup
        assert _run("downstream", "--checkpoint", str(ckpt),
                    "--data", str(data / "edges.txt"),
                    "--ground-truth", str(data / "ground_truth.json"),
                    "--task", "node", "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "node_task.json").read_text())
        assert payload["task"] == "node"
        assert (tmp_path / "node_instances.csv").exists()

    def test_node_task_without_background_nodes_fails(self, ring_split_ckpt,
                                                      ring_data, tmp_path):
        assert _run("downstream", "--checkpoint", str(ring_split_ckpt),
                    "--data", str(ring_data / "edges.txt"),
                    "--ground-truth", str(ring_data / "ground_truth.json"),
                    "--task", "node", "--out", str(tmp_path)) == 2


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    rc = main(["bench", "--datasets", "ring", "--methods", "disene-fc",
               "--dims", "2", "--seeds", "0", "--tasks", "link",
               "--permutations", "20", "--out", str(out)])
    assert rc == 0
    return out


class TestBench:
    def test_results_table(self, bench_dir):
        with open(bench_dir / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        metrics = {r["metric"] for r in rows}
        assert {"link_auc_pr", "link_plausibility",
                "comprehensibility_mean", "sparsity_score"} <= metrics
        for r in rows:
            assert r["dataset"] == "ring_cliques"
            assert r["method"] == "disene-fc"
            assert r["dim"] == "2" and r["seed"] == "0"
            assert len(r["config_hash"]) == 12

    def test_rows_name_their_graph(self, bench_dir):
        g, _ = generate_synthetic(default_spec("ring_cliques", seed=0))
        edges = np.ascontiguousarray(g.edges, dtype="<i8")
        want = hashlib.sha256(edges.tobytes()).hexdigest()[:12]
        with open(bench_dir / "results.csv", newline="") as fh:
            assert {r["graph"] for r in csv.DictReader(fh)} == {want}

    def test_summaries_written(self, bench_dir):
        with open(bench_dir / "summary_plausibility.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert any(r["task"] == "link" for r in rows)
        assert (bench_dir / "summary_interpretability.csv").exists()

    def test_config_hash_matches_the_equivalent_train_run(self, bench_dir,
                                                           tmp_path):
        assert _run("train", "--kind", "ring", "--method", "disene-fc",
                    "--dim", "2", "--seed", "0", "--split", "0.1",
                    "--out", str(tmp_path)) == 0
        sidecar = json.loads((tmp_path / "run.json").read_text())
        with open(bench_dir / "results.csv", newline="") as fh:
            hashes = {r["config_hash"] for r in csv.DictReader(fh)}
        assert hashes == {sidecar["config_hash"]}

    def test_resume_skips_finished_runs(self, bench_dir, capsys):
        before = (bench_dir / "results.csv").read_bytes()
        rc = main(["bench", "--datasets", "ring", "--methods", "disene-fc",
                   "--dims", "2", "--seeds", "0", "--tasks", "link",
                   "--permutations", "20", "--out", str(bench_dir)])
        assert rc == 0
        assert "1 already done, 0 to go" in capsys.readouterr().out
        assert (bench_dir / "results.csv").read_bytes() == before

    def test_resume_from_a_file_without_the_graph_column(self, bench_dir,
                                                         tmp_path, capsys):
        with open(bench_dir / "results.csv", newline="") as fh:
            old = [{k: v for k, v in r.items() if k != "graph"}
                   for r in csv.DictReader(fh)]
        with open(tmp_path / "results.csv", "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(old[0]))
            w.writeheader()
            w.writerows(old)
        rc = main(["bench", "--datasets", "ring", "--methods", "disene-fc",
                   "--dims", "2", "--seeds", "0,1", "--tasks", "link",
                   "--permutations", "5", "--out", str(tmp_path)])
        assert rc == 0
        assert "1 already done, 1 to go" in capsys.readouterr().out
        with open(tmp_path / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        graphs = {r["seed"]: set() for r in rows}
        for r in rows:
            graphs[r["seed"]].add(r["graph"])
        # the old rows keep no graph; the new run names its own
        assert graphs["0"] == {""}
        assert len(graphs["1"]) == 1 and len(graphs["1"].pop()) == 12

    @pytest.mark.parametrize("datasets, seeds", [("ring,ring_cliques", "0"),
                                                 ("ring", "0,0")])
    def test_repeated_cell_runs_once(self, tmp_path, capsys, monkeypatch,
                                     datasets, seeds):
        fits = []

        def counting_fit(g, run, real=cli._fit):
            fits.append(run.config)
            return real(g, run)
        monkeypatch.setattr(cli, "_fit", counting_fit)
        assert main(["bench", "--datasets", datasets, "--methods",
                     "disene-fc", "--dims", "2", "--seeds", seeds,
                     "--tasks", "link", "--permutations", "1",
                     "--out", str(tmp_path)]) == 0
        assert "bench: 1 runs, 0 already done, 1 to go" in capsys.readouterr().out
        assert len(fits) == 1
        with open(tmp_path / "results.csv", newline="") as fh:
            keys = [(r["dataset"], r["seed"], r["metric"])
                    for r in csv.DictReader(fh)]
        assert keys and len(keys) == len(set(keys))

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_permutations_below_one_fail(self, tmp_path, count, capsys):
        assert _status("bench", "--datasets", "ring", "--methods",
                       "disene-fc", "--dims", "2", "--seeds", "0",
                       "--permutations", count, "--out", str(tmp_path)) == 2
        assert "--permutations must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("key, value", [
        ("tasks", ["lnk"]), ("dims", [2.5]), ("seeds", ["0"])])
    def test_bad_grid_values_fail(self, tmp_path, key, value):
        grid = {"datasets": ["ring"], "methods": ["disene-fc"], "dims": [2],
                "seeds": [0], "tasks": ["link"], "permutations": 5}
        cfg = _config(tmp_path, **{**grid, key: value})
        assert _status("bench", "--config", cfg,
                       "--out", str(tmp_path / "out")) == 2

    def test_seed_is_not_a_setting(self, tmp_path):
        # bench runs the seeds of --seeds, so a lone seed would go unused
        assert _status(*MICRO_BENCH, "--seed", "7",
                       "--out", str(tmp_path)) == 2
        cfg = _config(tmp_path, seed=7)
        assert _status(*MICRO_BENCH, "--config", cfg,
                       "--out", str(tmp_path)) == 2
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("axis", ["datasets", "methods", "dims", "seeds"])
    @pytest.mark.parametrize("source", ["", ",", "config"])
    def test_empty_grid_axis_fails(self, tmp_path, capsys, axis, source):
        # an empty --tasks is legal (metrics only); an empty axis runs
        # nothing, whether the flag is empty, a comma alone or a config []
        grid = {"datasets": ["ring"], "methods": ["disene-fc"], "dims": [2],
                "seeds": [0], "tasks": ["link"], "permutations": 5}
        argv = ([*MICRO_BENCH, f"--{axis}={source}"] if source != "config" else
                ["bench", "--config", _config(tmp_path, **{**grid, axis: []})])
        out = tmp_path / "out"
        assert _status(*argv, "--out", str(out)) == 2
        assert f"--{axis} names nothing" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_method_fails(self, tmp_path):
        assert main(["bench", "--methods", "deepwalk",
                     "--out", str(tmp_path)]) == 2

    def test_failed_job_under_workers_spares_the_rest(self, tmp_path, capsys):
        # K=0 fails in the trainer; the K=2 job must still write its rows
        rc = main(["bench", "--datasets", "ring", "--methods", "disene-fc",
                   "--dims", "0,2", "--seeds", "0", "--tasks", "link",
                   "--permutations", "5", "--workers", "2",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "FAILED ring_cliques disene-fc K=0" in capsys.readouterr().err
        with open(tmp_path / "results.csv", newline="") as fh:
            dims = {r["dim"] for r in csv.DictReader(fh)}
        assert dims == {"2"}
