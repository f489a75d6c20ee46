"""Command line workflow on miniature datasets: every subcommand in-process
through main(), checking artifacts, labeling rules, and error exits."""

import csv
import json
import os

import numpy as np
import pytest

from disene.cli import main
from disene.model import load_embedding_binary

MICRO_GEN = ["--num-cliques", "4", "--clique-size", "4", "--noise-edges", "0"]
MICRO_TRAIN = ["--dim", "4", "--dim-hidden", "8", "--epochs", "3",
               "--walk-length", "6", "--num-walks", "2", "--window", "2"]


def _run(*argv) -> int:
    return main(list(argv))


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

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dimension": 4}))
        with pytest.raises(SystemExit) as ei:
            _run("gen", "--kind", "ring", "--config", str(cfg),
                 "--out", str(tmp_path))
        assert ei.value.code == 2

    def test_wrong_type_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": "four"}))
        with pytest.raises(SystemExit) as ei:
            _run("gen", "--kind", "ring", "--config", str(cfg),
                 "--out", str(tmp_path))
        assert ei.value.code == 2

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
                    "--kind", "ring", "--out", str(tmp_path)) == 2
        assert "not the one the checkpoint was trained on" in \
            capsys.readouterr().err

    def test_data_checkpoint_records_the_file(self, ring_ckpt, ring_data):
        sidecar = json.loads((ring_ckpt / "run.json").read_text())
        assert sidecar["data"]["path"] == str(ring_data / "edges.txt")
        assert len(sidecar["data"]["sha256"]) == 64


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

    def test_summaries_written(self, bench_dir):
        with open(bench_dir / "summary_plausibility.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert any(r["task"] == "link" for r in rows)
        assert (bench_dir / "summary_interpretability.csv").exists()

    def test_resume_skips_finished_runs(self, bench_dir, capsys):
        before = (bench_dir / "results.csv").read_bytes()
        rc = main(["bench", "--datasets", "ring", "--methods", "disene-fc",
                   "--dims", "2", "--seeds", "0", "--tasks", "link",
                   "--permutations", "20", "--out", str(bench_dir)])
        assert rc == 0
        assert "1 already done, 0 to go" in capsys.readouterr().out
        assert (bench_dir / "results.csv").read_bytes() == before

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
