"""Command line front end.

Subcommands cover the full workflow: `gen` writes synthetic benchmark
graphs, `train` fits an embedding and writes a checkpoint, `explain`
extracts per-dimension subgraphs, `evaluate` computes interpretability
reports (with multi-checkpoint mean/std aggregation), `downstream` runs the
link or node task with per-instance plausibility, and `bench` drives the
whole synthetic grid into CSV tables.

Every subcommand accepts --seed, --out, --config, --threads and
--deterministic. A config file is a flat JSON object using the same keys as
the long flags (dashes become underscores); explicit flags win over config
values, config values win over defaults. Unknown config keys are rejected.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, replace
from multiprocessing import get_context

import numpy as np

from .downstream import run_link_task, run_node_task
from .explain import build_explanations, save_explanation
from .graph_core import (Graph, ground_truth_to_json, load_edge_list,
                         load_ground_truth, split_edges, train_subgraph)
from .metrics import compute_report
from .model import (ACTIVATIONS, load_embedding_binary, save_embedding_binary,
                    save_embedding_text)
from .sampling import WalkConfig
from .synth import KINDS, SynthSpec, default_spec, generate_synthetic
from .training import LossConfig, train

METHODS = ("disene-fc", "disene-gcn", "baseline-sgns")
BENCH_DIMS = (2, 4, 8, 16, 32, 64, 128)
BENCH_SEEDS = (0, 1, 2, 3, 4)

# short aliases accepted anywhere a dataset kind is expected
_KIND_ALIASES = {"ring": "ring_cliques", "sbm": "sbm_cliques",
                 "ba": "ba_cliques", "er": "er_cliques"}

# config-file schema: key -> expected python type(s)
_SCHEMA = {
    "seed": int, "out": str, "threads": int, "deterministic": bool,
    "kind": str, "data": str, "ground_truth": str,
    "num_cliques": int, "clique_size": int, "base_nodes": int,
    "attach_edges_per_clique": int, "noise_edges": int,
    "er_p": float, "sbm_p_out": float, "ba_m": int,
    "method": str, "activation": str, "dim": int, "dim_hidden": int,
    "lambda_dis": float, "lambda_ent": float,
    "epochs": int, "learning_rate": float, "batch_size": int,
    "walk_length": int, "num_walks": int, "window": int,
    "negatives_per_positive": int,
    "split": float, "split_seed": int,
    "background": str, "permutations": int, "l2": float,
    "task": str, "checkpoint": str,
    "datasets": list, "methods": list, "dims": list, "seeds": list,
    "tasks": list, "workers": int,
}


def _fail(msg: str) -> "SystemExit":
    print(f"error: {msg}", file=sys.stderr)
    return SystemExit(2)


def _load_config(path) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise _fail("config file must hold a JSON object")
    for key, val in cfg.items():
        if key not in _SCHEMA:
            raise _fail(f"unknown config key {key!r}")
        want = _SCHEMA[key]
        if want is float and isinstance(val, int) and not isinstance(val, bool):
            continue
        if not isinstance(val, want) or isinstance(val, bool) != (want is bool):
            raise _fail(f"config key {key!r} expects {want.__name__}")
    return cfg


def _get(args, key, default=None):
    """Flag if given, else config value, else default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    return args.run_config.get(key, default)


def _kind_of(name: str) -> str:
    kind = _KIND_ALIASES.get(name, name)
    if kind not in KINDS:
        raise ValueError(f"unknown dataset kind {name!r}")
    return kind


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _outdir(args, default="."):
    out = _get(args, "out", default)
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------- gen

def _synth_spec(args, kind: str, seed: int):
    spec = default_spec(kind, seed=seed)
    fields = ("num_cliques", "clique_size", "base_nodes",
              "attach_edges_per_clique", "noise_edges",
              "er_p", "sbm_p_out", "ba_m")
    override = {f: _get(args, f) for f in fields if _get(args, f) is not None}
    if override:
        spec = replace(spec, **override)
        spec.validate()
    return spec


def cmd_gen(args) -> int:
    kind = _kind_of(_get(args, "kind") or "")
    seed = _get(args, "seed", 0)
    spec = _synth_spec(args, kind, seed)
    g, gts = generate_synthetic(spec)
    out = _outdir(args)

    with open(os.path.join(out, "edges.txt"), "w") as fh:
        for u, v in g.edges.tolist():
            fh.write(f"{u} {v}\n")

    labels = np.full(g.num_nodes, -1, dtype=np.int64)
    for i, c in enumerate(gts.communities):
        labels[sorted(c.nodes)] = i
    with open(os.path.join(out, "labels.txt"), "w") as fh:
        for v in range(g.num_nodes):
            fh.write(f"{v} {labels[v]}\n")

    payload = ground_truth_to_json(g, gts)
    payload["generator"] = asdict(spec)
    _write_json(os.path.join(out, "ground_truth.json"), payload)
    print(f"gen {kind}: {g.num_nodes} nodes, {g.num_edges} edges, "
          f"{len(gts.communities)} communities -> {out}")
    return 0


# ---------------------------------------------------------------- train

def _load_graph(args):
    """Graph from --data, or generated from --kind. Returns (g, data_ref).

    data_ref records where the graph came from: the edge list's path and
    sha256, or the resolved generator spec.
    """
    data = _get(args, "data")
    kind = _get(args, "kind")
    if data and kind:
        raise ValueError("give either --data or --kind, not both")
    if data:
        with open(data, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        return load_edge_list(data), {"path": data, "sha256": digest}
    if kind:
        spec = _synth_spec(args, _kind_of(kind), _get(args, "seed", 0))
        g, _ = generate_synthetic(spec)
        return g, {"spec": asdict(spec)}
    raise ValueError("need --data or --kind")


def _fingerprint(g: Graph) -> dict:
    edges = np.ascontiguousarray(g.edges, dtype="<i8")
    return {"num_nodes": g.num_nodes, "num_edges": g.num_edges,
            "edges_sha256": hashlib.sha256(edges.tobytes()).hexdigest()}


def _graph_and_truth(args, sidecar):
    """Resolve graph + optional ground truth for a checkpoint command.

    --data or --kind (flag or config) name the graph; without either, the
    source recorded in run.json is used. The graph must be the one the
    checkpoint was trained on.
    """
    data = _get(args, "data")
    kind = _get(args, "kind")
    ref = sidecar.get("data", {})
    if data or (not kind and "path" in ref):
        g = load_edge_list(data or ref["path"])
        gt_path = _get(args, "ground_truth")
        gts = load_ground_truth(gt_path, g) if gt_path else None
    elif kind:
        spec = _synth_spec(args, _kind_of(kind), _get(args, "seed", 0))
        g, gts = generate_synthetic(spec)
    elif "spec" in ref:
        g, gts = generate_synthetic(SynthSpec(**ref["spec"]))
    else:
        raise ValueError("need --data, --kind, or a checkpoint sidecar with one")
    want = sidecar.get("graph")
    if want is None:
        raise ValueError("run.json records no graph fingerprint; retrain the "
                         "checkpoint")
    got = _fingerprint(g)
    if got != want:
        raise ValueError(
            f"the graph ({got['num_nodes']} nodes, {got['num_edges']} edges) "
            f"is not the one the checkpoint was trained on "
            f"({want['num_nodes']} nodes, {want['num_edges']} edges)")
    return g, gts


def cmd_train(args) -> int:
    g, data_ref = _load_graph(args)
    seed = _get(args, "seed", 0)

    method = _get(args, "method", "disene-fc")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    lam_dis = _get(args, "lambda_dis")
    lam_ent = _get(args, "lambda_ent")
    if method == "baseline-sgns":
        if lam_dis not in (None, 0.0) or lam_ent not in (None, 0.0):
            raise ValueError("baseline-sgns fixes both loss weights at 0")
        lam_dis = lam_ent = 0.0
    else:
        lam_dis = 1.0 if lam_dis is None else lam_dis
        lam_ent = 1.0 if lam_ent is None else lam_ent
    # a run with both regularizers off is plain skip-gram whatever it was
    # called on the command line, so the label says so
    label = "baseline-sgns" if lam_dis == 0.0 and lam_ent == 0.0 else method

    activation = _get(args, "activation")
    if activation is None:
        activation = "identity" if label == "baseline-sgns" else "relu"
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    kind = "gcn" if method == "disene-gcn" else "fc"

    split_f = _get(args, "split", 0.0)
    split_seed = _get(args, "split_seed", seed)
    if split_f > 0.0:
        split = split_edges(g, split_f, split_seed)
        g_train = train_subgraph(g, split)
    else:
        g_train = g

    dim = _get(args, "dim", 32)
    dim_hidden = _get(args, "dim_hidden", 128)
    walk_cfg = WalkConfig(
        walk_length=_get(args, "walk_length", 20),
        num_walks=_get(args, "num_walks", 10),
        window=_get(args, "window", 5),
        negatives_per_positive=_get(args, "negatives_per_positive", 1),
        seed=seed)
    loss_cfg = LossConfig(
        lambda_dis=lam_dis, lambda_ent=lam_ent,
        epochs=_get(args, "epochs", 50),
        learning_rate=_get(args, "learning_rate", 0.01),
        batch_size=_get(args, "batch_size"),
        seed=seed)

    res = train(g_train, loss_cfg, walk_cfg, kind=kind,
                dim_hidden=dim_hidden, dim=dim, activation=activation)

    out = _outdir(args)
    save_embedding_text(os.path.join(out, "embedding.txt"), res.embedding)
    save_embedding_binary(os.path.join(out, "embedding.bin"), res.embedding)
    resolved = {"method": method, "encoder": kind, "activation": activation,
                "dim": dim, "dim_hidden": dim_hidden,
                "lambda_dis": lam_dis, "lambda_ent": lam_ent,
                "epochs": loss_cfg.epochs,
                "learning_rate": loss_cfg.learning_rate,
                "batch_size": loss_cfg.batch_size,
                "walk_length": walk_cfg.walk_length,
                "num_walks": walk_cfg.num_walks,
                "window": walk_cfg.window,
                "negatives_per_positive": walk_cfg.negatives_per_positive,
                "split": split_f, "split_seed": split_seed, "seed": seed}
    sidecar = {"label": label, "seed": seed, "data": data_ref,
               "graph": _fingerprint(g),
               "config": resolved, "config_hash": config_hash(resolved),
               "num_nodes": g.num_nodes, "dim": dim,
               "final_loss": res.final_loss, "loss_trace": res.loss_trace}
    _write_json(os.path.join(out, "run.json"), sidecar)
    print(f"train {label}: K={dim}, final loss {res.final_loss:.6f} -> {out}")
    return 0


def _load_checkpoint(args):
    ckpt = _get(args, "checkpoint")
    if not ckpt:
        raise ValueError("need --checkpoint")
    with open(os.path.join(ckpt, "run.json")) as fh:
        sidecar = json.load(fh)
    h = load_embedding_binary(os.path.join(ckpt, "embedding.bin"))
    return ckpt, sidecar, h


# ---------------------------------------------------------------- explain

def cmd_explain(args) -> int:
    ckpt, sidecar, h = _load_checkpoint(args)
    g, _ = _graph_and_truth(args, sidecar)
    if g.num_nodes != h.shape[0]:
        raise ValueError("checkpoint embedding does not match the graph")

    background = _get(args, "background", "all")
    if background == "train":
        conf = sidecar["config"]
        if not conf.get("split"):
            raise ValueError("checkpoint was trained without a split; "
                             "no train-edge background available")
        split = split_edges(g, conf["split"], conf["split_seed"])
        expl = build_explanations(h, g, background=split.train_edges)
    elif background == "all":
        expl = build_explanations(h, g)
    else:
        raise ValueError("background must be 'all' or 'train'")

    out = _outdir(args, default=ckpt)
    save_explanation(os.path.join(out, "explanations.json"), expl, g)
    print(f"explain: {h.shape[1]} dimensions, {len(expl.empty_dims)} empty "
          f"-> {out}")
    return 0


# ---------------------------------------------------------------- evaluate

def cmd_evaluate(args) -> int:
    ckpts = args.checkpoints or ([] if _get(args, "checkpoint") is None
                                 else [_get(args, "checkpoint")])
    if not ckpts:
        raise ValueError("need at least one checkpoint directory")
    toggles = {"comprehensibility": not args.no_comprehensibility,
               "sparsity": not args.no_sparsity,
               "ovc": not args.no_ovc,
               "poc": not args.no_poc}
    want_dim = _get(args, "dim")

    out = _outdir(args, default=ckpts[0])
    reports = []
    for path in ckpts:
        with open(os.path.join(path, "run.json")) as fh:
            sidecar = json.load(fh)
        h = load_embedding_binary(os.path.join(path, "embedding.bin"))
        if want_dim is not None and h.shape[1] != want_dim:
            raise ValueError(f"checkpoint {path} has K={h.shape[1]}, "
                             f"config expects K={want_dim}")
        if reports and h.shape[1] != reports[0][1].shape[1]:
            raise ValueError("checkpoints disagree on K; aggregate runs "
                             "must share a dimensionality")
        reports.append((path, h, sidecar))

    rows = []
    for i, (path, h, sidecar) in enumerate(reports):
        g, gts = _graph_and_truth(args, sidecar)
        expl = build_explanations(h, g)
        rep = compute_report(
            g, h, expl, gts,
            num_permutations=_get(args, "permutations", 100),
            seed=sidecar.get("seed", 0),
            metadata={"label": sidecar.get("label"),
                      "seed": sidecar.get("seed"),
                      "config_hash": sidecar.get("config_hash"),
                      "dim": h.shape[1]},
            toggles=toggles)
        name = "report.json" if len(reports) == 1 else f"report_{i}.json"
        rep.save(os.path.join(out, name))
        rows.append(rep.metrics)

    keys = sorted({k for r in rows for k in r if isinstance(r.get(k), (int, float))})
    with open(os.path.join(out, "summary.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["metric", "mean", "std", "n"])
        for key in keys:
            vals = [r[key] for r in rows if isinstance(r.get(key), (int, float))]
            w.writerow([key, f"{np.mean(vals):.6f}", f"{np.std(vals):.6f}",
                        len(vals)])
    print(f"evaluate: {len(reports)} checkpoint(s) -> {out}/summary.csv")
    return 0


# ---------------------------------------------------------------- downstream

def cmd_downstream(args) -> int:
    ckpt, sidecar, h = _load_checkpoint(args)
    g, gts = _graph_and_truth(args, sidecar)
    if gts is None:
        raise ValueError("downstream tasks need ground truth "
                         "(--ground-truth, or a synthetic --kind)")
    if g.num_nodes != h.shape[0]:
        raise ValueError("checkpoint embedding does not match the graph")
    seed = _get(args, "seed", sidecar.get("seed", 0))
    task = _get(args, "task", "link")
    l2 = _get(args, "l2", 1e-4)

    if task == "link":
        conf = sidecar["config"]
        split_f = _get(args, "split", conf.get("split") or 0.0)
        split_seed = _get(args, "split_seed", conf.get("split_seed", seed))
        if split_f <= 0.0:
            raise ValueError("link task needs the train/test split the "
                             "embedding was trained with (--split)")
        split = split_edges(g, split_f, split_seed)
        result = run_link_task(h, g, split, gts, seed=seed, l2=l2)
    elif task == "node":
        result = run_node_task(h, g, gts, seed=seed, l2=l2)
    else:
        raise ValueError("task must be 'link' or 'node'")

    out = _outdir(args, default=ckpt)
    _write_json(os.path.join(out, f"{task}_task.json"), {
        "task": task, "label": sidecar.get("label"),
        "config_hash": sidecar.get("config_hash"), "seed": seed,
        "auc_pr": result.auc_pr, "plausibility": result.plausibility_mean,
        "instances": len(result.per_instance), "skipped": result.skipped})
    with open(os.path.join(out, f"{task}_instances.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["instance", "community", "plausibility"])
        for key, gi, val in result.per_instance:
            name = f"{key[0]}-{key[1]}" if isinstance(key, tuple) else str(key)
            w.writerow([name, gi, f"{val:.9f}"])
    plaus = (f"{result.plausibility_mean:.4f}"
             if result.plausibility_mean is not None else "n/a")
    print(f"downstream {task}: AUC-PR {result.auc_pr:.4f}, "
          f"plausibility {plaus} ({len(result.per_instance)} instances) "
          f"-> {out}")
    return 0


# ---------------------------------------------------------------- bench

_BENCH_FIELDS = ("dataset", "method", "dim", "seed", "metric", "value",
                 "config_hash")


def _bench_config(dataset, method, dim, seed) -> dict:
    return {"dataset": dataset, "method": method, "dim": dim,
            "dim_hidden": 128, "seed": seed, "split": 0.1,
            "epochs": 50, "learning_rate": 0.01,
            "lambda_dis": 0.0 if method == "baseline-sgns" else 1.0,
            "lambda_ent": 0.0 if method == "baseline-sgns" else 1.0,
            "activation": "identity" if method == "baseline-sgns" else "relu",
            "walk_length": 20, "num_walks": 10, "window": 5,
            "negatives_per_positive": 1}


def _bench_one(job) -> list[dict]:
    dataset, method, dim, seed, tasks, permutations = job
    conf = _bench_config(dataset, method, dim, seed)
    chash = config_hash(conf)
    g, gts = generate_synthetic(default_spec(dataset, seed=seed))
    split = split_edges(g, conf["split"], seed)
    g_train = train_subgraph(g, split)
    loss_cfg = LossConfig(lambda_dis=conf["lambda_dis"],
                          lambda_ent=conf["lambda_ent"], seed=seed)
    walk_cfg = WalkConfig(seed=seed)
    res = train(g_train, loss_cfg, walk_cfg,
                kind="gcn" if method == "disene-gcn" else "fc",
                dim_hidden=conf["dim_hidden"], dim=dim,
                activation=conf["activation"])
    h = res.embedding

    values = {}
    if "link" in tasks:
        link = run_link_task(h, g, split, gts, seed=seed)
        values["link_auc_pr"] = link.auc_pr
        values["link_plausibility"] = link.plausibility_mean
    if "node" in tasks and dataset in ("ba_cliques", "er_cliques"):
        node = run_node_task(h, g, gts, seed=seed)
        values["node_auc_pr"] = node.auc_pr
        values["node_plausibility"] = node.plausibility_mean

    expl = build_explanations(h, g)
    rep = compute_report(g, h, expl, gts, num_permutations=permutations,
                         seed=seed)
    for key in ("comprehensibility_mean", "sparsity_score", "ovc", "poc",
                "empty_dims"):
        if key in rep.metrics:
            values[key] = rep.metrics[key]

    return [{"dataset": dataset, "method": method, "dim": dim, "seed": seed,
             "metric": k, "value": "" if v is None else f"{v:.9f}",
             "config_hash": chash} for k, v in sorted(values.items())]


def _read_done(path) -> set:
    done = set()
    if os.path.exists(path):
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                done.add((row["dataset"], row["method"], int(row["dim"]),
                          int(row["seed"])))
    return done


def _summaries(out, rows):
    """Plausibility table (best dimension per cell) and per-K metric table."""
    by_cell = {}
    for r in rows:
        key = (r["dataset"], r["method"], r["metric"], int(r["dim"]))
        if r["value"] != "":
            by_cell.setdefault(key, {})[int(r["seed"])] = float(r["value"])

    with open(os.path.join(out, "summary_plausibility.csv"), "w",
              newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["dataset", "method", "task", "best_dim", "mean", "std", "n"])
        cells = sorted({(d, m) for d, m, met, _ in by_cell
                        if met.endswith("_plausibility")})
        for dataset, method in cells:
            for task in ("link", "node"):
                per_dim = {k[3]: v for k, v in by_cell.items()
                           if k[:3] == (dataset, method, f"{task}_plausibility")}
                if not per_dim:
                    continue
                best_dim = max(per_dim, key=lambda d: np.mean(list(per_dim[d].values())))
                vals = list(per_dim[best_dim].values())
                w.writerow([dataset, method, task, best_dim,
                            f"{np.mean(vals):.6f}", f"{np.std(vals):.6f}",
                            len(vals)])

    with open(os.path.join(out, "summary_interpretability.csv"), "w",
              newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["dataset", "method", "dim", "metric", "mean", "std", "n"])
        metrics = ("comprehensibility_mean", "sparsity_score", "ovc", "poc")
        for (dataset, method, metric, dim), seeds in sorted(by_cell.items()):
            if metric in metrics:
                vals = list(seeds.values())
                w.writerow([dataset, method, dim, metric,
                            f"{np.mean(vals):.6f}", f"{np.std(vals):.6f}",
                            len(vals)])


def cmd_bench(args) -> int:
    datasets = [_kind_of(d) for d in _get(args, "datasets", list(KINDS))]
    methods = list(_get(args, "methods", list(METHODS)))
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
    dims = [int(d) for d in _get(args, "dims", list(BENCH_DIMS))]
    seeds = [int(s) for s in _get(args, "seeds", list(BENCH_SEEDS))]
    tasks = list(_get(args, "tasks", ["link", "node"]))
    workers = _get(args, "workers", 1)
    permutations = _get(args, "permutations", 100)

    out = _outdir(args, default="bench")
    results_path = os.path.join(out, "results.csv")
    done = _read_done(results_path)
    manifest = [(d, m, k, s) for d in datasets for m in methods
                for k in dims for s in seeds]
    todo = [(d, m, k, s, tuple(tasks), permutations)
            for d, m, k, s in manifest if (d, m, k, s) not in done]
    print(f"bench: {len(manifest)} runs, {len(manifest) - len(todo)} already "
          f"done, {len(todo)} to go")

    new_file = not os.path.exists(results_path)
    failures = 0
    with open(results_path, "a", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=_BENCH_FIELDS)
        if new_file:
            w.writeheader()

        def emit(job, rows):
            for row in rows:
                w.writerow(row)
            fh.flush()
            print(f"  done {job[0]} {job[1]} K={job[2]} seed={job[3]}")

        # one loop for both paths: a failed job is counted and reported,
        # the other jobs still write their rows
        pool = (ProcessPoolExecutor(max_workers=workers,
                                    mp_context=get_context("spawn"))
                if workers > 1 else None)
        with pool or nullcontext():
            pending = ([pool.submit(_bench_one, job) for job in todo]
                       if pool else todo)
            for job, item in zip(todo, pending):
                try:
                    rows = item.result() if pool else _bench_one(item)
                except Exception as exc:
                    failures += 1
                    print(f"  FAILED {job[0]} {job[1]} K={job[2]} "
                          f"seed={job[3]}: {exc}", file=sys.stderr)
                    continue
                emit(job, rows)

    with open(results_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows.sort(key=lambda r: (r["dataset"], r["method"], int(r["dim"]),
                             int(r["seed"]), r["metric"]))
    with open(results_path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=_BENCH_FIELDS)
        w.writeheader()
        w.writerows(rows)
    _summaries(out, rows)
    print(f"bench: results -> {results_path}")
    return 1 if failures else 0


# ---------------------------------------------------------------- parser

def _int_list(text):
    return [int(x) for x in text.split(",") if x]


def _str_list(text):
    return [x for x in text.split(",") if x]


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int)
    shared.add_argument("--out", help="output directory")
    shared.add_argument("--config", help="JSON config file; flags win")
    shared.add_argument("--threads", type=int,
                        help="pin BLAS/OMP thread count (re-executes)")
    shared.add_argument("--deterministic", action="store_const", const=True,
                        help="single-threaded numerics for bit-stable output")

    gen_params = argparse.ArgumentParser(add_help=False)
    gen_params.add_argument("--num-cliques", dest="num_cliques", type=int)
    gen_params.add_argument("--clique-size", dest="clique_size", type=int)
    gen_params.add_argument("--base-nodes", dest="base_nodes", type=int)
    gen_params.add_argument("--attach-edges-per-clique",
                            dest="attach_edges_per_clique", type=int)
    gen_params.add_argument("--noise-edges", dest="noise_edges", type=int)
    gen_params.add_argument("--er-p", dest="er_p", type=float)
    gen_params.add_argument("--sbm-p-out", dest="sbm_p_out", type=float)
    gen_params.add_argument("--ba-m", dest="ba_m", type=int)

    p = argparse.ArgumentParser(
        prog="disene",
        description="disentangled interpretable node embeddings")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", parents=[shared, gen_params],
                        help="write a synthetic benchmark graph")
    sp.add_argument("--kind", help="ring|sbm|ba|er (or full names)")
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("train", parents=[shared, gen_params],
                        help="train an embedding, write a checkpoint")
    sp.add_argument("--data", help="edge list file")
    sp.add_argument("--kind", help="synthetic dataset instead of --data")
    sp.add_argument("--method", choices=METHODS)
    sp.add_argument("--activation", choices=ACTIVATIONS)
    sp.add_argument("--dim", type=int, help="embedding dimensions K")
    sp.add_argument("--dim-hidden", dest="dim_hidden", type=int)
    sp.add_argument("--lambda-dis", dest="lambda_dis", type=float)
    sp.add_argument("--lambda-ent", dest="lambda_ent", type=float)
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--learning-rate", dest="learning_rate", type=float)
    sp.add_argument("--batch-size", dest="batch_size", type=int)
    sp.add_argument("--walk-length", dest="walk_length", type=int)
    sp.add_argument("--num-walks", dest="num_walks", type=int)
    sp.add_argument("--window", type=int)
    sp.add_argument("--negatives-per-positive", dest="negatives_per_positive",
                    type=int)
    sp.add_argument("--split", type=float,
                    help="held-out edge fraction (0 trains on everything)")
    sp.add_argument("--split-seed", dest="split_seed", type=int)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("explain", parents=[shared],
                        help="per-dimension explanation subgraphs")
    sp.add_argument("--checkpoint", help="checkpoint directory")
    sp.add_argument("--data")
    sp.add_argument("--kind")
    sp.add_argument("--background", choices=("all", "train"))
    sp.set_defaults(func=cmd_explain)

    sp = sub.add_parser("evaluate", parents=[shared],
                        help="interpretability metrics report")
    sp.add_argument("checkpoints", nargs="*",
                    help="checkpoint directories (aggregated mean/std)")
    sp.add_argument("--checkpoint", help="single checkpoint directory")
    sp.add_argument("--data")
    sp.add_argument("--kind")
    sp.add_argument("--ground-truth", dest="ground_truth")
    sp.add_argument("--dim", type=int, help="expected K; mismatch errors")
    sp.add_argument("--permutations", type=int)
    sp.add_argument("--no-comprehensibility", action="store_true")
    sp.add_argument("--no-sparsity", action="store_true")
    sp.add_argument("--no-ovc", action="store_true")
    sp.add_argument("--no-poc", action="store_true")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("downstream", parents=[shared],
                        help="link prediction / node classification")
    sp.add_argument("--checkpoint")
    sp.add_argument("--task", choices=("link", "node"))
    sp.add_argument("--data")
    sp.add_argument("--kind")
    sp.add_argument("--ground-truth", dest="ground_truth")
    sp.add_argument("--split", type=float)
    sp.add_argument("--split-seed", dest="split_seed", type=int)
    sp.add_argument("--l2", type=float)
    sp.set_defaults(func=cmd_downstream)

    sp = sub.add_parser("bench", parents=[shared],
                        help="synthetic benchmark grid -> CSV tables")
    sp.add_argument("--datasets", type=_str_list,
                    help="comma separated dataset kinds")
    sp.add_argument("--methods", type=_str_list)
    sp.add_argument("--dims", type=_int_list)
    sp.add_argument("--seeds", type=_int_list)
    sp.add_argument("--tasks", type=_str_list)
    sp.add_argument("--workers", type=int)
    sp.add_argument("--permutations", type=int)
    sp.set_defaults(func=cmd_bench)

    return p


def _maybe_reexec(args, argv):
    threads = _get(args, "threads")
    if threads is None and _get(args, "deterministic"):
        threads = 1
    if threads is None:
        return
    if os.environ.get("DISENE_THREADS") == str(threads):
        return
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(threads)
    env["DISENE_THREADS"] = str(threads)
    # BLAS pools are sized at import time, so a live process cannot repin
    # itself; swap in a fresh interpreter with the environment set
    os.execvpe(sys.executable, [sys.executable, "-m", "disene.cli", *argv],
               env)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.run_config = _load_config(args.config) if args.config else {}
    _maybe_reexec(args, argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
