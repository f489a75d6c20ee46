"""Command line front end.

Subcommands cover the full workflow: `gen` writes synthetic benchmark
graphs, `train` fits an embedding and writes a checkpoint, `explain`
extracts per-dimension subgraphs, `evaluate` computes interpretability
reports (with multi-checkpoint mean/std aggregation), `downstream` runs the
link or node task with per-instance plausibility, and `bench` drives the
whole synthetic grid into CSV tables.

Every subcommand accepts --out, --config, --threads and --deterministic.
Every subcommand but `bench`, which takes --seeds, accepts --seed and the
generator flags (--num-cliques, ...) that go with --kind.
A config file is a flat JSON object whose keys are the long flags of the
subcommand being run (dashes become underscores), typed like the flag; any
other key exits 2. Flags win over config values, config values over
defaults. One resolver makes each decision: `_resolve_graph` the graph,
`_load_checkpoint` the checkpoint, and `_resolve_run` the training run,
which `bench` shares with `train`, so equal runs get equal config hashes.
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
from typing import NamedTuple

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
BENCH_SPLIT = 0.1

# short aliases accepted anywhere a dataset kind is expected
_KIND_ALIASES = {"ring": "ring_cliques", "sbm": "sbm_cliques",
                 "ba": "ba_cliques", "er": "er_cliques"}


def _fail(msg: str) -> "SystemExit":
    print(f"error: {msg}", file=sys.stderr)
    return SystemExit(2)


def _int_list(text):
    return [int(x) for x in text.split(",") if x]


def _str_list(text):
    return [x for x in text.split(",") if x]


# the JSON type a config value must have, by the argparse type of its flag,
# and the type of each item of a list
_JSON_TYPES = {None: str, int: int, float: float,
               _int_list: list, _str_list: list}
_LIST_ITEMS = {_int_list: int, _str_list: str}


def _config_keys(parser) -> dict:
    """Config key -> flag action: every option of the parser but --config."""
    return {a.dest: a for a in parser._actions
            if a.option_strings and a.dest not in ("help", "config")}


def _load_config(path, keys: dict) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise _fail("config file must hold a JSON object")
    for key, val in cfg.items():
        action = keys.get(key)
        if action is None:
            raise _fail(f"unknown config key {key!r} (this subcommand has "
                        f"no --{key.replace('_', '-')} flag)")
        want = bool if action.nargs == 0 else _JSON_TYPES[action.type]
        if want is float and isinstance(val, int) and not isinstance(val, bool):
            continue
        if not isinstance(val, want) or isinstance(val, bool) != (want is bool):
            raise _fail(f"config key {key!r} expects {want.__name__}")
        item = _LIST_ITEMS.get(action.type)
        if item is not None and any(type(x) is not item for x in val):
            raise _fail(f"config key {key!r} expects a list of "
                        f"{item.__name__}")
        if action.choices is not None and val not in action.choices:
            raise _fail(f"config key {key!r} must be one of "
                        f"{', '.join(action.choices)}")
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


def _check_counts(args):
    """Raise unless every count setting given (flag or config) is >= 1."""
    for key in ("threads", "workers", "permutations"):
        count = _get(args, key)
        if count is not None and count < 1:
            raise ValueError(f"--{key} must be at least 1, got {count}")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------- graphs

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


def _fingerprint(g: Graph) -> dict:
    edges = np.ascontiguousarray(g.edges, dtype="<i8")
    return {"num_nodes": g.num_nodes, "num_edges": g.num_edges,
            "edges_sha256": hashlib.sha256(edges.tobytes()).hexdigest()}


def _resolve_graph(args, sidecar=None):
    """The graph a command works on: (g, gts, data_ref).

    --data or --kind (flag or config) name it, never both; without either,
    a checkpoint command uses the source its run.json records. data_ref
    says where the graph came from: the edge list's path and sha256, or
    the resolved generator spec. --ground-truth goes only with an edge
    list, whose gts is None without it. Given a checkpoint's sidecar, the
    graph must be the one that checkpoint was trained on.
    """
    data, kind = _get(args, "data"), _get(args, "kind")
    if data and kind:
        raise ValueError("give either --data or --kind, not both")
    ref = sidecar.get("data", {}) if sidecar is not None else {}
    if data or (not kind and "path" in ref):
        data = data or ref["path"]
        with open(data, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        g = load_edge_list(data)
        gt_path = _get(args, "ground_truth")
        gts = load_ground_truth(gt_path, g) if gt_path else None
        data_ref = {"path": data, "sha256": digest}
    else:
        if _get(args, "ground_truth"):
            raise ValueError("--ground-truth goes with an edge list; a "
                             "synthetic graph brings its own")
        if kind:
            spec = _synth_spec(args, _kind_of(kind), _get(args, "seed", 0))
        elif "spec" in ref:
            spec = SynthSpec(**ref["spec"])
        else:
            raise ValueError("need --data or --kind")
        g, gts = generate_synthetic(spec)
        data_ref = {"spec": asdict(spec)}
    if sidecar is not None:
        want = sidecar.get("graph")
        if want is None:
            raise ValueError("run.json records no graph fingerprint; retrain "
                             "the checkpoint")
        got = _fingerprint(g)
        if got != want:
            raise ValueError(
                f"the graph ({got['num_nodes']} nodes, {got['num_edges']} "
                f"edges) is not the one the checkpoint was trained on "
                f"({want['num_nodes']} nodes, {want['num_edges']} edges)")
    return g, gts, data_ref


def _load_checkpoint(path):
    """A checkpoint directory's run.json and embedding: (sidecar, h)."""
    if not path:
        raise ValueError("need --checkpoint")
    with open(os.path.join(path, "run.json")) as fh:
        sidecar = json.load(fh)
    h = load_embedding_binary(os.path.join(path, "embedding.bin"))
    if h.shape[0] != sidecar.get("num_nodes"):
        raise ValueError(f"checkpoint {path}: the embedding has {h.shape[0]} "
                         f"rows, run.json records {sidecar.get('num_nodes')} "
                         f"nodes")
    return sidecar, h


def _recorded_split(g: Graph, sidecar, use: str):
    """The train/test split the checkpoint was trained with."""
    conf = sidecar["config"]
    if not conf.get("split"):
        raise ValueError(f"checkpoint was trained without a split; {use} "
                         f"needs one")
    return split_edges(g, conf["split"], conf["split_seed"])


# ---------------------------------------------------------------- gen

def cmd_gen(args) -> int:
    g, gts, data_ref = _resolve_graph(args)
    out = _outdir(args)

    with open(os.path.join(out, "edges.txt"), "w") as fh:
        for u, v in g.edges.tolist():
            fh.write(f"{u} {v}\n")

    labels = np.full(g.num_nodes, -1, dtype=np.int64)
    for i in range(gts.num_communities):
        labels[gts.node_truth[:, i]] = i
    with open(os.path.join(out, "labels.txt"), "w") as fh:
        for v in range(g.num_nodes):
            fh.write(f"{v} {labels[v]}\n")

    payload = ground_truth_to_json(gts)
    payload["generator"] = data_ref["spec"]
    _write_json(os.path.join(out, "ground_truth.json"), payload)
    print(f"gen {data_ref['spec']['kind']}: {g.num_nodes} nodes, "
          f"{g.num_edges} edges, {gts.num_communities} communities -> {out}")
    return 0


# ---------------------------------------------------------------- train

class Run(NamedTuple):
    label: str
    config: dict    # every setting of the run, as run.json records and hashes it
    loss: LossConfig
    walk: WalkConfig


def _resolve_run(args) -> Run:
    """The run `train` makes from its settings (flags, config, defaults)."""
    seed = _get(args, "seed", 0)
    method = _get(args, "method", "disene-fc")
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
    activation = _get(args, "activation",
                      "identity" if label == "baseline-sgns" else "relu")
    split = _get(args, "split", 0.0)
    if not 0.0 <= split < 1.0:
        raise ValueError(f"--split must lie in [0, 1), got {split}")

    walk = WalkConfig(
        walk_length=_get(args, "walk_length", 20),
        num_walks=_get(args, "num_walks", 10),
        window=_get(args, "window", 5),
        negatives_per_positive=_get(args, "negatives_per_positive", 1),
        seed=seed)
    loss = LossConfig(
        lambda_dis=lam_dis, lambda_ent=lam_ent,
        epochs=_get(args, "epochs", 50),
        learning_rate=_get(args, "learning_rate", 0.01),
        seed=seed)
    config = {"method": method,
              "encoder": "gcn" if method == "disene-gcn" else "fc",
              "activation": activation,
              "dim": _get(args, "dim", 32),
              "dim_hidden": _get(args, "dim_hidden", 128),
              "lambda_dis": lam_dis, "lambda_ent": lam_ent,
              "epochs": loss.epochs, "learning_rate": loss.learning_rate,
              "walk_length": walk.walk_length, "num_walks": walk.num_walks,
              "window": walk.window,
              "negatives_per_positive": walk.negatives_per_positive,
              "split": split,
              "split_seed": _get(args, "split_seed", seed), "seed": seed}
    return Run(label, config, loss, walk)


def _fit(g: Graph, run: Run):
    """Hold out the run's test edges, if any, and train on the rest.

    Returns (split or None, TrainResult).
    """
    conf = run.config
    split = None
    if conf["split"] > 0.0:
        split = split_edges(g, conf["split"], conf["split_seed"])
        g = train_subgraph(g, split)
    res = train(g, run.loss, run.walk, kind=conf["encoder"],
                dim_hidden=conf["dim_hidden"], dim=conf["dim"],
                activation=conf["activation"])
    return split, res


def cmd_train(args) -> int:
    run = _resolve_run(args)
    g, _, data_ref = _resolve_graph(args)
    _, res = _fit(g, run)

    out = _outdir(args)
    save_embedding_text(os.path.join(out, "embedding.txt"), res.embedding)
    save_embedding_binary(os.path.join(out, "embedding.bin"), res.embedding)
    conf = run.config
    sidecar = {"label": run.label, "seed": conf["seed"], "data": data_ref,
               "graph": _fingerprint(g),
               "config": conf, "config_hash": config_hash(conf),
               "num_nodes": g.num_nodes, "dim": conf["dim"],
               "final_loss": res.final_loss, "loss_trace": res.loss_trace}
    _write_json(os.path.join(out, "run.json"), sidecar)
    print(f"train {run.label}: K={conf['dim']}, final loss "
          f"{res.final_loss:.6f} -> {out}")
    return 0


# ---------------------------------------------------------------- explain

def cmd_explain(args) -> int:
    ckpt = _get(args, "checkpoint")
    sidecar, h = _load_checkpoint(ckpt)
    g, _, _ = _resolve_graph(args, sidecar)
    background = None
    if _get(args, "background", "all") == "train":
        split = _recorded_split(g, sidecar, "--background train")
        background = split.train_edges
    expl = build_explanations(h, g, background=background)

    out = _outdir(args, default=ckpt)
    save_explanation(os.path.join(out, "explanations.json"), expl, g)
    print(f"explain: {h.shape[1]} dimensions, {len(expl.empty_dims)} empty "
          f"-> {out}")
    return 0


# ---------------------------------------------------------------- evaluate

def cmd_evaluate(args) -> int:
    if args.checkpoints and _get(args, "checkpoint"):
        raise ValueError("give checkpoint directories as arguments or as "
                         "--checkpoint, not both")
    ckpts = args.checkpoints or [_get(args, "checkpoint")]
    want_dim = _get(args, "dim")
    permutations = _get(args, "permutations", 100)
    toggles = {name: not _get(args, f"no_{name}", False)
               for name in ("comprehensibility", "sparsity", "ovc", "poc")}

    loaded = []
    for path in ckpts:
        sidecar, h = _load_checkpoint(path)
        if want_dim is not None and h.shape[1] != want_dim:
            raise ValueError(f"checkpoint {path} has K={h.shape[1]}, "
                             f"config expects K={want_dim}")
        if loaded and h.shape[1] != loaded[0][1].shape[1]:
            raise ValueError("checkpoints disagree on K; aggregate runs "
                             "must share a dimensionality")
        loaded.append((sidecar, h))

    out = _outdir(args, default=ckpts[0])
    rows = []
    for i, (sidecar, h) in enumerate(loaded):
        g, gts, _ = _resolve_graph(args, sidecar)
        expl = build_explanations(h, g)
        rep = compute_report(
            g, h, expl, gts,
            num_permutations=permutations,
            seed=sidecar.get("seed", 0),
            metadata={"label": sidecar.get("label"),
                      "seed": sidecar.get("seed"),
                      "config_hash": sidecar.get("config_hash"),
                      "graph": sidecar["graph"], "dim": h.shape[1]},
            toggles=toggles)
        name = "report.json" if len(loaded) == 1 else f"report_{i}.json"
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
    print(f"evaluate: {len(loaded)} checkpoint(s) -> {out}/summary.csv")
    return 0


# ---------------------------------------------------------------- downstream

def cmd_downstream(args) -> int:
    ckpt = _get(args, "checkpoint")
    sidecar, h = _load_checkpoint(ckpt)
    g, gts, _ = _resolve_graph(args, sidecar)
    if gts is None:
        raise ValueError("downstream tasks need ground truth "
                         "(--ground-truth, or a synthetic --kind)")
    seed = _get(args, "seed", sidecar.get("seed", 0))
    task = _get(args, "task", "link")
    l2 = _get(args, "l2", 1e-4)

    if task == "link":
        # the held-out edges are the ones the embedding never saw
        split = _recorded_split(g, sidecar, "the link task")
        result = run_link_task(h, g, split, gts, seed=seed, l2=l2)
    else:
        result = run_node_task(h, g, gts, seed=seed, l2=l2)

    out = _outdir(args, default=ckpt)
    _write_json(os.path.join(out, f"{task}_task.json"), {
        "task": task, "label": sidecar.get("label"),
        "config_hash": sidecar.get("config_hash"), "graph": sidecar["graph"],
        "seed": seed, "auc_pr": result.auc_pr,
        "plausibility": result.plausibility_mean,
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

# `graph` is the start of the graph's edges_sha256: config_hash names the
# training settings only, which runs on different datasets can share
_BENCH_FIELDS = ("dataset", "method", "dim", "seed", "metric", "value",
                 "config_hash", "graph")


def _bench_one(job) -> list[dict]:
    dataset, method, dim, seed, tasks, permutations = job
    # the cell is the run `train --kind <dataset> --method <method>
    # --dim <dim> --seed <seed> --split 0.1` makes, resolved the same way
    args = argparse.Namespace(kind=dataset, method=method, dim=dim,
                              seed=seed, split=BENCH_SPLIT, run_config={})
    run = _resolve_run(args)
    g, gts, _ = _resolve_graph(args)
    split, res = _fit(g, run)
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

    chash = config_hash(run.config)
    graph = _fingerprint(g)["edges_sha256"][:12]
    return [{"dataset": dataset, "method": method, "dim": dim, "seed": seed,
             "metric": k, "value": "" if v is None else f"{v:.9f}",
             "config_hash": chash, "graph": graph}
            for k, v in sorted(values.items())]


def _read_done(path) -> set:
    """(dataset, method, dim, seed) of every run results.csv has rows of."""
    done = set()
    if os.path.exists(path):
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                done.add((row["dataset"], row["method"], int(row["dim"]),
                          int(row["seed"])))
    return done


def _rewrite_results(path) -> list[dict]:
    """Sort results.csv's rows and write them under _BENCH_FIELDS.

    A missing file becomes a header alone; a column the file lacks is
    written empty. Returns the rows.
    """
    rows = []
    if os.path.exists(path):
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    rows.sort(key=lambda r: (r["dataset"], r["method"], int(r["dim"]),
                             int(r["seed"]), r["metric"]))
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=_BENCH_FIELDS, restval="")
        w.writeheader()
        w.writerows(rows)
    return rows


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
    methods = _get(args, "methods", METHODS)
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
    dims = _get(args, "dims", BENCH_DIMS)
    seeds = _get(args, "seeds", BENCH_SEEDS)
    tasks = _get(args, "tasks", ("link", "node"))
    if not set(tasks) <= {"link", "node"}:
        raise ValueError("tasks must be link and/or node")
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

    # the rows append under this version's header, so a file written by an
    # older one (no graph column) is rewritten under it first
    _rewrite_results(results_path)
    failures = 0
    with open(results_path, "a", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=_BENCH_FIELDS)

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

    _summaries(out, _rewrite_results(results_path))
    print(f"bench: results -> {results_path}")
    return 1 if failures else 0


# ---------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", help="output directory")
    shared.add_argument("--config", help="JSON config file; flags win")
    shared.add_argument("--threads", type=int,
                        help="pin BLAS/OMP thread count (re-executes)")
    shared.add_argument("--deterministic", action="store_const", const=True,
                        help="single-threaded numerics for bit-stable output")

    gen_params = argparse.ArgumentParser(add_help=False)
    gen_params.add_argument("--seed", type=int)
    gen_params.add_argument("--kind", help="synthetic dataset: ring|sbm|ba|er "
                                           "(or full names)")
    gen_params.add_argument("--num-cliques", dest="num_cliques", type=int)
    gen_params.add_argument("--clique-size", dest="clique_size", type=int)
    gen_params.add_argument("--base-nodes", dest="base_nodes", type=int)
    gen_params.add_argument("--attach-edges-per-clique",
                            dest="attach_edges_per_clique", type=int)
    gen_params.add_argument("--noise-edges", dest="noise_edges", type=int)
    gen_params.add_argument("--er-p", dest="er_p", type=float)
    gen_params.add_argument("--sbm-p-out", dest="sbm_p_out", type=float)
    gen_params.add_argument("--ba-m", dest="ba_m", type=int)

    # the graph of train and of the checkpoint commands; the latter default
    # to the source their checkpoint's run.json records
    graph = argparse.ArgumentParser(add_help=False, parents=[gen_params])
    graph.add_argument("--data", help="edge list file instead of --kind")

    p = argparse.ArgumentParser(
        prog="disene",
        description="disentangled interpretable node embeddings")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", parents=[shared, gen_params],
                        help="write a synthetic benchmark graph")
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("train", parents=[shared, graph],
                        help="train an embedding, write a checkpoint")
    sp.add_argument("--method", choices=METHODS)
    sp.add_argument("--activation", choices=ACTIVATIONS)
    sp.add_argument("--dim", type=int, help="embedding dimensions K")
    sp.add_argument("--dim-hidden", dest="dim_hidden", type=int)
    sp.add_argument("--lambda-dis", dest="lambda_dis", type=float)
    sp.add_argument("--lambda-ent", dest="lambda_ent", type=float)
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--learning-rate", dest="learning_rate", type=float)
    sp.add_argument("--walk-length", dest="walk_length", type=int)
    sp.add_argument("--num-walks", dest="num_walks", type=int)
    sp.add_argument("--window", type=int)
    sp.add_argument("--negatives-per-positive", dest="negatives_per_positive",
                    type=int)
    sp.add_argument("--split", type=float,
                    help="held-out edge fraction (0 trains on everything)")
    sp.add_argument("--split-seed", dest="split_seed", type=int)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("explain", parents=[shared, graph],
                        help="per-dimension explanation subgraphs")
    sp.add_argument("--checkpoint", help="checkpoint directory")
    sp.add_argument("--background", choices=("all", "train"))
    sp.set_defaults(func=cmd_explain)

    sp = sub.add_parser("evaluate", parents=[shared, graph],
                        help="interpretability metrics report")
    sp.add_argument("checkpoints", nargs="*",
                    help="checkpoint directories (aggregated mean/std)")
    sp.add_argument("--checkpoint", help="single checkpoint directory")
    sp.add_argument("--ground-truth", dest="ground_truth")
    sp.add_argument("--dim", type=int, help="expected K; mismatch errors")
    sp.add_argument("--permutations", type=int)
    for metric in ("comprehensibility", "sparsity", "ovc", "poc"):
        sp.add_argument(f"--no-{metric}", action="store_const", const=True)
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("downstream", parents=[shared, graph],
                        help="link prediction / node classification; the "
                             "link task uses the checkpoint's recorded split")
    sp.add_argument("--checkpoint")
    sp.add_argument("--task", choices=("link", "node"))
    sp.add_argument("--ground-truth", dest="ground_truth")
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

    # a config file may set exactly the options of the subcommand it is for,
    # and a flag is taken only whole: `bench --seed` is not `--seeds`
    for sp in sub.choices.values():
        sp.allow_abbrev = False
        sp.set_defaults(config_keys=_config_keys(sp))
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
    args = _build_parser().parse_args(argv)
    try:
        args.run_config = (_load_config(args.config, args.config_keys)
                           if args.config else {})
        _check_counts(args)
        _maybe_reexec(args, argv)
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
