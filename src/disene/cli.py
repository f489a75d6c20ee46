"""Command line front end.

Subcommands cover the full workflow: `gen` writes synthetic benchmark
graphs, `train` fits an embedding and writes a checkpoint, `explain`
extracts per-dimension subgraphs, `evaluate` computes interpretability
reports (with multi-checkpoint mean/std aggregation), `downstream` runs the
link or node task with per-instance plausibility, and `bench` drives the
whole synthetic grid into CSV tables.

Every subcommand accepts --out, --config, --threads and --deterministic.
Every subcommand but `bench`, which takes --seeds, accepts --seed and the
generator flags (--num-cliques, ...) that the --kind family reads.
A config file is a flat JSON object whose keys are the long flags of the
subcommand being run (dashes become underscores), typed like the flag; any
other key exits 2. It is read as the flags it stands for, placed before the
command line's, so one parse resolves every setting through its flag's type
and choices, and a flag on the command line wins. One resolver makes each
decision: `_resolve_graph` the graph, `_load_checkpoint` the checkpoint,
and `_resolve_run` the training run, which `bench` parses from the
equivalent `train` command line, so equal runs get equal config hashes.
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
from functools import cache
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
from .synth import KINDS, READS, SynthSpec, default_spec, generate_synthetic
from .training import LossConfig, train

METHODS = ("disene-fc", "disene-gcn", "baseline-sgns")
BENCH_DIMS = (2, 4, 8, 16, 32, 64, 128)
BENCH_SEEDS = (0, 1, 2, 3, 4)
BENCH_SPLIT = 0.1

# short aliases accepted anywhere a dataset kind is expected
_KIND_ALIASES = {"ring": "ring_cliques", "sbm": "sbm_cliques",
                 "ba": "ba_cliques", "er": "er_cliques"}


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


def _config_argv(path, keys: dict) -> list[str]:
    """The flags a config file stands for, for argparse to parse.

    A switch becomes its flag when true, a list its comma-joined items, and
    any other value `--flag=value`; floats print back exactly.
    """
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    argv = []
    for key, val in cfg.items():
        action = keys.get(key)
        if action is None:
            raise ValueError(f"unknown config key {key!r} (this subcommand "
                             f"has no --{key.replace('_', '-')} flag)")
        want = bool if action.nargs == 0 else _JSON_TYPES[action.type]
        # an integer stands for a float; a bool is only a bool
        fits = isinstance(val, (int, float) if want is float else want)
        if not fits or isinstance(val, bool) != (want is bool):
            raise ValueError(f"config key {key!r} expects {want.__name__}")
        item = _LIST_ITEMS.get(action.type)
        if item is not None:
            if any(type(x) is not item for x in val):
                raise ValueError(f"config key {key!r} expects a list of "
                                 f"{item.__name__}")
            if item is str and any(x == "" or "," in x for x in val):
                raise ValueError(f"config key {key!r}: an item cannot be "
                                 f"empty or hold a comma")
            val = ",".join(map(str, val))
        flag = action.option_strings[0]
        if want is not bool:
            argv.append(f"{flag}={val}")
        elif val:
            argv.append(flag)
    return argv


def _kind_of(name: str) -> str:
    kind = _KIND_ALIASES.get(name, name)
    if kind not in KINDS:
        raise ValueError(f"unknown dataset kind {name!r}")
    return kind


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _outdir(args, default="."):
    out = default if args.out is None else args.out
    os.makedirs(out, exist_ok=True)
    return out


def _check_counts(args):
    """Raise unless every count setting the command has is >= 1 and every
    seed, each of `bench --seeds` included, is >= 0."""
    for key, least in (("threads", 1), ("workers", 1), ("permutations", 1),
                       ("seed", 0), ("split_seed", 0), ("seeds", 0)):
        value = getattr(args, key, None)
        for count in value if isinstance(value, (list, tuple)) else [value]:
            if count is not None and count < least:
                raise ValueError(f"--{key.replace('_', '-')} must be at "
                                 f"least {least}, got {count}")


def _write_json(path, payload):
    # a NaN would make the file invalid JSON (undefined metrics are null);
    # encoding first leaves no half-written file when one slips in
    text = json.dumps(payload, indent=1, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------- graphs

# the generator settings a flag or config key may override, with --kind
_GEN_FIELDS = ("num_cliques", "clique_size", "base_nodes",
               "attach_edges_per_clique", "noise_edges",
               "er_p", "sbm_p_out", "ba_m")


def _synth_spec(args, kind: str):
    override = {f: getattr(args, f) for f in ("seed", *_GEN_FIELDS)
                if getattr(args, f) is not None}
    unread = [f for f in override if f not in READS[kind]]
    if unread:
        raise ValueError(f"--{unread[0].replace('_', '-')} does not go with "
                         f"--kind {kind}, whose generator does not read it")
    spec = replace(default_spec(kind), **override)
    spec.validate()
    return spec


def _fingerprint(g: Graph) -> dict:
    edges = np.ascontiguousarray(g.edges, dtype="<i8")
    return {"num_nodes": g.num_nodes, "num_edges": g.num_edges,
            "edges_sha256": hashlib.sha256(edges.tobytes()).hexdigest()}


def _resolve_graph(args, sidecar=None):
    """The graph a command works on: (g, gts, data_ref).

    --data or --kind name it, never both; without either, a checkpoint
    command uses the source its run.json records. The generator settings,
    and the seed of `explain` and `evaluate`, go only with --kind. data_ref
    says where the graph came from: the edge list's path and sha256, or
    the resolved generator spec. --ground-truth goes only with an edge
    list, whose gts is None without it. Given a checkpoint's sidecar, the
    graph must be the one that checkpoint was trained on.
    """
    data, kind = getattr(args, "data", None), args.kind
    gt_path = getattr(args, "ground_truth", None)
    if data and kind:
        raise ValueError("give either --data or --kind, not both")
    if not kind:
        given = [f for f in _GEN_FIELDS if getattr(args, f) is not None]
        if args.seed is not None and args.command in ("explain", "evaluate"):
            given.append("seed")
        if given:
            raise ValueError(f"--{given[0].replace('_', '-')} goes with "
                             f"--kind, which names a synthetic graph")
    ref = sidecar.get("data", {}) if sidecar is not None else {}
    if data or (not kind and "path" in ref):
        data = data or ref["path"]
        with open(data, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        g = load_edge_list(data)
        gts = load_ground_truth(gt_path, g) if gt_path else None
        data_ref = {"path": data, "sha256": digest}
    else:
        if gt_path:
            raise ValueError("--ground-truth goes with an edge list; a "
                             "synthetic graph brings its own")
        if kind:
            spec = _synth_spec(args, _kind_of(kind))
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
    """The run `train` makes from its parsed settings."""
    seed = LossConfig.seed if args.seed is None else args.seed
    method, lam_dis, lam_ent = args.method, args.lambda_dis, args.lambda_ent
    if method == "baseline-sgns":
        if lam_dis not in (None, 0.0) or lam_ent not in (None, 0.0):
            raise ValueError("baseline-sgns fixes both loss weights at 0")
        lam_dis = lam_ent = 0.0
    else:
        lam_dis = LossConfig.lambda_dis if lam_dis is None else lam_dis
        lam_ent = LossConfig.lambda_ent if lam_ent is None else lam_ent
    # a run with both regularizers off is plain skip-gram whatever it was
    # called on the command line, so the label says so
    label = "baseline-sgns" if lam_dis == 0.0 and lam_ent == 0.0 else method
    activation = args.activation or (
        "identity" if label == "baseline-sgns" else "relu")
    if not 0.0 <= args.split < 1.0:
        raise ValueError(f"--split must lie in [0, 1), got {args.split}")
    if args.split_seed is not None and args.split == 0.0:
        raise ValueError("--split-seed goes with --split")

    walk = WalkConfig(args.walk_length, args.num_walks, args.window,
                      args.negatives_per_positive, seed=seed)
    loss = LossConfig(lam_dis, lam_ent, args.epochs, args.learning_rate,
                      seed=seed)
    config = {**asdict(loss), **asdict(walk), "method": method,
              "encoder": "gcn" if method == "disene-gcn" else "fc",
              "activation": activation,
              "dim": args.dim, "dim_hidden": args.dim_hidden,
              "split": args.split,
              "split_seed": seed if args.split_seed is None else args.split_seed}
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
    sidecar, h = _load_checkpoint(args.checkpoint)
    g, _, _ = _resolve_graph(args, sidecar)
    background = None
    if args.background == "train":
        split = _recorded_split(g, sidecar, "--background train")
        background = split.train_edges
    expl = build_explanations(h, g, background=background)

    out = _outdir(args, default=args.checkpoint)
    save_explanation(os.path.join(out, "explanations.json"), expl)
    print(f"explain: {h.shape[1]} dimensions, {len(expl.empty_dims)} empty "
          f"-> {out}")
    return 0


# ---------------------------------------------------------------- evaluate

def cmd_evaluate(args) -> int:
    if args.checkpoints and args.checkpoint:
        raise ValueError("give checkpoint directories as arguments or as "
                         "--checkpoint, not both")
    ckpts = args.checkpoints or [args.checkpoint]
    toggles = {name: not getattr(args, f"no_{name}")
               for name in ("comprehensibility", "sparsity", "ovc", "poc")}

    loaded = []
    for path in ckpts:
        sidecar, h = _load_checkpoint(path)
        if args.dim is not None and h.shape[1] != args.dim:
            raise ValueError(f"checkpoint {path} has K={h.shape[1]}, "
                             f"config expects K={args.dim}")
        if loaded and h.shape[1] != loaded[0][1].shape[1]:
            raise ValueError("checkpoints disagree on K; aggregate runs "
                             "must share a dimensionality")
        g, gts, _ = _resolve_graph(args, sidecar)
        loaded.append((sidecar, h, g, gts))

    out = _outdir(args, default=ckpts[0])
    rows = []
    for i, (sidecar, h, g, gts) in enumerate(loaded):
        expl = build_explanations(h, g)
        rep = compute_report(
            h, expl, gts,
            num_permutations=args.permutations,
            seed=sidecar.get("seed", 0),
            metadata={"label": sidecar.get("label"),
                      "seed": sidecar.get("seed"),
                      "config_hash": sidecar.get("config_hash"),
                      "data": sidecar.get("data"),
                      "graph": sidecar["graph"], "dim": h.shape[1]},
            toggles=toggles)
        name = "report.json" if len(loaded) == 1 else f"report_{i}.json"
        _write_json(os.path.join(out, name), rep.to_json())
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
    sidecar, h = _load_checkpoint(args.checkpoint)
    g, gts, _ = _resolve_graph(args, sidecar)
    if gts is None:
        raise ValueError("downstream tasks need ground truth "
                         "(--ground-truth, or a synthetic --kind)")
    seed = sidecar.get("seed", 0) if args.seed is None else args.seed
    task = args.task

    if task == "link":
        # the held-out edges are the ones the embedding never saw
        split = _recorded_split(g, sidecar, "the link task")
        result = run_link_task(h, g, split, gts, seed=seed, l2=args.l2)
    else:
        result = run_node_task(h, g, gts, seed=seed, l2=args.l2)

    out = _outdir(args, default=args.checkpoint)
    _write_json(os.path.join(out, f"{task}_task.json"), {
        "task": task, "label": sidecar.get("label"),
        "config_hash": sidecar.get("config_hash"),
        "data": sidecar.get("data"), "graph": sidecar["graph"],
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
    # --dim <dim> --seed <seed> --split 0.1` makes, parsed the same way
    args = _build_parser().parse_args([
        "train", "--kind", dataset, "--method", method, f"--dim={dim}",
        f"--seed={seed}", f"--split={BENCH_SPLIT}"])
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
    rep = compute_report(h, expl, gts, num_permutations=permutations,
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
    datasets = [_kind_of(d) for d in args.datasets]
    for m in args.methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
    if not set(args.tasks) <= {"link", "node"}:
        raise ValueError("tasks must be link and/or node")

    out = _outdir(args, default="bench")
    results_path = os.path.join(out, "results.csv")
    # the rows append under this version's header, so a file written by an
    # older one (no graph column) is rewritten under it first
    done = {(r["dataset"], r["method"], int(r["dim"]), int(r["seed"]))
            for r in _rewrite_results(results_path)}
    # a cell named twice (a kind and its alias, a repeated seed) runs once
    manifest = list(dict.fromkeys(
        (d, m, k, s) for d in datasets for m in args.methods
        for k in args.dims for s in args.seeds))
    todo = [(d, m, k, s, tuple(args.tasks), args.permutations)
            for d, m, k, s in manifest if (d, m, k, s) not in done]
    print(f"bench: {len(manifest)} runs, {len(manifest) - len(todo)} already "
          f"done, {len(todo)} to go")

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
        pool = (ProcessPoolExecutor(max_workers=args.workers,
                                    mp_context=get_context("spawn"))
                if args.workers > 1 else None)
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

# built once per process: parsing never changes the parser, and no command
# mutates a default it hands out (the list defaults and config_keys dicts)
@cache
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
    for f in _GEN_FIELDS:
        gen_params.add_argument("--" + f.replace("_", "-"),
                                type=type(getattr(SynthSpec, f)))

    # the graph of train and of the checkpoint commands; the latter default
    # to the source their checkpoint's run.json records
    graph = argparse.ArgumentParser(add_help=False, parents=[gen_params])
    graph.add_argument("--data", help="edge list file instead of --kind")

    # shared by evaluate and bench, so its default is written once
    permutations = argparse.ArgumentParser(add_help=False)
    permutations.add_argument("--permutations", type=int, default=100)

    p = argparse.ArgumentParser(
        prog="disene",
        description="disentangled interpretable node embeddings")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", parents=[shared, gen_params],
                        help="write a synthetic benchmark graph")
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("train", parents=[shared, graph],
                        help="train an embedding, write a checkpoint")
    sp.add_argument("--method", choices=METHODS, default="disene-fc")
    # None: decided by the run's label (identity for plain skip-gram)
    sp.add_argument("--activation", choices=ACTIVATIONS)
    sp.add_argument("--dim", type=int, default=32,
                    help="embedding dimensions K")
    sp.add_argument("--dim-hidden", type=int, default=128)
    # None: decided by --method
    sp.add_argument("--lambda-dis", type=float)
    sp.add_argument("--lambda-ent", type=float)
    sp.add_argument("--epochs", type=int, default=LossConfig.epochs)
    sp.add_argument("--learning-rate", type=float,
                    default=LossConfig.learning_rate)
    sp.add_argument("--walk-length", type=int, default=WalkConfig.walk_length)
    sp.add_argument("--num-walks", type=int, default=WalkConfig.num_walks)
    sp.add_argument("--window", type=int, default=WalkConfig.window)
    sp.add_argument("--negatives-per-positive", type=int,
                    default=WalkConfig.negatives_per_positive)
    sp.add_argument("--split", type=float, default=0.0,
                    help="held-out edge fraction (0 trains on everything)")
    sp.add_argument("--split-seed", type=int)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("explain", parents=[shared, graph],
                        help="per-dimension explanation subgraphs")
    sp.add_argument("--checkpoint", help="checkpoint directory")
    sp.add_argument("--background", choices=("all", "train"), default="all")
    sp.set_defaults(func=cmd_explain)

    sp = sub.add_parser("evaluate", parents=[shared, graph, permutations],
                        help="interpretability metrics report")
    sp.add_argument("checkpoints", nargs="*",
                    help="checkpoint directories (aggregated mean/std)")
    sp.add_argument("--checkpoint", help="single checkpoint directory")
    sp.add_argument("--ground-truth")
    sp.add_argument("--dim", type=int, help="expected K; mismatch errors")
    for metric in ("comprehensibility", "sparsity", "ovc", "poc"):
        sp.add_argument(f"--no-{metric}", action="store_const", const=True)
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("downstream", parents=[shared, graph],
                        help="link prediction / node classification; the "
                             "link task uses the checkpoint's recorded split")
    sp.add_argument("--checkpoint")
    sp.add_argument("--task", choices=("link", "node"), default="link")
    sp.add_argument("--ground-truth")
    sp.add_argument("--l2", type=float, default=1e-4)
    sp.set_defaults(func=cmd_downstream)

    sp = sub.add_parser("bench", parents=[shared, permutations],
                        help="synthetic benchmark grid -> CSV tables")
    sp.add_argument("--datasets", type=_str_list, default=list(KINDS),
                    help="comma separated dataset kinds")
    sp.add_argument("--methods", type=_str_list, default=METHODS)
    sp.add_argument("--dims", type=_int_list, default=BENCH_DIMS)
    sp.add_argument("--seeds", type=_int_list, default=BENCH_SEEDS)
    sp.add_argument("--tasks", type=_str_list, default=("link", "node"))
    sp.add_argument("--workers", type=int, default=1)
    sp.set_defaults(func=cmd_bench)

    # a config file may set exactly the options of the subcommand it is for,
    # and a flag is taken only whole: `bench --seed` is not `--seeds`
    for sp in sub.choices.values():
        sp.allow_abbrev = False
        sp.set_defaults(config_keys=_config_keys(sp))
    return p


def _maybe_reexec(args, argv):
    threads = args.threads
    if threads is None and args.deterministic:
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
    try:
        if args.config:
            # the file's flags go first, so the command line's win
            args = parser.parse_args(
                [argv[0], *_config_argv(args.config, args.config_keys),
                 *argv[1:]])
        _check_counts(args)
        _maybe_reexec(args, argv)
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
