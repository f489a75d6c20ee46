"""Output checks for every operation, run outside the timed region.

An operation fails when a CLI stage raised or exited non-zero, or when its
artifacts fail any check here:

- each stage wrote its files;
- embedding.bin is finite and, for relu, non-negative;
- run.json's final_loss matches a float64 brute-force recomputation of
  L_rw + lambda_dis L_dis + lambda_ent L_ent over the raw, unaggregated
  corpus, within a relative 1e-4;
- the artifacts describe the graph the workload asked for;
- the quality metrics are present and meet the acceptance floors that apply;
- every artifact is byte-identical to the same seed's first operation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import struct

import numpy as np
from scipy.special import expit

from disene.graph_core import split_edges, train_subgraph
from disene.sampling import WalkConfig, build_pair_batch
from workloads import SPLIT

LOSS_RTOL = 1e-4
SIGMA_CLAMP = 1e-7     # the objective clips sigmoid outputs before the log
COSINE_EPS = 1e-12
MASS_EPS = 1e-12
CHUNK = 65536          # pairs per block in the reference L_rw

# files the train stage writes into the checkpoint
TRAIN_FILES = ("embedding.bin", "embedding.txt", "run.json")
# stage -> files it writes into the output directory of its pass
STAGE_FILES = {
    "train": (),
    "explain": ("explanations.json",),
    "evaluate": ("report.json", "summary.csv"),
    "downstream_link": ("link_task.json", "link_instances.csv"),
    "downstream_node": ("node_task.json", "node_instances.csv"),
}
QUALITY = ("link_auc_pr", "link_plausibility", "ovc", "comprehensibility")


# ------------------------------------------------------------ reference

def reference_objective(h, positives, negatives, lambda_dis, lambda_ent):
    """The training objective in float64, summed pair by pair."""
    h = np.asarray(h, dtype=np.float64)
    lo, hi = SIGMA_CLAMP, 1.0 - SIGMA_CLAMP
    rw = 0.0
    for pairs, sign in ((positives, 1.0), (negatives, -1.0)):
        for i in range(0, len(pairs), CHUNK):
            p = pairs[i:i + CHUNK]
            s = np.einsum("ij,ij->i", h[p[:, 0]], h[p[:, 1]])
            rw -= float(np.log(np.clip(expit(sign * s), lo, hi)).sum())

    mass = h.sum(axis=0)
    k = h.shape[1]
    dis = 0.0
    if lambda_dis > 0 and k >= 2:
        f = h * mass[None, :]
        gram = f.T @ f
        norm = np.sqrt(np.maximum(np.diag(gram), 0.0))
        cos = gram / (np.outer(norm, norm) + COSINE_EPS)
        dis = float(cos.sum() - np.trace(cos))
    ent = 0.0
    if lambda_ent > 0 and k >= 2:
        total = mass.sum()
        if total <= MASS_EPS:
            ent = 1.0
        else:
            p = mass / total
            entropy = -float(np.sum(p * np.log(np.maximum(p, MASS_EPS))))
            ent = 1.0 - entropy / math.log(k)
    return rw + lambda_dis * dis + lambda_ent * ent


def read_embedding(path) -> np.ndarray:
    """embedding.bin: uint32 V, K little-endian, then V*K float32."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8:
        raise ValueError("truncated header")
    v, k = struct.unpack("<II", blob[:8])
    if len(blob) != 8 + 4 * v * k:
        raise ValueError(f"{len(blob) - 8} payload bytes for a {v}x{k} matrix")
    return np.frombuffer(blob, dtype="<f4", offset=8).reshape(v, k)


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _memo(ctx, key, fn):
    if key not in ctx.cache:
        ctx.cache[key] = fn()
    return ctx.cache[key]


def _train_corpus(ctx):
    """The raw skip-gram corpus the train stage should have built."""
    w = ctx.workload
    split = split_edges(ctx.graph, SPLIT, ctx.seed)
    walk = {k: w.train[k] for k in ("walk_length", "num_walks", "window",
                                    "negatives_per_positive") if k in w.train}
    return build_pair_batch(train_subgraph(ctx.graph, split),
                            WalkConfig(seed=ctx.seed, **walk))


def _expected_loss(ctx, h, digest):
    def compute():
        batch = _memo(ctx, "corpus", lambda: _train_corpus(ctx))
        lam = 0.0 if ctx.workload.train["method"] == "baseline-sgns" else 1.0
        return reference_objective(h, batch.positives, batch.negatives,
                                   lam, lam)
    return _memo(ctx, ("loss", digest), compute)


# ------------------------------------------------------------ checks

def _check_embedding(ctx, op, problems):
    emb_path = os.path.join(op.checkpoint, "embedding.bin")
    try:
        h = read_embedding(emb_path)
    except ValueError as exc:
        problems.append(f"embedding.bin: {exc}")
        return
    w = ctx.workload
    if h.shape != (ctx.graph.num_nodes, w.train["dim"]):
        problems.append(f"embedding is {h.shape}, expected "
                        f"{(ctx.graph.num_nodes, w.train['dim'])}")
        return
    if not np.all(np.isfinite(h)):
        problems.append("embedding has non-finite entries")
        return
    if w.train.get("activation", "relu") == "relu" and h.min() < 0.0:
        problems.append(f"relu embedding has a negative entry ({h.min()})")
    got = _load_json(os.path.join(op.checkpoint, "run.json"))["final_loss"]
    want = _expected_loss(ctx, h, _digest(emb_path))
    if not abs(got - want) <= LOSS_RTOL * abs(want):
        problems.append(f"final_loss {got!r} differs from the float64 "
                        f"recomputation {want!r} by more than {LOSS_RTOL:g}")


def _check_graph(ctx, out, problems):
    """A pass's artifacts name the workload's graph, not a default-size one."""
    g, gts = ctx.graph, ctx.truth
    edges = g.edge_set
    path = os.path.join(out, "explanations.json")
    if os.path.exists(path):
        expl = _load_json(path)
        if expl["background_size"] != g.num_edges:
            problems.append(f"explanations centred on {expl['background_size']}"
                            f" edges, the graph has {g.num_edges}")
        named = {tuple(e) for d in expl["dims"] for e in d["edges"]}
        if not named <= edges:
            problems.append(f"explanations name {len(named - edges)} edges "
                            "that are not in the graph")
        report = os.path.join(out, "report.json")
        if os.path.exists(report):
            got = _load_json(report)["per_dimension"].get("sparsity")
            want = [_sparsity(d["weights"], g.num_edges) for d in expl["dims"]]
            if (got is None or len(got) != len(want)
                    or not np.allclose(got, want, rtol=0, atol=1e-9)):
                problems.append("report sparsity does not match the "
                                "explanations over the workload's graph")
    for task in ("link", "node"):
        path = os.path.join(out, f"{task}_instances.csv")
        if not os.path.exists(path):
            continue
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        bad = 0
        for row in rows:
            gi = int(row["community"])
            if task == "link":
                u, v = (int(x) for x in row["instance"].split("-"))
                ok = (min(u, v), max(u, v)) in edges and \
                    gts.community_of_edge(u, v) == gi
            else:
                ok = gts.community_of_node(int(row["instance"])) == gi
            bad += not ok
        if not rows or bad:
            problems.append(f"{task} task: {bad} of {len(rows)} instances do "
                            "not belong to the workload's graph")


def _sparsity(weights, total_edges):
    if not weights:
        return 0.0
    q = np.asarray(weights, dtype=np.float64)
    q = q / q.sum()
    return -float(np.sum(q * np.log(q))) / math.log(total_edges)


def quality(op, out=None) -> dict:
    """Quality metrics and final loss of an operation's pass (the first by
    default); None where missing."""
    out = op.outs[0] if out is None else out
    values = dict.fromkeys(QUALITY + ("final_loss",))
    link = os.path.join(out, "link_task.json")
    if os.path.exists(link):
        payload = _load_json(link)
        values["link_auc_pr"] = payload.get("auc_pr")
        values["link_plausibility"] = payload.get("plausibility")
    report = os.path.join(out, "report.json")
    if os.path.exists(report):
        metrics = _load_json(report)["metrics"]
        values["ovc"] = metrics.get("ovc")
        values["comprehensibility"] = metrics.get("comprehensibility_mean")
    run = os.path.join(op.checkpoint, "run.json")
    if os.path.exists(run):
        values["final_loss"] = _load_json(run).get("final_loss")
    return values


def _check_quality(ctx, op, out, problems):
    values = quality(op, out)
    for name, val in values.items():
        if val is None or not math.isfinite(val):
            problems.append(f"{name} is {val!r}")
    for name, floor in ctx.workload.floors.items():
        val = values.get(name)
        if val is not None and val < floor:
            problems.append(f"{name} {val:.4f} is below the floor {floor}")


def _artifacts(ctx, op) -> list[tuple[str, str]]:
    """(name, path) of every file the operation should have written."""
    files = [(n, os.path.join(op.checkpoint, n)) for n in TRAIN_FILES]
    for out in op.outs:
        for stage in ctx.workload.stages:
            files += [(n, os.path.join(out, n)) for n in STAGE_FILES[stage]]
    return files


def check_operations(ctx, ops) -> int:
    """Check every operation, add what is wrong to op.problems; count failed.

    Every file must be byte-identical to the one of that name in the first
    operation checked (its first pass, for the files of a pass).
    """
    first = {}   # file name -> (digest, operation index)
    for op in ops:
        if op.failed:
            continue
        files = _artifacts(ctx, op)
        missing = [p for _, p in files if not os.path.exists(p)]
        if missing:
            op.problems.append(f"missing artifacts: {missing}")
            continue
        _check_embedding(ctx, op, op.problems)
        for out in op.outs:
            _check_graph(ctx, out, op.problems)
            _check_quality(ctx, op, out, op.problems)
        for name, path in files:
            digest, index = first.setdefault(name, (_digest(path), op.index))
            if _digest(path) != digest:
                op.problems.append(f"{name} differs from operation {index}"
                                   f" ({path})")
    return sum(op.failed for op in ops)
