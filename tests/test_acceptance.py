"""Acceptance gate: one test per shipped guarantee.

Each test appends a PASS/FAIL line (with the measured numbers) to the
terminal summary via conftest.ACCEPTANCE_LOG, then asserts. The heavy
criteria share trained embeddings through the session-wide run cache, so
the whole gate stays in the minutes range; expect roughly 10-15 minutes
end to end on a laptop-class machine.
"""

import json
import math
import subprocess
import sys
from itertools import combinations
from time import perf_counter

import numpy as np
from conftest import ACCEPTANCE_LOG

from disene.cli import main as cli_main
from disene.downstream import (LogRegModel, linear_shap, plausibility,
                               run_link_task, run_node_task)
from disene.explain import build_explanations
from disene.graph_core import (build_graph, canonical_edge,
                               communities_from_labels, community_indicators)
from disene.metrics import (auc_pr, comprehensibility, jaccard,
                            overlap_consistency, pearson, sparsity,
                            weighted_f1)
from disene.model import init_params
from disene.sampling import WalkConfig, build_pair_batch
from disene.training import LossConfig, total_loss_and_grads

ALL_DATASETS = ("ring_cliques", "sbm_cliques", "ba_cliques", "er_cliques")


def record(name, ok, detail):
    ACCEPTANCE_LOG.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _short(dataset):
    return dataset.split("_")[0]


# ------------------------------------------------------------------ 1

def _fd_block(params, name, g, batch, cfg, eps=1e-5):
    w = getattr(params, name)
    out = np.zeros_like(w)
    for idx in np.ndindex(*w.shape):
        keep = w[idx]
        w[idx] = keep + eps
        fp = total_loss_and_grads(params, g, batch, cfg)[0]
        w[idx] = keep - eps
        fm = total_loss_and_grads(params, g, batch, cfg)[0]
        w[idx] = keep
        out[idx] = (fp - fm) / (2 * eps)
    return out


def test_criterion_1_gradient_fidelity():
    """Analytic gradients vs central differences, 5 instances, both encoders."""
    t0 = perf_counter()
    rng = np.random.default_rng(101)
    cfg = LossConfig(lambda_dis=1.0, lambda_ent=1.0, dtype="float64")
    worst = 0.0
    for inst in range(5):
        n = 20
        iu, iv = np.triu_indices(n, k=1)
        keep = rng.random(len(iu)) < 0.18
        g = build_graph(n, np.stack([iu[keep], iv[keep]], axis=1))
        batch = build_pair_batch(g, WalkConfig(walk_length=6, num_walks=2,
                                               window=2, seed=inst))
        for kind in ("fc", "gcn"):
            params = init_params(g, kind, dim_hidden=4, dim=4, seed=inst,
                                 dtype=np.float64)
            _, buf = total_loss_and_grads(params, g, batch, cfg)
            for name, grad in (("W1", buf.dW1), ("W", buf.dW)):
                fd = _fd_block(params, name, g, batch, cfg)
                rel = (np.linalg.norm(grad - fd)
                       / max(np.linalg.norm(grad), np.linalg.norm(fd), 1e-12))
                worst = max(worst, rel)
    elapsed = perf_counter() - t0
    record("criterion 1 (gradient fidelity)",
           worst < 1e-4 and elapsed < 10.0,
           f"max rel err {worst:.2e} (< 1e-4) over 5 instances x 2 encoders, "
           f"{elapsed:.1f}s (< 10s)")


# ------------------------------------------------------------------ 2

def _f1_oracle(items, support, truth):
    if not truth:
        return 0.0
    total = sum(w for _, w in items)
    hit = sum(w for e, w in items if e in truth)
    if total <= 0.0:
        return 0.0
    prec, rec = hit / total, len(support & truth) / len(truth)
    if prec <= 0.0 or rec <= 0.0:
        return 0.0
    return 2.0 * prec * rec / (prec + rec)


def _pearson_oracle(x, y):
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    dx = math.sqrt(sum((a - mx) ** 2 for a in x))
    dy = math.sqrt(sum((b - my) ** 2 for b in y))
    return num / (dx * dy)


def _auc_oracle(scores, labels):
    npos = sum(labels)
    ap, prev = 0.0, 0.0
    for t in sorted(set(scores), reverse=True):
        taken = [l for s, l in zip(scores, labels) if s >= t]
        tp = sum(taken)
        prec, rec = tp / len(taken), tp / npos
        ap += (rec - prev) * prec
        prev = rec
    return ap


def _shapley_oracle(model, x):
    k = len(x)
    mu = model.background_mean
    out = np.zeros(k)
    for j in range(k):
        rest = [i for i in range(k) if i != j]
        for r in range(k):
            for s in combinations(rest, r):
                w = (math.factorial(len(s)) * math.factorial(k - len(s) - 1)
                     / math.factorial(k))
                xs = mu.copy()
                xs[list(s)] = x[list(s)]
                wj = xs.copy()
                wj[j] = x[j]
                out[j] += w * (float(model.logits(wj)) - float(model.logits(xs)))
    return out


def _c2_instance(rng):
    """Two labeled cliques plus cross edges: <= 30 edges, nonempty truth."""
    s1, s2 = int(rng.integers(3, 6)), int(rng.integers(3, 6))
    n = s1 + s2
    edges = [(u, v) for u in range(s1) for v in range(u + 1, s1)]
    edges += [(u, v) for u in range(s1, n) for v in range(u + 1, n)]
    edges.append((0, s1))
    for _ in range(int(rng.integers(0, 4))):
        e = canonical_edge(int(rng.integers(0, s1)), int(rng.integers(s1, n)))
        if e not in edges:
            edges.append(e)
    g = build_graph(n, edges)
    gts = communities_from_labels(g, np.array([0] * s1 + [1] * s2))
    return g, gts


def test_criterion_2_metric_oracles():
    """Each listed metric vs an independent brute-force oracle, 1e-9."""
    t0 = perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0

    def check(a, b):
        nonlocal worst
        worst = max(worst, abs(a - b))

    for inst in range(50):
        g, gts = _c2_instance(rng)
        k = int(rng.integers(2, 9))
        h = np.abs(rng.normal(size=(g.num_nodes, k)))
        all_edges = [tuple(e) for e in g.edges.tolist()]
        edge_truth, _ = community_indicators(g, gts)

        def mask_array(dicts):
            """(E, len(dicts)) weights over g.edges from {edge: weight} dicts."""
            w = np.zeros((len(all_edges), len(dicts)))
            for j, d in enumerate(dicts):
                for e, x in d.items():
                    w[all_edges.index(e), j] = x
            return w

        # comprehensibility + sparsity on a random positive mask
        take = rng.choice(len(all_edges), size=int(rng.integers(1, len(all_edges) + 1)),
                          replace=False)
        mask = {all_edges[i]: float(rng.uniform(0.1, 2.0)) for i in take}
        items, support = list(mask.items()), frozenset(mask)
        scores, _ = comprehensibility(mask_array([mask]), edge_truth)
        check(scores[0], max(_f1_oracle(items, support, c.edges)
                             for c in gts.communities))
        total = sum(w for _, w in items)
        q = [w / total for _, w in items]
        check(sparsity(mask_array([mask]))[0],
              -sum(x * math.log(x) for x in q) / math.log(g.num_edges))

        # JSI on two random edge subsets (possibly empty)
        a = frozenset(e for e in all_edges if rng.random() < 0.5)
        b = frozenset(e for e in all_edges if rng.random() < 0.5)
        want = 0.0 if not a and not b else len(a & b) / len(a | b)
        support_ab = np.array([[e in a, e in b] for e in all_edges])
        check(jaccard(support_ab)[0, 1], want)

        # Pearson on two embedding columns
        x, y = h[:, 0].tolist(), h[:, k - 1].tolist()
        check(pearson(h[:, 0], h[:, k - 1]), _pearson_oracle(x, y))

        # AUC-PR with deliberate score ties
        scores = (rng.integers(0, 6, size=20) / 5.0).tolist()
        labels = rng.integers(0, 2, size=20).tolist()
        labels[0], labels[1] = 1, 0
        check(auc_pr(scores, labels), _auc_oracle(scores, labels))

        # LinearSHAP vs exact Shapley enumeration over 2^k coalitions
        model = LogRegModel(beta=rng.normal(size=k),
                            intercept=float(rng.normal()),
                            background_mean=rng.normal(size=k))
        xinst = rng.normal(size=k)
        psi = linear_shap(model, xinst)
        for got, want in zip(psi, _shapley_oracle(model, xinst)):
            check(got, want)

        # plausibility as the attribution-weighted oracle F1
        dicts = []
        for _ in range(k):
            pick = rng.choice(len(all_edges),
                              size=int(rng.integers(0, len(all_edges) + 1)),
                              replace=False)
            dicts.append({all_edges[i]: float(rng.uniform(0.1, 1.0))
                          for i in pick})
        psi2 = rng.normal(size=k)
        psi2[0] = abs(psi2[0]) + 0.1
        gi = int(rng.integers(0, len(gts.communities)))
        f1 = weighted_f1(mask_array(dicts), edge_truth)
        got = plausibility(psi2[None, :], f1, [gi])[0]
        f = [max(p, 0.0) for p in psi2]
        want = sum(fj * _f1_oracle(list(d.items()), frozenset(d),
                                   gts.communities[gi].edges)
                   for fj, d in zip(f, dicts) if fj > 0) / sum(f)
        check(got, want)

    elapsed = perf_counter() - t0
    record("criterion 2 (metric oracle equivalence)",
           worst <= 1e-9 and elapsed < 30.0,
           f"max abs deviation {worst:.2e} (<= 1e-9) over 50 instances x 7 "
           f"metrics, {elapsed:.1f}s (< 30s)")


# ------------------------------------------------------------------ 3-7

def _link(run_cache, trained, dataset, method, dim, seed):
    key = ("link-task", dataset, method, dim, seed)
    if key not in run_cache:
        g, gts, split, h = trained(dataset, method, dim, seed)
        run_cache[key] = run_link_task(h, g, split, gts, seed=seed)
    return run_cache[key]


def _node(run_cache, trained, dataset, method, dim, seed):
    key = ("node-task", dataset, method, dim, seed)
    if key not in run_cache:
        g, gts, split, h = trained(dataset, method, dim, seed)
        run_cache[key] = run_node_task(h, g, gts, seed=seed)
    return run_cache[key]


def test_criterion_3_link_plausibility(trained, run_cache):
    """fc on the ring benchmark: best plausibility over K, 5-seed mean."""
    t0 = perf_counter()
    means = {}
    for dim in (2, 4, 8, 16, 32, 64, 128):
        vals = [_link(run_cache, trained, "ring_cliques", "disene-fc",
                      dim, seed).plausibility_mean for seed in range(5)]
        assert all(v is not None for v in vals)
        means[dim] = float(np.mean(vals))
    best_dim = max(means, key=means.get)
    best = means[best_dim]
    elapsed = perf_counter() - t0
    record("criterion 3 (link plausibility, ring)",
           best >= 0.90 and elapsed < 900.0,
           f"best 5-seed mean {best:.4f} at K={best_dim} (>= 0.90), "
           f"{elapsed:.0f}s (< 900s)")


def test_criterion_4_baseline_ordering(trained, run_cache):
    """Both regularized variants beat plain skip-gram by >= 0.3 everywhere."""
    dim, seeds = 64, (0, 1)
    parts, ok = [], True
    for dataset in ALL_DATASETS:
        runs = [("link", _link)]
        if dataset in ("ba_cliques", "er_cliques"):
            runs.append(("node", _node))
        for task, fn in runs:
            means = {}
            for method in ("disene-fc", "disene-gcn", "baseline-sgns"):
                vals = [fn(run_cache, trained, dataset, method, dim,
                           s).plausibility_mean for s in seeds]
                assert all(v is not None for v in vals)
                means[method] = float(np.mean(vals))
            for method, tag in (("disene-fc", "fc"), ("disene-gcn", "gcn")):
                margin = means[method] - means["baseline-sgns"]
                ok = ok and margin >= 0.3
                parts.append(f"{_short(dataset)}/{task} {tag} +{margin:.2f}")
    record("criterion 4 (margin over plain skip-gram)", ok,
           "; ".join(parts) + " (each >= 0.3)")


def test_criterion_5_overlap_consistency(trained_full, run_cache):
    """fc OvC at K=64, 5-seed mean >= 0.80 on every dataset."""
    parts, ok = [], True
    for dataset in ALL_DATASETS:
        vals = []
        for seed in range(5):
            key = ("ovc", dataset, 64, seed)
            if key not in run_cache:
                g, _, h = trained_full(dataset, "disene-fc", 64, seed)
                run_cache[key] = overlap_consistency(h, build_explanations(h, g))[0]
            assert run_cache[key] is not None
            vals.append(run_cache[key])
        m = float(np.mean(vals))
        ok = ok and m >= 0.80
        parts.append(f"{_short(dataset)} {m:.3f}")
    record("criterion 5 (overlap consistency, K=64)", ok,
           "; ".join(parts) + " (each 5-seed mean >= 0.80)")


def test_criterion_6_downstream_auc(trained, run_cache):
    """Ring link prediction at K=32 stays near ceiling."""
    vals = [_link(run_cache, trained, "ring_cliques", "disene-fc", 32,
                  seed).auc_pr for seed in range(5)]
    mean, lo = float(np.mean(vals)), min(vals)
    record("criterion 6 (link AUC-PR, ring, K=32)", mean >= 0.85,
           f"5-seed mean {mean:.4f}, min {lo:.4f} (mean >= 0.85)")


def test_criterion_7_entropy_regularizer(trained_full):
    """Column-mass entropy term keeps explanation dimensions alive."""
    g1, _, h1 = trained_full("ring_cliques", "disene-fc", 32, 0, lambda_ent=1.0)
    on = len(build_explanations(h1, g1).empty_dims)
    g0, _, h0 = trained_full("ring_cliques", "disene-fc", 32, 0, lambda_ent=0.0)
    off = len(build_explanations(h0, g0).empty_dims)
    record("criterion 7 (entropy regularizer)", on <= 2,
           f"empty dims with the term on: {on} (<= 2); "
           f"with it off: {off} (reported, no bound)")


# ------------------------------------------------------------------ 8

def test_criterion_8_determinism(tmp_path):
    """Fresh processes, same config and seed: bit-identical artifacts."""
    train_args = ["train", "--kind", "ring", "--seed", "0", "--dim", "8",
                  "--dim-hidden", "16", "--epochs", "5", "--walk-length", "6",
                  "--num-walks", "2", "--window", "2", "--deterministic"]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        r = subprocess.run([sys.executable, "-m", "disene.cli", *train_args,
                            "--out", str(out)],
                           capture_output=True, text=True, timeout=300)
        assert r.returncode == 0, r.stderr
        outs.append(out)
    same = [(outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
            for f in ("embedding.bin", "run.json")]
    for out in outs:
        r = subprocess.run([sys.executable, "-m", "disene.cli", "evaluate",
                            "--checkpoint", str(out), "--permutations", "20",
                            "--deterministic", "--out", str(out)],
                           capture_output=True, text=True, timeout=300)
        assert r.returncode == 0, r.stderr
    same.append((outs[0] / "report.json").read_bytes()
                == (outs[1] / "report.json").read_bytes())
    record("criterion 8 (determinism)", all(same),
           "embedding.bin, run.json, report.json byte-identical across "
           "two fresh-process runs")


# ------------------------------------------------------------------ 9

def test_criterion_9_real_data_path(tmp_path):
    """External edge lists flow through train/explain/evaluate untouched.

    No numbers are pinned here: the file is a stand-in for real-world data,
    and the check is that the loader, the trainer, and the metric reports
    accept it end to end.
    """
    lines = ["# protein interaction snippet, tab/space separated"]
    groups = [[f"g{i}a", f"g{i}b", f"g{i}c", f"g{i}d", f"g{i}e"]
              for i in range(3)]
    for members in groups:
        for x, y in combinations(members, 2):
            lines.append(f"{x} {y}")
    lines += ["g0a g1a", "g1b g2b", "g2c g0c",   # sparse cross links
              "iso1 iso2"]                        # dropped: not in the giant component
    data = tmp_path / "edges.txt"
    data.write_text("\n".join(lines) + "\n")

    ckpt = tmp_path / "ckpt"
    rc = cli_main(["train", "--data", str(data), "--dim", "4",
                   "--dim-hidden", "8", "--epochs", "3", "--walk-length", "6",
                   "--num-walks", "2", "--window", "2", "--out", str(ckpt)])
    assert rc == 0
    rc = cli_main(["explain", "--checkpoint", str(ckpt), "--data", str(data),
                   "--out", str(ckpt)])
    assert rc == 0
    rc = cli_main(["evaluate", "--checkpoint", str(ckpt), "--data", str(data),
                   "--permutations", "20", "--out", str(ckpt)])
    assert rc == 0

    sidecar = json.loads((ckpt / "run.json").read_text())
    report = json.loads((ckpt / "report.json").read_text())
    ok = (sidecar["num_nodes"] == 15                      # iso pair dropped
          and report["metrics"]["num_dims"] == 4
          and "sparsity_score" in report["metrics"]
          and "comprehensibility_mean" not in report["metrics"])
    record("criterion 9 (real-data loader path)", ok,
           "string-id edge list -> train/explain/evaluate, report written "
           "without pinned numbers")
