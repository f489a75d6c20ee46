"""Spans around the public calls into each disene layer, from outside the package.

The tracer swaps module attributes for timing wrappers. A wrap point is the
name a caller looks up at call time, so `disene.cli.train` is the `train` the
CLI calls and `disene.training.forward` is the `forward` the trainer calls.
A wrap point that no longer exists (a refactor renamed or removed it) is
recorded as missing, never skipped silently.

Spans are kept in memory as (id, parent, name, layer, start, end) and written
out once, when the run ends. Count hooks run after the wrapped call returns,
inside the span, so their small cost shows up as tracing overhead.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


def _pair_batch_sizes(i, args, out):
    return {"sampling.positives": len(out.positives),
            "sampling.negatives": len(out.negatives)}


def _aggregate_sizes(i, args, out):
    # every caller aggregates the positives first and then their negatives,
    # so calls alternate positive, negative
    side = "pos" if i % 2 == 0 else "neg"
    return {f"training.raw_{side}_pairs": len(args[0]),
            f"training.unique_{side}_pairs": len(out.u)}


def _mask_edges(i, args, out):
    return {"explain.mask_edges": sum(len(s) for s in out.edge_sets),
            "explain.explanations": 1}


# (module, attribute, layer, metric stem, count hook or None)
WRAP_POINTS = (
    ("disene.cli", "generate_synthetic", "synth", "generate_synthetic", None),
    ("disene.cli", "split_edges", "graph_core", "split_edges", None),
    ("disene.cli", "train_subgraph", "graph_core", "train_subgraph", None),
    ("disene.metrics", "bfs_distances", "graph_core", "bfs_distances", None),
    ("disene.training", "build_pair_batch", "sampling", "build_pair_batch",
     _pair_batch_sizes),
    ("disene.sampling", "generate_walks", "sampling", "generate_walks", None),
    ("disene.sampling", "pairs_from_walks", "sampling", "pairs_from_walks", None),
    ("disene.sampling", "sample_negatives", "sampling", "sample_negatives", None),
    ("disene.cli", "train", "training", "train", None),
    ("disene.training", "total_loss_and_grads", "training",
     "total_loss_and_grads", None),
    ("disene.training", "adam_step", "training", "adam_step", None),
    ("disene.training", "loss_breakdown", "training", "loss_breakdown", None),
    ("disene.training", "_aggregate", "training", "aggregate", _aggregate_sizes),
    ("disene.training", "forward", "model", "forward", None),
    ("disene.training", "normalized_adjacency", "model",
     "normalized_adjacency", None),
    ("disene.training", "init_params", "model", "init_params", None),
    ("disene.cli", "save_embedding_binary", "model", "save_embedding", None),
    ("disene.cli", "save_embedding_text", "model", "save_embedding_text", None),
    ("disene.cli", "load_embedding_binary", "model", "load_embedding", None),
    ("disene.cli", "build_explanations", "explain", "build_explanations",
     _mask_edges),
    ("disene.cli", "save_explanation", "explain", "save_explanation", None),
    ("disene.cli", "compute_report", "metrics", "compute_report", None),
    ("disene.metrics", "comprehensibility", "metrics", "comprehensibility", None),
    ("disene.metrics", "sparsity", "metrics", "sparsity", None),
    ("disene.metrics", "overlap_consistency", "metrics",
     "overlap_consistency", None),
    ("disene.metrics", "fpc_matrix", "metrics", "fpc_matrix", None),
    ("disene.metrics", "positional_coherence", "metrics",
     "positional_coherence", None),
    ("disene.metrics", "weighted_f1", "metrics", "weighted_f1", None),
    ("disene.cli", "run_link_task", "downstream", "run_link_task", None),
    ("disene.cli", "run_node_task", "downstream", "run_node_task", None),
    ("disene.downstream", "fit_logreg", "downstream", "fit_logreg", None),
    ("disene.downstream", "build_task_masks", "downstream",
     "build_task_masks", None),
    ("disene.downstream", "plausibility", "downstream", "plausibility", None),
    # downstream looks weighted_f1 up only on an f1-cache miss
    ("disene.downstream", "weighted_f1", "downstream", "weighted_f1", None),
)

# the CLI stages are spans the benchmark opens itself around cli.main
CLI_STAGES = ("train", "explain", "evaluate", "downstream_link",
              "downstream_node")
LAYERS = ("synth", "graph_core", "sampling", "training", "model", "explain",
          "metrics", "downstream", "cli")
# stems reported only as a call count, under the name the count goes by
_CALL_NAMES = {"graph_core.bfs_distances": "graph_core.bfs_calls",
               "training.total_loss_and_grads": "training.steps",
               "metrics.weighted_f1": "metrics.weighted_f1_calls",
               "downstream.weighted_f1": "downstream.weighted_f1_calls"}
_COUNT_ONLY = ("metrics.weighted_f1", "downstream.weighted_f1")


class Tracer:
    def __init__(self, points=WRAP_POINTS):
        self.points = points
        self.spans: list[tuple] = []    # (id, parent, name, layer, t0, t1)
        self.counts: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str, layer: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, layer, t0, t1)

    def _wrap(self, fn, layer, stem, hook):
        name = f"{layer}.{stem}"
        tracer = self

        def traced(*args, **kwargs):
            i = tracer.calls[name]
            tracer.calls[name] = i + 1
            with tracer.span(name, layer):
                out = fn(*args, **kwargs)
                if hook is not None:
                    for key, val in hook(i, args, out).items():
                        tracer.counts[key] += val
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every point for the duration of the block, then restore."""
        self.missing = []
        for mod_name, attr, layer, stem, hook in self.points:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, layer, stem, hook))
        try:
            yield self
        finally:
            while self._saved:
                mod, attr, fn = self._saved.pop()
                setattr(mod, attr, fn)

    # ------------------------------------------------------------ results

    def durations(self) -> dict[str, list[float]]:
        out = defaultdict(list)
        for _, _, name, _, t0, t1 in self.spans:
            out[name].append(t1 - t0)
        return out

    def self_times(self) -> dict[str, float]:
        """Per layer: span time minus the time its child spans cover."""
        child = defaultdict(float)
        for _, parent, _, _, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for sid, _, _, layer, t0, t1 in self.spans:
            out[layer] += (t1 - t0) - child[sid]
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; a missing wrap point reads 0 and is listed."""
        dur = self.durations()
        out = {}
        for _, _, layer, stem, _ in self.points:
            key = f"{layer}.{stem}"
            if key not in _COUNT_ONLY:
                out[f"{key}_s"] = sum(dur.get(key, []))
            out[_CALL_NAMES.get(key, f"{key}_calls")] = self.calls.get(key, 0)
        for stage in CLI_STAGES:
            out[f"cli.{stage}_s"] = sum(dur.get(f"cli.{stage}", []))
        selft = self.self_times()
        for layer in LAYERS:
            out[f"{layer}.self_s"] = selft.get(layer, 0.0)
        c = self.counts
        out["sampling.positives"] = c["sampling.positives"]
        out["sampling.negatives"] = c["sampling.negatives"]
        for side in ("pos", "neg"):
            raw = c[f"training.raw_{side}_pairs"]
            out[f"training.unique_{side}_pairs"] = (
                c[f"training.unique_{side}_pairs"] / raw if raw else 0.0)
        grads = dur.get("training.total_loss_and_grads", [])
        adam = dur.get("training.adam_step", [])
        steps = [a + b for a, b in zip(grads, adam)]
        out["training.step_median_ms"] = (
            1e3 * statistics.median(steps) if steps else 0.0)
        n_expl = c["explain.explanations"]
        out["explain.mask_edges"] = (c["explain.mask_edges"] / n_expl
                                     if n_expl else 0.0)
        out["trace.spans"] = len(self.spans)
        out["trace.missing_wraps"] = len(self.missing)
        return out

    def dump(self, path, extra: dict):
        payload = dict(extra)
        payload["missing_wrap_points"] = self.missing
        payload["spans"] = [
            {"id": sid, "parent": parent, "name": name, "layer": layer,
             "start": t0, "end": t1}
            for sid, parent, name, layer, t0, t1 in self.spans]
        with open(path, "w") as fh:
            json.dump(payload, fh)


_RATIOS = ("training.unique_pos_pairs", "training.unique_neg_pairs",
           "error_rate")


def per_layer_metrics() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit.

    The benchmark adds `trace.overhead_s` and `error_rate` to what the
    tracer measures itself.
    """
    names = list(Tracer().metrics()) + ["trace.overhead_s", "error_rate"]
    return {n: "s" if n.endswith("_s") else "ms" if n.endswith("_ms")
            else "ratio" if n in _RATIOS else "count" for n in names}
