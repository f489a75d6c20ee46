"""The benchmark's workloads and the code that drives disene's CLI for them.

Every workload is a closed loop with one client: the operations run one
after another in this process, each a sequence of `disene.cli.main([...])`
calls. The workload seed sets the generator seed, the split seed and the
training seed.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace

from disene import cli
from disene.synth import default_spec, generate_synthetic

KIND_NAMES = {"ring": "ring_cliques", "ba": "ba_cliques", "er": "er_cliques"}
SPLIT = 0.1
PERMUTATIONS = 100
# either flag makes cli.main re-exec the interpreter over this process
_REEXEC_FLAGS = ("--threads", "--deterministic")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str              # dataset family, as the CLI names it
    gen: dict              # generator overrides; later stages get them via --config
    train: dict            # train flags beyond --kind/--seed/--split/--out
    stages: tuple          # CLI stages timed in each operation
    min_ops: int = 2       # per run; the repeats feed the determinism check
    # passes of the stages after train per operation, all over one checkpoint
    eval_passes: int = 1
    floors: dict = field(default_factory=dict)  # acceptance floors that apply


WORKLOADS = {w.name: w for w in (
    Workload(
        name="er64-pipeline",
        why="full train-explain-evaluate-downstream pipeline at the paper's "
            "default size; training is most of the time, so a training "
            "optimisation shows here",
        kind="er", gen={},
        train={"method": "disene-fc", "dim": 64, "epochs": 50},
        stages=("train", "explain", "evaluate", "downstream_link",
                "downstream_node"),
        # the 2.5 s of explain, evaluate and downstream jitter by up to 30%
        # on a shared host; four passes over each trained checkpoint give
        # their median eight samples a run, where a third training could
        # add only one
        eval_passes=4,
        # acceptance criterion 5: fc OvC at K=64
        floors={"ovc": 0.80}),
    Workload(
        name="ba2560-evaluate",
        why="explain, metrics and downstream on a 2560-node graph from a "
            "checkpoint trained in set-up; BFS-heavy metrics dominate and "
            "training is not timed",
        kind="ba", gen={"num_cliques": 128, "base_nodes": 1280},
        # a short schedule keeps set-up cheap; the quality numbers it gives
        # still vary little from seed to seed
        train={"method": "disene-fc", "dim": 64, "epochs": 10,
               "num_walks": 1},
        stages=("explain", "evaluate", "downstream_link", "downstream_node")),
)}


@dataclass
class Context:
    """What one run of a workload set up: inputs shared by its operations."""
    workload: Workload
    seed: int
    work: str
    config_path: str
    graph: object
    truth: object
    checkpoint: str | None = None     # trained in set-up, when not timed
    setup_train_s: float | None = None
    cache: dict = field(default_factory=dict)   # memo for the output checks


@dataclass
class Operation:
    index: int
    checkpoint: str
    outs: list                        # output directory of each pass
    seconds: float = 0.0
    train_s: float | None = None      # the train stage, when it is timed
    passes: list = field(default_factory=list)  # per pass: stage -> seconds
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


class SetupError(RuntimeError):
    pass


def invoke_cli(argv, tracer=None, stage=None):
    """Run cli.main(argv) in-process; returns (exit code or None, seconds, log).

    None means the call raised; the log then ends with the traceback. With a
    tracer, the call is the span `cli.<stage>`.
    """
    bad = [f for f in _REEXEC_FLAGS if f in argv]
    if bad:
        raise ValueError(f"{bad} would replace the benchmark process")
    log = io.StringIO()
    scope = tracer.span(f"cli.{stage}", "cli") if tracer else nullcontext()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(log), redirect_stderr(log), scope:
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:   # the operation failed; the run goes on and counts it
        code = None
        log.write(traceback.format_exc())
    return code, time.perf_counter() - t0, log.getvalue()


def _flags(options: dict) -> list[str]:
    out = []
    for key, val in options.items():
        out += ["--" + key.replace("_", "-"), str(val)]
    return out


def stage_argv(ctx: Context, stage: str, checkpoint: str, out: str) -> list:
    w = ctx.workload
    if stage == "train":
        return ["train", "--kind", w.kind, "--seed", str(ctx.seed),
                "--split", str(SPLIT), "--out", checkpoint,
                *_flags(w.gen), *_flags(w.train)]
    common = ["--checkpoint", checkpoint, "--out", out,
              "--config", ctx.config_path]
    if stage == "explain":
        return ["explain", *common]
    if stage == "evaluate":
        return ["evaluate", *common, "--permutations", str(PERMUTATIONS)]
    task = stage.removeprefix("downstream_")
    return ["downstream", *common, "--task", task]


def set_up(w: Workload, seed: int, work: str) -> Context:
    """Fresh work directory, config file and graph; the checkpoint too when
    the workload does not time training."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w") as fh:
        json.dump({"kind": w.kind, "seed": seed, **w.gen}, fh)
    spec = replace(default_spec(KIND_NAMES[w.kind], seed=seed), **w.gen)
    g, gts = generate_synthetic(spec)
    ctx = Context(w, seed, work, config_path, g, gts)
    if "train" not in w.stages:
        ctx.checkpoint = os.path.join(work, "checkpoint")
        code, secs, log = invoke_cli(stage_argv(ctx, "train", ctx.checkpoint,
                                                ctx.checkpoint))
        if code != 0:
            raise SetupError(f"set-up train exited {code}: {log[-2000:]}")
        ctx.setup_train_s = secs
    return ctx


def run_operation(ctx: Context, index: int, tracer=None) -> Operation:
    """One timed operation: train, when the workload times it, then the other
    CLI stages in order, `eval_passes` times over the same checkpoint."""
    w = ctx.workload
    base = os.path.join(ctx.work, f"op{index}")
    outs = [os.path.join(base, f"pass{p}") for p in range(w.eval_passes)]
    op = Operation(index, ctx.checkpoint or base, outs)

    def call(stage, out):
        code, secs, log = invoke_cli(
            stage_argv(ctx, stage, op.checkpoint, out), tracer, stage)
        if code != 0:
            op.problems.append(f"{stage} exited {code}: {log[-2000:]}")
        return secs

    t0 = time.perf_counter()
    if "train" in w.stages:
        op.train_s = call("train", op.checkpoint)
    for out in outs:
        if op.failed:
            break
        timing = {}
        for stage in w.stages:
            if stage != "train" and not op.failed:
                timing[stage] = call(stage, out)
        op.passes.append(timing)
    op.seconds = time.perf_counter() - t0
    return op
