"""Self-tests of the benchmark: every output check can fail an operation.

    python3 -m pytest perfbench -q

A tiny ring workload runs two clean operations of two passes once; each
test breaks a private copy of their artifacts and asserts that the
operations are counted as failed.
"""

import json
import os
import shutil
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import disene.cli  # noqa: E402
from checks import check_operations, read_embedding  # noqa: E402
from tracer import WRAP_POINTS, Tracer  # noqa: E402
from workloads import (Operation, Workload, invoke_cli, run_operation,  # noqa: E402
                       set_up)

# 400 nodes, more than the default ring graph, so a command that silently
# rebuilds the default graph still finds enough embedding rows
TINY = Workload(name="tiny", why="self-test", kind="ring",
                gen={"num_cliques": 40, "noise_edges": 20},
                train={"method": "disene-fc", "dim": 8, "epochs": 3,
                       "num_walks": 2},
                stages=("train", "explain", "evaluate", "downstream_link"),
                eval_passes=2)


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    ctx = set_up(TINY, 0, str(tmp_path_factory.mktemp("tiny") / "run"))
    ops = [run_operation(ctx, i) for i in range(2)]
    assert not any(op.failed for op in ops), [op.problems for op in ops]
    return ctx, ops


@pytest.fixture
def run(clean, tmp_path):
    ctx, ops = clean
    copies = []
    for op in ops:
        dst = str(tmp_path / f"op{op.index}")
        shutil.copytree(op.checkpoint, dst)
        outs = [os.path.join(dst, os.path.relpath(out, op.checkpoint))
                for out in op.outs]
        copies.append(Operation(op.index, dst, outs, op.seconds))
    return ctx, copies


def _edit_json(path, edit):
    with open(path) as fh:
        payload = json.load(fh)
    edit(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


def _edit_embedding(path, edit):
    h = read_embedding(path).copy()
    edit(h)
    with open(path, "r+b") as fh:
        fh.seek(8)
        fh.write(h.astype("<f4").tobytes())


def _problems(ops):
    return [" | ".join(op.problems) for op in ops]


def test_clean_operations_pass(run):
    ctx, ops = run
    assert check_operations(ctx, ops) == 0, _problems(ops)


@pytest.mark.parametrize("value", [-1e-3, np.nan])
def test_perturbed_embedding_fails(run, value):
    ctx, ops = run
    for op in ops:
        _edit_embedding(os.path.join(op.checkpoint, "embedding.bin"),
                        lambda h: h.__setitem__((3, 1), value))
    assert check_operations(ctx, ops) == len(ops)
    assert all("embedding" in p for p in _problems(ops))


def test_final_loss_off_by_1e3_fails(run):
    ctx, ops = run
    for op in ops:
        _edit_json(os.path.join(op.checkpoint, "run.json"),
                   lambda r: r.update(final_loss=r["final_loss"] * (1 + 1e-3)))
    assert check_operations(ctx, ops) == len(ops)
    assert all("final_loss" in p for p in _problems(ops))


def test_null_ovc_fails(run):
    # only the last pass is broken: every pass is checked
    ctx, ops = run
    for op in ops:
        _edit_json(os.path.join(op.outs[-1], "report.json"),
                   lambda r: r["metrics"].update(ovc=None))
    assert check_operations(ctx, ops) == len(ops)
    assert all("ovc is None" in p for p in _problems(ops))


def test_repeat_that_differs_fails(run):
    ctx, ops = run

    def nudge(h):
        i = np.unravel_index(np.argmax(h), h.shape)
        h[i] = np.nextafter(h[i], np.float32(np.inf))

    _edit_embedding(os.path.join(ops[1].checkpoint, "embedding.bin"), nudge)
    assert check_operations(ctx, ops) == 1
    assert not ops[0].failed
    assert "embedding.bin differs" in _problems(ops)[1]


def test_pass_that_differs_fails(run):
    ctx, ops = run
    with open(os.path.join(ops[0].outs[1], "summary.csv"), "a") as fh:
        fh.write("\n")
    assert check_operations(ctx, ops) == 1
    assert not ops[1].failed
    assert "summary.csv differs from operation 0" in _problems(ops)[0]


def test_evaluate_on_the_default_graph_fails(run):
    # without --config the CLI rebuilds the default-size graph from the
    # checkpoint's sidecar, and with PoC off it writes a report for it
    # without complaint; exit code or output check, the operation must fail
    ctx, ops = run
    for op in ops:
        code, _, log = invoke_cli(["evaluate", "--checkpoint", op.checkpoint,
                                   "--out", op.outs[0], "--no-poc"])
        if code != 0:
            op.problems.append(f"evaluate exited {code}: {log[-200:]}")
    assert check_operations(ctx, ops) == len(ops)


def test_reexec_flags_are_refused():
    for flag in ("--threads", "--deterministic"):
        with pytest.raises(ValueError):
            invoke_cli(["train", flag])


def test_missing_wrap_point_is_reported():
    gone = ("disene.training", "no_such_function", "training", "gone", None)
    tracer = Tracer(WRAP_POINTS + (gone,))
    original = disene.cli.train
    with tracer.installed():
        assert disene.cli.train is not original
    assert disene.cli.train is original
    assert tracer.missing == ["disene.training.no_such_function"]
    metrics = tracer.metrics()
    assert metrics["trace.missing_wraps"] == 1
    assert metrics["training.gone_s"] == 0.0
