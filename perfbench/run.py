"""disene benchmark: one run of one workload, result as the last stdout line.

    python3 perfbench/run.py --workload er64-pipeline --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; disene is imported from its `src/`. A run
sets the workload up, then runs operations back to back (at least two, so
the determinism check has a repeat) until `--seconds` have passed, checks
every operation's outputs off the clock, and prints
`{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
end-to-end metrics. `--trace 1` runs one operation untraced and one traced
and reports the per-layer metrics instead; its spans go to
`.perfbench_work/traces/`. A line before the result records the numeric
environment.
"""

import os

# BLAS pools are sized when numpy is imported, so pin them first
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time

from tracer import Tracer, per_layer_metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
# set-up runs several times and reports its median; set-up that trains a
# checkpoint takes seconds, so it runs fewer times
SETUP_REPEATS = 15
TRAINING_SETUP_REPEATS = 3


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_threads": THREADS, "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version()}


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(ops, setups, trains, failed, rss_mb, quality) -> dict:
    """`trains` holds the train stage of every set-up that trained."""
    good = [op for op in ops if not op.failed] or ops
    q = quality(good[0])
    if not trains:
        trains = [op.train_s or 0.0 for op in good]
    return {
        "setup_s": (_median(setups), "s"),
        "wall_s": (_median([op.seconds for op in good]), "s"),
        "train_s": (_median(trains), "s"),
        "eval_s": (_median([sum(p.values()) for op in good
                            for p in op.passes]), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "success_rate": ((len(ops) - failed) / len(ops), "ratio"),
        "link_auc_pr": (q["link_auc_pr"], "ratio"),
        "link_plausibility": (q["link_plausibility"], "ratio"),
        "ovc": (q["ovc"], "corr"),
        "comprehensibility": (q["comprehensibility"], "ratio"),
        "final_loss": (q["final_loss"], "nats"),
    }


def per_layer(tracer, ops, failed) -> dict:
    values = tracer.metrics()
    values["trace.overhead_s"] = ops[1].seconds - ops[0].seconds
    values["error_rate"] = failed / len(ops)
    return {name: (values[name], unit)
            for name, unit in per_layer_metrics().items()}


def _result(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": 0.0 if v is None else float(v), "unit": u}
                    for k, (v, u) in metrics.items()}})


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import disene
    except ImportError as exc:
        print(f"error: cannot import disene from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(disene.__file__).startswith(src + os.sep):
        print(f"error: imported disene from {disene.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    from checks import check_operations, quality
    from workloads import WORKLOADS, SetupError, run_operation, set_up

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    env = environment()
    print(json.dumps({"workload": w.name, "seed": args.seed,
                      "trace": args.trace, "env": env}))

    work = os.path.join(WORK_ROOT, f"{w.name}-seed{args.seed}-{os.getpid()}")
    try:
        repeats = (1 if args.trace else SETUP_REPEATS if "train" in w.stages
                   else TRAINING_SETUP_REPEATS)
        setups, trains = [], []
        try:
            for _ in range(repeats):
                t0 = time.perf_counter()
                ctx = set_up(w, args.seed, work)
                setups.append(time.perf_counter() - t0)
                if ctx.setup_train_s is not None:
                    trains.append(ctx.setup_train_s)
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            print(_result(False, 1, 1, {}))
            return 0

        tracer = Tracer() if args.trace else None
        ops = []
        t_start = time.perf_counter()
        min_ops = 2 if tracer else w.min_ops
        while len(ops) < min_ops or (
                not tracer and time.perf_counter() - t_start < args.seconds):
            # traced runs: operation 0 untraced, operation 1 traced
            if tracer and len(ops) == 1:
                with tracer.installed():
                    ops.append(run_operation(ctx, 1, tracer))
            else:
                ops.append(run_operation(ctx, len(ops)))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failed = check_operations(ctx, ops)
        for op in ops:
            for problem in op.problems:
                print(f"operation {op.index} failed: {problem}",
                      file=sys.stderr)
        if tracer:
            for point in tracer.missing:
                print(f"warning: wrap point {point} is missing",
                      file=sys.stderr)
            metrics = per_layer(tracer, ops, failed)
            os.makedirs(os.path.join(WORK_ROOT, "traces"), exist_ok=True)
            tracer.dump(os.path.join(WORK_ROOT, "traces",
                                     f"{w.name}-seed{args.seed}.json"),
                        {"workload": w.name, "seed": args.seed, "env": env,
                         "metrics": {k: v for k, (v, _) in metrics.items()}})
        else:
            metrics = end_to_end(ops, setups, trains, failed, rss_mb,
                                 quality)
        print(_result(failed == 0, len(ops), failed, metrics))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
