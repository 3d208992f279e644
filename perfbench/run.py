"""mmfusion benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload self_train --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced replay.  The last line of standard output is
one JSON object; the line before it stamps the environment.  See README.md
in this directory for the metrics and the reasons behind each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, median, p90

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_THREADS = 1  # one caller and one BLAS thread; the second core absorbs machine noise
SETUP_REPEATS = 3
MIN_ITERATIONS = 2  # the CLI byte-identity check needs two runs of the chain


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("self_train", "cross_attn", "cli_pipeline"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_rev() -> str:
    """HEAD of the checkout's own .git, from a loose or a packed ref; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": git_rev(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
    }


def end_to_end(iters, ops, setup_s, wl) -> dict:
    # Every iteration does the same work; the median over a run's iterations moves less
    # from run to run than the fastest iteration does (see README.md, "Load model").
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (median(i["wall_s"] for i in iters), "s"),
        "train_samples_per_s": (median(i["train_samples"] / i["train_s"] for i in iters), "1/s"),
        "predict_rows_per_s": (median(i["predict_rows"] / i["predict_s"] for i in iters), "1/s"),
        "fused_val_f1": (iters[0]["f1"] if iters else 0.0, "f1"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
        "success_rate": (1.0 - len(ops.failures) / ops.attempted, "ratio"),
    }


def per_layer(tr, ops, steps, overhead_pct, wl) -> dict:
    from macs import MAC_TABLE  # imports mmfusion, so only once src/ is on the path

    fwd = tr.spans("fusion.head_forward_batch")
    fwd_ms = sum(s.ms for s in fwd)
    fwd_macs = sum(MAC_TABLE[s.attrs["kind"]] * s.attrs["rows"] for s in fwd)
    reads = tr.spans("data_io.read_embeddings")
    read_s = sum(s.ms for s in reads) / 1e3
    m = {
        "tensor.backward_ms_p50": (median(tr.durations_ms("tensor.backward")), "ms"),
        "tensor.backward_ms_p90": (p90(tr.durations_ms("tensor.backward")), "ms"),
        "fusion.head_forward_ms_p50": (median(s.ms for s in fwd), "ms"),
        "fusion.head_forward_ms_p90": (p90(s.ms for s in fwd), "ms"),
        **{f"fusion.head_macs_per_sample.{k}": (v, "MAC") for k, v in MAC_TABLE.items()},
        "fusion.step_gmacs_per_s": (fwd_macs / fwd_ms / 1e6 if fwd_ms else 0.0, "GMAC/s"),
        "fusion.predict_logits_ms_per_krow": (tr.ms_per_krow("fusion.predict_logits"), "ms/krow"),
        "fusion.fuse_logits_ms_per_krow": (tr.ms_per_krow("fusion.fuse_logits"), "ms/krow"),
        "fusion.assign_labels_ms_per_krow": (tr.ms_per_krow("fusion.assign_labels"), "ms/krow"),
        "training.adam_step_ms_p50": (median(tr.durations_ms("training.adam_step")), "ms"),
        "training.adam_step_ms_p90": (p90(tr.durations_ms("training.adam_step")), "ms"),
        "training.bce_loss_ms_p50": (median(tr.durations_ms("training.bce_loss_node")), "ms"),
        "training.validation_ms_per_epoch": (median(tr.durations_ms("training.evaluate_model")), "ms"),
        "training.class_weights_ms": (median(tr.durations_ms("training.class_weights")), "ms"),
        "training.steps": (steps, "count"),
        "metrics.confusion_f1_ms_per_krow": (tr.ms_per_krow("metrics.confusion_f1"), "ms/krow"),
        "data_io.read_embeddings_mb_per_s": (
            sum(s.attrs["bytes"] for s in reads) / 1e6 / read_s if read_s else 0.0, "MB/s"),
        "data_io.load_dataset_ms_per_krow": (tr.ms_per_krow("data_io.load_dataset"), "ms/krow"),
        "data_io.read_labels_ms_per_krow": (tr.ms_per_krow("data_io.read_labels"), "ms/krow"),
        "data_io.write_predictions_ms_per_krow": (
            tr.ms_per_krow("data_io.write_predictions"), "ms/krow"),
        "data_io.save_model_ms": (median(tr.durations_ms("data_io.save_model")), "ms"),
        "data_io.load_model_ms": (median(tr.durations_ms("data_io.load_model")), "ms"),
        "data_io.merge_ms_per_krow": (
            tr.ms_per_krow("data_io.merge", "data_io.label_counts"), "ms/krow"),
        "cli.import_ms": (0.0, "ms"),  # measured by the CLI workload alone, in layer_extras
        "cli.train_head_ms": (median(tr.durations_ms("cli.train-head")), "ms"),
        "cli.predict_ms": (median(tr.durations_ms("cli.predict")), "ms"),
        "cli.fuse_logits_ms": (median(tr.durations_ms("cli.fuse-logits")), "ms"),
        "cli.evaluate_ms": (median(tr.durations_ms("cli.evaluate")), "ms"),
        "cli.failed_commands": (sum(f.startswith("cli.") for f in ops.failures), "count"),
        "trace.overhead_pct": (overhead_pct, "%"),
        "trace.replay_match": (int(not any("replay" in f for f in ops.failures)), "bool"),
    }
    for name, value in wl.layer_extras().items():
        m[name] = (value, m[name][1])
    return m


def measure(wl, ops, seconds: float, traced: bool):
    """Iterate until ``seconds`` have passed; a traced run alternates plain and traced iterations."""
    tr = Tracer() if traced else None
    iters, traced_walls, steps = [], [], 0
    start = time.perf_counter()
    while len(iters) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        try:
            iters.append(wl.iterate(ops))
            if traced:
                before = len(tr.spans("training.adam_step"))
                traced_walls.append(wl.replay(tr, ops))
                steps = steps or len(tr.spans("training.adam_step")) - before
        except Exception as exc:
            ops.uncaught(exc)
            traceback.print_exc(file=sys.stderr)
            if time.perf_counter() - start > seconds:
                break
    return iters, tr, traced_walls, steps


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "mmfusion" / "__init__.py").is_file():
        print(f"error: no mmfusion sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import mmfusion
    from workloads import WORKLOADS, Ops
    import_s = time.perf_counter() - t0
    if Path(mmfusion.__file__).resolve().parent != SRC / "mmfusion":
        print(f"error: imported mmfusion from {mmfusion.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
        setup_s = import_s + median(setups)

        ops = Ops()
        iters, tr, traced_walls, steps = measure(wl, ops, args.seconds, bool(args.trace))
        if not iters:
            print("error: no iteration completed", file=sys.stderr)
            return 1
        if args.trace:
            untraced = median(i["wall_s"] for i in iters)
            overhead = 100.0 * (median(traced_walls) / untraced - 1.0) if traced_walls else 0.0
            metrics = per_layer(tr, ops, steps, overhead, wl)
        else:
            metrics = end_to_end(iters, ops, setup_s, wl)
        env = environment(args.seed)
        if args.trace:
            tr.dump(WORK / f"trace-{args.workload}-{args.seed}.jsonl",
                    {"env": env, "workload": args.workload})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in ops.failures:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({"env": env, "workload": args.workload, "iterations": len(iters)}))
    print(json.dumps({
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
