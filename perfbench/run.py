"""xbnn benchmark: one closed-loop workload per run, end-to-end metrics from
an untraced run and per-layer metrics from a traced one.

    python3 perfbench/run.py --workload train-xnor --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run it from the repository root. It imports xbnn from ./src (never from an
installed copy) with BLAS pinned to one thread, prints a readable report,
and prints one JSON result as its last line. The full record (environment,
sample counts, set-up times, spans) goes to .perfbench_out/. The readme next
to this file explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402  (imports neither numpy nor xbnn)

WORKLOAD_NAMES = ("train-xnor", "eval-xnor", "kernels")
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MiB", "step_ms_p50": "ms",
              "step_ms_p90": "ms", "img_per_s": "1/s"}


def bootstrap() -> None:
    """Pin BLAS to one thread, then import xbnn from this checkout's src/."""
    harness.pin_blas_threads()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import xbnn

    where = Path(xbnn.__file__).resolve().parent.parent
    if where != src.resolve():
        raise ImportError(f"xbnn imported from {where}, not from {src}")


def per_layer_units() -> dict[str, str]:
    from workloads import NN_KINDS, SHAPES, VARIANTS

    units = {}
    for kind in NN_KINDS:
        for direction in ("fwd", "bwd"):
            units[f"nn.{kind}.{direction}_ms"] = "ms"
    units.update({"nn.binarize_ms": "ms", "nn.binarize_calls": "count",
                  "nn.activation_mb": "MiB", "nn.network_self_ms": "ms",
                  "train.loss_ms": "ms", "train.opt_step_ms": "ms", "train.clamp_ms": "ms",
                  "train.step_self_ms": "ms",
                  "modelio.save_ms": "ms", "modelio.load_ms": "ms", "modelio.file_bytes": "B",
                  "data.corpus_ms": "ms", "data.ingest_ms": "ms"})
    for variant in VARIANTS:
        kind = variant.split("-")[0]
        units[f"kernel_ms_p50.{variant}"] = "ms"
        units[f"kernel_ms_p90.{variant}"] = "ms"
        if kind == "xnor":
            units[f"kernels.sign_patch_matrix_ms.{variant}"] = "ms"
            units[f"binarize.compute_beta_map_ms.{variant}"] = "ms"
            units[f"kernels.xnor_self_ms.{variant}"] = "ms"
            units[f"kernels.xnor_words.{variant}"] = "count"
            units[f"kernels.popcount_words.{variant}"] = "count"
            units[f"kernels.word_fill.{variant}"] = "ratio"
        else:
            units[f"kernels.im2col_ms.{variant}"] = "ms"
            units[f"kernels.bwn_self_ms.{variant}"] = "ms"
        units[f"kernels.real_mul.{variant}"] = "count"
        units[f"kernels.real_add.{variant}"] = "count"
        units[f"kernels.bytes_moved.{variant}"] = "B"
        units[f"kernels.ops_per_byte.{variant}"] = "1/B"
        units[f"kernels.sgemm_ms.{variant}"] = "ms"
        units[f"kernels.sgemm_matmul_ms.{variant}"] = "ms"
        units[f"kernels.speedup_vs_sgemm.{variant}"] = "x"
        units[f"kernels.speedup_vs_oracle.{variant}"] = "x"
        units[f"trace.overhead_ms.{variant}"] = "ms"
    for shape in SHAPES:
        units[f"kernels.oracle_ms.{shape}"] = "ms"
    units.update({"trace.step_ms_p50": "ms", "trace.untraced_step_ms_p50": "ms",
                  "trace.overhead_ms": "ms", "trace.step_ms_mean": "ms",
                  "trace.unattributed_ms": "ms", "trace.spans_per_op": "count"})
    return units


def _workload_class(name):
    import workloads

    return {w.name: w for w in (workloads.TrainXnor, workloads.EvalXnor, workloads.Kernels)}[name]


def _per_workload(stats, fn) -> float:
    """One figure per workload: the value for its single key, or the
    geometric mean over kernel variants, so each variant weighs the same."""
    return harness.geomean(fn(key) for key in stats.latencies)


def end_to_end(stats, setup_s) -> dict:
    return {"setup_s": statistics.median(setup_s),
            "peak_rss_mb": harness.peak_rss_mb(),
            "step_ms_p50": _per_workload(stats, stats.p50_ms),
            "step_ms_p90": _per_workload(stats, stats.p90_ms),
            "img_per_s": _per_workload(stats, stats.img_per_s)}


def layer_metrics(workload, tracer, untraced, traced, binarize_per_op) -> dict:
    """Per-layer metrics from the spans: self ms per traced operation of each
    span name (per set-up for set-up spans), plus the trace's own figures."""
    own = tracer.self_times()
    self_s = defaultdict(float)  # (key or "setup", span name) -> self seconds
    ops = defaultdict(int)  # key -> traced operations
    root_s = root_self_s = nbytes = n_spans = 0
    for span, seconds in zip(tracer.spans, own):
        phase, _, key = span.op
        if phase == "setup":
            self_s[(phase, span.name)] += seconds
            continue
        n_spans += 1
        if span.name == "op":
            ops[key] += 1
            root_s += span.t1 - span.t0
            root_self_s += seconds
            continue
        self_s[(key, span.name)] += seconds
        if span.name.endswith(".fwd"):
            nbytes += span.value or 0  # None when the forward raised

    metrics = {}
    for (key, name), seconds in self_s.items():
        if key == "setup":
            metrics[f"{name}_ms"] = 1e3 * seconds / workload.setup_reps
        elif key == workload.name:
            metrics[f"{name}_ms"] = 1e3 * seconds / ops[key]
        else:
            metrics[f"{name}_ms.{key}"] = 1e3 * seconds / ops[key]
    n_ops = sum(ops.values())
    traced_p50 = _per_workload(traced, traced.p50_ms)
    untraced_p50 = _per_workload(untraced, untraced.p50_ms)
    metrics.update({
        "nn.activation_mb": nbytes / n_ops / 2**20,
        "nn.binarize_calls": binarize_per_op,
        "trace.step_ms_mean": 1e3 * root_s / n_ops,
        "trace.unattributed_ms": 1e3 * root_self_s / n_ops,
        "trace.spans_per_op": n_spans / n_ops,
        "trace.step_ms_p50": traced_p50,
        "trace.untraced_step_ms_p50": untraced_p50,
        "trace.overhead_ms": traced_p50 - untraced_p50,
    })
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, warm up, measure; returns the full record of one run."""
    from workloads import MODULE_TARGETS, SETUP_TARGETS

    env = harness.environment()
    if env["blas_threads"] not in (1, None):
        raise RuntimeError(f"BLAS runs {env['blas_threads']} threads, not 1")
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workload = _workload_class(name)(seed, ROOT, workdir)
    tracer = harness.Tracer() if trace else None
    try:
        setup_s = []
        for rep in range(workload.setup_reps):
            if tracer is not None:
                tracer.op = ("setup", rep, None)
                for target in SETUP_TARGETS:
                    tracer.patch(*target)
            t0 = time.perf_counter()
            try:
                workload.setup()
            finally:
                if tracer is not None:
                    tracer.restore()
                    tracer.op = None
            setup_s.append(time.perf_counter() - t0)
        setup_checks = workload.prepare_checks()
        warm, _ = harness.closed_loop(workload.next_op, 0.0, max_ops=workload.warmup_ops)
        if tracer is None:
            stats, _ = harness.closed_loop(workload.next_op, seconds)
            loops = [warm, stats]
        else:
            targets = list(MODULE_TARGETS) + workload.trace_targets()
            binarize_before = workload.binarize_calls()
            untraced, traced = harness.closed_loop(
                workload.next_op, seconds, tracer=tracer, targets=targets,
                period=len(workload.keys()))
            binarize_per_op = ((workload.binarize_calls() - binarize_before)
                               / (untraced.attempted + traced.attempted))
            loops = [warm, untraced, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = list(setup_checks)
    extra = {}
    timed = [stats] if tracer is None else [untraced, traced]
    counted = timed[-1]
    if not all(loop.latencies.get(key) for loop in timed for key in workload.keys()):
        metrics = {}  # some key never succeeded: its latency is undefined
    elif tracer is None:
        metrics = end_to_end(stats, setup_s)
    else:
        measured = layer_metrics(workload, tracer, untraced, traced, binarize_per_op)
        own, own_checks = workload.workload_metrics(untraced, traced)
        checks += own_checks
        measured.update(own)
        # every declared metric is printed; a layer this workload never
        # reaches reads 0. Derived names nothing declares are kept aside.
        units = per_layer_units()
        metrics = {n: measured.get(n, 0.0) for n in units}
        extra = {n: v for n, v in measured.items() if n not in units}
    attempted = sum(loop.attempted for loop in loops) + len(checks)
    failed = sum(loop.failed for loop in loops) + checks.count(False)
    run_ok = workload.run_check()
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": env,
        "correct": failed == 0 and run_ok,
        "attempted": attempted, "failed": failed,
        "fail_share": failed / attempted,
        "run_check": run_ok,
        "setup_checks": checks,
        "first_error": next((loop.first_error for loop in loops if loop.first_error), None),
        "setup_s_each": setup_s,
        "samples": {key: len(lat) for key, lat in counted.latencies.items()},
        "metrics": metrics,
        "extra": extra,
        "spans": tracer,
    }


def report(record: dict) -> None:
    units = END_TO_END if not record["trace"] else per_layer_units()
    print(f"env: {json.dumps(record['env'])}")
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['attempted']} operations attempted, {record['failed']} failed "
          f"(fail_share {record['fail_share']:.4f}); run check "
          f"{'passed' if record['run_check'] else 'FAILED'}")
    if record["first_error"]:
        print(f"first failure: {record['first_error']}", file=sys.stderr)
    samples = ", ".join(f"{k}={n}" for k, n in record["samples"].items())
    print(f"timed samples per key: {samples}")
    print("set-up seconds each: " + ", ".join(f"{s:.4f}" for s in record["setup_s_each"]))
    for name, value in record["metrics"].items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    for name, value in record["extra"].items():
        print(f"  {name:<44} {value:>14.6g} (undeclared)")


def result_line(record: dict) -> str:
    units = END_TO_END if not record["trace"] else per_layer_units()
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in record["metrics"].items()},
    })


def save(record: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    tracer = record.pop("spans")
    if tracer is not None:
        tracer.dump(OUT_DIR / f"{stem}-spans.json")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        bootstrap()
    except ImportError as exc:
        print(f"cannot import xbnn from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(record)
    if not record["metrics"]:
        print("no result: every operation of some key failed", file=sys.stderr)
        return 1
    line = result_line(record)
    save(record)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
