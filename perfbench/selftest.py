"""Self-test of the benchmark, with stub callables swapped in from outside and
no change to the package:

- a wrong kernel output raises fail_share, whether the set-up check or the
  timed calls see it;
- a non-finite loss raises fail_share;
- two seeds give different inputs but the same metric names;
- the traced output of every workload holds every declared per-layer metric,
  and a non-zero value for each layer that workload reaches;
- without src/ the benchmark exits non-zero and prints no result.

    python3 perfbench/selftest.py      # from the repository root; ~1 minute
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import traceback
from contextlib import contextmanager

import run

run.bootstrap()

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from xbnn import kernels, train  # noqa: E402

SECONDS = 1.0
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# per-layer metrics each workload must report as non-zero: the layers it reaches
REACHED = {
    "train-xnor": [f"nn.{k}.{d}_ms" for k in workloads.NN_KINDS for d in ("fwd", "bwd")]
    + ["nn.binarize_ms", "nn.binarize_calls", "nn.activation_mb", "nn.network_self_ms",
       "train.loss_ms", "train.opt_step_ms", "train.clamp_ms", "train.step_self_ms",
       "data.corpus_ms", "data.ingest_ms"],
    "eval-xnor": [f"nn.{k}.fwd_ms" for k in workloads.NN_KINDS]
    + ["nn.activation_mb", "nn.network_self_ms", "modelio.save_ms", "modelio.load_ms",
       "modelio.file_bytes", "data.corpus_ms", "data.ingest_ms"],
    "kernels": [m["name"] for m in BENCHMARK["per_layer"]
                if m["name"].startswith(("kernel_ms_", "kernels.", "binarize.",
                                         "trace.overhead_ms."))],
}
ALWAYS = ["trace.step_ms_p50", "trace.untraced_step_ms_p50", "trace.step_ms_mean",
          "trace.spans_per_op"]


def expect(condition, message: str) -> None:
    if not condition:
        raise AssertionError(message)


@contextmanager
def stubbed(owner, attr, replacement):
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def expect_failures(record, what: str) -> None:
    expect(record["failed"] > 0 and record["fail_share"] > 0 and not record["correct"],
           f"{what}: expected failed operations, got {record['failed']} of "
           f"{record['attempted']}")


def test_wrong_kernel_output_raises_fail_share():
    real = kernels.conv_xnor_layer
    with stubbed(kernels, "conv_xnor_layer", lambda *args: real(*args) + 1.0):
        record = run.run_workload("kernels", 1, SECONDS, False)
    expect(record["setup_checks"][:2] == [False, False], "oracle check missed a wrong output")
    expect_failures(record, "kernel wrong from the start")

    calls = []

    def right_then_wrong(*args):
        calls.append(1)
        out = real(*args)
        return out if len(calls) <= 2 else out * 1.5  # the first two are the set-up calls

    with stubbed(kernels, "conv_xnor_layer", right_then_wrong):
        record = run.run_workload("kernels", 1, SECONDS, False)
    expect(all(record["setup_checks"]), "set-up checks should pass before the drift")
    expect_failures(record, "kernel wrong after set-up")


def test_non_finite_loss_raises_fail_share():
    real = train.train_step
    steps = []

    def nan_every_third(net, batch, opt, **kwargs):
        loss, metrics = real(net, batch, opt, **kwargs)
        steps.append(loss)
        return (float("nan") if len(steps) % 3 == 0 else loss), metrics

    def raising(net, batch, opt, **kwargs):
        raise RuntimeError("non-finite loss nan")  # what train_step itself raises

    for stub in (nan_every_third, raising):
        with stubbed(train, "train_step", stub):
            expect_failures(run.run_workload("train-xnor", 1, SECONDS, False), stub.__name__)


def _inputs(workload):
    if isinstance(workload, workloads.Kernels):
        return np.concatenate([I.ravel() for I, *_ in workload.shapes.values()])
    if isinstance(workload, workloads.EvalXnor):
        return workload.batches[0]
    return workload.batches.ds.images


def test_seeds_change_inputs_not_metric_names():
    for name in run.WORKLOAD_NAMES:
        cls = run._workload_class(name)
        seen = []
        for seed in (1, 2):
            workdir = run.OUT_DIR / f"selftest-{seed}"
            workload = cls(seed, run.ROOT, workdir)
            try:
                workload.setup()
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            seen.append(_inputs(workload))
        expect(not np.array_equal(*seen), f"{name}: seeds 1 and 2 gave the same inputs")
        names = [list(run.run_workload(name, seed, SECONDS, False)["metrics"])
                 for seed in (1, 2)]
        expect(names[0] == names[1] == list(run.END_TO_END),
               f"{name}: metric names differ between seeds: {names}")


def test_traced_output_has_every_per_layer_metric():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    expect(declared == run.per_layer_units(), "BENCHMARK.json per_layer differs from the code")
    expect({m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end differs from the code")
    for name in run.WORKLOAD_NAMES:
        record = run.run_workload(name, 1, SECONDS, True)
        expect(record["correct"], f"{name}: traced run failed: {record['first_error']}")
        result = json.loads(run.result_line(record))
        expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
               f"{name}: result keys {sorted(result)}")
        expect({n: v["unit"] for n, v in result["metrics"].items()} == declared,
               f"{name}: traced metrics differ from the declared per-layer set")
        zero = [n for n in REACHED[name] + ALWAYS if not result["metrics"][n]["value"]]
        expect(not zero, f"{name}: layers it reaches read 0: {zero}")


def test_without_src_exits_nonzero():
    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "kernels",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "ran without src/")
    expect('"correct"' not in proc.stdout, "printed a result without src/")


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except Exception:
            failed += 1
            print(f"FAIL {test.__name__}\n{traceback.format_exc()}")
        else:
            print(f"ok   {test.__name__}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
