"""The benchmark's workloads (perfbench/workloads.py) still run on the
package: every set-up succeeds and its checks hold, a few timed operations
pass their own checks, every attribute the traced run wraps exists, and the
traced layers carry the span names BENCHMARK.json reports."""

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads


def test_module_and_setup_targets_exist(workloads):
    for owner, attr, _ in workloads.MODULE_TARGETS + workloads.SETUP_TARGETS:
        assert hasattr(owner, attr), (owner.__name__, attr)


@pytest.mark.parametrize("name", ["TrainXnor", "EvalXnor", "Kernels"])
def test_workload_runs_and_checks_pass(workloads, tmp_path, name):
    workload = getattr(workloads, name)(seed=1, root=ROOT, workdir=tmp_path / "work")
    workload.setup()
    assert all(workload.prepare_checks())
    for i in range(2 * len(workload.keys())):
        op = workload.next_op(i)
        assert op.key in workload.keys()
        assert op.check(op.fn()), (op.key, i)
    for owner, attr, _, _ in workload.trace_targets():
        assert callable(getattr(owner, attr)), (type(owner).__name__, attr)


@pytest.fixture(scope="module")
def set_up(workloads, tmp_path_factory):
    """Each workload of BENCHMARK.json, set up once, by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    classes = {w.name: w for w in (workloads.TrainXnor, workloads.EvalXnor, workloads.Kernels)}
    out = {}
    for entry in spec["workloads"]:
        workload = classes[entry["name"]](seed=1, root=ROOT,
                                          workdir=tmp_path_factory.mktemp(entry["name"]))
        workload.setup()
        out[entry["name"]] = workload
    return out


def test_per_layer_nn_metrics_come_from_traced_spans(set_up):
    # a metric is its span's name plus "_ms": a renamed span would leave
    # the metric unreported
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_metrics = {m["name"] for m in spec["per_layer"]
                     if re.fullmatch(r"nn\.\w+\.(fwd|bwd)_ms", m["name"])}
    assert layer_metrics
    spans = {span for w in set_up.values() for _, _, span, _ in w.trace_targets()}
    missing = layer_metrics | {"nn.binarize_ms", "nn.network_self_ms"}
    missing -= {f"{span}_ms" for span in spans}
    assert not missing


def test_eval_xnor_packed_binconv_is_traced_as_binconv(workloads, set_up):
    net = set_up["eval-xnor"].net
    conv = net.layers[5]
    assert conv.binarize_weights and conv.binarize_input
    assert workloads.layer_kind(conv) == "binconv"
