"""The benchmark's workloads (perfbench/workloads.py) still run on the
package: every set-up succeeds and its checks hold, a few timed operations
pass their own checks, and every attribute the traced run wraps exists."""

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
