"""Closed-loop timing, in-memory span tracing and the environment record.

This module imports neither numpy nor xbnn at import time, so ``run.py`` can
pin the BLAS thread count before numpy loads.
"""

from __future__ import annotations

import ctypes
import gc
import json
import math
import os
import platform
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Force one BLAS thread. Must run before numpy is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


# ---------------------------------------------------------------------------
# tracing


class Span:
    __slots__ = ("name", "op", "parent", "t0", "t1", "value")

    def __init__(self, name, op, parent, t0):
        self.name = name
        self.op = op
        self.parent = parent
        self.t0 = t0
        self.t1 = t0
        self.value = None


class Tracer:
    """Spans recorded around wrapped callables and kept in memory.

    Every span started while ``op`` is set carries that id, so all spans of
    one operation share it. ``parent`` is the index of the enclosing span in
    ``spans`` (-1 at the root); the benchmark is single-threaded, so one stack
    of open spans is enough.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._open: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, fn, name, measure=None):
        """``fn`` wrapped in a span; ``measure(result)`` is stored on the span."""
        spans, stack, perf = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, self.op, stack[-1] if stack else -1, perf())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = perf()
                stack.pop()
            if measure is not None:
                span.value = measure(result)
            return result

        return traced

    def patch(self, owner, attr, name, measure=None) -> None:
        """Replace ``owner.attr`` by its traced wrapper until ``restore``."""
        original = getattr(owner, attr)
        own = attr in vars(owner)
        self._patched.append((owner, attr, original if own else None))
        setattr(owner, attr, self.wrap(original, name, measure))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is None:
                delattr(owner, attr)  # it was a class attribute: unshadow it
            else:
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Seconds per span not covered by its child spans."""
        own = [s.t1 - s.t0 for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.t1 - s.t0
        return own

    def dump(self, path: Path) -> None:
        rows = [{"id": i, "name": s.name, "op": s.op, "parent": s.parent,
                 "start": s.t0, "end": s.t1, "value": s.value}
                for i, s in enumerate(self.spans)]
        path.write_text(json.dumps(rows))


# ---------------------------------------------------------------------------
# closed loop


@dataclass
class Op:
    """One operation: ``fn()`` is timed, ``check(result)`` is not."""

    key: str  # what the latency is reported under (workload or kernel variant)
    fn: object
    check: object
    images: int


@dataclass
class LoopStats:
    latencies: dict[str, list[float]] = field(default_factory=dict)
    images: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    first_error: str | None = None

    def record(self, op: Op, seconds: float, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            return
        self.latencies.setdefault(op.key, []).append(seconds)
        self.images[op.key] = self.images.get(op.key, 0) + op.images

    def fail(self, error: str) -> None:
        self.attempted += 1
        self.failed += 1
        if self.first_error is None:
            self.first_error = error

    def p50_ms(self, key: str) -> float:
        return 1e3 * statistics.median(self.latencies[key])

    def p90_ms(self, key: str) -> float:
        lat = self.latencies[key]
        if len(lat) < 2:
            return 1e3 * lat[0]
        return 1e3 * statistics.quantiles(lat, n=10, method="inclusive")[-1]

    def img_per_s(self, key: str) -> float:
        return self.images[key] / math.fsum(self.latencies[key])


def geomean(values) -> float:
    values = list(values)
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def closed_loop(next_op, seconds: float, *, max_ops: int | None = None,
                tracer: Tracer | None = None, targets=(), period: int = 1
                ) -> tuple[LoopStats, LoopStats]:
    """One client: the next operation starts only when the previous returned.

    Runs until ``seconds`` of wall time have passed (at least one operation)
    or ``max_ops`` operations ran. An operation fails if it raises or its
    check returns false; failures are counted, not timed.

    With a tracer, blocks of ``period`` operations alternate between untraced
    and traced, so drift in machine speed hits both halves alike. A traced
    operation runs with every ``(owner, attr, span name, measure)`` target
    wrapped, and inside a root span named "op". Returns the statistics of
    the untraced and of the traced operations.
    """
    halves = (LoopStats(), LoopStats())
    gc.collect()
    perf = time.perf_counter
    deadline = perf() + seconds
    i = 0
    while (i == 0 or perf() < deadline) and (max_ops is None or i < max_ops):
        op = next_op(i)
        traced = tracer is not None and (i // period) % 2 == 1
        fn = op.fn
        if traced:
            for target in targets:
                tracer.patch(*target)
            tracer.op = ("traced", i, op.key)
            fn = tracer.wrap(fn, "op")
        stats = halves[traced]
        try:
            t0 = perf()
            result = fn()
            dt = perf() - t0
            ok = bool(op.check(result))
        except Exception:  # a failing operation is counted, and the loop goes on
            stats.fail(traceback.format_exc())
        else:
            stats.record(op, dt, ok)
            if not ok and stats.first_error is None:
                stats.first_error = f"{op.key}: output check failed on operation {i}"
        finally:
            if traced:
                tracer.restore()
                tracer.op = None
        i += 1
    return halves


# ---------------------------------------------------------------------------
# environment


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports at run time, or None if it cannot be asked.

    Loads the OpenBLAS copy bundled with the numpy wheel (dlopen returns the
    already loaded instance) and calls its get_num_threads entry point.
    """
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_speed_ms() -> float:
    """Median ms of a fixed 512x512 float32 matmul: how fast the machine runs
    right now. Shared hosts drift by 10-20% over tens of seconds."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((512, 512), dtype=np.float32)
    times = []
    for _ in range(15):
        t0 = time.perf_counter()
        a @ a
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "cpu": cpu_model(),
        "nproc": usable,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "platform": platform.platform(),
        "sgemm_512_ms": machine_speed_ms(),
    }
