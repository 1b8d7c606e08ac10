"""One operation of one workload, in a fresh Python process.

Usage (started by ``run.py``, which passes the CLOCK_MONOTONIC time it
launched this process)::

    python3 perfbench/worker.py WORKLOAD INPUTS OUT RESULT LAUNCHED [--trace] [--setup-only]

Set-up is everything from the launch to the workload's first timed call:
interpreter start, imports, config, CSV load/encode/partition and DP
calibration. The timed section runs from that call to the end of the
operation. The result (times, CPU, peak RSS, step durations, fingerprint,
checks and, when traced, per-layer metrics) is written to RESULT as JSON.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import probes  # noqa: E402
import workloads  # noqa: E402
from tracer import SetupDone, Tracer, analyse  # noqa: E402


def _cpu_s() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0  # Linux reports KiB


def _machine() -> dict:
    import importlib.util

    import numpy as np

    info = {"numpy": np.__version__,
            "numba_importable": importlib.util.find_spec("numba") is not None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    try:
        from vfsynth.audit import thread_count

        # the pool gets min(VFSYNTH_THREADS or cores, jobs per batch) workers
        info["audit_workers"] = min(thread_count(), 2 * workloads.AUDIT_SHADOWS)
    except ImportError:
        info["audit_workers"] = None
    return info


def main(argv: list[str]) -> int:
    name, inputs, out, result_path, launched = argv[:5]
    trace = "--trace" in argv
    setup_only = "--setup-only" in argv
    wl = workloads.WORKLOADS[name]
    inputs, out, launched = Path(inputs), Path(out), float(launched)

    import vfsynth.cli  # noqa: F401  (imports every layer: part of set-up)

    tracer = Tracer()
    for target in probes.TRACE_TARGETS if trace else wl.step_targets:
        tracer.wrap(*target)
    marks: dict[str, float] = {}

    def mark_start():
        if "t0" in marks:
            return
        marks["t0"] = time.monotonic()
        if setup_only:
            raise SetupDone
        marks["cpu0"] = _cpu_s()

    if wl.start_span is not None:
        tracer.on_begin(wl.start_span, mark_start)
    try:
        op_result = workloads.run_op(wl, inputs, out, mark_start)
    except SetupDone:
        result = {"setup_s": marks["t0"] - launched}
        Path(result_path).write_text(json.dumps(result), encoding="utf-8")
        return 0
    t1 = time.monotonic()
    cpu1 = _cpu_s()
    peak_rss_mb = _peak_rss_mb()
    tracer.restore()
    t0 = marks["t0"]
    stats = analyse(tracer, t0, t1)
    step = stats.get(wl.step_span)
    steps_ms = [d * 1e3 / wl.step_jobs for d in step.durations] if step else []
    shadows = stats.get("audit.shadows")
    fingerprint, checks = workloads.check_op(
        wl, inputs, out, op_result, {name: st.calls for name, st in stats.items()}
    )
    result = {
        "setup_s": t0 - launched,
        "run_s": t1 - t0,
        "cpu_s": cpu1 - marks["cpu0"],
        "peak_rss_mb": peak_rss_mb,
        "steps_ms": steps_ms,
        "shadows_s": shadows.inclusive if shadows else 0.0,
        "fingerprint": fingerprint,
        "checks": checks,
        "machine": _machine(),
    }
    if trace:
        setup_stats = analyse(tracer, launched, t0)
        result["layers"] = probes.op_metrics(
            stats, setup_stats, tracer.counters, t1 - t0, tracer.absent
        )
        result["absent"] = tracer.absent
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
