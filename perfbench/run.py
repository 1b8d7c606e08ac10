#!/usr/bin/env python3
"""vfsynth benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a vfsynth checkout. Each operation (one ``vfsynth
train``, one four-way evaluation or one ``vfsynth audit``) runs in a fresh
worker process; the next starts when the previous one has ended, until
``--seconds`` have passed (at least two operations, so their outputs can be
compared). Inputs are generated from ``--seed`` before the first operation.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
untraced and traced operations alternate and the per-layer metrics of the
traced ones are reported. The last line of standard output is the JSON
result; the lines before it give the machine header, the output
fingerprint, every check and every operation. See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

HARD_LIMIT_S = 170.0  # every run must end within 180 s
MIN_OPS = 2
MIN_SETUPS = 9
REQUIRED = ("src/vfsynth/cli.py", "data/winequality-red.csv", "configs/winequality-red.yaml")
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("step_ms", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VFSYNTH_THREADS", "VFSYNTH_NUMBA")


def _git_sha() -> str:
    """HEAD of the checkout read from its own .git, or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _calibration_ms() -> float:
    """Median time of a fixed pure-Python loop: a record of how fast the
    machine ran during this run, since shared hosts drift by tens of percent."""
    times = []
    for _ in range(5):
        t = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append((time.perf_counter() - t) * 1e3)
    return statistics.median(times)


def _run_worker(wl, inputs, work, index, deadline, trace, setup_only, env):
    """Run one worker; return its result dict, or None if it failed."""
    out = work / f"op{index}"
    result = work / f"op{index}.json"
    log = work / f"op{index}.log"
    flags = (["--trace"] if trace else []) + (["--setup-only"] if setup_only else [])
    with open(log, "wb") as err:
        cmd = [sys.executable, str(HERE / "worker.py"), wl.name, str(inputs), str(out),
               str(result), repr(time.monotonic()), *flags]
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=env,
                                cwd=ROOT, start_new_session=True)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            rc = "timeout"
    shutil.rmtree(out, ignore_errors=True)
    if rc != 0 or not result.exists():
        tail = log.read_text(errors="replace").strip().splitlines()[-5:]
        print(f"op {index}: worker failed ({rc}): " + " | ".join(tail), file=sys.stderr)
        return None
    return json.loads(result.read_text())


def _median(values):
    return statistics.median(values) if values else 0.0


def main() -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a vfsynth checkout, missing {missing}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    started = time.monotonic()
    hard_deadline = started + HARD_LIMIT_S
    work = ROOT / ".bench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    try:
        workloads.make_inputs(wl, args.seed, work / "inputs")
        return _measure(wl, args, work, hard_deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # not empty: another run is using it


def _measure(wl, args, work, hard_deadline) -> int:
    inputs = work / "inputs"
    base_env = dict(os.environ)
    traced_env = dict(base_env)
    if wl.kind == "audit":
        traced_env["VFSYNTH_THREADS"] = "1"  # keep shadow jobs in-process
    calibration_ms = _calibration_ms()
    deadline = time.monotonic() + args.seconds
    ops = []  # (traced, result or None)
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        t = time.monotonic()
        res = _run_worker(wl, inputs, work, len(ops), hard_deadline - 5.0, traced,
                          False, traced_env if traced else base_env)
        longest = max(longest, time.monotonic() - t)
        ops.append((traced, res))
        now = time.monotonic()
        enough = len(ops) >= MIN_OPS and (not args.trace or len(ops) % 2 == 0)
        if (enough and now >= deadline) or now + longest > hard_deadline - 5.0:
            break
    plain = [r for tr, r in ops if not tr and r is not None]
    traced_ok = [r for tr, r in ops if tr and r is not None]
    if not plain or (args.trace and not traced_ok):
        print("error: no operation completed", file=sys.stderr)
        return 1

    setups = [r["setup_s"] for _, r in ops if r is not None]
    if not args.trace:
        while len(setups) < MIN_SETUPS and time.monotonic() + 5 < hard_deadline - 5.0:
            res = _run_worker(wl, inputs, work, len(ops) + len(setups), hard_deadline - 5.0,
                              False, True, base_env)
            if res is None:
                break
            setups.append(res["setup_s"])

    attempted = failed = 0
    reference = json.dumps(plain[0]["fingerprint"], sort_keys=True)
    for i, (tr, res) in enumerate(ops):
        tag = "traced" if tr else "untraced"
        if res is None:
            attempted += wl.planned_units + 1
            failed += wl.planned_units + 1
            print(f"op {i} {tag}: FAILED")
            continue
        bad = [c for c in res["checks"] if not c[1]]
        same = json.dumps(res["fingerprint"], sort_keys=True) == reference
        attempted += wl.planned_units + len(res["checks"]) + 1
        failed += len(bad) + (0 if same else 1)
        print(f"op {i} {tag}: setup_s={res['setup_s']:.4f} run_s={res['run_s']:.4f} "
              f"cpu_s={res['cpu_s']:.4f} peak_rss_mb={res['peak_rss_mb']:.1f} "
              f"steps={len(res['steps_ms'])} checks={len(res['checks']) - len(bad)}/"
              f"{len(res['checks'])} fingerprint={'same' if same else 'DIFFERS'}")
        for name, ok, detail in res["checks"]:
            if not ok:
                print(f"  check {name}: FAILED {detail}")

    header = {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "calibration_ms": round(calibration_ms, 3),
        **plain[0]["machine"],
        "thread_env": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client",
    }
    print("header " + json.dumps(header, sort_keys=True))
    print("fingerprint " + reference)
    print("checks " + ", ".join(f"{n}={'ok' if ok else 'FAILED'}"
                                for n, ok, _ in plain[0]["checks"]))
    print(f"error_rate {failed}/{attempted}")

    steps = sorted(s for r in plain for s in r["steps_ms"])
    if args.trace:
        metrics = _per_layer(plain, traced_ok)
    else:
        p90 = steps[int(0.9 * len(steps))] if steps else 0.0
        print(f"steps n={len(steps)} p50_ms={_median(steps):.3f} p90_ms={p90:.3f}; "
              f"setups n={len(setups)}; ops n={len(plain)}")
        values = {
            "setup_s": _median(setups),
            "run_s": _median([r["run_s"] for r in plain]),
            "step_ms": _median([statistics.fmean(r["steps_ms"] or [0.0]) for r in plain]),
            "cpu_s": _median([r["cpu_s"] for r in plain]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _per_layer(plain, traced):
    import probes

    absent = sorted({t for r in traced for t in r.get("absent", [])})
    if absent:
        print("absent wrap targets: " + ", ".join(absent))
    metrics = {}
    for name, unit in probes.PER_OP:
        metrics[name] = {"value": _median([r["layers"][name] for r in traced]), "unit": unit}
    run_plain = _median([r["run_s"] for r in plain])
    run_traced = _median([r["run_s"] for r in traced])
    shadows_plain = _median([r["shadows_s"] for r in plain])
    per_run = {
        "trace.overhead_s": run_traced - run_plain,
        "audit.pool_speedup": (_median([r["shadows_s"] for r in traced]) / shadows_plain
                               if shadows_plain else 0.0),
        "proc.cpu_per_wall": _median([r["cpu_s"] for r in plain]) / run_plain,
    }
    for name, unit in probes.PER_RUN:
        metrics[name] = {"value": per_run[name], "unit": unit}
    for r in traced:
        layer = r["layers"]
        print(f"partition: sum(self.*_ms)="
              f"{sum(layer[f'self.{x}_ms'] for x in probes.LAYERS):.1f} + "
              f"unattributed={layer['trace.unattributed_ms']:.1f} = "
              f"trace.run_s*1e3={layer['trace.run_s'] * 1e3:.1f}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
