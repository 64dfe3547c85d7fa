"""The repository benchmark: one command, every metric, checked outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_cell --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json: it
starts the workload's ``children`` fresh processes one after another,
each set up from scratch and then repeating the workload's rep for its
share of ``--seconds``, plus ``SETUP_PROBES`` processes that only set up.
Every time is the median over all samples of the run, in reference
seconds: each wall time is rescaled by a fixed kernel timed beside it
(``timed``).

``--trace 1`` starts one process that runs the rep untraced and then
traced, and reports the per-layer metrics.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {"value", "unit"}}``). The lines
before it print the same metrics as a table, counts apart from times.
See perfbench/README.md for every metric and workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from child import CALIB_REF_S
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))

#: Set-up-only processes per timed run, beside the workload's measuring ones.
SETUP_PROBES = 4
#: Hard limit on the children of one run (the run must end within 180 s).
CHILD_TIMEOUT = 150.0
#: Scratch space inside the checkout (listed in .gitignore).
WORKDIR = ".perfbench"


def _env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MANETSIM_")}
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # The sweep manifest asks git for the commit; keep git from walking
    # out of the checkout.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(root)
    return env


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def spawn(root, workload, seed, mode, budget, flight, tag, deadline):
    """Run one child; returns (set-up seconds, result dict) or raises."""
    workdir = os.path.join(root, WORKDIR, f"{workload}-{tag}")
    out = os.path.join(workdir, "result.json")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--budget", repr(budget), "--flight", str(int(flight)),
        "--workdir", workdir, "--out", out,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=root, env=_env(root), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    watchdog = threading.Timer(max(deadline - t0, 1.0), _kill_group, (proc,))
    watchdog.start()
    setup_s = None
    try:
        for line in proc.stdout:
            if line.strip() == "READY" and setup_s is None:
                setup_s = time.perf_counter() - t0
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        # Sweep workers live in the child's session; none may outlive it.
        _kill_group(proc)
    if proc.returncode != 0 or setup_s is None or not os.path.exists(out):
        raise RuntimeError(f"{mode} child exited with {proc.returncode}")
    with open(out) as fh:
        return setup_s, json.load(fh)


def timed(root, workload, seed, seconds):
    """End-to-end metrics from the workload's measuring processes and
    SETUP_PROBES set-up processes."""
    children = WORKLOADS[workload].children
    start = time.perf_counter()
    deadline = start + CHILD_TIMEOUT
    attempted = failed = 0
    errors = []
    setups, reps, rss = [], [], []
    digests = None
    for i in range(children + SETUP_PROBES):
        measuring = i < children
        mode = "timed" if measuring else "setup"
        try:
            # Each measuring child gets an equal share of what is left.
            budget = max(seconds - (time.perf_counter() - start), 0.0) / (children - i) \
                if measuring else 0.0
            setup_s, res = spawn(
                root, workload, seed, mode, budget,
                flight=(i == children - 1), tag=str(i), deadline=deadline,
            )
        except RuntimeError as exc:
            attempted += 1
            failed += 1
            errors.append(str(exc))
            continue
        setups.append((setup_s, res["setup_calib_s"]))
        if not measuring:
            continue
        attempted += res["attempted"]
        failed += res["failed"]
        errors.extend(res["errors"])
        rss.append(res["peak_rss_mb"])
        for rep in res["reps"]:
            reps.append(rep)
            if digests is None:
                digests = rep["digests"]
            elif rep["digests"] != digests:
                failed += 1
                errors.append("results differ between processes")
    if not reps:
        raise RuntimeError("no rep finished: " + "; ".join(errors[:3]))
    raw = {
        "setup_s": [s for s, _c in setups],
        "run_s": [r["run_s"] for r in reps],
        "sweep_cold_s": [r["cold_s"] for r in reps],
        "sweep_warm_s": [w for rep in reps for w in rep["warm_s"]],
    }
    # The host runs the same code up to 1.8x slower for minutes at a time,
    # so each wall time is rescaled to the reference host by the kernel
    # timed beside it, and the run reports medians of the rescaled times.
    # A cold sweep takes the host factor of the runs inside it.
    samples = {
        "setup_s": [s * CALIB_REF_S / c for s, c in setups],
        "run_s": [r["run_ref_s"] for r in reps],
        "sweep_cold_s": [r["cold_s"] * r["run_ref_s"] / r["run_s"] for r in reps],
        "sweep_warm_s": [w for rep in reps for w in rep["warm_ref_s"]],
    }
    metrics = {k: (statistics.median(v), "s", False) for k, v in samples.items()}
    metrics["peak_rss_mb"] = (max(rss), "MB", False)
    metrics["ok_share"] = (max(1.0 - failed / max(attempted, 1), 0.0), "ratio", True)
    calib = [c for _s, c in setups] + [r["calib_s"] for r in reps]
    info = {
        "reference seconds": {k: _spread(v) for k, v in samples.items()},
        "wall seconds": {k: _spread(v) for k, v in raw.items()},
        "host.calib_s": f"{statistics.median(calib):.6g} (reference {CALIB_REF_S})",
    }
    return metrics, attempted, failed, errors, info


def _spread(values) -> str:
    """Sample count and median, plus the highest of p75/p90/p95/p99 that
    has at least ten samples beyond it."""
    n = len(values)
    text = f"n={n} p50={statistics.median(values):.6g}"
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return f"{text} p{p}={statistics.quantiles(values, n=100)[p - 1]:.6g}"
    return text


def traced(root, workload, seed, seconds):
    """Per-layer metrics from one traced process."""
    deadline = time.perf_counter() + CHILD_TIMEOUT
    setup_s, res = spawn(root, workload, seed, "trace", 0.0, flight=True, tag="trace",
                         deadline=deadline)
    metrics = {k: tuple(v) for k, v in res["per_layer"].items()}
    info = {"setup_s (one sample)": setup_s, "unattributed": res["unattributed"],
            "untraced rep": {k: res["untraced"][k] for k in ("run_s", "cold_s")}}
    return metrics, res["attempted"], res["failed"], res["errors"], info


def report(metrics, info, attempted, failed, errors) -> None:
    """Human-readable table: measurements apart from the exact counts."""
    for title, exact in (("measured:", False), ("exact for a given seed:", True)):
        rows = [(k, v, u) for k, (v, u, e) in metrics.items() if e is exact]
        if rows:
            print(title)
        for name, value, unit in rows:
            shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
            print(f"  {name:<32} {shown} {unit}")
    for key, value in info.items():
        print(f"{key}: {value}")
    print(f"operations: {attempted} attempted, {failed} failed")
    for err in errors[:10]:
        print(f"  FAILED: {err}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind through spawn's cleanup so no child outlives us.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    measure = traced if args.trace else timed
    try:
        metrics, attempted, failed, errors, info = measure(
            root, args.workload, args.seed, args.seconds)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report(metrics, info, attempted, failed, errors)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _exact) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
