"""One fresh benchmark process: set a workload up, run it, check it.

Started by ``run.py`` with ``PYTHONPATH=src``. Prints ``READY`` on
stdout once the workload is ready to run (the parent times set-up from
spawn to that line), then writes its result as JSON to ``--out``.

Modes:

* ``setup``  — stop after ``READY``.
* ``timed``  — repeat the workload's rep, untraced, until ``--budget``
  seconds are used (at least one rep).
* ``trace``  — one untraced rep, then one rep with every layer edge
  wrapped (see ``spans.py``); report per-layer self times and counts.

A rep is one sweep, config -> CSV, through the sweep executor on an
empty cache directory (cold), then the same sweep answered from that
cache (warm), repeated ``WARM_REPEATS`` times. In ``timed`` mode every
``Scenario.run`` and every warm sweep sits between two passes of the
reference kernel (``calibrate``), so the parent can rescale each wall
time by the host's speed at that moment.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import heapq
import json
import os
import random
import resource
import shutil
import statistics
import sys
from time import perf_counter

#: Warm sweeps per rep: one warm sweep of a few points answers in
#: milliseconds, so its median needs many samples.
WARM_REPEATS = 25

#: The host-speed reference: a fixed pure-Python kernel of the kinds of
#: work the simulator does (integer arithmetic, then a heap-ordered event
#: loop over small objects and a dict), timed beside every sample.
_CALIB_N = 100_000
_CALIB_EVENTS = 15_000
#: The kernel's time on the reference host (a 2-vCPU VM, Python 3.11, in
#: its fast state). Every end-to-end time is reported in reference
#: seconds: wall seconds x CALIB_REF_S / the kernel's time beside them.
CALIB_REF_S = 0.015


class _Event:
    __slots__ = ("time", "node", "kind")

    def __init__(self, time, node, kind):
        self.time = time
        self.node = node
        self.kind = kind


def calibrate() -> float:
    """Wall time of one pass of the reference kernel.

    Everything the kernel touches is allocated before the clock starts
    and the collector is off meanwhile, so its time does not depend on
    the program's heap: neither on how many objects a full collection
    would scan nor on whether the allocator has free memory at hand.
    """
    rng = random.Random(1)
    heap = [(rng.random(), i, _Event(0.0, i, 0)) for i in range(256)]
    heapq.heapify(heap)
    state = dict.fromkeys(range(997))
    steps = [rng.random() for _ in range(_CALIB_EVENTS)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        x = 0
        for i in range(_CALIB_N):
            x += i * i
        for i, step in enumerate(steps):
            t, _seq, ev = heapq.heappop(heap)
            ev.time = t
            ev.node += 1
            ev.kind ^= 1
            state[ev.node % 997] = ev
            heapq.heappush(heap, (t + step, i, ev))
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def digest(summary) -> str:
    """Hash of a MetricsSummary, without its perf/profile/flight side fields."""
    d = dataclasses.asdict(summary)
    for k in ("perf", "profile", "flight"):
        d.pop(k, None)
    text = json.dumps(d, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


class Checks:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def fail(self, why: str) -> None:
        self.failed += 1
        self.errors.append(why)

    def check(self, ok: bool, why: str) -> bool:
        if not ok:
            self.fail(why)
        return ok


def _sane(summary, cfg) -> bool:
    return (
        summary.protocol == cfg.protocol
        and summary.data_sent > 0
        and 0 < summary.data_received <= summary.data_sent
        and 0.0 < summary.pdr <= 1.0
    )


def run_rep(grid, processes, cache_dir, side, checks, warm_repeats):
    """One cold sweep and *warm_repeats* warm sweeps of *grid*."""
    from repro.scenario import FailedRun, default_executor
    from repro.scenario.io import summaries_to_csv

    configs = [cfg for _labels, cfg in grid]
    extra = {k: [labels[k] for labels, _cfg in grid] for k in grid[0][0]}
    shutil.rmtree(cache_dir, ignore_errors=True)
    os.makedirs(cache_dir)
    cold_csv = os.path.join(cache_dir, "cold.csv")
    warm_csv = os.path.join(cache_dir, "warm.csv")

    t0 = perf_counter()
    executor = default_executor(processes=processes, use_cache=True, cache_dir=cache_dir)
    results = executor.run(configs)
    ok = not any(isinstance(r, FailedRun) for r in results)
    if ok:
        summaries_to_csv(results, cold_csv, extra=extra)
    t1 = perf_counter()
    manifest = executor.last_manifest or {}

    checks.attempted += len(configs)
    digests = []
    for (labels, cfg), r in zip(grid, results):
        if isinstance(r, FailedRun):
            checks.fail(f"{labels}: {r.kind}: {r.error[:200]}")
            digests.append(None)
        else:
            checks.check(_sane(r, cfg), f"{labels}: implausible summary")
            digests.append(digest(r))

    # Each warm sweep is timed between two passes of the reference kernel.
    warm, calib = [], [calibrate()]
    for _ in range(warm_repeats if ok else 0):
        w0 = perf_counter()
        executor = default_executor(processes=processes, use_cache=True, cache_dir=cache_dir)
        again = executor.run(configs)
        summaries_to_csv(again, warm_csv, extra=extra)
        warm.append(perf_counter() - w0)
        calib.append(calibrate())
        checks.attempted += len(configs)
        hits = executor.last_cache_hits
        if not checks.check(hits == len(configs), f"warm sweep: {hits}/{len(configs)} cache hits"):
            continue
        with open(cold_csv, "rb") as a, open(warm_csv, "rb") as b:
            checks.check(a.read() == b.read(), "warm sweep CSV differs from cold CSV")

    points = [wall for wall, _c, _k in side.records("point", t0, t1)]
    runs = side.records("run", t0, t1)
    checks.check(len(runs) == len(configs), f"{len(runs)} runs recorded for {len(configs)} points")
    shutil.rmtree(cache_dir, ignore_errors=True)
    workers = max(manifest.get("workers", processes), 1)
    return {
        # The kernel passes around each run are not part of the sweep.
        "cold_s": t1 - t0 - sum(k for _w, _c, k in runs) / workers,
        "run_s": sum(wall for wall, _c, _k in runs),
        # Each run in reference seconds, by the kernel passes around it.
        "run_ref_s": sum(wall * CALIB_REF_S / c for wall, c, _k in runs if c > 0),
        "warm_s": warm,
        "warm_ref_s": [w * CALIB_REF_S * 2 / (a + b) for w, a, b in zip(warm, calib, calib[1:])],
        "calib_s": statistics.median(calib),
        "point_s": points,
        "workers": workers,
        "jobs_executed": manifest.get("jobs_executed", 0),
        "digests": digests,
    }


def flight_check(grid, digests, index, checks) -> None:
    """Re-run one point with the flight recorder: the packet ledger must
    balance, and the recorder must not change the result."""
    from repro.scenario import build_scenario

    labels, cfg = grid[index]
    checks.attempted += 1
    try:
        summary = build_scenario(cfg.with_(flight=True)).run()
    except Exception as exc:  # noqa: BLE001 - a failed operation is reported
        checks.fail(f"flight run {labels}: {type(exc).__name__}: {exc}")
        return
    report = summary.flight or {}
    checks.check(report.get("unaccounted") == 0, f"flight {labels}: unaccounted packets")
    checks.check(report.get("conserved") is True, f"flight {labels}: ledger not conserved")
    checks.check(digest(summary) == digests[index], f"flight {labels}: recorder changed the result")


def peak_rss_mb(workers: int) -> float:
    """This process's peak RSS plus *workers* times the largest reaped child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + workers * child) / 1024.0


def trace_metrics(tracer, untraced, traced, setup) -> dict:
    """Per-layer metrics of the traced rep, named as in BENCHMARK.json."""
    c = tracer.calls
    s_in = tracer.self_in_run
    s_out = tracer.self_outside
    perf = tracer.perf
    mac = tracer.mac_stats

    def ratio(a, b):
        return a / b if b else 0.0

    # (value, unit, exact): counts and ratios of counts repeat exactly
    # for a given seed; times never do.

    tx = c["phy.channel.transmit"]
    arrivals = perf["phy_batch_arrivals"] + perf["phy_legacy_arrivals"]
    fan = perf["fanout_cache_hits"] + perf["fanout_cache_misses"]
    mac_tx = mac["data_sent"] + mac["rts_sent"]
    edges = perf["mac_edges_suppressed"] + perf["mac_edges_dispatched"]
    timers = perf["mac_timer_events"]
    points = sorted(untraced["point_s"])
    cold = untraced["cold_s"]
    workers = max(untraced["workers"], 1)
    unattributed = s_in["unattributed"] + s_in["other"]
    return {
        "phy.self_s": (s_in["phy"], "s", False),
        "phy.transmissions": (tx, "count", True),
        "phy.arrivals": (arrivals, "count", True),
        "phy.arrivals_per_tx": (ratio(arrivals, tx), "ratio", True),
        "phy.fanout_hit_ratio": (ratio(perf["fanout_cache_hits"], fan), "ratio", True),
        "mac.self_s": (s_in["mac"], "s", False),
        "mac.send_calls": (c["mac.send"], "count", True),
        "mac.frames_received": (c["mac.on_frame_received"], "count", True),
        "mac.tx_success_ratio": (ratio(mac_tx - mac["retries"], mac_tx), "ratio", True),
        "mac.edge_suppression_ratio": (ratio(perf["mac_edges_suppressed"], edges), "ratio", True),
        "mac.timer_coalescing_ratio": (
            ratio(timers - perf["mac_wheel_sentinels"], timers), "ratio", True),
        "core.self_s": (s_in["core"], "s", False),
        "core.events_fired": (c["core.events_fired"], "count", True),
        "core.heap_pushes": (c["core.push"], "count", True),
        "routing.self_s": (s_in["routing"], "s", False),
        "routing.originate_calls": (c["routing.originate"], "count", True),
        "routing.deliver_calls": (c["routing.deliver"], "count", True),
        "routing.control_sent": (c["routing.send_control"], "count", True),
        "routing.link_failures": (c["routing.link_failed"], "count", True),
        "mobility.self_s": (s_in["mobility"], "s", False),
        "mobility.position_calls": (c["mobility.positions"], "count", True),
        "traffic.self_s": (s_in["traffic"], "s", False),
        "traffic.packets_originated": (c["traffic.send"], "count", True),
        "stats.finish_s": (s_in["stats"], "s", False),
        "scenario.import_s": (setup["import_s"], "s", False),
        "scenario.build_s": (setup["build_s"], "s", False),
        "scenario.key_s": (s_out["scenario.key"], "s", False),
        "store.get_s": (s_out["store.get"], "s", False),
        "store.gets": (c["store.get"], "count", True),
        "store.put_s": (s_out["store.put"], "s", False),
        "store.puts": (c["store.put"], "count", True),
        "executor.point_s_p50": (statistics.median(points), "s", False),
        "executor.point_s_max": (points[-1], "s", False),
        "executor.worker_utilization": (ratio(sum(points), cold * workers), "ratio", False),
        "executor.jobs_executed": (untraced["jobs_executed"], "count", True),
        "host.calib_s": (setup["calib_s"], "s", False),
        "trace.run_s": (tracer.run_wall, "s", False),
        "trace.overhead_s": (traced["run_s"] - untraced["run_s"], "s", False),
        "trace.unattributed_s": (unattributed, "s", False),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--flight", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    t0 = perf_counter()
    import repro.analysis.experiments  # noqa: F401 - part of set-up
    import repro.scenario
    import repro.scenario.io  # noqa: F401 - part of set-up
    import_s = perf_counter() - t0

    from spans import LayerTracer, SideChannel
    from workloads import WORKLOADS, points

    workload = WORKLOADS[args.workload]
    grid = points(args.workload, args.seed)
    t0 = perf_counter()
    for _labels, cfg in grid:
        repro.scenario.build_scenario(cfg)
    build_s = perf_counter() - t0
    os.makedirs(args.workdir, exist_ok=True)
    side = SideChannel(os.path.join(args.workdir, "walls.log"))
    side.install(calibrate if args.mode == "timed" else None)
    print("READY", flush=True)

    out = {"import_s": import_s, "build_s": build_s,
           "setup_calib_s": statistics.median(calibrate() for _ in range(3))}
    checks = Checks()
    cache_dir = os.path.join(args.workdir, "cache")
    processes = workload.processes
    try:
        if args.mode == "timed":
            reps = []
            deadline = perf_counter() + args.budget
            while True:
                r0 = perf_counter()
                reps.append(run_rep(grid, processes, cache_dir, side, checks, WARM_REPEATS))
                if perf_counter() + (perf_counter() - r0) > deadline:
                    break
            for rep in reps[1:]:
                checks.check(rep["digests"] == reps[0]["digests"], "rep results differ")
            if args.flight and workload.flight_check:
                flight_check(grid, reps[0]["digests"], args.seed % len(grid), checks)
            out["reps"] = reps
        elif args.mode == "trace":
            untraced = run_rep(grid, processes, cache_dir, side, checks, 1)
            calib = [calibrate()]
            tracer = LayerTracer()
            tracer.install()
            try:
                traced = run_rep(grid, 1, cache_dir, side, checks, 1)
            finally:
                tracer.uninstall()
            calib.append(calibrate())
            checks.check(traced["digests"] == untraced["digests"], "traced results differ")
            accounted = sum(tracer.self_in_run.values())
            checks.check(
                abs(accounted - tracer.run_wall) <= 1e-6 * max(tracer.run_wall, 1.0),
                f"self times sum to {accounted!r}, traced wall is {tracer.run_wall!r}",
            )
            if workload.flight_check:
                flight_check(grid, untraced["digests"], args.seed % len(grid), checks)
            tracer.write(os.path.join(args.workdir, "spans.npz"))
            setup = {"import_s": import_s, "build_s": build_s, "calib_s": statistics.median(calib)}
            out["per_layer"] = trace_metrics(tracer, untraced, traced, setup)
            out["untraced"] = untraced
            out["unattributed"] = {
                "scenario.run self": tracer.self_in_run["unattributed"],
                "event callbacks outside the named layers": tracer.self_in_run["other"],
            }
    finally:
        if args.mode != "setup":
            from repro.scenario import default_executor

            default_executor(processes=processes).close()
        side.close()
    out["peak_rss_mb"] = peak_rss_mb(processes)
    out["attempted"] = checks.attempted
    out["failed"] = checks.failed
    out["errors"] = checks.errors[:20]
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
