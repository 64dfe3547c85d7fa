"""Shared machinery for the figure-regeneration benchmarks.

Each ``test_fig_*`` / ``test_table_*`` / ``test_abl_*`` file regenerates
one figure or table of the paper (see DESIGN.md's experiment index).
Figures that the paper derives from the *same* simulations (e.g. PDR,
delay, and overhead vs pause time) share one session-scoped sweep here
too, exactly like the original methodology.

Scales: default runs in minutes on one CPU; ``MANETSIM_FULL=1`` runs the
reconstructed paper configuration; ``MANETSIM_QUICK=1`` is smoke scale.
Rendered outputs land in ``benchmarks/results/*.txt``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.analysis import current_scale, run_figure_sweep
from repro.analysis.experiments import PROTOCOL_SET
from repro.scenario import run_scenario

#: Kernel-bench means (seconds) at the pre-PR commit, measured on the
#: reference machine with this exact harness (pytest-benchmark, same
#: rounds). BENCH_kernel.json reports current numbers against these.
#: The first five are v0 seed means; the routing/large-scenario entries
#: were measured at the PR-1 commit (the commit that introduced the
#: benches' subject code's pre-fast-path form) on the same machine.
SEED_BASELINE_MEANS = {
    "test_perf_event_throughput": 9.4456e-3,
    "test_perf_event_cancellation": 10.2857e-3,
    "test_perf_propagation_vectorized": 10.4975e-6,
    "test_perf_mobility_positions": 39.0375e-6,
    "test_perf_small_scenario": 60.2912e-3,
    "test_perf_routing_control": 5.9326e-3,
    "test_perf_linkcache_get": 5.8616e-3,
    "test_perf_large_scenario": 2.4331,
    # PR-6 benches: means measured at the introducing commit on the
    # same machine (the batched engine and its per-pair twin are
    # within noise of each other at these scales; the baseline is the
    # measured mean, not an aspirational one).
    "test_perf_phy_arrivals": 104.5e-3,
    "test_perf_phy_arrivals_legacy": 106.7e-3,
    "test_perf_xlarge_scenario": 3.3628,
    # PR-7 benches: the baseline for both contention benches is the
    # legacy engine's mean at the introducing commit (the pre-PR
    # contention machine), so the arena bench's speedup_vs_seed reads
    # directly as arena-vs-legacy.
    "test_perf_dcf_contention": 1.2393,
    "test_perf_dcf_contention_legacy": 1.2393,
    # PR-8 benches: the same 10k-node island field through 4 shard
    # processes and through the single loop, each baselined on its own
    # mean at the introducing commit on the (single-core) reference
    # machine — the regression gate then tracks each mode against
    # itself, and the sharded-vs-single ratio is read off the two rows'
    # means in BENCH_kernel.json (sharded is slower on one core: four
    # full ghost builds + process setup; it wins only with real cores).
    "test_perf_sharded_scenario": 8.6317,
    "test_perf_sharded_scenario_single": 2.8309,
}

#: Benchmark files whose results land in BENCH_kernel.json.
KERNEL_BENCH_FILES = (
    "test_perf_kernel",
    "test_perf_routing_control",
    "test_perf_large_scenario",
    "test_perf_phy_arrivals",
    "test_perf_xlarge_scenario",
    "test_perf_dcf_contention",
    "test_perf_sharded_scenario",
)

#: Expected cache hit ratios on the probe scenario below (deterministic:
#: fixed seed, bit-identical engine). A ratio decaying here means a
#: cache has stopped earning its keep even if wall time hasn't moved
#: yet; scripts/check_bench_regression.py fails on a >20% drop.
HIT_RATIO_BASELINE = {
    "fanout_cache": 0.5272,
    "batch_positions": 1.0,
    # Fraction of PHY arrivals resolved by the batched engine (the
    # remainder fell back to the per-pair path). 1.0 on the probe
    # scenario: DCF is batch-safe, so every fan-out batches.
    "phy_batch": 1.0,
    # Fraction of medium edges the contention arena classified as
    # provable no-ops (never dispatched into a MAC). Decay means MACs
    # stopped qualifying for the inline verdicts and fell back to the
    # medium_changed chain.
    "mac_edge_suppression": 0.9510,
    # Fraction of DCF timers the shared wheel coalesced into an
    # already-pushed heap sentinel (1 - sentinels/timers). Sparse on
    # the probe field; saturated cells run ~0.7.
    "mac_timer_coalescing": 0.1686,
}


def _measure_hit_ratios():
    """Engine cache hit ratios on one fixed probe scenario."""
    from repro.scenario import ScenarioConfig
    from repro.scenario.build import build_scenario

    scenario = build_scenario(ScenarioConfig(
        protocol="aodv", n_nodes=20, field_size=(800.0, 400.0),
        duration=30.0, n_connections=5,
        traffic_start_window=(0.0, 5.0), seed=1,
    ))
    scenario.run()
    perf = scenario.sim.perf.as_dict()

    def ratio(hits: int, misses: int) -> float:
        total = hits + misses
        return hits / total if total else 0.0

    return {
        "fanout_cache": ratio(
            perf["fanout_cache_hits"], perf["fanout_cache_misses"]
        ),
        "batch_positions": ratio(
            perf["batch_position_evals"], perf["scalar_position_evals"]
        ),
        "phy_batch": ratio(
            perf["phy_batch_arrivals"], perf["phy_legacy_arrivals"]
        ),
        "mac_edge_suppression": (
            scenario.sim.perf.mac_edge_suppression_ratio()
        ),
        "mac_timer_coalescing": (
            scenario.sim.perf.mac_timer_coalescing_ratio()
        ),
    }


def pytest_sessionfinish(session, exitstatus):
    """Emit BENCH_kernel.json when the kernel microbenchmarks ran.

    The file records mean/median/stddev/rounds per kernel bench plus
    the speedup against :data:`SEED_BASELINE_MEANS`, giving every PR a
    machine-readable perf trail.
    """
    bs = getattr(session.config, "_benchmarksession", None)
    if bs is None:
        return
    kernel = [
        b for b in bs.benchmarks
        if any(f in b.fullname for f in KERNEL_BENCH_FILES)
        and not b.has_error
    ]
    if not kernel:
        return
    payload = {
        "source": "benchmarks/test_perf_kernel.py, "
                  "benchmarks/test_perf_routing_control.py, "
                  "benchmarks/test_perf_large_scenario.py, "
                  "benchmarks/test_perf_phy_arrivals.py, "
                  "benchmarks/test_perf_xlarge_scenario.py, "
                  "benchmarks/test_perf_dcf_contention.py, "
                  "benchmarks/test_perf_sharded_scenario.py",
        "units": "seconds",
        "baseline": "pre-PR commit means on the reference machine",
        "benchmarks": {},
    }
    for bench in kernel:
        stats = bench.stats
        entry = {
            "mean": stats.mean,
            "median": stats.median,
            "stddev": stats.stddev,
            "rounds": stats.rounds,
        }
        seed_mean = SEED_BASELINE_MEANS.get(bench.name)
        if seed_mean:
            entry["seed_mean"] = seed_mean
            entry["speedup_vs_seed"] = round(seed_mean / stats.mean, 2)
        payload["benchmarks"][bench.name] = entry
    ratios = _measure_hit_ratios()
    payload["hit_ratios"] = {
        name: {
            "ratio": round(value, 4),
            "baseline": HIT_RATIO_BASELINE[name],
        }
        for name, value in ratios.items()
    }
    out = pathlib.Path(__file__).resolve().parent.parent / "BENCH_kernel.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")


@pytest.fixture(scope="session")
def scale():
    return current_scale()


class _SweepCache:
    """Lazy session cache: one pause sweep per source count.

    F1–F6, F9, T2 and F7 all derive from these simulations, mirroring
    how the paper's figures share one simulation campaign.
    """

    def __init__(self, scale):
        self.scale = scale
        self._cache = {}

    def get(self, sources: int):
        if sources not in self._cache:
            self._cache[sources] = run_figure_sweep(
                self.scale,
                "pause_time",
                self.scale.pause_values,
                PROTOCOL_SET,
                n_connections=sources,
            )
        return self._cache[sources]


@pytest.fixture(scope="session")
def sweep_cache(scale):
    return _SweepCache(scale)


@pytest.fixture(scope="session")
def pause_sweep(sweep_cache, scale):
    """The base mobility experiment: all protocols × pause values."""
    return sweep_cache.get(scale.source_counts[0])


def representative_cell(scale, **overrides):
    """One simulation at the figure's most loaded point — the unit whose
    cost pytest-benchmark reports for this figure."""
    from repro.analysis import base_config

    cfg = base_config(scale, **overrides)
    return lambda: run_scenario(cfg)


@pytest.fixture
def bench_cell(benchmark, scale):
    """Time one representative cell of the calling figure."""

    def _run(**overrides):
        fn = representative_cell(scale, **overrides)
        return benchmark.pedantic(fn, rounds=1, iterations=1)

    return _run
