"""Determinism guarantees of the engines.

Two layers keep two engines each, chosen by the MAC type and PHY
tracing: the batched PHY arrival engine vs the per-pair path, and the
shared DCF contention arena vs per-node contention. Both pairs must
produce bit-identical metrics for the same seed. The tests here select
the per-pair / per-node engine by patching ``Channel.enable_batched`` /
``Channel.enable_arena`` to refuse, and compare against the default.

The batch ``positions(t)`` evaluation must match every mobility
model's scalar ``position(t)``; the golden corpus (``tests/golden``)
pins whole-run results.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rng import RngStreams
from repro.mobility import (
    Field,
    GaussMarkov,
    ManhattanGrid,
    MobilityManager,
    RandomDirection,
    RandomWalk,
    RandomWaypoint,
    StaticPosition,
    make_groups,
)
from repro.phy.channel import Channel
from repro.scenario import ScenarioConfig, run_scenario

SMALL = dict(
    n_nodes=10,
    field_size=(600.0, 300.0),
    duration=15.0,
    n_connections=3,
    traffic_start_window=(0.0, 2.0),
)

MODEL_KINDS = [
    "waypoint",
    "walk",
    "direction",
    "gauss_markov",
    "manhattan",
    "rpgm",
    "static",
]


def per_pair_phy():
    """Run the per-pair arrival path (and so per-node contention too:
    the arena rides on the batched engine)."""
    return mock.patch.object(Channel, "enable_batched", lambda self: False)


def per_node_dcf():
    """Run per-node DCF contention on top of the batched PHY engine."""
    return mock.patch.object(Channel, "enable_arena", lambda self: False)


@pytest.mark.parametrize("protocol", ["aodv", "dsr", "dsdv", "cbrp", "paodv"])
def test_batched_phy_matches_legacy(protocol):
    """Full-scenario A/B: batched arrival engine vs per-pair, same seed.

    The batched engine resolves a transmission's whole fan-out in one
    vector pass and defers interference bookkeeping to frame end; the
    legacy path walks ``begin_arrival``/``end_arrival`` per receiver.
    Identical physics, different evaluation order — results must be
    bit-identical for every protocol.
    """
    cfg = ScenarioConfig(protocol=protocol, seed=7, **SMALL)

    fast = run_scenario(cfg)
    with per_pair_phy():
        legacy = run_scenario(cfg)

    # The patch actually flipped the engine.
    assert fast.perf["phy_batch_arrivals"] > 0
    assert fast.perf["phy_legacy_arrivals"] == 0
    assert legacy.perf["phy_batch_arrivals"] == 0
    assert legacy.perf["phy_legacy_arrivals"] > 0

    # Bit-identical results: whole summary and every per-flow delay.
    assert fast == legacy
    assert set(fast.flows) == set(legacy.flows)
    for fid, flow in fast.flows.items():
        assert flow.delays == legacy.flows[fid].delays


@pytest.mark.parametrize("protocol", ["aodv", "dsr", "dsdv", "cbrp", "paodv"])
def test_dcf_arena_matches_legacy(protocol):
    """Full-scenario A/B: contention arena vs per-node DCF, same seed.

    The arena moves DCF's waiting-state machine onto shared arrays, a
    coalescing timer wheel, and batched medium-edge verdicts; the
    per-node path keeps per-node timers and ``medium_changed``
    callbacks. Identical protocol, different dispatch machinery —
    results must be bit-identical everywhere.
    """
    cfg = ScenarioConfig(protocol=protocol, seed=7, **SMALL)

    fast = run_scenario(cfg)
    with per_node_dcf():
        legacy = run_scenario(cfg)

    # The patch actually flipped the engine: only the arena routes DCF
    # timers through the shared wheel.
    assert fast.perf["mac_timer_events"] > 0
    assert legacy.perf["mac_timer_events"] == 0

    # Bit-identical results: whole summary and every per-flow delay.
    assert fast == legacy
    assert set(fast.flows) == set(legacy.flows)
    for fid, flow in fast.flows.items():
        assert flow.delays == legacy.flows[fid].delays


def test_dcf_arena_vector_paths_match_legacy(monkeypatch):
    """The arena's NumPy paths (normally taken only above the scalar
    cutoff) must be bit-identical too: force the cutoff to zero so a
    10-node run exercises the vectorized busy-edge and end-of-frame
    passes on every fan-out."""
    from repro.mac import arena as arena_mod
    from repro.mac.arena import ContentionArena

    cfg = ScenarioConfig(protocol="aodv", seed=7, **SMALL)

    with per_node_dcf():
        legacy = run_scenario(cfg)
    monkeypatch.setattr(arena_mod, "_SCALAR_CUTOFF", 0)
    monkeypatch.setattr(ContentionArena, "scalar_cutoff", 0)
    vector = run_scenario(cfg)

    assert vector.perf["mac_timer_events"] > 0
    assert vector == legacy
    for fid, flow in vector.flows.items():
        assert flow.delays == legacy.flows[fid].delays


class TestFaultDeterminism:
    """Fault injection must not disturb the determinism contract."""

    def test_faulted_dcf_arena_matches_legacy(self):
        # Node crashes tear radios out of the air mid-reservation and
        # the fault hook filters fan-outs — the arena's wheel timers
        # and shared arrays must shrug all of it off bit-identically.
        from repro.faults.plan import FaultPlanConfig

        cfg = ScenarioConfig(
            seed=11,
            faults=FaultPlanConfig(churn_rate=0.04, mean_downtime=3.0,
                                   link_loss=0.08),
            **SMALL,
        )
        fast = run_scenario(cfg)
        with per_node_dcf():
            legacy = run_scenario(cfg)

        assert fast.fault_crashes > 0
        assert fast.perf["mac_timer_events"] > 0
        assert legacy.perf["mac_timer_events"] == 0
        assert fast == legacy
        for fid, flow in fast.flows.items():
            assert flow.delays == legacy.flows[fid].delays

    def test_faulted_batched_phy_matches_legacy(self):
        # The fault hook filters a fan-out *after* the geometry memo,
        # in deterministic target order, on both engines — so a faulted
        # run must stay bit-identical across the two PHY engines too.
        from repro.faults.plan import FaultPlanConfig

        cfg = ScenarioConfig(
            seed=11,
            faults=FaultPlanConfig(churn_rate=0.04, mean_downtime=3.0,
                                   link_loss=0.08),
            **SMALL,
        )
        fast = run_scenario(cfg)
        with per_pair_phy():
            legacy = run_scenario(cfg)

        assert fast.fault_crashes > 0
        assert fast.perf["phy_batch_arrivals"] > 0
        assert legacy.perf["phy_batch_arrivals"] == 0
        assert fast == legacy
        for fid, flow in fast.flows.items():
            assert flow.delays == legacy.flows[fid].delays

    def test_no_fault_config_is_bit_identical_with_zero_fault_fields(self):
        cfg = ScenarioConfig(seed=7, **SMALL)
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert a == b
        assert (a.fault_crashes, a.fault_packets_lost) == (0, 0)
        assert (a.fault_downtime, a.fault_recovery_latency) == (0.0, 0.0)

    def test_seeded_churn_identical_across_runs(self):
        from repro.faults.plan import FaultPlanConfig

        cfg = ScenarioConfig(
            seed=7,
            faults=FaultPlanConfig(churn_rate=0.03, mean_downtime=4.0,
                                   link_loss=0.05),
            **SMALL,
        )
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert a.fault_crashes > 0
        assert a == b
        for fid, flow in a.flows.items():
            assert flow.delays == b.flows[fid].delays

    def test_seeded_churn_identical_across_worker_counts(self, tmp_path):
        # A faulted sweep must not depend on how it is dispatched:
        # inline (1 process) and pooled (2 processes) executions of the
        # same configs produce identical summaries.
        from repro.faults.plan import FaultPlanConfig
        from repro.scenario import SweepExecutor

        plan = FaultPlanConfig(churn_rate=0.03, mean_downtime=4.0)
        configs = [
            ScenarioConfig(seed=s, faults=plan, **SMALL) for s in (3, 4)
        ]
        serial = SweepExecutor(processes=1, use_cache=False)
        pooled = SweepExecutor(processes=2, use_cache=False)
        try:
            inline = serial.run(configs)
            fanned = pooled.run(configs)
        finally:
            serial.close()
            pooled.close()
        assert inline == fanned
        for a, b in zip(inline, fanned):
            for fid, flow in a.flows.items():
                assert flow.delays == b.flows[fid].delays

    def test_fault_fields_survive_the_sweep_cache(self, tmp_path):
        from repro.faults.plan import FaultPlanConfig
        from repro.scenario import run_sweep

        base = ScenarioConfig(
            seed=9,
            faults=FaultPlanConfig(churn_rate=0.05, mean_downtime=3.0),
            **SMALL,
        )
        kwargs = dict(replications=1, processes=1, cache=True,
                      cache_dir=str(tmp_path))
        first = run_sweep(base, "pause_time", [0.0], ["aodv"], **kwargs)
        second = run_sweep(base, "pause_time", [0.0], ["aodv"], **kwargs)
        assert second.cache_hits == 1
        (a,), (b,) = first.raw.values(), second.raw.values()
        assert a == b
        assert a[0].fault_crashes > 0

    def test_plan_changes_the_cache_key(self):
        from repro.faults.plan import FaultPlanConfig
        from repro.scenario import config_cache_key

        base = ScenarioConfig(seed=7, **SMALL)
        faulted = base.with_(faults=FaultPlanConfig(link_loss=0.1))
        assert config_cache_key(base) != config_cache_key(faulted)


class TestObservabilityDeterminism:
    """Profiling and telemetry are read-only: results never change.

    The obs layer's contract is pay-for-what-you-use *and*
    see-but-don't-touch — a seeded run is bit-identical with spans and
    probes on or off, and a disabled config installs no hooks at all.
    """

    def test_disabled_obs_installs_no_hooks(self):
        from repro.scenario.build import build_scenario

        scenario = build_scenario(ScenarioConfig(seed=7, **SMALL))
        assert scenario.sim.profiler is None
        assert scenario.telemetry is None
        assert scenario.network.mobility.profiler is None
        assert scenario.network.channel.profiler is None

    def test_profiling_is_bit_identical(self):
        cfg = ScenarioConfig(seed=7, **SMALL)
        plain = run_scenario(cfg)
        profiled = run_scenario(cfg.with_(profile=True))
        # The profiler actually ran (spans recorded) ...
        assert profiled.profile and "event-loop" in profiled.profile
        assert not plain.profile
        # ... and never touched the simulation (profile/perf are
        # excluded from summary equality, so this is the full metric
        # surface plus every per-flow delay).
        assert plain == profiled
        for fid, flow in plain.flows.items():
            assert flow.delays == profiled.flows[fid].delays

    def test_telemetry_is_bit_identical(self):
        cfg = ScenarioConfig(seed=7, **SMALL)
        plain = run_scenario(cfg)
        probed = run_scenario(cfg.with_(telemetry_interval=1.0))
        assert probed.perf["telemetry_samples"] > 0
        assert plain == probed
        for fid, flow in plain.flows.items():
            assert flow.delays == probed.flows[fid].delays

    def test_profile_and_telemetry_together_bit_identical(self):
        cfg = ScenarioConfig(seed=7, **SMALL)
        plain = run_scenario(cfg)
        both = run_scenario(
            cfg.with_(profile=True, telemetry_interval=0.5)
        )
        assert plain == both

    def test_obs_fields_enter_the_cache_key(self):
        # Intentional: obs settings are part of the config's canonical
        # form, so sweeps with different observability never collide in
        # the result cache.
        from repro.scenario import config_cache_key

        base = ScenarioConfig(seed=7, **SMALL)
        assert config_cache_key(base) != config_cache_key(
            base.with_(profile=True)
        )
        assert config_cache_key(base) != config_cache_key(
            base.with_(telemetry_interval=2.0)
        )


@given(
    n_nodes=st.integers(min_value=5, max_value=14),
    seed=st.integers(min_value=0, max_value=2**20),
    protocol=st.sampled_from(["aodv", "dsdv", "dsr"]),
)
@settings(max_examples=10, deadline=None)
def test_batched_phy_property_random_topologies(n_nodes, seed, protocol):
    """Property: batched ≡ per-pair PHY on arbitrary small topologies.

    Hypothesis drives node count, seed, and protocol; every example
    must produce bit-identical summaries and per-flow delay lists
    across the two engines.
    """
    cfg = ScenarioConfig(
        protocol=protocol,
        n_nodes=n_nodes,
        field_size=(500.0, 300.0),
        duration=8.0,
        n_connections=min(3, n_nodes - 1),
        traffic_start_window=(0.0, 2.0),
        seed=seed,
    )
    fast = run_scenario(cfg)
    with per_pair_phy():
        legacy = run_scenario(cfg)

    assert fast.perf["phy_batch_arrivals"] > 0
    assert legacy.perf["phy_batch_arrivals"] == 0
    assert fast == legacy
    assert set(fast.flows) == set(legacy.flows)
    for fid, flow in fast.flows.items():
        assert flow.delays == legacy.flows[fid].delays


@given(
    n_nodes=st.integers(min_value=5, max_value=14),
    seed=st.integers(min_value=0, max_value=2**20),
    protocol=st.sampled_from(["aodv", "dsdv", "dsr"]),
)
@settings(max_examples=10, deadline=None)
def test_dcf_arena_property_random_topologies(n_nodes, seed, protocol):
    """Property: arena ≡ per-node DCF on arbitrary small topologies.

    Hypothesis drives node count, seed, and protocol; every example
    must produce bit-identical summaries and per-flow delay lists
    across the two contention engines.
    """
    cfg = ScenarioConfig(
        protocol=protocol,
        n_nodes=n_nodes,
        field_size=(500.0, 300.0),
        duration=8.0,
        n_connections=min(3, n_nodes - 1),
        traffic_start_window=(0.0, 2.0),
        seed=seed,
    )
    fast = run_scenario(cfg)
    with per_node_dcf():
        legacy = run_scenario(cfg)

    assert fast.perf["mac_timer_events"] > 0
    assert legacy.perf["mac_timer_events"] == 0
    assert fast == legacy
    assert set(fast.flows) == set(legacy.flows)
    for fid, flow in fast.flows.items():
        assert flow.delays == legacy.flows[fid].delays


def _build_models(kind: str, seed: int):
    """A fresh, deterministic model set of one mobility kind."""
    streams = RngStreams(seed)
    field = Field(500.0, 400.0)
    if kind == "rpgm":
        return make_groups(
            field, streams.stream, 6, n_groups=2,
            max_speed=15.0, pause_time=1.0, radius=50.0,
        )
    models = []
    for i in range(5):
        rng = streams.stream(f"m{i}")
        if kind == "waypoint":
            m = RandomWaypoint(field, rng, max_speed=15.0, pause_time=2.0)
        elif kind == "walk":
            m = RandomWalk(field, rng, max_speed=15.0)
        elif kind == "direction":
            m = RandomDirection(field, rng, max_speed=15.0, pause_time=1.0)
        elif kind == "gauss_markov":
            m = GaussMarkov(field, rng, mean_speed=8.0)
        elif kind == "manhattan":
            m = ManhattanGrid(field, rng, max_speed=15.0)
        else:
            m = StaticPosition(*field.random_point(rng))
        models.append(m)
    return models


@pytest.mark.parametrize("kind", MODEL_KINDS)
@given(ts=st.lists(
    st.floats(min_value=0.0, max_value=600.0, allow_nan=False),
    min_size=1, max_size=20,
))
@settings(max_examples=20, deadline=None)
def test_batch_positions_match_scalar(kind, ts):
    """Batch ``positions(t)`` ≡ per-model ``position(t)`` (≤ 1e-12)."""
    # Two identically-seeded model sets: one driven through the batch
    # manager, one queried directly, so RNG draw order stays aligned.
    mgr = MobilityManager(_build_models(kind, 11))
    ref = _build_models(kind, 11)
    for t in sorted(ts):
        pos = mgr.positions(t)
        for i, model in enumerate(ref):
            x, y = model.position(t)
            assert abs(pos[i, 0] - x) <= 1e-12
            assert abs(pos[i, 1] - y) <= 1e-12


# --------------------------------------------------------------- sharding
#
# The spatially sharded engine (repro.shard) must be invisible in the
# results: for island partitions (radio-disjoint clusters), any shard
# count produces a bit-identical MetricsSummary, including per-flow
# delay lists. These pins cover all five of the paper's protocols.

#: Paper-density clustered field: 4 radio-disjoint islands.
_SHARD_DENSITY = 50 / (1500.0 * 300.0)


def _island_cfg(protocol, n_nodes, seed, n_clusters=4, **over):
    strip = n_nodes / n_clusters / _SHARD_DENSITY / 300.0
    width = n_clusters * strip + (n_clusters - 1) * 700.0
    merged = dict(
        n_nodes=n_nodes,
        field_size=(width, 300.0),
        mobility="static",
        placement="clusters",
        n_clusters=n_clusters,
        cluster_gap=700.0,
        duration=15.0,
        n_connections=max(4, n_nodes // 10),
        traffic_start_window=(0.0, 4.0),
        seed=seed,
    )
    merged.update(over)
    return ScenarioConfig(protocol=protocol, **merged)


@pytest.mark.parametrize(
    "protocol", ["dsdv", "dsr", "aodv", "paodv", "cbrp"]
)
def test_sharded_matches_single_loop(protocol, monkeypatch):
    """4-shard island run ≡ single loop, all five paper protocols."""
    from repro.shard import run_sharded

    monkeypatch.setenv("MANETSIM_SHARD_STRICT", "1")
    cfg = _island_cfg(protocol, n_nodes=120, seed=13)
    single = run_scenario(cfg, shards=1)
    sharded = run_sharded(cfg, 4, exec_mode="inline")
    assert sharded == single
    assert set(sharded.flows) == set(single.flows)
    for fid, flow in sharded.flows.items():
        assert flow.delays == single.flows[fid].delays


def test_sharded_matches_single_loop_10k(monkeypatch):
    """The tentpole pin: a 10 000-node static field, 4 shards, bit-
    identical to the single event loop (process workers, merged
    records, per-shard uid blocks all exercised at full scale).

    One protocol always runs; MANETSIM_FULL=1 extends the pin to all
    five (DSDV's table broadcasts make the full matrix minutes-long).
    """
    import os

    from repro.shard import run_sharded

    monkeypatch.setenv("MANETSIM_SHARD_STRICT", "1")
    protocols = (
        ["dsdv", "dsr", "aodv", "paodv", "cbrp"]
        if os.environ.get("MANETSIM_FULL")
        else ["aodv"]
    )
    for protocol in protocols:
        cfg = _island_cfg(
            protocol, n_nodes=10_000, seed=11,
            duration=2.0, n_connections=40,
            traffic_start_window=(0.0, 1.0),
        )
        single = run_scenario(cfg, shards=1)
        sharded = run_scenario(cfg, shards=4)
        assert sharded == single, protocol
        for fid, flow in sharded.flows.items():
            assert flow.delays == single.flows[fid].delays


@given(
    n_nodes=st.integers(min_value=24, max_value=48),
    seed=st.integers(min_value=0, max_value=2**20),
    protocol=st.sampled_from(["dsdv", "dsr", "aodv", "paodv", "cbrp"]),
    n_shards=st.sampled_from([2, 4]),
)
@settings(max_examples=8, deadline=None)
def test_sharded_property_random_topologies(n_nodes, seed, protocol, n_shards):
    """Property: shard-count invariance on random clustered topologies.

    Hypothesis drives node count, seed, protocol, and shard count;
    every example must match the single loop bit-for-bit. The env knob
    is restored in a finally so a failing example cannot leak strict
    mode into later tests.
    """
    import os

    from repro.shard import run_sharded

    cfg = _island_cfg(
        protocol, n_nodes=n_nodes, seed=seed,
        duration=8.0, n_connections=3, traffic_start_window=(0.0, 2.0),
    )
    saved = os.environ.get("MANETSIM_SHARD_STRICT")
    os.environ["MANETSIM_SHARD_STRICT"] = "1"
    try:
        single = run_scenario(cfg, shards=1)
        sharded = run_sharded(cfg, n_shards, exec_mode="inline")
    finally:
        if saved is None:
            os.environ.pop("MANETSIM_SHARD_STRICT", None)
        else:
            os.environ["MANETSIM_SHARD_STRICT"] = saved

    assert sharded == single
    for fid, flow in sharded.flows.items():
        assert flow.delays == single.flows[fid].delays
