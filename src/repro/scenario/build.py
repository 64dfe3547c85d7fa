"""Scenario assembly: config → (simulator, network, traffic, collector)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.errors import ConfigurationError
from ..core.simulator import Simulator
from ..faults.manager import FaultManager
from ..mac.dcf import DcfMac
from ..mac.ideal import IdealMac
from ..mobility import (
    Field,
    GaussMarkov,
    ManhattanGrid,
    RandomDirection,
    RandomWalk,
    RandomWaypoint,
    StaticPosition,
    make_groups,
)
from ..net.stack import Network, build_network
from ..phy.propagation import (
    WAVELAN_914MHZ,
    FreeSpace,
    LogDistance,
    TwoRayGround,
    UnitDisk,
)
from ..routing import (
    Aodv,
    Cbrp,
    Dsdv,
    Dsr,
    Flooding,
    Olsr,
    OracleRouting,
    Paodv,
    default_preempt_threshold,
)
from ..stats.metrics import MetricsCollector
from ..traffic import CbrSource, OnOffSource, generate_connections
from .config import ScenarioConfig

__all__ = ["Scenario", "build_scenario"]

#: Protocols that benefit from promiscuous (overhearing) MACs.
_PROMISCUOUS = {"dsr"}


@dataclass
class Scenario:
    """A fully wired simulation ready to run."""

    config: ScenarioConfig
    sim: Simulator
    network: Network
    sources: List
    collector: MetricsCollector
    #: Present only when the config carries a fault plan.
    faults: Optional[FaultManager] = None
    #: Present only when ``config.telemetry_interval > 0``.
    telemetry: Optional["TelemetryRecorder"] = None

    def run(self):
        """Execute to ``config.duration`` and return the metrics summary."""
        self.network.start_routing()
        for src in self.sources:
            src.begin()
        if self.faults is not None:
            self.faults.start()
        if self.telemetry is not None:
            self.telemetry.start()
        self.sim.run(until=self.config.duration)
        # Batched-engine stat deltas live in ledger arrays until read
        # time; fold them into RadioStats before any consumer looks.
        self.network.channel.flush_phy_stats()
        summary = self.collector.finish(self.network, self.config.duration)
        if self.faults is not None:
            self.faults.apply(summary, self.config.duration)
        summary.perf = self.sim.perf.as_dict()
        if self.sim.profiler is not None:
            summary.profile = self.sim.profiler.as_dict()
        flight = self.sim.flight
        if flight is not None:
            flight.scan_residuals(self.network.nodes)
            summary.flight = flight.summary_dict()
        return summary


def _make_propagation(cfg: ScenarioConfig):
    if cfg.propagation == "tworay":
        return TwoRayGround()
    if cfg.propagation == "freespace":
        return FreeSpace()
    if cfg.propagation == "logdistance":
        return LogDistance()
    return UnitDisk(cfg.radio_range)


def _cluster_point(cfg: ScenarioConfig, field: Field, i: int, x: float, y: float):
    """Remap a uniform draw into node *i*'s cluster strip.

    Pure function of the draw: the sharded engine recomputes placement
    from the same per-node streams, so the mapping must not consume
    extra randomness. Strips run along the longer field axis; node ids
    are assigned to clusters in contiguous blocks.
    """
    k = cfg.n_clusters
    gap = cfg.cluster_gap
    w, h = field.width, field.height
    span = w if w >= h else h
    strip = (span - (k - 1) * gap) / k
    if strip <= 0:
        raise ConfigurationError(
            f"{k} clusters with {gap} m gaps do not fit in a "
            f"{span} m field axis"
        )
    c = i * k // cfg.n_nodes
    if w >= h:
        return c * (strip + gap) + (x / w) * strip, y
    return x, c * (strip + gap) + (y / h) * strip


def _make_mobility(cfg: ScenarioConfig, streams: "RngStreams"):
    """Per-node mobility models from named RNG streams.

    *streams* is normally ``sim.rng``; the sharded engine passes a
    fresh :class:`~repro.core.rng.RngStreams` with the same root seed
    to recover node positions without building a simulator.
    """
    field = Field(*cfg.field_size)
    if cfg.mobility == "rpgm":
        return make_groups(
            field,
            streams.stream,
            cfg.n_nodes,
            n_groups=min(cfg.rpgm_groups, cfg.n_nodes),
            max_speed=cfg.max_speed,
            pause_time=cfg.pause_time,
            radius=cfg.rpgm_radius,
        )
    models = []
    for i in range(cfg.n_nodes):
        rng = streams.stream(f"mobility.{i}")
        if cfg.mobility == "waypoint":
            m = RandomWaypoint(
                field,
                rng,
                max_speed=cfg.max_speed,
                min_speed=cfg.min_speed,
                pause_time=cfg.pause_time,
            )
        elif cfg.mobility == "walk":
            m = RandomWalk(field, rng, max_speed=cfg.max_speed, min_speed=cfg.min_speed)
        elif cfg.mobility == "direction":
            m = RandomDirection(
                field,
                rng,
                max_speed=cfg.max_speed,
                min_speed=cfg.min_speed,
                pause_time=cfg.pause_time,
            )
        elif cfg.mobility == "gauss_markov":
            m = GaussMarkov(field, rng, mean_speed=max(cfg.max_speed / 2.0, 0.5))
        elif cfg.mobility == "manhattan":
            m = ManhattanGrid(field, rng, max_speed=cfg.max_speed, min_speed=cfg.min_speed)
        else:  # static
            x, y = field.random_point(rng)
            if cfg.placement == "clusters":
                x, y = _cluster_point(cfg, field, i, x, y)
            m = StaticPosition(x, y)
        models.append(m)
    return models


def _routing_factory(cfg: ScenarioConfig, propagation, params):
    name = cfg.protocol

    if name == "dsdv":
        return lambda sim, nid, mac, rng: Dsdv(sim, nid, mac, rng)
    if name == "dsr":
        return lambda sim, nid, mac, rng: Dsr(
            sim,
            nid,
            mac,
            rng,
            reply_from_cache=cfg.dsr_reply_from_cache,
            cache_kind=cfg.dsr_cache,
        )
    if name == "aodv":
        return lambda sim, nid, mac, rng: Aodv(
            sim,
            nid,
            mac,
            rng,
            hello_interval=cfg.hello_interval,
            local_repair=cfg.aodv_local_repair,
        )
    if name == "paodv":
        threshold = default_preempt_threshold(propagation, params, cfg.preempt_ratio)
        return lambda sim, nid, mac, rng: Paodv(
            sim,
            nid,
            mac,
            rng,
            preempt_threshold=threshold,
            hello_interval=cfg.hello_interval,
            local_repair=cfg.aodv_local_repair,
        )
    if name == "cbrp":
        return lambda sim, nid, mac, rng: Cbrp(
            sim, nid, mac, rng, prune_flood=cfg.cbrp_prune_flood
        )
    if name == "olsr":
        return lambda sim, nid, mac, rng: Olsr(sim, nid, mac, rng, use_mpr=cfg.olsr_use_mpr)
    if name == "flooding":
        return lambda sim, nid, mac, rng: Flooding(sim, nid, mac, rng)
    # oracle: mobility wired post-build (needs the manager)
    return lambda sim, nid, mac, rng: OracleRouting(
        sim, nid, mac, rng, radio_range=cfg.radio_range
    )


def _mac_factory(cfg: ScenarioConfig):
    promiscuous = cfg.protocol in _PROMISCUOUS
    if cfg.mac == "ideal":
        return lambda sim, radio, rng: IdealMac(sim, radio, ifq_capacity=cfg.ifq_capacity)
    return lambda sim, radio, rng: DcfMac(
        sim,
        radio,
        rng,
        ifq_capacity=cfg.ifq_capacity,
        use_rtscts=cfg.use_rtscts,
        promiscuous=promiscuous,
    )


def build_scenario(
    cfg: ScenarioConfig,
    uid_base: int = 0,
    record_times: bool = False,
    flight_phy: bool = True,
) -> Scenario:
    """Wire up every layer for *cfg* (deterministic in ``cfg.run_seed``).

    ``uid_base`` offsets the packet/frame uid counters (the sharded
    engine gives each shard a disjoint block); ``record_times``
    additionally records per-delivery arrival timestamps so shard
    partials can be merged in single-loop delivery order.

    ``flight_phy`` allows a ``cfg.flight_trace`` run to record PHY
    arrival verdicts, which forces the per-pair arrival engine; the
    sharded engine passes False (it requires the batched engine) and
    records the routing/MAC/queue legs of each flight only.

    The MAC type and PHY tracing choose the engines: DCF runs use the
    batched arrival engine and the shared DCF contention arena;
    ``IdealMac`` and PHY-traced runs use the per-pair arrival path and
    per-node contention.
    """
    import os

    from ..core.trace import Tracer
    from ..mac.frames import reset_frame_uids
    from ..net.packet import PACKET_POOL, reset_packet_uids

    # Persistent sweep workers reuse one process for many runs: rewind
    # the uid sources so cached and fresh runs see identical sequences,
    # and re-arm the packet pool for this run (no cross-run sharing).
    reset_packet_uids(uid_base)
    reset_frame_uids(uid_base)
    PACKET_POOL.clear()
    tracer = Tracer(cfg.trace) if cfg.trace else None
    sim = Simulator(seed=cfg.run_seed, tracer=tracer)
    if cfg.profile:
        # Attached before the stack builds so every layer that caches
        # sim.profiler (channel, mobility manager) picks it up.
        from ..obs.profiler import Profiler

        sim.profiler = Profiler()
    PACKET_POOL.perf = sim.perf
    if cfg.flight or cfg.flight_trace or os.environ.get("MANETSIM_FLIGHT") == "1":
        # Attached before the stack builds: radios freeze their PHY
        # trace hook at construction, and the batched-engine decision
        # below consults trace_phy.
        from ..obs.flight import FlightRecorder

        sim.flight = FlightRecorder(
            sim,
            trace=cfg.flight_trace,
            trace_phy=flight_phy,
            sample=int(os.environ.get("MANETSIM_TRACE_SAMPLE", "1") or "1"),
        )
    propagation = _make_propagation(cfg)
    params = WAVELAN_914MHZ
    models = _make_mobility(cfg, sim.rng)
    network = build_network(
        sim,
        models,
        routing_factory=_routing_factory(cfg, propagation, params),
        mac_factory=_mac_factory(cfg),
        propagation=propagation,
        radio_params=params,
        position_quantum=cfg.position_quantum,
        batched_phy=(
            cfg.mac == "dcf"
            and not (sim.flight is not None and sim.flight.trace_phy)
        ),
    )
    if cfg.protocol == "oracle":
        for node in network.nodes:
            node.routing.mobility = network.mobility
    if sim.flight is not None:
        # Send buffers are built inside the routing agents (which have
        # no sim handle at drop time); wire the recorder + owner address
        # onto each one here. IFQs are wired by MacLayer.__init__.
        for node in network.nodes:
            buf = getattr(node.routing, "buffer", None)
            if buf is not None:
                buf.flight = sim.flight
                buf.addr = node.node_id

    collector = MetricsCollector(
        cfg.protocol,
        measure_from=cfg.measure_from,
        record_times=record_times,
        stream=os.environ.get("MANETSIM_STREAM_STATS") == "1",
    )
    collector.flight = sim.flight
    collector.attach(network)

    connections = generate_connections(
        cfg.n_nodes,
        cfg.n_connections,
        sim.rng.stream("traffic.pattern"),
        start_window=cfg.traffic_start_window,
    )
    faults = None
    if cfg.faults is not None:
        faults = FaultManager(sim, network, cfg.faults, cfg.duration)

    telemetry = None
    if cfg.telemetry_interval > 0:
        from ..obs.telemetry import TelemetryRecorder

        telemetry = TelemetryRecorder(
            sim, network, cfg.telemetry_interval, faults=faults
        )

    sources = []
    for conn in connections:
        collector.flow(conn.flow_id, conn.src, conn.dst)
        if cfg.traffic_model == "onoff":
            src = OnOffSource(
                sim,
                network.nodes[conn.src],
                conn.dst,
                rate=cfg.rate,
                size=cfg.packet_size,
                flow_id=conn.flow_id,
                rng=sim.rng.stream(f"traffic.{conn.flow_id}"),
                start=conn.start,
                stop=cfg.duration,
                on_send=collector.on_send,
            )
        else:
            src = CbrSource(
                sim,
                network.nodes[conn.src],
                conn.dst,
                rate=cfg.rate,
                size=cfg.packet_size,
                flow_id=conn.flow_id,
                start=conn.start,
                stop=cfg.duration,
                rng=sim.rng.stream(f"traffic.{conn.flow_id}"),
                on_send=collector.on_send,
            )
        sources.append(src)
    return Scenario(cfg, sim, network, sources, collector, faults, telemetry)
