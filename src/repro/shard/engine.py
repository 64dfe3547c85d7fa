"""The sharded runner: build-and-mute workers on island plans.

Every shard builds the *full* scenario from the shared seed — identical
RNG draws, identical geometry, every node object present — then
activates (routing timers, traffic sources) only the nodes its
:class:`~repro.shard.partition.ShardPlan` strip owns. The rest are
inert **ghosts**: they never transmit, never receive (ownership masking
at fan-out build time keeps them out of every delivery set), and their
stats stay zero, but their positions feed the channel geometry so
every shard computes bit-identical fan-outs.

Only **island** plans run sharded: the plan must prove the strips
radio-disjoint (:attr:`ShardPlan.island`), so no transmission can ever
cross a cut and each shard free-runs the whole duration independently
(one worker process per shard). The merged summary is **bit-identical**
to the single event loop (pinned in
``tests/scenario/test_determinism.py``): per-shard uid blocks keep
packet/frame uids globally unique, and delivery records merge back
into single-loop order (see :mod:`repro.stats.metrics`). An armed
border outbox stays attached as a tripwire — any transmission that
reaches a foreign shard is a partitioner bug and raises
:class:`ShardError`.

Radio-coupled fields raise :class:`ShardUnsupported` and
``run_scenario`` runs them on the single loop. Splitting them cannot be
bit-identical: 802.11 backoffs are slot-quantized, so independent
nodes' timers expire at exactly equal timestamps, and whether a
transmission at *t* freezes a rival's backoff expiring at the same *t*
depends on global event-seq order — state that lives only in the single
loop's one queue.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import traceback
from typing import Optional

import numpy as np

from ..core.errors import ConfigurationError, SimulationError
from ..core.rng import RngStreams
from ..phy.propagation import WAVELAN_914MHZ
from ..stats.metrics import MetricsSummary, merge_shard_partials
from .partition import ShardPlan, make_plan

__all__ = [
    "ShardError",
    "ShardUnsupported",
    "run_sharded",
]


class ShardError(SimulationError):
    """A sharded run failed (worker crash, protocol violation)."""


class ShardUnsupported(ShardError):
    """The config cannot run sharded; callers may fall back to the
    single loop (``run_scenario`` does unless ``MANETSIM_SHARD_STRICT=1``)."""


def _check_config(cfg) -> None:
    """Raise :class:`ShardUnsupported` for configs the engine can't split."""
    if cfg.mobility != "static":
        raise ShardUnsupported(
            "sharded runs require mobility='static' (node migration is "
            "behind a follow-up knob)"
        )
    if cfg.mac != "dcf":
        raise ShardUnsupported("sharded runs require mac='dcf' (batched PHY)")
    if cfg.faults is not None:
        raise ShardUnsupported("fault plans are not shard-aware yet")
    if cfg.trace:
        raise ShardUnsupported("tracing is per-loop; run it unsharded")
    if cfg.profile:
        raise ShardUnsupported("profiling is per-loop; run it unsharded")
    if cfg.telemetry_interval > 0:
        raise ShardUnsupported("telemetry probes are per-loop; run unsharded")


def _static_positions(cfg) -> np.ndarray:
    """Node positions at t=0, recovered without building a simulator.

    Placement draws come from the named per-node mobility streams,
    which depend only on ``(run_seed, name)`` — exactly what
    ``build_scenario`` consumes — so these match every worker's built
    geometry bit for bit.
    """
    from ..scenario.build import _make_mobility

    models = _make_mobility(cfg, RngStreams(cfg.run_seed))
    return np.asarray([m.position(0.0) for m in models], dtype=np.float64)


def _interaction_reach(cfg) -> float:
    """Maximum distance at which one node's frame touches another (m).

    Mirrors the channel's d² prefilter: carrier-sense range plus its
    0.1% float-safety slack.
    """
    from ..scenario.build import _make_propagation

    return WAVELAN_914MHZ.cs_range(_make_propagation(cfg)) * 1.001


# ----------------------------------------------------------------- worker


class _ShardWorker:
    """One shard: a fully built scenario with only owned nodes active."""

    def __init__(self, cfg, plan: ShardPlan, shard_id: int):
        self.shard_id = shard_id
        stream = os.environ.get("MANETSIM_STREAM_STATS") == "1"
        from ..scenario.build import build_scenario

        # Disjoint uid blocks per shard: delivery dedup keys on
        # origin_uid, and cross-shard packet copies preserve it.
        # flight_phy=False: PHY verdict tracing forces the per-pair
        # arrival engine, which shards cannot use; drop accounting and
        # routing/MAC trace events still work per shard.
        self.scenario = build_scenario(
            cfg, uid_base=shard_id << 48, record_times=not stream,
            flight_phy=False,
        )
        channel = self.scenario.network.channel
        if not channel._batched:
            raise ShardUnsupported(
                "batched arrival engine inactive (tracing or a "
                "non-batch-safe MAC)"
            )
        mask = np.zeros(cfg.n_nodes, dtype=bool)
        mask[plan.owned[shard_id]] = True
        self.owned_mask = mask
        self.outbox: list = []
        channel.configure_shard(mask, plan.owner, self.outbox)
        self.channel = channel
        self.sim = self.scenario.sim
        self.duration = cfg.duration

    def start(self) -> None:
        """Start routing agents and traffic sources of owned nodes only."""
        mask = self.owned_mask
        for node in self.scenario.network.nodes:
            if mask[node.node_id]:
                start = getattr(node.routing, "start", None)
                if start is not None:
                    start()
        for src in self.scenario.sources:
            if mask[src.node.node_id]:
                src.begin()

    def run(self):
        """Free-run the whole duration; export ``(partial, perf)``."""
        self.start()
        self.sim.run(until=self.duration)
        if self.outbox:
            # Island plans must never produce a border message: one
            # here means a transmission escaped its shard.
            raise ShardError(
                f"shard {self.shard_id}: {len(self.outbox)} undelivered "
                f"border message(s) at finish — partition violated "
                f"(first at t={self.outbox[0][0]:.6f} from node "
                f"{self.outbox[0][1]})"
            )
        sc = self.scenario
        self.channel.flush_phy_stats()
        if self.sim.flight is not None:
            # Residual scan before export so the shard's conservation
            # partial accounts for still-queued packets.
            self.sim.flight.scan_residuals(sc.network.nodes)
        return sc.collector.partial(sc.network), self.sim.perf.as_dict()


# ---------------------------------------------------------------- drivers


def _run_inline(cfg, plan: ShardPlan) -> list:
    # One process: run shards one at a time to completion — bounds
    # peak memory at a single build.
    return [_ShardWorker(cfg, plan, s).run() for s in range(plan.n_shards)]


# ------------------------------------------------------------- processes


def _shard_child(conn, cfg, plan, shard_id) -> None:
    """Worker-process main: build, free-run, send ``(partial, perf)``."""
    try:
        conn.send(("ok", _ShardWorker(cfg, plan, shard_id).run()))
    except BaseException:
        try:
            conn.send(("err", traceback.format_exc()))
        except OSError:  # parent already gone
            pass
    finally:
        conn.close()


class _ProcessHandle:
    """Driver-facing adapter over a worker process (Pipe RPC)."""

    def __init__(self, ctx, cfg, plan, shard_id):
        self.shard_id = shard_id
        self.conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(
            target=_shard_child, args=(child_conn, cfg, plan, shard_id),
            daemon=True,
        )
        self.proc.start()
        child_conn.close()

    def collect(self):
        try:
            status, payload = self.conn.recv()
        except EOFError:
            raise ShardError(
                f"shard {self.shard_id} worker died "
                f"(exitcode {self.proc.exitcode})"
            )
        if status != "ok":
            raise ShardError(f"shard {self.shard_id} failed:\n{payload}")
        self.proc.join()
        self.conn.close()
        return payload

    def kill(self) -> None:
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join()


def _run_process(cfg, plan: ShardPlan) -> list:
    ctx = mp.get_context()
    handles = [
        _ProcessHandle(ctx, cfg, plan, s) for s in range(plan.n_shards)
    ]
    try:
        # Every shard free-runs concurrently — the parallel payoff.
        return [h.collect() for h in handles]
    finally:
        for h in handles:
            h.kill()


# -------------------------------------------------------------- frontend


def run_sharded(
    cfg, n_shards: int, exec_mode: Optional[str] = None
) -> MetricsSummary:
    """Run *cfg* split across *n_shards* spatial shards.

    ``exec_mode`` (default from ``MANETSIM_SHARD_EXEC``, then "auto"):

    * ``"process"`` — one worker process per shard.
    * ``"inline"`` — the shards one after another in this process (no
      parallelism; useful for determinism testing).
    * ``"auto"`` — same as "process".

    Raises :class:`ShardUnsupported` for configs the engine cannot
    split (non-static mobility, faults, tracing, profiling, telemetry,
    non-DCF MACs, radio-coupled fields).
    """
    if n_shards < 2:
        raise ShardError(f"run_sharded needs n_shards >= 2, got {n_shards}")
    _check_config(cfg)
    positions = _static_positions(cfg)
    reach = _interaction_reach(cfg)
    try:
        plan = make_plan(positions, n_shards, reach, cfg.field_size)
    except ConfigurationError as exc:
        raise ShardUnsupported(str(exc)) from exc
    if not plan.island:
        raise ShardUnsupported(
            f"no {n_shards}-way radio-disjoint split exists (closest "
            f"cross-shard pair {plan.min_cross_gap:.1f} m <= reach "
            f"{plan.reach:.1f} m): cross-shard backoff-slot ties would "
            f"resolve differently from the single loop, so coupled "
            f"fields run on the single loop"
        )
    mode = exec_mode or os.environ.get("MANETSIM_SHARD_EXEC") or "auto"
    if mode not in ("auto", "inline", "process"):
        raise ShardError(
            f"MANETSIM_SHARD_EXEC must be auto|inline|process, got {mode!r}"
        )
    results = (
        _run_inline(cfg, plan) if mode == "inline" else
        _run_process(cfg, plan)
    )
    partials = [r[0] for r in results]
    summary = merge_shard_partials(cfg.protocol, cfg.duration, partials)
    # Fleet-wide perf totals: sum the per-shard counter snapshots so
    # `repro run --perf` and the bench ratio gates see the whole fleet.
    merged_perf: dict = {}
    for _, perf in results:
        for key, value in perf.items():
            merged_perf[key] = merged_perf.get(key, 0) + value
    summary.perf = merged_perf
    return summary
