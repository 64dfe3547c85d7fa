"""Spatially sharded simulation engine.

Partitions a static field into N contiguous strips, runs one full
:class:`~repro.core.simulator.Simulator` per strip (owned nodes active,
the rest inert "ghosts" kept for geometry). Radio-disjoint strips
(island plans — the partitioner prefers cuts at axis gaps wider than
the carrier-sense reach) free-run in parallel and merge to a
:class:`~repro.stats.metrics.MetricsSummary` bit-identical to the
single event loop for any shard count. Radio-coupled fields run on the
single loop: a split could not be bit-identical, because cross-shard
backoff-slot ties would resolve differently (see
:mod:`repro.shard.engine`). See DESIGN.md "Sharded engine" for the
full safety argument.
"""

from .engine import ShardError, ShardUnsupported, run_sharded
from .partition import ShardPlan, make_plan

__all__ = [
    "ShardError",
    "ShardPlan",
    "ShardUnsupported",
    "make_plan",
    "run_sharded",
]
