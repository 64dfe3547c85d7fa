"""Static-field partitioning for the sharded engine.

The partitioner slices the field into ``n_shards`` contiguous strips
along the longer axis, balanced by *node count*. Cut placement prefers
**island cuts**: gaps between consecutive sorted strip coordinates
wider than the interaction radius (*reach* = carrier-sense range + the
channel's float-safety slack). An axis gap wider than *reach* bounds
the Euclidean distance of every straddling pair below by the gap, so
no transmission can ever cross such a cut — the shards are
radio-disjoint *islands* that free-run with zero synchronization, the
only partitioning for which the sharded engine is bit-identical to the
single event loop (see ``repro.shard.engine`` for why coupled cuts
cannot be). When there are not enough island gaps, the partitioner
falls back to equal-count cuts at coordinate midpoints, producing a
*coupled* plan, which the engine refuses (such fields run on the single
loop).

Two derived facts drive the shard driver:

* **Border bands** — per shard, the owned nodes lying within *reach*
  of a cut. Only these nodes can ever appear in a cross-shard
  fan-out; the island check below compares band against band.
* **Island verification** — the minimum distance between any
  cross-shard node pair, computed honestly from positions (never
  assumed from cut placement). When it exceeds *reach*, the plan is an
  island plan. A pair in shards ``i < j`` straddles cut ``i``, and
  being within *reach* of each other puts both inside the cut's band,
  so checking band-vs-band per cut covers every cross-shard pair
  (including non-adjacent shards when strips are thinner than the
  reach).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..core.errors import ConfigurationError

__all__ = ["ShardPlan", "make_plan"]


@dataclass(frozen=True)
class ShardPlan:
    """One partitioning of a static node set."""

    n_shards: int
    #: Strip axis: 0 = x (wide field), 1 = y (tall field).
    axis: int
    #: ``n_shards - 1`` cut coordinates along the axis, ascending.
    cuts: Tuple[float, ...]
    #: node id -> owning shard id.
    owner: np.ndarray
    #: Per shard: sorted array of owned node ids.
    owned: Tuple[np.ndarray, ...]
    #: Interaction radius the plan was built for (m).
    reach: float
    #: Per shard: owned node ids within *reach* of an adjacent cut.
    border: Tuple[np.ndarray, ...]
    #: Minimum distance between any cross-shard node pair (inf when no
    #: pair has axis separation within reach).
    min_cross_gap: float

    @property
    def island(self) -> bool:
        """Shards are radio-disjoint: no transmission can cross a cut."""
        return self.min_cross_gap > self.reach

    def sizes(self) -> Tuple[int, ...]:
        return tuple(len(o) for o in self.owned)


def make_plan(
    positions: np.ndarray, n_shards: int, reach: float,
    field_size: Tuple[float, float],
) -> ShardPlan:
    """Partition *positions* (an ``(N, 2)`` array) into *n_shards* strips.

    *reach* is the interaction radius: the maximum distance at which
    one node's transmission is detectable by another (carrier-sense
    range including the channel's d² prefilter slack).
    """
    n = len(positions)
    if n_shards < 1:
        raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
    if n < 2 * n_shards:
        raise ConfigurationError(
            f"{n} nodes cannot fill {n_shards} shards (need >= 2 per shard)"
        )
    if reach <= 0:
        raise ConfigurationError(f"reach must be > 0, got {reach}")
    axis = 0 if field_size[0] >= field_size[1] else 1
    coord = positions[:, axis]
    order = np.argsort(coord, kind="stable")
    csorted = coord[order]
    # Candidate island cuts: sorted-coordinate gaps wider than reach.
    # `bounds[i]` nodes lie left of gap i.
    bounds = (np.nonzero(np.diff(csorted) > reach)[0] + 1).tolist()
    cut_bounds: list = []
    if len(bounds) >= n_shards - 1:
        # Enough gaps for an island plan: pick the gap nearest each
        # count quantile, strictly increasing, reserving one gap for
        # every cut still to place.
        lo = 0
        for k in range(1, n_shards):
            hi = len(bounds) - (n_shards - 1 - k)
            target = k * n / n_shards
            best = min(
                range(lo, hi),
                key=lambda i: (abs(bounds[i] - target), i),
            )
            cut_bounds.append(bounds[best])
            lo = best + 1
    else:
        # Coupled fallback: balanced equal-count cuts.
        cut_bounds = [round(k * n / n_shards) for k in range(1, n_shards)]
    cuts = [0.5 * (csorted[b - 1] + csorted[b]) for b in cut_bounds]
    cuts_arr = np.asarray(cuts, dtype=np.float64)
    owner = np.searchsorted(cuts_arr, coord, side="right").astype(np.intp)
    owned = tuple(
        np.nonzero(owner == s)[0] for s in range(n_shards)
    )
    for s, ids in enumerate(owned):
        if ids.shape[0] == 0:
            raise ConfigurationError(
                f"shard {s} is empty (duplicate coordinates at a cut?)"
            )

    border = []
    for s in range(n_shards):
        ids = owned[s]
        near = np.zeros(ids.shape[0], dtype=bool)
        if s > 0:
            near |= np.abs(coord[ids] - cuts[s - 1]) <= reach
        if s < n_shards - 1:
            near |= np.abs(coord[ids] - cuts[s]) <= reach
        border.append(ids[near])

    # Minimum cross-shard pair distance, per cut: every cross-shard
    # pair within reach straddles some cut with both members inside
    # its band (see module docstring), so band-vs-band per cut is a
    # complete check.
    min_gap = np.inf
    for k, c in enumerate(cuts):
        left = np.nonzero((owner <= k) & (coord > c - reach))[0]
        right = np.nonzero((owner > k) & (coord < c + reach))[0]
        if left.shape[0] == 0 or right.shape[0] == 0:
            continue
        dx = positions[left, 0][:, None] - positions[right, 0][None, :]
        dy = positions[left, 1][:, None] - positions[right, 1][None, :]
        d = np.sqrt(np.min(dx * dx + dy * dy))
        if d < min_gap:
            min_gap = float(d)

    return ShardPlan(
        n_shards=n_shards,
        axis=axis,
        cuts=tuple(float(c) for c in cuts),
        owner=owner,
        owned=owned,
        reach=reach,
        border=tuple(border),
        min_cross_gap=min_gap,
    )
