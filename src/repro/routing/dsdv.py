"""DSDV — Destination-Sequenced Distance Vector (Perkins & Bhagwat '94).

The proactive contender in the paper. Every node keeps a route to every
known destination and advertises its whole table periodically; each
destination stamps its advertisements with an even sequence number it
alone increments, and a route is replaced only by one with a newer
sequence number, or an equal sequence number and a shorter metric.
Broken links are advertised with metric ∞ and an *odd* sequence number
(the next odd after the route's last known even one) so the breakage
propagates until the destination's next genuine update overrides it.

Simplifications vs the full protocol, documented in DESIGN.md: the
weighted-settling-time damping of advertisements is replaced by plain
triggered incremental updates (changed routes are advertised after a
small jitter), and updates are not split across multiple NPDUs — an
update carries as many entries as needed.

Why DSDV collapses under mobility (the paper's headline): between a
link break and the arrival of the repaired route's next update, data
keeps flowing into the stale/invalidated route and is dropped — there
is no discovery to fall back on.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..core.drops import DropReason
from ..net.packet import BROADCAST, Packet
from .base import RoutingProtocol

__all__ = ["Dsdv", "DsdvRoute"]

INFINITY = math.inf

#: Bytes per advertised (destination, metric, sequence) triple.
ENTRY_SIZE = 12
#: Fixed update-message header bytes.
HEADER_SIZE = 8


class DsdvRoute:
    """One routing-table entry.

    A ``__slots__`` class rather than a dataclass: route fields are read
    per advert entry on the hottest control-plane path, and slot access
    is measurably cheaper than dataclass instance-dict access.
    """

    __slots__ = ("dst", "next_hop", "metric", "seq", "changed")

    def __init__(
        self,
        dst: int,
        next_hop: int,
        metric: float,
        seq: int,
        changed: bool = False,
    ):
        self.dst = dst
        self.next_hop = next_hop
        self.metric = metric
        self.seq = seq
        self.changed = changed

    @property
    def valid(self) -> bool:
        return self.metric < INFINITY

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DsdvRoute):
            return NotImplemented
        return (
            self.dst == other.dst
            and self.next_hop == other.next_hop
            and self.metric == other.metric
            and self.seq == other.seq
            and self.changed == other.changed
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DsdvRoute(dst={self.dst}, next_hop={self.next_hop}, "
            f"metric={self.metric}, seq={self.seq}, changed={self.changed})"
        )


class _Advert:
    """Payload of a DSDV update packet: (dst, metric, seq) triples."""

    __slots__ = ("entries", "_np")

    def __init__(self, entries: List[Tuple[int, float, int]]):
        self.entries = entries
        # Column arrays for the vectorized stale-entry prefilter, built
        # lazily by the first receiver and shared by every other radio
        # that decodes this same broadcast.
        self._np = None

    def arrays(self):
        """``(dst, metric+1, seq, max_dst)`` column views of ``entries``."""
        arrs = self._np
        if arrs is None:
            e = self.entries
            n = len(e)
            dst = np.fromiter((t[0] for t in e), dtype=np.intp, count=n)
            met1 = np.fromiter((t[1] for t in e), dtype=np.float64, count=n)
            met1 += 1.0
            seq = np.fromiter((t[2] for t in e), dtype=np.int64, count=n)
            arrs = (dst, met1, seq, int(dst.max()) if n else -1)
            self._np = arrs
        return arrs


class Dsdv(RoutingProtocol):
    """DSDV routing agent.

    Parameters
    ----------
    update_interval:
        Period of full-table dumps (ns-2 default 15 s).
    trigger_delay:
        Jitter bound before a triggered (incremental) update fires.
    """

    NAME = "dsdv"

    def __init__(
        self,
        sim,
        node_id,
        mac,
        rng,
        update_interval: float = 15.0,
        trigger_delay: float = 1.0,
    ):
        super().__init__(sim, node_id, mac, rng)
        self.update_interval = update_interval
        self.trigger_delay = trigger_delay
        self.table: Dict[int, DsdvRoute] = {}
        #: Own even sequence number, bumped at every advertisement.
        self.seq = 0
        self._trigger_pending = False
        # Mirrors of the table: the serialized advert triples
        # in table (insertion) order, a dst -> index map into them, and
        # the set of dsts with a pending changed flag. Dumps then reuse
        # the serialized list instead of re-walking the route objects.
        self._entries: List[Tuple[int, float, int]] = []
        self._epos: Dict[int, int] = {}
        self._changed: Set[int] = set()
        # Flat per-destination arrays indexed by node id (-1 = no
        # route). Advert processing is dominated by stale entries, and
        # rejecting them on a C-level list index beats a dict probe
        # plus route-object attribute loads.
        self._seq_by_dst: List[int] = []
        self._metric_by_dst: List[float] = []
        # Numpy twins of the flat arrays (sentinel-padded to capacity)
        # so a whole advert can be pre-rejected in one vector pass.
        # They may lag the lists only in the harmless direction (older
        # seq => false keep); survivors re-run the scalar prefilter.
        self._seq_np = np.full(0, -1, dtype=np.int64)
        self._met_np = np.full(0, INFINITY, dtype=np.float64)

    def _grow_np(self, need: int) -> None:
        """Grow the numpy prefilter twins to at least *need* slots."""
        cap = max(need, 2 * len(self._seq_np), 64)
        seq_np = np.full(cap, -1, dtype=np.int64)
        met_np = np.full(cap, INFINITY, dtype=np.float64)
        n = len(self._seq_np)
        seq_np[:n] = self._seq_np
        met_np[:n] = self._met_np
        self._seq_np = seq_np
        self._met_np = met_np

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        # Desynchronize nodes' periodic dumps.
        delay = float(self.rng.uniform(0.0, self.update_interval))
        self.sim.schedule(delay, self._periodic_update)

    # ------------------------------------------------------------- updates

    def _periodic_update(self) -> None:
        self._broadcast_update(full=True)
        self.sim.schedule(self.update_interval, self._periodic_update)

    def _schedule_trigger(self) -> None:
        if self._trigger_pending:
            return
        self._trigger_pending = True
        delay = float(self.rng.uniform(0.0, self.trigger_delay))
        self.sim.schedule(delay, self._fire_trigger)

    def _fire_trigger(self) -> None:
        self._trigger_pending = False
        self._broadcast_update(full=False)

    def _resync(self) -> None:
        """Rebuild the serialized mirrors from ``table`` (tests poke it)."""
        entries: List[Tuple[int, float, int]] = []
        epos: Dict[int, int] = {}
        changed: Set[int] = set()
        size = max(self.table, default=-1) + 1
        seq_l = [-1] * size
        met_l = [INFINITY] * size
        for dst, route in self.table.items():
            epos[dst] = len(entries)
            entries.append((dst, route.metric, route.seq))
            seq_l[dst] = route.seq
            met_l[dst] = route.metric
            if route.changed:
                changed.add(dst)
        self._entries = entries
        self._epos = epos
        self._changed = changed
        self._seq_by_dst = seq_l
        self._metric_by_dst = met_l
        if size > len(self._seq_np):
            self._grow_np(size)
        self._seq_np[:] = -1
        self._met_np[:] = INFINITY
        if size:
            self._seq_np[:size] = seq_l
            self._met_np[:size] = met_l

    def _clear_changed(self) -> None:
        table = self.table
        for dst in self._changed:
            table[dst].changed = False
        self._changed.clear()

    def _broadcast_update(self, full: bool) -> None:
        if len(self._entries) != len(self.table):
            self._resync()
        self.seq += 2
        if full:
            entries = [(self.addr, 0.0, self.seq)]
            entries += self._entries
            if self._changed:
                self._clear_changed()
        else:
            if not self._changed:
                if self.sim.now > 0:
                    # Nothing actually changed; suppress a pure
                    # self-advert trigger (the periodic dump carries it).
                    return
                entries = [(self.addr, 0.0, self.seq)]
            else:
                entries = [(self.addr, 0.0, self.seq)]
                all_entries = self._entries
                epos = self._epos
                for i in sorted(epos[d] for d in self._changed):
                    entries.append(all_entries[i])
                self._clear_changed()
        size = HEADER_SIZE + ENTRY_SIZE * len(entries)
        pkt = self.make_control(_Advert(entries), size)
        self.send_control(pkt, BROADCAST)

    # -------------------------------------------------------------- receive

    def on_control(self, packet: Packet, prev_hop: int, rx_power: float) -> None:
        # Hot path: a 100-node run processes tens of thousands of
        # adverts with ~N entries each. Local bindings and slot access
        # keep the per-entry cost down; the serialized mirrors are
        # updated in place so dumps need not re-walk the table.
        advert: _Advert = packet.payload
        table = self.table
        if len(self._entries) != len(table):
            self._resync()
        table_get = table.get
        entries_l = self._entries
        epos = self._epos
        epos_get = epos.get
        changed_set = self._changed
        seq_l = self._seq_by_dst
        met_l = self._metric_by_dst
        n_flat = len(seq_l)
        addr = self.addr
        changed_any = False
        todo = advert.entries
        if len(todo) >= 16:
            # Vector pre-reject: one numpy pass drops the (dominant)
            # stale entries before the Python loop. The column arrays
            # are cached on the advert, so every receiver of the same
            # broadcast shares one build. Sentinel slots (-1/inf) make
            # missing routes keep, exactly like the scalar fall-through,
            # and survivors still hit the scalar prefilter below — the
            # vector pass can only shrink the loop, never change it.
            dst_a, met1_a, seq_a, max_dst = advert.arrays()
            seq_np = self._seq_np
            if max_dst >= len(seq_np):
                self._grow_np(max_dst + 1)
                seq_np = self._seq_np
            cs = seq_np[dst_a]
            keep = seq_a > cs
            eq = seq_a == cs
            if eq.any():
                keep |= eq & (met1_a < self._met_np[dst_a])
            if not keep.all():
                if not keep.any():
                    return
                ent = todo
                todo = [ent[j] for j in np.nonzero(keep)[0]]
        for dst, metric, seq in todo:
            # Flat-array pre-filter: stale entries (seq older than ours,
            # or equal seq without a better metric) are the dominant
            # outcome and never mutate state, so reject them on two
            # C-level list indexes before touching the route objects.
            # Slots hold -1/inf until a route exists (entries about a
            # missing route — including our own address — fall through).
            if dst < n_flat:
                cur_seq = seq_l[dst]
                if seq < cur_seq or (seq == cur_seq and metric + 1 >= met_l[dst]):
                    continue
            if dst == addr:
                # Odd (broken) sequence about us: answer with a fresh
                # even one so the network relearns the route quickly.
                if seq % 2 == 1 and seq > self.seq:
                    self.seq = seq + 1
                    changed_any = True
                continue
            cur = table_get(dst)
            if cur is None:
                if metric < INFINITY:
                    new_metric = metric + 1
                    table[dst] = DsdvRoute(dst, prev_hop, new_metric, seq, True)
                    epos[dst] = len(entries_l)
                    entries_l.append((dst, new_metric, seq))
                    if dst >= n_flat:
                        seq_l.extend([-1] * (dst + 1 - n_flat))
                        met_l.extend([INFINITY] * (dst + 1 - n_flat))
                        n_flat = dst + 1
                    seq_l[dst] = seq
                    met_l[dst] = new_metric
                    if dst >= len(self._seq_np):
                        self._grow_np(dst + 1)
                    self._seq_np[dst] = seq
                    self._met_np[dst] = new_metric
                    changed_set.add(dst)
                    changed_any = True
                continue
            cur_seq = cur.seq
            if seq < cur_seq:
                continue  # stale (flat arrays were behind a test poke)
            new_metric = metric + 1 if metric < INFINITY else INFINITY
            if seq > cur_seq or new_metric < cur.metric:
                # Adoption always changes a field (a newer seq differs
                # from cur.seq; an equal seq requires a better metric),
                # so the changed flag is set unconditionally.
                cur.next_hop = prev_hop
                cur.metric = new_metric
                cur.seq = seq
                cur.changed = True
                i = epos_get(dst)
                if i is None:
                    epos[dst] = len(entries_l)
                    entries_l.append((dst, new_metric, seq))
                else:
                    entries_l[i] = (dst, new_metric, seq)
                if dst >= n_flat:
                    seq_l.extend([-1] * (dst + 1 - n_flat))
                    met_l.extend([INFINITY] * (dst + 1 - n_flat))
                    n_flat = dst + 1
                seq_l[dst] = seq
                met_l[dst] = new_metric
                if dst >= len(self._seq_np):
                    self._grow_np(dst + 1)
                self._seq_np[dst] = seq
                self._met_np[dst] = new_metric
                changed_set.add(dst)
                changed_any = True
        if changed_any:
            self._schedule_trigger()

    # ------------------------------------------------------------ data path

    def _lookup(self, dst: int) -> Optional[DsdvRoute]:
        route = self.table.get(dst)
        if route is not None and route.valid:
            return route
        return None

    def originate(self, packet: Packet) -> None:
        route = self._lookup(packet.dst)
        if route is None:
            self.stats.drops_no_route += 1
            if self._flight is not None:
                self._flight.drop(packet, DropReason.NO_ROUTE, self.addr)
            return
        self.send_data(packet, route.next_hop, forwarded=False)

    def on_data_to_forward(self, packet: Packet, prev_hop: int, rx_power: float) -> None:
        route = self._lookup(packet.dst)
        if route is None:
            self.stats.drops_no_route += 1
            if self._flight is not None:
                self._flight.drop(packet, DropReason.NO_ROUTE, self.addr)
            return
        self.send_data(packet, route.next_hop, forwarded=True)

    # --------------------------------------------------------- link failure

    def link_failed(self, packet: Packet, next_hop: int) -> None:
        """Mark every route through *next_hop* broken (metric ∞, odd seq)."""
        if len(self._entries) != len(self.table):
            self._resync()
        broke = False
        for route in self.table.values():
            if route.next_hop == next_hop and route.valid:
                route.metric = INFINITY
                route.seq += 1  # odd: flagged by the destination's owner rule
                route.changed = True
                broke = True
                i = self._epos.get(route.dst)
                if i is not None:
                    self._entries[i] = (route.dst, INFINITY, route.seq)
                if route.dst < len(self._seq_by_dst):
                    self._seq_by_dst[route.dst] = route.seq
                    self._metric_by_dst[route.dst] = INFINITY
                if route.dst < len(self._seq_np):
                    self._seq_np[route.dst] = route.seq
                    self._met_np[route.dst] = INFINITY
                self._changed.add(route.dst)
        # Purge queued packets toward the dead neighbor: without a valid
        # route they would only burn retries. DSDV has no discovery to
        # fall back on, so the failed packet and every purged data
        # packet are lost here (the paper's headline failure mode).
        victims = [(packet, next_hop)] if packet is not None else []
        victims.extend(self.mac.purge_next_hop(next_hop))
        for pkt, _nh in victims:
            if pkt.is_data:
                self.stats.drops_link += 1
                if self._flight is not None:
                    self._flight.drop(pkt, DropReason.LINK_LOST, self.addr)
        if broke:
            self._schedule_trigger()
