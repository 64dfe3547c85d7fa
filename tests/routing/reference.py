"""Plain reference implementations of two optimized routing structures.

The production DSDV agent keeps serialized mirrors of its table (advert
triples, flat per-destination arrays, a NumPy prefilter) so dumps and
advert processing skip the route objects; the production DSR link cache
memoizes one BFS tree across destinations. The classes here are the
straightforward versions — walk the table, run a fresh BFS per query —
that the optimized ones must agree with exactly.
``test_reference_properties.py`` feeds both the same random inputs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.net.packet import BROADCAST, Packet
from repro.routing.dsdv import ENTRY_SIZE, HEADER_SIZE, INFINITY, Dsdv, DsdvRoute, _Advert


class ReferenceDsdv(Dsdv):
    """DSDV with advert building and processing done on the route objects."""

    def _broadcast_update(self, full: bool) -> None:
        self.seq += 2
        entries: List[Tuple[int, float, int]] = [(self.addr, 0.0, self.seq)]
        for route in self.table.values():
            if full or route.changed:
                entries.append((route.dst, route.metric, route.seq))
            route.changed = False
        if not full and len(entries) == 1 and self.sim.now > 0:
            # Nothing actually changed; suppress a pure self-advert
            # trigger (the periodic dump will carry it).
            return
        size = HEADER_SIZE + ENTRY_SIZE * len(entries)
        pkt = self.make_control(_Advert(entries), size)
        self.send_control(pkt, BROADCAST)

    def on_control(self, packet: Packet, prev_hop: int, rx_power: float) -> None:
        advert: _Advert = packet.payload
        changed_any = False
        for dst, metric, seq in advert.entries:
            if dst == self.addr:
                # Someone advertises a route to us. If it carries an odd
                # (broken) sequence, answer with a fresh even one so the
                # network relearns the route quickly.
                if seq % 2 == 1 and seq > self.seq:
                    self.seq = seq + 1
                    changed_any = True
                continue
            new_metric = metric + 1 if metric < INFINITY else INFINITY
            cur = self.table.get(dst)
            if cur is None:
                if new_metric < INFINITY:
                    self.table[dst] = DsdvRoute(dst, prev_hop, new_metric, seq, True)
                    changed_any = True
                continue
            # Newer information always wins (even a break); an equal
            # sequence wins only with a shorter metric.
            if seq > cur.seq or (seq == cur.seq and new_metric < cur.metric):
                if not (
                    cur.next_hop == prev_hop
                    and cur.metric == new_metric
                    and cur.seq == seq
                ):
                    changed_any = True
                    cur.changed = True
                cur.next_hop = prev_hop
                cur.metric = new_metric
                cur.seq = seq
        if changed_any:
            self._schedule_trigger()


class ReferenceLinkCache:
    """Per-link route cache: eager expiry purge, one BFS per lookup."""

    def __init__(self, owner: int, lifetime: float = 300.0, max_links: int = 256):
        self.owner = owner
        self.lifetime = lifetime
        self.max_links = max_links
        #: (a, b) normalized with a < b  ->  expiry time.
        self.links: Dict[Tuple[int, int], float] = {}

    def add(self, path: Sequence[int], now: float) -> None:
        path = tuple(path)
        if len(path) < 2 or len(set(path)) != len(path):
            return
        expiry = now + self.lifetime
        for a, b in zip(path, path[1:]):
            key = (min(a, b), max(a, b))
            self.links[key] = max(expiry, self.links.get(key, expiry))
        excess = len(self.links) - self.max_links
        if excess > 0:
            stalest = sorted(self.links.items(), key=lambda kv: kv[1])[:excess]
            for key, _exp in stalest:
                del self.links[key]

    def remove_link(self, a: int, b: int) -> None:
        self.links.pop((min(a, b), max(a, b)), None)

    def purge_expired(self, now: float) -> None:
        self.links = {k: e for k, e in self.links.items() if e > now}

    def get(self, dst: int, now: float) -> Optional[Tuple[int, ...]]:
        if dst == self.owner:
            return None
        adj: Dict[int, Set[int]] = {}
        for (a, b), expiry in self.links.items():
            if expiry > now:
                adj.setdefault(a, set()).add(b)
                adj.setdefault(b, set()).add(a)
        if self.owner not in adj or dst not in adj:
            return None
        # BFS (all links weight 1), ascending neighbor order.
        prev: Dict[int, int] = {}
        frontier = [self.owner]
        seen = {self.owner}
        while frontier:
            nxt: List[int] = []
            for u in frontier:
                for v in sorted(adj[u]):
                    if v not in seen:
                        seen.add(v)
                        prev[v] = u
                        if v == dst:
                            path = [dst]
                            while path[-1] != self.owner:
                                path.append(prev[path[-1]])
                            return tuple(reversed(path))
                        nxt.append(v)
            frontier = nxt
        return None
