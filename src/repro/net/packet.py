"""Network-layer packet model.

A :class:`Packet` is what routing agents and traffic agents exchange;
the MAC layer wraps it in a frame (see :mod:`repro.mac.frames`). Packets
are mutable — forwarding decrements TTL and appends hops — but the
*payload* (a protocol message object or application datum) is treated as
immutable and shared between copies.

Node addresses are small integers (the node's index); ``BROADCAST``
(-1) addresses all neighbors within radio range.
"""

from __future__ import annotations

import itertools
from typing import Any, List, Optional

from ..core.errors import PacketError

__all__ = [
    "Packet",
    "PacketKind",
    "PacketPool",
    "PACKET_POOL",
    "BROADCAST",
    "packet_uid_counter",
    "reset_packet_uids",
]

#: Link/network broadcast address.
BROADCAST = -1

#: Default network-layer TTL (matches typical ns-2 ad hoc setups).
DEFAULT_TTL = 32

#: Shared uid source. Uids only need to be unique within one run, but the
#: sweep executor keeps worker processes alive across cells, so the
#: counter must be rewound at scenario start (``reset_packet_uids``) for
#: cached and fresh runs to see identical uid sequences.
packet_uid_counter = itertools.count()


def reset_packet_uids(base: int = 0) -> None:
    """Rewind the uid source to *base* (called at scenario build time).

    The sharded engine gives each shard a disjoint uid block (shard id
    in the high bits): delivery dedup keys on ``origin_uid`` alone, so
    shards allocating from a common zero base would collide.
    """
    global packet_uid_counter
    packet_uid_counter = itertools.count(base)


class PacketKind:
    """Enumeration of packet kinds (plain strings for cheap comparison)."""

    DATA = "data"
    CONTROL = "control"


class Packet:
    """One network-layer packet.

    Attributes
    ----------
    uid:
        Process-unique identifier of this hop copy (dedup caches, traces).
    origin_uid:
        The uid of the original packet; preserved across :meth:`copy`,
        so end-to-end identity survives per-hop rebroadcast copies.
    kind:
        ``PacketKind.DATA`` or ``PacketKind.CONTROL``.
    proto:
        Owning protocol tag, e.g. ``"cbr"``, ``"aodv"``, ``"dsr"``.
    src, dst:
        Network-layer endpoints (node ids); *dst* may be ``BROADCAST``.
    size:
        Payload size in bytes (headers are accounted by the MAC frame).
    ttl:
        Remaining hop budget; forwarding a packet with ttl 0 raises.
    hops:
        Hops traversed so far.
    created:
        Simulation time the packet was created (for delay metrics).
    payload:
        Protocol message object or application datum; shared on copy.
    route:
        Optional source route (list of node ids), used by DSR.
    """

    __slots__ = (
        "uid",
        "origin_uid",
        "kind",
        "proto",
        "src",
        "dst",
        "size",
        "ttl",
        "hops",
        "created",
        "payload",
        "route",
        "salvage",
        "poolable",
    )

    def __init__(
        self,
        kind: str,
        proto: str,
        src: int,
        dst: int,
        size: int,
        created: float,
        ttl: int = DEFAULT_TTL,
        payload: Any = None,
        route: Optional[List[int]] = None,
    ):
        if size < 0:
            raise PacketError(f"packet size must be >= 0, got {size}")
        if ttl < 0:
            raise PacketError(f"ttl must be >= 0, got {ttl}")
        self.uid = next(packet_uid_counter)
        self.origin_uid = self.uid
        self.kind = kind
        self.proto = proto
        self.src = src
        self.dst = dst
        self.size = size
        self.ttl = ttl
        self.hops = 0
        self.created = created
        self.payload = payload
        self.route = route
        #: DSR salvage counter (travels with the packet across hops).
        self.salvage = 0
        #: True only while the packet is owned by :data:`PACKET_POOL`.
        self.poolable = False

    # ------------------------------------------------------------------ api

    @property
    def is_broadcast(self) -> bool:
        """Whether the network-layer destination is the broadcast address."""
        return self.dst == BROADCAST

    @property
    def is_data(self) -> bool:
        return self.kind == PacketKind.DATA

    def decrement_ttl(self) -> None:
        """Consume one hop of TTL; raises :class:`PacketError` at zero."""
        if self.ttl <= 0:
            raise PacketError(f"TTL expired on packet uid={self.uid}")
        self.ttl -= 1
        self.hops += 1

    def copy(self) -> "Packet":
        """A forwarding copy with a fresh uid and the same payload object.

        Used when a broadcast must be re-broadcast by many nodes: each
        transmission is a distinct packet at the MAC layer but carries
        the same protocol message.
        """
        p = Packet.__new__(Packet)
        p.uid = next(packet_uid_counter)
        p.origin_uid = self.origin_uid
        p.kind = self.kind
        p.proto = self.proto
        p.src = self.src
        p.dst = self.dst
        p.size = self.size
        p.ttl = self.ttl
        p.hops = self.hops
        p.created = self.created
        p.payload = self.payload
        p.route = list(self.route) if self.route is not None else None
        p.salvage = self.salvage
        p.poolable = False
        return p

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet uid={self.uid} {self.proto}/{self.kind} "
            f"{self.src}->{self.dst} size={self.size} ttl={self.ttl}>"
        )


class PacketPool:
    """Freelist for broadcast control packets (floods, adverts, hellos).

    Flood-style control traffic is the dominant allocation churn at
    100+ nodes: every rebroadcast is a short-lived :class:`Packet`
    whose life ends when its own MAC transmission completes (broadcasts
    are never retried, buffered, or retained by receivers — receivers
    consume the shared *payload* synchronously and build fresh packets
    for their own forwards). Such packets are acquired here and released
    by the MAC at transmit completion instead of falling to the GC.

    Determinism: an acquired shell draws ``next(packet_uid_counter)``
    exactly where a fresh allocation would, so uid sequences — and
    therefore every dedup cache and trace — are the same as with plain
    allocation.

    Only packets flagged ``poolable`` are ever reclaimed; the flag is
    set exclusively by :meth:`acquire` and cleared on release, so
    double-release and foreign packets are safe no-ops.
    """

    #: Upper bound on retained shells (a network's worth of floods).
    MAX_FREE = 512

    __slots__ = ("perf", "_free")

    def __init__(self) -> None:
        #: Optional PerfCounters to credit reuses to (set per scenario).
        self.perf = None
        self._free: List[Packet] = []

    def acquire(
        self,
        kind: str,
        proto: str,
        src: int,
        dst: int,
        size: int,
        created: float,
        ttl: int,
        payload: Any,
    ) -> Packet:
        """A packet like ``Packet(...)`` but recycled when possible."""
        if self._free:
            p = self._free.pop()
            p.uid = next(packet_uid_counter)
            p.origin_uid = p.uid
            p.kind = kind
            p.proto = proto
            p.src = src
            p.dst = dst
            p.size = size
            p.ttl = ttl
            p.hops = 0
            p.created = created
            p.payload = payload
            p.route = None
            p.salvage = 0
            p.poolable = True
            if self.perf is not None:
                self.perf.packets_pooled += 1
            return p
        p = Packet(kind, proto, src, dst, size, created=created, ttl=ttl, payload=payload)
        p.poolable = True
        return p

    def acquire_copy(self, packet: Packet) -> Packet:
        """A forwarding copy like :meth:`Packet.copy`, pool-backed.

        Used for broadcast rebroadcast copies (e.g. OLSR TC relays)
        whose life also ends at their own transmit completion.
        """
        if self._free:
            p = self._free.pop()
            p.uid = next(packet_uid_counter)
            p.origin_uid = packet.origin_uid
            p.kind = packet.kind
            p.proto = packet.proto
            p.src = packet.src
            p.dst = packet.dst
            p.size = packet.size
            p.ttl = packet.ttl
            p.hops = packet.hops
            p.created = packet.created
            p.payload = packet.payload
            p.route = list(packet.route) if packet.route is not None else None
            p.salvage = packet.salvage
            p.poolable = True
            if self.perf is not None:
                self.perf.packets_pooled += 1
            return p
        p = packet.copy()
        p.poolable = True
        return p

    def release(self, packet: Packet) -> None:
        """Reclaim *packet* if the pool owns it; otherwise a no-op."""
        if not packet.poolable:
            return
        packet.poolable = False
        packet.payload = None
        packet.route = None
        if len(self._free) < self.MAX_FREE:
            self._free.append(packet)

    def clear(self) -> None:
        """Drop retained shells (scenario start: no cross-run sharing)."""
        del self._free[:]


#: Process-wide pool; ``build_scenario`` re-arms it per run.
PACKET_POOL = PacketPool()
