"""The optimized DSDV agent and DSR link cache agree with the references.

Hypothesis drives the same random operation sequences through the
production class and its plain twin in ``reference.py`` and compares
every observable after each step: routing tables, own sequence numbers
and emitted adverts for DSDV; stored links and returned paths for the
link cache.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Simulator
from repro.mac import IdealMac
from repro.mobility import StaticPosition
from repro.net import Packet, PacketKind, build_network
from repro.phy import RadioParams, UnitDisk
from repro.routing.dsdv import Dsdv, _Advert
from repro.routing.dsr_cache import LinkCache

from .reference import ReferenceDsdv, ReferenceLinkCache

# ------------------------------------------------------------------ DSDV

_metrics = st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0, math.inf])
_entry = st.tuples(st.integers(0, 9), _metrics, st.integers(0, 12))
_dsdv_op = st.one_of(
    # An advert from a neighbor; 16+ entries take the NumPy prefilter.
    st.tuples(st.just("advert"), st.integers(1, 6), st.lists(_entry, max_size=24)),
    st.tuples(st.just("dump"), st.booleans()),
    st.tuples(st.just("fail"), st.integers(1, 6)),
    # Let pending triggered updates fire.
    st.tuples(st.just("advance"), st.floats(0.0, 2.0)),
)


def _dsdv_agent(cls):
    """Node 0 of an unstarted two-node network; adverts are recorded,
    not transmitted."""
    sim = Simulator(seed=5)
    net = build_network(
        sim,
        [StaticPosition(0.0, 0.0), StaticPosition(100.0, 0.0)],
        routing_factory=lambda s, n, m, r: cls(s, n, m, r),
        mac_factory=lambda s, radio, rng: IdealMac(s, radio),
        propagation=UnitDisk(250.0),
        radio_params=RadioParams(),
    )
    agent = net.nodes[0].routing
    sent = []
    agent.send_control = lambda pkt, _nh: sent.append((list(pkt.payload.entries), pkt.size))
    return sim, agent, sent


def _dsdv_state(agent):
    table = [(d, r.next_hop, r.metric, r.seq, r.changed) for d, r in agent.table.items()]
    return table, agent.seq, agent._trigger_pending


@given(st.lists(_dsdv_op, max_size=40))
@settings(max_examples=150, deadline=None)
def test_dsdv_matches_reference(ops):
    fast = _dsdv_agent(Dsdv)
    ref = _dsdv_agent(ReferenceDsdv)
    for op in ops:
        for sim, agent, _sent in (fast, ref):
            if op[0] == "advert":
                pkt = Packet(PacketKind.CONTROL, "dsdv", op[1], -1, 64,
                             created=sim.now, payload=_Advert(list(op[2])))
                agent.on_control(pkt, op[1], 1.0)
            elif op[0] == "dump":
                agent._broadcast_update(full=op[1])
            elif op[0] == "fail":
                agent.link_failed(None, op[1])
            else:
                sim.run(until=sim.now + op[1])
        assert _dsdv_state(fast[1]) == _dsdv_state(ref[1])
        assert fast[2] == ref[2]


# ------------------------------------------------------------ link cache

_nodes = st.integers(0, 5)
_cache_op = st.one_of(
    st.tuples(st.just("add"), st.lists(_nodes, min_size=2, max_size=4, unique=True)),
    st.tuples(st.just("remove"), _nodes, _nodes),
    st.tuples(st.just("purge")),
    # Only time passes: memoized answers must still expire.
    st.tuples(st.just("wait")),
)


@given(st.lists(st.tuples(_cache_op, st.floats(0.0, 3.0)), max_size=40))
@settings(max_examples=200, deadline=None)
def test_link_cache_matches_reference(steps):
    fast = LinkCache(owner=0, lifetime=2.0, max_links=6)
    ref = ReferenceLinkCache(owner=0, lifetime=2.0, max_links=6)
    now = 0.0
    for op, dt in steps:
        now += dt
        if op[0] == "add":
            fast.add(op[1], now)
            ref.add(op[1], now)
        elif op[0] == "remove":
            fast.remove_link(op[1], op[2])
            ref.remove_link(op[1], op[2])
        elif op[0] == "purge":
            fast.purge_expired(now)
            ref.purge_expired(now)
        assert list(fast._links.items()) == list(ref.links.items())
        for dst in range(6):
            assert fast.get(dst, now) == ref.get(dst, now)
