"""Arrival-pipeline microbenchmark: the batched PHY engine in isolation.

``test_perf_large_scenario`` pays the whole stack; this bench strips
the MAC and routing layers down to a no-op batch-safe stub so the
timed region is almost entirely the channel's fan-out resolution and
end-of-frame batch resolve — the batched arrival engine, against the
per-pair path (which ``IdealMac`` and PHY-traced runs use) on the same
workload.

Topology: 150 static nodes on a dense grid, every node within carrier
sense of dozens of others, sources striding across the field so both
the quiet-channel fast path and the interference ledger's general path
are exercised.
"""

from repro.core import Simulator
from repro.mac.base import MacLayer
from repro.mac.frames import Frame, FrameType
from repro.mobility import Field, MobilityManager
from repro.mobility.static import grid_placement
from repro.net.packet import BROADCAST
from repro.phy import WAVELAN_914MHZ, Channel, Radio, TwoRayGround

N_NODES = 150
N_FRAMES = 400
FRAME_TIME = 0.5e-3  # 500 byte-ish frame at 2 Mb/s


class _SinkMac(MacLayer):
    """Batch-safe MAC that swallows everything (PHY cost only)."""

    batch_safe = True
    batch_overhear = True

    def on_frame_received(self, frame, rx_power):
        pass

    def on_transmit_done(self, frame):
        pass

    def overhear_nav(self, until):
        pass


def _build(batched: bool):
    sim = Simulator(seed=3)
    field = Field(1200.0, 900.0)
    mobility = MobilityManager(grid_placement(field, N_NODES))
    channel = Channel(sim, mobility, TwoRayGround(), WAVELAN_914MHZ)
    radios = []
    for nid in range(N_NODES):
        radio = Radio(sim, nid, WAVELAN_914MHZ)
        channel.attach(radio)
        _SinkMac(sim, radio)
        radios.append(radio)
    if batched:
        assert channel.enable_batched()
    return sim, channel, radios


def _run(batched: bool) -> int:
    sim, channel, radios = _build(batched)
    # Overlapping broadcasts from striding sources: consecutive frames
    # come from far-apart nodes, so transmissions routinely overlap in
    # time at shared receivers and the interference ledger has work.
    for i in range(N_FRAMES):
        src = radios[(i * 37) % N_NODES]
        frame = Frame(FrameType.RTS, src.node_id, BROADCAST, 44)
        sim.schedule(i * FRAME_TIME * 0.6, src.transmit, frame)
    sim.run()
    channel.flush_phy_stats()
    return sum(r.stats.frames_received for r in radios)


def test_perf_phy_arrivals(benchmark):
    """Batched engine: fan-out + ledger resolve for 400 broadcasts."""
    received = benchmark(_run, True)
    assert received > 0


def test_perf_phy_arrivals_legacy(benchmark):
    """Per-pair reference path on the identical workload."""
    received = benchmark(_run, False)
    # Outcome parity with the batched engine is asserted in the unit
    # and property tests; here we only require the same non-trivial
    # workload ran.
    assert received == _run(True)
