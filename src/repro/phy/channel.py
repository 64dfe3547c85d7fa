"""The shared wireless channel.

One :class:`Channel` connects every radio in the scenario. A
transmission is fanned out to every other radio whose received power
clears the carrier-sense threshold; each such radio gets a synchronous
``begin_arrival`` call (propagation delay inside the 550 m carrier-sense
range is < 2 us — far below every MAC constant — so it is not modelled)
and applies its own reception rules (see :mod:`repro.phy.radio`).

Receiver discovery is O(N) with one vectorized power computation per
transmission; above ``grid_threshold`` nodes a uniform spatial grid
prunes the candidate set first.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.errors import ConfigurationError, SimulationError
from ..core.simulator import Simulator
from ..mac.frames import Frame, FrameType
from ..mobility.manager import MobilityManager
from ..net.packet import BROADCAST
from .propagation import PropagationModel, RadioParams
from .radio import ArrivalLedger, Radio
from .spatial import SpatialIndex

__all__ = ["Channel", "ChannelStats"]


class _BatchTargets:
    """One (src, position-epoch) fan-out in array form, memo-resident.

    Besides the id/power vectors this precomputes the decode-threshold
    mask and the plain-Python list twins the per-transmission loops
    consume, so a memo hit pays zero array→list conversions.
    """

    __slots__ = ("ids", "powers", "dec", "dec_idx", "dec_pw", "ids_list",
                 "dec_ids_list", "dec_list", "pw_list", "remote_shards")

    def __init__(self, ids, powers, rx_threshold):
        #: Shard ids owning receivers masked out of this fan-out
        #: (empty outside sharded mode — see Channel.configure_shard).
        self.remote_shards = ()
        self.ids = ids
        self.powers = powers
        dec = powers >= rx_threshold
        self.dec = dec
        self.dec_idx = ids[dec]
        self.dec_pw = powers[dec]
        self.ids_list = ids.tolist()
        self.dec_ids_list = self.dec_idx.tolist()
        self.dec_list = dec.tolist()
        self.pw_list = powers.tolist()


class _TxBatch:
    """One in-flight transmission as tracked by the batched engine.

    ``added``/``added_pw`` are the receivers whose arrival actually
    began (powered-off radios excluded) and their powers — the rows the
    end event must retire from the ledger. ``win_list`` marks decode
    winners per ``added`` position; ``pw_list`` carries the delivery
    powers. List twins are kept so the end loop runs on plain Python
    scalars.
    """

    __slots__ = ("frame", "added", "added_pw", "added_list", "win_list",
                 "pw_list", "end")

    def __init__(self, frame, added, added_pw, added_list, win_list,
                 pw_list, end):
        self.frame = frame
        self.added = added
        self.added_pw = added_pw
        self.added_list = added_list
        self.win_list = win_list
        self.pw_list = pw_list
        self.end = end


class ChannelStats:
    """Channel-wide counters."""

    __slots__ = ("transmissions", "deliveries_attempted", "airtime")

    def __init__(self) -> None:
        #: Frames put on the air.
        self.transmissions = 0
        #: Receiver arrivals fanned out (≥ CS threshold).
        self.deliveries_attempted = 0
        #: Total transmit airtime (s), summed over frames.
        self.airtime = 0.0


class Channel:
    """Broadcast medium shared by all nodes.

    Parameters
    ----------
    sim:
        Owning simulator.
    mobility:
        Positions source; node ids index into it.
    propagation:
        Path-loss model.
    params:
        Shared radio constants.
    grid_threshold:
        Node count above which the spatial grid is used for candidate
        pruning instead of brute-force vectorized distances.
    position_quantum:
        Geometry sample period (s). Transmissions sample node positions
        at ``floor(now / q) * q`` — the *position epoch* — instead of
        the exact frame time, so every frame inside one quantum shares
        one geometry snapshot (and one fan-out memo entry). 0 disables
        quantization. At the paper's 20 m/s top speed a 5 ms quantum
        bounds the sampling error at 0.1 m against a 250 m radio range.
    """

    def __init__(
        self,
        sim: Simulator,
        mobility: MobilityManager,
        propagation: PropagationModel,
        params: RadioParams,
        grid_threshold: int = 128,
        position_quantum: float = 0.0,
    ):
        if position_quantum < 0:
            raise ConfigurationError(
                f"position quantum must be >= 0, got {position_quantum}"
            )
        self.sim = sim
        self.mobility = mobility
        self.propagation = propagation
        self.params = params
        self.stats = ChannelStats()
        self.radios: List[Optional[Radio]] = [None] * len(mobility)
        self._grid_threshold = grid_threshold
        self._max_range = params.cs_range(propagation)
        if self._max_range <= 0:
            raise ConfigurationError(
                "radio cannot reach carrier-sense threshold at any distance"
            )
        self._grid: Optional[SpatialIndex] = None
        self._grid_time = -1.0
        #: Squared-distance prefilter for the vectorized fan-out: every
        #: propagation model here is monotone in distance, so nodes
        #: beyond the carrier-sense range (+0.1% float-safety slack)
        #: can be dropped *before* the path-loss evaluation. The exact
        #: ``power >= cs_threshold`` mask is still applied to the
        #: survivors, so results cannot change — the prefilter only
        #: shrinks the vectors the model math runs on.
        self._prefilter_d2 = (self._max_range * 1.001) ** 2
        #: Below this node count, fan-out uses the scalar power loop.
        self._scalar_threshold = 32
        self._pts_time = -1.0
        self._pts_x: Optional[list] = None
        self._pts_y: Optional[list] = None
        self._quantum = position_quantum
        #: The fan-out memo: src id -> (sample time, fan-out targets), so
        #: the RTS/CTS/DATA/ACK burst of one exchange computes geometry
        #: once. Positions are pure functions of time (analytic
        #: trajectories), so the memo is exact.
        self._memo: dict = {}
        #: Batched arrival engine (see :meth:`enable_batched`). Off by
        #: default: direct ``build_network`` users (unit tests that
        #: monkeypatch ``begin_arrival`` etc.) keep the per-pair path.
        self._batched = False
        self._ledger: Optional[ArrivalLedger] = None
        #: Shared DCF contention arena (see :meth:`enable_arena`).
        self._arena = None
        #: Every MAC supports ``overhear_nav`` (virtual carrier sense
        #: applied by the batch instead of a full delivery walk).
        self._overhear_ok = False
        self.perf = sim.perf
        #: Optional span profiler (None = no instrumentation). Only the
        #: fan-out *miss* path checks it — the memoized hit path, which
        #: dominates, is untouched either way.
        self.profiler = sim.profiler
        #: Fault-injection filter (see repro.faults.manager.FaultManager):
        #: consulted per transmission, after the geometry memo, so the
        #: memo stays exact. None (the default) leaves the fan-out path
        #: byte-for-byte identical to the fault-free engine.
        self.fault_hook = None
        #: Sharded-engine state (see :meth:`configure_shard`): ownership
        #: mask, node->shard owner table, and the border-transmission
        #: outbox. All None outside sharded mode — the fan-out paths
        #: stay untouched.
        self._shard_owned = None
        self._shard_owner = None
        self._shard_outbox = None

    # ------------------------------------------------------------- topology

    def attach(self, radio: Radio) -> None:
        """Register *radio* under its node id."""
        nid = radio.node_id
        if not 0 <= nid < len(self.radios):
            raise ConfigurationError(
                f"node id {nid} outside mobility table of size {len(self.radios)}"
            )
        if self.radios[nid] is not None:
            raise ConfigurationError(f"node id {nid} already has a radio")
        radio.channel = self
        self.radios[nid] = radio

    @property
    def max_range(self) -> float:
        """Carrier-sense range (m): the fan-out radius."""
        return self._max_range

    # ------------------------------------------------------- batched engine

    def enable_batched(self) -> bool:
        """Switch this channel to the batched arrival engine.

        Called after every radio *and* MAC is attached (the stack
        builder does this when ``batched_phy`` is requested). The
        engine is only safe for MACs that never transmit synchronously
        from a delivery callback (``batch_safe``) — reentrant MACs like
        :class:`~repro.mac.ideal.IdealMac` would interleave a new
        fan-out inside the batch resolve, so they keep the per-pair
        path. PHY tracing also falls back: the batched pass reorders
        trace *emission* (never outcomes), and trace runs are
        debugging runs anyway.

        Returns whether batched mode is now active.
        """
        if self.sim.tracer.enabled("phy"):
            return False
        for radio in self.radios:
            if radio is None:
                return False
            mac = radio.mac
            if mac is not None and not getattr(mac, "batch_safe", False):
                return False
        ledger = ArrivalLedger(len(self.radios))
        for radio in self.radios:
            ledger.down[radio.node_id] = radio._down
            ledger.txing[radio.node_id] = radio._tx_end is not None
            radio._led = ledger
        ledger.n_down = int(ledger.down.sum())
        ledger.n_txing = int(ledger.txing.sum())
        self._ledger = ledger
        self._batched = True
        self._overhear_ok = all(
            radio.mac is None or getattr(radio.mac, "batch_overhear", False)
            for radio in self.radios
        )
        return True

    def enable_arena(self) -> bool:
        """Attach the shared DCF contention arena (see repro.mac.arena).

        Requires the batched arrival engine (the arena's busy masks
        read the shared ledger) and that every MAC opted in via
        ``arena_safe`` (the arena mirrors DCF-specific waiting state).
        Carrier-edge resolution then runs through the arena's vector
        passes and DCF contention timers through its coalescing wheel —
        bit-identical outcomes, fewer Python dispatches.

        Returns whether the arena is now active.
        """
        if not self._batched:
            return False
        for radio in self.radios:
            mac = radio.mac
            if mac is None or not getattr(mac, "arena_safe", False):
                return False
        from ..mac.arena import ContentionArena

        arena = ContentionArena(self.sim, self._ledger, self.radios)
        for radio in self.radios:
            radio.mac.attach_arena(arena)
        self._arena = arena
        return True

    def configure_shard(self, owned, owner, outbox) -> None:
        """Restrict delivery to shard-*owned* receivers (sharded engine).

        *owned* is a bool mask over node ids, *owner* the node->shard
        table, *outbox* the list border transmissions are appended to
        as ``(time, src_id, frame, duration, remote_shards)``. After
        this, every fan-out memo splits its target set: owned receivers
        are delivered locally through the normal batched paths, and the
        set of foreign shards owning the remainder is recorded. Island
        plans never reach a foreign shard, so the shard engine treats a
        non-empty outbox as a partition violation. Requires the batched
        engine — the per-pair path has no mask hook.
        """
        if not self._batched:
            raise ConfigurationError(
                "sharded delivery requires the batched arrival engine"
            )
        self._shard_owned = owned
        self._shard_owner = owner
        self._shard_outbox = outbox
        self._memo.clear()

    def flush_phy_stats(self) -> None:
        """Fold batched-mode stat deltas into per-radio RadioStats.

        Must run before radio counters are read for metrics; a no-op
        on the per-pair path (stats are updated in place there).
        """
        if self._ledger is not None:
            self._ledger.flush(self.radios)

    # ------------------------------------------------------------ transmit

    def transmit(self, src: Radio, frame: Frame, duration: float) -> None:
        """Fan *frame* out from *src* to every detectable receiver."""
        q = self._quantum
        now = self.sim._now
        # Position epoch: geometry is sampled on a quantized clock so
        # consecutive frames of one exchange share a snapshot.
        tq = now if q <= 0.0 else int(now / q) * q
        self.stats.transmissions += 1
        self.stats.airtime += duration
        src_id = src.node_id
        perf = self.perf
        batched = self._batched
        hit = self._memo.get(src_id)
        if hit is not None and hit[0] == tq:
            targets = hit[1]
            if perf is not None:
                perf.fanout_cache_hits += 1
        else:
            if batched:
                targets = self._build_targets_batched(src_id, tq)
            else:
                targets = self._build_targets(src_id, tq)
            self._memo[src_id] = (tq, targets)
            if perf is not None:
                perf.fanout_cache_misses += 1
        if batched:
            self._fan_out_batched(src, frame, duration, targets)
        else:
            self._fan_out(src, frame, duration, targets)

    def _build_targets(self, src_id: int, tq: float) -> list:
        """Fan-out list for *src_id* at sample time *tq*.

        Each element is ``(radio, rx_power)`` for one detectable
        receiver (the source itself excluded), prebuilt so a memo hit
        skips every per-receiver index/id check.
        """
        prof = self.profiler
        if prof is not None:
            prof.begin("channel.fanout")
            try:
                return self._build_targets_inner(src_id, tq)
            finally:
                prof.end()
        return self._build_targets_inner(src_id, tq)

    def _build_targets_inner(self, src_id: int, tq: float) -> list:
        eligible, powers = self._compute_fanout(src_id, tq)
        radios = self.radios
        targets = []
        append = targets.append
        for i, p in zip(eligible, powers):
            if i == src_id:
                continue
            radio = radios[i]
            if radio is None:
                raise SimulationError(f"node {i} is in range but has no radio")
            append((radio, p))
        return targets

    def _build_targets_batched(self, src_id: int, tq: float):
        """Array-form fan-out memo entry for the batched engine.

        Returns ``(ids, powers, dec)``: receiver node ids (the source
        excluded), their receive powers, and the precomputed
        decode-sensitivity mask ``powers >= rx_threshold``. Same
        geometry, same float64 expressions as :meth:`_build_targets` —
        only the container differs.
        """
        prof = self.profiler
        if prof is not None:
            prof.begin("channel.fanout")
            try:
                return self._build_targets_batched_inner(src_id, tq)
            finally:
                prof.end()
        return self._build_targets_batched_inner(src_id, tq)

    def _build_targets_batched_inner(self, src_id: int, tq: float):
        eligible, powers = self._compute_fanout(src_id, tq)
        ids = np.asarray(eligible, dtype=np.intp)
        pw = np.asarray(powers, dtype=np.float64)
        keep = ids != src_id
        owned = self._shard_owned
        if owned is None:
            return _BatchTargets(ids[keep], pw[keep], self.params.rx_threshold)
        # Sharded: deliver locally only to owned receivers; remember
        # which shards own the rest (the border tripwire). The split
        # happens at memo build time, so a static field pays it once
        # per (src, epoch).
        ids = ids[keep]
        pw = pw[keep]
        local = owned[ids]
        bt = _BatchTargets(ids[local], pw[local], self.params.rx_threshold)
        foreign = ids[~local]
        if foreign.shape[0]:
            bt.remote_shards = tuple(
                sorted(set(self._shard_owner[foreign].tolist()))
            )
        return bt

    def _compute_fanout(self, src_id: int, tq: float):
        """Eligible receiver ids and their rx powers at sample time *tq*.

        Returns two parallel Python lists. Below ``_scalar_threshold``
        nodes a plain loop over :meth:`rx_power_d2` runs — NumPy
        dispatch costs more than the arithmetic at that size. Both
        forms evaluate identical float64 expressions, so the choice of
        path never changes results.
        """
        positions = self.mobility.positions(tq)
        n = len(positions)
        if n <= self._scalar_threshold:
            if self._pts_time != tq:
                self._pts_x = positions[:, 0].tolist()
                self._pts_y = positions[:, 1].tolist()
                self._pts_time = tq
            xs = self._pts_x
            ys = self._pts_y
            sx = xs[src_id]
            sy = ys[src_id]
            tx_power = self.params.tx_power
            cs = self.params.cs_threshold
            rxp = self.propagation.rx_power_d2
            eligible = []
            powers = []
            for i in range(n):
                dx = xs[i] - sx
                dy = ys[i] - sy
                p = rxp(tx_power, dx * dx + dy * dy)
                if p >= cs:
                    eligible.append(i)
                    powers.append(p)
            return eligible, powers
        sx = positions[src_id, 0]
        sy = positions[src_id, 1]
        if n > self._grid_threshold:
            candidates = self._grid_candidates(positions, tq, sx, sy)
            idx = np.asarray(candidates, dtype=np.intp)
            dx = positions[idx, 0] - sx
            dy = positions[idx, 1] - sy
            d2 = dx * dx + dy * dy
            near = d2 <= self._prefilter_d2
            idx = idx[near]
            powers = self.propagation.rx_power_d2_vec(
                self.params.tx_power, d2[near]
            )
            keep = powers >= self.params.cs_threshold
            return idx[keep].tolist(), powers[keep].tolist()
        dx = positions[:, 0] - sx
        dy = positions[:, 1] - sy
        d2 = dx * dx + dy * dy
        near = np.nonzero(d2 <= self._prefilter_d2)[0]
        powers = self.propagation.rx_power_d2_vec(
            self.params.tx_power, d2[near]
        )
        keep = powers >= self.params.cs_threshold
        return near[keep].tolist(), powers[keep].tolist()

    def _grid_candidates(self, positions, tq, sx, sy):
        perf = self.perf
        if self._grid is None:
            self._grid = SpatialIndex(cell_size=self._max_range)
            self._grid.rebuild(positions)
            self._grid_time = tq
            if perf is not None:
                perf.grid_rebuilds += 1
        elif self._grid_time != tq:
            self._grid.update(positions)
            self._grid_time = tq
            if perf is not None:
                perf.grid_incremental_updates += 1
        return self._grid.query_radius(sx, sy, self._max_range)

    def _fan_out(
        self, src: Radio, frame: Frame, duration: float, targets: list
    ) -> None:
        # Arrivals begin synchronously: the speed-of-light delay inside
        # the carrier-sense range (< 2 µs) is far below every MAC timing
        # constant (SIFS = 10 µs), so modelling it would only multiply
        # event count ~25x for no behavioural difference. One event per
        # *transmission* ends every receiver's arrival and completes the
        # sender's transmit (receivers first, preserving the order the
        # two separate events used to fire in).
        hook = self.fault_hook
        if hook is not None:
            targets = hook.filter_targets(src.node_id, targets, self.sim._now)
        ended: list = []
        append = ended.append
        end = self.sim._now + duration
        for radio, p in targets:
            entry = radio.begin_arrival(frame, p, duration, end)
            if entry is not None:
                append((radio, entry))
        self.stats.deliveries_attempted += len(targets)
        perf = self.perf
        if perf is not None:
            perf.phy_legacy_arrivals += len(targets)
        self.sim.schedule(duration, self._end_transmission, src, frame, ended)

    def _end_transmission(self, src: Radio, frame: Frame, ended) -> None:
        for radio, entry in ended:
            radio.end_arrival(entry)
        src._transmit_done(frame)

    # The batched engine resolves a whole fan-out with NumPy gathers
    # over the shared ArrivalLedger instead of one begin_arrival call
    # per receiver, and one end event per *transmission* instead of per
    # (transmission, receiver) pair. Every mask below evaluates the
    # same comparison, on the same float64 values, as the corresponding
    # branch in Radio.begin_arrival — see DESIGN.md "Batched arrival
    # engine" for the case-by-case equivalence argument.

    def _fan_out_batched(self, src, frame, duration, mb: _BatchTargets) -> None:
        led = self._ledger
        radios = self.radios
        now = self.sim._now
        out = self._shard_outbox
        if out is not None and mb.remote_shards:
            # Border transmission: foreign receivers were masked out of
            # the memo; record it for the shard engine's tripwire.
            out.append((now, src.node_id, frame, duration, mb.remote_shards))
        hook = self.fault_hook
        keep = None
        if hook is not None:
            keep = hook.filter_targets_array(src.node_id, mb.ids, now)
        perf = self.perf
        if keep is None:
            ids = mb.ids
            powers = mb.powers
            n = ids.shape[0]
            self.stats.deliveries_attempted += n
            if perf is not None:
                perf.phy_batch_arrivals += n
            if (
                not led.active
                and led.n_txing == 1
                and led.n_down == 0
            ):
                # Quiet channel — the common case at the paper's
                # densities: nothing else is on the air (the only
                # transmitter is the source itself), nobody is down,
                # so every receiver is idle and every reception-rule
                # mask collapses: all arrivals are added, and exactly
                # the above-sensitivity ones decode.
                led.counts[ids] = 1
                led.strongest[ids] = powers
                led.rx_power[mb.dec_idx] = mb.dec_pw
                for nid in mb.dec_ids_list:
                    r = radios[nid]
                    r._rx_frame = frame
                    r._rx_corrupt = False
                    r.stats.airtime_rx += duration
                batch = _TxBatch(frame, ids, powers, mb.ids_list,
                                 mb.dec_list, mb.pw_list, now + duration)
                led.active.append(batch)
                self.sim.schedule(duration, self._end_transmission_batched,
                                  src, frame, batch)
                arena = self._arena
                if arena is not None:
                    arena.busy_edges(ids)
                    return
                w = led.wants_medium[ids]
                if w.any():
                    for nid in ids[w].tolist():
                        mac = radios[nid].mac
                        if mac is not None:
                            mac.medium_changed()
                return
            dec = mb.dec
        else:
            ids = mb.ids[keep]
            powers = mb.powers[keep]
            dec = mb.dec[keep]
            n = ids.shape[0]
            self.stats.deliveries_attempted += n
            if perf is not None:
                perf.phy_batch_arrivals += n

        ratio = self.params.capture_ratio
        down = led.down[ids]
        alive = ~down
        if led.n_down:
            led.d_down_rx[ids[down]] += 1
        txb = led.txing[ids]
        m_half = alive & txb
        led.d_halfduplex[ids[m_half]] += 1
        open_rx = alive & ~txb
        rxp = led.rx_power[ids]
        decoding = open_rx & (rxp > 0.0)
        # Already decoding: capture (decode survives, new energy is
        # ignored) or mutual corruption of decode and new arrival.
        m_capture = decoding & (rxp >= ratio * powers)
        m_kill = decoding & ~m_capture
        led.d_capture[ids[m_capture]] += 1
        # Idle decode candidate: above the sensitivity floor and above
        # the capture margin over the strongest pre-existing arrival.
        m_idle_rx = open_rx & ~decoding & dec
        m_win = m_idle_rx & (powers >= ratio * led.strongest[ids])
        led.d_collisions[ids[m_kill | (m_idle_rx & ~m_win)]] += 1
        # Carrier edge: the medium flips idle -> busy for these.
        was_idle = open_rx & (led.counts[ids] == 0)

        for nid in ids[m_kill].tolist():
            radios[nid]._rx_corrupt = True
        led.rx_power[ids[m_win]] = powers[m_win]
        for nid in ids[m_win].tolist():
            r = radios[nid]
            r._rx_frame = frame
            r._rx_corrupt = False
            r.stats.airtime_rx += duration
        added = ids[alive]
        added_pw = powers[alive]
        led.counts[added] += 1
        led.strongest[added] = np.maximum(led.strongest[added], added_pw)

        batch = _TxBatch(frame, added, added_pw, added.tolist(),
                         m_win[alive].tolist(), added_pw.tolist(),
                         now + duration)
        led.active.append(batch)
        self.sim.schedule(duration, self._end_transmission_batched, src,
                          frame, batch)
        # Notify idle->busy edges last (ledger state is final), in
        # receiver order, and only where the MAC is parked in a
        # contention state (medium_changed provably no-ops otherwise).
        # With the arena attached the whole pass — waiting filter, busy
        # verdicts, backoff credits — is one vectorized resolve.
        arena = self._arena
        if arena is not None:
            arena.busy_edges(ids[was_idle])
            return
        for nid in ids[was_idle & led.wants_medium[ids]].tolist():
            mac = radios[nid].mac
            if mac is not None:
                mac.medium_changed()

    def _end_transmission_batched(self, src, frame, batch: _TxBatch) -> None:
        led = self._ledger
        active = led.active
        active.remove(batch)
        added = batch.added
        led.counts[added] -= 1
        # Strongest-arrival recompute: zero the ended receivers and
        # re-max over the transmissions still on the air. max is
        # order-independent, so this is exact, and re-maxing radios
        # outside `added` is idempotent. With no other transmission in
        # flight every count is back to zero and the recompute (and the
        # per-receiver count check below) is skipped outright.
        led.strongest[added] = 0.0
        if active:
            for other in active:
                oa = other.added
                led.strongest[oa] = np.maximum(led.strongest[oa],
                                               other.added_pw)
        radios = self.radios
        win_l = batch.win_list
        pw_l = batch.pw_list
        prof = self.profiler
        # Overhear classification, once per frame instead of once per
        # receiver: a non-broadcast frame's only effect on a receiver it
        # is not addressed to is the NAV update (virtual carrier sense),
        # so the batch applies it directly via ``overhear_nav`` and
        # skips the MAC's per-frame dispatch. Promiscuous MACs still
        # take the full path for DATA (they snoop overheard payloads).
        frame_dst = frame.dst
        if self._overhear_ok and frame_dst != BROADCAST:
            bulk = True
            ftype = frame.ftype
            data_frame = ftype == FrameType.DATA
            nav_t = (
                None if ftype == FrameType.ACK
                else self.sim._now + frame.nav
            )
        else:
            bulk = False
            data_frame = False
            nav_t = None
        # One ordered pass over the receivers whose arrival began:
        # winners deliver (unless stomped/corrupted) and always get the
        # carrier edge; bystanders get the edge only when this was
        # their last overlapping arrival and their MAC is waiting —
        # exactly the calls the per-pair end_arrival path makes, minus
        # provable no-ops.
        arena = self._arena
        if arena is not None:
            # Arena mode: freeze/credit/resume verdicts are applied
            # inside this same ordered loop (so heap/wheel insertion
            # order — and every (time, seq) tie-break downstream — is
            # untouched). Large fan-outs precompute the verdicts in
            # one vector pass over the arena table; small ones derive
            # each verdict inline from the authoritative MAC scalars
            # (see ContentionArena.prepare_end_edges for the shared
            # derivation). Lazy per-receiver evaluation is exact:
            # deliveries only mutate their own node, the ledger half
            # of busy-ness (counts/txing, gathered up front) is frozen
            # for the pass, and a winner's own overhear_nav never
            # changes its waiting-ness — while medium_edge re-reads
            # the live scalars it depends on.
            if len(batch.added_list) > arena.scalar_cutoff:
                verdicts, phys_l, waiting_l = arena.prepare_end_edges(
                    added, batch.added_list
                )
            else:
                verdicts = None
                txing_l = led.txing[added].tolist()
                # With nothing else in flight every post-decrement
                # count is provably zero — skip the gather.
                counts_l = led.counts[added].tolist() if active else None
            now = self.sim._now
            a_nav = arena.nav
            n_disp = 0
            n_supp = 0
            for k, nid in enumerate(batch.added_list):
                r = radios[nid]
                if win_l[k] and r._rx_frame is frame:
                    r._rx_frame = None
                    led.rx_power[nid] = 0.0
                    mac = r.mac
                    if verdicts is None:
                        phys = txing_l[k] or (
                            counts_l is not None and counts_l[k] > 0
                        )
                    else:
                        phys = phys_l[k]
                    if not r._rx_corrupt:
                        r.stats.frames_received += 1
                        if bulk and nid != frame_dst and not (
                            data_frame and mac.promiscuous
                        ):
                            # Inlined overhear: _set_nav's raise +
                            # self-notify chain plus the trailing
                            # medium_edge collapse, for a decoder, to
                            # "raise NAV, ensure the wake covers it" —
                            # a raised NAV makes busy-ness true
                            # outright, and once the wake covers nav
                            # the second notification provably no-ops.
                            # A decoder can't sit in _DIFS/_BACKOFF at
                            # its own frame end (its arrival kept the
                            # medium busy, so it froze on the busy
                            # edge); the defensive fallback keeps the
                            # exact per-node chain if it ever happens.
                            s = mac._state
                            if nav_t is not None and nav_t > mac._nav:
                                if s == 1:  # _WAIT_MEDIUM
                                    mac._nav = nav_t
                                    a_nav[nid] = nav_t
                                    if mac._nav_wake < nav_t:
                                        mac._ensure_nav_wake()
                                    n_disp += 1
                                elif s == 0 or s > 3:  # not waiting
                                    mac._nav = nav_t
                                    a_nav[nid] = nav_t
                                    n_supp += 1
                                else:  # impossible; exact fallback
                                    mac.overhear_nav(nav_t)
                                    n_disp += 1
                                    mac.medium_edge(phys)
                            elif s == 1:
                                # medium_edge, s==_WAIT_MEDIUM branch:
                                # busy -> _ensure_nav_wake (a no-op
                                # when the wake already covers nav),
                                # idle -> _begin_contention.
                                n_disp += 1
                                nav = mac._nav
                                if phys or now < nav:
                                    if now < nav and mac._nav_wake < nav:
                                        mac._ensure_nav_wake()
                                else:
                                    mac._begin_contention()
                            elif s == 2 or s == 3:
                                n_disp += 1
                                mac.medium_edge(phys)
                            else:
                                n_supp += 1
                            continue
                        if prof is not None:
                            prof.begin("mac.deliver")
                            try:
                                mac.on_frame_received(frame, pw_l[k])
                            finally:
                                prof.end()
                        else:
                            mac.on_frame_received(frame, pw_l[k])
                    n_disp += 1
                    mac.medium_edge(phys)
                elif verdicts is None:
                    # Inline scalar verdict: the same case analysis as
                    # prepare_end_edges, against live (= pre-pass)
                    # bystander state.
                    mac = r.mac
                    s = mac._state
                    if (
                        not 1 <= s <= 3
                        or txing_l[k]
                        or (counts_l is not None and counts_l[k] > 0)
                    ):
                        n_supp += 1
                    else:
                        nav = mac._nav
                        if nav > now:
                            if mac._nav_wake < nav:
                                n_disp += 1
                                if s == 1:
                                    mac._ensure_nav_wake()
                                else:
                                    mac.medium_edge(False)
                            else:
                                n_supp += 1
                        elif s == 1:
                            n_disp += 1
                            mac._resume_contention()
                        else:
                            n_supp += 1
                else:
                    v = verdicts[k]
                    if v == 0:  # SUPPRESS: proven medium_changed no-op
                        n_supp += 1
                    else:
                        n_disp += 1
                        mac = r.mac
                        if v == 2:  # RESUME
                            mac._resume_contention()
                        elif v == 1:  # ARM_WAKE
                            mac._ensure_nav_wake()
                        else:  # DISPATCH (defensive remainder)
                            mac.medium_edge(False)
            perf = self.perf
            if perf is not None:
                perf.mac_edges_dispatched += n_disp
                perf.mac_edges_suppressed += n_supp
            src._transmit_done(frame)
            return
        counts_l = led.counts[added].tolist() if active else None
        txing_l = led.txing[added].tolist()
        wants_l = led.wants_medium[added].tolist()
        for k, nid in enumerate(batch.added_list):
            r = radios[nid]
            if win_l[k] and r._rx_frame is frame:
                r._rx_frame = None
                led.rx_power[nid] = 0.0
                mac = r.mac
                if not r._rx_corrupt:
                    r.stats.frames_received += 1
                    if mac is not None:
                        if bulk and nid != frame_dst and not (
                            data_frame and mac.promiscuous
                        ):
                            # NAV-only reception: same conditional
                            # notify as _set_nav, then the end-of-
                            # arrival edge (gated exactly like the
                            # bystander branch below).
                            if nav_t is not None:
                                mac.overhear_nav(nav_t)
                            if wants_l[k]:
                                mac.medium_changed()
                            continue
                        if prof is not None:
                            prof.begin("mac.deliver")
                            try:
                                mac.on_frame_received(frame, pw_l[k])
                            finally:
                                prof.end()
                        else:
                            mac.on_frame_received(frame, pw_l[k])
                if mac is not None:
                    mac.medium_changed()
            elif wants_l[k] and not txing_l[k] and (
                counts_l is None or counts_l[k] == 0
            ):
                mac = r.mac
                if mac is not None:
                    mac.medium_changed()
        src._transmit_done(frame)
