"""Cross-node DCF contention arena: vectorized medium-edge resolution.

One :class:`ContentionArena` is shared by every :class:`~repro.mac.dcf.DcfMac`
on a channel running the batched arrival engine. It attacks the two
per-node costs that dominate saturated collision domains:

* **Timer churn** — every contention round schedules (and mostly
  cancels) DIFS/backoff/NAV/SIFS timers across the whole cell. The
  arena owns a :class:`~repro.core.events.TimerWheel` that coalesces
  same-deadline timers behind one sentinel heap event; 802.11 deadlines
  are slot-quantized by construction (all third parties of one
  reservation compute the same ``frame_end + nav`` double), so whole
  cells wake on a single event.
* **Edge dispatch** — the batched channel used to call
  ``medium_changed()`` on every waiting MAC at every carrier edge, and
  each call re-derived busy-ness with NumPy *scalar* reads. The arena
  mirrors the waiting-state machine (``state``, ``nav``, ``nav_wake``,
  ``backoff_slots``, ``backoff_start``) into one NumPy structured
  array, computes a busy mask for the whole fan-out in one vector
  expression (ledger overlap counts + NAV vector), credits frozen
  backoffs with ``floor((now - backoff_start) / SLOT)`` as an array
  op, and dispatches only the transitions that provably act.

**Exactness.** The scalar fields on each ``DcfMac`` remain
authoritative; every mutation site mirrors into this array, so the
vector passes always read current state. Verdicts are *computed*
vectorially but *applied* in the channel's existing per-receiver loop
order, so wheel/heap insertion order — and therefore every ``(time,
seq)`` tie-break downstream — is identical to the per-node path. The
suppressed calls are exactly the ones ``medium_changed`` would have
no-opped (see each verdict's derivation below). The per-node path
still runs for PHY-traced runs; bit-identical metrics between the two
are pinned by ``tests/scenario/test_determinism.py``, which turns the
arena off by patching ``Channel.enable_arena``.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.events import TimerWheel, WheelTimer
from .frames import Dot11

__all__ = ["ContentionArena"]

# DcfMac service states the arena reasons about (see repro.mac.dcf).
_WAIT_MEDIUM = 1
_DIFS = 2
_BACKOFF = 3

#: Fan-outs at or below this run the scalar pass (same float math on
#: the authoritative DcfMac scalars); above it the NumPy pass amortizes
#: its fixed per-op dispatch. Mirrors the channel's ``_scalar_threshold``.
_SCALAR_CUTOFF = 128

# End-of-frame verdicts for bystanders (see prepare_end_edges).
SUPPRESS = 0
ARM_WAKE = 1
RESUME = 2
DISPATCH = 3

#: One row per node: the waiting-state machine in array form.
ARENA_DTYPE = np.dtype([
    ("state", np.int8),
    ("nav", np.float64),
    ("nav_wake", np.float64),
    ("backoff_slots", np.int32),
    ("backoff_start", np.float64),
])


class ContentionArena:
    """Shared contention state + timer wheel for one channel's DCF MACs.

    Parameters
    ----------
    sim:
        Owning simulator (supplies the event queue and perf counters).
    ledger:
        The channel's :class:`~repro.phy.radio.ArrivalLedger` — the
        overlap-count / transmitting vectors the busy mask reads.
    radios:
        The channel's radio table; ``radios[i].mac`` must be an
        arena-safe DCF for every node.
    """

    __slots__ = ("sim", "wheel", "table", "state", "nav", "nav_wake",
                 "backoff_slots", "backoff_start", "_ledger", "_macs",
                 "perf")

    #: Fan-out size above which the channel asks for vector verdicts
    #: (:meth:`prepare_end_edges`) instead of deriving them inline.
    scalar_cutoff = _SCALAR_CUTOFF

    def __init__(self, sim, ledger, radios):
        self.sim = sim
        self.wheel = TimerWheel(sim._queue)
        self.wheel.perf = sim.perf
        self.perf = sim.perf
        n = len(radios)
        self.table = np.zeros(n, dtype=ARENA_DTYPE)
        # Field views: zero-copy aliases the vector passes index.
        self.state = self.table["state"]
        self.nav = self.table["nav"]
        self.nav_wake = self.table["nav_wake"]
        self.backoff_slots = self.table["backoff_slots"]
        self.backoff_start = self.table["backoff_start"]
        self._ledger = ledger
        self._macs = [r.mac for r in radios]

    # --------------------------------------------------------- busy edges

    def busy_edges(self, ids) -> None:
        """Resolve idle→busy carrier edges for receiver array *ids*.

        Every node in *ids* just gained its first overlapping arrival
        (the channel guarantees ``was_idle``), so the medium is busy by
        construction and only the per-state reaction varies:

        * ``_DIFS`` / ``_BACKOFF`` — cancel the timer and freeze (the
          backoff credit comes from the vectorized floor below);
        * ``_WAIT_MEDIUM`` — already parked; the only possible action
          is arming a NAV wake, needed iff ``now < nav`` and no wake
          covers ``nav`` yet. Everything else is a proven no-op of
          ``medium_changed`` and is skipped.

        No deliveries interleave with this pass, so state frozen at
        entry stays valid for every node until its own verdict applies
        (a node's verdict only mutates that node).

        Small fan-outs take a scalar loop over the authoritative MAC
        fields (NumPy's fixed per-op dispatch dwarfs the work at a
        dozen rows); the float math is identical either way, and both
        apply transitions in receiver-positional order.
        """
        n = ids.shape[0]
        perf = self.perf
        if n <= _SCALAR_CUTOFF:
            # Fully inlined freeze/credit/arm: the same stores, in the
            # same per-node order, as the _arena_freeze_* / nav-wake
            # method chain — but without the Python call overhead that
            # dominates saturated cells. No callback runs inside this
            # loop, so the wheel/queue locals (including the seq
            # counter) stay coherent throughout.
            #
            # Sparse fields first cut the loop to the waiting members
            # via the ledger's wants_medium flag (the same gate the
            # per-node fan-out uses; it mirrors the 1..3 state band
            # exactly).  A fully-waiting fan-out — the saturated-cell
            # shape — skips the mask copy and walks ids directly.
            w = self._ledger.wants_medium[ids]
            nw = int(w.sum())
            if nw == 0:
                if perf is not None:
                    perf.mac_edges_suppressed += n
                return
            if nw < n:
                ids = ids[w]
            now = self.sim._now
            macs = self._macs
            slot = Dot11.SLOT
            floor = math.floor
            st_arr = self.state
            bs_arr = self.backoff_slots
            nw_arr = self.nav_wake
            wheel = self.wheel
            buckets = wheel._buckets
            pool = wheel._pool
            queue = wheel._queue
            disp = 0
            armed = 0
            sentinels = 0
            for nid in ids.tolist():
                mac = macs[nid]
                s = mac._state
                if s == _WAIT_MEDIUM:
                    nav = mac._nav
                    if now < nav and mac._nav_wake < nav:
                        disp += 1
                        mac._nav_wake = nav
                        nw_arr[nid] = nav
                        # Wake deadline is now + (nav - now), NOT nav:
                        # the addition can round one ulp below nav, and
                        # _nav_wake_fired's residual re-arm depends on
                        # reproducing that exact double (see dcf).
                        wake_t = now + (nav - now)
                        fn = mac._nav_wake_fired
                    else:
                        continue
                elif s == _DIFS or s == _BACKOFF:
                    disp += 1
                    t = mac._timer
                    if t is not None and not t._fired:
                        t._cancelled = True
                    mac._timer = None
                    if s == _BACKOFF:
                        credit = int(floor((now - mac._backoff_start)
                                           / slot + 1e-9))
                        slots = mac._backoff_slots - credit
                        if slots < 0:
                            slots = 0
                        mac._backoff_slots = slots
                        bs_arr[nid] = slots
                    # _DIFS/_BACKOFF -> _WAIT_MEDIUM stays inside the
                    # waiting band, so the radio wants_medium flag is
                    # untouched (what _set_state would conclude).
                    mac._state = _WAIT_MEDIUM
                    st_arr[nid] = _WAIT_MEDIUM
                    nav = mac._nav
                    if now < nav and mac._nav_wake < nav:
                        mac._nav_wake = nav
                        nw_arr[nid] = nav
                        wake_t = now + (nav - now)
                        fn = mac._nav_wake_fired
                    else:
                        continue
                else:
                    continue
                # Inline wheel arm (same seq claim + bucket/sentinel
                # protocol as TimerWheel.schedule).
                seq = queue._seq
                queue._seq = seq + 1
                if pool:
                    timer = pool.pop()
                    timer._cancelled = False
                    timer._fired = False
                else:
                    timer = WheelTimer()
                timer.time = wake_t
                timer.seq = seq
                timer.fn = fn
                timer.args = ()
                bucket = buckets.get(wake_t)
                if bucket is None:
                    buckets[wake_t] = [timer]
                    queue.push_at_seq(wake_t, wheel._fire, (wake_t,), seq)
                    sentinels += 1
                else:
                    bucket.append(timer)
                armed += 1
            if perf is not None:
                perf.mac_edges_dispatched += disp
                perf.mac_edges_suppressed += n - disp
                perf.mac_timer_events += armed
                perf.mac_wheel_sentinels += sentinels
            return
        st = self.state[ids]
        waiting = (st >= _WAIT_MEDIUM) & (st <= _BACKOFF)
        if not waiting.any():
            if perf is not None:
                perf.mac_edges_suppressed += n
            return
        now = self.sim._now
        nav = self.nav[ids]
        need_wake = (nav > now) & (self.nav_wake[ids] < nav)
        parked = st == _WAIT_MEDIUM
        act = waiting & (~parked | need_wake)
        idx = np.nonzero(act)[0]
        n_act = idx.shape[0]
        if perf is not None:
            perf.mac_edges_suppressed += n - n_act
            perf.mac_edges_dispatched += n_act
        if n_act == 0:
            return
        # Backoff credit for every row at once; rows not in _BACKOFF
        # carry garbage and are never read. Bit-equal to the scalar
        # int(math.floor(elapsed / SLOT + 1e-9)) credit.
        consumed = np.floor(
            (now - self.backoff_start[ids]) / Dot11.SLOT + 1e-9
        ).astype(np.int64)
        macs = self._macs
        ids_l = ids.tolist()
        st_l = st.tolist()
        consumed_l = consumed.tolist()
        for j in idx.tolist():
            mac = macs[ids_l[j]]
            s = st_l[j]
            if s == _BACKOFF:
                mac._arena_freeze_backoff(consumed_l[j])
            elif s == _DIFS:
                mac._arena_freeze_difs()
            else:
                mac._ensure_nav_wake()

    # ---------------------------------------------------------- end edges

    def prepare_end_edges(self, added, added_list):
        """Vector verdicts for one large end-of-frame resolve pass.

        Returns ``(verdicts, phys_busy, waiting)`` as plain lists
        aligned with *added* (the receivers whose arrival is ending;
        *added_list* is the same ids as a prebuilt Python list). The
        channel calls this only above :attr:`scalar_cutoff`; below it
        the same case analysis runs inline in its resolve loop against
        the authoritative MAC scalars. ``phys_busy`` is the ledger
        half of ``_medium_busy`` — overlap count (post-decrement) or
        own transmission — frozen for the whole pass because DCF never
        transmits synchronously from a delivery. ``waiting`` snapshots
        the pre-pass contention states (the batched channel's
        ``wants_medium`` gate).

        Bystander verdicts, each provably equal to what
        ``medium_changed`` would do (nothing can mutate a bystander
        during the pass — deliveries only touch their own node):

        * not waiting, or still physically busy → ``SUPPRESS`` (the
          per-node gate skipped these calls already);
        * NAV-busy with a wake already armed → ``SUPPRESS`` (the busy
          branch would re-arm nothing);
        * NAV-busy, no wake armed → ``ARM_WAKE`` (NAV-busy implies
          ``_WAIT_MEDIUM``: raising a NAV freezes immediately, so a
          ``_DIFS``/``_BACKOFF`` node cannot be NAV-busy — ``DISPATCH``
          covers the impossible remainder defensively);
        * fully idle in ``_WAIT_MEDIUM`` → ``RESUME`` (begin DIFS);
          fully idle in ``_DIFS``/``_BACKOFF`` → ``SUPPRESS`` (those
          branches only react to *busy*).
        """
        led = self._ledger
        now = self.sim._now
        st = self.state[added]
        nav = self.nav[added]
        phys = (led.counts[added] > 0) | led.txing[added]
        waiting = (st >= _WAIT_MEDIUM) & (st <= _BACKOFF)
        parked = st == _WAIT_MEDIUM
        nav_busy = nav > now
        free = waiting & ~phys
        v = np.zeros(st.shape[0], dtype=np.int8)
        v[free & ~nav_busy & parked] = RESUME
        pending = free & nav_busy & (self.nav_wake[added] < nav)
        v[pending & parked] = ARM_WAKE
        v[pending & ~parked] = DISPATCH
        return v.tolist(), phys.tolist(), waiting.tolist()
