"""DSR link cache — the alternative cache organization (Hu & Johnson).

The default DSR cache stores whole *paths*; a **link cache** decomposes
every learned route into individual links with per-link expiry and
answers queries by running shortest-path over the link graph. Links
learned from many routes compose into paths no single packet ever
carried, so the link cache extracts more routes from the same
observations — at the cost of composing *stale* links into routes that
never existed. Measuring that trade is ablation A7.

Drop-in replacement for :class:`~repro.routing.dsr.RouteCache` (same
``add`` / ``get`` / ``remove_link`` / ``purge_expired`` surface).

Lookups share one memoized BFS tree across destinations, invalidated
by a structural epoch (link added, removed, evicted, or an expired link
refreshed) or by leaving its time-validity window ``[build time,
earliest live-link expiry)``. Pure expiry *refreshes* of a live link do
not invalidate — the live graph is unchanged. The result is one BFS per
topology change instead of one per lookup, with the same answers as a
fresh per-query BFS (``tests/routing/reference.py`` holds that
reference; a Hypothesis property compares the two).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["LinkCache"]


class LinkCache:
    """Per-link route cache with shortest-path lookup.

    Parameters
    ----------
    owner:
        The node this cache belongs to (paths must start here).
    lifetime:
        Seconds a link stays usable after it was last observed.
    max_links:
        Bound on stored links; stalest evicted first.
    """

    def __init__(self, owner: int, lifetime: float = 300.0, max_links: int = 256):
        self.owner = owner
        self.lifetime = lifetime
        self.max_links = max_links
        #: (a, b) normalized with a < b  ->  expiry time.
        self._links: Dict[Tuple[int, int], float] = {}
        #: Structural epoch: bumped when the link *set* changes (add of a
        #: new link, removal, eviction, or an expiry purge that dropped
        #: something) — never on a pure refresh of an existing link.
        self._mut = 0
        #: Lower bound on the earliest stored expiry (lazy purge gate).
        self._min_expiry = math.inf
        # Memoized BFS tree shared across destinations.
        self._tree_mut = -1
        self._tree_t = 0.0
        self._tree_min_exp = -math.inf
        self._prev: Dict[int, int] = {}
        self._paths: Dict[int, Tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self._links)

    @staticmethod
    def _key(a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a < b else (b, a)

    # ------------------------------------------------------------- updates

    def add(self, path: Sequence[int], now: float) -> None:
        """Decompose *path* into links, refreshing their expiry."""
        path = tuple(path)
        if len(path) < 2 or len(set(path)) != len(path):
            return
        links = self._links
        expiry = now + self.lifetime
        if expiry < self._min_expiry:
            self._min_expiry = expiry
        for a, b in zip(path, path[1:]):
            key = (a, b) if a < b else (b, a)
            cur = links.get(key)
            if cur is None:
                links[key] = expiry
                self._mut += 1
            elif expiry > cur:
                links[key] = expiry
                if cur <= now:
                    # An expired, unpurged link comes back to life: the
                    # live graph changed, so the memoized tree is stale.
                    self._mut += 1
        if len(links) > self.max_links:
            for key, _exp in sorted(links.items(), key=lambda kv: kv[1])[
                : len(links) - self.max_links
            ]:
                del links[key]
            self._mut += 1

    def remove_link(self, a: int, b: int) -> None:
        if self._links.pop(self._key(a, b), None) is not None:
            self._mut += 1

    def purge_expired(self, now: float) -> None:
        """Drop dead links. Amortized: scans only once the earliest
        stored expiry has actually been passed."""
        if now < self._min_expiry:
            return
        before = len(self._links)
        self._links = {k: e for k, e in self._links.items() if e > now}
        self._min_expiry = min(self._links.values(), default=math.inf)
        if len(self._links) != before:
            self._mut += 1

    # -------------------------------------------------------------- lookup

    def get(self, dst: int, now: float) -> Optional[Tuple[int, ...]]:
        """Shortest live path owner→dst over the link graph, or None."""
        if dst == self.owner:
            return None
        if (
            self._tree_mut != self._mut
            or now < self._tree_t
            or now >= self._tree_min_exp
        ):
            self._build_tree(now)
        path = self._paths.get(dst)
        if path is not None:
            return path
        prev = self._prev
        if dst not in prev:
            return None
        rpath = [dst]
        owner = self.owner
        node = dst
        while node != owner:
            node = prev[node]
            rpath.append(node)
        rpath.reverse()
        path = tuple(rpath)
        self._paths[dst] = path
        return path

    def _build_tree(self, now: float) -> None:
        """Full deterministic BFS from the owner over live links.

        Produces exactly the prev-pointers the reference per-query BFS
        would: same sorted-neighbor, level-order traversal — the only
        difference is that it does not stop at any one destination.
        """
        adj: Dict[int, List[int]] = {}
        min_exp = math.inf
        for (a, b), expiry in self._links.items():
            if expiry > now:
                if expiry < min_exp:
                    min_exp = expiry
                adj.setdefault(a, []).append(b)
                adj.setdefault(b, []).append(a)
        prev: Dict[int, int] = {}
        self._tree_mut = self._mut
        self._tree_t = now
        self._tree_min_exp = min_exp
        self._prev = prev
        self._paths = {}
        owner = self.owner
        if owner not in adj:
            return
        frontier = [owner]
        seen = {owner}
        while frontier:
            nxt: List[int] = []
            for u in frontier:
                for v in sorted(adj.get(u, ())):
                    if v not in seen:
                        seen.add(v)
                        prev[v] = u
                        nxt.append(v)
            frontier = nxt
