"""Greedy load balancing of iteration-group clusters (Figure 6, lower box).

Given the clusters formed at one level of the hierarchy, equalize their
iteration counts to within the tunable balance threshold: repeatedly evict
an iteration group from an oversized cluster into an undersized one,
choosing the group whose tag has the largest dot product with the
recipient's tag; when no whole group fits the limits, split one (same-tag
sub-groups) so the sizes land inside the window.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort

from repro import obs
from repro.errors import MappingError
from repro.blocks.groups import IterationGroup
from repro.blocks.tags import bitwise_sum
from repro.util.bitset import bits_of


class Cluster:
    """A mutable bag of iteration groups with cached tag and size.

    Removal keeps the tag exact through per-block membership:
    ``holders()`` maps every block of the tag to the member groups that
    touch it (the block's reference count is the set's size), so
    ``add``/``remove`` cost O(popcount) of the moved group instead of an
    OR over every member.  The index, and the ``(size, -ident)``-sorted
    view balancing searches by size, are built on first use: clusters
    that are only merged never pay for them.
    """

    __slots__ = ("groups", "tag", "size", "_holders", "_by_size")

    def __init__(self, groups: list[IterationGroup] | None = None):
        self.groups: list[IterationGroup] = list(groups or [])
        self.tag = bitwise_sum(*(g.tag for g in self.groups))
        self.size = sum(g.size for g in self.groups)
        self._holders: dict[int, set[IterationGroup]] | None = None
        self._by_size: list[tuple[int, int, IterationGroup]] | None = None

    @classmethod
    def merged(cls, first: "Cluster", second: "Cluster") -> "Cluster":
        """The union of two clusters, ``first``'s groups leading."""
        out = cls()
        out.groups = first.groups + second.groups
        out.tag = first.tag | second.tag
        out.size = first.size + second.size
        return out

    def holders(self) -> dict[int, set[IterationGroup]]:
        """Block -> member groups whose tag covers it."""
        if self._holders is None:
            self._holders = {}
            for group in self.groups:
                self._hold(group)
        return self._holders

    def _hold(self, group: IterationGroup) -> None:
        holders = self._holders
        for block in bits_of(group.tag):
            members = holders.get(block)
            if members is None:
                holders[block] = {group}
            else:
                members.add(group)

    def by_size(self) -> list[tuple[int, int, IterationGroup]]:
        """Members as ascending ``(size, -ident, group)`` entries."""
        if self._by_size is None:
            self._by_size = sorted((g.size, -g.ident, g) for g in self.groups)
        return self._by_size

    def add(self, group: IterationGroup) -> None:
        self.groups.append(group)
        self.tag |= group.tag
        self.size += group.size
        if self._holders is not None:
            self._hold(group)
        if self._by_size is not None:
            insort(self._by_size, (group.size, -group.ident, group))

    def remove(self, group: IterationGroup) -> None:
        holders = self.holders()
        self.groups.remove(group)
        self.size -= group.size
        for block in bits_of(group.tag):
            members = holders[block]
            members.discard(group)
            if not members:
                del holders[block]
                self.tag ^= 1 << block
        if self._by_size is not None:
            view = self._by_size
            del view[bisect_left(view, (group.size, -group.ident))]

    def __repr__(self) -> str:
        return f"Cluster({len(self.groups)} groups, {self.size} iters)"


def balance_limits(total: int, k: int, threshold: float) -> tuple[float, float]:
    """(LowLimit, UpLimit) around the per-cluster average."""
    if k <= 0:
        raise MappingError("cluster count must be positive")
    if not 0 <= threshold < 1:
        raise MappingError(f"balance threshold must be in [0, 1), got {threshold}")
    avg = total / k
    return avg * (1 - threshold), avg * (1 + threshold)


def _pick(donor: Cluster, tag: int, low: int, high: float) -> IterationGroup | None:
    """The donor group maximizing ``(dot(g.tag, tag), g.size, -g.ident)``
    among those with ``low <= g.size <= high``, or None.

    Groups sharing a block with ``tag`` come from the donor's block index;
    the best zero-dot group is the largest ``(size, -ident)`` entry within
    ``high``.  If a group sharing a block were eligible it would already
    have won, so that entry has dot 0 whenever it is eligible.
    """
    # A member's tag lies inside the donor's, so its dot with ``tag`` is
    # the number of shared donor blocks it holds: count them off the index.
    holders = donor.holders()
    shared: dict[IterationGroup, int] = {}
    for block in bits_of(donor.tag & tag):
        for group in holders[block]:
            shared[group] = shared.get(group, 0) + 1
    best = None
    best_key: tuple[int, int, int] | None = None
    for group, common in shared.items():
        size = group.size
        if low <= size <= high:
            key = (common, size, -group.ident)
            if best_key is None or key > best_key:
                best, best_key = group, key
    if best is not None:
        return best
    view = donor.by_size()
    index = bisect_right(view, (high, math.inf)) - 1
    if index >= 0 and view[index][0] >= low:
        return view[index][2]
    return None


def _move_bound(donor: Cluster, low_d: float, recipient: Cluster, up_r: float) -> int:
    """Largest group size whose move keeps the donor at or above
    ``low_d`` and the recipient at or below ``up_r`` (exact on integers:
    ``donor.size - g >= low_d`` iff ``g <= donor.size - ceil(low_d)``)."""
    return min(donor.size - math.ceil(low_d), math.floor(up_r) - recipient.size)


def balance_clusters(clusters: list[Cluster], threshold: float) -> None:
    """Equalize cluster sizes in place to within ``threshold``.

    Follows the paper's greedy scheme: evict from the largest cluster to a
    below-LowLimit one (falling back to the smallest), preferring the
    group maximizing the dot product with the recipient; split a group
    when no whole group keeps both clusters inside the window.  The split
    fallback guarantees termination: each pass strictly shrinks the
    largest cluster until it is within UpLimit.
    """
    k = len(clusters)
    if k <= 1:
        return
    total = sum(c.size for c in clusters)
    low, up = balance_limits(total, k, threshold)

    guard = 0
    max_steps = 4 * k + 4 * sum(len(c.groups) for c in clusters) + 64
    with obs.span("balance", clusters=k, total=total, threshold=threshold) as sp:
        moves = splits = forced = 0
        while True:
            donor = max(clusters, key=lambda c: c.size)
            # Integer sizes vs. a fractional window: stop within one iteration
            # of the limit, otherwise 1-iteration moves can oscillate forever.
            if donor.size < up + 1:
                break
            guard += 1
            if guard > max_steps:
                raise MappingError("load balancing failed to converge")  # pragma: no cover
            under = [c for c in clusters if c.size < low]
            recipient = min(under or [c for c in clusters if c is not donor], key=lambda c: c.size)

            # A whole-group move is eligible when both ends stay in the window.
            best = _pick(donor, recipient.tag, 1, _move_bound(donor, low, recipient, up))
            if best is not None:
                donor.remove(best)
                recipient.add(best)
                moves += 1
                continue

            # Split: carve exactly enough iterations to pull the donor to the
            # average (and never overfill the recipient).
            need = min(int(donor.size - (low + up) / 2), int(up - recipient.size))
            need = max(1, need)
            victim = _pick(donor, recipient.tag, 2, math.inf)
            if victim is None:
                # All groups are single iterations but none was eligible:
                # force-move the best single iteration group.
                best = _pick(donor, recipient.tag, 1, math.inf)
                donor.remove(best)
                recipient.add(best)
                forced += 1
                continue
            cut = min(need, victim.size - 1)
            moved, kept = victim.split(cut)
            donor.remove(victim)
            donor.add(kept)
            recipient.add(moved)
            splits += 1
        sp.tag(moves=moves, splits=splits, forced=forced)
        obs.count("balance.moves", moves)
        obs.count("balance.splits", splits)
        obs.count("balance.forced_moves", forced)


def balance_to_targets(clusters: list[Cluster], targets: list[float], threshold: float) -> None:
    """Equalize cluster sizes in place toward per-cluster ``targets``.

    The weighted variant of :func:`balance_clusters`, used when the
    cache tree is not level-uniform (e.g. after core loss) and sibling
    subtrees own different core counts: each cluster's window is
    ``target * (1 +- threshold)`` instead of a common average.  The
    move/split/forced scheme — and its termination argument — is the
    same: every pass strictly shrinks the most-over-window donor.
    """
    k = len(clusters)
    if k != len(targets):
        raise MappingError(f"{k} clusters but {len(targets)} targets")
    if k <= 1:
        return
    if not 0 <= threshold < 1:
        raise MappingError(f"balance threshold must be in [0, 1), got {threshold}")
    total = sum(c.size for c in clusters)
    if any(t <= 0 for t in targets):
        raise MappingError("balance targets must be positive")
    scale = total / sum(targets)
    limits = [(t * scale * (1 - threshold), t * scale * (1 + threshold)) for t in targets]

    guard = 0
    max_steps = 4 * k + 4 * sum(len(c.groups) for c in clusters) + 64
    with obs.span("balance.targets", clusters=k, total=total, threshold=threshold) as sp:
        moves = splits = forced = 0
        while True:
            di = max(range(k), key=lambda i: clusters[i].size - limits[i][1])
            donor = clusters[di]
            low_d, up_d = limits[di]
            if donor.size < up_d + 1:
                break
            guard += 1
            if guard > max_steps:
                raise MappingError("weighted balancing failed to converge")  # pragma: no cover
            under = [i for i in range(k) if clusters[i].size < limits[i][0]]
            pool = under or [i for i in range(k) if i != di]
            ri = min(pool, key=lambda i: (clusters[i].size - limits[i][0], i))
            recipient = clusters[ri]
            low_r, up_r = limits[ri]

            best = _pick(donor, recipient.tag, 1, _move_bound(donor, low_d, recipient, up_r))
            if best is not None:
                donor.remove(best)
                recipient.add(best)
                moves += 1
                continue

            need = min(int(donor.size - (low_d + up_d) / 2), int(up_r - recipient.size))
            need = max(1, need)
            victim = _pick(donor, recipient.tag, 2, math.inf)
            if victim is None:
                best = _pick(donor, recipient.tag, 1, math.inf)
                donor.remove(best)
                recipient.add(best)
                forced += 1
                continue
            cut = min(need, victim.size - 1)
            moved, kept = victim.split(cut)
            donor.remove(victim)
            donor.add(kept)
            recipient.add(moved)
            splits += 1
        sp.tag(moves=moves, splits=splits, forced=forced)
        obs.count("balance.moves", moves)
        obs.count("balance.splits", splits)
        obs.count("balance.forced_moves", forced)


def verify_balance(clusters: list[Cluster], threshold: float, slack: float = 0.0) -> bool:
    """True when every cluster is within the (threshold + slack) window.

    ``slack`` absorbs the +-1 iteration quantization of group splitting.
    """
    total = sum(c.size for c in clusters)
    low, up = balance_limits(total, len(clusters), threshold)
    return all(low - slack - 1 <= c.size <= up + slack + 1 for c in clusters)
