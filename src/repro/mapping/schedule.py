"""Dependence-aware local iteration-group scheduling (Figure 7).

The scheduler orders the iteration groups assigned to each core in
*rounds*.  Within a round it walks the cores under each first-level shared
cache in order and picks, for every core, groups that

* depend only on groups scheduled in **previous** rounds (so a barrier
  after each round enforces every dependence), and
* maximize ``alpha * dot(tag, last group of the previous core)  +
  beta * dot(tag, last group of this core)`` — the horizontal (shared
  cache) and vertical (private L1) reuse terms of Section 3.5.3.

Round quotas follow the paper: the first core of a shared-cache set
catches up to the set's last core, each later core catches up to its left
neighbor, so iteration counts stay aligned and the barrier at the end of
each round is cheap.  On an acyclic dependence graph some group is always
ready, so every round makes progress; a round without progress means a
cycle and raises :class:`~repro.errors.ScheduleError`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro import obs
from repro.errors import ScheduleError
from repro.blocks.groups import IterationGroup
from repro.blocks.tags import dot, ones
from repro.kernels import fits_lane_budget, note_fallback, resolve_backend
from repro.mapping.dependence import GroupDependenceGraph
from repro.topology.tree import Machine
from repro.util.bitset import bits_of


class _TagCache:
    """Scorer state shared by the scheduler's backends.

    Caches the popcount of every group tag and answers "dot of each
    candidate against one reference tag" queries — as Python big-int
    popcounts (scalar) or as one vectorized popcount over packed lanes
    (numpy).  Both return the same exact integers, so the float score
    arithmetic downstream is bit-identical across backends.
    """

    def __init__(self, groups: Sequence[IterationGroup], backend: str):
        self._ones: dict[int, int] = {}
        self._packed = None
        self._row: dict[int, int] = {}
        if resolve_backend(backend) != "numpy" or not groups:
            return
        num_bits = max(g.tag.bit_length() for g in groups)
        if not fits_lane_budget(num_bits):
            note_fallback("lane-budget", "schedule")
            return
        from repro.kernels.lanes import lanes_for_bits, pack_tags, popcount

        self._packed = pack_tags([g.tag for g in groups], lanes_for_bits(num_bits))
        self._row = {g.ident: i for i, g in enumerate(groups)}
        counts = popcount(self._packed).sum(axis=1).tolist()
        self._ones = {g.ident: c for g, c in zip(groups, counts)}

    def ones(self, group: IterationGroup) -> int:
        count = self._ones.get(group.ident)
        if count is None:
            count = ones(group.tag)
            self._ones[group.ident] = count
        return count

    def dots(
        self, candidates: Sequence[IterationGroup], ref: IterationGroup
    ) -> list[int]:
        if self._packed is not None:
            from repro.kernels.affinity import dot_many

            rows = self._packed[[self._row[g.ident] for g in candidates]]
            return dot_many(self._packed[self._row[ref.ident]], rows).tolist()
        ref_tag = ref.tag
        return [dot(g.tag, ref_tag) for g in candidates]


class _ReadySet:
    """One core's ready groups: unscheduled, every requirement met.

    Indexed by block and kept in ``(ones, ident)`` order, so a pick only
    scores the groups sharing a block with a reference tag.  Every other
    candidate scores exactly ``alpha * 0 + beta * 0``; among those, the
    score tuple prefers the fewest ones and then the lowest ident, which
    is the first of them in ``(ones, ident)`` order.
    """

    def __init__(self, tag_cache: _TagCache):
        self._ones = tag_cache.ones
        self._holders: dict[int, set[IterationGroup]] = {}
        self._order: list[tuple[int, int, IterationGroup]] = []

    def __bool__(self) -> bool:
        return bool(self._order)

    def add(self, group: IterationGroup) -> None:
        for block in bits_of(group.tag):
            self._holders.setdefault(block, set()).add(group)
        insort(self._order, (self._ones(group), group.ident, group))

    def remove(self, group: IterationGroup) -> None:
        for block in bits_of(group.tag):
            members = self._holders[block]
            members.discard(group)
            if not members:
                del self._holders[block]
        del self._order[bisect_left(self._order, (self._ones(group), group.ident))]

    def most_local(self) -> IterationGroup:
        """The ready group with the fewest ones (lowest ident on ties)."""
        return self._order[0][2]

    def candidates(self, *refs: IterationGroup | None) -> list[IterationGroup]:
        """Groups sharing a block with a reference, plus the best of the rest."""
        sharing: set[IterationGroup] = set()
        for ref in refs:
            if ref is not None:
                for block in bits_of(ref.tag):
                    members = self._holders.get(block)
                    if members:
                        sharing |= members
        out = list(sharing)
        for _, _, group in self._order:
            if group not in sharing:
                out.append(group)
                break
        return out


@dataclass
class ScheduledCore:
    """Mutable per-core scheduling state."""

    core: int
    remaining: list[IterationGroup]
    rounds: list[list[IterationGroup]] = field(default_factory=list)
    scheduled_count: int = 0

    @property
    def last_group(self) -> IterationGroup | None:
        for rnd in reversed(self.rounds):
            if rnd:
                return rnd[-1]
        return None

    def flat_schedule(self) -> list[IterationGroup]:
        return [g for rnd in self.rounds for g in rnd]


def schedule_groups(
    assignments: Sequence[Sequence[IterationGroup]],
    machine: Machine,
    graph: GroupDependenceGraph | None = None,
    alpha: float = 0.5,
    beta: float = 0.5,
    backend: str = "auto",
) -> list[list[list[IterationGroup]]]:
    """Schedule per-core group lists into rounds.

    Returns ``result[core][round]`` = ordered groups that core executes in
    that round; a barrier separates consecutive rounds.  ``graph`` must be
    acyclic at group granularity (see
    :meth:`~repro.mapping.dependence.GroupDependenceGraph.acyclified`).
    ``backend`` selects the tag-dot kernel (see :mod:`repro.kernels`);
    the resulting schedule is identical for every backend.  ``alpha`` and
    ``beta`` must be finite: a NaN score would make every comparison
    false.
    """
    with obs.span(
        "schedule",
        cores=len(assignments),
        groups=sum(len(groups) for groups in assignments),
        alpha=alpha,
        beta=beta,
    ) as sp:
        result = _schedule_groups(assignments, machine, graph, alpha, beta, backend)
        rounds = max((len(core_rounds) for core_rounds in result), default=0)
        sp.tag(rounds=rounds)
        obs.count("schedule.rounds", rounds)
        return result


def _schedule_groups(
    assignments: Sequence[Sequence[IterationGroup]],
    machine: Machine,
    graph: GroupDependenceGraph | None,
    alpha: float,
    beta: float,
    backend: str,
) -> list[list[list[IterationGroup]]]:
    if len(assignments) != machine.num_cores:
        raise ScheduleError(
            f"{len(assignments)} assignments for {machine.num_cores} cores"
        )
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ScheduleError(
            f"scheduling weights must be finite, got alpha={alpha}, beta={beta}"
        )
    cores = [
        ScheduledCore(core, sorted(groups, key=lambda g: g.iterations[0]))
        for core, groups in enumerate(assignments)
    ]
    sets = machine.first_shared_level_groups()
    preds = graph.preds if graph is not None else {}
    # Load balancing may have split graph-node groups into same-origin
    # parts with fresh idents.  Translate the graph onto the parts: an
    # edge from origin p gates on *every* part of p, and parts of one
    # origin chain in lexicographic order (a split partitions the lex
    # order, so the chain preserves the group's internal dependences).
    # Without splits this reduces exactly to ``preds``.
    requirement_of: dict[int, tuple[int, ...]] = {}
    if graph is not None:
        parts_of: dict[int, list[IterationGroup]] = {}
        for groups in assignments:
            for g in groups:
                parts_of.setdefault(g.origin, []).append(g)
        for parts in parts_of.values():
            parts.sort(key=lambda g: g.iterations[0])
        for groups in assignments:
            for g in groups:
                req: list[int] = []
                for p in preds.get(g.origin, ()):
                    req.extend(part.ident for part in parts_of.get(p, ()))
                own = parts_of[g.origin]
                position = own.index(g)
                if position > 0:
                    req.append(own[position - 1].ident)
                requirement_of[g.ident] = tuple(req)
    tag_cache = _TagCache([g for groups in assignments for g in groups], backend)

    # Readiness changes only when a round closes, so each group carries a
    # count of requirements not yet scheduled in an earlier round (absent
    # once zero) and every closing round decrements its dependents'.
    unmet: dict[int, int] = {}
    dependents: dict[int, list[int]] = {}
    for ident, req in requirement_of.items():
        if req:
            unmet[ident] = len(req)
        for p in req:
            dependents.setdefault(p, []).append(ident)
    ready = [_ReadySet(tag_cache) for _ in cores]
    owner: dict[int, tuple[int, IterationGroup]] = {}
    for state in cores:
        for group in state.remaining:
            owner[group.ident] = (state.core, group)
            if group.ident not in unmet:
                ready[state.core].add(group)
    remaining_total = sum(len(c.remaining) for c in cores)

    while remaining_total > 0:
        current_round: list[int] = []
        progressed = 0
        for core_set in sets:
            last = cores[core_set[-1]]
            for position, core_id in enumerate(core_set):
                state = cores[core_id]
                core_ready = ready[core_id]
                state.rounds.append([])
                if not state.remaining:
                    continue
                left = cores[core_set[position - 1]] if position > 0 else None

                def pick_best() -> IterationGroup:
                    left_last = left.last_group if left is not None else None
                    own_last = state.last_group
                    candidates = core_ready.candidates(left_last, own_last)
                    h = tag_cache.dots(candidates, left_last) if left_last is not None else None
                    v = tag_cache.dots(candidates, own_last) if own_last is not None else None
                    best_index = 0
                    best_score: tuple | None = None
                    for index, group in enumerate(candidates):
                        horizontal = alpha * h[index] if h is not None else 0.0
                        vertical = beta * v[index] if v is not None else 0.0
                        score = (
                            horizontal + vertical,
                            -tag_cache.ones(group),
                            -group.ident,
                        )
                        if best_score is None or score > best_score:
                            best_index, best_score = index, score
                    return candidates[best_index]

                # Quota: schedule at least one group, then keep catching up
                # to the pace setter (left neighbor; the first core chases
                # the set's last core, as in Figure 7).
                pace = last if position == 0 else left
                took = 0
                while True:
                    if not state.remaining:
                        break
                    if took > 0:
                        target = pace.scheduled_count if pace is not state else None
                        if target is None or state.scheduled_count >= target:
                            break
                    if not core_ready:
                        break
                    if state.last_group is None and position == 0 and took == 0:
                        # Very first pick on the set's lead core: the most
                        # local group (fewest 1 bits in its tag).
                        best = core_ready.most_local()
                    else:
                        best = pick_best()
                    core_ready.remove(best)
                    state.remaining.remove(best)
                    state.rounds[-1].append(best)
                    state.scheduled_count += best.size
                    current_round.append(best.ident)
                    took += 1
                    progressed += 1
                    remaining_total -= 1

        if progressed == 0:
            # Every core's eligible set was empty at its turn, and readiness
            # cannot change within a round: no group will ever be ready.
            raise ScheduleError(
                "no schedulable group: the group dependence graph has a "
                "cycle spanning cores (acyclify it first)"
            )
        for ident in current_round:
            for dependent in dependents.get(ident, ()):
                left_unmet = unmet[dependent] - 1
                if left_unmet:
                    unmet[dependent] = left_unmet
                else:
                    del unmet[dependent]
                    core_id, group = owner[dependent]
                    ready[core_id].add(group)

    # Trim trailing empty rounds and align round counts across cores.
    max_rounds = max((len(c.rounds) for c in cores), default=0)
    result: list[list[list[IterationGroup]]] = []
    for state in cores:
        rounds = state.rounds + [[] for _ in range(max_rounds - len(state.rounds))]
        result.append(rounds)
    while result and all(not rounds[-1] for rounds in result):
        for rounds in result:
            rounds.pop()
    return result


def dependence_only_schedule(
    assignments: Sequence[Sequence[IterationGroup]],
    machine: Machine,
    graph: GroupDependenceGraph | None = None,
    backend: str = "auto",
) -> list[list[list[IterationGroup]]]:
    """Scheduling that honors dependences but ignores locality (α = β = 0).

    This is the default used by plain TopologyAware in the paper's
    evaluation: "once the iteration distribution is carried out, the
    iteration groups assigned to each core are scheduled considering only
    data dependencies".  Without dependences, each core gets a single
    round in assignment order (no barriers at all).
    """
    if graph is None or graph.num_edges == 0:
        with obs.span("schedule", cores=len(assignments), trivial=True) as sp:
            sp.tag(rounds=1)
            obs.count("schedule.rounds", 1)
            return [
                [sorted(groups, key=lambda g: g.iterations[0])] if groups else [[]]
                for groups in assignments
            ]
    return schedule_groups(assignments, machine, graph, alpha=0.0, beta=0.0, backend=backend)
