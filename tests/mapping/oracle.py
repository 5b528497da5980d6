"""The quadratic Figure 6/7 mapper, kept as the differential oracle.

Verbatim copies of the clustering, balancing and scheduling code as it
stood before the mapper became near-linear: ``_cluster_to_k`` seeds its
heap with every positive-dot pair and re-dots each merged cluster
against every live cluster; ``Cluster.remove`` rebuilds the tag by
OR-ing all members; both balance loops rescan the whole donor on every
move; the scheduler's ``eligible`` re-checks every requirement against
the set of groups scheduled in earlier rounds.  Only the dense numpy
seeding branch is left out (the scalar loop it mirrored is kept), and
the KL strategy still delegates to :mod:`repro.mapping.kl`.

:func:`oracle_chain` swaps these into the pipeline's distribute and
schedule stages, so a plan mapped inside it is the pre-change plan.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from contextlib import contextmanager

from repro import obs
from repro.blocks.groups import IterationGroup
from repro.blocks.tags import bitwise_sum, dot
from repro.errors import MappingError, ScheduleError
from repro.mapping.dependence import GroupDependenceGraph
from repro.mapping.schedule import ScheduledCore, _TagCache
from repro.topology.tree import Machine, TopologyNode


class Cluster:
    """A mutable bag of iteration groups with cached tag and size."""

    __slots__ = ("groups", "tag", "size")

    def __init__(self, groups: list[IterationGroup] | None = None):
        self.groups: list[IterationGroup] = list(groups or [])
        self.tag = bitwise_sum(*(g.tag for g in self.groups))
        self.size = sum(g.size for g in self.groups)

    def add(self, group: IterationGroup) -> None:
        self.groups.append(group)
        self.tag |= group.tag
        self.size += group.size

    def remove(self, group: IterationGroup) -> None:
        self.groups.remove(group)
        self.size -= group.size
        self.tag = bitwise_sum(*(g.tag for g in self.groups))

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
            eligible = [
                g
                for g in donor.groups
                if donor.size - g.size >= low and recipient.size + g.size <= up
            ]
            if eligible:
                best = max(eligible, key=lambda g: (dot(g.tag, recipient.tag), g.size, -g.ident))
                donor.remove(best)
                recipient.add(best)
                moves += 1
                continue

            # Split: carve exactly enough iterations to pull the donor to the
            # average (and never overfill the recipient).
            need = min(int(donor.size - (low + up) / 2), int(up - recipient.size))
            need = max(1, need)
            candidates = [g for g in donor.groups if g.size > 1]
            if not candidates:
                # All groups are single iterations but none was eligible:
                # force-move the best single iteration group.
                best = max(donor.groups, key=lambda g: (dot(g.tag, recipient.tag), -g.ident))
                donor.remove(best)
                recipient.add(best)
                forced += 1
                continue
            victim = max(candidates, key=lambda g: (dot(g.tag, recipient.tag), g.size, -g.ident))
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

            eligible = [
                g
                for g in donor.groups
                if donor.size - g.size >= low_d and recipient.size + g.size <= up_r
            ]
            if eligible:
                best = max(eligible, key=lambda g: (dot(g.tag, recipient.tag), g.size, -g.ident))
                donor.remove(best)
                recipient.add(best)
                moves += 1
                continue

            need = min(int(donor.size - (low_d + up_d) / 2), int(up_r - recipient.size))
            need = max(1, need)
            candidates = [g for g in donor.groups if g.size > 1]
            if not candidates:
                best = max(donor.groups, key=lambda g: (dot(g.tag, recipient.tag), -g.ident))
                donor.remove(best)
                recipient.add(best)
                forced += 1
                continue
            victim = max(candidates, key=lambda g: (dot(g.tag, recipient.tag), g.size, -g.ident))
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


def cluster_one_level(
    groups: Sequence[IterationGroup], k: int, threshold: float
) -> list[Cluster]:
    """Cluster a set of iteration groups into exactly ``k`` clusters.

    Greedy agglomerative merging by maximum tag dot product (ties broken
    toward smaller combined size, then deterministically by group ids),
    followed by splitting when fewer than ``k`` clusters exist, and load
    balancing.

    The merge is deliberately *flat* (straight to ``k`` clusters), exactly
    as Figure 6 prescribes: a level of the cache tree with high fan-out is
    clustered in one shot.  This is what makes the hierarchy depth matter
    (the paper's Figure 20): a deeper tree hands the algorithm a sequence
    of small-fan-out decisions instead of one noisy flat cut.
    """
    result = _cluster_to_k(groups, k)
    balance_clusters(result, threshold)
    return result


def cluster_weighted(
    groups: Sequence[IterationGroup],
    weights: Sequence[int],
    threshold: float,
) -> list[Cluster]:
    """Cluster into ``len(weights)`` clusters sized proportionally to ``weights``.

    Used by the tree descent when sibling subtrees own unequal core
    counts (a pruned tree after core loss, or an asymmetric hierarchy):
    the merge/split phase is shared with :func:`cluster_one_level`, then
    clusters are matched to weight slots largest-to-largest and
    rebalanced toward the proportional targets.
    """
    k = len(weights)
    if any(w <= 0 for w in weights):
        raise MappingError(f"cluster weights must be positive, got {list(weights)}")
    result = _cluster_to_k(groups, k)
    total = sum(c.size for c in result)
    wsum = sum(weights)
    targets = [total * w / wsum for w in weights]
    # Deterministic matching: heaviest cluster takes the heaviest target.
    slot_order = sorted(range(k), key=lambda i: (-targets[i], i))
    by_size = sorted(
        result, key=lambda c: (-c.size, min((g.ident for g in c.groups), default=-1))
    )
    slots: list[Cluster] = [None] * k  # type: ignore[list-item]
    for slot_index, cluster in zip(slot_order, by_size):
        slots[slot_index] = cluster
    balance_to_targets(slots, targets, threshold)
    return slots


def _cluster_to_k(
    groups: Sequence[IterationGroup], k: int
) -> list[Cluster]:
    """Greedy merge + split to exactly ``k`` clusters (no balancing)."""
    if k <= 0:
        raise MappingError("cluster count must be positive")
    clusters: list[Cluster | None] = [Cluster([g]) for g in groups]
    alive = len(clusters)
    if not clusters:
        # No groups at all (an already-empty branch of the descent): every
        # cluster is empty and the cores below it idle.
        return [Cluster() for _ in range(k)]

    # Lazy-deletion pair heap keyed by (-dot, combined size, ids).  Pairs
    # with zero affinity are left out: merging unrelated clusters is only a
    # packing decision, handled by the zero-affinity fallback below, and
    # skipping them keeps the heap near-linear for sparse sharing graphs.
    with obs.span("affinity.pairs", groups=len(clusters)) as affinity_span:
        heap: list[tuple[int, int, int, int]] = []
        for i in range(len(clusters)):
            tag_i = clusters[i].tag
            size_i = clusters[i].size
            for j in range(i + 1, len(clusters)):
                weight = dot(tag_i, clusters[j].tag)
                if weight > 0:
                    heap.append((-weight, size_i + clusters[j].size, i, j))
        heapq.heapify(heap)
        affinity_span.tag(pairs=len(heap))

    def push_pairs(new_index: int) -> None:
        new = clusters[new_index]
        for idx, other in enumerate(clusters):
            if other is None or idx == new_index:
                continue
            weight = dot(new.tag, other.tag)
            if weight > 0:
                heapq.heappush(
                    heap,
                    (-weight, new.size + other.size, min(idx, new_index), max(idx, new_index)),
                )

    while alive > k:
        merged = False
        while heap:
            _, __, i, j = heapq.heappop(heap)
            if clusters[i] is None or clusters[j] is None:
                continue
            a, b = clusters[i], clusters[j]
            clusters[i] = None
            clusters[j] = None
            combined = Cluster(a.groups + b.groups)
            clusters.append(combined)
            alive -= 1
            push_pairs(len(clusters) - 1)
            obs.count("cluster.merges")
            merged = True
            break
        if not merged:
            # Zero-affinity fallback: no sharing left anywhere; merge the
            # two smallest clusters (pure size packing).
            live = sorted(
                (idx for idx, c in enumerate(clusters) if c is not None),
                key=lambda idx: clusters[idx].size,
            )
            i, j = live[0], live[1]
            a, b = clusters[i], clusters[j]
            clusters[i] = None
            clusters[j] = None
            clusters.append(Cluster(a.groups + b.groups))
            alive -= 1
            push_pairs(len(clusters) - 1)
            obs.count("cluster.merges")
            obs.count("cluster.zero_affinity_merges")

    result = [c for c in clusters if c is not None]

    while len(result) < k:
        result.sort(key=lambda c: -c.size)
        big = result[0]
        if len(big.groups) >= 2:
            first, second = _split_cluster(big)
        else:
            group = big.groups[0] if big.groups else None
            if group is None or group.size < 2:
                # Nothing left to split: fewer iterations than clusters.
                # Pad with empty clusters — the surplus cores idle — so a
                # degenerate (but legal) tiny nest still maps.
                obs.count("cluster.idle_padding", k - len(result))
                result.extend(Cluster() for _ in range(k - len(result)))
                break
            left, right = group.split(group.size // 2)
            first, second = Cluster([left]), Cluster([right])
        obs.count("cluster.splits")
        result.remove(big)
        result.extend([first, second])

    return result


def _split_cluster(cluster: Cluster) -> tuple[Cluster, Cluster]:
    """Split a multi-group cluster into two size-balanced halves.

    Greedy first-fit-decreasing: largest groups first, each into the
    lighter half; keeps same-tag cohesion best-effort by seeding the halves
    with the two least-similar groups.
    """
    groups = sorted(cluster.groups, key=lambda g: (-g.size, g.ident))
    a, b = Cluster(), Cluster()
    for group in groups:
        target = a if a.size <= b.size else b
        target.add(group)
    return a, b


def hierarchical_distribute(
    groups: Sequence[IterationGroup],
    machine: Machine,
    threshold: float = 0.10,
    strategy: str = "greedy",
) -> list[list[IterationGroup]]:
    """Figure 6 end to end: groups -> per-core group lists.

    Returns one list per core, indexed by core id (left-to-right order of
    the cache tree leaves).  ``strategy`` selects the per-level
    partitioner: ``"greedy"`` is the paper's dot-product merge; ``"kl"``
    additionally refines every two-way cut with Kernighan-Lin swaps
    (higher-fan-out levels always use the greedy merge).
    """
    if not groups:
        raise MappingError("no iteration groups to distribute")
    if strategy not in ("greedy", "kl"):
        raise MappingError(f"unknown clustering strategy {strategy!r}")
    if not machine.is_level_uniform():
        return tree_distribute(groups, machine, threshold, strategy)
    degrees = machine.clustering_degrees()
    with obs.span(
        "cluster.distribute",
        machine=machine.name,
        groups=len(groups),
        strategy=strategy,
        degrees=list(degrees),
    ):
        cluster_sets: list[list[IterationGroup]] = [list(groups)]
        for level, degree in enumerate(degrees):
            if degree == 1:
                continue  # pass-through level (e.g. private caches)
            with obs.span(
                "cluster.level", level=level, degree=degree, sets=len(cluster_sets)
            ):
                obs.count("cluster.levels")
                next_sets: list[list[IterationGroup]] = []
                for current in cluster_sets:
                    if strategy == "kl" and degree == 2 and len(current) >= 2:
                        from repro.mapping.kl import cluster_one_level_kl

                        clusters = cluster_one_level_kl(current, threshold)
                    else:
                        clusters = cluster_one_level(current, degree, threshold)
                    next_sets.extend([list(c.groups) for c in clusters])
                cluster_sets = next_sets
        if len(cluster_sets) != machine.num_cores:
            raise MappingError(
                f"descent produced {len(cluster_sets)} clusters for "
                f"{machine.num_cores} cores"
            )
        return cluster_sets


def tree_distribute(
    groups: Sequence[IterationGroup],
    machine: Machine,
    threshold: float = 0.10,
    strategy: str = "greedy",
) -> list[list[IterationGroup]]:
    """Figure 6 generalized to non-level-uniform trees.

    Core loss prunes the tree asymmetrically, so the flat per-level
    descent of :func:`hierarchical_distribute` (which assumes one
    branching degree per level) no longer applies.  This variant walks
    the tree per *node*: at every node with several children, the
    node's groups are clustered into one cluster per child — sized
    equally when the children own equal core counts (the per-node
    decision then coincides with the flat descent's), proportionally to
    ``cores_below`` otherwise — and each cluster recurses into its
    child.  Leaves collect in left-to-right order, i.e. core-id order.
    """
    if not groups:
        raise MappingError("no iteration groups to distribute")
    if strategy not in ("greedy", "kl"):
        raise MappingError(f"unknown clustering strategy {strategy!r}")

    def descend(node: TopologyNode, current: list[IterationGroup]) -> list[list[IterationGroup]]:
        if node.kind == "core":
            return [current]
        children = node.children
        if len(children) == 1:
            return descend(children[0], current)
        obs.count("cluster.levels")
        weights = [len(child.cores_below()) for child in children]
        if len(set(weights)) == 1:
            if strategy == "kl" and len(children) == 2 and len(current) >= 2:
                from repro.mapping.kl import cluster_one_level_kl

                clusters = cluster_one_level_kl(current, threshold)
            else:
                clusters = cluster_one_level(current, len(children), threshold)
        else:
            clusters = cluster_weighted(current, weights, threshold)
        out: list[list[IterationGroup]] = []
        for child, cluster in zip(children, clusters):
            out.extend(descend(child, list(cluster.groups)))
        return out

    with obs.span(
        "cluster.distribute.tree",
        machine=machine.name,
        groups=len(groups),
        strategy=strategy,
    ):
        cluster_sets = descend(machine.root, list(groups))
        if len(cluster_sets) != machine.num_cores:
            raise MappingError(
                f"tree descent produced {len(cluster_sets)} clusters for "
                f"{machine.num_cores} cores"
            )
        return cluster_sets


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
    the resulting schedule is identical for every backend.
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

    prev_sched: set[int] = set()
    remaining_total = sum(len(c.remaining) for c in cores)

    def eligible(state: ScheduledCore, current_round: set[int]) -> list[IterationGroup]:
        out = []
        for group in state.remaining:
            requirement = requirement_of.get(group.ident, ())
            if all(p in prev_sched for p in requirement):
                out.append(group)
        return out

    while remaining_total > 0:
        current_round: set[int] = set()
        progressed = 0
        for core_set in sets:
            last = cores[core_set[-1]]
            for position, core_id in enumerate(core_set):
                state = cores[core_id]
                state.rounds.append([])
                if not state.remaining:
                    continue
                left = cores[core_set[position - 1]] if position > 0 else None

                def pick_best(candidates: list[IterationGroup]) -> IterationGroup:
                    left_last = left.last_group if left is not None else None
                    own_last = state.last_group
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
                    candidates = eligible(state, current_round)
                    if not candidates:
                        break
                    if state.last_group is None and position == 0 and took == 0:
                        # Very first pick on the set's lead core: the most
                        # local group (fewest 1 bits in its tag).
                        best = min(candidates, key=lambda g: (tag_cache.ones(g), g.ident))
                    else:
                        best = pick_best(candidates)
                    state.remaining.remove(best)
                    state.rounds[-1].append(best)
                    state.scheduled_count += best.size
                    current_round.add(best.ident)
                    took += 1
                    progressed += 1
                    remaining_total -= 1

        if progressed == 0:
            # Deadlock under the quota rules: force one globally eligible
            # group (exists for any DAG) to guarantee termination.
            forced = False
            for state in cores:
                candidates = eligible(state, current_round)
                if candidates:
                    best = min(candidates, key=lambda g: g.ident)
                    state.remaining.remove(best)
                    state.rounds[-1].append(best)
                    state.scheduled_count += best.size
                    remaining_total -= 1
                    obs.count("schedule.forced_picks")
                    forced = True
                    break
            if not forced:
                raise ScheduleError(
                    "no schedulable group: the group dependence graph has a "
                    "cycle spanning cores (acyclify it first)"
                )
        prev_sched |= current_round

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



@contextmanager
def oracle_chain(monkeypatch):
    """Route the pipeline's distribute and schedule stages through the oracle.

    The distribute stage resolves ``hierarchical_distribute`` and
    ``schedule_groups`` on :mod:`repro.pipeline.core` and imports
    ``Cluster``/``balance_clusters`` from :mod:`repro.mapping.balance` at
    call time, so patching those four names swaps the whole Figure 6/7
    chain (the refine pass and the dependence-only scheduler stay shared).
    """
    import repro.mapping.balance as balance_module
    import repro.pipeline.core as core_module

    with monkeypatch.context() as patch:
        patch.setattr(core_module, "hierarchical_distribute", hierarchical_distribute)
        patch.setattr(core_module, "schedule_groups", schedule_groups)
        patch.setattr(balance_module, "Cluster", Cluster)
        patch.setattr(balance_module, "balance_clusters", balance_clusters)
        yield
