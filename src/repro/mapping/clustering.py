"""Hierarchical, cache-topology-driven clustering (Figure 6).

The descent walks the cache hierarchy tree level by level, starting at the
root (last-level cache, or off-chip memory when several LLCs exist).  At
each level every current cluster set is re-clustered into as many clusters
as the tree node has children, merging greedily by the tag dot product —
the paper's qualitative affinity measure — splitting when too few clusters
remain, and finally load balancing within the tunable threshold.  After
the full descent the number of leaf clusters equals the core count, and
left-to-right tree order gives the core assignment.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence

from repro import obs
from repro.errors import MappingError
from repro.blocks.groups import IterationGroup
from repro.mapping.balance import Cluster, balance_clusters, balance_to_targets
from repro.topology.tree import Machine, TopologyNode
from repro.util.bitset import bits_of


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

    Only pairs that share a data block are ever scored, so the cost
    follows the sparse affinity graph rather than all pairs of groups
    (see :func:`_cluster_to_k`).
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


def _cluster_to_k(groups: Sequence[IterationGroup], k: int) -> list[Cluster]:
    """Greedy merge + split to exactly ``k`` clusters (no balancing).

    The affinity graph is sparse — an edge needs a shared data block —
    so the work follows its edges, not all pairs of clusters:

    * the pair heap is seeded from a block -> clusters index built by
      walking each tag's set bits, so only sharing pairs are dotted;
    * every live cluster keeps the set of live clusters it shares a
      block with; a merged cluster's set is the union of its parts'
      (a block of ``a | b`` is a block of ``a`` or of ``b``), and only
      those neighbours get new heap entries;
    * the zero-affinity fallback pops a lazy ``(size, index)`` heap.

    Heap entries ``(-dot, combined size, i, j)`` are unique (indices are
    never reused), so the pop order — and with it the merge sequence —
    is independent of push order: the result equals the all-pairs
    formulation's exactly.  ``cluster.dots`` counts the dot products.
    """
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
    # packing decision, handled by the zero-affinity fallback below.  The
    # hot loops inline the tag dot product as an AND popcount.
    with obs.span("affinity.pairs", groups=len(clusters)) as affinity_span:
        blocks = [list(bits_of(cluster.tag)) for cluster in clusters]
        holders: dict[int, list[int]] = {}
        for index, owned in enumerate(blocks):
            for block in owned:
                holders.setdefault(block, []).append(index)
        neighbours: list[set[int] | None] = []
        heap: list[tuple[int, int, int, int]] = []
        for i, cluster in enumerate(clusters):
            near = set().union(*(holders[block] for block in blocks[i]))
            near.discard(i)
            neighbours.append(near)
            tag_i, size_i = cluster.tag, cluster.size
            for j in near:
                if j > i:
                    other = clusters[j]
                    heap.append((-(tag_i & other.tag).bit_count(), size_i + other.size, i, j))
        del blocks, holders
        dots = len(heap)
        heapq.heapify(heap)
        affinity_span.tag(pairs=len(heap))
    by_size = [(c.size, index) for index, c in enumerate(clusters)]
    heapq.heapify(by_size)

    def smallest_live() -> int:
        while True:
            _, index = heapq.heappop(by_size)
            if clusters[index] is not None:
                return index

    while alive > k:
        while heap:
            _, __, i, j = heapq.heappop(heap)
            if clusters[i] is not None and clusters[j] is not None:
                break
        else:
            # Zero-affinity fallback: no sharing left anywhere; merge the
            # two smallest clusters (pure size packing).
            i = smallest_live()
            j = smallest_live()
            obs.count("cluster.zero_affinity_merges")
        new = len(clusters)
        combined = Cluster.merged(clusters[i], clusters[j])
        clusters[i] = clusters[j] = None
        clusters.append(combined)
        alive -= 1
        near = neighbours[i] | neighbours[j]
        near.discard(i)
        near.discard(j)
        neighbours[i] = neighbours[j] = None
        neighbours.append(near)
        tag, size = combined.tag, combined.size
        for other_index in near:
            other_near = neighbours[other_index]
            other_near.discard(i)
            other_near.discard(j)
            other_near.add(new)
            other = clusters[other_index]
            heapq.heappush(
                heap,
                (-(tag & other.tag).bit_count(), size + other.size, other_index, new),
            )
        dots += len(near)
        heapq.heappush(by_size, (combined.size, new))
        obs.count("cluster.merges")
    obs.count("cluster.dots", dots)

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
