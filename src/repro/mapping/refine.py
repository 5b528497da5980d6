"""Local-search refinement of a group-to-core assignment.

The hierarchical descent of Figure 6 is greedy; its quality can vary with
the shape of the descent.  This pass polishes the result against the same
objective the clustering pursues — co-locate sharers under the fastest
common cache — expressed as the latency-weighted distinct-block count
over the cache tree (:func:`repro.mapping.optimal.sharing_cost`'s core
term).  Moves and swaps are accepted only when they reduce the objective
*and* keep every core's iteration count inside the balance window, so the
load-balancing guarantee of the clustering step is preserved.

This is an engineering addition on top of the paper's algorithm (the
paper describes only the greedy descent); it is on by default in
:class:`~repro.mapping.distribute.TopologyAwareMapper` and can be
disabled with ``refine=False`` for an ablation.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.blocks.groups import IterationGroup
from repro.blocks.tags import ones
from repro.mapping.balance import balance_limits
from repro.topology.tree import Machine

Assignment = list[list[IterationGroup]]


#: One cache node of the objective: (latency, cores below, same as a set).
CacheNode = tuple[float, tuple[int, ...], frozenset[int]]


def _cache_nodes(machine: Machine) -> list[CacheNode]:
    """The cache tree flattened once per refinement, in ``cache_nodes`` order."""
    out: list[CacheNode] = []
    for node in machine.cache_nodes():
        below = node.cores_below()
        out.append((node.spec.latency, below, frozenset(below)))
    return out


def refine_assignment(
    assignments: Assignment,
    machine: Machine,
    balance_threshold: float = 0.10,
    max_passes: int = 4,
    max_groups: int = 400,
) -> Assignment:
    """Hill-climb moves/swaps that reduce the cache-tree sharing cost.

    Returns a new assignment (input untouched).  Deterministic: groups and
    cores are visited in order and the best improving move is applied
    first-fit per group.  The neighborhood scan is quadratic in the group
    count, so refinement is skipped beyond ``max_groups`` groups (the
    greedy clustering stands on its own there; the Figure 16 small-block
    sweeps would otherwise dominate compile time).
    """
    state: Assignment = [list(groups) for groups in assignments]
    n_cores = len(state)
    if n_cores <= 1:
        return state
    if sum(len(groups) for groups in state) > max_groups:
        return state
    sizes = [sum(g.size for g in groups) for groups in state]
    total = sum(sizes)
    low, up = balance_limits(total, n_cores, balance_threshold)
    # The clustering's own output may sit on the window edge; widen by one
    # iteration so refinement is never blocked outright.
    low -= 1
    up += 1

    def core_tag(core: int) -> int:
        tag = 0
        for g in state[core]:
            tag |= g.tag
        return tag

    core_tags = [core_tag(c) for c in range(n_cores)]
    nodes = _cache_nodes(machine)

    for _ in range(max_passes):
        improved = False
        for donor in range(n_cores):
            for group in list(state[donor]):
                best_gain = 0.0
                best_action: tuple | None = None
                for recipient in range(n_cores):
                    if recipient == donor:
                        continue
                    # Move.
                    if (
                        sizes[donor] - group.size >= low
                        and sizes[recipient] + group.size <= up
                    ):
                        gain = _move_gain(
                            state, core_tags, nodes, donor, group, recipient, None
                        )
                        if gain > best_gain + 1e-9:
                            best_gain = gain
                            best_action = ("move", recipient, None)
                    # Swaps with size-compatible partners.
                    for other in state[recipient]:
                        delta = other.size - group.size
                        if not (
                            low <= sizes[donor] + delta <= up
                            and low <= sizes[recipient] - delta <= up
                        ):
                            continue
                        gain = _move_gain(
                            state, core_tags, nodes, donor, group, recipient, other
                        )
                        if gain > best_gain + 1e-9:
                            best_gain = gain
                            best_action = ("swap", recipient, other)
                if best_action is not None:
                    kind, recipient, other = best_action
                    state[donor].remove(group)
                    state[recipient].append(group)
                    sizes[donor] -= group.size
                    sizes[recipient] += group.size
                    if kind == "swap":
                        state[recipient].remove(other)
                        state[donor].append(other)
                        sizes[donor] += other.size
                        sizes[recipient] -= other.size
                    core_tags[donor] = core_tag(donor)
                    core_tags[recipient] = core_tag(recipient)
                    improved = True
        if not improved:
            break
    return state


def _move_gain(
    state: Assignment,
    core_tags: list[int],
    nodes: Sequence[CacheNode],
    donor: int,
    group: IterationGroup,
    recipient: int,
    swap_with: IterationGroup | None,
) -> float:
    """Cost reduction of moving ``group`` donor->recipient (and optionally
    ``swap_with`` back), computed incrementally on the two changed cores."""
    new_tags = list(core_tags)
    donor_groups = [g for g in state[donor] if g is not group]
    recipient_groups = list(state[recipient]) + [group]
    if swap_with is not None:
        recipient_groups = [g for g in recipient_groups if g is not swap_with]
        donor_groups.append(swap_with)
    tag = 0
    for g in donor_groups:
        tag |= g.tag
    new_tags[donor] = tag
    tag = 0
    for g in recipient_groups:
        tag |= g.tag
    new_tags[recipient] = tag
    # Only tree nodes covering donor or recipient change cost.
    before = after = 0.0
    for latency, below, below_set in nodes:
        if donor in below_set or recipient in below_set:
            old_tag = 0
            new_tag = 0
            for core in below:
                old_tag |= core_tags[core]
                new_tag |= new_tags[core]
            before += latency * ones(old_tag)
            after += latency * ones(new_tag)
    return before - after
