"""Unit tests for the Figure 7 scheduler."""

import pytest

from repro.errors import ScheduleError
from repro.blocks.groups import IterationGroup
from repro.mapping.dependence import GroupDependenceGraph
from repro.mapping.schedule import dependence_only_schedule, schedule_groups


def group(tag, size=2, start=0):
    return IterationGroup(tag, [(start + k,) for k in range(size)])


def flatten(rounds):
    return [g for rnd in rounds for g in rnd]


class TestBasicScheduling:
    def test_schedules_everything_once(self, fig9_machine):
        assignments = [
            [group(0b11, start=0), group(0b110, start=10)],
            [group(0b1100, start=20)],
            [group(0b11000, start=30)],
            [group(0b110000, start=40), group(0b1100000, start=50)],
        ]
        result = schedule_groups(assignments, fig9_machine)
        for core, groups in enumerate(assignments):
            scheduled = flatten(result[core])
            assert {g.ident for g in scheduled} == {g.ident for g in groups}

    def test_round_counts_aligned(self, fig9_machine):
        assignments = [[group(1, start=10 * k)] for k in range(4)]
        result = schedule_groups(assignments, fig9_machine)
        assert len({len(rounds) for rounds in result}) == 1

    def test_wrong_core_count(self, fig9_machine):
        with pytest.raises(ScheduleError):
            schedule_groups([[], []], fig9_machine)

    @pytest.mark.parametrize("weights", [(float("nan"), 0.5), (0.5, float("inf"))])
    def test_non_finite_weights_rejected(self, fig9_machine, weights):
        assignments = [[group(1, start=10 * k)] for k in range(4)]
        with pytest.raises(ScheduleError, match="finite"):
            schedule_groups(assignments, fig9_machine, None, *weights)

    def test_empty_core_allowed(self, fig9_machine):
        assignments = [[group(1)], [], [], []]
        result = schedule_groups(assignments, fig9_machine)
        assert flatten(result[1]) == []

    def test_first_pick_is_fewest_ones(self, two_core_machine):
        sparse = group(0b1, start=0)
        dense = group(0b111, start=10)
        result = schedule_groups([[dense, sparse], []], two_core_machine)
        assert flatten(result[0])[0].ident == sparse.ident

    def test_vertical_chaining(self, two_core_machine):
        # After scheduling 0b0011, beta should prefer 0b0110 over 0b1100.
        first = group(0b0011, start=0)
        shared = group(0b0110, start=10)
        unrelated = group(0b11000, start=20)
        result = schedule_groups(
            [[first, unrelated, shared], []], two_core_machine, alpha=0.0, beta=1.0
        )
        order = [g.ident for g in flatten(result[0])]
        assert order.index(shared.ident) < order.index(unrelated.ident)


class TestDependenceAware:
    def test_dependences_respected_across_rounds(self, fig9_machine):
        a = group(0b1, start=0)
        b = group(0b10, start=10)
        graph = GroupDependenceGraph([a.ident, b.ident], [(a.ident, b.ident)])
        # b (dependent) on core 0, a (prerequisite) on core 1.
        result = schedule_groups([[b], [a], [], []], fig9_machine, graph)
        round_of = {}
        for core, rounds in enumerate(result):
            for rnd_idx, rnd in enumerate(rounds):
                for g in rnd:
                    round_of[g.ident] = rnd_idx
        assert round_of[a.ident] < round_of[b.ident]

    def test_chain_forces_multiple_rounds(self, two_core_machine):
        chain = [group(1 << k, start=10 * k) for k in range(4)]
        edges = [(chain[k].ident, chain[k + 1].ident) for k in range(3)]
        graph = GroupDependenceGraph([g.ident for g in chain], edges)
        result = schedule_groups(
            [[chain[0], chain[2]], [chain[1], chain[3]]], two_core_machine, graph
        )
        round_of = {}
        for rounds in result:
            for rnd_idx, rnd in enumerate(rounds):
                for g in rnd:
                    round_of[g.ident] = rnd_idx
        for a, b in edges:
            assert round_of[a] < round_of[b]

    def test_cross_core_cycle_raises(self, two_core_machine):
        a = group(0b1, start=0)
        b = group(0b10, start=10)
        graph = GroupDependenceGraph(
            [a.ident, b.ident], [(a.ident, b.ident), (b.ident, a.ident)]
        )
        with pytest.raises(ScheduleError):
            schedule_groups([[a], [b]], two_core_machine, graph)


class TestDependenceOnlySchedule:
    def test_no_graph_single_round(self, fig9_machine):
        assignments = [[group(1, start=10 * k), group(2, start=100 + 10 * k)] for k in range(4)]
        result = dependence_only_schedule(assignments, fig9_machine, None)
        assert all(len(rounds) == 1 for rounds in result)

    def test_orders_by_first_iteration(self, fig9_machine):
        late = group(0b1, start=50)
        early = group(0b10, start=0)
        result = dependence_only_schedule([[late, early], [], [], []], fig9_machine, None)
        assert [g.ident for g in result[0][0]] == [early.ident, late.ident]

    def test_with_graph_produces_rounds(self, two_core_machine):
        a = group(0b1, start=0)
        b = group(0b10, start=10)
        graph = GroupDependenceGraph([a.ident, b.ident], [(a.ident, b.ident)])
        result = dependence_only_schedule([[b], [a]], two_core_machine, graph)
        assert max(len(r) for r in result) >= 2
