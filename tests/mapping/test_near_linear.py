"""The near-linear Figure 6/7 mapper against the quadratic oracle.

``tests/mapping/oracle.py`` holds the clustering, balancing and
scheduling code as it was before the block index, the incremental
balance picks and the readiness counters.  The hypothesis suites below
drive both over random tag sets — general ones, dense ones where every
group holds one common block, and mostly zero-affinity ones — and
require the same clusters, the same moves and splits (obs counters
included), and the same schedules.  The scaling guard counts dot
products, so it is exact on any host.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.blocks.datablocks import DataBlockPartition
from repro.blocks.groups import IterationGroup
from repro.blocks.tagger import tag_iterations
from repro.lang import compile_source
from repro.mapping import balance, clustering
from repro.mapping.dependence import GroupDependenceGraph
from repro.mapping.schedule import schedule_groups
from repro.obs.sinks import CollectorSink
from repro.topology.cache import CacheSpec
from repro.topology.tree import Machine, TopologyNode
from tests.mapping import oracle

#: Counters both implementations must agree on.
DECISIONS = (
    "cluster.merges",
    "cluster.zero_affinity_merges",
    "cluster.splits",
    "cluster.idle_padding",
    "balance.moves",
    "balance.splits",
    "balance.forced_moves",
)

#: Idents minted by balancing splits start here in both runs.
SPLIT_BASE = 100_000


def make_groups(specs: list[tuple[int, int]]) -> list[IterationGroup]:
    """One group per ``(tag, size)``, over disjoint 1-D iterations."""
    IterationGroup.reset_idents()
    groups = []
    start = 0
    for tag, size in specs:
        groups.append(IterationGroup(tag, [(start + t,) for t in range(size)]))
        start += size
    return groups


def tag_of(blocks) -> int:
    tag = 0
    for block in blocks:
        tag |= 1 << block
    return tag


sizes = st.integers(min_value=1, max_value=9)
general = st.lists(
    st.tuples(st.sets(st.integers(0, 40), max_size=6).map(tag_of), sizes),
    min_size=1,
    max_size=40,
)
dense = st.lists(
    st.tuples(st.sets(st.integers(1, 30), max_size=4).map(lambda b: tag_of(b) | 1), sizes),
    min_size=1,
    max_size=40,
)
# Mostly private blocks: each group owns a block of its own and rarely
# touches one of a handful of shared ones.
sparse = st.lists(
    st.tuples(st.booleans(), st.integers(0, 3), sizes),
    min_size=1,
    max_size=40,
).map(
    lambda rows: [
        (1 << (8 + i) | (1 << shared if touches else 0), size)
        for i, (touches, shared, size) in enumerate(rows)
    ]
)
tag_sets = st.one_of(general, dense, sparse)


def traced(fn):
    """Run ``fn`` with a fresh split-ident base; return (result, decisions)."""
    IterationGroup.reset_idents(SPLIT_BASE)
    sink = CollectorSink()
    with obs.tracing(sink):
        result = fn()
    counters = sink.summary()["counters"]
    return result, {name: counters.get(name, 0) for name in DECISIONS}


def shape(clusters) -> list[tuple]:
    return [
        (c.tag, c.size, [(g.ident, g.tag, g.iterations) for g in c.groups])
        for c in clusters
    ]


@settings(max_examples=120, deadline=None)
@given(specs=tag_sets, k=st.integers(1, 6))
def test_cluster_to_k_matches_oracle(specs, k):
    groups = make_groups(specs)
    got, got_decisions = traced(lambda: clustering._cluster_to_k(groups, k))
    want, want_decisions = traced(lambda: oracle._cluster_to_k(groups, k))
    assert shape(got) == shape(want)
    assert got_decisions == want_decisions


@settings(max_examples=120, deadline=None)
@given(
    specs=tag_sets,
    k=st.integers(2, 6),
    threshold=st.sampled_from([0.0, 0.05, 0.10, 0.25]),
)
def test_cluster_one_level_matches_oracle(specs, k, threshold):
    groups = make_groups(specs)
    got, got_decisions = traced(lambda: clustering.cluster_one_level(groups, k, threshold))
    want, want_decisions = traced(lambda: oracle.cluster_one_level(groups, k, threshold))
    assert shape(got) == shape(want)
    assert got_decisions == want_decisions


@settings(max_examples=80, deadline=None)
@given(
    specs=tag_sets,
    weights=st.lists(st.integers(1, 4), min_size=2, max_size=4),
    threshold=st.sampled_from([0.0, 0.10, 0.25]),
)
def test_cluster_weighted_matches_oracle(specs, weights, threshold):
    groups = make_groups(specs)
    got, got_decisions = traced(
        lambda: clustering.cluster_weighted(groups, weights, threshold)
    )
    want, want_decisions = traced(
        lambda: oracle.cluster_weighted(groups, weights, threshold)
    )
    assert shape(got) == shape(want)
    assert got_decisions == want_decisions


@settings(max_examples=120, deadline=None)
@given(
    specs=tag_sets,
    k=st.integers(2, 5),
    seed=st.integers(0, 2**16),
    threshold=st.sampled_from([0.0, 0.05, 0.10, 0.25]),
)
def test_balance_matches_oracle_from_skewed_start(specs, k, seed, threshold):
    """Balancing alone, from a random (typically very unbalanced) split."""
    groups = make_groups(specs)
    rng = random.Random(seed)
    owner = [min(rng.randrange(k), rng.randrange(k)) for _ in groups]

    def start(cls):
        return [cls([g for g, o in zip(groups, owner) if o == c]) for c in range(k)]

    def run(module):
        clusters = start(module.Cluster)
        module.balance_clusters(clusters, threshold)
        return clusters

    got, got_decisions = traced(lambda: run(balance))
    want, want_decisions = traced(lambda: run(oracle))
    assert shape(got) == shape(want)
    assert got_decisions == want_decisions

    targets = [rng.randint(1, 3) * 1.0 for _ in range(k)]

    def run_targets(module):
        clusters = start(module.Cluster)
        module.balance_to_targets(clusters, targets, threshold)
        return clusters

    got, got_decisions = traced(lambda: run_targets(balance))
    want, want_decisions = traced(lambda: run_targets(oracle))
    assert shape(got) == shape(want)
    assert got_decisions == want_decisions


def test_forced_single_iteration_moves_match_oracle():
    """Sizes (4, 2, 2) at threshold 0: no whole move fits, nothing splits."""
    groups = make_groups([(0b1, 1), (0b10, 1), (0b100, 1), (0b1000, 1), (0b10, 2), (0b1, 2)])
    owner = [0, 0, 0, 0, 1, 2]

    def run(module):
        clusters = [
            module.Cluster([g for g, o in zip(groups, owner) if o == c]) for c in range(3)
        ]
        module.balance_clusters(clusters, 0.0)
        return clusters

    got, got_decisions = traced(lambda: run(balance))
    want, want_decisions = traced(lambda: run(oracle))
    assert shape(got) == shape(want)
    assert got_decisions == want_decisions
    assert got_decisions["balance.forced_moves"] > 0


def test_cluster_remove_keeps_tag_exact():
    groups = make_groups([(0b0011, 1), (0b0110, 2), (0b1100, 3)])
    cluster = balance.Cluster(groups)
    cluster.remove(groups[0])
    assert (cluster.tag, cluster.size) == (0b1110, 5)
    cluster.add(groups[0])
    cluster.by_size()
    cluster.remove(groups[1])
    assert cluster.tag == 0b1111
    cluster.remove(groups[0])
    assert (cluster.tag, cluster.size) == (0b1100, 3)
    assert [entry[2] for entry in cluster.by_size()] == [groups[2]]
    cluster.add(groups[1])
    assert cluster.tag == 0b1110
    assert cluster.holders()[1] == {groups[1]}
    assert [entry[2] for entry in cluster.by_size()] == [groups[1], groups[2]]


def six_core_machine() -> Machine:
    """Private L1s, two L2s shared by three cores each, one L3 root."""
    l1 = CacheSpec("L1", 1024, 2, 32, 2)
    l2 = CacheSpec("L2", 4096, 4, 32, 8)
    l3 = CacheSpec("L3", 16384, 8, 32, 20)
    l1s = [TopologyNode.cache(l1, [TopologyNode.core(i)]) for i in range(6)]
    l2s = [TopologyNode.cache(l2, l1s[0:3]), TopologyNode.cache(l2, l1s[3:6])]
    return Machine("six", 2.0, 100, TopologyNode.cache(l3, l2s), sockets=1)


@settings(max_examples=100, deadline=None)
@given(
    specs=tag_sets,
    seed=st.integers(0, 2**16),
    edge_rate=st.sampled_from([0.0, 0.05, 0.2]),
    weights=st.sampled_from([(0.5, 0.5), (0.0, 0.0), (1.0, 0.0), (0.0, 2.0)]),
)
def test_schedule_matches_oracle(specs, seed, edge_rate, weights):
    """Random assignments and random forward (acyclic) dependences."""
    machine = six_core_machine()
    groups = make_groups(specs)
    rng = random.Random(seed)
    assignments = [[] for _ in range(machine.num_cores)]
    for group in groups:
        assignments[rng.randrange(len(assignments))].append(group)
    idents = [g.ident for g in groups]
    edges = [
        (a, b) for i, a in enumerate(idents) for b in idents[i + 1 :] if rng.random() < edge_rate
    ]
    graph = GroupDependenceGraph(idents, edges) if edges else None
    alpha, beta = weights

    def idents_of(result):
        return [[[g.ident for g in rnd] for rnd in core] for core in result]

    got = schedule_groups(assignments, machine, graph, alpha, beta)
    want = oracle.schedule_groups(assignments, machine, graph, alpha, beta)
    assert idents_of(got) == idents_of(want)


def banded_groups(m: int) -> list[IterationGroup]:
    """Groups of a 1-D three-point band: each shares blocks with O(1) others."""
    program = compile_source(
        f"""
        array A[{m}];
        array B[{m}];
        parallel for (j = 1; j < {m} - 1; j++)
          B[j] = A[j - 1] + A[j] + A[j + 1];
        """,
        name=f"band{m}",
    )
    nest = program.nests[0]
    partition = DataBlockPartition([program.arrays[a.name] for a in nest.arrays()], 16)
    return list(tag_iterations(nest, partition).groups)


def test_cluster_dots_grow_linearly_on_a_band():
    """``cluster.dots`` per group stays flat as the band grows 8x."""
    per_group = []
    for m in (512, 1024, 2048, 4096):
        groups = banded_groups(m)
        sink = CollectorSink()
        with obs.tracing(sink):
            clustering.cluster_one_level(groups, 4, 0.10)
        dots = sink.summary()["counters"]["cluster.dots"]
        per_group.append(dots / len(groups))
    assert max(per_group) <= 1.1 * per_group[0], per_group
