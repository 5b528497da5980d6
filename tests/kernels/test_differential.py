"""Differential tests: the numpy backend against the scalar oracle.

Sixty seeded random loop nests (1–3 deep, 2–4 affine accesses over one or
two arrays, random small coefficients and block sizes) run through the
whole pipeline on both backends.  Every stage must agree *exactly*:
tagging must produce byte-identical GroupSets (tags, write/read tags,
iteration order, idents), scheduling the identical round structure, and
the affinity graph the identical edge list.  Clustering has one
implementation; it must reproduce the quadratic oracle in
``tests/mapping/oracle.py`` merge for merge.
"""

import random

import pytest

pytest.importorskip("numpy", exc_type=ImportError)

from repro.blocks import tagger
from repro.blocks.datablocks import DataBlockPartition
from repro.blocks.groups import IterationGroup
from repro.ir.accesses import ArrayAccess
from repro.ir.arrays import Array
from repro.ir.loops import LoopNest
from repro.kernels.tagging import tag_iterations_numpy
from repro.mapping.affinity_graph import AffinityGraph
from repro.mapping.clustering import cluster_one_level, hierarchical_distribute
from repro.mapping.schedule import dependence_only_schedule, schedule_groups
from repro.poly.affine import AffineExpr
from repro.poly.intset import IntSet
from tests.mapping import oracle

NUM_NESTS = 60


def random_nest(rng: random.Random) -> tuple[LoopNest, DataBlockPartition]:
    """A random rectangular nest with in-bounds affine accesses.

    Subscript expressions get random coefficients in [-2, 2]; each
    array's extents are derived from the subscripts' ranges over the
    iteration box (shifting so the minimum lands on index 0), which keeps
    ``validate_access_bounds`` satisfied by construction.
    """
    depth = rng.randint(1, 3)
    dims = tuple(f"i{k}" for k in range(depth))
    bounds = [(0, rng.randint(2, 7)) for _ in range(depth)]
    space = IntSet.box(dims, bounds)

    num_arrays = rng.randint(1, 2)
    ranks = [rng.randint(1, 2) for _ in range(num_arrays)]
    num_accesses = rng.randint(2, 4)
    specs = []
    for index in range(num_accesses):
        arr = rng.randrange(num_arrays)
        subs = []
        for _ in range(ranks[arr]):
            coeffs = [rng.randint(-2, 2) for _ in range(depth)]
            subs.append((rng.randint(-3, 3), coeffs))
        specs.append((arr, subs, index == 0))

    # Subscript range over the box: an affine form is extremal at corners.
    mins: dict[tuple[int, int], int] = {}
    maxs: dict[tuple[int, int], int] = {}
    for arr, subs, _ in specs:
        for d, (constant, coeffs) in enumerate(subs):
            lo = constant + sum(min(c * b[0], c * b[1]) for c, b in zip(coeffs, bounds))
            hi = constant + sum(max(c * b[0], c * b[1]) for c, b in zip(coeffs, bounds))
            key = (arr, d)
            mins[key] = min(mins.get(key, lo), lo)
            maxs[key] = max(maxs.get(key, hi), hi)

    # An array the access draw never picked still needs valid extents.
    arrays = [
        Array(
            f"A{a}",
            tuple(
                maxs.get((a, d), 0) - mins.get((a, d), 0) + 1
                for d in range(ranks[a])
            ),
        )
        for a in range(num_arrays)
    ]
    accesses = []
    for arr, subs, is_write in specs:
        exprs = []
        for d, (constant, coeffs) in enumerate(subs):
            expr = AffineExpr.const(constant - mins[(arr, d)])
            for c, name in zip(coeffs, dims):
                expr = expr + AffineExpr.var(name) * c
            exprs.append(expr)
        accesses.append(ArrayAccess(arrays[arr], dims, exprs, is_write=is_write))
    nest = LoopNest("rand", space, accesses)
    partition = DataBlockPartition(tuple(arrays), rng.choice([64, 128, 256]))
    return nest, partition


def groupset_fingerprint(gs):
    return [
        (g.ident, g.tag, g.write_tag, g.read_tag, g.iterations) for g in gs.groups
    ]


def schedule_fingerprint(rounds):
    return [[[g.ident for g in rnd] for rnd in core] for core in rounds]


@pytest.mark.parametrize("seed", range(NUM_NESTS))
def test_tagging_backends_identical(seed):
    rng = random.Random(seed)
    nest, partition = random_nest(rng)
    nest.validate_access_bounds()

    IterationGroup.reset_idents()
    scalar = tagger.tag_iterations(nest, partition, backend="python")
    IterationGroup.reset_idents()
    vectorized = tag_iterations_numpy(
        nest, partition, tagger.resolve_accesses(nest, partition)
    )
    assert vectorized is not None, "rectangular nest must vectorize"
    assert groupset_fingerprint(scalar) == groupset_fingerprint(vectorized)
    vectorized.verify_partition()


@pytest.mark.parametrize("seed", range(NUM_NESTS))
def test_mapping_backends_identical(seed, fig9_machine):
    rng = random.Random(seed)
    nest, partition = random_nest(rng)
    IterationGroup.reset_idents()
    groups = list(tagger.tag_iterations(nest, partition, backend="python").groups)

    graph_py = AffinityGraph(groups, backend="python")
    graph_np = AffinityGraph(groups, backend="numpy")
    edges_py = [(a.ident, b.ident, w) for a, b, w in graph_py.edges()]
    edges_np = [(a.ident, b.ident, w) for a, b, w in graph_np.edges()]
    assert edges_py == edges_np
    assert graph_py.total_sharing() == graph_np.total_sharing()

    # Load balancing may split groups, which mints new idents; rewind the
    # counter to a common base before each backend run so the fresh
    # idents line up between the two.
    base = 10_000

    if len(groups) >= 2:
        IterationGroup.reset_idents(base)
        merged = cluster_one_level(groups, 2, 0.10)
        IterationGroup.reset_idents(base)
        expected = oracle.cluster_one_level(groups, 2, 0.10)
        assert [[g.ident for g in c.groups] for c in merged] == [
            [g.ident for g in c.groups] for c in expected
        ]

    if sum(g.size for g in groups) < 2 * fig9_machine.num_cores:
        return
    IterationGroup.reset_idents(base)
    dist_py = hierarchical_distribute(groups, fig9_machine)
    IterationGroup.reset_idents(base)
    dist_oracle = oracle.hierarchical_distribute(groups, fig9_machine)
    assert [[g.ident for g in core] for core in dist_py] == [
        [g.ident for g in core] for core in dist_oracle
    ]

    sched_py = schedule_groups(dist_py, fig9_machine, backend="python")
    sched_np = schedule_groups(dist_py, fig9_machine, backend="numpy")
    assert schedule_fingerprint(sched_py) == schedule_fingerprint(sched_np)

    dep_py = dependence_only_schedule(dist_py, fig9_machine, backend="python")
    dep_np = dependence_only_schedule(dist_py, fig9_machine, backend="numpy")
    assert schedule_fingerprint(dep_py) == schedule_fingerprint(dep_np)
