"""Microbenchmarks for the vectorized kernel layer.

Times the scalar reference against the numpy backend on tagging and the
pairwise affinity table, over nests whose size and block geometry mirror
the paper's compile-time experiments.  (Clustering has no numpy backend:
it scores only the pairs that share a data block.)
Timings are best-of-N wall clock (best-of suppresses scheduler noise
better than means for sub-second kernels); both backends run on
identical inputs and their outputs are cross-checked before timing, so a
reported speedup is always a speedup on verified-identical work.

Run directly::

    PYTHONPATH=src python -m repro.kernels.bench [--out BENCH_kernels.json]

or through the pytest wrapper in ``benchmarks/perf/``.
"""

from __future__ import annotations

import json
import platform
import time
from collections.abc import Callable

from repro.blocks import tagger
from repro.blocks.datablocks import DataBlockPartition
from repro.blocks.groups import IterationGroup
from repro.blocks.tags import dot
from repro.ir.accesses import ArrayAccess
from repro.ir.arrays import Array
from repro.ir.loops import LoopNest
from repro.kernels import have_numpy
from repro.poly.affine import AffineExpr
from repro.poly.intset import IntSet

#: (name, n, block_size) tagging configurations.  All are two-array
#: nests with n >= 64 except the smoke entry used by the tier-1 marker.
TAGGING_CONFIGS = (
    ("stencil-64", 64, 512),
    ("stencil-128", 128, 1024),
    ("stencil-256", 256, 2048),
    ("shifted-row-128", 128, 1024),
)

SMOKE_CONFIGS = (("stencil-16", 16, 256),)


def stencil_nest(n: int, block_size: int) -> tuple[LoopNest, DataBlockPartition]:
    """Two-array five-point-style nest: ``A[i+1,j+1] = f(B[i,j], A[i,j+1],
    A[i+2,j+1])`` over an ``n x n`` space."""
    a = Array("A", (n + 2, n + 2))
    b = Array("B", (n, n))
    i, j = AffineExpr.var("i"), AffineExpr.var("j")
    dims = ("i", "j")
    space = IntSet.box(dims, [(0, n - 1), (0, n - 1)])
    accesses = [
        ArrayAccess(a, dims, (i + 1, j + 1), is_write=True),
        ArrayAccess(b, dims, (i, j)),
        ArrayAccess(a, dims, (i, j + 1)),
        ArrayAccess(a, dims, (i + 2, j + 1)),
    ]
    return LoopNest(f"stencil-{n}", space, accesses), DataBlockPartition((a, b), block_size)


def shifted_row_nest(n: int, block_size: int) -> tuple[LoopNest, DataBlockPartition]:
    """Two-array row-contiguous nest: ``A[i,j] = B[i,j] + B[i,j+1]``."""
    a = Array("A", (n, n))
    b = Array("B", (n, n + 1))
    i, j = AffineExpr.var("i"), AffineExpr.var("j")
    dims = ("i", "j")
    space = IntSet.box(dims, [(0, n - 1), (0, n - 1)])
    accesses = [
        ArrayAccess(a, dims, (i, j), is_write=True),
        ArrayAccess(b, dims, (i, j)),
        ArrayAccess(b, dims, (i, j + 1)),
    ]
    return LoopNest(f"shifted-row-{n}", space, accesses), DataBlockPartition((a, b), block_size)


def build_config(name: str, n: int, block_size: int) -> tuple[LoopNest, DataBlockPartition]:
    builder = shifted_row_nest if name.startswith("shifted-row") else stencil_nest
    return builder(n, block_size)


def best_of(fn: Callable[[], object], repeats: int) -> float:
    """Best wall-clock seconds over ``repeats`` calls (first call warm)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _groupset_fingerprint(gs) -> list[tuple]:
    return [(g.ident, g.tag, g.write_tag, g.read_tag, g.iterations) for g in gs.groups]


def bench_tagging(name: str, n: int, block_size: int, repeats: int = 5) -> dict:
    nest, partition = build_config(name, n, block_size)

    IterationGroup.reset_idents()
    scalar = tagger.tag_iterations(nest, partition, backend="python")
    IterationGroup.reset_idents()
    vectorized = tagger.tag_iterations(nest, partition, backend="numpy")
    if _groupset_fingerprint(scalar) != _groupset_fingerprint(vectorized):
        raise AssertionError(f"backends disagree on {name}")

    python_s = best_of(lambda: tagger.tag_iterations(nest, partition, backend="python"), repeats)
    numpy_s = best_of(lambda: tagger.tag_iterations(nest, partition, backend="numpy"), repeats)
    return {
        "kernel": "tagging",
        "config": name,
        "iterations": nest.iteration_count(),
        "num_blocks": partition.num_blocks,
        "groups": len(scalar),
        "python_ms": round(python_s * 1e3, 3),
        "numpy_ms": round(numpy_s * 1e3, 3),
        "speedup": round(python_s / numpy_s, 2),
    }


def bench_affinity(name: str, n: int, block_size: int, repeats: int = 5) -> dict:
    """Pairwise dot table: G^2 scalar big-int dots vs one dot_matrix."""
    nest, partition = build_config(name, n, block_size)
    groups = list(tagger.tag_iterations(nest, partition, backend="python").groups)
    tags = [g.tag for g in groups]

    def scalar_table():
        return [[dot(a, b) for b in tags] for a in tags]

    from repro.kernels.affinity import dot_matrix
    from repro.kernels.lanes import lanes_for_bits, pack_tags

    def numpy_table():
        packed = pack_tags(tags, lanes_for_bits(partition.num_blocks))
        return dot_matrix(packed)

    if scalar_table() != numpy_table().tolist():
        raise AssertionError(f"affinity tables disagree on {name}")
    python_s = best_of(scalar_table, repeats)
    numpy_s = best_of(numpy_table, repeats)
    return {
        "kernel": "affinity-matrix",
        "config": name,
        "groups": len(groups),
        "num_blocks": partition.num_blocks,
        "python_ms": round(python_s * 1e3, 3),
        "numpy_ms": round(numpy_s * 1e3, 3),
        "speedup": round(python_s / numpy_s, 2),
    }


def run_suite(configs=None, repeats: int = 5) -> dict:
    """The full microbenchmark report as a JSON-serializable dict."""
    if configs is None:
        configs = TAGGING_CONFIGS
    if not have_numpy():
        raise RuntimeError("kernel microbenchmarks need numpy")
    import numpy

    entries = []
    for name, n, block_size in configs:
        entries.append(bench_tagging(name, n, block_size, repeats))
    # Affinity at both ends of the group-count range.
    head, tail = configs[0], configs[-1]
    entries.append(bench_affinity(head[0], head[1], head[2], repeats))
    if tail is not head:
        entries.append(bench_affinity(tail[0], tail[1], tail[2], repeats))
    return {
        "suite": "repro.kernels microbenchmarks",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "timing": f"best of {repeats}, warm",
        "entries": entries,
    }


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_kernels.json")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    report = run_suite(repeats=args.repeats)
    write_report(report, args.out)
    for entry in report["entries"]:
        print(
            f"{entry['kernel']:16s} {entry['config']:16s} "
            f"py {entry['python_ms']:8.1f}ms  np {entry['numpy_ms']:8.1f}ms  "
            f"{entry['speedup']:5.2f}x"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
