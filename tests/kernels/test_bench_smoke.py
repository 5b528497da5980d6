"""Tier-1 smoke coverage for the microbenchmark harness.

Runs the full harness machinery on a tiny 16x16 config and checks the
report *structure* — never the timings, which would be flaky on loaded
CI machines.  The real timing assertions live in ``benchmarks/perf/``
behind the ``perf`` marker.
"""

import json

import pytest

pytest.importorskip("numpy", exc_type=ImportError)

from repro.kernels.bench import (
    SMOKE_CONFIGS,
    bench_affinity,
    run_suite,
    write_report,
)

pytestmark = pytest.mark.perf_smoke


def test_smoke_suite_structure(tmp_path):
    report = run_suite(configs=SMOKE_CONFIGS, repeats=1)
    kinds = [e["kernel"] for e in report["entries"]]
    assert kinds == ["tagging", "affinity-matrix"]
    for entry in report["entries"]:
        assert entry["python_ms"] > 0
        assert entry["numpy_ms"] > 0
        # Speedup is computed from unrounded seconds; allow the rounding
        # slack of the reported millisecond fields.
        assert entry["speedup"] == pytest.approx(
            entry["python_ms"] / entry["numpy_ms"], rel=0.05
        )

    out = tmp_path / "BENCH_kernels.json"
    write_report(report, str(out))
    loaded = json.loads(out.read_text())
    assert loaded["entries"] == report["entries"]
    assert loaded["timing"].startswith("best of")


def test_bench_cross_checks_backends(monkeypatch):
    """The harness refuses to time backends that disagree."""
    import repro.kernels.affinity as affinity

    original = affinity.dot_matrix

    def broken_matrix(packed):
        return original(packed) + 1

    monkeypatch.setattr(affinity, "dot_matrix", broken_matrix)
    with pytest.raises(AssertionError, match="disagree"):
        bench_affinity("stencil-16", 16, 256, repeats=1)


def test_main_entry_point(tmp_path, monkeypatch):
    import repro.kernels.bench as bench

    monkeypatch.setattr(bench, "TAGGING_CONFIGS", SMOKE_CONFIGS)
    out = tmp_path / "report.json"
    assert bench.main(["--out", str(out), "--repeats", "1"]) == 0
    assert json.loads(out.read_text())["entries"]
