"""The benchmark's own tests: ``python -m pytest perfbench`` from the root.

They cover what a harness running the benchmark relies on: op lists and
request schedules that are a pure function of the seed, metric names and
units that match ``BENCHMARK.json``, enough samples beyond p95, a smoke
size of every workload that runs in seconds, and a non-zero exit without
a result when the program sources are absent.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import map_default
import serve_mixed
from calibration import nearest_rank
from layers import LayerTracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _serve_state(size: str) -> dict:
    kernels = serve_mixed.KERNELS[size] + (serve_mixed.WARMUP[0],)
    return {
        "size": size,
        "wire": {k: {"source": f"<{k}>", "name": k} for k in kernels},
        "block_sizes": {k: 64 * (i + 1) for i, k in enumerate(kernels)},
        "machines": {m: SimpleNamespace(num_cores=8) for m in serve_mixed.MACHINES},
    }


def _ops(requests) -> list:
    return [(r.klass, r.path, json.dumps(r.body, sort_keys=True), r.ref) for r in requests]


def test_map_order_is_a_function_of_the_seed():
    state = {"cells": [SimpleNamespace(key=f"{k}@{m}") for k, m in map_default.CELLS["full"]]}
    orders = {seed: [c.key for c in map_default.schedule(state, seed)] for seed in range(6)}
    assert orders[3] == [c.key for c in map_default.schedule(state, 3)]
    assert all(sorted(o) == sorted(orders[0]) for o in orders.values())
    assert len({tuple(o) for o in orders.values()}) > 1


def test_request_schedule_is_a_function_of_the_seed():
    state = _serve_state("full")
    first = _ops(serve_mixed.schedule(state, 7))
    assert first == _ops(serve_mixed.schedule(_serve_state("full"), 7))
    assert first != _ops(serve_mixed.schedule(state, 8))
    assert sorted(map(repr, first)) == sorted(map(repr, _ops(serve_mixed.schedule(state, 8))))


def test_request_mix_and_first_sightings():
    requests = serve_mixed.schedule(_serve_state("full"), 3)
    classes = [r.klass for r in requests]
    assert len(requests) >= 300
    assert classes.count("hit") / len(requests) > 0.5
    seen = set()
    for request in requests:
        if request.klass == "cold":
            assert request.key not in seen
            seen.add(request.key)
        else:
            assert request.key in seen, "a key is used before its first sighting"
    assert serve_mixed.WARMUP not in seen
    # p95 needs at least ten samples beyond it.
    assert nearest_rank(range(len(requests)), 0.95)[1] >= 10


def test_nearest_rank():
    assert nearest_rank([5, 1, 3, 2, 4], 0.5) == (3, 2)
    assert nearest_rank(list(range(200)), 0.95) == (189, 10)


def test_self_time_subtracts_children():
    tracer = LayerTracer()
    tracer.phase = "measure"
    tracer.spans = [["outer", 0.0, 1.0, -1, "measure"], ["inner", 0.2, 0.5, 0, "measure"]]
    totals = tracer.totals("measure")
    assert totals["outer"]["ms"] == pytest.approx(1000.0)
    assert totals["outer"]["self_ms"] == pytest.approx(700.0)
    assert totals["inner"]["self_ms"] == pytest.approx(300.0)


def test_benchmark_json_names_and_units():
    for group in ("end_to_end", "per_layer"):
        names = [m["name"] for m in SPEC[group]]
        assert len(names) == len(set(names))
        for metric in SPEC[group]:
            assert NAME.fullmatch(metric["name"]) and metric["unit"]
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]
    assert [w["name"] for w in SPEC["workloads"]] == sorted(
        [map_default.NAME, serve_mixed.NAME]
    )


def _run(args, cwd=ROOT) -> tuple[int, str]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done.returncode, done.stdout


@pytest.mark.parametrize(
    "workload,trace",
    [("map-default", "0"), ("serve-mixed", "0"), ("serve-mixed", "1")],
)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    code, out = _run(["--workload", workload, "--seed", "5", "--seconds", "1",
                      "--trace", trace, "--size", "smoke"])
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    group = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in group} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in SPEC["end_to_end"] if trace == "0" else ():
        assert result["metrics"][metric["name"]]["value"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out = _run(["--workload", "map-default", "--seed", "1", "--seconds", "1",
                      "--trace", "0"], cwd=tmp_path)
    assert code != 0 and '"correct"' not in out
