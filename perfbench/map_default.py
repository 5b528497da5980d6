"""map-default: the user path at the paper's own knobs.

Each op is a cold ``MappingPipeline(sim_machine(m), Knobs())`` with no
artifact store (the Section 4.1 block-size heuristic, a 10% balance
threshold, local scheduling) running ``map_nest`` -> ``plan()`` ->
``execute_plan`` for one (kernel, machine) cell.  Distribution
(clustering, balance, refine) dominates each map, scheduling follows;
tagging and simulation are small.  Base cycles come from set-up.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time
from dataclasses import dataclass

from calibration import geomean, peak_rss_mb

NAME = "map-default"
#: Cycle the op list until --seconds have passed.
CYCLES = True

#: The cells: sp, namd and bodytrack on the three paper machines plus
#: h264 on nehalem (784 to 2,760 iteration groups).  The smoke size
#: keeps the smallest cell so the path runs in about a second.
CELLS = {
    "full": (
        ("sp", "harpertown"), ("namd", "harpertown"), ("bodytrack", "harpertown"),
        ("sp", "nehalem"), ("namd", "nehalem"), ("bodytrack", "nehalem"),
        ("h264", "nehalem"),
        ("sp", "dunnington"), ("namd", "dunnington"), ("bodytrack", "dunnington"),
    ),
    "smoke": (("sp", "harpertown"),),
}

#: End-to-end figures of this workload that BENCHMARK.json cannot gate
#: (the other workload has no value for them); the traced run reports
#: them as ``map-default.<name>``.
TRACED_EXTRAS = (
    "map_s", "simulate_s", "sim_maccess_per_s", "op_p50_ms", "speedup_geomean",
    "sim_cycles_geomean",
)

#: The warm-up op, excluded from every metric.
WARMUP = ("sp", "harpertown")

#: Knobs() default; the load check holds each core to the balance
#: algorithm's guarantee, load <= (1 + threshold) * average.
BALANCE_THRESHOLD = 0.10


@dataclass
class Cell:
    kernel: str
    machine_name: str
    program: object
    nest: object
    machine: object
    base_cycles: int
    base_accesses: int

    @property
    def key(self) -> str:
        return f"{self.kernel}@{self.machine_name}"


def setup(size: str, workdir: str) -> dict:
    """Compile the kernels, build the scaled machines, run Base plans."""
    from repro import lang
    from repro.experiments.harness import sim_machine
    from repro.mapping import base_plan
    from repro.runtime import execute_plan
    from repro.topology.resolve import resolve_machine
    from repro.workloads import workload

    cells = CELLS[size] + (WARMUP,)
    programs = {}
    machines = {}
    for kernel, machine_name in cells:
        if kernel not in programs:
            programs[kernel] = lang.compile_source(workload(kernel).source, name=kernel)
        if machine_name not in machines:
            machines[machine_name] = sim_machine(resolve_machine(machine_name))
    built = {}
    for kernel, machine_name in cells:
        program = programs[kernel]
        nest = program.nests[0]
        machine = machines[machine_name]
        base = execute_plan(base_plan(nest, machine))
        built[(kernel, machine_name)] = Cell(
            kernel, machine_name, program, nest, machine, base.cycles, base.total_accesses
        )
    return {"cells": [built[c] for c in CELLS[size]], "warmup": built[WARMUP]}


def teardown(state: dict) -> None:
    pass


def schedule(state: dict, seed: int) -> list[Cell]:
    """The seed's op order: every cell once, shuffled."""
    order = list(state["cells"])
    random.Random(seed).shuffle(order)
    return order


def warmup(state: dict) -> None:
    run_op(state, state["warmup"])


def run_op(state: dict, cell: Cell) -> dict:
    from repro.pipeline import Knobs, MappingPipeline
    from repro.runtime import execute_plan

    started = time.process_time()
    pipeline = MappingPipeline(cell.machine, Knobs())
    result = pipeline.map_nest(cell.program, cell.nest)
    plan = result.plan()
    mapped = time.process_time()
    sim = execute_plan(plan)
    done = time.process_time()
    return {
        "plan": plan,
        "sim": sim,
        "groups": len(result.group_set.groups),
        "map_cpu": mapped - started,
        "sim_cpu": done - mapped,
    }


def plan_fingerprint(plan) -> str:
    from repro.runtime.serialize import plan_to_json

    return hashlib.sha256(plan_to_json(plan).encode()).hexdigest()[:16]


def check_op(state: dict, cell: Cell, out: dict) -> tuple[dict, list[str]]:
    """Independent output checks; returns a compact record and errors."""
    plan, sim = out["plan"], out["sim"]
    errors = []
    try:
        plan.verify_complete()
        sim.verify_conservation()
    except Exception as error:  # the check reports any failure as wrong output
        errors.append(f"{cell.key}: {type(error).__name__}: {error}")
    loads = [sum(len(rnd) for rnd in core) for core in plan.rounds]
    limit = (1 + BALANCE_THRESHOLD) * sum(loads) / len(loads)
    if max(loads) > limit:
        errors.append(f"{cell.key}: core load {max(loads)} above {limit:.1f}")
    if sim.total_accesses != cell.base_accesses:
        errors.append(
            f"{cell.key}: {sim.total_accesses} accesses, Base made {cell.base_accesses}"
        )
    record = {
        "key": cell.key,
        "fingerprint": plan_fingerprint(plan),
        "cycles": sim.cycles,
        "speedup": cell.base_cycles / sim.cycles,
        "accesses": sim.total_accesses,
        "groups": out["groups"],
        "map_cpu": out["map_cpu"],
        "sim_cpu": out["sim_cpu"],
    }
    return record, errors


def summarize(state: dict, samples: list, clock, tracer=None, collector=None, memo=None) -> dict:
    """Metrics of one pass; ``samples`` are (cell, record, timing).

    An op costs its calibrated CPU time (the pass is single-threaded);
    a cell that ran more than once counts with its median.
    """
    per_cell: dict[str, list] = {}
    errors = []
    for cell, record, timing in samples:
        scale = clock.scale(timing)
        per_cell.setdefault(cell.key, []).append((
            timing.cpu * scale, record["map_cpu"] * scale, record["sim_cpu"] * scale,
            record, timing.wall,
        ))
    firsts = {}
    for key, runs in per_cell.items():
        firsts[key] = runs[0][3]
        if len({r[3]["fingerprint"] for r in runs}) != 1:
            errors.append(f"{key}: plan differs between repeats of the same op")
    op_s = {k: statistics.median(r[0] for r in runs) for k, runs in per_cell.items()}
    map_s = sum(statistics.median(r[1] for r in runs) for runs in per_cell.values())
    sim_s = sum(statistics.median(r[2] for r in runs) for runs in per_cell.values())
    e2e = sum(op_s.values())
    raw_e2e = sum(statistics.median(r[4] for r in runs) for runs in per_cell.values())
    accesses = sum(r["accesses"] for r in firsts.values())
    metrics = {
        "e2e_s": (e2e, "s"),
        "ops_per_s": (len(op_s) / e2e, "1/s"),
        "op_p50_ms": (statistics.median(op_s.values()) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {
        "map_s": (map_s, "s"),
        "simulate_s": (sim_s, "s"),
        "sim_maccess_per_s": (accesses / 1e6 / sim_s, "Maccess/s"),
        "speedup_geomean": (geomean([r["speedup"] for r in firsts.values()]), "ratio"),
        "sim_cycles_geomean": (geomean([r["cycles"] for r in firsts.values()]), "cycles"),
    }
    report = [
        f"  {key:<22} groups={r['groups']:>5} op={op_s[key]:7.3f}s "
        f"speedup={r['speedup']:.4f} cycles={r['cycles']} plan={r['fingerprint']}"
        for key, r in sorted(firsts.items())
    ]
    report.append(
        "  plans fingerprint "
        + hashlib.sha256(
            "".join(firsts[k]["fingerprint"] for k in sorted(firsts)).encode()
        ).hexdigest()[:16]
        + f" (sim_cycles_geomean {extra['sim_cycles_geomean'][0]:.1f})"
    )
    layers = {}
    if tracer is not None:
        layers = _layers(tracer, collector, firsts, e2e / raw_e2e)
    return {
        "metrics": metrics,
        "extra": extra,
        "layers": layers,
        "report": report,
        "errors": errors,
        "e2e": e2e,
        "raw_e2e": raw_e2e,
    }


def _layers(tracer, collector, firsts: dict, scale: float) -> dict:
    totals = tracer.totals("measure")

    def ms(name: str, key: str = "ms") -> tuple[float, str]:
        return (totals.get(name, {}).get(key, 0.0) * scale, "ms")

    obs_ms: dict[str, float] = {}
    for span in collector.spans():
        obs_ms[span["name"]] = obs_ms.get(span["name"], 0.0) + span["wall_ms"]
    counters = collector.summary()["counters"]
    compile_ms = tracer.durations_ms("lang.compile")
    return {
        "lang.compile_ms": (statistics.median(compile_ms) * scale, "ms"),
        "blocks.tag_ms": ms("blocks.tag"),
        "blocks.groups": (sum(r["groups"] for r in firsts.values()), "count"),
        "pipeline.map_nest_ms": ms("pipeline.map_nest"),
        "mapping.distribute_ms": ms("mapping.distribute", "self_ms"),
        "mapping.balance_ms": ms("mapping.balance"),
        "mapping.refine_ms": ms("mapping.refine", "self_ms"),
        "mapping.schedule_ms": ms("mapping.schedule"),
        "mapping.cluster_merges": (counters.get("cluster.merges", 0), "count"),
        "mapping.balance_moves": (counters.get("balance.moves", 0), "count"),
        "mapping.schedule_rounds": (counters.get("schedule.rounds", 0), "count"),
        "runtime.plan_ms": ms("runtime.plan"),
        "sim.simulate_ms": ms("sim.simulate"),
        "sim.trace_build_ms": (obs_ms.get("sim.trace_build", 0.0) * scale, "ms"),
        "sim.private_levels_ms": (obs_ms.get("sim.private_levels", 0.0) * scale, "ms"),
        "sim.replay_ms": (obs_ms.get("sim.replay", 0.0) * scale, "ms"),
        "sim.maccesses": (sum(r["accesses"] for r in firsts.values()) / 1e6, "Maccess"),
        "kernels.sim_scalar_fallbacks": (
            counters.get("kernels.fallback.sim-unresolved", 0), "count"
        ),
    }
