#!/usr/bin/env python3
"""Whole-path benchmark of the mapper: map-default and serve-mixed.

Run from the repository root::

    python3 perfbench/run.py --workload map-default --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the workload untraced and prints the end-to-end
metrics named in ``BENCHMARK.json``.  ``--trace 1`` repeats that
untraced pass, then runs traced passes of every workload (the named one
first) and prints the per-layer metrics plus ``trace.overhead_pct``,
the traced over the untraced ``e2e_s`` of the named workload.  Ops are
costed in calibrated CPU time and latencies in calibrated wall time
(see ``calibration.py``); simulated cycles and counts are exact.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when every output check passed.

``--size smoke`` shrinks both workloads to a few ops (for the tests);
``--calibrate`` prints the probe median this host gives, the number
``calibration.REFERENCE_PROBE_MS`` was set from.
"""

from __future__ import annotations

import os

# Before anything imports numpy: one BLAS/OpenMP thread, so a map's CPU
# time is its wall time and two processes do not fight for two cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import map_default  # noqa: E402
import serve_mixed  # noqa: E402
from calibration import Clock, probe_ms  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {m.NAME: m for m in (map_default, serve_mixed)}
#: Set-ups per end-to-end run; setup_s is their median.
SETUPS = 3
#: The end-to-end figures printed for every workload, in order, whether
#: or not BENCHMARK.json gates them; one a workload lacks prints as n/a.
REPORTED = (
    "setup_s", "e2e_s", "map_s", "simulate_s", "sim_maccess_per_s", "ops_per_s",
    "op_p50_ms", "op_p95_ms", "peak_rss_mb", "speedup_geomean", "sim_cycles_geomean",
)


def run_pass(module, size, seed, seconds, setups, workdir, memo, tracer=None) -> dict:
    """Set up ``setups`` times, warm up once, measure the op list, check."""
    from repro import obs
    from repro.obs.sinks import CollectorSink

    clock = Clock(workdir)
    setup_samples = []
    state = None
    try:
        for _ in range(setups):
            if state is not None:
                module.teardown(state)
                state = None
            if tracer is not None:
                tracer.phase = "setup"
            state, timing = clock.run(module.setup, size, workdir)
            setup_samples.append((timing, state.get("child_cpu", 0.0)))
        if tracer is not None:
            tracer.phase = "warmup"
        clock.run(module.warmup, state)
        # Set-up objects live for the whole pass; keep them out of the
        # per-op gc.collect() so its cost does not grow with set-up size.
        gc.freeze()
        ops = module.schedule(state, seed)
        samples, errors, failed = [], [], 0
        collector = CollectorSink() if tracer is not None else None
        with obs.tracing(collector) if collector is not None else nullcontext():
            started = time.perf_counter()
            # map-default cycles its op list until --seconds have passed
            # (per-op medians absorb the repeats); serve-mixed's schedule
            # is one pass, because a repeated first sighting is a hit.
            while len(samples) < len(ops) or (
                module.CYCLES and time.perf_counter() - started < seconds
            ):
                op = ops[len(samples) % len(ops)]
                if tracer is not None:
                    tracer.phase = "measure"
                out, timing = clock.run(module.run_op, state, op)
                if tracer is not None:
                    tracer.phase = "check"
                record, op_errors = module.check_op(state, op, out)
                del out
                samples.append((op, record, timing))
                errors += op_errors
                failed += bool(op_errors)
        clock.close()
        summary = module.summarize(state, samples, clock, tracer, collector, memo)
    finally:
        clock.close()
        if state is not None:
            module.teardown(state)
        gc.unfreeze()
    errors += summary["errors"]
    failed = min(len(samples), failed + len(summary["errors"]))
    # CPU time of the set-up, plus that of the daemon it booted.
    setup_s = statistics.median(
        (t.cpu + child_cpu) * clock.scale(t) for t, child_cpu in setup_samples
    )
    summary["metrics"] = {"setup_s": (setup_s, "s"), **summary["metrics"]}
    summary.update(
        errors=errors, attempted=len(samples), failed=failed, calib_ms=clock.calib_ms()
    )
    return summary


def _fmt(value, unit) -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g} {unit}"


def report(name: str, result: dict, traced: bool) -> None:
    values = {**result["metrics"], **result["extra"]}
    print(f"== {name} ==")
    for metric in REPORTED:
        print(f"  {metric:<20} {_fmt(*values.get(metric, (None, '')))}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':<20} {rate:.6g} ratio ({result['failed']} of {result['attempted']})")
    print(f"  {'host.calib_ms':<20} {result['calib_ms']:.6g} ms")
    print(f"  {'host.raw_e2e_s':<20} {result['raw_e2e']:.6g} s")
    for line in result["report"]:
        print(line)
    if traced:
        for metric, (value, unit) in result["layers"].items():
            print(f"  {metric:<28} {_fmt(value, unit)}")
    for error in result["errors"]:
        print(f"  ERROR {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--calibrate", action="store_true")
    args = parser.parse_args(argv)
    if args.calibrate:
        print(f"probe median {statistics.median(probe_ms() for _ in range(500)):.4f} ms")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    # One CPU for the benchmark and the processes it starts (children
    # inherit the mask): in the closed loop only one of the benchmark and
    # the daemon runs at a time, and the probe sampler measures the CPU
    # the measured work ran on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    os.environ["REPRO_CACHE_DIR"] = os.path.join(workdir, "cache")
    memo: dict = {}
    try:
        module = WORKLOADS[args.workload]
        untraced = run_pass(
            module, args.size, args.seed, args.seconds, 1 if args.trace else SETUPS,
            workdir, memo,
        )
        results = [untraced]
        report(args.workload, untraced, False)
        metrics = dict(untraced["metrics"])
        if args.trace:
            from layers import LayerTracer

            metrics = {}
            order = [args.workload] + sorted(set(WORKLOADS) - {args.workload})
            for name in order:
                tracer = LayerTracer()
                with tracer.installed():
                    traced = run_pass(WORKLOADS[name], args.size, args.seed, 0, 1,
                                      workdir, memo, tracer)
                results.append(traced)
                report(f"{name} (traced)", traced, True)
                metrics.update(traced["layers"])
                values = {**traced["metrics"], **traced["extra"]}
                metrics.update(
                    (f"{name}.{key}", values[key]) for key in WORKLOADS[name].TRACED_EXTRAS
                )
            metrics["host.calib_ms"] = (untraced["calib_ms"], "ms")
            metrics["host.raw_e2e_s"] = (untraced["raw_e2e"], "s")
            metrics["trace.overhead_pct"] = (
                (results[1]["e2e"] / untraced["e2e"] - 1) * 100, "%"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    missing = [name for name in wanted if metrics.get(name, (None,))[0] is None]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and not missing and not any(r["errors"] for r in results)
    for name in missing:
        print(f"  ERROR metric {name} was not measured")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in wanted if name not in missing
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
