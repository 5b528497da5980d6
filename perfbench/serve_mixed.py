"""serve-mixed: one client against a ``repro serve --threads 1`` daemon.

The only workload through ``service`` (protocol, server, mapcache,
admission) and ``remap``.  One client in the benchmark process sends a
closed loop of requests: byte-identical repeats (memory-tier hits), α/β
and balance-threshold variants (stage replay), first sightings (paper
kernels as ``source``, irregular ones as a serialized ``program`` with
index data) and ``/remap`` core-loss events.  The multiset of requests is
fixed; the seed fixes their order.  Hits are 71% of the 310 requests,
so the median falls inside the hit class; first sightings, remaps and
balance-threshold variants are 10%, so p95 falls inside those classes.

The daemon is measured only from the client side and from its responses
(``stats.pipeline_ms``, ``queue_wait_ms``, ``/metrics`` counters).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import re
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

from calibration import nearest_rank, peak_rss_mb

NAME = "serve-mixed"
#: One pass of the schedule: a repeated first sighting would be a hit.
CYCLES = False

#: End-to-end figures of this workload that BENCHMARK.json cannot gate
#: (the other workload has no value for them); the traced run reports
#: them as ``serve-mixed.<name>``.
TRACED_EXTRAS = ("op_p50_ms", "op_p95_ms", "op_p95_beyond")

MACHINES = ("harpertown", "nehalem", "dunnington")

#: First-sighting keys: each kernel on one machine (round-robin).  The
#: kernels are the paper and irregular ones whose coarse-block maps take
#: under half a second here, so one run, with its in-process reference
#: maps, stays inside its time budget.
KERNELS = {
    "full": (
        "applu", "galgel", "cg", "sp", "freqmine", "namd", "h264",
        "spmv_banded", "spmv_random", "mesh_edge",
    ),
    "smoke": ("h264", "spmv_random"),
}
HITS_PER_KEY = {"full": 22, "smoke": 2}
#: Per key: six α/β variants (schedule recomputed, earlier stages
#: replayed from the store) and one balance-threshold variant
#: (distribution and schedule recomputed).
VARIANTS = {
    "full": (
        {"alpha": 0.25}, {"alpha": 0.75}, {"beta": 0.25}, {"beta": 0.75},
        {"alpha": 0.25, "beta": 0.25}, {"alpha": 0.75, "beta": 0.75},
        {"balance_threshold": 0.2},
    ),
    "smoke": ({"alpha": 0.25},),
}
#: Simulation-scaled caches, as in the experiments (sim_machine).
SCALE = 32.0
#: A key no request of the schedule uses, so the warm-up leaves no
#: cached stage behind that a measured request could hit.
WARMUP = ("h264", "nehalem")
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Request:
    klass: str  # hit | variant | cold | remap
    key: tuple[str, str]
    path: str
    body: dict
    #: (kernel, machine, knob items, lost core) of the expected plan.
    ref: tuple


def _keys(size: str) -> list[tuple[str, str]]:
    return [(k, MACHINES[i % len(MACHINES)]) for i, k in enumerate(KERNELS[size])]


def setup(size: str, workdir: str) -> dict:
    """Compile every kernel client-side, build machines, boot a daemon."""
    from repro import lang
    from repro.experiments.harness import sim_machine
    from repro.runtime.serialize import program_to_dict
    from repro.service.client import ServiceClient
    from repro.topology.resolve import resolve_machine
    from repro.workloads import workload

    programs, wire = {}, {}
    for kernel in KERNELS[size] + (WARMUP[0],):
        app = workload(kernel)
        if app.index_data:
            index_data = {name: list(values) for name, values in app.index_data}
            programs[kernel] = lang.compile_source(app.source, name=kernel, index_data=index_data)
            wire[kernel] = {"program": program_to_dict(programs[kernel])}
        else:
            programs[kernel] = lang.compile_source(app.source, name=kernel)
            wire[kernel] = {"source": app.source, "name": kernel}
    machines = {m: sim_machine(resolve_machine(m)) for m in MACHINES}
    block_sizes = {k: workload(k).block_size() for k in programs}
    cache_dir = tempfile.mkdtemp(prefix="serve-", dir=workdir)
    daemon, port = _boot(cache_dir)
    return {
        "size": size,
        "programs": programs,
        "wire": wire,
        "machines": machines,
        "block_sizes": block_sizes,
        "iterations": {},
        "first": {},
        "daemon": daemon,
        "child_cpu": _cpu_seconds(daemon.pid),
        "client": ServiceClient(port=port, timeout=120.0),
    }


def _daemon_env(cache_dir: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env.update(
        PYTHONPATH=src,
        REPRO_CACHE_DIR=cache_dir,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _boot(cache_dir: str) -> tuple[subprocess.Popen, int]:
    with open(os.path.join(cache_dir, "daemon.err"), "w") as err:
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--threads", "1",
             "--cache-dir", cache_dir],
            stdout=subprocess.PIPE, stderr=err, text=True, env=_daemon_env(cache_dir),
        )
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    line = ""
    while time.monotonic() < deadline and daemon.poll() is None:
        ready, _, _ = select.select([daemon.stdout], [], [], 0.5)
        if ready:
            line = daemon.stdout.readline()
            break
    match = re.search(r"listening on http://[^:]+:(\d+)", line)
    if match is None:
        _stop(daemon)
        raise RuntimeError(f"daemon did not start (first line {line!r})")
    return daemon, int(match.group(1))


def _stop(daemon: subprocess.Popen) -> None:
    if daemon.poll() is None:
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
    daemon.stdout.close()


def teardown(state: dict) -> None:
    _stop(state["daemon"])


def _knobs(state: dict, kernel: str, changes: dict) -> dict:
    return {"block_size": state["block_sizes"][kernel], **changes}


def _request(state: dict, klass: str, key, changes: dict, lost: int | None = None) -> Request:
    kernel, machine = key
    knobs = _knobs(state, kernel, changes)
    body = {**state["wire"][kernel], "machine": machine, "scale": SCALE, "nest": 0,
            "knobs": knobs}
    path = "/map"
    if lost is not None:
        body["event"] = {"kind": "core_loss", "cores": [lost]}
        path = "/remap"
    return Request(klass, key, path, body, (kernel, machine, tuple(sorted(knobs.items())), lost))


def schedule(state: dict, seed: int) -> list[Request]:
    """The seed's request order over the fixed request multiset.

    Every key's first sighting is sent just before the first other
    request that names the key.
    """
    size = state["size"]
    others = []
    for index, key in enumerate(_keys(size)):
        cores = state["machines"][key[1]].num_cores
        others += [_request(state, "hit", key, {})] * HITS_PER_KEY[size]
        others += [_request(state, "variant", key, v) for v in VARIANTS[size]]
        others.append(_request(state, "remap", key, {}, lost=(5 * index + 1) % cores))
    random.Random(seed).shuffle(others)
    seen = set()
    ordered = []
    for request in others:
        if request.key not in seen:
            seen.add(request.key)
            ordered.append(_request(state, "cold", request.key, {}))
        ordered.append(request)
    return ordered


def warmup(state: dict) -> None:
    run_op(state, _request(state, "cold", WARMUP, {}))


def _cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a process, all threads (clock ticks)."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def run_op(state: dict, request: Request) -> dict:
    """One closed-loop exchange: send, wait, decode.

    Also returns the daemon's CPU time over the exchange; summed over a
    pass, the tick rounding of single reads cancels out.
    """
    pid = state["daemon"].pid
    daemon_started = _cpu_seconds(pid)
    try:
        status, _, data = state["client"].request("POST", request.path, request.body)
        body = json.loads(data) if status == 200 else None
    except (OSError, http.client.HTTPException, ValueError) as error:
        return {"status": None, "error": f"{type(error).__name__}: {error}", "bytes": 0,
                "daemon_cpu": _cpu_seconds(pid) - daemon_started}
    return {"status": status, "body": body, "bytes": len(data),
            "error": None if status == 200 else data[:200].decode(errors="replace"),
            "daemon_cpu": _cpu_seconds(pid) - daemon_started}


def _digest(mapping) -> str:
    return hashlib.sha256(json.dumps(mapping, sort_keys=True).encode()).hexdigest()


def check_op(state: dict, request: Request, out: dict) -> tuple[dict, list[str]]:
    """Well-formedness and iteration-count checks of one response.

    The first response to each distinct request keeps a digest of its
    plan for :func:`reference_digests`; repeats must carry the same
    per-core iteration counts as that first response.
    """
    record = {"klass": request.klass, "ref": request.ref, "kb": out["bytes"] / 1024,
              "daemon_cpu": out["daemon_cpu"], "digest": None, "pipeline_ms": 0.0, "queue_wait_ms": 0.0, "cache": None,
              "replayed": 0, "recomputed": 0}
    where = f"{request.klass} {request.path} {request.ref[0]}@{request.ref[1]}"
    if out["status"] != 200:
        return record, [f"{where}: status {out['status']}: {out['error']}"]
    body = out["body"]
    kernel = request.ref[0]
    iterations = state["iterations"].get(kernel)
    if iterations is None:
        iterations = state["iterations"][kernel] = (
            state["programs"][kernel].nests[0].iteration_count()
        )
    errors = []
    try:
        stats = body["stats"]
        per_core = stats["per_core_iterations"]
        planned = sum(len(rnd) for core in body["mapping"]["rounds"] for rnd in core)
        if not sum(per_core) == stats["iterations"] == planned == iterations:
            errors.append(f"{where}: per-core iterations do not sum to {iterations}")
        cache = body["cache"]
        if (cache == "none") != (request.klass != "hit") or body["degraded"]:
            errors.append(f"{where}: unexpected cache={cache} degraded={body['degraded']}")
        if request.klass == "remap":
            stanza = body["remap"]
            record["replayed"] = stanza["stages_replayed"]
            record["recomputed"] = stanza["stages_recomputed"]
            if record["replayed"] + record["recomputed"] != 5:
                errors.append(f"{where}: remap stanza accounts for "
                              f"{record['replayed'] + record['recomputed']} of 5 stages")
        first = state["first"].setdefault(request.ref, per_core)
        if first is per_core:
            record["digest"] = _digest(body["mapping"])
        elif first != per_core:
            errors.append(f"{where}: repeat differs from the first response")
        record.update(
            pipeline_ms=float(stats["pipeline_ms"]) if cache == "none" else 0.0,
            queue_wait_ms=float(body["queue_wait_ms"]),
            cache=cache,
        )
    except (KeyError, TypeError, ValueError) as error:
        errors.append(f"{where}: malformed response: {type(error).__name__}: {error}")
    return record, errors


def reference_digests(state: dict, refs, memo: dict) -> dict:
    """In-process MappingPipeline plans for every distinct request."""
    from repro.pipeline import ArtifactStore, Knobs, MappingPipeline
    from repro.runtime.serialize import plan_to_dict

    store = ArtifactStore(capacity=4096)
    for ref in sorted(set(refs) - set(memo), key=repr):
        kernel, machine_name, knob_items, lost = ref
        program = state["programs"][kernel]
        machine = state["machines"][machine_name]
        if lost is not None:
            machine = machine.without_cores([lost])
        plan = MappingPipeline(machine, Knobs(**dict(knob_items)), store=store).plan(
            program, program.nests[0]
        )
        memo[ref] = _digest(json.loads(json.dumps(plan_to_dict(plan))))
    return memo


def _obs_counter(state: dict, name: str) -> int:
    text = state["client"].metrics()
    match = re.search(r'repro_obs_counter\{name="%s"\} (\d+)' % re.escape(name), text)
    return int(match.group(1)) if match else 0


def summarize(state: dict, samples: list, clock, tracer=None, collector=None, memo=None) -> dict:
    """Metrics of one pass; ``samples`` are (request, record, timing).

    ``e2e_s`` costs each request in calibrated CPU time, the client's
    plus the daemon's; latencies (medians, percentiles) are calibrated
    wall time as the client saw it.
    """
    errors = []
    refs = [record["ref"] for _, record, _ in samples if record["digest"]]
    reference_digests(state, refs, memo)
    for request, record, _ in samples:
        if record["digest"] and record["digest"] != memo[record["ref"]]:
            errors.append(f"{request.klass} {record['ref'][:2]}: served plan differs "
                          "from the in-process MappingPipeline plan")
    scales = [clock.scale(timing) for _, _, timing in samples]
    op_ms = [timing.wall * s * 1e3 for (_, _, timing), s in zip(samples, scales)]
    e2e = sum(
        (timing.cpu + record["daemon_cpu"]) * s
        for (_, record, timing), s in zip(samples, scales)
    )
    raw_e2e = sum(timing.wall for _, _, timing in samples)
    p95, beyond = nearest_rank(op_ms, 0.95)
    metrics = {
        "e2e_s": (e2e, "s"),
        "ops_per_s": (len(samples) / e2e, "1/s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "peak_rss_mb": (peak_rss_mb(state["daemon"].pid), "MB"),
    }
    extra = {"op_p95_ms": (p95, "ms"), "op_p95_beyond": (beyond, "count")}
    by_class: dict[str, list[float]] = {}
    for (request, _, _), ms in zip(samples, op_ms):
        by_class.setdefault(request.klass, []).append(ms)
    records = [record for _, record, _ in samples]
    computed = [(r, s) for r, s in zip(records, scales) if r["cache"] == "none"]
    report = [
        f"  {klass:<8} n={len(v):>4} median={statistics.median(v):9.2f} ms "
        f"max={max(v):9.2f} ms"
        for klass, v in sorted(by_class.items())
    ]
    report.append(f"  op_p95_ms={p95:.2f} with {beyond} of {len(op_ms)} samples beyond it")
    layers = {}
    if tracer is not None:
        layers = {
            "blocks.trace_events": (_obs_counter(state, "tagging.trace.events"), "count"),
            **{
                f"service.{klass}_ms": (statistics.median(by_class.get(klass, [0.0])), "ms")
                for klass in ("hit", "variant", "cold", "remap")
            },
            "service.pipeline_ms": (
                statistics.median(r["pipeline_ms"] * s for r, s in computed), "ms"
            ),
            "service.overhead_ms": (
                statistics.median(
                    ms - (r["pipeline_ms"] + r["queue_wait_ms"]) * s
                    for r, s, ms in zip(records, scales, op_ms)
                ),
                "ms",
            ),
            "service.queue_wait_ms": (
                sum(r["queue_wait_ms"] * s for r, s in zip(records, scales)), "ms"
            ),
            "service.response_kb": (statistics.median(r["kb"] for r in records), "KB"),
            "service.cache_hit_ratio": (
                sum(r["cache"] not in (None, "none") for r in records) / len(records), "ratio"
            ),
            "remap.stages_replayed": (sum(r["replayed"] for r in records), "count"),
            "remap.stages_recomputed": (sum(r["recomputed"] for r in records), "count"),
        }
    return {
        "metrics": metrics,
        "extra": extra,
        "layers": layers,
        "report": report,
        "errors": errors,
        "e2e": e2e,
        "raw_e2e": raw_e2e,
    }
