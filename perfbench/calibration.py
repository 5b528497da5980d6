"""Calibrated host timing and the statistics the benchmark reports.

Pure-Python speed on a small shared VM drifts by tens of percent within
seconds, which swamps the effect a single change has on a fixed op
list.  Two things keep the benchmark's host times steady:

* ops are costed in CPU time (the benchmark's own, plus the daemon's for
  serve-mixed), not wall time: another tenant's process sharing the CPU
  stretches wall time without slowing the op's own work;
* every cost is *calibrated*: multiplied by

      REFERENCE_PROBE_MS / (median of the probes taken while the op ran)

  where a probe is the CPU time of one run of a fixed pure-Python loop,
  taken ten times a second by a sampler process on the same CPU.  When
  the host runs slow (clock, caches), the probes run slow by a similar
  factor and the calibrated cost stays put; the unit is still seconds
  on the reference host.

Raw wall times are kept too (``host.raw_e2e_s``, latency percentiles).
"""

from __future__ import annotations

import bisect
import ctypes
import ctypes.util
import gc
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections.abc import Callable, Sequence
from typing import NamedTuple

#: Median probe time on the reference host (2-vCPU x86-64 VM,
#: CPython 3.11), measured with ``python3 perfbench/run.py --calibrate``.
#: Changing it rescales every calibrated metric, so it is fixed here
#: rather than measured per run.
REFERENCE_PROBE_MS = 2.4

#: Iterations of the probe loop (about 2 ms on the reference host) and
#: the sampler's period: ten probes a second cost the measured work
#: about 2% of one CPU, and follow the host's speed within an op.
PROBE_LOOPS = 20_000
PROBE_PERIOD_S = 0.1
#: An op shorter than a few periods is calibrated by the probes nearest
#: to it.
MIN_PROBES = 3


def _libc_trim():
    """glibc's malloc_trim, or a no-op where the C library has none."""
    try:
        trim = ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim
    except (OSError, AttributeError, TypeError):
        return lambda: None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return lambda: trim(0)


#: Returns freed heap pages to the OS between ops, so the peak resident
#: set reflects the largest op rather than how earlier ops fragmented
#: the heap.
release_free_memory = _libc_trim()


def _probe_loop(n: int) -> int:
    acc = 0
    for i in range(n):
        acc = (acc + i * i) % 1_000_003
    return acc


def probe_ms() -> float:
    """One probe: the CPU time of one run of the loop, in ms.

    CPU time, not wall time, so a probe that the measured work preempts
    still reads the CPU's speed.
    """
    started = time.thread_time()
    _probe_loop(PROBE_LOOPS)
    return (time.thread_time() - started) * 1e3


def sample_forever(path: str) -> None:
    """The sampler process: append ``monotonic_s probe_ms`` lines until
    stopped, or until the process that started it is gone."""
    parent = os.getppid()
    with open(path, "a", buffering=1) as out:
        while os.getppid() == parent:
            out.write(f"{time.monotonic():.6f} {probe_ms():.6f}\n")
            time.sleep(PROBE_PERIOD_S)


class Timing(NamedTuple):
    """One op's wall and process CPU seconds, and when it ran."""

    wall: float
    cpu: float
    start: float
    end: float


class Clock:
    """Times ops; calibrates each by the probes taken while it ran.

    A sampler process on the same CPU probes ten times a second, so a
    multi-second op is calibrated by the host's speed during that op,
    not only at its ends.  Call :meth:`close` after the pass and before
    :meth:`scale`.
    """

    def __init__(self, workdir: str) -> None:
        fd, self._path = tempfile.mkstemp(prefix="probes-", dir=workdir)
        os.close(fd)
        self._sampler = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), self._path]
        )
        self._times: list[float] = []
        self._probes: list[float] = []
        while os.path.getsize(self._path) == 0 and self._sampler.poll() is None:
            time.sleep(0.01)
        if self._sampler.poll() is not None:
            raise RuntimeError("the probe sampler exited before its first probe")

    def run(self, fn: Callable, *args) -> tuple[object, Timing]:
        gc.collect()
        release_free_memory()
        cpu_started = time.process_time()
        start = time.monotonic()
        result = fn(*args)
        end = time.monotonic()
        cpu = time.process_time() - cpu_started
        return result, Timing(end - start, cpu, start, end)

    def close(self) -> None:
        """Stop the sampler and load its probes (once)."""
        if self._sampler is None:
            return
        if self._sampler.poll() is None:
            self._sampler.terminate()
        self._sampler.wait()
        self._sampler = None
        with open(self._path) as samples:
            for line in samples:
                fields = line.split()
                if len(fields) == 2:
                    self._times.append(float(fields[0]))
                    self._probes.append(float(fields[1]))
        os.remove(self._path)

    def scale(self, timing: Timing) -> float:
        lo = bisect.bisect_left(self._times, timing.start)
        hi = bisect.bisect_right(self._times, timing.end)
        if hi - lo < MIN_PROBES:
            middle = (lo + hi) // 2
            lo = max(0, middle - MIN_PROBES // 2 - 1)
            hi = min(len(self._probes), lo + MIN_PROBES + 1)
        return REFERENCE_PROBE_MS / statistics.median(self._probes[lo:hi])

    def calib_ms(self) -> float:
        """Median probe of this clock (``host.calib_ms``)."""
        return statistics.median(self._probes)


def nearest_rank(values: Sequence[float], q: float) -> tuple[float, int]:
    """The nearest-rank ``q`` quantile and how many samples lie beyond it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM (peak resident set) of a process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


if __name__ == "__main__":
    sample_forever(sys.argv[1])
