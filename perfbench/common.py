"""Shared plumbing for the workloads: clocks, resource readings, set-up
probes, host diagnostics and the closed-loop pass loop."""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPS = 3
HIGHER_IS_BETTER = {"rows_per_s"}
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's reference."""


def check(ok: Any, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def seed_seq(seed: int, *key: int) -> np.random.Generator:
    """A generator for one named stream of the run's inputs."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *key]))


# ---------------------------------------------------------------------- #
# resources
# ---------------------------------------------------------------------- #
def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of another process (``/proc/<pid>/stat``)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set of another process (``VmHWM``) in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CpuMeter:
    """CPU seconds of this process plus the listed worker processes."""

    def __init__(self, worker_pids: tuple[int, ...] = ()):
        self.worker_pids = worker_pids

    def read(self) -> float:
        return time.process_time() + sum(proc_cpu_s(p) for p in self.worker_pids)


# ---------------------------------------------------------------------- #
# set-up
# ---------------------------------------------------------------------- #
def import_probe_s(modules: list[str]) -> float:
    """Median wall time of importing ``modules`` in fresh interpreters."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = "import " + ", ".join(modules)
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdout=subprocess.DEVNULL, cwd=ROOT, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def repeated_setup(build: Callable[[], Any], close: Callable[[Any], None]) -> tuple[Any, float]:
    """Build the stack ``SETUP_REPS`` times; keep the last, return the
    median build time."""
    times, stack = [], None
    for rep in range(SETUP_REPS):
        if stack is not None:
            close(stack)
        t0 = time.perf_counter()
        stack = build()
        times.append(time.perf_counter() - t0)
    return stack, statistics.median(times)


# ---------------------------------------------------------------------- #
# host diagnostics (printed, never reported as metrics)
# ---------------------------------------------------------------------- #
def _cpu_line() -> list[int]:
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


class HostProbe:
    """Steal share of busy CPU time over the run, CPU count, load average."""

    def __init__(self) -> None:
        self.start = _cpu_line()

    def report(self) -> dict[str, Any]:
        d = [b - a for a, b in zip(self.start, _cpu_line())]
        user, nice, system, _idle, _iowait, irq, softirq, steal = (d + [0] * 8)[:8]
        busy = user + nice + system + irq + softirq + steal
        return {
            "steal_pct_of_busy": round(100.0 * steal / busy, 2) if busy else 0.0,
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg": [round(x, 2) for x in os.getloadavg()],
        }


# ---------------------------------------------------------------------- #
# the timed phase
# ---------------------------------------------------------------------- #
@dataclass
class Phase:
    """Per-pass times of one timed phase; ``traced[i]`` says whether pass
    ``i`` ran with the span wrappers installed."""

    pass_s: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)


def run_phase(
    seconds: float,
    trace: bool,
    do_pass: Callable[[int, bool], float],
    min_passes: int,
) -> Phase:
    """Run passes until ``seconds`` of pass time have been measured.

    ``do_pass(i, traced)`` runs pass ``i`` and returns its measured wall
    time; work between passes (checks, input generation) is not counted.
    In a traced run passes alternate untraced/traced, so drift on the host
    falls on both sides of the overhead ratio alike.
    """
    phase = Phase()
    i = 0
    while i < min_passes or sum(phase.pass_s) < seconds:
        traced = trace and i % 2 == 1
        phase.pass_s.append(do_pass(i, traced))
        phase.traced.append(traced)
        i += 1
    if trace and len(phase.pass_s) < 2:
        raise RuntimeError("a traced run needs at least two passes")
    return phase


def overhead_pct(phase: Phase) -> float:
    """Median traced pass over median untraced pass, as a percentage."""
    traced = [p for p, t in zip(phase.pass_s, phase.traced) if t]
    untraced = [p for p, t in zip(phase.pass_s, phase.traced) if not t]
    return 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)


def pass_figures(
    wall_s: float, rows: int, busy_s: float, cpu_s: float,
    lat_ms: np.ndarray, lone_ms: list[float], rollout_ms: float,
) -> dict[str, float]:
    """The end-to-end figures of one pass.

    ``busy_s`` is the time the pass spent answering its ``rows`` rows,
    ``lat_ms`` their latencies (at least 1 000, so p99 has ten beyond it).
    """
    return {
        "breakdown_s": wall_s,
        "rows_per_s": rows / busy_s,
        "p50_ms": float(np.percentile(lat_ms, 50)),
        "p99_ms": float(np.percentile(lat_ms, 99)),
        "lone_p50_ms": float(np.median(lone_ms)),
        "rollout_ms": rollout_ms,
        "cpu_us_per_row": 1e6 * cpu_s / rows,
    }


def quiet_quartile(passes: list[dict[str, float]]) -> dict[str, float]:
    """Each figure's quartile on its better side over a run's passes.

    A shared VM can alternate, in phases of seconds to minutes, between two
    speeds about 2x apart that steal accounting does not show (measured in
    README.md), so a run can spend none, some or all of its time in the
    slow one.  A median over passes then jumps between the two modes from
    run to run; the first quartile (third for throughput) stays in the fast
    mode unless three quarters of the passes were slow, and any change in
    the program still moves it.
    """
    return {
        k: float(np.percentile([p[k] for p in passes], 75 if k in HIGHER_IS_BETTER else 25))
        for k in passes[0]
    }
