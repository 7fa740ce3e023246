"""Run provenance and the host-speed calibration.

A figure from another host, commit or interpreter is only readable with
these beside it.  The calibration kernel is a fixed pure-Python loop
timed in the benchmark's own process, next to every iteration, so a
slower host can be told apart from a slower program: the timing
metrics are scaled by it (see ``run.py``).  It is timed on two clocks.
Wall-clock metrics are scaled by its wall-clock speed, which also
falls while the process waits to be scheduled.  CPU-time metrics are
scaled by its CPU-time speed, which does not.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

# The kernel speed the normalised timing metrics are expressed at: a
# figure reads as if measured on a host running the kernel this fast.
NOMINAL_LOOPS_PER_US = 5.0
_CHUNK_LOOPS = 20_000


def _calibration_kernel(loops: int) -> int:
    table = {}
    total = 0
    for index in range(loops):
        key = index & 1023
        table[key] = table.get(key, 0) + index
        total += (index * 7) % 13
    return total + len(table)


def calibration_score(seconds: float = 0.15) -> tuple[float, float]:
    """Kernel loop iterations per microsecond over about ``seconds``.

    Returns ``(wall_speed, cpu_speed)``: loops per microsecond of wall
    time and per microsecond of this thread's CPU time.
    """
    loops = 0
    started = time.perf_counter()
    cpu_started = time.thread_time()
    while True:
        _calibration_kernel(_CHUNK_LOOPS)
        loops += _CHUNK_LOOPS
        elapsed = time.perf_counter() - started
        if elapsed >= seconds:
            cpu = time.thread_time() - cpu_started
            return loops / (elapsed * 1e6), loops / (cpu * 1e6)


def commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def config_hash(config: dict) -> str:
    text = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def stamp(root: str, workload: str, seed: int, config: dict,
          wall_speed: float, cpu_speed: float) -> dict:
    return {
        "commit": commit(root),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count() or 1,
        "workload": workload,
        "seed": seed,
        "config_hash": config_hash(config),
        "calibration_wall_loops_per_us": wall_speed,
        "calibration_cpu_loops_per_us": cpu_speed,
    }
