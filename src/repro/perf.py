"""The name the replay pipeline's perf counters had before telemetry.

Every component takes a :class:`repro.telemetry.MetricsRegistry`
(counters, accumulated timings, gauges and histograms) directly.  The
alias stays because the benchmark harness (``perfbench/workloads.py``)
imports ``repro.perf.PerfCounters``.
"""

from .telemetry.metrics import MetricsRegistry

PerfCounters = MetricsRegistry
