"""The repository benchmark: one command, four replay workloads.

Run from the repository root::

    python3 perfbench/run.py --workload sim_zipf --seed 1 --seconds 10 \
        --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` spends half the time untraced and half with spans wrapped
around the program's layer boundaries, and reports the per-layer
ledger, its residual and the tracing overhead.  Either way the last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A failed output check prints
``"correct": false`` with no metrics and exits 1.

Each run also writes its full record (provenance, per-iteration facts,
checks, metrics) to ``perfbench/out/``, and a traced run writes its
kept spans there as a Chrome trace.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

import ledger
import provenance
import spec
import workloads
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))


def _fail_setup(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _load_declared(root):
    """BENCHMARK.json: the workloads and metrics, with units, by name."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    problems = []
    if {m["name"] for m in declared["end_to_end"]} != set(END_TO_END):
        problems.append("end_to_end")
    if {m["name"] for m in declared["per_layer"]} != set(spec.PER_LAYER):
        problems.append("per_layer")
    if problems:
        raise ValueError(f"BENCHMARK.json and perfbench disagree on "
                         f"{problems}")
    return declared


def _parse(argv, workload_names):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_iterations(workload, seed, budget, tracer, min_iterations,
                   first_index=0):
    """Repeat set-up + measured replay until ``budget`` seconds measured.

    The calibration kernel runs between iterations; each iteration is
    stamped with the mean kernel speeds just before and just after it.
    """
    results = []
    measured = 0.0
    index = first_index
    speeds = provenance.calibration_score()
    while len(results) < min_iterations or measured < budget:
        gc.collect()
        if tracer is not None:
            tracer.phase = "setup"
        started = time.perf_counter()
        state = workload.setup(seed, index)
        setup = time.perf_counter() - started
        try:
            if tracer is not None:
                tracer.phase = "run"
            facts = workload.measure(state)
        finally:
            if tracer is not None:
                tracer.phase = "idle"
            workload.teardown(state)
        facts["setup_s"] = setup + facts.pop("setup_extra_s", 0.0)
        after = provenance.calibration_score()
        facts["wall_speed"] = (speeds[0] + after[0]) / 2.0
        facts["cpu_speed"] = (speeds[1] + after[1]) / 2.0
        speeds = after
        measured += facts["wall_s"]
        results.append(facts)
        index += 1
    return results


def _slowdown(facts, clock, elasticity):
    """How much slower than nominal the host ran around this iteration.

    ``clock`` is ``"wall_speed"`` for wall-clock figures and
    ``"cpu_speed"`` for CPU-time figures.  ``elasticity`` is how far a
    workload's figures follow the kernel's speed (``spec``); 0 leaves
    them raw.
    """
    return (provenance.NOMINAL_LOOPS_PER_US / facts[clock]) ** elasticity


def _qps(iterations, elasticity):
    return statistics.median([
        facts["sent"] / facts["busy_s"]
        * _slowdown(facts, "wall_speed", elasticity)
        for facts in iterations])


def _cpu_us(iterations, elasticity):
    return statistics.median([
        facts["cpu_s"] * 1e6 / facts["sent"]
        / _slowdown(facts, "cpu_speed", elasticity)
        for facts in iterations])


def _setup_s(iterations, elasticity):
    return statistics.median([
        facts["setup_s"] / _slowdown(facts, "wall_speed", elasticity)
        for facts in iterations])


def _peak_rss_mb(_iterations, _elasticity):
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# The end-to-end metrics of BENCHMARK.json, each from the untraced
# iterations of a run.
END_TO_END = {
    "norm_qps": _qps,
    "norm_cpu_us_per_query": _cpu_us,
    "setup_s": _setup_s,
    "peak_rss_mb": _peak_rss_mb,
}


def _checks(iterations, deterministic):
    failures = []
    for number, facts in enumerate(iterations):
        for name, ok, detail in facts["checks"]:
            if not ok:
                failures.append(f"iteration {number}: {name}: {detail}")
    if deterministic:
        prints = {facts.get("fingerprint") for facts in iterations}
        if len(prints) != 1:
            failures.append("replays of the same seed differ in their "
                            "per-query facts")
    return failures


def _reported_only(iterations):
    attempted = sum(facts["queries"] for facts in iterations)
    lost = sum(facts["lost"] for facts in iterations)
    report = {
        "qps": _qps(iterations, 0.0),
        "cpu_us_per_query": _cpu_us(iterations, 0.0),
        "raw_setup_s": _setup_s(iterations, 0.0),
        "wall_speed": statistics.median(
            [facts["wall_speed"] for facts in iterations]),
        "cpu_speed": statistics.median(
            [facts["cpu_speed"] for facts in iterations]),
        "lost_frac": lost / attempted if attempted else 0.0,
    }
    for key in ("answer_ms_p50", "answer_ms_p99"):
        values = [facts[key] for facts in iterations if key in facts]
        report[key] = statistics.median(values) if values else None
    return report


def _print_report(header, metrics, units, extra=()):
    print(header)
    for name, value in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<38} {shown:>14} {units[name]}")
    for line in extra:
        print(f"  {line}")


def main(argv=None) -> int:
    root = os.getcwd()
    try:
        declared = _load_declared(root)
    except (OSError, ValueError, KeyError) as error:
        return _fail_setup(f"cannot use BENCHMARK.json: {error}")
    args = _parse(sys.argv[1:] if argv is None else argv,
                  [w["name"] for w in declared["workloads"]])
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        return _fail_setup("no src/repro under the current directory; "
                           "run from the repository root")
    if os.environ.get("PYTHONHASHSEED") != "0":
        # BRootWorkload derives source ports from hash(); a fixed hash
        # seed makes the same --seed give the same trace in every run.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)

    sys.path.insert(0, src)
    seed = spec.DEFAULT_SEED if args.seed is None else args.seed
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    workload = workloads.make(args.workload, outdir)
    elasticity = spec.SPEED_ELASTICITY[args.workload]
    config = {"workload": args.workload, "sizes": workload.config,
              "min_iterations": spec.MIN_ITERATIONS,
              "speed_elasticity": elasticity,
              "spans": [entry[:2] for entry in spec.SPAN_PLAN]}
    deterministic = args.workload in ("sim_zipf", "root_tls")

    tracer = None
    try:
        if args.trace == 0:
            iterations = run_iterations(workload, seed, args.seconds, None,
                                        spec.MIN_ITERATIONS)
            traced = []
        else:
            iterations = run_iterations(workload, seed, args.seconds / 2,
                                        None, 1)
            tracer = Tracer()
            tracer.install(spec.SPAN_PLAN)
            traced = run_iterations(workload, seed, args.seconds / 2,
                                    tracer, 1, first_index=len(iterations))
    except Exception:   # a crashed replay is a failed output check
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    everything = iterations + traced
    failures = _checks(everything, deterministic)
    stamp = provenance.stamp(
        root, args.workload, seed, config,
        statistics.median([facts["wall_speed"] for facts in everything]),
        statistics.median([facts["cpu_speed"] for facts in everything]))
    attempted = sum(facts["queries"] for facts in everything)
    failed = sum(facts["queries"] - facts["answered"]
                 for facts in everything)
    record = {"provenance": stamp, "trace": args.trace,
              "seconds": args.seconds,
              "iterations": iterations, "traced_iterations": traced,
              "check_failures": failures}
    header = (f"perfbench {args.workload} seed={seed} trace={args.trace} "
              f"iterations={len(iterations)}+{len(traced)} "
              f"commit={stamp['commit'][:12]} "
              f"calibration={stamp['calibration_wall_loops_per_us']:.3f}"
              f"/{stamp['calibration_cpu_loops_per_us']:.3f} loops/us "
              f"(wall/cpu)")

    if args.trace == 0:
        metrics = {m["name"]: {
            "value": END_TO_END[m["name"]](iterations, elasticity),
            "unit": m["unit"]} for m in declared["end_to_end"]}
        units = dict(spec.REPORTED_ONLY)
        units.update({name: row["unit"] for name, row in metrics.items()})
        report = {name: row["value"] for name, row in metrics.items()}
        report.update(_reported_only(iterations))
        _print_report(header, report, units)
        record["reported"] = report
    else:
        overhead = _qps(traced, elasticity) / _qps(iterations, elasticity)
        values = ledger.compute(
            tracer.totals("run"), tracer.totals("setup"),
            tracer.covered_ns.get("run", 0), traced, overhead)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in declared["per_layer"]}
        spans_path = os.path.join(
            outdir, f"{args.workload}-seed{seed}-spans.json")
        tracer.write_chrome_trace(spans_path)
        _print_report(header, {name: row["value"]
                               for name, row in metrics.items()},
                      {name: row["unit"] for name, row in metrics.items()},
                      [f"untraced norm_qps "
                       f"{_qps(iterations, elasticity):.6g} 1/s, "
                       f"traced norm_qps {_qps(traced, elasticity):.6g} 1/s",
                       f"spans kept: {len(tracer.spans)} -> {spans_path}"])
        record["span_totals"] = {"run": tracer.totals("run"),
                                 "setup": tracer.totals("setup")}

    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    record["metrics"] = metrics
    with open(os.path.join(
            outdir, f"{args.workload}-seed{seed}-trace{args.trace}.json"),
            "w") as handle:
        json.dump(record, handle, indent=1, default=str)

    if failures:
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": max(failed, 1), "metrics": {}}))
        return 1
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
