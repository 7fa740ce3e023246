"""The four benchmark workloads: set-up, one measured replay, checks.

Each workload builds its inputs from the seed, hands the program only
the generated trace, and returns a *facts* dict for one iteration:

``queries``     records attempted (scheduled, or streamed)
``sent``        queries that left a querier (records accounted, stream)
``answered``    responses matched to a sent query
``lost``        attempted but never answered or accounted
``busy_s``      time the qps figure divides by
``wall_s``      wall time of the measured phase
``cpu_s``       process CPU time (user + sys) of the measured phase
``setup_s``     set-up time (before the first query)
``checks``      ``[(name, ok, detail)]`` output checks
``fingerprint`` hash of the per-query facts (sim workloads)
plus workload counters the per-layer ledger reads.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import shutil
import time

from echo import EchoProcess
from spec import WORKLOAD_CONFIG


def _check(checks, name, ok, detail=""):
    checks.append((name, bool(ok), detail))


def _percentile(values, fraction):
    ordered = sorted(values)
    if not ordered:
        return None
    rank = min(len(ordered) - 1, max(0, int(round(fraction
                                                  * (len(ordered) - 1)))))
    return ordered[rank]


def _sim_result_facts(result, facts, checks, scheduled, rtt):
    """Facts and checks shared by the two simulated workloads."""
    sent = len(result.sent)
    latencies = [entry.latency for entry in result.sent
                 if entry.latency is not None]
    answered = len(latencies)
    lost = result.unanswered()
    shed = result.stall_shed + result.deadline_shed
    facts.update(queries=scheduled, sent=sent, answered=answered, lost=lost)
    _check(checks, "scheduled = sent + shed + unsent",
           scheduled == sent + shed + result.send_failures,
           f"{scheduled} vs {sent} + {shed} + {result.send_failures}")
    _check(checks, "answered + lost = sent", answered + lost == sent,
           f"{answered} + {lost} vs {sent}")
    _check(checks, "no unmatched responses",
           result.unmatched_responses == 0,
           f"{result.unmatched_responses} unmatched")
    if latencies:
        facts["answer_ms_p50"] = _percentile(latencies, 0.50) * 1e3
        facts["answer_ms_p99"] = _percentile(latencies, 0.99) * 1e3
        facts["answer_rtt_min"] = min(latencies) / rtt
    digest = hashlib.sha256()
    for entry in result.sent:
        digest.update(repr((entry.index, entry.source, entry.protocol,
                            entry.qname, entry.sent_at, entry.answered_at,
                            entry.fresh_connection)).encode())
    facts["fingerprint"] = digest.hexdigest()


class SimZipf:
    """Zipf-skewed UDP queries in fast replay against the wildcard zone."""

    name = "sim_zipf"

    def __init__(self):
        self.config = WORKLOAD_CONFIG[self.name]

    def setup(self, seed, iteration):
        from repro.experiments.fig6_timing import wildcard_example_zone
        from repro.experiments.topology import (SERVER_ADDRESS,
                                                build_evaluation_topology)
        from repro.perf import PerfCounters
        from repro.replay import ReplayConfig, SimReplayEngine
        from repro.server import AuthoritativeServer, HostedDnsServer
        import repro.trace as trace_api

        config = self.config
        testbed = build_evaluation_topology()
        perf = PerfCounters()
        server = AuthoritativeServer.single_view([wildcard_example_zone()])
        server.perf = perf
        HostedDnsServer(testbed.server_host, server, perf=perf)
        engine = SimReplayEngine(
            testbed.network,
            ReplayConfig(track_timing=False,
                         fast_replay_rate=config["fast_replay_rate"]),
            perf=perf)
        trace = trace_api.zipf_trace(
            config["queries"], population=config["population"],
            exponent=config["exponent"], server=SERVER_ADDRESS, seed=seed)
        rtt = testbed.network.latency.rtt("client-1", "server")
        return {"engine": engine, "server": server, "perf": perf,
                "trace": trace, "loop": testbed.loop, "rtt": rtt}

    def measure(self, state):
        engine, trace = state["engine"], state["trace"]
        events_before = state["loop"].events_processed
        cpu_start = time.process_time()
        started = time.perf_counter()
        result = engine.replay(trace, extra_time=self.config["extra_time"])
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu_start
        perf, server = state["perf"], state["server"]
        cache = server.wire_cache.counters()
        facts = {"busy_s": wall, "wall_s": wall, "cpu_s": cpu,
                 "records_generated": len(trace.records),
                 "events": state["loop"].events_processed - events_before,
                 "cache_hits": cache["hits"], "cache_misses": cache["misses"],
                 "decodes": perf.count("hosting.decodes")}
        checks = []
        scheduled = perf.count("replay.queries_scheduled")
        _sim_result_facts(result, facts, checks, scheduled, state["rtt"])
        responses = perf.count("hosting.responses_sent")
        _check(checks, "server responses = answered",
               responses == facts["answered"],
               f"{responses} vs {facts['answered']}")
        _check(checks, "every query passed the wire cache",
               cache["hits"] + cache["misses"] == scheduled,
               f"{cache['hits']} + {cache['misses']} vs {scheduled}")
        # Fidelity: an unloaded UDP exchange takes exactly one RTT.
        off = [entry.latency for entry in result.sent
               if entry.latency is not None
               and abs(entry.latency - state["rtt"]) > 1e-9]
        _check(checks, "every answer arrives after exactly one RTT",
               not off, f"{len(off)} answers off one RTT")
        facts["checks"] = checks
        return facts

    def teardown(self, state):
        state.clear()


class RootTls:
    """B-Root-like queries rewritten to TLS against the signed root."""

    name = "root_tls"

    def __init__(self):
        self.config = WORKLOAD_CONFIG[self.name]

    def setup(self, seed, iteration):
        from repro.experiments import rootserver
        from repro.experiments.common import Scale
        from repro.experiments.topology import build_evaluation_topology
        from repro.netsim import ServerResourceModel
        from repro.replay import (QuerierConfig, ReplayConfig,
                                  SimReplayEngine)
        from repro.server import (AuthoritativeServer, HostedDnsServer,
                                  TransportConfig)
        from repro.telemetry import (ResourceTimeline, Telemetry,
                                     TelemetryConfig)

        config = self.config
        # Mirrors experiments.rootserver.run_root_replay, split so that
        # everything before the first query is set-up.
        run = rootserver.RootRunConfig(
            scale=Scale("bench", rate=config["rate"],
                        duration=config["duration"],
                        monitor_period=config["monitor_period"]),
            protocol=config["protocol"], tcp_timeout=config["tcp_timeout"],
            seed=seed)
        testbed = build_evaluation_topology(client_rtt=run.client_rtt)
        zone = rootserver.make_signed_root(run)
        trace = rootserver.build_workload(run)
        resources = ServerResourceModel(testbed.loop,
                                        cores=rootserver.SERVER_CORES)
        resources.scale_factor = run.scale.report_factor
        telemetry = Telemetry(TelemetryConfig(
            timeseries_period=run.scale.monitor_period))
        telemetry.attach_loop(testbed.loop)
        server = HostedDnsServer(
            testbed.server_host, AuthoritativeServer.single_view([zone]),
            config=TransportConfig(udp=True, tcp=True, tls=True,
                                   tcp_idle_timeout=run.tcp_timeout,
                                   nagle=run.server_nagle),
            resources=resources, telemetry=telemetry)
        engine = SimReplayEngine(
            testbed.network,
            ReplayConfig(client_instances=4, queriers_per_instance=6,
                         track_timing=run.track_timing,
                         querier=QuerierConfig(nagle=False)),
            telemetry=telemetry)
        ResourceTimeline(telemetry.sampler, resources)
        junk = sum(1 for record in trace.records
                   if record.question()[0].to_text().startswith("junk-"))
        return {"engine": engine, "server": server, "trace": trace,
                "loop": testbed.loop, "telemetry": telemetry, "junk": junk,
                "duration": run.scale.duration, "rtt": run.client_rtt}

    def measure(self, state):
        engine, trace, loop = state["engine"], state["trace"], state["loop"]
        events_before = loop.events_processed
        cpu_start = time.process_time()
        started = time.perf_counter()
        start_time = loop.now
        result = engine.schedule_trace(trace)
        loop.run_until(start_time + state["duration"]
                       + self.config["settle"])
        state["telemetry"].stop()
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu_start
        result.sent.sort(key=lambda entry: entry.index)
        hosted = state["server"]
        stats = hosted.engine.stats
        cache = hosted.engine.wire_cache.counters()
        facts = {"busy_s": wall, "wall_s": wall, "cpu_s": cpu,
                 "records_generated": len(trace.records),
                 "events": loop.events_processed - events_before,
                 "cache_hits": cache["hits"], "cache_misses": cache["misses"],
                 "decodes": hosted.perf.count("hosting.decodes")}
        checks = []
        _sim_result_facts(result, facts, checks, len(trace.records),
                          state["rtt"])
        _check(checks, "NXDOMAIN count = junk queries in the trace",
               stats.nxdomain == state["junk"],
               f"{stats.nxdomain} vs {state['junk']}")
        _check(checks, "server responses = answered",
               stats.responses == facts["answered"],
               f"{stats.responses} vs {facts['answered']}")
        protocols = {entry.protocol for entry in result.sent}
        _check(checks, "every query went over TLS", protocols == {"tls"},
               f"protocols {sorted(protocols)}")
        _check(checks, "no answer faster than one RTT",
               facts.get("answer_rtt_min", 1.0) >= 1.0 - 1e-9,
               f"min {facts.get('answer_rtt_min')} RTT")
        facts["checks"] = checks
        return facts

    def teardown(self, state):
        state.clear()


class LiveBurst:
    """A t=0 burst through the live thread tree to a UDP echo process."""

    name = "live_burst"

    def __init__(self):
        self.config = WORKLOAD_CONFIG[self.name]

    def setup(self, seed, iteration):
        from repro.trace import Trace
        import repro.trace as trace_api

        config = self.config
        echo = EchoProcess()
        try:
            burst = trace_api.burst_trace(config["queries"],
                                          client_count=config["clients"])
            records = list(burst.records)
            random.Random(seed).shuffle(records)
            trace = Trace(records, name=burst.name)
        except BaseException:
            echo.stop()
            raise
        return {"echo": echo, "trace": trace}

    def measure(self, state):
        from repro.replay.distributed import (DistributedConfig,
                                              LiveDistributedReplay)

        config = self.config
        echo, trace = state["echo"], state["trace"]
        replay = LiveDistributedReplay(
            echo.address,
            DistributedConfig(
                distributors=config["distributors"],
                queriers_per_distributor=config["queriers_per_distributor"],
                topology="threads", start_delay=config["start_delay"]))
        cpu_start = time.process_time()
        called = time.monotonic()
        started = time.perf_counter()
        result = replay.replay(trace)
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu_start
        sent_times = [entry.sent_at for entry in result.sent]
        first, last = min(sent_times), max(sent_times)
        answered = sum(1 for entry in result.sent
                       if entry.answered_at is not None)
        scheduled = len(trace.records)
        shed = result.stall_shed + result.deadline_shed
        received = (answered + result.duplicate_responses
                    + result.unmatched_responses)
        facts = {"queries": scheduled, "sent": len(result.sent),
                 "answered": answered, "lost": result.unanswered(),
                 "busy_s": last - first, "wall_s": wall, "cpu_s": cpu,
                 # Tree construction, thread start and the time-sync
                 # handshake all happen before the first send.
                 "setup_extra_s": first - called,
                 "records_generated": scheduled,
                 "responses_received": received}
        checks = []
        _check(checks, "scheduled = sent + shed + unsent",
               scheduled == len(result.sent) + shed + result.send_failures,
               f"{scheduled} vs {len(result.sent)} + {shed} + "
               f"{result.send_failures}")
        _check(checks, "answered + lost = sent",
               answered + result.unanswered() == len(result.sent),
               f"{answered} + {result.unanswered()} vs {len(result.sent)}")
        _check(checks, "unmatched_responses == 0",
               result.unmatched_responses == 0,
               f"{result.unmatched_responses} unmatched")
        facts["checks"] = checks
        return facts

    def teardown(self, state):
        echo = state.pop("echo", None)
        if echo is not None:
            echo.stop()
        state.clear()


class TraceStream:
    """The constant-memory trace pipeline: generate, mutate, shard, drain."""

    name = "trace_stream"

    def __init__(self, workdir):
        self.config = WORKLOAD_CONFIG[self.name]
        self.workdir = workdir

    def setup(self, seed, iteration):
        import repro.trace as trace_api

        config = self.config
        directory = os.path.join(self.workdir,
                                 f"shards-{os.getpid()}-{iteration}")
        generator = trace_api.scale_stream(
            config["records"], mean_rate=config["mean_rate"],
            client_count=config["clients"],
            tcp_fraction=config["tcp_fraction"], seed=seed)
        # The first record builds the generator's wire pool: set-up.
        first = next(generator)
        mutator = trace_api.QueryMutator(
            [trace_api.retarget("203.0.113.53")])
        stream = mutator.stream(itertools.chain([first], generator))
        return {"directory": directory, "stream": stream}

    def measure(self, state):
        from repro.replay.result import ReplayResult
        from repro.trace import stream as shard_api

        config = self.config
        directory = state["directory"]
        cpu_start = time.process_time()
        started = time.perf_counter()
        manifest = shard_api.split_shards(
            state["stream"], directory, config["shards"],
            chunk_records=config["chunk_records"])
        result = ReplayResult("trace-stream", aggregate=True)
        trace_start = manifest["first_timestamp"] or 0.0
        result.trace_start = trace_start
        result.start_clock = 0.0
        drained = 0
        for index in range(manifest["num_shards"]):
            path = shard_api.shard_path(directory, index, manifest)
            for record in shard_api.iter_shard_file(path):
                result.count_send(record.protocol, record.timestamp,
                                  record.timestamp - trace_start)
                drained += 1
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu_start
        on_disk = sum(os.path.getsize(shard_api.shard_path(directory, i,
                                                           manifest))
                      for i in range(manifest["num_shards"]))
        generated = config["records"]
        per_hundred = int(round(config["tcp_fraction"] * 100))
        expected_tcp = (generated // 100) * per_hundred \
            + min(generated % 100, per_hundred)
        expected = {"tcp": expected_tcp, "udp": generated - expected_tcp}
        counts = dict(result.protocol_counts)
        facts = {"queries": generated, "sent": result.sent_count,
                 "answered": result.sent_count,
                 "lost": generated - result.sent_count,
                 "busy_s": wall, "wall_s": wall, "cpu_s": cpu,
                 "records_generated": generated, "bytes_on_disk": on_disk}
        checks = []
        _check(checks, "drained = accounted = written = generated",
               drained == result.sent_count == manifest["total_records"]
               == generated,
               f"{drained} / {result.sent_count} / "
               f"{manifest['total_records']} / {generated}")
        _check(checks, "per-protocol counts", counts == expected,
               f"{counts} vs {expected}")
        facts["checks"] = checks
        return facts

    def teardown(self, state):
        directory = state.get("directory")
        if directory:
            shutil.rmtree(directory, ignore_errors=True)
        state.clear()


def make(name, workdir):
    if name == "trace_stream":
        return TraceStream(workdir)
    return {"sim_zipf": SimZipf, "root_tls": RootTls,
            "live_burst": LiveBurst}[name]()

