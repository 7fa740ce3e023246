"""What ``BENCHMARK.json`` has no keys for: seeds, sizes, span plan.

``BENCHMARK.json`` at the repository root names the workloads and the
metrics with their units and better directions; ``run.py`` reads them
from there.  This module adds the default and held-out seeds, the
per-workload sizes, the spans a traced run wraps, and, for every
per-layer metric, which end-to-end metric on which workload it is
expected to move.
"""

from __future__ import annotations

# The seed a run uses when none is given, and a second seed kept out of
# development: a claimed gain must also hold on it.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

# One iteration = set up, replay, check.  A run repeats iterations until
# ``--seconds`` of measured (non-setup) time have passed, and at least
# MIN_ITERATIONS times so the sim workloads can compare two replays of
# the same seed.
MIN_ITERATIONS = 2

WORKLOAD_CONFIG = {
    "sim_zipf": {
        "queries": 10_000, "population": 200, "exponent": 1.1,
        "fast_replay_rate": 200_000.0, "extra_time": 5.0,
    },
    "root_tls": {
        "rate": 200.0, "duration": 20.0, "monitor_period": 5.0,
        "protocol": "tls", "tcp_timeout": 20.0, "settle": 5.0,
    },
    "live_burst": {
        "queries": 5_000, "clients": 64, "distributors": 1,
        "queriers_per_distributor": 1, "start_delay": 0.05,
    },
    "trace_stream": {
        "records": 30_000, "clients": 5_000, "shards": 4,
        "chunk_records": 4096, "mean_rate": 100_000.0,
        "tcp_fraction": 0.03,
    },
}

# How far each workload's timings follow the calibration kernel's speed:
# a figure is scaled by (nominal / measured kernel speed) ** elasticity
# (run.py).  Fitted as the least-squares slope of log(figure) on
# log(kernel speed) over 2,100 iterations from four sets of ten runs on
# a 2-vCPU shared host: 0.85-1.12 for the pure-Python workloads, so 1;
# 0.36 (CPU time), 0.55 (qps) and 0.63 (set-up) for live_burst, which
# spends much of its time in the kernel's socket paths and waiting on
# the echo process, so 0.5.  Scaled fully, live_burst was over-corrected
# whenever the host slowed the kernel but not the sockets.
SPEED_ELASTICITY = {
    "sim_zipf": 1.0,
    "root_tls": 1.0,
    "live_burst": 0.5,
    "trace_stream": 1.0,
}

# Printed by name in every untraced run's report, but not part of the
# machine-read result: the raw (unscaled) timings and the calibration
# kernel's speeds they are scaled by; lost_frac, zero in a healthy run
# (the result line's ``failed`` count carries it); and the simulated
# answer times, which repeat exactly and so are checked rather than
# compared.
REPORTED_ONLY = [
    ("qps", "1/s"),
    ("cpu_us_per_query", "us"),
    ("raw_setup_s", "s"),
    ("wall_speed", "loops/us"),
    ("cpu_speed", "loops/us"),
    ("lost_frac", "ratio"),
    ("answer_ms_p50", "ms"),
    ("answer_ms_p99", "ms"),
]

# Span plan: (target, span name, options).  Targets are the program's
# public functions and methods, plus a few private hooks where the
# public surface has no boundary to wrap (noted inline).
_FRAME_HEADER_BYTES = 5   # repro.replay.protocol frame header: !IB


def _batch_len(args, _kwargs):
    return len(args[1])


def _client_role(args, kwargs):
    role = args[2] if len(args) > 2 else kwargs.get("role")
    return 1 if role == "client" else 0


def _frame_bytes(args, _kwargs):
    return _FRAME_HEADER_BYTES + len(args[2])


SPAN_PLAN = [
    ("repro.trace.synthetic:zipf_trace", "trace.generate", {}),
    ("repro.trace.synthetic:burst_trace", "trace.generate", {}),
    ("repro.trace.synthetic:BRootWorkload.generate", "trace.generate", {}),
    ("repro.trace.synthetic:scale_stream", "trace.generate",
     {"generator": True}),
    ("repro.trace.mutator:QueryMutator.stream", "trace.mutate",
     {"generator": True}),
    ("repro.trace.mutator:QueryMutator.apply", "trace.mutate", {}),
    ("repro.trace.stream:split_shards", "trace.write", {}),
    ("repro.trace.stream:iter_shard_file", "trace.read",
     {"generator": True}),
    ("repro.replay.result:ReplayResult.add", "result.account", {}),
    ("repro.replay.result:ReplayResult.count_send", "result.account", {}),
    ("repro.replay.result:ReplayResult.count_answer", "result.account", {}),
    ("repro.replay.engine:SimReplayEngine.schedule_trace",
     "engine.schedule", {}),
    ("repro.replay.querier:SimQuerier.send", "querier.send", {}),
    ("repro.replay.querier:SimQuerier.send_batch", "querier.send", {}),
    ("repro.netsim.core:EventLoop.run_until", "netsim.loop", {}),
    ("repro.netsim.network:Network.transmit", "netsim.transmit", {}),
    ("repro.netsim.network:Network.transmit_batch", "netsim.transmit",
     {"units": _batch_len}),
    ("repro.netsim.packet:packet_checksum", "netsim.checksum", {}),
    ("repro.netsim.network:Host.receive_packet", "netsim.receive", {}),
    ("repro.netsim.network:Host.receive_packet_batch", "netsim.receive", {}),
    ("repro.netsim.network:UdpSocket.deliver", "netsim.receive", {}),
    ("repro.netsim.network:UdpSocket.deliver_batch", "netsim.receive", {}),
    ("repro.netsim.tcp:TcpStack.connect", "netsim.tcp_connect", {}),
    ("repro.netsim.tcp:TcpStack.receive", "netsim.tcp", {}),
    ("repro.netsim.tcp:TcpConnection.send", "netsim.tcp", {}),
    ("repro.netsim.tls:TlsEndpoint.__init__", "netsim.tls_endpoint",
     {"units": _client_role}),
    ("repro.netsim.tls:TlsEndpoint.send", "netsim.tls", {}),
    # The TCP data callback a TLS endpoint installs on its connection.
    ("repro.netsim.tls:TlsEndpoint._tcp_data", "netsim.tls", {}),
    # The UDP socket callbacks HostedDnsServer installs at start-up.
    ("repro.server.hosting:HostedDnsServer._on_udp", "server.hosting", {}),
    ("repro.server.hosting:HostedDnsServer._on_udp_batch",
     "server.hosting", {}),
    ("repro.server.authoritative:AuthoritativeServer.serve_wire",
     "server.serve", {}),
    ("repro.server.authoritative:AuthoritativeServer.serve_wire_fast",
     "server.serve", {}),
    ("repro.server.authoritative:AuthoritativeServer.handle_query",
     "server.serve", {}),
    ("repro.dns.message:Message.from_wire", "dns.decode", {}),
    ("repro.dns.message:Message.to_wire", "dns.encode", {}),
    # The sampler's tick body (TimeSeriesSampler schedules it itself).
    ("repro.telemetry.timeseries:_SamplerBase._sample",
     "telemetry.sample", {}),
    ("repro.telemetry.core:Telemetry.on_transmit", "telemetry.hook", {}),
    ("repro.telemetry.core:Telemetry.on_send", "telemetry.hook", {}),
    ("repro.telemetry.core:Telemetry.on_answer", "telemetry.hook", {}),
    # Every control frame leaves through MessageSocket._send.
    ("repro.replay.protocol:MessageSocket._send", "protocol.send",
     {"units": _frame_bytes, "cpu": True}),
    ("repro.replay.protocol:MessageSocket.receive", "protocol.recv",
     {"cpu": True}),
]

# Per-layer metrics of the traced run: name -> (layer, moves).
# ``moves`` names the end-to-end metric(s) and workload(s) a change to
# the layer should show up in; later issues cite these names.
PER_LAYER = {
    "trace.generate_us_per_record": (
        "trace", "norm_qps on trace_stream; setup_s on root_tls"),
    "trace.mutate_us_per_record": ("trace", "norm_qps on trace_stream"),
    "trace.write_us_per_record": (
        "trace", "norm_qps on trace_stream (split_shards self time, "
        "excluding the generator it pulls from)"),
    "trace.read_us_per_record": ("trace", "norm_qps on trace_stream"),
    "trace.bytes_per_record": ("trace", "norm_qps on trace_stream"),
    "result.account_us_per_query": (
        "replay.result",
        "norm_qps on trace_stream and sim_zipf; peak_rss_mb"),
    "engine.schedule_us_per_query": (
        "replay.engine", "norm_qps on sim_zipf"),
    "querier.send_self_us_per_query": (
        "replay.querier",
        "norm_qps on sim_zipf (SimQuerier.send/send_batch minus nested "
        "spans)"),
    "netsim.loop_us_per_query": (
        "netsim", "norm_qps on sim_zipf and root_tls"),
    "netsim.events_per_query": (
        "netsim", "norm_qps on sim_zipf and root_tls"),
    "netsim.transmit_self_us_per_packet": (
        "netsim", "norm_qps on sim_zipf and root_tls"),
    "netsim.packets_per_query": (
        "netsim", "norm_qps on sim_zipf and root_tls"),
    "netsim.checksum_calls_per_query": ("netsim", "norm_qps on sim_zipf"),
    "netsim.checksum_us_per_query": ("netsim", "norm_qps on sim_zipf"),
    "netsim.receive_self_us_per_packet": (
        "netsim", "norm_qps on sim_zipf and root_tls"),
    "netsim.tcp_self_us_per_query": ("netsim", "norm_qps on root_tls"),
    "netsim.tls_self_us_per_query": ("netsim", "norm_qps on root_tls"),
    "netsim.tcp_conns_per_query": (
        "netsim", "norm_qps on root_tls; answer_ms_p99 on root_tls"),
    "netsim.tls_handshakes_per_query": (
        "netsim", "norm_qps on root_tls; answer_ms_p99 on root_tls"),
    "server.hosting_self_us_per_query": (
        "server", "norm_qps on sim_zipf and root_tls"),
    "server.serve_self_us_per_query": (
        "server", "norm_qps on root_tls (misses) and sim_zipf (hits)"),
    "server.wire_cache_hit_frac": (
        "server", "norm_qps on root_tls and sim_zipf"),
    "server.decodes_per_query": ("server", "norm_qps on sim_zipf"),
    "dns.decode_us_per_call": ("dns", "norm_qps on root_tls"),
    "dns.encode_us_per_call": ("dns", "norm_qps on root_tls"),
    "telemetry.sample_us_per_query": ("telemetry", "norm_qps on root_tls"),
    "telemetry.hooks_us_per_query": ("telemetry", "norm_qps on root_tls"),
    "protocol.frames_per_query": (
        "replay.protocol",
        "norm_qps and norm_cpu_us_per_query on live_burst"),
    "protocol.bytes_per_query": (
        "replay.protocol",
        "norm_qps and norm_cpu_us_per_query on live_burst"),
    "protocol.send_us_per_frame": (
        "replay.protocol",
        "norm_qps and norm_cpu_us_per_query on live_burst (thread CPU)"),
    "protocol.recv_us_per_frame": (
        "replay.protocol",
        "norm_qps and norm_cpu_us_per_query on live_burst (thread CPU)"),
    "protocol.recv_wait_us_per_frame": (
        "replay.protocol",
        "norm_qps on live_burst (receive wall time not spent on CPU)"),
    "live.querier_residual_us_per_query": (
        "replay.distributed",
        "norm_cpu_us_per_query on live_burst (replay CPU outside protocol "
        "spans)"),
    "live.response_match_frac": (
        "replay.distributed",
        "lost_frac on live_burst, through responses received but not "
        "matched (duplicates or unmatched ids); a query lost in flight is "
        "never received, so it shows in lost_frac only"),
    "ledger.residual_frac": (
        "ledger", "none: wall time of the measured phase outside every span"),
    "ledger.trace_overhead_ratio": (
        "ledger",
        "none: traced norm_qps over untraced norm_qps in the same run"),
}
