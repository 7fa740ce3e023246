"""Per-layer ledger: span totals and workload counters -> metrics.

Every metric in ``spec.PER_LAYER`` is computed for every workload; a
layer the workload does not exercise reads 0.  Times are self times
(a span minus its child spans), in microseconds, normalised by the
work unit in the metric's name:

* ``per_query``  -- queries handled in the traced iterations;
* ``per_record`` -- trace records generated for them;
* ``per_packet`` -- packets through ``Network.transmit[_batch]``;
* ``per_call`` / ``per_frame`` -- calls of the wrapped function.
"""

from __future__ import annotations

from spec import PER_LAYER


def _get(totals, name, field):
    return totals.get(name, {}).get(field, 0)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def compute(run, setup, covered_ns, traced, overhead_ratio):
    """Metric name -> value.

    ``run``/``setup``: tracer totals per phase; ``traced``: facts list.
    """
    queries = sum(facts["sent"] for facts in traced)
    records = sum(facts["records_generated"] for facts in traced)
    wall_ns = sum(facts["wall_s"] for facts in traced) * 1e9

    def self_us(name, phases=(run,)):
        return sum(_get(phase, name, "self_ns") for phase in phases) / 1e3

    def summed(key):
        return sum(facts.get(key, 0) for facts in traced)

    packets = _get(run, "netsim.transmit", "units")
    send_frames = _get(run, "protocol.send", "calls")
    recv_frames = _get(run, "protocol.recv", "calls")
    send_cpu_us = _get(run, "protocol.send", "cpu_ns") / 1e3
    recv_cpu_us = _get(run, "protocol.recv", "cpu_ns") / 1e3
    recv_wall_us = _get(run, "protocol.recv", "self_ns") / 1e3
    lookups = summed("cache_hits") + summed("cache_misses")
    both = (setup, run)
    live = send_frames > 0

    values = {
        "trace.generate_us_per_record":
            _ratio(self_us("trace.generate", both), records),
        "trace.mutate_us_per_record":
            _ratio(self_us("trace.mutate", both), records),
        "trace.write_us_per_record": _ratio(self_us("trace.write"), records),
        "trace.read_us_per_record": _ratio(self_us("trace.read"), records),
        "trace.bytes_per_record": _ratio(summed("bytes_on_disk"), records),
        "result.account_us_per_query":
            _ratio(self_us("result.account"), queries),
        "engine.schedule_us_per_query":
            _ratio(self_us("engine.schedule"), queries),
        "querier.send_self_us_per_query":
            _ratio(self_us("querier.send"), queries),
        "netsim.loop_us_per_query": _ratio(self_us("netsim.loop"), queries),
        "netsim.events_per_query": _ratio(summed("events"), queries),
        "netsim.transmit_self_us_per_packet":
            _ratio(self_us("netsim.transmit"), packets),
        "netsim.packets_per_query": _ratio(packets, queries),
        "netsim.checksum_calls_per_query":
            _ratio(_get(run, "netsim.checksum", "calls"), queries),
        "netsim.checksum_us_per_query":
            _ratio(self_us("netsim.checksum"), queries),
        "netsim.receive_self_us_per_packet":
            _ratio(self_us("netsim.receive"), packets),
        "netsim.tcp_self_us_per_query": _ratio(self_us("netsim.tcp"), queries),
        "netsim.tls_self_us_per_query": _ratio(self_us("netsim.tls"), queries),
        "netsim.tcp_conns_per_query":
            _ratio(_get(run, "netsim.tcp_connect", "calls"), queries),
        "netsim.tls_handshakes_per_query":
            _ratio(_get(run, "netsim.tls_endpoint", "units"), queries),
        "server.hosting_self_us_per_query":
            _ratio(self_us("server.hosting"), queries),
        "server.serve_self_us_per_query":
            _ratio(self_us("server.serve"), queries),
        "server.wire_cache_hit_frac": _ratio(summed("cache_hits"), lookups),
        "server.decodes_per_query": _ratio(summed("decodes"), queries),
        "dns.decode_us_per_call": _ratio(
            self_us("dns.decode"), _get(run, "dns.decode", "calls")),
        "dns.encode_us_per_call": _ratio(
            self_us("dns.encode"), _get(run, "dns.encode", "calls")),
        "telemetry.sample_us_per_query":
            _ratio(self_us("telemetry.sample"), queries),
        "telemetry.hooks_us_per_query":
            _ratio(self_us("telemetry.hook"), queries),
        "protocol.frames_per_query": _ratio(send_frames, queries),
        "protocol.bytes_per_query":
            _ratio(_get(run, "protocol.send", "units"), queries),
        "protocol.send_us_per_frame": _ratio(send_cpu_us, send_frames),
        "protocol.recv_us_per_frame": _ratio(recv_cpu_us, recv_frames),
        "protocol.recv_wait_us_per_frame":
            _ratio(recv_wall_us - recv_cpu_us, recv_frames),
        "live.querier_residual_us_per_query": _ratio(
            summed("cpu_s") * 1e6 - send_cpu_us - recv_cpu_us, queries)
        if live else 0.0,
        "live.response_match_frac": _ratio(
            summed("answered"), summed("responses_received"))
        if live else 0.0,
        "ledger.residual_frac": _ratio(
            max(wall_ns - covered_ns, 0.0), wall_ns),
        "ledger.trace_overhead_ratio": overhead_ratio,
    }
    missing = set(PER_LAYER) ^ set(values)
    if missing:
        raise RuntimeError(f"ledger and spec disagree on {sorted(missing)}")
    return values
