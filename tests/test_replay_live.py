"""Tests for the live (real socket) replay path.  Kept short: these use
real wall-clock time on loopback."""

import pytest

from repro.replay import (DistributedConfig, LiveDistributedReplay,
                          LiveUdpEchoServer, ThroughputReport,
                          measure_throughput)
from repro.trace import fixed_interval_trace


class TestEchoServer:
    def test_start_stop(self):
        with LiveUdpEchoServer() as server:
            assert server.port > 0
            assert server.address == "127.0.0.1"

    def test_echoes_with_qr_bit(self):
        import socket
        with LiveUdpEchoServer() as server:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.settimeout(2.0)
            query = b"\x12\x34\x01\x00" + b"\x00" * 8 + b"payload"
            sock.sendto(query, (server.address, server.port))
            reply, _peer = sock.recvfrom(65535)
            sock.close()
        assert reply[:2] == b"\x12\x34"
        assert reply[2] & 0x80  # QR set
        assert reply[3:] == query[3:]


def _live_replay(server):
    """Timed live replay through a one-distributor, one-querier tree."""
    return LiveDistributedReplay(
        (server.address, server.port),
        DistributedConfig(distributors=1, queriers_per_distributor=1))


class TestLiveReplay:
    def test_short_replay_accuracy(self):
        trace = fixed_interval_trace(0.02, 0.6, name="live-test")
        with LiveUdpEchoServer() as server:
            live = _live_replay(server)
            result = live.replay(trace)
        assert len(result) == len(trace)
        # Real timers on loopback: errors should be well under 20 ms.
        errors = result.send_time_errors(skip_seconds=0.1)
        assert errors
        assert max(abs(e) for e in errors) < 0.050
        assert result.answered_fraction() > 0.9

    def test_latency_measured(self):
        trace = fixed_interval_trace(0.05, 0.3, name="live-lat")
        with LiveUdpEchoServer() as server:
            live = _live_replay(server)
            result = live.replay(trace)
        latencies = result.latencies()
        assert latencies
        assert all(0 < latency < 0.5 for latency in latencies)

    def test_responses_matched_while_later_sends_wait(self):
        # Once the stream has ended the querier sleeps between timed
        # sends; responses must still be matched meanwhile, or every
        # latency grows to the rest of the trace.
        trace = fixed_interval_trace(0.05, 1.0, name="live-wait")
        with LiveUdpEchoServer() as server:
            result = _live_replay(server).replay(trace)
        assert result.answered_fraction() == 1.0
        assert max(result.latencies()) < 0.2


class TestThroughput:
    def test_measure_throughput_reports(self):
        report = measure_throughput(duration=0.4, sample_period=0.2)
        assert isinstance(report, ThroughputReport)
        assert report.queries_sent > 100
        assert report.mean_qps > 500
        assert report.responses_received > 0
        assert report.samples
        assert report.mean_mbps > 0
