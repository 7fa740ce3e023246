"""One question-key parser matches queries to responses on every path.

Names with bytes that presentation format escapes (``a\\032b.``,
``x\\.y.``) must key the same on send and on receive, or every response
to them goes unmatched.
"""

import pytest

from repro.dns import Message, Name, RRType, question_key
from repro.experiments import build_evaluation_topology
from repro.experiments.fig6_timing import wildcard_example_zone
from repro.replay import (DistributedConfig, LiveDistributedReplay,
                          LiveUdpEchoServer, SimReplayEngine)
from repro.server import (AuthoritativeServer, HostedDnsServer,
                          TransportConfig)
from repro.trace import QueryRecord, Trace

QNAMES = ["www.example.com.", "a\\032b.example.com.", "x\\.y.example.com."]


def query_wire(qname: str, msg_id: int = 7) -> bytes:
    return Message.make_query(Name.from_text(qname), RRType.A,
                              msg_id=msg_id).to_wire()


def escaped_trace(dst: str, dport: int, protocol: str) -> Trace:
    records = [QueryRecord(0.01 * index, f"10.1.0.{index + 1}", 4000 + index,
                           dst, dport, protocol, query_wire(qname, index + 1))
               for index, qname in enumerate(QNAMES)]
    return Trace(records, name="escaped-qnames")


class TestQuestionKey:
    @pytest.mark.parametrize("qname", QNAMES + ["MiXeD.Example.COM.", "."])
    def test_query_and_response_key_the_same(self, qname):
        query = Message.from_wire(query_wire(qname))
        response = Message.make_response(query)
        assert question_key(response.to_wire()) == \
            question_key(query_wire(qname))

    def test_distinct_names_never_collide(self):
        keys = {question_key(query_wire(qname))
                for qname in QNAMES + ["x.y.example.com.", "a b.example.com."]}
        assert len(keys) == len(QNAMES) + 1   # a\032b. is "a b."

    def test_case_insensitive(self):
        assert question_key(query_wire("WWW.Example.COM.")) == \
            question_key(query_wire("www.example.com."))

    def test_malformed(self):
        wire = query_wire("www.example.com.")
        assert question_key(wire[:-3]) is None      # qtype cut off
        pointer = wire[:12] + b"\xc0\x0c" + wire[-4:]
        assert question_key(pointer) is None


class TestEscapedQnamesMatch:
    def test_live_threads_topology(self):
        with LiveUdpEchoServer() as server:
            replay = LiveDistributedReplay(
                (server.address, server.port),
                DistributedConfig(distributors=1, queriers_per_distributor=1,
                                  start_delay=0.05))
            trace = escaped_trace(server.address, server.port, "udp")
            result = replay.replay(trace)
        assert result.unmatched_responses == 0
        assert sorted(q.qname for q in result.sent) == sorted(QNAMES)
        assert all(q.answered_at is not None for q in result.sent)

    def test_sim_tcp_stream_path(self):
        testbed = build_evaluation_topology()
        HostedDnsServer(testbed.server_host,
                        AuthoritativeServer.single_view(
                            [wildcard_example_zone()]),
                        config=TransportConfig(udp=True, tcp=True))
        trace = escaped_trace(testbed.server_address, 53, "tcp")
        result = SimReplayEngine(testbed.network).replay(trace)
        assert result.unmatched_responses == 0
        assert result.answered_fraction() == 1.0
