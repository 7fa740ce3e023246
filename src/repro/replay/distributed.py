"""A live distributed replay: Figure 4 with real sockets.

This is the process topology of the paper's prototype:

* the **controller** (Reader + Postman) streams the trace over TCP
  message sockets (:mod:`repro.replay.protocol`) to the distributors,
  broadcasting a time-sync message first;
* each **distributor** forwards records over further TCP sockets to its
  queriers, sticky by original source address;
* each **querier** applies the ΔT = Δt̄ − Δt timing discipline against
  the real clock and sends real UDP queries, matching responses on the
  (message id, qname, qtype) key.

Two deployments share this module's tiers.  The default
(``topology="threads"``) runs distributors and queriers as threads in
one process — the sockets, framing, time synchronization, and sticky
routing are the real thing, but the GIL caps the aggregate query rate.
``topology="processes"`` (:mod:`repro.replay.multiproc`) launches them
as real worker processes, the paper's actual deployment, so replay
throughput scales with cores (Fig. 9).
"""

from __future__ import annotations

import heapq
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from ..dns import WireError
from ..trace import QueryRecord, Trace
from ..trace.stream import DEFAULT_READ_AHEAD, iter_shard_file
from .distributor import StickyAssigner
from .protocol import (MSG_END, MSG_RECORD, MSG_RECORD_SEQ, MSG_SHUTDOWN,
                       MSG_TIME_SYNC, MessageSocket, ProtocolError,
                       connected_pair)
from .querier import MatchKey, match_key
from .recovery import RecoveryConfig
from .result import ReplayResult, SentQuery
from .supervision import ReplayWatchdog, SupervisionConfig

ServerAddress = Tuple[str, int]

# Aggregate-mode bound on response-matching state: unanswered sends and
# answered-key tombstones would otherwise grow with the trace (exactly
# the per-query memory aggregate accounting exists to avoid).  Evicted
# pending sends simply stay unanswered — the same fate a lost datagram
# already has.
_AGGREGATE_PENDING_CAP = 1 << 16


def _sent_key(message_id: int, record: QueryRecord) -> MatchKey:
    """The key the response to ``record`` re-sent as ``message_id``
    carries: the same question parser keys both directions."""
    key = match_key(record.wire)
    if key is None:
        return (message_id, b"", 0)
    return (message_id, key[1], key[2])


def _qname_text(record: QueryRecord) -> str:
    try:
        question = record.question()
    except WireError:
        question = None
    return question[0].to_text().lower() if question is not None else "-"


@dataclass
class DistributedConfig:
    distributors: int = 2
    queriers_per_distributor: int = 2
    settle_time: float = 0.3
    start_delay: float = 0.1
    # "threads" collapses the tree into one process; "processes" runs
    # distributors and queriers as real worker processes
    # (repro.replay.multiproc) so replay rate scales past the GIL.
    topology: str = "threads"
    # Worker-process start method (processes topology only); None picks
    # fork when the platform offers it, else spawn.
    start_method: Optional[str] = None
    # Supervision (off by default): heartbeat watchdog over queriers
    # plus optional wall-clock deadline.  ``querier_factory`` lets tests
    # inject a stalling querier; it must accept the same arguments as
    # ``_LiveQuerier``.
    supervision: Optional[SupervisionConfig] = None
    querier_factory: Optional[Callable] = None
    # Self-healing (processes topology only): worker respawn with
    # checkpointed result shards and exactly-once redelivery.  None
    # keeps the historical fail-fast behavior byte for byte.
    recovery: Optional[RecoveryConfig] = None
    # Aggregate accounting: queriers fold every send into O(1)
    # counters/histograms (ReplayResult(aggregate=True)) instead of
    # retaining a SentQuery per query.  This is what keeps a 10⁸-query
    # streamed replay at flat RSS; per-query forensics are unavailable.
    aggregate_results: bool = False


class _LiveQuerier(threading.Thread):
    """Receives records over a MessageSocket; sends real UDP queries."""

    def __init__(self, querier_id: int, inbound: MessageSocket,
                 server: ServerAddress, result: ReplayResult,
                 lock: threading.Lock):
        super().__init__(daemon=True)
        self.querier_id = querier_id
        self.inbound = inbound
        self.server = server
        self.result = result
        self.lock = lock
        # List mode retains SentQuery entries; aggregate mode stores
        # only the sent_at float (enough to compute the latency).
        self._pending: Dict[MatchKey, List] = {}
        self._pending_entries = 0
        self._answered: Set[MatchKey] = set()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.connect(server)
        self._sock.setblocking(False)
        self._trace_start: Optional[float] = None
        self._clock_start: Optional[float] = None
        self._queue: List[Tuple[float, int, QueryRecord,
                                Optional[int]]] = []
        self._sequence = 0
        self._done_receiving = False
        self._closed = threading.Event()
        # Recovery hooks (multiproc recovery mode; all None in thread
        # mode so the historical behavior is untouched).
        self.poll_timeout: Optional[float] = None   # bounded receive
        self.checkpoint_policy = None       # recovery.CheckpointPolicy
        self.checkpoint_sink: Optional[Callable[[dict], None]] = None
        self.reconnect: Optional[Callable[[], Optional[MessageSocket]]] \
            = None                          # inbound re-dial after a drop
        self._seen_indices: Set[int] = set()  # redelivery dedup (global)
        self.redundant_records = 0          # redelivered dups dropped here
        self._last_checkpoint_sent = 0
        self._last_checkpoint_time = time.monotonic()
        # Supervision surface: the watchdog reads heartbeat/has_work,
        # the deadline handler sets shed_event.
        self.heartbeat = time.monotonic()
        self.records_received = 0
        self.records_sent = 0
        self.shed_event = threading.Event()
        # Optional local wall-clock budget, armed at TIME_SYNC: the
        # multi-process topology cannot reach into a worker's shed_event
        # from the controller once the stream has ended, so the deadline
        # is enforced where the queue lives.
        self.deadline: Optional[float] = None
        self._deadline_timer: Optional[threading.Timer] = None
        self.name = f"live-querier-{querier_id}"
        # Telemetry hub, installed by LiveDistributedReplay before
        # start(); calls are serialized under the shared result lock.
        self.telemetry = None

    def has_work(self) -> bool:
        """True while queued records await sending (watchdog predicate)."""
        return bool(self._queue)

    def run(self) -> None:
        try:
            self._run()
        finally:
            self.shutdown()

    def _run(self) -> None:
        if self.poll_timeout is not None:
            self.inbound.settimeout(self.poll_timeout)
        while True:
            self.heartbeat = time.monotonic()
            if not self._done_receiving:
                stalled_receive = False
                try:
                    message = self.inbound.receive()
                except TimeoutError:
                    # Bounded poll (recovery mode): no frame this round;
                    # fall through to the send/receive drains below.
                    message = None
                    stalled_receive = True
                except ProtocolError:
                    # A corrupt or torn-down control channel ends the
                    # stream; queued records still drain below.
                    message = None
                if stalled_receive:
                    pass
                elif message is None:
                    # EOF without END: the distributor died.  In
                    # recovery mode its respawn rebinds the same port —
                    # re-dial with backoff before giving up the stream.
                    if not self._reconnect_inbound():
                        self._done_receiving = True
                elif message[0] == MSG_END:
                    self._done_receiving = True
                elif message[0] == MSG_SHUTDOWN:
                    # Controller-ordered stop (deadline shedding in the
                    # process topology): drop queued work, finish.
                    self.shed_event.set()
                    self._done_receiving = True
                elif message[0] == MSG_TIME_SYNC:
                    # Keep the first anchor: a re-sent TIME_SYNC after a
                    # reconnect must not skew already-scheduled sends.
                    if self._trace_start is None:
                        self._trace_start = message[1]
                        self._clock_start = time.monotonic()
                        if self.result.aggregate:
                            # Aggregate accounting folds §2.6 time
                            # errors at send time, so the anchors must
                            # be in place before the first count_send.
                            with self.lock:
                                if self.result.trace_start is None:
                                    self.result.trace_start = \
                                        self._trace_start
                                    self.result.start_clock = \
                                        self._clock_start
                    if self.deadline is not None \
                            and self._deadline_timer is None:
                        self._deadline_timer = threading.Timer(
                            self.deadline, self.shed_event.set)
                        self._deadline_timer.daemon = True
                        self._deadline_timer.start()
                elif message[0] == MSG_RECORD:
                    self.records_received += 1
                    self._enqueue(message[1])
                elif message[0] == MSG_RECORD_SEQ:
                    index, record = message[1]
                    if index in self._seen_indices:
                        # Redelivered copy of a record already queued or
                        # sent here: exactly-once, drop it locally.
                        self.redundant_records += 1
                    else:
                        self._seen_indices.add(index)
                        self.records_received += 1
                        self._enqueue(record, index)
            if self.shed_event.is_set():
                self._shed_queue()
            self._drain_due()
            self._drain_responses()
            self._maybe_checkpoint()
            if self._done_receiving and not self._queue:
                break
        # Settle: catch responses still in flight.
        deadline = time.monotonic() + 0.2
        while time.monotonic() < deadline:
            self.heartbeat = time.monotonic()
            self._drain_responses()
            time.sleep(0.005)
        self._maybe_checkpoint()

    def _reconnect_inbound(self) -> bool:
        """Re-dial a dropped distributor link (recovery mode only)."""
        if self.reconnect is None or self.shed_event.is_set():
            return False
        replacement = self.reconnect()
        if replacement is None:
            return False
        self.inbound.close()
        self.inbound = replacement
        if self.poll_timeout is not None:
            self.inbound.settimeout(self.poll_timeout)
        with self.lock:
            self.result.reconnects += 1
        return True

    def _maybe_checkpoint(self, force: bool = False) -> None:
        """Emit a cumulative result snapshot if the cadence says so."""
        if self.checkpoint_sink is None or self.checkpoint_policy is None:
            return
        new_records = self.records_sent - self._last_checkpoint_sent
        since = time.monotonic() - self._last_checkpoint_time
        if not (force and new_records > 0) \
                and not self.checkpoint_policy.due(new_records, since):
            return
        with self.lock:
            snapshot = self.result.to_dict()
        self.checkpoint_sink(snapshot)
        self._last_checkpoint_sent = self.records_sent
        self._last_checkpoint_time = time.monotonic()

    def shutdown(self) -> None:
        """Close every socket this querier owns (idempotent).

        Called from the querier itself on normal exit, and from the
        controller for queriers that outlive the replay (watchdog
        stalls, expired join deadlines) so repeated runs don't leak the
        UDP socket and both MessageSocket ends.
        """
        if self._closed.is_set():
            return
        self._closed.set()
        if self._deadline_timer is not None:
            self._deadline_timer.cancel()
        self.inbound.close()
        try:
            self._sock.close()
        except OSError:
            pass

    def _shed_queue(self) -> None:
        """Deadline shedding: count queued-but-unsent records, drop them."""
        if self._queue:
            with self.lock:
                self.result.deadline_shed += len(self._queue)
            self._queue.clear()

    def _enqueue(self, record: QueryRecord,
                 index: Optional[int] = None) -> None:
        target = self._target_time(record)
        heapq.heappush(self._queue, (target, self._sequence, record, index))
        self._sequence += 1

    def _target_time(self, record: QueryRecord) -> float:
        if self._trace_start is None or self._clock_start is None:
            return time.monotonic()
        return self._clock_start + (record.timestamp - self._trace_start)

    def _drain_due(self) -> None:
        while self._queue:
            if self.shed_event.is_set():
                self._shed_queue()
                return
            target, _seq, record, index = self._queue[0]
            now = time.monotonic()
            self.heartbeat = now
            if target > now:
                if self._done_receiving:
                    # Nothing else is coming: sleep until the next send,
                    # matching responses meanwhile so their latencies
                    # stay true and the socket buffer cannot overflow.
                    self._drain_responses()
                    time.sleep(min(target - now, 0.01))
                    continue
                return
            heapq.heappop(self._queue)
            self._send(record, target, index)

    def _send(self, record: QueryRecord, scheduled_at: float,
              index: Optional[int] = None) -> None:
        message_id = self._sequence * 31 % 0xFFFF or 1
        self._sequence += 1
        wire = struct.pack("!H", message_id) + record.wire[2:]
        key = _sent_key(message_id, record)
        if self.result.aggregate:
            self._send_aggregate(record, key, wire)
            return
        entry = SentQuery(
            # Recovery mode carries the global trace index so the
            # controller's merge can dedup across respawns; classic mode
            # numbers the local shard and lets merge() re-index.
            index=index if index is not None else len(self.result.sent),
            source=record.src,
            trace_time=record.timestamp, scheduled_at=scheduled_at,
            sent_at=time.monotonic(), protocol="udp",
            qname=_qname_text(record),
            querier_id=self.querier_id)
        self._pending.setdefault(key, []).append(entry)
        self._answered.discard(key)
        with self.lock:
            self.result.add(entry)
            if self.telemetry is not None:
                self.telemetry.on_send(entry, wire)
        try:
            self._sock.send(wire)
            self.records_sent += 1
        except OSError:
            self.result.send_failures += 1

    def _send_aggregate(self, record: QueryRecord, key: MatchKey,
                        wire: bytes) -> None:
        """O(1)-memory send: fold into counters, keep only sent_at."""
        sent_at = time.monotonic()
        self._pending.setdefault(key, []).append(sent_at)
        self._pending_entries += 1
        self._answered.discard(key)
        with self.lock:
            self.result.count_send("udp", record.timestamp, sent_at)
        try:
            self._sock.send(wire)
            self.records_sent += 1
        except OSError:
            self.result.send_failures += 1
        if self._pending_entries > _AGGREGATE_PENDING_CAP:
            # Evict oldest keys (dict order ≈ insertion order): the
            # dropped sends are already counted and simply stay
            # unanswered if a late response does arrive.
            while self._pending_entries > _AGGREGATE_PENDING_CAP // 2:
                evicted, waiting = next(iter(self._pending.items()))
                self._pending_entries -= len(waiting)
                del self._pending[evicted]
        if len(self._answered) > _AGGREGATE_PENDING_CAP:
            self._answered.clear()

    def _drain_responses(self) -> None:
        while True:
            try:
                data = self._sock.recv(65535)
            except (BlockingIOError, OSError):
                return
            key = match_key(data)
            waiting = self._pending.get(key) if key is not None else None
            if waiting:
                entry = waiting.pop(0)
                answered_at = time.monotonic()
                if not waiting:
                    del self._pending[key]
                    self._answered.add(key)
                if self.result.aggregate:
                    # ``entry`` is the sent_at float; fold the latency.
                    self._pending_entries -= 1
                    with self.lock:
                        self.result.count_answer(answered_at - entry)
                    continue
                entry.answered_at = answered_at
                if self.telemetry is not None:
                    with self.lock:
                        self.telemetry.on_answer(entry)
            elif key is not None and key in self._answered:
                # A duplicated/stale datagram re-answering a completed
                # query; before full-key matching this could be credited
                # to a different in-flight query with a colliding id.
                with self.lock:
                    self.result.duplicate_responses += 1
            else:
                with self.lock:
                    self.result.unmatched_responses += 1


class _LiveDistributor(threading.Thread):
    """Forwards records to queriers, sticky by source address."""

    def __init__(self, distributor_id: int, inbound: MessageSocket,
                 querier_sockets: List[MessageSocket],
                 result: Optional[ReplayResult] = None,
                 lock: Optional[threading.Lock] = None):
        super().__init__(daemon=True)
        self.distributor_id = distributor_id
        self.inbound = inbound
        self.querier_sockets = querier_sockets
        # allow_empty: a respawned distributor may start with zero
        # queriers attached and adopt them as they reconnect; records
        # arriving in that window count as send_failures and are
        # recovered by the controller's redelivery rounds.
        self.assigner = StickyAssigner(querier_sockets, allow_empty=True)
        self.result = result
        self.lock = lock
        self.records_routed = 0
        # Per-socket routed counts, so a stalled querier's shed can be
        # computed as routed-to-it minus actually-sent-by-it.
        self.routed_per_socket: Dict[int, int] = {}
        # Cached for late joiners: a respawned querier attaching after
        # the broadcast still needs the timing anchor.
        self._trace_start: Optional[float] = None
        # Monotonic instant the first TIME_SYNC arrived: the clock
        # offset the cluster telemetry stream reports for alignment.
        self.sync_mono: Optional[float] = None

    def add_querier(self, outbound: MessageSocket) -> None:
        """Attach a (re)connected querier mid-run (recovery accept loop).

        The new socket gets the cached TIME_SYNC anchor first, then
        joins the sticky rotation — sources orphaned by a crashed
        predecessor rebalance onto it on their next record.
        """
        if self._trace_start is not None:
            try:
                outbound.send_time_sync(self._trace_start)
            except OSError:
                outbound.close()
                return
        self.querier_sockets.append(outbound)
        self.assigner.add(outbound)

    def run(self) -> None:
        try:
            for kind, payload in self.inbound.messages():
                if kind == MSG_TIME_SYNC:
                    self._trace_start = payload
                    if self.sync_mono is None:
                        self.sync_mono = time.monotonic()
                    for outbound in self.querier_sockets:
                        outbound.send_time_sync(payload)
                elif kind == MSG_RECORD:
                    self.records_routed += 1
                    self._route(payload)
                elif kind == MSG_RECORD_SEQ:
                    self.records_routed += 1
                    self._route(payload[1], payload[0])
                elif kind == MSG_SHUTDOWN:
                    # Controller-ordered stop: relay to the queriers so
                    # they shed their queues, then end the stream.
                    for outbound in self.querier_sockets:
                        try:
                            outbound.send_shutdown()
                        except OSError:
                            pass
                    return
        except ProtocolError:
            pass  # torn-down control channel: flush END downstream
        finally:
            for outbound in self.querier_sockets:
                try:
                    outbound.send_end()
                except OSError:
                    pass

    def run_shard_file(self, path: str,
                       read_ahead: int = DEFAULT_READ_AHEAD,
                       pace_lead: float = 2.0) -> None:
        """Self-source records from a shard file (streaming replay).

        The control socket carries only the timing handshake — the
        controller sends TIME_SYNC then END without ever reading a
        record (it knows the shard only through the manifest).  Records
        come off disk through :func:`iter_shard_file`'s bounded
        read-ahead, and routing is *paced*: a record is not forwarded
        until within ``pace_lead`` seconds of its replay time, so the
        querier heaps hold at most a few seconds of queries instead of
        the whole shard.  ``pace_lead <= 0`` disables pacing (as fast
        as the tree accepts, the classic firehose).
        """
        try:
            for kind, payload in self.inbound.messages():  # until END
                if kind == MSG_TIME_SYNC:
                    self._trace_start = payload
                    if self.sync_mono is None:
                        self.sync_mono = time.monotonic()
                    for outbound in self.querier_sockets:
                        outbound.send_time_sync(payload)
                elif kind == MSG_SHUTDOWN:
                    for outbound in self.querier_sockets:
                        try:
                            outbound.send_shutdown()
                        except OSError:
                            pass
                    return
            if self._trace_start is None:
                return   # controller vanished before the handshake
            for record in iter_shard_file(path, read_ahead=read_ahead):
                if pace_lead > 0:
                    lead = ((record.timestamp - self._trace_start)
                            - (time.monotonic() - self.sync_mono)
                            - pace_lead)
                    while lead > 0:
                        time.sleep(min(lead, 0.25))
                        lead = ((record.timestamp - self._trace_start)
                                - (time.monotonic() - self.sync_mono)
                                - pace_lead)
                self.records_routed += 1
                self._route(record)
        except ProtocolError:
            pass  # torn-down control channel: flush END downstream
        finally:
            for outbound in self.querier_sockets:
                try:
                    outbound.send_end()
                except OSError:
                    pass

    def _route(self, record: QueryRecord,
               index: Optional[int] = None) -> None:
        """Send to the sticky querier; on a dead socket, reroute.

        A querier that crashed shows up as a broken pipe on its message
        socket.  The dead entity is dropped from the sticky map and the
        record re-assigned, so its sources fail over to live queriers.
        """
        first_try = True
        while self.assigner.entities:
            outbound = self.assigner.assign(record.src)
            try:
                if index is None:
                    outbound.send_record(record)
                else:
                    outbound.send_record_seq(index, record)
                self.routed_per_socket[id(outbound)] = \
                    self.routed_per_socket.get(id(outbound), 0) + 1
            except OSError:
                self.assigner.remove(outbound)
                first_try = False
                continue
            if not first_try and self.result is not None:
                with self.lock:
                    self.result.reassigned_queries += 1
            return
        if self.result is not None:
            with self.lock:
                self.result.send_failures += 1


class LiveDistributedReplay:
    """The controller: builds the tree, streams the trace, collects.

    ``server`` is either one ``(address, port)`` tuple or a list of
    them; with a list, querier *i* targets ``server[i % len(server)]``
    (the scale-out benchmark gives each querier its own backend so the
    measured bottleneck stays on the client side, §4.3).
    """

    def __init__(self, server: Union[ServerAddress, List[ServerAddress]],
                 config: Optional[DistributedConfig] = None,
                 telemetry=None):
        servers = server if isinstance(server, list) else [server]
        if not servers:
            raise ValueError("need at least one server address")
        self.servers = [tuple(address) for address in servers]
        self.server = self.servers[0]
        self.config = config if config is not None else DistributedConfig()
        self.telemetry = telemetry
        self.result = ReplayResult(
            "distributed-live", aggregate=self.config.aggregate_results)
        self._lock = threading.Lock()
        # querier -> (distributor, dist-side socket, querier-side socket)
        self._wiring: Dict[object, Tuple["_LiveDistributor",
                                         MessageSocket, MessageSocket]] = {}
        self.watchdog: Optional[ReplayWatchdog] = None

    def server_for(self, querier_id: int) -> ServerAddress:
        return self.servers[querier_id % len(self.servers)]

    def _handle_stall(self, querier) -> None:
        """Terminate a stalled querier's links; account its lost queries.

        Closing both MessageSocket ends makes the distributor's next
        send to it raise OSError, which triggers the existing sticky
        failover (``StickyAssigner.remove``).  Records already routed to
        the querier but never sent are counted as ``stall_shed`` so the
        final ``ReplayResult`` stays truthful.
        """
        wiring = self._wiring.get(querier)
        with self._lock:
            self.result.watchdog_stalls += 1
            if wiring is not None:
                distributor, dist_side, _querier_side = wiring
                routed = distributor.routed_per_socket.get(id(dist_side), 0)
                sent = getattr(querier, "records_sent", 0)
                self.result.stall_shed += max(0, routed - sent)
        if wiring is not None:
            _distributor, dist_side, querier_side = wiring
            querier_side.close()
            dist_side.close()
        # The stalled thread may never run again: reclaim its UDP
        # socket and inbound channel here instead of leaking them.
        shutdown = getattr(querier, "shutdown", None)
        if shutdown is not None:
            shutdown()

    def _handle_deadline(self, queriers) -> None:
        """Deadline expired: every querier sheds its remaining queue."""
        for querier in queriers:
            shed = getattr(querier, "shed_event", None)
            if shed is not None:
                shed.set()

    def replay(self, trace: Trace) -> ReplayResult:
        if self.config.topology == "processes":
            from .multiproc import ProcessTopology
            topology = ProcessTopology(self.servers, self.config,
                                       telemetry=self.telemetry)
            self.result = topology.replay(trace)
            self.watchdog = topology.watchdog
            self.metrics = topology.metrics
            return self.result
        if self.config.topology != "threads":
            raise ValueError(
                f"unknown topology {self.config.topology!r} "
                "(expected 'threads' or 'processes')")
        return self._replay_threads(trace)

    def _replay_threads(self, trace: Trace) -> ReplayResult:
        records = sorted(trace.records, key=lambda r: r.timestamp)
        if not records:
            return self.result

        # Build the two socket tiers.
        make_querier = (self.config.querier_factory
                        if self.config.querier_factory is not None
                        else _LiveQuerier)
        distributor_sockets = []
        distributors = []
        queriers = []
        for distributor_id in range(self.config.distributors):
            controller_side, distributor_side = connected_pair()
            distributor_sockets.append(controller_side)
            querier_sockets = []
            pairs = []
            for querier_index in range(self.config.queriers_per_distributor):
                dist_side, querier_side = connected_pair()
                querier_sockets.append(dist_side)
                querier_id = (distributor_id
                              * self.config.queriers_per_distributor
                              + querier_index)
                querier = make_querier(
                    querier_id, querier_side,
                    self.server_for(querier_id), self.result, self._lock)
                queriers.append(querier)
                pairs.append((querier, dist_side, querier_side))
            distributor = _LiveDistributor(
                distributor_id, distributor_side, querier_sockets,
                result=self.result, lock=self._lock)
            distributors.append(distributor)
            for querier, dist_side, querier_side in pairs:
                self._wiring[querier] = (distributor, dist_side,
                                         querier_side)

        telemetry = self.telemetry
        if telemetry is not None:
            if telemetry.per_query:
                for querier in queriers:
                    querier.telemetry = telemetry
            telemetry.start_wall_sampler()
            telemetry.add_probe("replay.queries_sent",
                                lambda: len(self.result))
            if self.result.aggregate:
                telemetry.add_probe("replay.answered",
                                    lambda: self.result.answered_count)
            else:
                telemetry.add_probe(
                    "replay.answered",
                    lambda: sum(1 for e in self.result.sent
                                if e.answered_at is not None))

        if self.config.supervision is not None:
            self.watchdog = ReplayWatchdog(
                self.config.supervision, queriers,
                on_stall=self._handle_stall,
                on_deadline=lambda: self._handle_deadline(queriers))
            self.watchdog.start()

        for thread in queriers + distributors:
            thread.start()

        # Reader + Postman: time-sync broadcast, then the stream.
        assigner = StickyAssigner(distributor_sockets)
        trace_start = records[0].timestamp
        self.result.trace_start = trace_start
        time.sleep(self.config.start_delay)
        self.result.start_clock = time.monotonic()
        for outbound in distributor_sockets:
            outbound.send_time_sync(trace_start)
        for record in records:
            while assigner.entities:
                outbound = assigner.assign(record.src)
                try:
                    outbound.send_record(record)
                    break
                except OSError:   # distributor died: fail its sources over
                    assigner.remove(outbound)
                    with self._lock:
                        self.result.reassigned_queries += 1
            else:
                with self._lock:
                    self.result.send_failures += 1
        for outbound in distributor_sockets:
            try:
                outbound.send_end()
            except OSError:
                pass

        duration = records[-1].timestamp - trace_start
        deadline = time.monotonic() + duration \
            + self.config.settle_time + 2.0
        supervision = self.config.supervision
        if supervision is not None and supervision.deadline is not None:
            deadline = min(deadline, self.result.start_clock
                           + supervision.deadline + supervision.stall_timeout)
        for thread in distributors + queriers:
            thread.join(timeout=max(deadline - time.monotonic(), 0.1))
        if self.watchdog is not None:
            self.watchdog.stop()
            self.watchdog.join(timeout=1.0)
        # Reclaim every descriptor the tree owns, even from queriers
        # that missed the join deadline (a wedged thread used to be
        # abandoned as a daemon with its UDP + message sockets open,
        # leaking FDs across repeated runs).
        for querier in queriers:
            if querier.is_alive():
                shutdown = getattr(querier, "shutdown", None)
                if shutdown is not None:
                    shutdown()
                querier.join(timeout=0.5)
        for _distributor, dist_side, querier_side in self._wiring.values():
            dist_side.close()
            querier_side.close()
        for outbound in distributor_sockets:
            outbound.close()
        if telemetry is not None:
            telemetry.stop()
        return self.result
