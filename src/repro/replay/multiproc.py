"""Multi-process replay: the paper's real deployment topology (§3).

LDplayer runs the controller → distributor → querier tree as real OS
processes spread over client machines; one Python process running the
tree as threads (the ``topology="threads"`` default in
:mod:`repro.replay.distributed`) caps the aggregate query rate at one
core because of the GIL.  This module launches the same tree as real
**worker processes** on one host, connected by the same TCP
:class:`~repro.replay.protocol.MessageSocket` framing — the protocol
already crosses process boundaries by construction, so the tiers
themselves (:class:`_LiveDistributor`, :class:`_LiveQuerier`) run
unmodified inside the workers.

Every run — a streamed trace (:meth:`ProcessTopology.replay`), a
self-sourced shard-file set (:meth:`ProcessTopology.replay_shard_files`),
a set of simulation shards (:meth:`ShardTopology.replay`), or any of
them in self-healing mode — goes through one controller,
``_Controller``; the two topologies only say which worker slots exist
and how one worker is launched:

1. **spawn** (``_spawn``): the controller binds a loopback control
   listener and spawns each tier in turn (``_spawn_tier``), HELLOing
   every worker in.  The replay tree spawns one process per
   distributor — each binds its own querier listener and reports the
   port in its HELLO — then one process per querier, wired to its
   distributor's port; the simulation spawns one process per shard.
   ``_worker_process`` is the only place a worker's argv is built, for
   first spawns and respawns alike;
2. **read**: one reader thread per worker control link
   (``_reader_loop``) lands TELEMETRY in the live cluster view,
   CHECKPOINTs in the recovery store and the final RESULT + METRICS
   pair on the worker's handle.  At EOF (``_reader_eof``) it decides
   whether the worker really died before reporting — then the worker
   is failed and its crash recorded, and in recovery mode respawned at
   once (``_respawn_worker``) and its HELLO adopted into the slot
   (``_accept_loop``/``_adopt``);
3. **run**: ``ProcessTopology._run`` starts the watchdog, anchors the
   clock with TIME_SYNC, streams the records sharded sticky-by-source
   over the distributors (each re-shards over its queriers; shard-file
   distributors read their own file instead) and sends END; shards
   self-source, so ``ShardTopology.replay`` only waits.  Both wait for
   the RESULTs, and for respawns in flight, until the deadline
   (``_await_results``), then merge every shard (``ReplayResult.merge``
   in slot order) and metrics snapshot
   (``MetricsRegistry.merge_state``) into one aggregate;
4. **teardown** (``_teardown``): SHUTDOWN, close, reap.

Recovery mode changes only the steps that must differ: records travel
as RECORD_SEQ (tagged with their global trace index), END waits for
the exactly-once drain, dead workers are respawned and late HELLOs
adopted, and the merge is ``merge_recovered`` over the checkpoint store.

Supervision: each worker is watched through a :class:`_WorkerHandle`
(``is_alive`` = the OS process) by the same
:class:`~repro.replay.supervision.ReplayWatchdog`; a dead process with
its shard outstanding is flagged immediately, its routes fail over via
``StickyAssigner.remove`` (the distributor's broken-pipe path), and
collection stops waiting for it.  A wall-clock deadline propagates as
SHUTDOWN frames down the tree so queriers shed their queues and report
truthful ``deadline_shed`` counts.
"""

from __future__ import annotations

import importlib
import multiprocessing
import socket
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..netsim.shard import shard_of
from ..telemetry.cluster import (_ROLE_NAMES, ClusterAggregator,
                                 FlightRecorder, TelemetryStreamer)
from ..telemetry.core import Telemetry
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.tracing import TelemetryConfig
from ..trace import Trace
from ..trace.stream import read_manifest, shard_path
from .distributed import (DistributedConfig, ServerAddress,
                          _LiveDistributor, _LiveQuerier)
from .distributor import StickyAssigner
from .protocol import (MSG_CHECKPOINT, MSG_HELLO, MSG_METRICS, MSG_RESULT,
                       MSG_SHUTDOWN, MSG_TELEMETRY, MessageSocket,
                       ProtocolError, ROLE_DISTRIBUTOR, ROLE_QUERIER,
                       ROLE_SHARD, connect)
from .recovery import (ChaosConfig, CheckpointStore, RecoveryConfig,
                       attach_chaos, merge_recovered, reconnect_with_backoff)
from .result import ReplayResult, _COUNTER_FIELDS
from .supervision import ReplayWatchdog

_SETUP_TIMEOUT = 30.0


def _mp_context(start_method: Optional[str] = None):
    if start_method is None:
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else "spawn"
    return multiprocessing.get_context(start_method)


def _make_aggregator(telemetry: TelemetryConfig) -> ClusterAggregator:
    """Window the live q/s views to a few stream periods."""
    return ClusterAggregator(window=max(1.0, 4.0 * telemetry.stream_period))


def _report(control: MessageSocket, result: dict, metrics: dict) -> None:
    """Send a worker's final RESULT + METRICS pair, then wait for the
    controller's SHUTDOWN."""
    try:
        control.send_result(result)
        control.send_metrics(metrics)
    except OSError:
        return
    _await_shutdown(control)


def _await_shutdown(control: MessageSocket, timeout: float = 10.0) -> None:
    """Block until the controller says SHUTDOWN (or gives up)."""
    control.settimeout(timeout)
    try:
        while True:
            message = control.receive()
            if message is None or message[0] == MSG_SHUTDOWN:
                return
    except (ProtocolError, OSError):
        return


# ---------------------------------------------------------------------------
# Worker process entry points (top-level: importable under spawn)
# ---------------------------------------------------------------------------
#
# A worker's ``telemetry`` argument is None unless the run streams: the
# controller ships a TelemetryConfig only when its ``stream_period`` is set.

def _distributor_main(control_addr: Tuple[str, int], distributor_id: int,
                      querier_count: int,
                      recovery: Optional[RecoveryConfig] = None,
                      incarnation: int = 0, listen_port: int = 0,
                      telemetry: Optional[TelemetryConfig] = None,
                      shard_file: Optional[str] = None,
                      read_ahead: int = 2048,
                      pace_lead: float = 2.0) -> None:
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    # SO_REUSEADDR unconditionally: accepted querier sockets inherit it,
    # so a respawned incarnation can rebind this port while the dead
    # incarnation's connections are still draining through FIN/TIME_WAIT.
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    if listen_port:
        # Respawn: rebind the dead incarnation's port so surviving
        # queriers' reconnect-with-backoff re-dials land here.  The
        # kernel may need a beat to tear the old socket down.
        bind_deadline = time.monotonic() + (
            recovery.hello_timeout if recovery is not None else 5.0)
        while True:
            try:
                listener.bind(("127.0.0.1", listen_port))
                break
            except OSError:
                if time.monotonic() >= bind_deadline:
                    raise
                time.sleep(0.05)
    else:
        listener.bind(("127.0.0.1", 0))
    listener.listen(querier_count + 4)
    listener.settimeout(_SETUP_TIMEOUT if recovery is None
                        else recovery.hello_timeout)
    chaos = recovery.chaos if recovery is not None else None
    control = connect(control_addr)
    attach_chaos(control, chaos, ROLE_DISTRIBUTOR, distributor_id,
                 incarnation)
    control.send_hello(ROLE_DISTRIBUTOR, distributor_id,
                       listener.getsockname()[1], incarnation)
    querier_sockets: List[MessageSocket] = []
    accept_stop = threading.Event()
    try:
        for _ in range(querier_count):
            try:
                accepted, _peer = listener.accept()
            except TimeoutError:
                if recovery is None:
                    raise
                # Recovery: run with whoever showed up; stragglers and
                # respawns attach through the late-accept loop below.
                break
            querier_sockets.append(_querier_link(accepted, chaos,
                                                 distributor_id, incarnation))
    except Exception:
        listener.close()
        raise
    if recovery is None:
        listener.close()

    result = ReplayResult(f"distributor-{distributor_id}")
    distributor = _LiveDistributor(distributor_id, control, querier_sockets,
                                   result=result, lock=threading.Lock())

    def metrics_snapshot() -> dict:
        registry = MetricsRegistry()
        registry.incr("replay.records_routed", distributor.records_routed)
        return registry.to_state()

    streamer: Optional[TelemetryStreamer] = None
    if telemetry is not None:
        streamer = TelemetryStreamer(
            control.send_telemetry, ROLE_DISTRIBUTOR, distributor_id,
            incarnation, telemetry.stream_period,
            metrics_snapshot=metrics_snapshot,
            health=lambda: {
                "records_routed": distributor.records_routed,
                "queriers": len(distributor.querier_sockets)},
            sync_mono=lambda: distributor.sync_mono)
        streamer.start()
    if recovery is not None:
        listener.settimeout(0.1)
        accept_thread = threading.Thread(
            target=_accept_late_queriers,
            args=(listener, distributor, chaos, distributor_id,
                  incarnation, accept_stop),
            daemon=True, name=f"distributor-{distributor_id}-accept")
        accept_thread.start()
    if shard_file is not None:
        # Streaming mode: self-source the shard file with bounded
        # read-ahead instead of receiving records over the control
        # socket (which carries only TIME_SYNC + END).
        distributor.run_shard_file(shard_file, read_ahead=read_ahead,
                                   pace_lead=pace_lead)
    else:
        distributor.run()   # synchronous: returns on END/SHUTDOWN/EOF
    if recovery is not None:
        accept_stop.set()
        listener.close()
    if streamer is not None:
        # The definitive frame: cumulative metrics are frozen now, so
        # this matches the METRICS sent below.  The periodic loop keeps
        # reporting health while we wait out the controller's SHUTDOWN.
        streamer.flush(final=True)

    _report(control, result.to_dict(), metrics_snapshot())
    if streamer is not None:
        streamer.stop(final=False)
    for outbound in distributor.querier_sockets:
        outbound.close()
    control.close()


def _querier_link(accepted: socket.socket, chaos: Optional[ChaosConfig],
                  distributor_id: int, incarnation: int) -> MessageSocket:
    """Wrap an accepted querier link, chaos (if any) on the send path."""
    accepted.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    msocket = MessageSocket(accepted)
    attach_chaos(msocket, chaos, ROLE_DISTRIBUTOR, distributor_id,
                 incarnation)
    return msocket


def _accept_late_queriers(listener: socket.socket,
                          distributor: _LiveDistributor,
                          chaos: Optional[ChaosConfig], distributor_id: int,
                          incarnation: int,
                          stop: threading.Event) -> None:
    """Adopt queriers that (re)connect after startup (respawns)."""
    while not stop.is_set():
        try:
            accepted, _peer = listener.accept()
        except TimeoutError:
            continue
        except OSError:
            return
        distributor.add_querier(_querier_link(accepted, chaos,
                                              distributor_id, incarnation))


class _CheckpointPump:
    """Sequence-numbered checkpoint emitter with control-link self-heal.

    Owns the querier's control socket: checkpoints and the final
    RESULT/METRICS pair all flow through it, and a broken link is
    re-dialed (connect + re-HELLO with the same incarnation) with
    backoff before any frame is declared lost.
    """

    def __init__(self, control: MessageSocket,
                 control_addr: Tuple[str, int], querier_id: int,
                 incarnation: int, recovery: RecoveryConfig):
        self.control = control
        self._control_addr = control_addr
        self._querier_id = querier_id
        self._incarnation = incarnation
        self._recovery = recovery
        self._seq = 0
        self._broken = False

    def _redial(self) -> bool:
        def factory() -> MessageSocket:
            replacement = connect(self._control_addr, timeout=2.0)
            attach_chaos(replacement, self._recovery.chaos, ROLE_QUERIER,
                         self._querier_id, self._incarnation)
            replacement.send_hello(ROLE_QUERIER, self._querier_id, 0,
                                   self._incarnation)
            return replacement
        replacement = reconnect_with_backoff(
            factory, self._recovery.reconnect_attempts,
            self._recovery.reconnect_backoff)
        if replacement is None:
            self._broken = True
            return False
        self.control.close()
        self.control = replacement
        return True

    def _deliver(self, send) -> bool:
        if self._broken:
            return False
        for _attempt in range(2):
            try:
                send()
                return True
            except (ProtocolError, OSError):
                if not self._redial():
                    return False
        return False

    def __call__(self, snapshot: dict) -> None:
        """The querier's checkpoint_sink: emit one cumulative snapshot."""
        self._seq += 1
        seq = self._seq
        self._deliver(lambda: self.control.send_checkpoint(
            self._querier_id, self._incarnation, seq, snapshot))

    def send_final(self, result: dict, metrics: dict) -> None:
        self._deliver(lambda: self.control.send_result(result))
        self._deliver(lambda: self.control.send_metrics(metrics))


def _querier_main(control_addr: Tuple[str, int], querier_id: int,
                  distributor_addr: Tuple[str, int],
                  server: ServerAddress,
                  deadline: Optional[float] = None,
                  recovery: Optional[RecoveryConfig] = None,
                  incarnation: int = 0,
                  telemetry: Optional[TelemetryConfig] = None,
                  aggregate: bool = False) -> None:
    control = connect(control_addr)
    attach_chaos(control, recovery.chaos if recovery else None,
                 ROLE_QUERIER, querier_id, incarnation)
    control.send_hello(ROLE_QUERIER, querier_id, 0, incarnation)
    inbound = connect(distributor_addr)
    result = ReplayResult(f"querier-{querier_id}", aggregate=aggregate)
    querier = _LiveQuerier(querier_id, inbound, tuple(server), result,
                           threading.Lock())
    # The controller cannot flip this worker's shed_event across the
    # process boundary once the record stream has ended, so the
    # wall-clock budget is enforced locally, anchored at TIME_SYNC —
    # the same zero point thread-mode deadlines use.
    querier.deadline = deadline
    pump: Optional[_CheckpointPump] = None
    if recovery is not None:
        pump = _CheckpointPump(control, control_addr, querier_id,
                               incarnation, recovery)
        querier.poll_timeout = 0.05
        querier.checkpoint_policy = recovery.checkpoint
        querier.checkpoint_sink = pump
        querier.reconnect = lambda: reconnect_with_backoff(
            lambda: connect(distributor_addr, timeout=1.0),
            recovery.reconnect_attempts, recovery.reconnect_backoff,
            abort=querier.shed_event.is_set)

    def metrics_snapshot() -> dict:
        registry = MetricsRegistry()
        registry.incr("replay.records_received", querier.records_received)
        registry.incr("replay.records_sent", querier.records_sent)
        if querier.redundant_records:
            registry.incr("replay.redundant_records",
                          querier.redundant_records)
        # Aggregate mode never retains per-query entries: the latency
        # distribution travels in the RESULT frame's histogram instead.
        if not result.aggregate:
            with querier.lock:
                latencies = [entry.latency for entry in result.sent]
            for latency in latencies:
                if latency is not None:
                    registry.observe("query.latency_s", latency)
        return registry.to_state()

    streamer: Optional[TelemetryStreamer] = None
    recorder: Optional[FlightRecorder] = None
    if telemetry is not None:
        hub = Telemetry(telemetry)
        recorder = FlightRecorder(telemetry.flight_recorder)
        if hub.per_query:
            querier.telemetry = hub
        if hub.tracer is not None:
            inner_record = hub.tracer._record

            def recording(event):
                inner_record(event)
                recorder.record_span(event)

            hub.tracer._record = recording
        recorder.log(f"querier-{querier_id} inc{incarnation} up")
        # The pump may replace its control socket on redial; resolve
        # the live socket at send time so streamed frames follow it.
        if pump is not None:
            send = lambda report: pump.control.send_telemetry(report)
        else:
            send = control.send_telemetry
        streamer = TelemetryStreamer(
            send, ROLE_QUERIER, querier_id, incarnation,
            telemetry.stream_period,
            metrics_snapshot=metrics_snapshot,
            health=lambda: {
                "records_received": querier.records_received,
                "records_sent": querier.records_sent,
                "queue_depth": len(querier._queue),
                "checkpoint_lag": (querier.records_sent
                                   - querier._last_checkpoint_sent)},
            tracer=hub.tracer,
            recorder=recorder,
            sync_mono=lambda: querier._clock_start)
        streamer.start()

    querier.run()   # synchronous; closes its own sockets on exit
    if streamer is not None:
        recorder.log(f"querier-{querier_id} inc{incarnation} replay done")
        # Definitive frame (cumulative metrics frozen); the periodic
        # loop keeps the health view live until SHUTDOWN arrives.
        streamer.flush(final=True)

    if pump is not None:
        pump.send_final(result.to_dict(), metrics_snapshot())
        control = pump.control
        _await_shutdown(control)
    else:
        _report(control, result.to_dict(), metrics_snapshot())
    if streamer is not None:
        streamer.stop(final=False)
    control.close()


# ---------------------------------------------------------------------------
# Simulation shard workers (ROADMAP item 3: one event loop per core)
# ---------------------------------------------------------------------------
#
# A *shard worker* is the replicated-server deployment shape of
# :mod:`repro.netsim.shard`: each process owns a complete simulated
# world (its own EventLoop, Network, server replica, and
# SimReplayEngine) and replays only the trace records whose source
# address hashes to its shard (``shard_of(record.src, n) == index``).
# Nothing crosses shards mid-run, so the workers are embarrassingly
# parallel; the controller merges the per-shard ReplayResult and
# MetricsRegistry snapshots over the same HELLO/RESULT/METRICS control
# plane the distributor/querier tiers use.
#
# Workers *self-source* their slice instead of receiving streamed
# records: a trace factory spec ``(module, function, kwargs)`` is
# resolved by import inside the worker, so only a few hundred bytes
# cross the process boundary on the way in, not the trace itself.
# Factories must be importable top-level callables (a requirement under
# the ``spawn`` start method anyway) and deterministic for fixed kwargs
# (§2.1 repeatability — every worker regenerates the identical trace).

FactorySpec = Tuple[str, str, dict]


def _resolve_factory(spec: FactorySpec):
    module_name, attribute, _kwargs = spec
    target = importlib.import_module(module_name)
    for part in attribute.split("."):
        target = getattr(target, part)
    return target


def shard_slice(trace: Trace, shard_index: int, num_shards: int) -> Trace:
    """The records of ``trace`` owned by ``shard_index``.

    Sticky-by-source, like every other routing decision in the replay
    tree: a client's whole query stream lands on one shard, so per-source
    state (sockets, retries, connections) never splits.
    """
    records = [record for record in trace.records
               if shard_of(record.src, num_shards) == shard_index]
    return Trace(records, name=f"{trace.name}#shard{shard_index}")


def default_shard_scenario(perf: Optional[MetricsRegistry] = None,
                           fast_replay_rate: float = 200000.0,
                           batch_window: Optional[float] = None,
                           client_instances: int = 2,
                           queriers_per_instance: int = 6):
    """The canonical shard world: evaluation topology + wildcard zone.

    One server replica on the Figure 5 testbed answering every query
    from its response-wire cache; the engine replays as fast as the
    machinery allows (the §4.3 throughput discipline).  Returns a
    :class:`~repro.replay.engine.SimReplayEngine` ready for
    ``engine.replay(trace)``.
    """
    from ..experiments.fig6_timing import wildcard_example_zone
    from ..experiments.topology import build_evaluation_topology
    from ..server import AuthoritativeServer, HostedDnsServer
    from .engine import ReplayConfig, SimReplayEngine

    if perf is None:
        perf = MetricsRegistry()
    testbed = build_evaluation_topology()
    server = AuthoritativeServer.single_view([wildcard_example_zone()])
    server.perf = perf
    HostedDnsServer(testbed.server_host, server, perf=perf)
    return SimReplayEngine(
        testbed.network,
        ReplayConfig(track_timing=False, fast_replay_rate=fast_replay_rate,
                     batch_window=batch_window,
                     client_instances=client_instances,
                     queriers_per_instance=queriers_per_instance),
        perf=perf)


def _shard_main(control_addr: Tuple[str, int], shard_index: int,
                num_shards: int, trace_spec: FactorySpec,
                scenario_spec: FactorySpec,
                recovery: Optional[RecoveryConfig] = None,
                incarnation: int = 0,
                telemetry: Optional[TelemetryConfig] = None) -> None:
    control = connect(control_addr)
    attach_chaos(control, recovery.chaos if recovery else None,
                 ROLE_SHARD, shard_index, incarnation)
    control.send_hello(ROLE_SHARD, shard_index, 0, incarnation)
    perf = MetricsRegistry()
    streamer: Optional[TelemetryStreamer] = None
    if telemetry is not None:
        # Shards never see TIME_SYNC, so no sync_mono: the aggregator
        # falls back to min-skew alignment.  Spans are omitted — shard
        # timestamps are sim-clock, not monotonic, and cannot rebase.
        streamer = TelemetryStreamer(
            control.send_telemetry, ROLE_SHARD, shard_index, incarnation,
            telemetry.stream_period, metrics_snapshot=perf.to_state)
        streamer.start()
    try:
        trace = _resolve_factory(trace_spec)(**trace_spec[2])
        slice_ = shard_slice(trace, shard_index, num_shards)
        engine = _resolve_factory(scenario_spec)(perf=perf,
                                                 **scenario_spec[2])
        started = time.perf_counter()
        result = engine.replay(slice_)
        wall = time.perf_counter() - started
        result.name = f"shard-{shard_index}"
        perf.incr("shard.records", len(slice_.records))
        perf.set_gauge(f"shard.{shard_index}.wall_s", wall)
        perf.set_gauge(f"shard.{shard_index}.qps",
                       len(slice_.records) / wall if wall > 0 else 0.0)
        if streamer is not None:
            streamer.stop(final=True)
            streamer = None
        _report(control, result.to_dict(), perf.to_state())
    except OSError:
        pass
    finally:
        if streamer is not None:
            streamer.stop(final=False)
        control.close()


def _udp_echo_main(conn) -> None:
    from .live import LiveUdpEchoServer
    server = LiveUdpEchoServer().start()
    conn.send((server.address, server.port))
    try:
        conn.recv()          # blocks until the parent says stop / EOF
    except (EOFError, OSError):
        pass
    server.stop()


class UdpEchoServerProcess:
    """A :class:`LiveUdpEchoServer` isolated in its own OS process.

    The §4.3 methodology needs the *client* to be the measured
    bottleneck; an echo server thread inside the controller process
    would share the GIL with the threaded topology and starve it.  One
    of these per querier keeps the server side out of the measurement.
    """

    def __init__(self, start_method: Optional[str] = None):
        self._ctx = _mp_context(start_method)
        self._conn = None
        self._process = None
        self.address: Optional[str] = None
        self.port: Optional[int] = None

    def start(self) -> "UdpEchoServerProcess":
        self._conn, child_conn = self._ctx.Pipe()
        self._process = self._ctx.Process(
            target=_udp_echo_main, args=(child_conn,), daemon=True)
        self._process.start()
        child_conn.close()
        if not self._conn.poll(_SETUP_TIMEOUT):
            self.stop()
            raise RuntimeError("echo server process failed to start")
        self.address, self.port = self._conn.recv()
        return self

    def stop(self) -> None:
        if self._conn is not None:
            try:
                self._conn.send("stop")
            except (BrokenPipeError, OSError):
                pass
            self._conn.close()
            self._conn = None
        if self._process is not None:
            self._process.join(timeout=2.0)
            if self._process.is_alive():
                self._process.terminate()
                self._process.join(timeout=2.0)
            self._process = None

    def __enter__(self) -> "UdpEchoServerProcess":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# ---------------------------------------------------------------------------
# Controller
# ---------------------------------------------------------------------------

def _process_name(role: int, worker_id: int, incarnation: int) -> str:
    suffix = f"r{incarnation}" if incarnation else ""
    return f"replay-{_ROLE_NAMES[role]}-{worker_id}{suffix}"


class _WorkerHandle:
    """Controller-side view of one worker process (watchdog subject)."""

    def __init__(self, role: int, worker_id: int,
                 control: MessageSocket, listen_port: int,
                 incarnation: int = 0):
        self.role = role
        self.worker_id = worker_id
        self.control = control
        self.listen_port = listen_port
        self.incarnation = incarnation   # respawn generation (0 = first)
        self.process = None           # attached after the HELLO matches
        self.shard: Optional[ReplayResult] = None
        self.metrics_state: Optional[dict] = None
        self.failed = False

    # -- ReplayWatchdog subject surface -----------------------------------

    def has_work(self) -> bool:
        """Outstanding until its RESULT shard lands (or it is failed)."""
        return self.shard is None and not self.failed

    def is_alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def pid(self):
        return self.process.pid if self.process is not None else None

    @property
    def name(self) -> str:
        kind = _ROLE_NAMES.get(self.role, f"role{self.role}")
        return f"{kind}-{self.worker_id}"


def _accept_hello(listener: socket.socket, expected_role: Optional[int],
                  timeout: float = _SETUP_TIMEOUT) -> _WorkerHandle:
    accepted, peer = listener.accept()
    accepted.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    control = MessageSocket(accepted)
    # The handshake itself is deadline-bounded: a worker that connects
    # but never speaks must not hang topology startup.
    control.settimeout(timeout)
    try:
        message = control.receive()
    except TimeoutError:
        control.close()
        raise ProtocolError(
            f"worker at {peer[0]}:{peer[1]} connected but sent no HELLO "
            f"within {timeout:.1f}s")
    control.settimeout(None)
    if message is None or message[0] != MSG_HELLO:
        control.close()
        raise ProtocolError(f"worker at {peer[0]}:{peer[1]} did not HELLO")
    role, worker_id, listen_port, incarnation = message[1]
    if expected_role is not None and role != expected_role:
        control.close()
        raise ProtocolError(f"unexpected worker role {role}")
    return _WorkerHandle(role, worker_id, control, listen_port, incarnation)


class _Controller:
    """The one control plane behind both topologies (the spawn, read and
    teardown steps of the module docstring).

    A subclass provides ``result``, ``metrics`` and ``cluster``, opens
    one slot list per worker role with ``_tier`` (worker id = index;
    tiers merge in the order they are opened), and says how one worker
    is launched: ``_worker_process(role, worker_id, incarnation,
    listen_port)`` builds (not starts) its Process.
    """

    def __init__(self, recovery: Optional[RecoveryConfig],
                 start_method: Optional[str]):
        self._recovery = recovery
        self._start_method = start_method
        self._watchdog: Optional[ReplayWatchdog] = None
        self._store: Optional[CheckpointStore] = None
        self._lock = threading.Lock()
        self._tiers: Dict[int, List[_WorkerHandle]] = {}
        self._processes: List = []
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        # Respawn state: the budget spent per slot and in total, the
        # respawns granted but not yet adopted or given up, processes
        # started but not yet HELLOed, and the handles respawns replaced.
        self._respawn_counts: Dict[Tuple[int, int], int] = {}
        self._respawns_total = 0
        self._respawning = 0
        self._pending_processes: Dict[Tuple[int, int, int], object] = {}
        self._retired_handles: List[_WorkerHandle] = []
        self._closing = threading.Event()

    def _tier(self, role: int) -> List[_WorkerHandle]:
        return self._tiers.setdefault(role, [])

    def _handles(self) -> List[_WorkerHandle]:
        """Every current slot, in merge order."""
        return [handle for tier in self._tiers.values() for handle in tier]

    # -- spawn ---------------------------------------------------------------

    def _spawn(self, tiers: Sequence[Tuple[int, int]]) -> None:
        """Spawn each ``(role, count)`` tier in order and HELLO it in.

        A later tier's argv may carry an earlier tier's HELLO ports.  In
        recovery mode the control listener stays open for the run so
        respawned and reconnecting workers can re-HELLO.
        """
        recovery = self._recovery
        self._ctx = _mp_context(self._start_method)
        hello_timeout = (_SETUP_TIMEOUT if recovery is None
                         else recovery.hello_timeout)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(sum(count for _role, count in tiers) + 4)
            listener.settimeout(hello_timeout)
            self._control_addr = listener.getsockname()
            for role, count in tiers:
                self._spawn_tier(listener, role, count, hello_timeout)
        except Exception:
            self._closing.set()
            for process in self._processes:
                if process.is_alive():
                    process.terminate()
            listener.close()
            raise
        if recovery is None:
            listener.close()
        else:
            self._listener = listener

    def _spawn_tier(self, listener: socket.socket, role: int, count: int,
                    hello_timeout: float) -> None:
        processes = []
        for worker_id in range(count):
            process = self._worker_process(role, worker_id)
            process.start()
            processes.append(process)
            self._processes.append(process)
        by_id: Dict[int, _WorkerHandle] = {}
        for _ in range(count):
            handle = _accept_hello(listener, role, hello_timeout)
            handle.process = processes[handle.worker_id]
            by_id[handle.worker_id] = handle
        self._tiers[role].extend(by_id[i] for i in range(count))

    # -- the reader (one thread per worker control link, every mode) -------

    def _start_readers(self) -> None:
        """A reader thread per worker; in recovery mode also the accept
        loop that adopts late HELLOs."""
        if self._listener is not None:
            # Short accept timeout from here on: the accept loop must
            # wake often enough to notice shutdown.
            self._listener.settimeout(0.25)
            self._accept_thread = threading.Thread(
                target=self._accept_loop, daemon=True,
                name="replay-recovery-accept")
            self._accept_thread.start()
        for handle in self._handles():
            self._start_reader(handle)

    def _start_reader(self, handle: _WorkerHandle) -> None:
        thread = threading.Thread(
            target=self._reader_loop, args=(handle, handle.control),
            daemon=True, name=f"reader-{handle.name}@{handle.incarnation}")
        thread.start()

    def _reader_loop(self, handle: _WorkerHandle,
                     control: MessageSocket) -> None:
        """TELEMETRY feeds the aggregator live, CHECKPOINTs the store,
        and the final RESULT/METRICS pair lands on the handle."""
        key = (handle.role, handle.worker_id)
        while True:
            try:
                message = control.receive()
            except (ProtocolError, OSError):
                break
            if message is None:
                break
            kind, payload = message
            if kind == MSG_TELEMETRY:
                # Aggregation has its own lock; never holds self._lock,
                # so the stream cannot stall checkpoint dispatch.
                if self.cluster is not None:
                    self.cluster.ingest(payload)
                continue
            with self._lock:
                if kind == MSG_CHECKPOINT and self._store is not None:
                    self._store.offer_frame(key, payload)
                elif kind == MSG_RESULT:
                    handle.shard = ReplayResult.from_dict(payload)
                    if self._store is not None:
                        # The final RESULT outranks every checkpoint of
                        # the same incarnation regardless of arrival.
                        self._store.offer(key, handle.incarnation, 0,
                                          payload, final=True)
                elif kind == MSG_METRICS:
                    handle.metrics_state = payload
        self._reader_eof(handle, control)

    def _reader_eof(self, handle: _WorkerHandle,
                    control: MessageSocket) -> None:
        """A control link closed.  If the worker really died before
        reporting, fail it and record the crash; in recovery mode,
        respawn it within the budget until the run winds down."""
        if handle.control is not control:
            return   # replaced by a same-incarnation reconnect
        recovery = self._recovery
        if recovery is None and self._watchdog is not None:
            return   # the watchdog owns the verdict (_handle_stall)
        if handle.metrics_state is not None:
            return   # reported: a normal exit
        if handle.process is not None:
            handle.process.join(timeout=1.5)
            if handle.process.is_alive():
                return   # live worker, dropped socket: re-dials or deadline
        attempt = None
        with self._lock:
            if handle.failed or handle.metrics_state is not None:
                return
            handle.failed = True
            # A worker that died after its RESULT has nothing to rerun.
            winding_down = (recovery is None or handle.shard is not None
                            or self._closing.is_set())
            if not winding_down:
                attempt = self._grant_respawn(handle)
                if attempt is not None:
                    self._respawning += 1
        if self.cluster is not None:
            self.cluster.record_crash(handle.role, handle.worker_id,
                                      handle.incarnation,
                                      reason="process died")
        if winding_down:
            return
        if handle.role == ROLE_DISTRIBUTOR:
            self._assigner.remove(handle)
        if attempt is not None:
            threading.Thread(
                target=self._respawn_worker, args=(handle, attempt),
                daemon=True, name=f"respawn-{handle.name}").start()

    # -- collection / teardown ---------------------------------------------

    def _await_results(self, deadline: float) -> None:
        """Wait for every live slot's RESULT/METRICS pair (the reader
        threads land them) and for every respawn in flight; whoever has
        not reported by the deadline is failed.  Then stop respawning
        and adopting."""
        while time.monotonic() < deadline:
            with self._lock:
                if not self._respawning and all(
                        handle.failed or (handle.shard is not None
                                          and handle.metrics_state
                                          is not None)
                        for handle in self._handles()):
                    break
            time.sleep(0.02)
        with self._lock:
            for handle in self._handles():
                if handle.shard is None or handle.metrics_state is None:
                    handle.failed = True
        self._closing.set()
        if self._listener is not None:
            self._listener.close()
            self._accept_thread.join(timeout=2.0)

    def _merge_metrics(self, count_name: str) -> int:
        """Merge every worker's METRICS (retired incarnations' too) and
        count the workers, lost slots and respawns; returns the number
        of slots that never reported a RESULT."""
        handles = self._handles()
        for handle in handles + self._retired_handles:
            if handle.metrics_state is not None:
                self.metrics.merge_state(handle.metrics_state)
        lost = sum(1 for handle in handles if handle.shard is None)
        if lost:
            self.metrics.incr("multiproc.lost_shards", lost)
        self.metrics.incr(count_name, len(handles))
        if self._respawns_total:
            self.metrics.incr("multiproc.respawns", self._respawns_total)
        return lost

    def _teardown(self) -> None:
        """SHUTDOWN every worker, close its link, reap (terminate
        stragglers)."""
        for handle in self._retired_handles:
            handle.control.close()
        for handle in self._handles():
            try:
                handle.control.send_shutdown()
            except OSError:
                pass
            handle.control.close()
        for process in self._processes:
            process.join(timeout=2.0)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)

    # -- adoption / respawn (recovery mode) --------------------------------

    def _grant_respawn(self, handle: _WorkerHandle) -> Optional[int]:
        """Charge one respawn of ``handle``'s slot to the budget (the
        caller holds the lock).  Returns the slot's attempt number, or
        None when the budget is spent (counted as a stall)."""
        key = (handle.role, handle.worker_id)
        attempts = self._respawn_counts.get(key, 0)
        budget = self._recovery.respawn
        if (attempts >= budget.max_per_worker
                or self._respawns_total >= budget.max_total):
            self.result.watchdog_stalls += 1
            return None
        self._respawn_counts[key] = attempts + 1
        self._respawns_total += 1
        self.result.respawns += 1
        return attempts

    def _accept_loop(self) -> None:
        recovery = self._recovery
        while not self._closing.is_set():
            try:
                newcomer = _accept_hello(self._listener, None,
                                         recovery.hello_timeout)
            except (TimeoutError, ProtocolError):
                continue
            except OSError:
                return
            self._adopt(newcomer)

    def _adopt(self, newcomer: _WorkerHandle) -> None:
        """Classify a late HELLO: reconnect of a live incarnation, or a
        respawned worker taking over its slot."""
        slots = self._tiers.get(newcomer.role, [])
        with self._lock:
            if not 0 <= newcomer.worker_id < len(slots):
                newcomer.control.close()
                return
            current = slots[newcomer.worker_id]
            if (newcomer.incarnation == current.incarnation
                    and not current.failed):
                # Same incarnation re-dialing after a dropped socket:
                # swap the control link, keep every other field.
                old = current.control
                current.control = newcomer.control
                old.close()
                handle = current
            elif newcomer.incarnation > current.incarnation:
                newcomer.process = self._pending_processes.pop(
                    (newcomer.role, newcomer.worker_id,
                     newcomer.incarnation), None)
                slots[newcomer.worker_id] = newcomer
                self._retired_handles.append(current)
                handle = newcomer
                if self._watchdog is not None:
                    self._watchdog.add_subject(newcomer)
            else:
                newcomer.control.close()
                return
        if handle is newcomer and newcomer.role == ROLE_DISTRIBUTOR:
            attach_chaos(newcomer.control, self._recovery.chaos,
                         newcomer.role, newcomer.worker_id,
                         newcomer.incarnation, controller_side=True)
            try:
                newcomer.control.send_time_sync(self.result.trace_start)
            except OSError:
                pass
            self._assigner.add(newcomer)
        self._start_reader(handle)

    def _respawn_worker(self, handle: _WorkerHandle, attempt: int) -> None:
        """Relaunch a dead worker's slot as its next incarnation.

        A respawn that dies before its HELLO is adopted would otherwise
        vanish silently (no reader thread watches it yet), so it is
        babysat through the handshake and retried within the budget.
        """
        recovery = self._recovery
        incarnation = handle.incarnation
        try:
            while attempt is not None:
                incarnation += 1
                time.sleep(recovery.respawn.backoff(attempt))
                process = self._worker_process(handle.role, handle.worker_id,
                                               incarnation,
                                               handle.listen_port)
                pending_key = (handle.role, handle.worker_id, incarnation)
                with self._lock:
                    if self._closing.is_set():
                        return
                    self._pending_processes[pending_key] = process
                    self._processes.append(process)
                process.start()
                hello_deadline = time.monotonic() + recovery.hello_timeout
                while time.monotonic() < hello_deadline:
                    if self._closing.is_set():
                        return
                    with self._lock:
                        if pending_key not in self._pending_processes:
                            return   # adopted: its reader thread owns it
                    if not process.is_alive():
                        break
                    time.sleep(0.05)
                else:
                    return
                with self._lock:
                    if (self._closing.is_set()
                            or pending_key not in self._pending_processes):
                        return
                    del self._pending_processes[pending_key]
                    attempt = self._grant_respawn(handle)
        finally:
            with self._lock:
                self._respawning -= 1


class ProcessTopology(_Controller):
    """The controller of the multi-process replay tree.

    Usually reached through
    ``LiveDistributedReplay(server, DistributedConfig(
    topology="processes"))``; instantiating it directly is equivalent.
    """

    def __init__(self, server: Union[ServerAddress, List[ServerAddress]],
                 config: Optional[DistributedConfig] = None,
                 telemetry=None):
        servers = server if isinstance(server, list) else [server]
        if not servers:
            raise ValueError("need at least one server address")
        self.servers = [tuple(address) for address in servers]
        self.config = config if config is not None else DistributedConfig()
        super().__init__(self.config.recovery, self.config.start_method)
        self.telemetry = telemetry
        self.result = ReplayResult(
            "distributed-process", aggregate=self.config.aggregate_results)
        # Cross-process telemetry: per-worker MetricsRegistry snapshots
        # merged into one registry (and into the telemetry hub's, when
        # one is attached).
        self.metrics = MetricsRegistry()
        # Merge order: queriers in id order, then the distributors'
        # routing counters.
        self.querier_handles = self._tier(ROLE_QUERIER)
        self.distributor_handles = self._tier(ROLE_DISTRIBUTOR)
        # Live cluster view, populated only when the telemetry config
        # asks for streaming (stream_period set); None otherwise so the
        # classic path stays byte-identical to a telemetry-free run.
        self.cluster: Optional[ClusterAggregator] = None
        self._deadline_hit = False
        # Run state, filled in by _spawn_tree.
        self._distributor_extra = None
        self._aggregate = False
        # Recovery mode: the exactly-once checkpoint store.
        if self.config.recovery is not None:
            self._store = CheckpointStore()

    @property
    def watchdog(self) -> Optional[ReplayWatchdog]:
        """The run's watchdog (None without ``config.supervision``)."""
        return self._watchdog

    def server_for(self, querier_id: int) -> ServerAddress:
        return self.servers[querier_id % len(self.servers)]

    def _stream_config(self) -> Optional[TelemetryConfig]:
        """The TelemetryConfig to ship to workers, or None when the run
        must be observation-free (the differential guarantee: workers
        only ever learn about telemetry when streaming is on)."""
        config = getattr(self.telemetry, "config", self.telemetry)
        if isinstance(config, TelemetryConfig) and config.streaming():
            return config
        return None

    # -- supervision callbacks --------------------------------------------

    def _handle_stall(self, handle: _WorkerHandle) -> None:
        """A worker process died (or, in recovery mode, wedged) with its
        shard outstanding.

        Classic mode fails it here so collection skips it; its sticky
        routes already fail over inside the tree (broken pipe →
        StickyAssigner.remove).  Recovery mode makes death unambiguous
        (terminates a wedged process); closing the control link sends
        the reader into the respawn path.
        """
        classic = self._recovery is None
        with self._lock:
            handle.failed = handle.failed or classic
            self.result.watchdog_stalls += 1
        if not classic and handle.is_alive():
            handle.process.terminate()
        if classic and self.cluster is not None:
            self.cluster.record_crash(handle.role, handle.worker_id,
                                      handle.incarnation,
                                      reason="watchdog stall")
        handle.control.close()

    def _handle_deadline(self) -> None:
        """Propagate the wall-clock budget down the tree as SHUTDOWN."""
        self._deadline_hit = True
        self._broadcast(lambda control: control.send_shutdown())

    def _broadcast(self, send) -> None:
        """``send(control)`` down every distributor link; a dead link is
        the reader's (or the watchdog's) business, not the sender's."""
        for handle in self.distributor_handles:
            try:
                send(handle.control)
            except OSError:
                pass

    # -- setup -------------------------------------------------------------

    def _worker_process(self, role: int, worker_id: int,
                        incarnation: int = 0, listen_port: int = 0):
        """Build (not start) one distributor's or querier's Process.

        The only place their argv is assembled: first spawns and
        respawns alike.  A querier dials its distributor's current
        listen port; a respawned distributor rebinds ``listen_port``.
        """
        config = self.config
        tconfig = self._stream_config()
        if role == ROLE_DISTRIBUTOR:
            target = _distributor_main
            args = (self._control_addr, worker_id,
                    config.queriers_per_distributor, config.recovery,
                    incarnation, listen_port, tconfig)
            if self._distributor_extra is not None:
                args += tuple(self._distributor_extra(worker_id))
        else:
            target = _querier_main
            distributor = self.distributor_handles[
                worker_id // config.queriers_per_distributor]
            deadline = (config.supervision.deadline
                        if config.supervision is not None else None)
            args = (self._control_addr, worker_id,
                    ("127.0.0.1", distributor.listen_port),
                    self.server_for(worker_id), deadline, config.recovery,
                    incarnation, tconfig, self._aggregate)
        return self._ctx.Process(
            target=target, args=args, daemon=True,
            name=_process_name(role, worker_id, incarnation))

    def _spawn_tree(self, num_distributors: int,
                    distributor_extra=None,
                    aggregate: bool = False) -> None:
        """Spawn distributors + queriers and HELLO them in.

        ``distributor_extra(i)`` appends streaming arguments (shard
        file path, read-ahead, pacing) to distributor *i*'s argv;
        ``aggregate`` switches the queriers to O(1) result accounting.
        """
        tconfig = self._stream_config()
        if tconfig is not None:
            self.cluster = _make_aggregator(tconfig)
        self._distributor_extra = distributor_extra
        self._aggregate = aggregate
        # Tier 1 first: each distributor's HELLO carries the
        # querier-listener port tier 2 dials.
        self._spawn(((ROLE_DISTRIBUTOR, num_distributors),
                     (ROLE_QUERIER, num_distributors
                      * self.config.queriers_per_distributor)))

    # -- the run -----------------------------------------------------------

    def replay(self, trace: Trace) -> ReplayResult:
        records = sorted(trace.records, key=lambda r: r.timestamp)
        if not records:
            return self.result
        config = self.config
        # Recovery merges per-query checkpoints: its queriers never
        # account in aggregate.
        self._spawn_tree(config.distributors,
                         aggregate=(config.aggregate_results
                                    and config.recovery is None))
        trace_start = records[0].timestamp
        return self._run(trace_start, records[-1].timestamp - trace_start,
                         records)

    def replay_shard_files(self, directory: str, read_ahead: int = 2048,
                           pace_lead: float = 2.0) -> ReplayResult:
        """Replay a shard-file set at constant memory (the 10⁸ path).

        The trace must already be split sticky-by-source into chunked
        binary shard files (:func:`repro.trace.stream.split_shards`);
        this controller reads only the ``manifest.json`` sidecar — it
        never touches a record.  One distributor process is spawned per
        shard file (``config.distributors`` is ignored) and self-sources
        it lazily with ``read_ahead`` records of decode-ahead, pacing
        routing ``pace_lead`` seconds ahead of the replay clock so no
        tier ever buffers the trace.  Queriers account in aggregate
        mode, so RESULT frames stay a few KB at any scale.
        """
        if self.config.recovery is not None:
            raise ValueError(
                "shard-file streaming does not support recovery mode")
        manifest = read_manifest(directory)
        self.result = ReplayResult("distributed-process", aggregate=True)
        if not manifest["total_records"]:
            return self.result

        def streaming_args(index: int):
            return (shard_path(directory, index, manifest),
                    read_ahead, pace_lead)

        self._spawn_tree(manifest["num_shards"],
                         distributor_extra=streaming_args, aggregate=True)
        self.metrics.incr("multiproc.trace_records",
                          manifest["total_records"])
        trace_start = manifest["first_timestamp"]
        return self._run(trace_start,
                         manifest["last_timestamp"] - trace_start,
                         lead=pace_lead)

    def _run(self, trace_start: float, duration: float,
             records=None, lead: float = 0.0) -> ReplayResult:
        """The one run body behind every entry point.

        Supervise, anchor the clock, stream ``records`` (None: the
        distributors self-source shard files and the control stream is
        just TIME_SYNC + END), send END, wait for every RESULT until the
        deadline, merge, tear down.  Recovery mode adds its own steps:
        controller-side chaos, the late-HELLO accept loop, RECORD_SEQ
        framing, the exactly-once drain before END and the
        ``merge_recovered`` merge.
        """
        config = self.config
        recovery = config.recovery
        if config.supervision is not None:
            self._watchdog = ReplayWatchdog(
                config.supervision, self._handles(),
                on_stall=self._handle_stall,
                on_deadline=self._handle_deadline)
            self._watchdog.start()
        self._assigner = StickyAssigner(self.distributor_handles)
        self.result.trace_start = trace_start
        if recovery is not None:
            # Controller-side chaos acts on the record stream to the
            # distributors; the controller itself never crash-faults.
            for handle in self.distributor_handles:
                attach_chaos(handle.control, recovery.chaos, handle.role,
                             handle.worker_id, handle.incarnation,
                             controller_side=True)
        self._start_readers()

        # Reader + Postman: time-sync broadcast, then the sharded stream.
        time.sleep(config.start_delay)
        self.result.start_clock = time.monotonic()
        if self.cluster is not None:
            self.cluster.set_anchor(self.result.start_clock)
        self._broadcast(lambda control: control.send_time_sync(trace_start))
        for index, record in enumerate(records or ()):
            if self._deadline_hit:
                # Stop feeding the tree; everything not yet streamed is
                # shed here (queued records shed inside the queriers).
                self.result.deadline_shed += len(records) - index
                break
            self._send_record(index, record)

        if recovery is not None:
            # Exactly-once drain: withhold END until the checkpoint
            # store accounts for every streamed index, re-streaming
            # lost records in bounded redelivery rounds.
            drain_deadline = time.monotonic() + duration \
                + config.settle_time + recovery.collect_timeout
            if not self._deadline_hit:
                self._drain_exactly_once(records, drain_deadline)
            # From here on worker death is no longer recoverable work
            # loss (everything is checkpointed), so stop respawning and
            # let the tree wind down.
            self._closing.set()
        self._broadcast(lambda control: control.send_end())

        # Collection: every worker reports RESULT + METRICS when done.
        if recovery is None:
            deadline = time.monotonic() + duration + lead \
                + config.settle_time + 10.0
            supervision = config.supervision
            if supervision is not None and supervision.deadline is not None:
                deadline = min(deadline, self.result.start_clock
                               + supervision.deadline
                               + supervision.stall_timeout + 10.0)
        else:
            deadline = min(drain_deadline,
                           time.monotonic() + config.settle_time + 8.0)
        self._await_results(deadline)
        if self._watchdog is not None:
            self._watchdog.stop()
            self._watchdog.join(timeout=1.0)

        # Merge: respawns may have replaced slots, so re-read them.
        if recovery is None:
            for handle in self._handles():
                if handle.shard is not None:
                    self.result.merge(handle.shard)
        else:
            self._merge_recovered()
        self._merge_metrics("multiproc.workers")
        telemetry = self.telemetry
        if telemetry is not None:
            # Per-query tracing cannot cross the process boundary; the
            # merged counter/histogram snapshots are the process-mode
            # telemetry surface.
            telemetry.metrics.merge(self.metrics)
        self._teardown()
        return self.result

    def _send_record(self, index: int, record) -> None:
        """Route one record sticky-by-source, failing over dead
        distributors; recovery mode tags it with its trace index."""
        sequenced = self.config.recovery is not None
        while self._assigner.entities:
            handle = self._assigner.assign(record.src)
            try:
                if sequenced:
                    handle.control.send_record_seq(index, record)
                else:
                    handle.control.send_record(record)
                return
            except OSError:   # distributor died: fail its sources over
                self._assigner.remove(handle)
                with self._lock:
                    self.result.reassigned_queries += 1
        with self._lock:
            self.result.send_failures += 1

    # -- self-healing mode (config.recovery is set) ------------------------
    #
    # What recovery adds to the run above: records travel as RECORD_SEQ
    # so every send is attributable to a global trace index; END is
    # withheld until the checkpoint store accounts for every index (with
    # bounded redelivery rounds re-streaming lost ones); dead workers
    # are respawned and late HELLOs adopted; and the final merge is the
    # exactly-once merge_recovered over the store instead of the
    # re-indexing ReplayResult.merge.

    def _merge_recovered(self) -> None:
        """Merge the store exactly-once; fold controller-side counters."""
        with self._lock:
            snapshots = self._store.snapshots()
        merged = merge_recovered(snapshots, name=self.result.name)
        # Controller-side accounting (respawns, redelivery, shedding,
        # failover) accrued on self.result during the run.
        for counter in _COUNTER_FIELDS:
            setattr(merged, counter,
                    getattr(merged, counter) + getattr(self.result, counter))
        merged.trace_start = self.result.trace_start
        if self.result.start_clock is not None:
            merged.start_clock = self.result.start_clock \
                if merged.start_clock is None \
                else min(merged.start_clock, self.result.start_clock)
        self.result = merged

    def _drain_exactly_once(self, records, drain_deadline: float) -> None:
        recovery = self.config.recovery
        expected = set(range(len(records)))
        rounds = 0
        last_size = -1
        last_progress = time.monotonic()
        while time.monotonic() < drain_deadline:
            with self._lock:
                sent = self._store.sent_indices()
            if expected <= sent:
                # Every index has a recorded send; also wait out any
                # still-unanswered sends owned by dead incarnations via
                # the redelivery below only if they never got answered.
                missing_answers = self._stale_unanswered(expected)
                if not missing_answers:
                    return
            if len(sent) != last_size:
                last_size = len(sent)
                last_progress = time.monotonic()
                time.sleep(0.05)
                continue
            if time.monotonic() - last_progress < recovery.redelivery_grace:
                time.sleep(0.05)
                continue
            with self._lock:
                live_queriers = any(h.is_alive() and not h.failed
                                    for h in self.querier_handles)
            if not self._assigner.entities or not live_queriers:
                # No live routing path: a respawn is (hopefully) in
                # flight — don't burn redelivery rounds into the void.
                time.sleep(0.05)
                continue
            if rounds >= recovery.redelivery_rounds:
                return
            rounds += 1
            redeliver = sorted((expected - sent)
                               | self._stale_unanswered(expected))
            for index in redeliver:
                self._send_record(index, records[index])
            with self._lock:
                self.result.redelivered_records += len(redeliver)
            last_progress = time.monotonic()

    def _stale_unanswered(self, expected) -> set:
        """Indices whose only sends belong to dead incarnations and
        were never answered — rescue candidates for redelivery."""
        with self._lock:
            live_keys = [((h.role, h.worker_id), h.incarnation)
                         for h in self.querier_handles
                         if h.is_alive() and not h.failed]
            answered = self._store.answered_indices()
            live_sent = self._store.sent_indices(live_keys)
            sent = self._store.sent_indices()
        return (sent & expected) - answered - live_sent


# ---------------------------------------------------------------------------
# Sharded simulation controller
# ---------------------------------------------------------------------------

class ShardTopology(_Controller):
    """N self-sourcing simulation shards as real OS processes.

    The replicated-server shape of :mod:`repro.netsim.shard` deployed
    over the same control plane as :class:`ProcessTopology`: every
    worker regenerates the trace from an importable factory spec, keeps
    only its ``shard_of(record.src, num_shards)`` slice, replays it
    against its own in-process server replica, and reports a RESULT +
    METRICS pair back.  The controller spawns, reads, respawns (in
    recovery mode) and merges — no trace bytes ever cross the process
    boundary.  A respawned shard redoes its whole slice: a shard's
    replay is deterministic for its slice, so its RESULT simply replaces
    the one the dead incarnation never sent.

    Determinism: the merged :class:`ReplayResult` is the union of the
    per-shard results merged in shard-id order, and each shard's result
    depends only on its own slice (sticky-by-source partitioning, one
    closed world per shard) — so the aggregate is independent of how the
    OS schedules the workers.  ``tests/test_shard_differential.py``
    checks this against the single-shard run.
    """

    def __init__(self, num_shards: int, trace_factory: FactorySpec,
                 scenario_factory: Optional[FactorySpec] = None,
                 start_method: Optional[str] = None,
                 collect_timeout: float = 600.0,
                 recovery: Optional[RecoveryConfig] = None,
                 telemetry_config: Optional[TelemetryConfig] = None):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        super().__init__(recovery, start_method)
        self.num_shards = num_shards
        self.trace_factory = (trace_factory[0], trace_factory[1],
                              dict(trace_factory[2]))
        if scenario_factory is None:
            scenario_factory = ("repro.replay.multiproc",
                                "default_shard_scenario", {})
        self.scenario_factory = (scenario_factory[0], scenario_factory[1],
                                 dict(scenario_factory[2]))
        self.start_method = start_method
        self.collect_timeout = collect_timeout
        self.recovery = recovery
        self.telemetry_config = (
            telemetry_config if telemetry_config is not None
            and telemetry_config.streaming() else None)
        self.cluster: Optional[ClusterAggregator] = (
            _make_aggregator(self.telemetry_config)
            if self.telemetry_config is not None else None)
        self.result = ReplayResult("sharded-replay")
        self.metrics = MetricsRegistry()
        self.shard_handles = self._tier(ROLE_SHARD)
        self.wall_s: Optional[float] = None     # controller wall clock
        self.shard_walls: List[Optional[float]] = []
        self.lost_shards = 0
        self.respawns = 0

    def _worker_process(self, role: int, worker_id: int,
                        incarnation: int = 0, listen_port: int = 0):
        """Build (not start) one shard's Process: the only place a
        shard's argv is assembled, first spawns and respawns alike."""
        return self._ctx.Process(
            target=_shard_main,
            args=(self._control_addr, worker_id, self.num_shards,
                  self.trace_factory, self.scenario_factory,
                  self.recovery, incarnation, self.telemetry_config),
            daemon=True, name=_process_name(role, worker_id, incarnation))

    def replay(self) -> ReplayResult:
        started = time.perf_counter()
        self._spawn(((ROLE_SHARD, self.num_shards),))
        self._start_readers()
        self._await_results(time.monotonic() + self.collect_timeout)
        self.wall_s = time.perf_counter() - started
        self.respawns = self._respawns_total

        # Shard-id order; each shard numbers its slice from zero and
        # merge re-indexes past the tail (the indices overlap, so this
        # is never merge_recovered).
        for handle in self.shard_handles:
            if handle.shard is not None:
                self.result.merge(handle.shard)
            gauges = (handle.metrics_state or {}).get("gauges", {})
            self.shard_walls.append(
                gauges.get(f"shard.{handle.worker_id}.wall_s"))
        self.lost_shards = self._merge_metrics("multiproc.shards")
        self._teardown()
        return self.result

    def aggregate_qps(self) -> Optional[float]:
        """Aggregate queries/second over the controller's wall clock.

        Conservative: the denominator includes process spawn, trace
        regeneration, and collection, not just the replay loops.
        """
        if not self.wall_s or not self.result.sent:
            return None
        return len(self.result.sent) / self.wall_s
