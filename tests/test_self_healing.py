"""Self-healing distributed replay (ISSUE 8).

Four layers, innermost out: the CheckpointStore / merge primitives
(pure, exhaustively unit-tested), the chaos engine's determinism, the
property that *any* frame delivery schedule merges to the clean-run
result, and — under the ``chaos`` marker — real process trees with
deterministic crashes and SIGKILLs that must conserve every record.
"""

import contextlib
import os
import signal
import threading
import time

import pytest

from repro.replay import (ChaosConfig, ChaosEngine, CheckpointPolicy,
                          CheckpointStore, DistributedConfig,
                          ProcessTopology, RecoveryConfig, RespawnPolicy,
                          ShardTopology, UdpEchoServerProcess,
                          conservation_violations, merge_recovered,
                          reconnect_with_backoff, shard_slice)
from repro.replay.protocol import (MSG_END, MSG_RECORD, MSG_RESULT,
                                   ROLE_QUERIER, ROLE_SHARD)
from repro.telemetry import TelemetryConfig
from repro.trace import fixed_interval_trace, zipf_trace
from repro.verify.generators import (HAVE_HYPOTHESIS, checkpoint_deliveries,
                                     checkpoint_emission_history)


def _result_dict(worker, indices, answered=True, sent_at=None):
    sent = [{"index": index, "source": f"c{index % 4}",
             "trace_time": float(index), "scheduled_at": float(index),
             "sent_at": float(index) if sent_at is None else sent_at,
             "protocol": "udp", "qname": "q.example.com.",
             "answered_at": (float(index) + 0.5) if answered else None,
             "querier_id": worker}
            for index in indices]
    return {"name": f"querier-{worker}", "sent": sent}


class TestCheckpointStore:
    def test_later_seq_wins_and_stale_is_counted(self):
        store = CheckpointStore()
        assert store.offer("w0", 0, 1, _result_dict(0, [0]))
        assert store.offer("w0", 0, 3, _result_dict(0, [0, 1, 2]))
        assert not store.offer("w0", 0, 2, _result_dict(0, [0, 1]))
        assert store.frames_offered == 3
        assert store.frames_stale == 1
        assert store.sent_indices() == {0, 1, 2}

    def test_duplicate_offer_is_idempotent(self):
        store = CheckpointStore()
        payload = {"worker": 0, "incarnation": 0, "seq": 2, "final": False,
                   "result": _result_dict(0, [0, 1])}
        assert store.offer_frame("w0", payload)
        assert not store.offer_frame("w0", payload)
        assert store.snapshots() == [_result_dict(0, [0, 1])]

    def test_final_outranks_any_checkpoint_seq(self):
        store = CheckpointStore()
        store.offer("w0", 0, 99, _result_dict(0, [0]))
        assert store.offer("w0", 0, 0, _result_dict(0, [0, 1]), final=True)
        # A late high-seq checkpoint from before the final is stale.
        assert not store.offer("w0", 0, 100, _result_dict(0, [0]))
        assert store.has_final("w0", 0)
        assert store.sent_indices() == {0, 1}

    def test_incarnations_are_tracked_separately(self):
        store = CheckpointStore()
        store.offer("w0", 0, 5, _result_dict(0, [0, 1]))
        store.offer("w0", 1, 1, _result_dict(0, [2]))
        assert len(store.snapshots()) == 2
        assert store.sent_indices() == {0, 1, 2}
        assert not store.has_final("w0", 0)

    def test_answered_indices_filter(self):
        store = CheckpointStore()
        store.offer("w0", 0, 1, _result_dict(0, [0, 1], answered=False))
        store.offer("w1", 0, 1, _result_dict(1, [2]))
        assert store.sent_indices() == {0, 1, 2}
        assert store.answered_indices() == {2}
        assert store.sent_indices(keys=[("w1", 0)]) == {2}


class TestMergeRecovered:
    def test_duplicate_index_collapses_preferring_answered(self):
        crashed = _result_dict(0, [0, 1], answered=False)
        redelivered = _result_dict(1, [1, 2], answered=True)
        merged = merge_recovered([crashed, redelivered])
        assert [q.index for q in merged.sent] == [0, 1, 2]
        by_index = {q.index: q for q in merged.sent}
        assert by_index[1].answered_at is not None     # answered copy won
        assert by_index[1].querier_id == 1
        assert merged.duplicate_merged == 1

    def test_merge_is_order_independent(self):
        a = _result_dict(0, [0, 1], answered=False)
        b = _result_dict(1, [1, 2])
        forward = merge_recovered([a, b]).to_dict()
        backward = merge_recovered([b, a]).to_dict()
        assert forward == backward

    def test_conservation_violations_detects_each_failure_mode(self):
        clean = merge_recovered([_result_dict(0, [0, 1, 2])])
        assert conservation_violations(clean, 3) == []
        missing = merge_recovered([_result_dict(0, [0, 2])])
        assert any("never accounted" in p
                   for p in conservation_violations(missing, 3))
        ghost = merge_recovered([_result_dict(0, [0, 1, 2, 7])])
        assert any("outside the trace" in p
                   for p in conservation_violations(ghost, 3))


class TestChaosEngine:
    CONFIG = ChaosConfig(seed=11, drop_rate=0.3, reorder_rate=0.3,
                         delay_rate=0.0)

    def _run(self, engine, frames=40):
        out = []
        for i in range(frames):
            out.append(engine.process(MSG_RECORD, bytes([i])))
        return out

    def test_same_identity_same_schedule(self):
        first = ChaosEngine(self.CONFIG, ROLE_QUERIER, 3, incarnation=0)
        second = ChaosEngine(self.CONFIG, ROLE_QUERIER, 3, incarnation=0)
        assert self._run(first) == self._run(second)
        assert first.dropped == second.dropped > 0

    def test_incarnation_changes_schedule(self):
        first = ChaosEngine(self.CONFIG, ROLE_QUERIER, 3, incarnation=0)
        respawn = ChaosEngine(self.CONFIG, ROLE_QUERIER, 3, incarnation=1)
        assert self._run(first) != self._run(respawn)

    def test_crash_arming_respects_incarnation_gate(self):
        config = ChaosConfig(seed=1, crash_rate=1.0, crash_incarnations=(0,))
        armed = ChaosEngine(config, ROLE_QUERIER, 0, incarnation=0)
        respawned = ChaosEngine(config, ROLE_QUERIER, 0, incarnation=1)
        disabled = ChaosEngine(config, ROLE_QUERIER, 0, incarnation=0,
                               allow_crash=False)
        assert armed._crash_armed
        assert not respawned._crash_armed
        assert not disabled._crash_armed

    def test_exempt_kind_flushes_held_frame(self):
        config = ChaosConfig(seed=2, reorder_rate=1.0)
        engine = ChaosEngine(config, ROLE_QUERIER, 0)
        assert engine.process(MSG_RECORD, b"a") == []    # held
        # END is exempt: the held data frame must not overtake it... it
        # is released *before* END so the peer still sees all data.
        assert engine.process(MSG_END, b"") \
            == [(MSG_RECORD, b"a"), (MSG_END, b"")]

    def test_drop_releases_held_frame(self):
        config = ChaosConfig(seed=2, reorder_rate=1.0, drop_rate=1.0)
        engine = ChaosEngine(config, ROLE_QUERIER, 0)
        first = engine.process(MSG_RECORD, b"a")
        second = engine.process(MSG_RECORD, b"b")
        # Whatever the interleaving, no frame other than a dropped one
        # may vanish: held frames always resurface.
        emitted = [frame for batch in (first, second) for frame in batch]
        assert len(emitted) + engine.dropped - engine.reordered == 2


class TestPolicies:
    def test_respawn_backoff_is_exponential_and_capped(self):
        policy = RespawnPolicy(backoff_base=0.05, backoff_factor=2.0,
                               backoff_cap=0.15)
        assert policy.backoff(0) == pytest.approx(0.05)
        assert policy.backoff(1) == pytest.approx(0.10)
        assert policy.backoff(2) == pytest.approx(0.15)   # capped
        assert policy.backoff(10) == pytest.approx(0.15)

    def test_checkpoint_policy_due(self):
        policy = CheckpointPolicy(every_records=4, interval_s=0.5)
        assert not policy.due(0, 99.0)          # nothing new: never due
        assert policy.due(4, 0.0)               # record threshold
        assert policy.due(1, 0.5)               # time threshold
        assert not policy.due(3, 0.1)

    def test_reconnect_with_backoff_retries_then_succeeds(self):
        calls = []

        def factory():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("refused")
            return "socket"

        assert reconnect_with_backoff(factory, 5, 0.001) == "socket"
        assert len(calls) == 3

    def test_reconnect_with_backoff_exhausts_to_none(self):
        def factory():
            raise OSError("refused")

        assert reconnect_with_backoff(factory, 2, 0.001) is None

    def test_reconnect_with_backoff_abort(self):
        assert reconnect_with_backoff(
            lambda: "socket", 3, 0.001, abort=lambda: True) is None


class TestCheckpointInterleavings:
    """Satellite (c): any interleaving of CHECKPOINT frames + final
    RESULT with duplicates and reorders merges to the same ReplayResult
    as the clean in-order run."""

    @staticmethod
    def _merge(frames, order):
        store = CheckpointStore()
        for slot in order:
            payload = frames[slot]
            store.offer_frame((1, payload["worker"]), payload)
        return merge_recovered(store.snapshots())

    def _assert_interleaving_clean(self, frames, order, total):
        clean = self._merge(frames, range(len(frames)))
        adversarial = self._merge(frames, order)
        assert adversarial.to_dict() == clean.to_dict()
        assert conservation_violations(adversarial, total) == []

    def test_seeded_interleavings_match_clean_run(self):
        for seed in range(150):
            frames, order, total = checkpoint_deliveries(
                seed, workers=3, total=10)
            self._assert_interleaving_clean(frames, order, total)

    def test_emission_history_shape(self):
        import random
        frames = checkpoint_emission_history(random.Random(0), workers=2,
                                             total=6)
        finals = [f for f in frames if f["final"]]
        assert sorted(f["worker"] for f in finals) == [0, 1]
        # Snapshots are cumulative: within a worker, each frame's index
        # set contains the previous frame's.
        for worker in (0, 1):
            chain = [set(q["index"] for q in f["result"]["sent"])
                     for f in frames if f["worker"] == worker]
            for earlier, later in zip(chain, chain[1:]):
                assert earlier <= later

    if HAVE_HYPOTHESIS:
        from hypothesis import given, settings
        from repro.verify.generators import checkpoint_interleavings

        @settings(max_examples=60, deadline=None)
        @given(case=checkpoint_interleavings(workers=2, total=8))
        def test_hypothesis_interleavings_match_clean_run(self, case):
            frames, order, total = case
            self._assert_interleaving_clean(frames, order, total)


# -- end-to-end crash recovery (real process trees) --------------------------

def _recovering_config(distributors=1, queriers=2, chaos=None):
    return DistributedConfig(
        distributors=distributors, queriers_per_distributor=queriers,
        settle_time=0.5, recovery=RecoveryConfig(chaos=chaos))


@pytest.mark.chaos
class TestCrashRecoveryEndToEnd:
    def test_clean_recovery_run_has_no_overhead_effects(self):
        """Recovery mode with no faults: same conservation guarantees,
        zero respawns, zero redeliveries."""
        trace = fixed_interval_trace(interval=0.002, duration=0.3,
                                     client_count=8)
        with UdpEchoServerProcess() as echo:
            topology = ProcessTopology((echo.address, echo.port),
                                       _recovering_config())
            result = topology.replay(trace)
        assert conservation_violations(result, len(trace.records)) == []
        assert result.respawns == 0
        assert result.redelivered_records == 0

    def test_chaos_crash_is_respawned_and_conserved(self):
        """Queriers crash deterministically on their first incarnation;
        the respawned incarnation finishes the shard and the merge
        accounts for every record exactly once."""
        trace = fixed_interval_trace(interval=0.002, duration=0.4,
                                     client_count=8)
        chaos = ChaosConfig(seed=7, crash_rate=1.0, crash_after_frames=30,
                            crash_incarnations=(0,))
        with UdpEchoServerProcess() as echo:
            topology = ProcessTopology((echo.address, echo.port),
                                       _recovering_config(chaos=chaos))
            result = topology.replay(trace)
        assert conservation_violations(result, len(trace.records)) == []
        assert result.respawns >= 1
        assert result.redelivered_records > 0

    def test_sigkill_two_of_four_queriers_conserves(self):
        """ISSUE acceptance: a 4-querier process replay with 2 workers
        SIGKILLed mid-run completes with conserved per-class counts."""
        trace = fixed_interval_trace(interval=0.002, duration=1.2,
                                     client_count=16)
        with UdpEchoServerProcess() as echo:
            topology = ProcessTopology(
                (echo.address, echo.port),
                _recovering_config(distributors=2, queriers=2))

            def assassin():
                time.sleep(0.4)
                for handle in (topology.querier_handles[0],
                               topology.querier_handles[2]):
                    if handle.pid is not None:
                        os.kill(handle.pid, signal.SIGKILL)

            killer = threading.Thread(target=assassin, daemon=True)
            killer.start()
            result = topology.replay(trace)
            killer.join(timeout=1.0)
        assert conservation_violations(result, len(trace.records)) == []
        assert result.respawns == 2
        answered = sum(1 for q in result.sent if q.answered_at is not None)
        assert answered == len(trace.records)

    def test_shard_topology_respawns_crashed_replicas(self):
        """ROLE_SHARD replicas ride the same respawn path: shards that
        crash while reporting are rerun deterministically."""
        chaos = ChaosConfig(seed=3, crash_rate=1.0, kinds=(MSG_RESULT,),
                            crash_incarnations=(0,))
        topology = ShardTopology(
            2,
            trace_factory=("repro.trace.synthetic", "zipf_trace",
                           {"query_count": 400, "client_count": 16,
                            "server": "10.0.0.2"}),
            recovery=RecoveryConfig(chaos=chaos),
            collect_timeout=60.0)
        result = topology.replay()
        assert len(result.sent) == 400
        assert topology.lost_shards == 0
        assert topology.respawns == 2
        assert result.respawns == 2

    def test_crashed_shard_is_rerun_while_another_is_wedged(self):
        """A dead shard is respawned as soon as its reader sees EOF, not
        after every other shard reports: with shard 0 SIGSTOPped and
        shard 1 SIGKILLed, shard 1's rerun lands its whole slice and
        only the wedged shard is lost."""
        trace_kwargs = {"query_count": 10000, "client_count": 16,
                        "server": "10.0.0.2"}
        topology = ShardTopology(
            2, trace_factory=("repro.trace.synthetic", "zipf_trace",
                              trace_kwargs),
            recovery=RecoveryConfig(), collect_timeout=6.0)
        stopped = []

        def saboteur():
            deadline = time.monotonic() + 30.0
            while (len(topology.shard_handles) < 2
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            time.sleep(0.3)
            wedged, victim = topology.shard_handles
            os.kill(wedged.pid, signal.SIGSTOP)
            stopped.append(wedged.pid)
            os.kill(victim.pid, signal.SIGKILL)

        thread = threading.Thread(target=saboteur, daemon=True)
        thread.start()
        try:
            result = topology.replay()
        finally:
            thread.join(timeout=5.0)
            # terminate() cannot reap a stopped process.
            for pid in stopped:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        assert not thread.is_alive()
        assert topology.lost_shards == 1
        assert topology.respawns == 1
        slice_ = shard_slice(zipf_trace(**trace_kwargs), 1, 2)
        assert len(result.sent) == len(slice_.records) > 0
        assert result.answered_fraction() == 1.0

    def test_streaming_shards_report_to_the_cluster_view(self):
        """Shard telemetry reaches topology.cluster live, and a killed
        shard leaves a crash report there."""
        topology = ShardTopology(
            2, trace_factory=("repro.trace.synthetic", "zipf_trace",
                              {"query_count": 10000, "client_count": 16,
                               "server": "10.0.0.2"}),
            collect_timeout=60.0,
            telemetry_config=TelemetryConfig(stream_period=0.05))

        def assassin():
            deadline = time.monotonic() + 30.0
            while (len(topology.shard_handles) < 2
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            time.sleep(0.3)
            os.kill(topology.shard_handles[1].pid, signal.SIGKILL)

        thread = threading.Thread(target=assassin, daemon=True)
        thread.start()
        topology.replay()
        thread.join(timeout=5.0)
        assert topology.lost_shards == 1
        views = {(view.role, view.worker_id): view
                 for view in topology.cluster.workers()}
        assert set(views) == {(ROLE_SHARD, 0), (ROLE_SHARD, 1)}
        assert views[(ROLE_SHARD, 0)].frames > 0
        assert views[(ROLE_SHARD, 1)].crashed
        assert [report["worker"]
                for report in topology.cluster.crash_reports()] == ["shard-1"]
