"""Unit and property tests for the collective replay cache keying.

The replay key must be sensitive to everything that can change a
dispatch's simulated cost — machine fingerprint, transport, socket
mode, payload *sizes*, entry-time offsets, arrival permutation — and
insensitive to pure execution-mode knobs (payload storage mode) that
the equivalence suites prove cost-neutral.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine.placement import Placement
from repro.machine.presets import hazel_hen, hazel_hen_flat
from repro.machine.presets import testing_machine as _testing
from repro.mpi import run_program
from repro.mpi.collectives import replay as replaylib
from repro.mpi.collectives.replay import (
    job_prefix,
    payload_signature,
    replay_key,
    sync_signature,
)
from repro.mpi.datatypes import Bytes
from repro.mpi.rma import win_allocate
from repro.mpi.runtime import MPIJob


def _noop(mpi):
    return
    yield  # pragma: no cover


def _job(spec=None, *, placement=None, **kwargs):
    spec = spec or _testing(num_nodes=2, cores=4)
    return MPIJob(spec, _noop, placement=placement or Placement.block(2, 4),
                  replay=False, **kwargs)


class TestJobPrefix:
    def test_stable_for_identical_jobs(self):
        assert job_prefix(_job()) == job_prefix(_job())

    def test_sensitive_to_machine_fingerprint(self):
        a = job_prefix(_job(_testing(num_nodes=2, cores=4)))
        b = job_prefix(_job(
            _testing(num_nodes=2, cores=4, bandwidth=9e8)
        ))
        assert a != b

    def test_sensitive_to_transport(self):
        from dataclasses import replace

        spec = hazel_hen(2)
        other = replace(spec, node=replace(spec.node, transport="pip_direct"))
        pl = Placement.block(2, 4)
        assert (job_prefix(_job(spec, placement=pl))
                != job_prefix(_job(other, placement=pl)))

    def test_sensitive_to_socket_mode(self):
        spec = hazel_hen(2)  # 2-socket nodes: socket_mode matters
        a = _job(spec, placement=Placement.block(2, 8))
        b = _job(
            spec,
            placement=Placement.block(2, 8).with_socket_mode("scatter"),
        )
        assert job_prefix(a) != job_prefix(b)

    def test_sensitive_to_topology_not_just_size(self):
        spec = hazel_hen_flat(2)
        a = _job(spec, placement=Placement.irregular([5, 3]))
        b = _job(spec, placement=Placement.irregular([4, 4]))
        assert job_prefix(a) != job_prefix(b)

    def test_insensitive_to_payload_mode(self):
        prefixes = {
            job_prefix(_job(payload=mode))
            for mode in ("data", "model", "cost-only")
        }
        assert len(prefixes) == 1

    def test_insensitive_to_seed(self):
        assert job_prefix(_job(seed=1)) == job_prefix(_job(seed=2))


class TestReplayKey:
    PREFIX = ("p",)
    SIGS = (("b", 64),) * 4
    ZERO = (0,) * 4
    ORDER = (0, 1, 2, 3)

    def _key(self, **kw):
        return replay_key(
            kw.get("prefix", self.PREFIX), kw.get("op", "allgather"),
            kw.get("sigs", self.SIGS), kw.get("offsets", self.ZERO),
            kw.get("order", self.ORDER),
        )

    def test_sensitive_to_dtype_signature(self):
        assert self._key() != self._key(sigs=(("b", 128),) * 4)
        assert self._key() != self._key(
            sigs=(("b", 128),) + (("b", 64),) * 3
        )

    def test_sensitive_to_entry_offsets(self):
        assert self._key() != self._key(offsets=(0, 0, 0, 1))

    def test_sensitive_to_arrival_order(self):
        assert self._key() != self._key(order=(3, 2, 1, 0))

    def test_sensitive_to_op(self):
        assert self._key() != self._key(op="bcast")


class TestPayloadSignature:
    def test_size_only_payloads_are_keyable(self):
        assert payload_signature(None) == ("none",)
        assert payload_signature(Bytes(64)) == ("b", 64)
        assert payload_signature([Bytes(8), None, Bytes(16)]) == \
            ("lb", (8, -1, 16))

    def test_data_payloads_veto(self):
        assert payload_signature(np.zeros(4)) is None
        assert payload_signature([Bytes(8), np.zeros(2)]) is None

    def test_sync_policy_signatures(self):
        from repro.core import BarrierSync, FlagSync

        assert sync_signature(BarrierSync()) is not None
        assert sync_signature(FlagSync()) is not None
        assert sync_signature(BarrierSync()) != sync_signature(FlagSync())

        class Custom(BarrierSync):
            pass

        assert sync_signature(Custom()) is None


def _counters(result):
    return (result.sent_messages, result.sent_bytes, result.intra_copies,
            result.intra_bytes, result.network_messages,
            result.network_bytes)


def _bench(mpi, nbytes=256, reps=4):
    comm = mpi.world
    payload = Bytes(nbytes)
    yield from comm.allgather(payload)  # warm-first: runs live
    for _ in range(reps):
        yield from comm.align()
        yield from comm.allgather(payload)


class TestSessionKeying:
    """End-to-end: runs that must (or must not) share cache entries."""

    def setup_method(self):
        replaylib.clear_cache()

    def _run(self, spec=None, *, program_kwargs=None, **kwargs):
        return run_program(
            spec or _testing(num_nodes=2, cores=4), None, _bench,
            placement=kwargs.pop("placement", Placement.block(2, 4)),
            payload=kwargs.pop("payload", "cost-only"),
            replay=kwargs.pop("replay", "loop"),
            program_kwargs=program_kwargs or {},
            **kwargs,
        )

    def test_identical_jobs_share_entries(self):
        first = self._run()
        entries = replaylib.cache_stats()["entries"]
        second = self._run()
        # The first job records its second dispatch live; the second job
        # records nothing and replays every dispatch after its
        # warm-first one from the first job's entries.
        assert first.replay_hits == 3
        assert replaylib.cache_stats()["entries"] == entries
        assert second.replay_hits == 4
        # A record built live in one job replays bit-identically in
        # another.
        off = self._run(replay=False)
        for result in (first, second):
            assert result.returns == off.returns
            assert result.finish_times == off.finish_times
            assert _counters(result) == _counters(off)
            assert result.comm_summary() == off.comm_summary()

    def test_machine_change_misses(self):
        self._run()
        entries = replaylib.cache_stats()["entries"]
        self._run(_testing(num_nodes=2, cores=4, bandwidth=9e8))
        assert replaylib.cache_stats()["entries"] > entries

    def test_payload_size_change_misses(self):
        self._run()
        entries = replaylib.cache_stats()["entries"]
        self._run(program_kwargs={"nbytes": 512})
        assert replaylib.cache_stats()["entries"] > entries

    def test_payload_mode_shares_entries(self):
        self._run(payload="cost-only")
        entries = replaylib.cache_stats()["entries"]
        result = self._run(payload="model")
        assert replaylib.cache_stats()["entries"] == entries
        assert result.replay_hits == 4

    def test_data_mode_never_replays(self):
        result = self._run(payload="data", replay=True)
        assert result.replay_hits == result.replay_misses == 0


class TestLiveRecording:
    """Records come from the live job's second occurrence of a shape."""

    def setup_method(self):
        replaylib.clear_cache()

    def test_one_job_no_nested_engine_run(self, monkeypatch):
        from repro.bench.osu import pure_allgather_program
        from repro.simulator.engine import Engine

        jobs = []
        depth = [0]
        nested = []
        real_init = MPIJob.__init__
        real_run = Engine.run

        def init(self, *args, **kwargs):
            jobs.append(self)
            real_init(self, *args, **kwargs)

        def run(self, *args, **kwargs):
            nested.append(depth[0])
            depth[0] += 1
            try:
                return real_run(self, *args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(MPIJob, "__init__", init)
        monkeypatch.setattr(Engine, "run", run)
        result = run_program(
            hazel_hen(2), None, pure_allgather_program,
            placement=Placement.block(2, 6), payload="cost-only",
            replay="loop",
            program_kwargs={"nbytes_per_rank": 512, "reps": 5},
        )
        assert result.replay_hits == 4
        assert len(jobs) == 1
        assert nested == [0]


def _ring(mpi, op="barrier", reps=4, ring=True):
    """Aligned world collective, then (with *ring*) p2p posted straight
    after it: the ranks that leave first send while later ranks are
    still inside the dispatch."""
    comm = mpi.world
    n = comm.size
    for _ in range(reps):
        yield from comm.align()
        if op == "barrier":
            yield from comm.barrier()
        elif op == "allgather":
            yield from comm.allgather(Bytes(64))
        else:
            yield from comm.allreduce(Bytes(64))
        if ring:
            req = comm.isend(Bytes(8), (comm.rank + 1) % n)
            yield from comm.recv(source=(comm.rank - 1) % n)
            yield from comm.wait(req)
    return mpi.now


class TestCleanWindow:
    """Traffic a rank posts after leaving the measured dispatch must
    never be recorded as the dispatch's own."""

    def setup_method(self):
        replaylib.clear_cache()

    def _run(self, replay, **program_kwargs):
        return run_program(
            hazel_hen(1), None, _ring, placement=Placement.block(1, 4),
            payload="cost-only", replay=replay,
            program_kwargs=program_kwargs,
        )

    @pytest.mark.parametrize("replay", [True, "loop"])
    def test_tainted_window_caches_nothing(self, replay):
        tainted = replaylib.cache_stats()["tainted"]
        on = self._run(replay)
        # Warm-first, then every measured occurrence is tainted by the
        # ring sends until the retry budget is spent.
        assert replaylib.cache_stats()["entries"] == 0
        assert (replaylib.cache_stats()["tainted"] - tainted
                == replaylib._UNUSABLE_LIMIT)
        assert on.replay_hits == 0
        off = self._run(False)
        assert on.returns == off.returns
        assert _counters(on) == _counters(off)

    @pytest.mark.parametrize("replay", [True, "loop"])
    @pytest.mark.parametrize("op", ["barrier", "allgather", "allreduce"])
    def test_verify_after_replayed_collective(self, monkeypatch, op,
                                              replay):
        off = self._run(False, op=op)
        # Record the dispatch from a clean program, then verify its hits
        # in the program whose ranks post p2p right after it.
        self._run(replay, op=op, ring=False)
        monkeypatch.setenv("REPRO_REPLAY_VERIFY", "1")
        on = self._run(replay, op=op)
        assert on.replay_hits == 3
        assert on.returns == off.returns
        assert on.finish_times == off.finish_times
        assert _counters(on) == _counters(off)
        assert on.comm_summary() == off.comm_summary()


def _after_barrier(mpi, action="copy", reps=4):
    """Traffic outside the message engine straight after a world
    collective: a direct memory copy after a barrier, or a remote RMA
    put between two fences."""
    comm = mpi.world
    n = comm.size
    if action == "put":
        win = yield from win_allocate(comm, 64)
    for _ in range(reps):
        if action == "copy":
            yield from comm.barrier()
            yield from mpi.machine.memory_copy(mpi.node, 4096)
        else:
            yield from win.fence()
            yield from win.put(Bytes(64), (comm.rank + n // 2) % n)
            yield from win.fence()
    return mpi.now


class TestCleanWindowOutsideMessageEngine:
    """Copies and one-sided puts bump the traffic counters without
    posting p2p; a rank making them after it left the measured dispatch
    must taint the window just the same."""

    def setup_method(self):
        replaylib.clear_cache()

    def _run(self, action, replay):
        nodes = 1 if action == "copy" else 2
        job = MPIJob(
            hazel_hen(nodes), _after_barrier,
            placement=Placement.block(nodes, 4 // nodes),
            payload="cost-only", replay=replay,
            program_kwargs={"action": action},
        )
        result = job.run()
        return result, dict(job.machine.network.stats.per_pair)

    @pytest.mark.parametrize("replay", [True, "loop"])
    @pytest.mark.parametrize("action", ["copy", "put"])
    def test_counters_match_replay_off(self, action, replay):
        off, off_pairs = self._run(action, False)
        on, on_pairs = self._run(action, replay)
        assert on.returns == off.returns
        assert on.finish_times == off.finish_times
        assert _counters(on) == _counters(off)
        assert on_pairs == off_pairs
        assert on.comm_summary() == off.comm_summary()
