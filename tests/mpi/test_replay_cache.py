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
    signature_vector,
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


# ---------------------------------------------------------------------------
# Uniform signature vectors collapse to one representative
# ---------------------------------------------------------------------------

_SPAN_DROP = ("sid", "parent", "replayed")


def _spans(records):
    """Span stream without allocation-order artifacts, same-tick records
    in canonical order."""
    stripped = [
        {k: v for k, v in r.items() if k not in _SPAN_DROP} for r in records
    ]
    return sorted(stripped, key=lambda d: (d.get("t", 0.0), sorted(
        (k, repr(v)) for k, v in d.items()
    )))


def _observed(program, replay, spec=None, placement=None, **kwargs):
    """Everything virtual time shows of one job: returns, finish times,
    counters, profiles, per-pair traffic and the p2p span stream."""
    job = MPIJob(
        spec or hazel_hen(2), program,
        placement=placement or Placement.irregular([4, 3]),
        payload="cost-only", trace="p2p", replay=replay,
        program_kwargs=kwargs,
    )
    result = job.run()
    return result, (
        result.returns, result.finish_times, _counters(result),
        result.comm_summary(), dict(job.machine.network.stats.per_pair),
        _spans(result.trace),
    )


def _assert_replay_invisible(monkeypatch, program, **kwargs):
    """Replay on, and replay on with every hit verified live, both match
    replay off bit for bit; returns the two replaying results."""
    _off, expected = _observed(program, False, **kwargs)
    replaylib.clear_cache()
    on, seen = _observed(program, "loop", **kwargs)
    assert seen == expected
    replaylib.clear_cache()
    monkeypatch.setenv("REPRO_REPLAY_VERIFY", "1")
    verified, seen = _observed(program, "loop", **kwargs)
    assert seen == expected
    return on, verified


def _keys_of(op):
    return [key for key in replaylib._CACHE if key[1] == op]


def _mixed(mpi, reps=4):
    """A uniform allgather and two irregular allgathervs, alternating.
    The allgathervs' per-rank sizes differ; they agree on rank 0's size
    and on the total, so only their full vectors tell them apart."""
    comm = mpi.world
    mine = Bytes(8 * (1 + comm.rank % 3))
    permuted = Bytes(8 * (1 + -comm.rank % 3))
    for _ in range(reps):
        yield from comm.align()
        yield from comm.allgather(Bytes(64))
        yield from comm.align()
        yield from comm.allgatherv(mine)
        yield from comm.align()
        yield from comm.allgatherv(permuted)
    return mpi.now


def _hybrid_shapes(mpi, reps=4):
    """Hybrid allgathers over three buffer shapes, alternating."""
    from repro.core import HybridContext

    comm = mpi.world
    ctx = yield from HybridContext.create(comm)
    bufs = [
        (yield from ctx.allgather_buffer(8)),
        (yield from ctx.allgather_buffer(16)),
        (yield from ctx.allgatherv_buffer(
            [8 * (1 + r % 3) for r in range(comm.size)]
        )),
    ]
    for _ in range(reps):
        for buf in bufs:
            yield from comm.align()
            yield from ctx.allgather(buf)
    return mpi.now


def _geometry_probe(mpi):
    """Every buffer factory's slot table, as this rank holds it."""
    from repro.core import HybridContext

    ctx = yield from HybridContext.create(mpi.world)
    bufs = [
        (yield from ctx.allgather_buffer(8)),
        (yield from ctx.allgather_buffer(8, cache=False)),
        (yield from ctx.allgatherv_buffer([8 + r for r in range(7)])),
        (yield from ctx.bcast_buffer(64)),
    ]
    return [(b.slot_sizes, b.slot_offsets, b.total_nbytes) for b in bufs]


class TestUniformCollapse:
    """A signature vector all ranks agree on is keyed by one signature;
    any other stays per rank, and neither aliases the other."""

    def setup_method(self):
        replaylib.clear_cache()

    def test_collapses_only_uniform_vectors(self):
        uniform = signature_vector([("b", 8)] * 4)
        assert uniform == (replaylib._UNIFORM, ("b", 8))
        mixed = [("b", 8), ("b", 16), ("b", 8), ("b", 8)]
        assert signature_vector(mixed) == tuple(mixed)
        # Two ranks: the collapsed form has the length of a full vector,
        # but the marker equals no signature.
        assert signature_vector([("b", 8)] * 2) != (("b", 8), ("b", 8))
        assert (signature_vector([("b", 8), ("b", 16)])
                != signature_vector([("b", 8)] * 2))

    def test_shared_parts_compare_by_identity(self):
        class Sizes:
            compared = 0

            def __eq__(self, other):
                Sizes.compared += 1
                return True

            __hash__ = object.__hash__

        sizes = Sizes()
        sigs = [("hyag", sizes, r * 0) for r in range(64)]
        assert len({id(s) for s in sigs}) == 64
        assert signature_vector(sigs)[1] is sigs[0]
        assert Sizes.compared == 0

    def test_mixed_uniform_and_irregular_dispatches(self, monkeypatch):
        on, verified = _assert_replay_invisible(monkeypatch, _mixed)
        # Per shape: warm-first and the measured second occurrence run
        # live, the other two repetitions replay.
        assert on.replay_hits == verified.replay_hits == 3 * 2
        (uniform,) = _keys_of("allgather")
        assert uniform[2][0] is replaylib._UNIFORM
        assert len(uniform[2]) == 2
        irregular = _keys_of("allgatherv")
        assert len(irregular) == 2
        for key in irregular:
            assert len(key[2]) == 7
            assert len(set(key[2])) == 3

    def test_alternating_hybrid_buffer_shapes(self, monkeypatch):
        on, verified = _assert_replay_invisible(monkeypatch, _hybrid_shapes)
        assert on.replay_hits == verified.replay_hits == 3 * 2
        keys = _keys_of("hy_allgather")
        assert len(keys) == 3
        slot_sizes = {key[2][1][1] for key in keys}
        assert len(slot_sizes) == 3


class TestSharedGeometry:
    """Structural O(ranks) guards: one slot table per communicator and
    shape, one signature per uniform record key."""

    def setup_method(self):
        replaylib.clear_cache()

    def test_ranks_share_one_slot_table_per_shape(self):
        result = run_program(
            hazel_hen(2), None, _geometry_probe,
            placement=Placement.irregular([4, 3]), payload="cost-only",
        )
        per_shape = list(zip(*result.returns))
        regular, uncached, irregular, bcast = per_shape
        for tables in per_shape:
            assert len({id(sizes) for sizes, _o, _t in tables}) == 1
            assert len({id(offsets) for _s, offsets, _t in tables}) == 1
            sizes, offsets, total = tables[0]
            assert type(sizes) is tuple and type(offsets) is tuple
            assert list(offsets) == [sum(sizes[:i])
                                     for i in range(len(sizes))]
            assert total == sum(sizes)
        # A shape's geometry is shared whether or not the buffer is
        # cached: the table is immutable.
        assert regular[0][1] is uncached[0][1]
        assert irregular[0][2] == sum(8 + r for r in range(7))
        assert bcast[0][0] == (64,) + (0,) * 6

    def test_uniform_hybrid_key_holds_one_signature(self):
        from repro.bench.osu import hybrid_allgather_program

        n = 24
        result = run_program(
            hazel_hen(2), None, hybrid_allgather_program,
            placement=Placement.irregular([16, 8]), payload="cost-only",
            replay="loop",
            program_kwargs={"nbytes_per_rank": 64, "reps": 5},
        )
        assert result.replay_hits > 0
        (key,) = _keys_of("hy_allgather")
        sigs = key[2]
        assert sigs[0] is replaylib._UNIFORM
        assert len(sigs) == 2
        assert sigs[1][1] == (64,) * n


def _mutating(mpi, reps=5, sink=None):
    """Aligned allgathers and allgathervs; rank 0 mutates every result
    list it receives.  Each rank returns its lists' final contents, so
    a list shared with rank 0 (or with a record) shows the mutation."""
    comm = mpi.world
    mine = Bytes(8 * (1 + comm.rank % 2))
    kept = []
    for _ in range(reps):
        yield from comm.align()
        kept.append((yield from comm.allgather(Bytes(16))))
        yield from comm.align()
        kept.append((yield from comm.allgatherv(mine)))
        if comm.rank == 0:
            kept[-2][0] = None
            kept[-1].append(Bytes(1))
    if sink is not None:
        sink.extend(kept)
    return [tuple(got) for got in kept]


class TestSharedResults:
    """A record stores one result per distinct value; every rank still
    receives a list of its own."""

    def setup_method(self):
        replaylib.clear_cache()

    def test_mutated_results_stay_private(self, monkeypatch):
        on, verified = _assert_replay_invisible(monkeypatch, _mutating)
        assert on.replay_hits == verified.replay_hits == 3 * 2
        assert all(got[0] is None for got in on.returns[0][::2])
        for rank_returns in on.returns[1:]:
            assert all(got[0] is not None for got in rank_returns)

    def test_ranks_never_share_a_list(self):
        sink = []
        _observed(_mutating, "loop", sink=sink)
        assert len(sink) == 7 * 5 * 2
        assert len({id(got) for got in sink}) == len(sink)
        assert all(type(got) is list for got in sink)

    def test_agreeing_ranks_hold_one_result(self):
        _observed(_mutating, "loop")
        for op in ("allgather", "allgatherv"):
            (key,) = _keys_of(op)
            results = replaylib._CACHE[key].results
            assert len(results) == 7
            assert len({id(r) for r in results}) == 1
            assert type(results[0]) is list
            # A pure dispatch changes no profile below the top-level
            # entry ``Comm`` re-adds, so its record stores none.
            assert replaylib._CACHE[key].profiles == ()

    def test_profiles_stored_for_changed_ranks_only(self):
        _observed(_hybrid_shapes, "loop")
        for key in _keys_of("hy_allgather"):
            profiles = replaylib._CACHE[key].profiles
            ranks = [rank for rank, _delta in profiles]
            assert ranks == sorted(ranks) and 0 < len(ranks) <= 7
            assert all(delta for _rank, delta in profiles)
