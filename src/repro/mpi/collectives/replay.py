"""Macro-event replay cache: memoize repeated collective dispatches.

The benchmark methodology (warmup + repetition loops over the *same*
collective) and the apps (SUMMA panel broadcasts, BPMF allreduces,
stencil halo rounds) dispatch byte-identical collectives hundreds of
times per simulation.  The engine is deterministic, so once one such
dispatch has been simulated its outcome — per-rank virtual-time deltas,
byte/message counter increments, and the span-stream slice — is a pure
function of the *replay key*:

* the job prefix: engine version, machine fingerprint (covers sockets,
  transport, topology), placement (node/socket vectors + socket mode),
  tuning personality, selection policy, link contention, trace detail
  and engine path;
* the operation name and the per-rank payload signatures (sizes/roots/
  reduce ops — the dtype signature), collapsed to one signature when
  every rank's is the same (:func:`signature_vector`);
* the vector of relative per-rank entry-time offsets.

When every rank of a world-covering communicator enters a collective at
the *same* timestep (the all-zero offset vector — the only vector this
implementation replays) and the job is quiescent, the dispatch is not
simulated at all.  Instead its record is applied in O(nranks): one
pre-triggered wake event per rank at ``entry + delta``, bulk counter
increments, and the recorded span slice re-emitted time-shifted with a
``replayed`` tag.  A record stores one copy of each distinct per-rank
result (every rank of an allgather shares one), and each rank's own
copy of its result is built only when that rank resumes.  Virtual-time
latencies, traffic accounting and span streams are bit-identical to
normal execution (the equivalence suite asserts this); only the
processed-event count drops — that is the point.

Recording — the live second occurrence
--------------------------------------
The *first* occurrence of each dispatch shape in a job always executes
live: one-off lazy setup (hierarchy sub-communicators, shared windows,
per-comm caches) must happen in the live job exactly as it would with
replay off, so first-occurrence cost — which includes that setup —
stays bit-identical.  The *second* quiescent, simultaneous occurrence
also runs live, inside a measurement window (:class:`_MeasureState`)
that opens at the simultaneous release.  Each rank reports when its
dispatch returns — its tick delta, result and profile increments (read
before ``Comm._collective`` adds its own top-level entry, which replay
re-adds on the way out).  The last report closes the window with the
counter and per-pair traffic increments and the span slice since the
release; together they form the record, which is cached and applies
from the third occurrence on.  Because scheduled delays are
translation-invariant on the engine's tick grid, those deltas replay
bit-identically from any later quiescent entry at any absolute time.
Records are cached process-globally, so repetitions across jobs in one
process (the sweep service, parameter sweeps) record only once per
dispatch shape.

The window must contain the dispatch and nothing else.  It is
*tainted* when, before the last rank reports, a rank that has already
reported posts p2p, opens a span, spawns a non-blocking collective,
takes an RMA lock, makes a one-sided transfer or enters another
dispatch: the global increments would then include traffic that is
not the dispatch's.  Dispatches nested in the measured one (a hybrid
op's node-level collective on a single node) run straight through,
unparked.  When every rank reports in the same timestep, any change of
the counters between the first and the last report also taints the
window — that covers traffic no entry point reports, such as a
program's direct ``Machine.memory_copy``.  A tainted window caches
nothing and counts in ``STATS["tainted"]``; after ``_UNUSABLE_LIMIT``
windows that produced no usable record the shape runs live without
measurement.  The default mode only caches uniform-exit records, so
its windows are fully checked; loop mode relies on its align
discipline to keep the longer windows of non-uniform exits clean of
such unreported traffic.

Safety — quiescence and fall-through
------------------------------------
Replay is gated by a quiescence predicate evaluated when all ranks have
parked: no unmatched p2p sends/receives, no outstanding non-blocking
``CollRequest`` (:func:`~repro.mpi.nonblocking.spawn_collective`
maintains the counter), no busy or contended RMA window lock, no live
engine process besides the parked rank programs, and no open trace span.
Anything else — ranks arriving at different timesteps, non-replayable
payloads (real ndarrays), permuted communicators, unknown sync policies
— falls through to normal execution, released *at the entry timestep*,
so misses are unconditionally undistorted.

``REPRO_REPLAY_VERIFY=1`` executes every hit live under a measurement
window and compares the record it builds with the cached one field by
field: per-rank latencies, exit order, results and profile increments
always; counter and traffic deltas and the (shift-normalized) span
slice when the window is clean.
"""

from __future__ import annotations

from dataclasses import astuple
from typing import Any, Callable

from repro.mpi.datatypes import Bytes
from repro.mpi.profiler import OpStats
from repro.simulator.engine import (
    _INV_TICK,
    _TRIGGERED,
    ENGINE_VERSION,
    TICK,
    Event,
)

__all__ = [
    "ReplaySession",
    "ReplayVerifyError",
    "payload_signature",
    "sync_signature",
    "signature_vector",
    "replay_key",
    "cache_stats",
    "clear_cache",
]


class ReplayVerifyError(AssertionError):
    """A replay record disagreed with live execution (verify mode)."""


# ---------------------------------------------------------------------------
# Process-global record cache
# ---------------------------------------------------------------------------

#: FIFO-capped record cache shared by every job in the process (the
#: sweep service's workers warm it across requests).
_CACHE: dict[Any, "_Record"] = {}
_CACHE_CAP = 4096

#: Per-shape budget of measurement windows that produced no usable
#: record (tainted, or non-uniform exits in the default mode): once a
#: dispatch shape has spent it, the session stops measuring that shape
#: and runs it live.
_UNUSABLE_LIMIT = 3

#: Process-lifetime counters (exposed by the sweep service ``/stats``).
STATS = {"hits": 0, "misses": 0, "records": 0, "evictions": 0,
         "tainted": 0}


def cache_stats() -> dict:
    """Snapshot of the process-global replay cache counters."""
    return dict(STATS, entries=len(_CACHE))


def clear_cache() -> None:
    """Drop all cached records (counters are kept — they are
    process-lifetime)."""
    _CACHE.clear()


def _cache_put(key: Any, rec: "_Record") -> None:
    if len(_CACHE) >= _CACHE_CAP:
        _CACHE.pop(next(iter(_CACHE)))
        STATS["evictions"] += 1
    _CACHE[key] = rec
    STATS["records"] += 1


# ---------------------------------------------------------------------------
# Keying
# ---------------------------------------------------------------------------

def payload_signature(payload: Any):
    """Replay-safe signature of one rank's payload, or None.

    Size-only payloads (:class:`Bytes`, None, lists thereof) fully
    determine simulated cost; anything carrying data (ndarrays) returns
    None and vetoes replay for the whole dispatch.
    """
    if payload is None:
        return ("none",)
    if isinstance(payload, Bytes):
        return ("b", payload.nbytes)
    if isinstance(payload, (list, tuple)):
        sizes = []
        for p in payload:
            if isinstance(p, Bytes):
                sizes.append(p.nbytes)
            elif p is None:
                sizes.append(-1)
            else:
                return None
        return ("lb", tuple(sizes))
    return None


#: The two modelled sync policy classes, bound on first use
#: (:mod:`repro.core` imports this module, so importing them at load
#: time would be circular).
_sync_classes: tuple[type, type] | None = None


def sync_signature(sync: Any):
    """Keyable descriptor of an on-node sync policy, or None.

    Only the two modelled policies are replayable; a user-defined
    subclass could carry hidden state the signature cannot capture, so
    it vetoes replay.
    """
    global _sync_classes
    if _sync_classes is None:
        from repro.core.sync import BarrierSync, FlagSync

        _sync_classes = (BarrierSync, FlagSync)
    barrier, flags = _sync_classes
    if type(sync) is barrier:
        return ("barrier",)
    if type(sync) is flags:
        return ("flags", sync.flag_latency)
    return None


class _Uniform:
    """Marker of a collapsed signature vector; equal only to itself."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "UNIFORM"


_UNIFORM = _Uniform()


def signature_vector(sigs: list) -> tuple:
    """The key form of the per-rank signatures *sigs* (rank order).

    When every rank's signature equals rank 0's — every repetition of a
    benchmark loop — the vector collapses to ``(UNIFORM, sig0)``, so
    hashing and comparing it costs one signature, not n.  A non-uniform
    vector stays the full tuple.  No signature equals the marker, so a
    collapsed vector never equals an uncollapsed one.  Signatures that
    share their large parts (a hybrid op's slot-size tuple is one
    object per communicator) compare by identity.
    """
    s0 = sigs[0]
    for s in sigs:
        if s is not s0 and s != s0:
            return tuple(sigs)
    return (_UNIFORM, s0)


def replay_key(prefix: tuple, op: str, sigs: tuple, offsets: tuple,
               order: tuple = ()) -> tuple:
    """The full cache key of one dispatch.

    *sigs* is the per-rank signature vector in key form
    (:func:`signature_vector`).

    *offsets* is the vector of per-rank entry-time offsets in ticks
    relative to the earliest rank.  The runtime only ever replays the
    all-zero vector (simultaneous entry), but the key is sensitive to it
    by construction — staggered entries must never alias aligned ones.

    *order* is the intra-timestep arrival permutation (ranks in the
    order their entry events processed).  Even from a simultaneous
    entry, order-sensitive resource queues (links, memory channels)
    grant in first-come order, so two aligned entries with different
    arrival permutations assign the contention tail to different ranks;
    they must never share a record.
    """
    return (prefix, op, tuple(sigs), tuple(offsets), tuple(order))


def job_prefix(job) -> tuple:
    """Everything outside the dispatch itself that determines its cost."""
    placement = job.placement
    n = placement.num_ranks
    machine = job.machine
    return (
        ENGINE_VERSION,
        job.spec.fingerprint(),
        n,
        placement.socket_mode,
        tuple(placement.node_of(r) for r in range(n)),
        tuple(machine.socket_of(r) for r in range(n)),
        astuple(job.tuning),
        type(job.policy).__name__,
        job.policy.describe(),
        job.link_contention,
        job.fast_path,
        None if job.tracer is None
        else (job.tracer.detail, job.tracer.compute),
    )


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

class _Record:
    """Outcome of one dispatch from a quiescent simultaneous entry."""

    __slots__ = (
        "d_ticks", "results", "counters", "per_pair", "max_hops",
        "templates", "events", "exit_order", "profiles",
    )

    def __init__(self, d_ticks, results, counters, per_pair, max_hops,
                 templates, events, exit_order, profiles):
        self.d_ticks = d_ticks        # per-rank duration in whole ticks
        self.results = results        # per-rank return values
        self.counters = counters      # bulk counter deltas (see _counters)
        self.per_pair = per_pair      # {(src,dst): (d_count, d_bytes)}
        self.max_hops = max_hops      # longest route in per_pair
        self.templates = templates    # span templates (t as relative ticks)
        self.events = events          # engine events one live execution costs
        self.exit_order = exit_order  # ranks in exit-event processing order
        #: ``(rank, ((op, dcalls, dbytes, dtime), ...))`` in rank order,
        #: for the ranks whose profile changed only.
        self.profiles = profiles

    def result_for(self, rank: int):
        """*rank*'s result, as a fresh object when it is mutable (ranks
        with equal results share one stored object)."""
        v = self.results[rank]
        # Lists are handed to callers who may mutate them; Bytes/None are
        # value-semantic and safe to share.
        return list(v) if type(v) is list else v


#: Record fields each rank reports for itself; verify compares them on
#: every window.
_RANK_FIELDS = ("d_ticks", "exit_order", "results", "profiles")
#: Record fields taken from the whole window; verify compares them only
#: on clean windows.  ``events`` is the record's price, not an outcome.
_WINDOW_FIELDS = ("counters", "per_pair", "max_hops", "templates")


def _counters(job) -> tuple:
    """Bulk traffic counters of *job*, for window deltas."""
    net = job.machine.network.stats
    return (job.msg_engine.sent_messages, job.msg_engine.sent_bytes,
            job.machine.intra_copies, job.machine.intra_bytes,
            net.messages, net.bytes, net.rendezvous_messages)


def _per_pair_delta(end: dict, base: dict) -> dict:
    out = {}
    for pair, (c, b) in end.items():
        c0, b0 = base.get(pair, (0, 0.0))
        if c != c0 or b != b0:
            out[pair] = (c - c0, b - b0)
    return out


_SPAN_DROP = ("sid", "parent", "replayed")


def _normalize(templates: list[dict]) -> list[dict]:
    """Span templates for comparison: span ids become slice positions."""
    sid_pos = {}
    out = []
    for i, tpl in enumerate(templates):
        d = {k: v for k, v in tpl.items() if k not in _SPAN_DROP}
        sid = tpl.get("sid")
        if sid is not None:
            sid_pos[sid] = i
            par = tpl.get("parent")
            d["_par"] = None if par is None else sid_pos.get(par)
        out.append(d)
    return out


class _Pending:
    """Per-(comm, sequence) parking state for one collective entry."""

    __slots__ = ("op", "arrivals", "seen", "decided")

    def __init__(self, op: str):
        self.op = op
        self.arrivals: dict[int, tuple[Any, Event]] = {}
        self.seen = 0
        self.decided: str | None = None


class _MeasureState:
    """The measurement window over one live, aligned, quiescent dispatch.

    Opens at the simultaneous release.  Every rank reports its tick
    delta, result and profile increments when its dispatch returns; the
    last report closes the window with the global increments (counters,
    per-pair traffic, span slice).  At the end of that timestep the
    window becomes a :class:`_Record`, which is cached (recording) or
    compared field by field with *expect*, the cached record (verify).
    """

    __slots__ = ("session", "op", "key", "wkey", "expect", "nranks",
                 "t0_ticks", "events0", "counters_base", "per_pair_base",
                 "trace_base", "prof_base", "d_ticks", "results",
                 "last_list", "profiles", "reported_at", "counters_first",
                 "counters", "per_pair", "templates", "tainted")

    def __init__(self, session: "ReplaySession", op: str, key, wkey,
                 expect: _Record | None):
        self.session = session
        self.op = op
        self.key = key
        self.wkey = wkey
        self.expect = expect
        self.nranks = session.world_size
        job = session.job
        self.t0_ticks = round(session.engine.now * _INV_TICK)
        # Exact here: the window opens inside a decision hook, and the
        # engine flushes its event count before running hooks.
        self.events0 = session.engine.event_count
        self.counters_base = _counters(job)
        self.per_pair_base = dict(job.machine.network.stats.per_pair)
        self.trace_base = (
            len(job.tracer.records) if job.tracer is not None else 0
        )
        self.prof_base = [
            {o: (s.calls, s.bytes, s.time)
             for o, s in ctx.profile.ops.items()}
            for ctx in job.contexts
        ]
        #: Insertion order is the live exit order (reports arrive as
        #: each rank's continuation processes).
        self.d_ticks: dict[int, int] = {}
        self.results: dict[int, Any] = {}
        #: The list result stored last; an equal one is stored as it.
        self.last_list: list | None = None
        #: Rank -> profile increments, for ranks whose profile changed.
        self.profiles: dict[int, tuple] = {}
        #: Rank -> trace length at its report (span-taint detection).
        self.reported_at: dict[int, int] = {}
        #: Counters at the first report (uniform-exit taint check).
        self.counters_first: tuple | None = None
        self.templates: list[dict] | None = None
        self.tainted = False
        session.window = job.msg_engine.window = self

    def note(self, rank: int) -> None:
        """*rank* acted outside the dispatch: taint the window if the
        rank already reported (before that, it is the dispatch)."""
        if rank in self.d_ticks:
            self.tainted = True

    def report(self, rank: int, d_ticks: int, result: Any) -> None:
        job = self.session.job
        if not self.d_ticks:
            self.counters_first = _counters(job)
        self.d_ticks[rank] = d_ticks
        if type(result) is list:
            # Ranks report in exit order and agree on an allgather's
            # result, so comparing with the last stored list finds the
            # sharing; list equality tests identity first, and the
            # members are one set of shared markers in cost-only mode.
            last = self.last_list
            if last is not None and result == last:
                result = last
            else:
                result = self.last_list = list(result)
        self.results[rank] = result
        # Every quantity on the tick grid at benchmark magnitudes sums
        # exactly in binary floating point, so plain deltas reproduce
        # live accumulation bit-for-bit.
        before = self.prof_base[rank]
        delta = []
        for o, s in job.contexts[rank].profile.ops.items():
            c0, b0, t0 = before.get(o, (0, 0.0, 0.0))
            if (s.calls, s.bytes, s.time) != (c0, b0, t0):
                delta.append((o, s.calls - c0, s.bytes - b0, s.time - t0))
        if delta:
            self.profiles[rank] = tuple(sorted(delta))
        if job.tracer is not None:
            self.reported_at[rank] = len(job.tracer.records)
        if len(self.d_ticks) == self.nranks:
            self._close()

    def _close(self) -> None:
        session = self.session
        job = session.job
        session.window = job.msg_engine.window = None
        end = _counters(job)
        if end != self.counters_first and len(set(self.d_ticks.values())) == 1:
            # Every rank reported in this one timestep, so nothing the
            # dispatch itself costs is left to post: any traffic since
            # the first report — direct machine copies and one-sided
            # transfers included, which bypass ``note`` — came from a
            # rank that had already left.
            self.tainted = True
        self.counters = tuple(
            a - b for a, b in zip(end, self.counters_base)
        )
        self.per_pair = _per_pair_delta(
            job.machine.network.stats.per_pair, self.per_pair_base
        )
        if job.tracer is not None:
            self.templates = self._slice(job.tracer.records)
        # The engine flushes its event count only between timesteps, so
        # the record is priced — and raises verify failures raw from
        # ``Engine.run`` rather than inside a rank — once this timestep
        # has been processed.
        session.engine.on_time_advance(self._finish)

    def _slice(self, records: list[dict]) -> list[dict]:
        """Span templates of the window (times as ticks relative to the
        release).  A record logged by a rank after its report, or a
        span left open, taints the window."""
        reported_at = self.reported_at
        templates = []
        for i in range(self.trace_base, len(records)):
            tpl = dict(records[i])
            at = reported_at.get(tpl.get("rank"))
            if (at is not None and i >= at) or (
                "sid" in tpl and tpl["dur"] is None
            ):
                self.tainted = True
            tpl["_tt"] = round(tpl.pop("t") * _INV_TICK) - self.t0_ticks
            templates.append(tpl)
        return templates

    def _finish(self) -> None:
        session = self.session
        n = self.nranks
        topology = session.job.machine.network.topology
        rec = _Record(
            tuple(self.d_ticks[r] for r in range(n)),
            tuple(self.results[r] for r in range(n)),
            self.counters,
            self.per_pair,
            max((topology.hops(s, d) for s, d in self.per_pair),
                default=0),
            self.templates,
            # The n release wakes are parking overhead, not dispatch.
            session.engine.event_count - self.events0 - n,
            tuple(self.d_ticks),
            tuple(sorted(self.profiles.items())),
        )
        if self.tainted:
            STATS["tainted"] += 1
        if self.expect is not None:
            self._verify(rec)
        elif not self.tainted and (
            session.loop or len(set(rec.d_ticks)) == 1
        ):
            _cache_put(self.key, rec)
        else:
            session._unusable[self.wkey] = (
                session._unusable.get(self.wkey, 0) + 1
            )

    def _verify(self, live: _Record) -> None:
        fields = _RANK_FIELDS if self.tainted else (
            _RANK_FIELDS + _WINDOW_FIELDS
        )
        for name in fields:
            recorded = getattr(self.expect, name)
            got = getattr(live, name)
            if name == "templates" and recorded is not None:
                recorded, got = _normalize(recorded), _normalize(got)
            if recorded != got:
                raise ReplayVerifyError(
                    f"replay verify failed for {self.op!r}: {name}: "
                    f"recorded {recorded!r} != live {got!r}"
                )


# ---------------------------------------------------------------------------
# The session
# ---------------------------------------------------------------------------

class ReplaySession:
    """Per-job replay state: parking, decision, recording, application.

    Created by :class:`~repro.mpi.runtime.MPIJob` when replay is enabled
    and structurally possible (symbolic payload mode, no noise model).
    """

    def __init__(self, job, verify: bool = False, loop: bool = False):
        self.job = job
        self.engine = job.engine
        self.verify = verify
        #: Loop mode: apply records whose ranks exit at *different*
        #: timesteps.  While such a replay's window [entry, last exit]
        #: passes, the simulator's resources sit idle even though the
        #: recorded execution kept them busy — so any live op released
        #: inside the window would see contention-free resources and
        #: diverge from unreplayed execution.  Parking (an align gate or
        #: an eligible dispatch entry) is the only activity that can
        #: safely overlap a window; loop mode is therefore reserved for
        #: align-disciplined programs (the benchmark harnesses), whose
        #: ranks go straight from each collective into ``Comm.align()``.
        #: The default mode only applies uniform-exit records — an
        #: atomic time jump with an empty window, exact for arbitrary
        #: programs because their recording windows are fully checked.
        self.loop = loop
        self.world_size = job.placement.num_ranks
        self.hits = 0
        self.misses = 0
        self.events_saved = 0
        #: Outstanding non-blocking collectives (any rank) — maintained
        #: by :func:`repro.mpi.nonblocking.spawn_collective`.
        self.pending_icolls = 0
        #: RMA window states registered by ``win_allocate`` for the
        #: lock-idle quiescence check.
        self.rma_windows: list[Any] = []
        #: The open measurement window, if any.  At most one is open: it
        #: closes when its last rank reports, before every rank can park
        #: at another world dispatch.
        self.window: _MeasureState | None = None
        self._identity = tuple(range(self.world_size))
        #: Dispatch shapes ``(op, sigs)`` that have executed live at
        #: least once in this job — replay only applies after that.
        self._warm: set[tuple] = set()
        self._unusable: dict[tuple, int] = {}
        self._idok: dict[int, bool] = {}
        self._seq: dict[tuple[int, int], int] = {}
        self._pending: dict[tuple[int, int], _Pending] = {}
        self._prefix: tuple | None = None

    @property
    def prefix(self) -> tuple:
        if self._prefix is None:
            self._prefix = job_prefix(self.job)
        return self._prefix

    def note(self, world_rank: int) -> None:
        """*world_rank* spawns a non-blocking collective, takes an RMA
        lock or makes a one-sided transfer: taints an open window if
        that rank already reported."""
        if self.window is not None:
            self.window.note(world_rank)

    # -- entry ----------------------------------------------------------
    def run(self, comm, op: str, sig, inner: Callable[[], Any]):
        """Coroutine: route one dispatch through the replay layer.

        *inner* builds the normal execution coroutine; *sig* is this
        rank's payload/shape signature (None vetoes — the decision is
        still collective, so every rank parks either way).
        """
        window = self.window
        if window is not None:
            if comm._ctx.world_rank not in window.d_ticks:
                # Nested in the measured dispatch (a hybrid op's
                # node-level collective on a single node): part of the
                # window, so it runs straight through, unparked, as it
                # does with replay off.
                result = yield from inner()
                return result
            window.tainted = True
        n = self.world_size
        if comm.size != n or not self._identity_group(comm):
            result = yield from inner()
            return result
        eng = self.engine
        skey = (comm._shared.id, comm.rank)
        seq = self._seq.get(skey, 0) + 1
        self._seq[skey] = seq
        pkey = (comm._shared.id, seq)
        pend = self._pending.get(pkey)
        if pend is None:
            pend = self._pending[pkey] = _Pending(op)
            eng.on_time_advance(lambda: self._decide(pkey))
        pend.seen += 1
        if pend.decided is not None:
            # Earlier ranks were already released for live execution;
            # this rank arrived at a later timestep and runs directly.
            if pend.seen == n:
                self._pending.pop(pkey, None)
            result = yield from inner()
            return result
        ev = Event(eng, "replay.park")
        pend.arrivals[comm.rank] = (sig, ev)
        verdict, value = yield ev
        if verdict == "done":
            return value.result_for(comm.rank)
        result = yield from inner()
        if verdict == "measure":
            value.report(
                comm.rank, round(eng.now * _INV_TICK) - value.t0_ticks,
                result,
            )
        return result

    def _identity_group(self, comm) -> bool:
        ok = self._idok.get(comm._shared.id)
        if ok is None:
            ok = tuple(comm.group.world_ranks()) == self._identity
            self._idok[comm._shared.id] = ok
        return ok

    # -- decision -------------------------------------------------------
    def _decide(self, pkey) -> None:
        pend = self._pending.get(pkey)
        if pend is None or pend.decided is not None:
            return
        n = self.world_size
        if len(pend.arrivals) < n:
            # Staggered entry: release the parked ranks in the same
            # timestep they arrived — zero virtual-time distortion.
            self._release(pend, "live", None)
            return
        self._pending.pop(pkey, None)
        sigs = signature_vector([pend.arrivals[r][0] for r in range(n)])
        if (any(s is None for s in sigs) or self.window is not None
                or not self.quiescent()):
            # An open window here was tainted by this dispatch's entry.
            self._release(pend, "live", None)
            return
        wkey = (pend.op, sigs)
        if wkey not in self._warm:
            # First execution of this dispatch shape in the job: run it
            # live so one-off lazy setup (sub-comms, windows, caches)
            # lands in the live job exactly as it would with replay off.
            self._warm.add(wkey)
            self._miss(pend)
            return
        order = tuple(pend.arrivals)
        key = replay_key(self.prefix, pend.op, sigs, (0,) * n, order)
        rec = _CACHE.get(key)
        if rec is None:
            if self._unusable.get(wkey, 0) >= _UNUSABLE_LIMIT:
                # This shape keeps producing windows this mode cannot
                # use (taint, non-uniform exits in the default mode, a
                # rotating entry permutation): stop measuring it.
                self._miss(pend)
            else:
                self._miss(pend, _MeasureState(self, pend.op, key, wkey,
                                               None))
            return
        if not self.loop and any(d != rec.d_ticks[0] for d in rec.d_ticks):
            # A loop-mode record: its exits are not uniform.
            self._miss(pend)
            return
        self.hits += 1
        STATS["hits"] += 1
        if self.verify:
            self._release(
                pend, "measure",
                _MeasureState(self, pend.op, key, wkey, rec),
            )
        else:
            self._apply(rec, pend)

    def _miss(self, pend: _Pending, window: _MeasureState | None = None
              ) -> None:
        """Run *pend* live, measured when *window* is given."""
        self.misses += 1
        STATS["misses"] += 1
        if window is None:
            self._release(pend, "live", None)
        else:
            self._release(pend, "measure", window)

    def _release(self, pend: _Pending, verdict: str, value) -> None:
        # Arrival order (dict insertion order), NOT rank order: released
        # ranks re-execute their entry actions in the same relative
        # order they would have run unparked, so order-sensitive
        # resource queues (links, memory channels) grant identically.
        pend.decided = verdict
        for _sig, ev in pend.arrivals.values():
            ev.succeed((verdict, value))

    def quiescent(self) -> bool:
        """True when replay cannot interact with anything in flight."""
        if self.pending_icolls:
            return False
        eng = self.engine
        # Only the parked rank programs may be live: an in-flight message
        # transfer, delivery, or background process vetoes.
        if len(eng._live_processes) != self.world_size:
            return False
        if self.job.msg_engine.pending_total:
            return False
        for shared in self.rma_windows:
            for lock in shared.locks:
                if lock.in_use or lock.queued:
                    return False
        tracer = self.job.tracer
        if tracer is not None:
            # An open span would become the replayed slice's silent
            # parent; the recorded parents would no longer match.
            for stack in tracer._open.values():
                if stack:
                    return False
        return True

    # -- application ----------------------------------------------------
    def _apply(self, rec: _Record, pend: _Pending) -> None:
        eng = self.engine
        job = self.job
        base_ticks = eng.now * _INV_TICK
        me = job.msg_engine
        mach = job.machine
        net = mach.network.stats
        dm, db, dic, dib, dnm, dnb, drv = rec.counters
        me.sent_messages += dm
        me.sent_bytes += db
        mach.intra_copies += dic
        mach.intra_bytes += dib
        net.messages += dnm
        net.bytes += dnb
        net.rendezvous_messages += drv
        if rec.max_hops > net.max_hops:
            net.max_hops = rec.max_hops
        for pair, (dc, dby) in rec.per_pair.items():
            cur = net.per_pair.get(pair)
            net.per_pair[pair] = (
                (dc, dby) if cur is None else (cur[0] + dc, cur[1] + dby)
            )
        if job.tracer is not None and rec.templates is not None:
            job.tracer.emit_replayed(rec.templates, base_ticks)
        for rank, delta in rec.profiles:
            prof = job.contexts[rank].profile
            if not prof.enabled:
                continue
            for o, dc, dby, dt in delta:
                stats = prof.ops.get(o)
                if stats is None:
                    stats = prof.ops[o] = OpStats()
                stats.calls += dc
                stats.bytes += dby
                stats.time += dt
        # Relative to replay-off execution: the dispatch would have cost
        # rec.events; replay costs the n wake events below instead.
        self.events_saved += rec.events - self.world_size
        # Push wakes in recorded exit order: ranks leaving at the same
        # tick resume in the same relative order as live execution, so
        # the *next* dispatch sees an identical entry permutation.  Each
        # rank takes its result from the record when it resumes.
        done = ("done", rec)
        for rank in rec.exit_order:
            ev = pend.arrivals[rank][1]
            # Mimic Engine.timeout(): pre-trigger and schedule at the
            # recorded wake time — one event per rank, O(nranks) total.
            ev._state = _TRIGGERED
            ev._value = done
            eng._push((base_ticks + rec.d_ticks[rank]) * TICK, ev)
