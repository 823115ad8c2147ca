"""Collective dispatch: registry-backed runtime algorithm selection.

Each ``dispatch_*`` coroutine is the entry point :class:`repro.mpi.comm.Comm`
calls.  It charges the per-call software overhead, builds a
:class:`~repro.mpi.collectives.registry.CollRequest`, asks the rank's
:class:`~repro.mpi.collectives.registry.SelectionPolicy` (default: the
MPICH-style :class:`TableSelection` decision tables over the
:class:`~repro.mpi.collectives.tuning.CollectiveTuning` personality) for
an algorithm descriptor, and runs it.

Every dispatch records the decision — operation, algorithm, policy,
bytes — in ``ctx.trace`` (when tracing is enabled) so tests can assert
the decision table.
"""

from __future__ import annotations

from typing import Any

from repro.mpi.collectives import registry
from repro.mpi.collectives.registry import (
    CollRequest,
    _vector_overhead,
    policy_of,
    trace_begin,
    trace_end,
)
from repro.mpi.constants import ReduceOp
from repro.mpi.datatypes import nbytes_of

__all__ = [
    "dispatch_allgather",
    "dispatch_exscan",
    "dispatch_reduce_scatter",
    "dispatch_allgatherv",
    "dispatch_alltoall",
    "dispatch_barrier",
    "dispatch_bcast",
    "dispatch_gather",
    "dispatch_reduce",
    "dispatch_allreduce",
    "dispatch_scan",
    "dispatch_scatter",
    "registry",
]

def _overhead(comm):
    tuning = comm.ctx.tuning
    if tuning.call_overhead > 0:
        yield comm.ctx.engine.timeout(tuning.call_overhead)


def _select(comm, req: CollRequest):
    """Pick the algorithm for *req* and open its dispatch span.

    Returns ``(algorithm, span)``; the dispatcher closes the span with
    :func:`~repro.mpi.collectives.registry.trace_end` once the algorithm
    ran, so the trace records a duration (start + elapsed virtual time)
    per call rather than an instant."""
    policy = policy_of(comm)
    algo = policy.select(comm, req)
    span = trace_begin(comm, req.op, algo.name, req.total, policy.name)
    return algo, span


# ---------------------------------------------------------------------------
# allgather family
# ---------------------------------------------------------------------------

def _run_allgather(comm, payload: Any, tag: int):
    """Regular allgather; returns the per-rank payload list."""
    yield from _overhead(comm)
    if comm.size == 1:
        return [payload]
    total = nbytes_of(payload) * comm.size
    algo, span = _select(
        comm, CollRequest(op="allgather", nbytes=nbytes_of(payload),
                          total=total)
    )
    result = yield from algo.fn(comm, payload, tag, total)
    trace_end(comm, span)
    return result.as_list(comm.size)


def _agree_total(comm, nbytes: int, tag: int):
    """Coroutine: total result size of an irregular collective.

    Models the fact that ``MPI_Allgatherv`` callers pass the full
    recvcounts array on every rank — the size knowledge is an argument,
    not something communicated; the gate costs zero virtual time.  The
    gate is keyed by the collective's issue-time tag so concurrent
    non-blocking collectives can never cross-match."""
    results = yield comm._shared.arrive(
        ("agv_total", tag), comm.rank, int(nbytes),
        lambda values: dict.fromkeys(values, sum(values.values())),
    )
    return results[comm.rank]


def _run_allgatherv(comm, payload: Any, tag: int, total: int):
    """Irregular allgather; returns the per-rank payload list.

    *total* is the agreed full result size: :meth:`Comm.allgatherv` runs
    the size-agreement gate (:func:`_agree_total`) itself so the
    profiler can charge the actual summed bytes."""
    yield from _overhead(comm)
    yield from _vector_overhead(comm, comm.size)
    if comm.size == 1:
        return [payload]
    algo, span = _select(
        comm, CollRequest(op="allgatherv", nbytes=nbytes_of(payload),
                          total=total)
    )
    result = yield from algo.fn(comm, payload, tag, total)
    trace_end(comm, span)
    return result.as_list(comm.size)


# ---------------------------------------------------------------------------
# bcast
# ---------------------------------------------------------------------------

def _run_bcast(comm, payload: Any, root: int, tag: int):
    """Broadcast; returns the payload on every rank.

    MPI semantics: *every* rank supplies a payload of the message size
    (the root's carries the data; non-roots pass a same-sized receive
    buffer or :class:`~repro.mpi.datatypes.Bytes`), exactly as
    ``MPI_Bcast(buf, count, …)`` requires the count everywhere.  The
    algorithm choice is derived from that locally-known size.
    """
    yield from _overhead(comm)
    if comm.size == 1:
        return payload
    nbytes = nbytes_of(payload)
    recvbuf = payload if comm.rank != root else None
    algo, span = _select(
        comm, CollRequest(op="bcast", nbytes=nbytes, total=nbytes, root=root)
    )
    result = yield from algo.fn(comm, payload, root, tag)
    trace_end(comm, span)
    return _deliver_bcast(recvbuf, result)


def _deliver_bcast(recvbuf: Any, result: Any) -> Any:
    """Copy a broadcast result into the caller's receive buffer."""
    import numpy as np

    from repro.mpi.datatypes import copy_into

    if isinstance(recvbuf, np.ndarray) and isinstance(result, np.ndarray):
        if recvbuf is not result:
            copy_into(recvbuf, result.reshape(-1))
        return recvbuf
    return result


# ---------------------------------------------------------------------------
# gather / scatter
# ---------------------------------------------------------------------------

def _run_gather(comm, payload: Any, root: int, tag: int,
                    irregular: bool = False):
    """Gather to *root*; returns the ordered payload list there."""
    yield from _overhead(comm)
    if irregular:
        yield from _vector_overhead(comm, comm.size)
    if comm.size == 1:
        return [payload]
    nbytes = nbytes_of(payload)
    algo, span = _select(
        comm, CollRequest(op="gatherv" if irregular else "gather",
                          nbytes=nbytes, total=nbytes, root=root)
    )
    result = yield from algo.fn(comm, payload, root, tag)
    trace_end(comm, span)
    if result is None:
        return None
    return result.as_list(comm.size)


def _run_scatter(comm, payloads: list[Any] | None, root: int, tag: int):
    """Scatter from *root*; returns this rank's payload."""
    yield from _overhead(comm)
    if comm.size == 1:
        if payloads is None or len(payloads) != 1:
            raise ValueError("root must supply one payload per rank")
        return payloads[0]
    # Selection must be rank-uniform and only the root holds the payload
    # list, so the request is size-independent (as in the old table).
    algo, span = _select(
        comm, CollRequest(op="scatter", nbytes=0, total=0, root=root)
    )
    result = yield from algo.fn(comm, payloads, root, tag)
    trace_end(comm, span)
    return result


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _run_reduce(comm, payload: Any, op: ReduceOp, root: int, tag: int):
    """Reduce to *root*."""
    yield from _overhead(comm)
    if comm.size == 1:
        return payload
    nbytes = nbytes_of(payload)
    algo, span = _select(
        comm, CollRequest(op="reduce", nbytes=nbytes, total=nbytes, root=root)
    )
    result = yield from algo.fn(comm, payload, op, root, tag)
    trace_end(comm, span)
    return result


def _run_allreduce(comm, payload: Any, op: ReduceOp, tag: int):
    """Allreduce on every rank."""
    yield from _overhead(comm)
    if comm.size == 1:
        return payload
    nbytes = nbytes_of(payload)
    algo, span = _select(
        comm, CollRequest(op="allreduce", nbytes=nbytes, total=nbytes)
    )
    result = yield from algo.fn(comm, payload, op, tag)
    trace_end(comm, span)
    return result


def _run_scan(comm, payload: Any, op: ReduceOp, tag: int):
    """Inclusive prefix scan: linear chain for tiny comms, log-round
    doubling otherwise."""
    yield from _overhead(comm)
    if comm.size == 1:
        return payload
    nbytes = nbytes_of(payload)
    algo, span = _select(
        comm, CollRequest(op="scan", nbytes=nbytes, total=nbytes)
    )
    result = yield from algo.fn(comm, payload, op, tag)
    trace_end(comm, span)
    return result


def _run_exscan(comm, payload: Any, op: ReduceOp, tag: int):
    """Exclusive prefix scan (rank 0 receives None)."""
    yield from _overhead(comm)
    if comm.size == 1:
        return None
    nbytes = nbytes_of(payload)
    algo, span = _select(
        comm, CollRequest(op="exscan", nbytes=nbytes, total=nbytes)
    )
    result = yield from algo.fn(comm, payload, op, tag)
    trace_end(comm, span)
    return result


def _run_reduce_scatter(comm, payload: Any, op: ReduceOp, tag: int):
    """Block reduce-scatter: rank i receives the reduction of block i."""
    yield from _overhead(comm)
    if comm.size == 1:
        return payload
    nbytes = nbytes_of(payload)
    algo, span = _select(
        comm, CollRequest(op="reduce_scatter", nbytes=nbytes, total=nbytes)
    )
    result = yield from algo.fn(comm, payload, op, tag)
    trace_end(comm, span)
    return result


# ---------------------------------------------------------------------------
# barrier / alltoall
# ---------------------------------------------------------------------------

def _run_barrier(comm, tag: int):
    """Barrier: shm-flag tree on one node, hierarchical across nodes,
    dissemination otherwise.  (The flat dissemination runner charges the
    per-call software overhead; the shm paths model cheaper entry.)"""
    if comm.size == 1:
        return
    algo, span = _select(comm, CollRequest(op="barrier", nbytes=0, total=0))
    yield from algo.fn(comm, tag)
    trace_end(comm, span)


def _run_alltoall(comm, payloads: list[Any], tag: int):
    """All-to-all personalized exchange."""
    yield from _overhead(comm)
    if comm.size == 1:
        return [payloads[0]]
    per_pair = max(nbytes_of(p) for p in payloads)
    algo, span = _select(
        comm, CollRequest(op="alltoall", nbytes=per_pair, total=per_pair)
    )
    result = yield from algo.fn(comm, payloads, tag)
    trace_end(comm, span)
    return result


# ---------------------------------------------------------------------------
# Replay-aware entry points
# ---------------------------------------------------------------------------
# The public ``dispatch_*`` names wrap the ``_run_*`` bodies above with
# the macro-event replay layer (:mod:`repro.mpi.collectives.replay`):
# when the job carries a ReplaySession, world-covering dispatches park
# until the end of their entry timestep and — if all ranks arrived
# simultaneously on a quiescent engine — are replayed from the record
# cache in O(nranks) instead of simulated.  Everything else (no session,
# sub-communicators, staggered entries, non-replayable payloads) runs
# the body unchanged.  :func:`_dispatch` is the only router: the hybrid
# collectives of :class:`repro.core.HybridContext` go through it too.

from repro.mpi.collectives.replay import (  # noqa: E402
    payload_signature as _psig,
)


def _dispatch(comm, op, sig, inner):
    """Run the body ``inner()`` of one *op* call on *comm*, through the
    job's replay session when there is one (*sig* keys its cache)."""
    sess = comm.ctx.job.replay
    if sess is None:
        result = yield from inner()
        return result
    result = yield from sess.run(comm, op, sig, inner)
    return result


def _sig(kind: str, psig, *rest):
    # A None payload signature (data-carrying payload) vetoes the whole
    # dispatch; the session still parks so the veto is collective.
    return None if psig is None else (kind, psig) + rest


def dispatch_allgather(comm, payload: Any, tag: int):
    """Replay-aware :func:`_run_allgather`."""
    result = yield from _dispatch(
        comm, "allgather", _sig("ag", _psig(payload)),
        lambda: _run_allgather(comm, payload, tag),
    )
    return result


def dispatch_allgatherv(comm, payload: Any, tag: int, total: int):
    """Replay-aware :func:`_run_allgatherv`."""
    result = yield from _dispatch(
        comm, "allgatherv", _sig("agv", _psig(payload), total),
        lambda: _run_allgatherv(comm, payload, tag, total),
    )
    return result


def dispatch_bcast(comm, payload: Any, root: int, tag: int):
    """Replay-aware :func:`_run_bcast`."""
    result = yield from _dispatch(
        comm, "bcast", _sig("bc", _psig(payload), root),
        lambda: _run_bcast(comm, payload, root, tag),
    )
    return result


def dispatch_gather(comm, payload: Any, root: int, tag: int,
                    irregular: bool = False):
    """Replay-aware :func:`_run_gather`."""
    result = yield from _dispatch(
        comm, "gatherv" if irregular else "gather",
        _sig("ga", _psig(payload), root, irregular),
        lambda: _run_gather(comm, payload, root, tag, irregular),
    )
    return result


def dispatch_scatter(comm, payloads: list[Any] | None, root: int, tag: int):
    """Replay-aware :func:`_run_scatter`."""
    result = yield from _dispatch(
        comm, "scatter", _sig("sc", _psig(payloads), root),
        lambda: _run_scatter(comm, payloads, root, tag),
    )
    return result


def dispatch_reduce(comm, payload: Any, op: ReduceOp, root: int, tag: int):
    """Replay-aware :func:`_run_reduce`."""
    result = yield from _dispatch(
        comm, "reduce", _sig("rd", _psig(payload), op, root),
        lambda: _run_reduce(comm, payload, op, root, tag),
    )
    return result


def dispatch_allreduce(comm, payload: Any, op: ReduceOp, tag: int):
    """Replay-aware :func:`_run_allreduce`."""
    result = yield from _dispatch(
        comm, "allreduce", _sig("ar", _psig(payload), op),
        lambda: _run_allreduce(comm, payload, op, tag),
    )
    return result


def dispatch_scan(comm, payload: Any, op: ReduceOp, tag: int):
    """Replay-aware :func:`_run_scan`."""
    result = yield from _dispatch(
        comm, "scan", _sig("sn", _psig(payload), op),
        lambda: _run_scan(comm, payload, op, tag),
    )
    return result


def dispatch_exscan(comm, payload: Any, op: ReduceOp, tag: int):
    """Replay-aware :func:`_run_exscan`."""
    result = yield from _dispatch(
        comm, "exscan", _sig("ex", _psig(payload), op),
        lambda: _run_exscan(comm, payload, op, tag),
    )
    return result


def dispatch_reduce_scatter(comm, payload: Any, op: ReduceOp, tag: int):
    """Replay-aware :func:`_run_reduce_scatter`."""
    result = yield from _dispatch(
        comm, "reduce_scatter", _sig("rs", _psig(payload), op),
        lambda: _run_reduce_scatter(comm, payload, op, tag),
    )
    return result


def dispatch_barrier(comm, tag: int):
    """Replay-aware :func:`_run_barrier`."""
    result = yield from _dispatch(
        comm, "barrier", ("bar",),
        lambda: _run_barrier(comm, tag),
    )
    return result


def dispatch_alltoall(comm, payloads: list[Any], tag: int):
    """Replay-aware :func:`_run_alltoall`."""
    result = yield from _dispatch(
        comm, "alltoall", _sig("a2a", _psig(payloads)),
        lambda: _run_alltoall(comm, payloads, tag),
    )
    return result
