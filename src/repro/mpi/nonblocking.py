"""Non-blocking collectives: request handles and completion helpers.

An ``I``-prefixed collective (``Comm.iallgather``, ``Comm.ibcast``,
``HybridContext.iallgather``, ...) posts the operation as a *background
process* of the simulation engine and returns a :class:`CollRequest`.
The discrete-event engine interleaves all live processes, so a pending
collective makes progress whenever the issuing rank is suspended — in a
compute delay (``yield mpi.compute(...)``), in another collective, or in
a p2p wait.  This models an MPI library with perfect asynchronous
progress (a progress thread): no further library calls are needed for
the operation to advance.

Ordering rules (the MPI ones, enforced only by construction here):

* all ranks must issue non-blocking collectives on one communicator in
  the same order (matching is by issue-order tags);
* a communicator (including the shm/bridge children of a hybrid
  context) should have at most one collective in flight at a time —
  internal sub-collectives of a composite algorithm draw their tags when
  the background process runs, so two in-flight composites on the *same*
  communicator could mismatch.

Completion uses the p2p :class:`~repro.mpi.p2p.Request` machinery
unchanged: the background :class:`~repro.simulator.engine.Process` *is*
an event, so ``yield req.event``, :meth:`~repro.mpi.comm.Comm.waitall`,
:meth:`~repro.mpi.comm.Comm.waitany` and friends all apply.

Tracing: the background process runs in its own tracer *context* (see
:meth:`repro.trace.Tracer.run_in_context`), so its dispatch/phase spans
nest among themselves — covering issue to completion — and never
corrupt the span stack of the rank program that issued them.
"""

from __future__ import annotations

from typing import Any

from repro.mpi.p2p import Request

__all__ = ["CollRequest", "spawn_collective"]


class CollRequest(Request):
    """Handle for a non-blocking collective.

    The wrapped event is the background :class:`Process` running the
    collective; its value is the collective's return value (e.g. the
    gathered list for ``iallgather``).

    >>> from repro.simulator import Engine, Event
    >>> eng = Engine()
    >>> ev = Event(eng, name="coll")
    >>> req = CollRequest(ev, "iallgather")
    >>> req.test()
    False
    >>> _ = ev.succeed(["a", "b"])
    >>> req.test()
    True
    >>> req
    <CollRequest iallgather complete=True>
    """

    __slots__ = ("op",)

    def __init__(self, event: Any, op: str):
        super().__init__(event, op)
        self.op = op

    def wait(self):
        """Coroutine: suspend until completion; returns the result."""
        value = yield self.event
        return value

    def test(self) -> bool:
        """True once the collective has completed (never blocks)."""
        return self.complete

    def __repr__(self) -> str:
        return f"<CollRequest {self.op} complete={self.complete}>"


def spawn_collective(comm, op: str, gen) -> CollRequest:
    """Post *gen* (a collective coroutine over *comm*) as a background
    process and return its :class:`CollRequest`.

    When the job traces, the generator is driven inside a fresh tracer
    context so its spans form their own tree (issue → completion) and
    concurrent spans of the issuing rank program keep correct nesting.
    """
    ctx = comm.ctx
    sess = ctx.job.replay
    if sess is not None:
        # Replay eligibility veto: while any non-blocking collective is
        # outstanding the engine is not quiescent, so parked dispatches
        # fall through to normal execution; a spawn by a rank that
        # already left a measured dispatch taints its window.
        sess.note(ctx.world_rank)
        gen = _counted(sess, gen)
    tracer = ctx.trace
    if tracer is not None:
        gen = tracer.run_in_context(ctx.world_rank, gen)
    proc = ctx.engine.spawn(gen, name=f"{comm.name}.{op}@r{comm.rank}")
    return CollRequest(proc, op)


def _counted(sess, gen):
    """Wrap *gen* so the replay session sees it as in-flight."""
    sess.pending_icolls += 1
    try:
        result = yield from gen
    finally:
        sess.pending_icolls -= 1
    return result
