"""Point-to-point messaging: matching, protocols, and timing.

One :class:`MessageEngine` per job owns every in-flight message.  The
protocol model follows what MPICH/Open MPI/Cray MPI actually do:

**Inter-node**

* *eager* (``nbytes <= eager_threshold``): the sender injects immediately
  and completes once its NIC has serialized the message; delivery happens
  whether or not the receive is posted (unexpected-message queue).
* *rendezvous* (large): the transfer starts only after the matching
  receive is posted, costs an RTS/CTS handshake (one extra round trip),
  and both sides complete at transfer end.

**Intra-node** (the traffic hybrid MPI+MPI eliminates)

* *eager / CICO*: sender pays one latency hop plus a copy into the
  shared staging area (contended node memory), then completes; the
  receiver later pays the copy *out* of staging.  Two full copies total.
* *rendezvous / LMT single-copy*: for large messages both sides
  synchronize and a single direct copy moves the data.

Every payload is snapshotted at send time (value semantics), and receives
enforce buffer sizes (:class:`~repro.mpi.errors.TruncationError`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.machine.model import Machine
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.datatypes import clone, copy_into, nbytes_of, snapshot
from repro.mpi.errors import MPIError, TruncationError
from repro.simulator import AllOf, Engine, Event, Process

__all__ = ["MessageEngine", "Request", "Status"]


class Status:
    """Completion metadata of a receive (MPI_Status analogue).

    Value-semantics (eq/hash by field), like the frozen dataclass it
    replaces — the hand-written ``__slots__`` form skips the dataclass
    ``__setattr__`` round-trip on the one-per-delivery hot path.
    """

    __slots__ = ("source", "tag", "nbytes")

    def __init__(self, source: int, tag: int, nbytes: int):
        self.source = source  # comm rank of the sender
        self.tag = tag
        self.nbytes = nbytes

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Status)
            and other.source == self.source
            and other.tag == self.tag
            and other.nbytes == self.nbytes
        )

    def __hash__(self) -> int:
        return hash((self.source, self.tag, self.nbytes))

    def __repr__(self) -> str:
        return (
            f"Status(source={self.source}, tag={self.tag}, "
            f"nbytes={self.nbytes})"
        )


class Request:
    """Handle for a non-blocking operation.

    ``yield req.event`` (or :meth:`Comm.wait` / :meth:`Comm.waitall`)
    suspends until completion.  For receives, ``req.event``'s value is a
    ``(payload, Status)`` pair.
    """

    __slots__ = ("event", "kind")

    def __init__(self, event: Event, kind: str):
        self.event = event
        self.kind = kind

    @property
    def complete(self) -> bool:
        """True once the operation has finished."""
        return self.event.triggered

    def __repr__(self) -> str:
        return f"<Request {self.kind} complete={self.complete}>"


class _SendRec:
    __slots__ = (
        "src_world", "src_comm_rank", "dst_world", "tag", "payload",
        "nbytes", "eager", "intra", "node", "src_node", "dst_node",
        "matched", "arrived", "sender_done", "seq",
    )

    def __init__(self, src_world, src_comm_rank, dst_world, tag, payload,
                 nbytes, eager, intra, node, src_node, dst_node,
                 matched, arrived, sender_done, seq):
        self.src_world = src_world
        self.src_comm_rank = src_comm_rank
        self.dst_world = dst_world
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes
        self.eager = eager
        self.intra = intra
        self.node = node
        self.src_node = src_node
        self.dst_node = dst_node
        self.matched = matched
        self.arrived = arrived
        self.sender_done = sender_done
        self.seq = seq


class _RecvRec:
    __slots__ = ("source", "tag", "buf", "event", "seq", "posted",
                 "dst_world")

    def __init__(self, source: int, tag: int, buf: Any, event: Event,
                 seq: int, posted: float = 0.0, dst_world: int = -1):
        self.source = source
        self.tag = tag
        self.buf = buf
        self.event = event
        self.seq = seq
        self.posted = posted
        self.dst_world = dst_world


@dataclass
class _MatchQueue:
    """Per-(comm, destination) matching state."""

    pending_sends: deque = field(default_factory=deque)
    pending_recvs: deque = field(default_factory=deque)


class MessageEngine:
    """Owns message matching and transfer scheduling for one job.

    ``cost_only=True`` switches send-time value semantics from
    :func:`clone` (deep copy) to :func:`snapshot` (size-preserving,
    storage-free) — every byte count and therefore every virtual-time
    charge is unchanged, only Python-level copying is elided.
    """

    def __init__(self, engine: Engine, machine: Machine, tracer=None,
                 cost_only: bool = False):
        self.engine = engine
        self.machine = machine
        # At trace detail "p2p" the match step records receive queue
        # waits (time between posting a receive and the matching send).
        self.tracer = tracer if tracer is not None and tracer.wants("p2p") \
            else None
        self.cost_only = cost_only
        self._snapshot = snapshot if cost_only else clone
        self._queues: dict[tuple[int, int], _MatchQueue] = {}
        self._seq = 0
        self.sent_messages = 0
        self.sent_bytes = 0.0
        #: Unmatched sends + receives across all queues, maintained O(1)
        #: (the replay layer's quiescence predicate polls this on every
        #: parked dispatch; the per-queue scan of pending_counts() stays
        #: for diagnostics).
        self.pending_total = 0
        #: The replay layer's open measurement window, if any: p2p by a
        #: rank that already left the measured dispatch taints it.
        self.window = None
        # Hot-path caches (one attribute hop instead of three per send).
        self._eager_threshold = machine.spec.network.eager_threshold

    # ------------------------------------------------------------------
    def _queue(self, comm_id: int, dst_world: int) -> _MatchQueue:
        key = (comm_id, dst_world)
        q = self._queues.get(key)
        if q is None:
            q = self._queues[key] = _MatchQueue()
        return q

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- send ------------------------------------------------------------
    def post_send(
        self,
        comm_id: int,
        src_world: int,
        src_comm_rank: int,
        dst_world: int,
        payload: Any,
        tag: int,
    ) -> Event:
        """Post a send; returns the sender-completion event."""
        if self.window is not None:
            self.window.note(src_world)
        eng = self.engine
        # set by the runtime at job start
        node_of = self.machine._placement._node_of
        src_node = node_of[src_world]
        dst_node = node_of[dst_world]
        nbytes = nbytes_of(payload)
        self._seq += 1
        # Event/process names are static: per-message f-strings cost more
        # than the rest of the bookkeeping combined at paper scale, and
        # the records themselves carry the src/dst/seq for diagnostics.
        rec = _SendRec(
            src_world,
            src_comm_rank,
            dst_world,
            tag,
            self._snapshot(payload),
            nbytes,
            nbytes <= self._eager_threshold,
            src_node == dst_node,
            src_node,
            src_node,
            dst_node,
            Event(eng, "send.matched"),
            Event(eng, "send.arrived"),
            Event(eng, "send.done"),
            self._seq,
        )
        self.sent_messages += 1
        self.sent_bytes += nbytes
        key = (comm_id, dst_world)
        q = self._queues.get(key)
        if q is None:
            q = self._queues[key] = _MatchQueue()
        q.pending_sends.append(rec)
        self.pending_total += 1
        Process(eng, self._sender_process(rec), "msg.xfer")
        self._try_match(q)
        return rec.sender_done

    def _sender_process(self, rec: _SendRec):
        eng = self.engine
        machine = self.machine
        net = machine.network
        if rec.intra:
            if not machine.flat_intra:
                yield from self._intra_sender_transport(rec)
            elif rec.eager:
                # CICO copy-in: latency hop + contended copy into staging.
                # (memory_copy inlined: one copy = 2*nbytes through the
                # node memory system.)
                yield eng.pause(machine.spec.node.shm_latency)
                machine.intra_copies += 1
                machine.intra_bytes += rec.nbytes
                yield machine._memory[rec.node].transfer(2.0 * rec.nbytes)
                rec.sender_done.succeed()
                rec.arrived.succeed()
            else:
                # LMT single-copy: wait for the receive, then copy once.
                yield rec.matched
                yield eng.pause(machine.spec.node.shm_latency)
                machine.intra_copies += 1
                machine.intra_bytes += rec.nbytes
                yield machine._memory[rec.node].transfer(2.0 * rec.nbytes)
                rec.sender_done.succeed()
                rec.arrived.succeed()
        else:
            if rec.eager:
                tx = net.nic_tx(rec.src_node).transfer(rec.nbytes)
                rx = net.nic_rx(rec.dst_node).transfer(rec.nbytes)
                yield tx
                rec.sender_done.succeed()
                yield rx
                yield eng.pause(net.latency(rec.src_node, rec.dst_node))
                rec.arrived.succeed()
                net.stats.record(
                    rec.src_node, rec.dst_node, rec.nbytes,
                    net.topology.hops(rec.src_node, rec.dst_node),
                    rendezvous=False,
                )
            else:
                yield rec.matched
                yield eng.pause(
                    net.rendezvous_latency(rec.src_node, rec.dst_node)
                )
                tx = net.nic_tx(rec.src_node).transfer(rec.nbytes)
                rx = net.nic_rx(rec.dst_node).transfer(rec.nbytes)
                yield AllOf([tx, rx])
                yield eng.pause(net.latency(rec.src_node, rec.dst_node))
                net.stats.record(
                    rec.src_node, rec.dst_node, rec.nbytes,
                    net.topology.hops(rec.src_node, rec.dst_node),
                    rendezvous=True,
                )
                rec.sender_done.succeed()
                rec.arrived.succeed()

    def _intra_sender_transport(self, rec: _SendRec):
        """Sender half of an on-node message under the socket tier /
        pluggable transports (any configuration other than flat
        ``sockets=1`` + ``shm_two_copy``, which keeps the original
        inline path in :meth:`_sender_process`).

        Of the transport's ``eager_copies`` staged copies the sender
        performs all but the last (the receiver's copy-out, charged in
        :meth:`_deliver_process`).  Exactly one copy in the chain moves
        the bytes between sockets when sender and receiver live on
        different sockets: the first one.  Cross-socket copies are
        charged entirely to the node's cross-socket link and add
        ``xsocket_latency`` to the message latency.
        """
        eng = self.engine
        machine = self.machine
        node_spec = machine.spec.node
        tp = machine.transport
        src_sock = machine.socket_of(rec.src_world)
        dst_sock = machine.socket_of(rec.dst_world)
        cross = src_sock != dst_sock
        latency = node_spec.shm_latency * tp.latency_scale
        if cross:
            latency += node_spec.xsocket_latency
        if rec.eager:
            yield eng.pause(latency)
            for i in range(tp.eager_copies - 1):
                if cross and i == 0:
                    yield from machine.xsocket_copy(rec.node, rec.nbytes)
                else:
                    yield from machine.staged_copy(
                        rec.node, src_sock, rec.nbytes
                    )
            rec.sender_done.succeed()
            rec.arrived.succeed()
        else:
            # LMT: wait for the receive, then move the data directly
            # into the receiver's buffer.
            yield rec.matched
            yield eng.pause(latency)
            for i in range(tp.rdv_copies):
                if cross and i == 0:
                    yield from machine.xsocket_copy(rec.node, rec.nbytes)
                else:
                    yield from machine.staged_copy(
                        rec.node, dst_sock, rec.nbytes
                    )
            rec.sender_done.succeed()
            rec.arrived.succeed()

    # -- recv ------------------------------------------------------------
    def post_recv(
        self,
        comm_id: int,
        dst_world: int,
        source: int,
        tag: int,
        buf: Any,
    ) -> Event:
        """Post a receive; the returned event's value is (payload, Status)."""
        if self.window is not None:
            self.window.note(dst_world)
        ev = Event(self.engine, "recv")
        self._seq += 1
        rec = _RecvRec(source, tag, buf, ev, self._seq,
                       posted=self.engine.now, dst_world=dst_world)
        key = (comm_id, dst_world)
        q = self._queues.get(key)
        if q is None:
            q = self._queues[key] = _MatchQueue()
        q.pending_recvs.append(rec)
        self.pending_total += 1
        self._try_match(q)
        return ev

    # -- matching ----------------------------------------------------------
    @staticmethod
    def _matches(recv: _RecvRec, send: _SendRec) -> bool:
        src_ok = recv.source == ANY_SOURCE or recv.source == send.src_comm_rank
        tag_ok = recv.tag == ANY_TAG or recv.tag == send.tag
        return src_ok and tag_ok

    def _try_match(self, q: _MatchQueue) -> None:
        # Pair the earliest-posted receive with the earliest-posted
        # matching send (MPI non-overtaking order).  One forward pass over
        # the receives suffices: succeed()/spawn() are deferred (nothing
        # is appended mid-scan), and consuming a send can never enable an
        # *earlier* receive that already failed to match.
        sends = q.pending_sends
        recvs = q.pending_recvs
        if not sends or not recvs:
            return
        if len(recvs) == 1 and len(sends) == 1:
            # Single pending pair — by far the dominant case in the
            # collective sweeps (every post_send/post_recv immediately
            # matches its counterpart).  Inline the match predicate and
            # skip the scan copy.
            recv = recvs[0]
            send = sends[0]
            if (recv.source == ANY_SOURCE
                    or recv.source == send.src_comm_rank) and (
                    recv.tag == ANY_TAG or recv.tag == send.tag):
                recvs.popleft()
                sends.popleft()
                self.pending_total -= 2
                self._start_delivery(send, recv)
            return
        for recv in list(recvs):
            chosen = None
            for send in sends:
                if self._matches(recv, send):
                    chosen = send
                    break
            if chosen is not None:
                recvs.remove(recv)
                sends.remove(chosen)
                self.pending_total -= 2
                self._start_delivery(chosen, recv)
                if not sends:
                    return

    def _start_delivery(self, send: _SendRec, recv: _RecvRec) -> None:
        if self.tracer is not None:
            now = self.engine.now
            self.tracer.append({
                "t": now,
                "rank": recv.dst_world,
                "kind": "queue_wait",
                "wait": now - recv.posted,
                "nbytes": send.nbytes,
            })
        if send.matched._state == 0:  # pending
            send.matched.succeed()
        Process(self.engine, self._deliver_process(send, recv), "msg.deliver")

    def _deliver_process(self, send: _SendRec, recv: _RecvRec):
        yield send.arrived
        machine = self.machine
        if send.intra and send.eager:
            if machine.flat_intra:
                # CICO copy-out of the staged message, paid by the
                # receiver (memory_copy inlined).
                machine.intra_copies += 1
                machine.intra_bytes += send.nbytes
                yield machine._memory[send.dst_node].transfer(
                    2.0 * send.nbytes
                )
            else:
                # Receiver-side final staged copy under the socket tier
                # / transport abstraction.  When the transport is
                # single-copy this IS the data movement, so it crosses
                # the socket link for cross-socket pairs; with two-copy
                # CICO the copy-in already crossed and the copy-out is
                # local to the receiver's socket.
                tp = machine.transport
                dst_sock = machine.socket_of(send.dst_world)
                cross = (
                    tp.eager_copies == 1
                    and machine.socket_of(send.src_world) != dst_sock
                )
                if cross:
                    yield from machine.xsocket_copy(
                        send.dst_node, send.nbytes
                    )
                else:
                    yield from machine.staged_copy(
                        send.dst_node, dst_sock, send.nbytes
                    )
        try:
            payload = copy_into(recv.buf, send.payload)
        except ValueError as exc:
            recv.event.fail(TruncationError(str(exc)))
            return
        status = Status(
            source=send.src_comm_rank, tag=send.tag, nbytes=send.nbytes
        )
        recv.event.succeed((payload, status))

    # -- diagnostics -------------------------------------------------------
    def pending_counts(self) -> tuple[int, int]:
        """(unmatched sends, unmatched recvs) across all queues."""
        s = sum(len(q.pending_sends) for q in self._queues.values())
        r = sum(len(q.pending_recvs) for q in self._queues.values())
        return s, r

    def assert_drained(self) -> None:
        """Raise if any message was never matched (program bug)."""
        s, r = self.pending_counts()
        if s or r:
            raise MPIError(
                f"job finished with {s} unmatched send(s) and {r} "
                f"unmatched recv(s)"
            )
