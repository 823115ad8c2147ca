"""One-sided communication (MPI-3 RMA, passive-target model).

Complements :mod:`repro.mpi.shm` (which models the *shared-memory*
window flavour the paper builds on) with general windows over the
network: ``put``/``get``/``accumulate`` move data to/from a target
rank's exposed region *without the target's participation* — the
communication pattern the MPI-3 SHM model generalizes (Hoefler et al.
2012, the paper's [11]).

Cost model
----------
* local (same-node) access: one pass over the node's contended memory;
* remote access: the network's eager/rendezvous-free one-sided path —
  ``α + hops·t_hop + n/B`` with NIC contention (puts inject at the
  origin TX and land on the target RX; gets pay an extra request
  latency first);
* ``lock``/``unlock``: a request/grant round trip to the target for
  remote locks (exclusive: serialized through a per-target lock
  resource); local locks are flag-cheap;
* ``fence``: a barrier over the window's communicator.

Data semantics: in data mode every rank's region is a real NumPy
buffer; puts/gets/accumulates move real elements (visible at operation
completion), so tests verify one-sided updates exactly.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.mpi.datatypes import Bytes, nbytes_of
from repro.mpi.errors import WindowError
from repro.simulator import Resource

__all__ = ["RmaWindow", "win_allocate"]


class _RmaShared:
    """Job-wide state of one RMA window."""

    __slots__ = ("sizes", "buffers", "locks", "epoch")

    def __init__(self, sizes: list[int], data_mode: bool, engine):
        self.sizes = sizes
        self.buffers = (
            [np.zeros(s, dtype=np.uint8) for s in sizes]
            if data_mode
            else [None] * len(sizes)
        )
        self.locks = [
            Resource(engine, capacity=1, name=f"rma.lock{r}")
            for r in range(len(sizes))
        ]
        self.epoch = 0


class RmaWindow:
    """Per-rank handle on a one-sided window."""

    __slots__ = ("_shared", "comm", "rank")

    def __init__(self, shared: _RmaShared, comm: Any):
        self._shared = shared
        self.comm = comm
        self.rank = comm.rank

    # -- exposure ---------------------------------------------------------
    def size_of(self, rank: int) -> int:
        """Bytes exposed by *rank*."""
        return self._shared.sizes[rank]

    def local(self, dtype: Any = np.uint8) -> np.ndarray | None:
        """This rank's exposed region (None in model mode)."""
        buf = self._shared.buffers[self.rank]
        return None if buf is None else buf.view(dtype)

    def _region(self, rank: int) -> np.ndarray | None:
        return self._shared.buffers[rank]

    # -- synchronization -------------------------------------------------
    def lock(self, target: int):
        """Coroutine: acquire the exclusive passive-target lock."""
        ctx = self.comm.ctx
        if ctx.job.replay is not None:
            ctx.job.replay.note(ctx.world_rank)
        if not self.comm.node_of(target) == ctx.node:
            # Request/grant round trip to the remote target.
            net = ctx.machine.network
            rtt = 2.0 * net.latency(ctx.node, self.comm.node_of(target))
            yield ctx.engine.timeout(rtt)
        yield self._shared.locks[target].acquire()

    def unlock(self, target: int):
        """Coroutine: release the passive-target lock."""
        self._shared.locks[target].release()
        ctx = self.comm.ctx
        if self.comm.node_of(target) != ctx.node:
            net = ctx.machine.network
            yield ctx.engine.timeout(
                net.latency(ctx.node, self.comm.node_of(target))
            )

    def fence(self):
        """Coroutine: collective epoch separation (active target)."""
        self._shared.epoch += 1
        yield from self.comm.barrier()

    # -- transfers --------------------------------------------------------
    def _transfer(self, target: int, nbytes: int, get: bool):
        ctx = self.comm.ctx
        if ctx.job.replay is not None:
            ctx.job.replay.note(ctx.world_rank)
        target_node = self.comm.node_of(target)
        if target_node == ctx.node:
            yield from ctx.machine.shared_touch(ctx.node, nbytes, ctx.socket)
            return
        net = ctx.machine.network
        if get:
            # Request latency to the target before data flows back.
            yield ctx.engine.timeout(net.latency(ctx.node, target_node))
            yield from net.transmit(target_node, ctx.node, nbytes)
        else:
            yield from net.transmit(ctx.node, target_node, nbytes)

    def put(self, payload: Any, target: int, offset: int = 0):
        """Coroutine: store *payload* into *target*'s region at *offset*."""
        nbytes = nbytes_of(payload)
        self._check(target, offset, nbytes)
        yield from self._transfer(target, nbytes, get=False)
        region = self._region(target)
        if region is not None and not isinstance(payload, Bytes):
            flat = np.asarray(payload).reshape(-1).view(np.uint8)
            region[offset : offset + flat.size] = flat

    def get(self, nbytes: int, target: int, offset: int = 0):
        """Coroutine: fetch *nbytes* from *target*; returns the payload."""
        self._check(target, offset, nbytes)
        yield from self._transfer(target, nbytes, get=True)
        region = self._region(target)
        if region is None:
            return Bytes(nbytes)
        return region[offset : offset + nbytes].copy()

    def accumulate(self, payload: Any, target: int, offset: int = 0,
                   dtype: Any = np.float64):
        """Coroutine: element-wise add *payload* into the target region."""
        nbytes = nbytes_of(payload)
        self._check(target, offset, nbytes)
        yield from self._transfer(target, nbytes, get=False)
        region = self._region(target)
        if region is not None and not isinstance(payload, Bytes):
            incoming = np.asarray(payload).reshape(-1)
            view = region[offset : offset + nbytes].view(dtype)
            view += incoming.astype(dtype, copy=False)

    # -- internals ------------------------------------------------------------
    def _check(self, target: int, offset: int, nbytes: int) -> None:
        if not 0 <= target < self.comm.size:
            raise WindowError(f"target rank {target} out of range")
        if offset < 0 or offset + nbytes > self._shared.sizes[target]:
            raise WindowError(
                f"access [{offset}, {offset + nbytes}) outside target "
                f"{target}'s {self._shared.sizes[target]}-byte region"
            )

    def __repr__(self) -> str:
        return (
            f"<RmaWindow ranks={self.comm.size} "
            f"mine={self._shared.sizes[self.rank]}B>"
        )


def win_allocate(comm, nbytes: int):
    """Coroutine: collectively create an RMA window (each rank exposes
    *nbytes*; per-rank sizes may differ)."""
    if nbytes < 0:
        raise WindowError("window size must be non-negative")

    def reducer(values: dict[int, int]) -> dict[int, Any]:
        sizes = [int(values[r]) for r in range(len(values))]
        shared = _RmaShared(sizes, comm.ctx.data_mode, comm.ctx.engine)
        sess = comm.ctx.job.replay
        if sess is not None:
            # Replay quiescence: a busy or contended window lock means an
            # RMA epoch is active and parked dispatches must run live.
            sess.rma_windows.append(shared)
        return {r: shared for r in values}

    shared = yield from comm._gate("win_allocate_rma", int(nbytes), reducer)
    return RmaWindow(shared, comm)
