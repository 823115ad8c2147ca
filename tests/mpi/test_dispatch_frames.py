"""Frame-chain probe: generator frames between a collective's entry and
its first point-to-point send.

Each resumption of a running collective re-enters every frame of its
``yield from`` chain, so a frame that only forwards arguments costs host
time on every event the collective waits for.  The probe spies on
``MessageEngine.post_send`` and, per operation, keeps the deepest chain
seen: the function names strictly between the innermost
``Comm._collective`` and the first ``send``/``isend``/``sendrecv``
below it.  Ceilings are the chain lengths of the direct design — one
replay router, ``_run_<op>``, the algorithm (or the hierarchical stage
function and its flat stage algorithm).
"""

from __future__ import annotations

import sys

import numpy as np

from repro.core.hierarchy import HybridContext
from repro.machine.placement import Placement
from repro.machine.presets import hazel_hen
from repro.mpi import run_program
from repro.mpi.datatypes import Bytes
from repro.mpi.p2p import MessageEngine

_SENDS = {"send", "isend", "sendrecv"}

#: Deepest chain allowed per operation on hazel_hen(2)/irregular([3, 3]).
CEILINGS = {
    "allgather": 5,
    "allgatherv": 5,
    "bcast": 5,
    "allreduce": 5,
    "reduce": 5,
    "barrier": 5,
    "hy_allgather": 4,
}


def _chain(frame) -> int | None:
    """Frames between the innermost ``Comm._collective`` above *frame*
    and the first send-family frame below it (None outside a collective)."""
    names = []
    while frame is not None:
        code = frame.f_code
        if code.co_name == "_collective" and code.co_filename.endswith(
                "comm.py"):
            break
        names.append(code.co_name)
        frame = frame.f_back
    else:
        return None
    names.reverse()  # outermost first
    for depth, name in enumerate(names):
        if name in _SENDS:
            return depth
    return None


def _probe(monkeypatch) -> dict[str, int]:
    depth: dict[str, int] = {}
    label: dict[int, str] = {}
    real = MessageEngine.post_send

    def post_send(self, comm_id, src_world, *args):
        op = label.get(src_world)
        if op is not None:
            n = _chain(sys._getframe(1))
            if n is not None:
                depth[op] = max(depth.get(op, 0), n)
        return real(self, comm_id, src_world, *args)

    monkeypatch.setattr(MessageEngine, "post_send", post_send)

    def prog(mpi):
        comm = mpi.world
        rank = comm.rank
        hy = yield from HybridContext.create(comm)
        buf = yield from hy.allgather_buffer(64)
        calls = [
            ("allgather", lambda: comm.allgather(Bytes(64))),
            ("allgatherv",
             lambda: comm.allgatherv(Bytes(8 * (1 + rank % 2)))),
            ("bcast", lambda: comm.bcast(Bytes(4096), 0)),
            ("allreduce", lambda: comm.allreduce(np.zeros(8))),
            ("reduce", lambda: comm.reduce(np.zeros(8), root=0)),
            ("barrier", lambda: comm.barrier()),
            ("hy_allgather", lambda: hy.allgather(buf)),
        ]
        for op, call in calls:
            label[rank] = op
            yield from call()
            del label[rank]

    run_program(hazel_hen(2), None, prog,
                placement=Placement.irregular([3, 3]),
                payload_mode="cost-only", replay=False)
    return depth


def test_chain_depth_per_operation(monkeypatch):
    depth = _probe(monkeypatch)
    assert set(depth) == set(CEILINGS)
    over = {op: (depth[op], cap) for op, cap in CEILINGS.items()
            if depth[op] > cap}
    assert not over, over
