"""Rooted collectives reject a root outside the communicator.

An out-of-range root used to run silently (a broadcast of zeros, a
gather or reduce delivered to the wrong rank, a root of -1 acting as the
last rank) or deadlock across nodes.  Every rooted entry now raises
:class:`MPIError` before posting anything, so the communicator stays
usable afterwards.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.core.hierarchy import HybridContext
from repro.machine.placement import Placement
from repro.machine.presets import hazel_hen
from repro.mpi import run_program
from repro.mpi.constants import ReduceOp
from repro.mpi.errors import MPIError

MACHINES = {
    "1node": (1, Placement.block(1, 4)),
    "2nodes": (2, Placement.block(2, 2)),
}

ENTRIES = {
    "bcast": lambda comm, x, root: comm.bcast(x, root=root),
    "gather": lambda comm, x, root: comm.gather(x, root=root),
    "gatherv": lambda comm, x, root: comm.gatherv(x, root=root),
    "scatter": lambda comm, x, root: comm.scatter([x] * comm.size,
                                                  root=root),
    "reduce": lambda comm, x, root: comm.reduce(x, ReduceOp.SUM, root=root),
    "ibcast": lambda comm, x, root: comm.ibcast(x, root=root),
    "ireduce": lambda comm, x, root: comm.ireduce(x, ReduceOp.SUM,
                                                  root=root),
}


def _rejects(call):
    """Coroutine: *call()* — a coroutine or an immediate request — raises
    the out-of-range-root error."""
    with pytest.raises(MPIError, match=r"root rank -?\d+ out of range"):
        started = call()
        if inspect.isgenerator(started):
            yield from started


def _run(machine, prog):
    nodes, placement = MACHINES[machine]
    return run_program(hazel_hen(nodes), None, prog, placement=placement,
                       replay=False).returns


@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("root", [-1, 4, 7])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_comm_rejects_out_of_range_root(entry, root, machine):
    call = ENTRIES[entry]

    def prog(mpi):
        comm = mpi.world
        x = np.arange(4.0) + comm.rank
        yield from _rejects(lambda: call(comm, x, root))
        # Nothing was posted: the same entry still works with a valid root.
        started = call(comm, x, comm.size - 1)
        if inspect.isgenerator(started):
            yield from started
        else:
            yield from started.wait()
        return True

    assert all(_run(machine, prog))


@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("root", [-1, 4, 7])
@pytest.mark.parametrize("immediate", [False, True])
def test_hybrid_bcast_rejects_out_of_range_root(immediate, root, machine):
    def prog(mpi):
        hy = yield from HybridContext.create(mpi.world)
        buf = yield from hy.bcast_buffer(64)
        if immediate:
            yield from _rejects(lambda: hy.ibcast(buf, root=root))
        else:
            yield from _rejects(lambda: hy.bcast(buf, root=root))
        yield from hy.bcast(buf, root=0)
        return True

    assert all(_run(machine, prog))
