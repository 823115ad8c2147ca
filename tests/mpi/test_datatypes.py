"""Unit tests for payload handling (Bytes, copies, block sets)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.placement import Placement
from repro.machine.presets import hazel_hen
from repro.mpi import run_program
from repro.mpi.collectives.blocks import BlockSet
from repro.mpi.datatypes import (
    Bytes,
    clone,
    concat,
    copy_into,
    nbytes_of,
    slice_payload,
    snapshot,
)


class TestBytes:
    def test_size(self):
        assert Bytes(100).nbytes == 100

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Bytes(-1)

    def test_equality_and_hash(self):
        assert Bytes(5) == Bytes(5)
        assert Bytes(5) != Bytes(6)
        assert hash(Bytes(5)) == hash(Bytes(5))


class TestNbytesOf:
    def test_none_is_zero(self):
        assert nbytes_of(None) == 0

    def test_ndarray(self):
        assert nbytes_of(np.zeros(10, dtype=np.float64)) == 80

    def test_bytes_objects(self):
        assert nbytes_of(b"abc") == 3
        assert nbytes_of(bytearray(5)) == 5

    def test_duck_typed_nbytes(self):
        class Blob:
            nbytes = 42

        assert nbytes_of(Blob()) == 42

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            nbytes_of({"a": 1})


class TestCopyInto:
    def test_none_dst_passthrough(self):
        src = np.arange(4.0)
        assert copy_into(None, src) is src

    def test_ndarray_copy(self):
        dst = np.zeros(4)
        out = copy_into(dst, np.arange(4.0))
        assert out is dst
        np.testing.assert_array_equal(dst, [0, 1, 2, 3])

    def test_truncation_detected(self):
        with pytest.raises(ValueError):
            copy_into(np.zeros(2), np.arange(4.0))

    def test_larger_buffer_partial_fill(self):
        dst = np.full(6, -1.0)
        copy_into(dst, np.arange(4.0))
        np.testing.assert_array_equal(dst, [0, 1, 2, 3, -1, -1])

    def test_symbolic_stays_symbolic(self):
        assert copy_into(Bytes(4), Bytes(4)) == Bytes(4)
        assert copy_into(None, Bytes(7)) == Bytes(7)


class TestClone:
    def test_ndarray_snapshot_is_independent(self):
        src = np.arange(4.0)
        snap = clone(src)
        src[:] = 99
        np.testing.assert_array_equal(snap, [0, 1, 2, 3])

    def test_bytes_passthrough(self):
        b = Bytes(9)
        assert clone(b) is b

    def test_duck_typed_sim_clone(self):
        bs = BlockSet({0: np.arange(3.0)})
        snap = clone(bs)
        bs.blocks[0][:] = -1
        np.testing.assert_array_equal(snap.blocks[0], [0, 1, 2])


class TestSliceConcat:
    def test_slice_ndarray(self):
        out = slice_payload(np.arange(10.0), 2, 5)
        np.testing.assert_array_equal(out, [2, 3, 4])

    def test_slice_bytes_scales_by_itemsize(self):
        assert slice_payload(Bytes(80), 2, 5, itemsize=8) == Bytes(24)

    def test_concat_arrays(self):
        out = concat([np.arange(2.0), np.arange(3.0)])
        np.testing.assert_array_equal(out, [0, 1, 0, 1, 2])

    def test_concat_bytes(self):
        assert concat([Bytes(3), Bytes(4)]) == Bytes(7)

    def test_concat_mixed_rejected(self):
        with pytest.raises(TypeError):
            concat([Bytes(3), np.zeros(2)])

    def test_concat_empty_rejected(self):
        with pytest.raises(ValueError):
            concat([])


class TestBlockSet:
    def test_nbytes_sums_members(self):
        bs = BlockSet({0: Bytes(10), 3: np.zeros(2)})
        assert bs.nbytes == 10 + 16

    def test_add_refuses_overwrite(self):
        bs = BlockSet({0: Bytes(1)})
        with pytest.raises(KeyError):
            bs.add(0, Bytes(2))

    def test_merge_keeps_existing(self):
        bs = BlockSet({0: Bytes(1)})
        bs.merge(BlockSet({0: Bytes(99), 1: Bytes(2)}))
        assert bs[0] == Bytes(1)
        assert bs[1] == Bytes(2)

    def test_as_list_requires_complete(self):
        bs = BlockSet({0: Bytes(1), 2: Bytes(3)})
        with pytest.raises(KeyError):
            bs.as_list(3)
        bs.add(1, Bytes(2))
        assert bs.as_list(3) == [Bytes(1), Bytes(2), Bytes(3)]

    def test_subset_and_owners(self):
        bs = BlockSet({2: Bytes(1), 0: Bytes(2)})
        assert bs.owners() == [0, 2]
        sub = bs.subset([2])
        assert sub.owners() == [2]

    def test_meta_survives_clone_but_not_size(self):
        bs = BlockSet({0: Bytes(8)}, meta={"origin": 3})
        assert bs.nbytes == 8
        assert bs.sim_clone().meta == {"origin": 3}


def _contents(bs):
    return dict(bs.blocks), bs.nbytes


class TestBlockSetCopyOnWrite:
    """Cost-only snapshots share the owner map until either side
    changes it."""

    def test_snapshot_shares_the_map(self):
        bs = BlockSet({0: Bytes(1), 1: Bytes(2)}, meta={"origin": 1})
        snap = snapshot(bs)
        assert snap is not bs
        assert snap.blocks is bs.blocks
        assert snap.nbytes == bs.nbytes == 3
        assert snap.meta == bs.meta and snap.meta is not bs.meta

    @pytest.mark.parametrize("side", ["source", "snapshot"])
    @pytest.mark.parametrize("mutation", ["add", "merge"])
    def test_mutation_leaves_the_other_side(self, side, mutation):
        bs = BlockSet({0: Bytes(1), 1: Bytes(2)})
        snap = snapshot(bs)
        changed, other = (bs, snap) if side == "source" else (snap, bs)
        before = _contents(other)
        if mutation == "add":
            changed.add(5, Bytes(40))
        else:
            changed.merge(BlockSet({1: Bytes(99), 6: Bytes(60)}))
        assert _contents(other) == before
        assert 5 in changed or 6 in changed
        assert changed.nbytes == sum(
            nbytes_of(p) for p in changed.blocks.values()
        )
        assert changed.blocks is not other.blocks

    def test_two_snapshots_are_independent(self):
        bs = BlockSet({0: Bytes(1)})
        first, second = snapshot(bs), snapshot(bs)
        first.add(1, Bytes(10))
        second.merge(BlockSet({2: Bytes(20)}))
        assert _contents(first) == ({0: Bytes(1), 1: Bytes(10)}, 11)
        assert _contents(second) == ({0: Bytes(1), 2: Bytes(20)}, 21)
        assert _contents(bs) == ({0: Bytes(1)}, 1)

    def test_clone_copies_the_map(self):
        bs = BlockSet({0: Bytes(1)})
        assert clone(bs).blocks is not bs.blocks


#: One step on a pool of block sets: add a block, merge one set into
#: another (possibly itself) or append a snapshot of one.
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 7), st.integers(0, 9),
                  st.integers(0, 64)),
        st.tuples(st.just("merge"), st.integers(0, 7), st.integers(0, 7)),
        st.tuples(st.just("snapshot"), st.integers(0, 7)),
    ),
    max_size=40,
)


@given(_steps)
@settings(max_examples=60, deadline=None)
def test_copy_on_write_matches_deep_copy_model(steps):
    sets = [BlockSet({0: Bytes(8)})]
    model = [{0: Bytes(8)}]
    for step in steps:
        i = step[1] % len(sets)
        if step[0] == "add":
            _op, _i, owner, size = step
            if owner in model[i]:
                with pytest.raises(KeyError):
                    sets[i].add(owner, Bytes(size))
            else:
                sets[i].add(owner, Bytes(size))
                model[i][owner] = Bytes(size)
        elif step[0] == "merge":
            j = step[2] % len(sets)
            sets[i].merge(sets[j])
            model[i] = {**model[j], **model[i]}
        else:
            sets.append(snapshot(sets[i]))
            model.append(dict(model[i]))
        for bs, expected in zip(sets, model):
            assert bs.blocks == expected
            assert bs.nbytes == sum(nbytes_of(b) for b in bs.blocks.values())


def _second_allgatherv(mpi, base):
    """A warm-up allgatherv (lazy set-up), then a second one measured
    from a tracemalloc peak reset at the aligned entry."""
    comm = mpi.world
    yield from comm.allgatherv(Bytes(8))
    yield from comm.align()
    if comm.rank == 0:
        tracemalloc.reset_peak()
        base.append(tracemalloc.get_traced_memory()[0])
    yield from comm.allgatherv(Bytes(8))
    return mpi.now


@pytest.mark.skipif(tracemalloc.is_tracing(),
                    reason="tracemalloc already in use")
def test_live_allgatherv_host_memory():
    """One live cost-only 1-element allgatherv over hazel_hen(8) x 24
    ranks.  The node-level broadcasts forward the gathered 192-block map;
    copy-on-write snapshots keep one map per distinct set instead of one
    per message.  Peak above the entry (Python 3.11): 2.14 MB when every
    send copied the map, 0.83 MB with copy-on-write snapshots."""
    base = []
    tracemalloc.start()
    try:
        run_program(hazel_hen(8), None, _second_allgatherv,
                    placement=Placement.block(8, 24), payload="cost-only",
                    replay=False, program_kwargs={"base": base})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base[0] < 1.5e6
