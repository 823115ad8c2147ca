"""Block container used by multi-block collective algorithms.

Allgather-family algorithms move *sets of per-rank blocks* between
processes (recursive doubling doubles the number of blocks carried per
message; ring forwards one block at a time).  :class:`BlockSet` is the
wire format: a map ``owner_rank → payload`` whose ``nbytes`` is the sum
of its members — which is exactly what the message cost model needs in
both data and model payload modes.  Cost-only sends snapshot a set in
O(1) by sharing its map copy-on-write (:meth:`BlockSet.sim_snapshot`).
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.mpi.datatypes import Bytes, clone, nbytes_of

__all__ = ["BlockSet"]


class BlockSet:
    """A set of per-rank blocks travelling as one message.

    ``meta`` is an optional small side-channel dict (e.g. origin-rank
    bookkeeping in Bruck all-to-all); it is copied on clone but does not
    contribute to ``nbytes``.

    Blocks only ever enter via the constructor, :meth:`add` or
    :meth:`merge`; never mutate ``blocks`` directly, and do not hold an
    alias of it across an ``add``/``merge``.  Two invariants rest on
    that rule:

    * ``nbytes`` is maintained incrementally, so the total never needs
      a rescan — at paper scale the allgather algorithms consult it
      millions of times;
    * the map is copy-on-write: :meth:`sim_snapshot` shares it with the
      snapshot and flags both sets, and ``add``/``merge`` on a flagged
      set first replace its map with a private copy.  Contents seen
      through either set never change because of the other.
    """

    __slots__ = ("blocks", "meta", "nbytes", "_shared")

    def __init__(
        self,
        blocks: dict[int, Any] | None = None,
        meta: dict | None = None,
    ):
        self.blocks: dict[int, Any] = dict(blocks) if blocks else {}
        self.meta: dict = dict(meta) if meta else {}
        total = 0
        for p in self.blocks.values():
            total += p.nbytes if type(p) is Bytes else nbytes_of(p)
        #: Total payload bytes across all blocks — a plain slot (not a
        #: property) because the size oracle reads it millions of times.
        self.nbytes = total
        self._shared = False

    @classmethod
    def single(cls, owner: int, payload: Any) -> "BlockSet":
        """One-block set without the constructor's copy/rescan (the
        shape every ring/doubling round starts from)."""
        new = cls.__new__(cls)
        new.blocks = {owner: payload}
        new.meta = {}
        new.nbytes = (
            payload.nbytes if type(payload) is Bytes else nbytes_of(payload)
        )
        new._shared = False
        return new

    def sim_clone(self) -> "BlockSet":
        """Deep snapshot (value semantics at send time)."""
        new = BlockSet.__new__(BlockSet)
        # Bytes markers are immutable — share them instead of a per-member
        # clone() dispatch (the dominant cost of model-mode sends).
        new.blocks = {
            r: (p if type(p) is Bytes else clone(p))
            for r, p in self.blocks.items()
        }
        new.meta = dict(self.meta)
        new.nbytes = self.nbytes
        new._shared = False
        return new

    def sim_snapshot(self) -> "BlockSet":
        """O(1) snapshot for cost-only sends (the member payloads are
        immutable size markers in that mode).

        The snapshot shares this set's owner map and both sets are
        flagged copy-on-write, so a later ``add``/``merge`` on either
        side copies the map before changing it: the receiver sees the
        blocks as they were at send time, and the sender's set stays
        insulated from the receiver's.
        """
        new = BlockSet.__new__(BlockSet)
        new.blocks = self.blocks
        new.meta = dict(self.meta)
        new.nbytes = self.nbytes
        new._shared = self._shared = True
        return new

    def add(self, owner: int, payload: Any) -> None:
        """Insert a block, refusing silent overwrite of a different one."""
        if owner in self.blocks:
            raise KeyError(f"block for rank {owner} already present")
        if self._shared:
            self.blocks = dict(self.blocks)
            self._shared = False
        self.blocks[owner] = payload
        self.nbytes += nbytes_of(payload)

    def merge(self, other: "BlockSet") -> None:
        """Union another block set into this one."""
        if self._shared:
            self.blocks = dict(self.blocks)
            self._shared = False
        blocks = self.blocks
        others = other.blocks
        # The common case (ring/recursive-doubling rounds) is a disjoint
        # union — one keys-intersection test then a bulk update, reusing
        # the other set's running total instead of per-block sizing.
        if not blocks:
            blocks.update(others)
            self.nbytes = other.nbytes
            return
        if blocks.keys().isdisjoint(others):
            blocks.update(others)
            self.nbytes += other.nbytes
            return
        added = 0
        for owner, payload in others.items():
            if owner not in blocks:
                blocks[owner] = payload
                added += nbytes_of(payload)
        self.nbytes += added

    def subset(self, owners: list[int]) -> "BlockSet":
        """New :class:`BlockSet` holding only *owners* (must be present)."""
        return BlockSet({o: self.blocks[o] for o in owners})

    def owners(self) -> list[int]:
        """Owner ranks present, ascending."""
        return sorted(self.blocks)

    def __contains__(self, owner: int) -> bool:
        return owner in self.blocks

    def __getitem__(self, owner: int) -> Any:
        return self.blocks[owner]

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.blocks))

    def as_list(self, size: int) -> list[Any]:
        """Blocks ordered 0..size-1 (all must be present)."""
        blocks = self.blocks
        try:
            return [blocks[r] for r in range(size)]
        except KeyError:
            missing = [r for r in range(size) if r not in blocks]
            raise KeyError(
                f"missing blocks for ranks {missing[:8]}"
            ) from None

    def __repr__(self) -> str:
        return f"BlockSet(owners={self.owners()[:8]}, nbytes={self.nbytes})"
