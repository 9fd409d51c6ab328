"""Sparse coordinate tensors and the block algebra everything else runs on.

Entries live in plain dicts keyed by N-tuples of dense integer ids, one id
per mode, and every stored value is positive and finite. By convention the
time-bin ordinal is the last mode. A Block restricts a tensor to explicit
per-mode id sets and keeps two aggregates consistent with its entries at
all times:

* ``mass`` is the sum of entry values,
* ``size`` is the summed cardinality of the per-mode id sets,

and ``density`` is their ratio. Every mass, here and in the detector and
splicer, is added up by ``running_sum``, so recomputing a block's mass
from its entry dict reproduces the cache bit for bit, including for float
values, on every supported Python.

Blocks behave as values: operations return new instances, and a block's
entries, id sets, mass and size never change after construction, so both
aggregates are computed once. Each block also has a ``serial`` number,
unique within the process, which the engine uses to remember pairs
without keeping the blocks alive. A block may carry a
private splice index (see ``splice.py``), which ``splice_pair`` builds on
first use and moves to the block that replaces this one, so two threads
must not splice the same block at once. Index sets are exposed sorted
wherever iteration order can leak into output.
"""

from __future__ import annotations

import itertools
import sys
from collections import namedtuple
from functools import reduce
from operator import add, itemgetter

from .errors import DegenerateBlock, ShapeMismatch

_serials = itertools.count()


def running_sum(values):
    """The left-to-right running sum of ``values``: the one rule by which
    every block mass is added up.

    A float total has the bits of ``reduce(operator.add, values, 0)`` on
    every Python, although ``sum()`` compensates floats from 3.12 on; it
    reads ``values`` twice, so pass a collection. An int total is exact in
    any order, so ``sum()``'s is returned as it is.
    """
    total = sum(values)
    if type(total) is int:
        return total
    return reduce(add, values, 0)


class Event(namedtuple("Event", "ids value", defaults=(1,))):
    """One time-stamped tuple: a dense id per mode plus a positive value.

    ``ids[-1]`` is the time-bin ordinal assigned at ingestion.
    """

    __slots__ = ()


class TensorSlice:
    """All tuples of one stream window, accumulated in coordinate form.

    ``time_range`` is the half-open ``[lo, hi)`` interval of bin ordinals
    the slice covers; streaming slices always span exactly one bin.
    """

    __slots__ = ("n_modes", "entries", "time_range")

    def __init__(self, n_modes: int, time_range: tuple[int, int]):
        if n_modes < 2:
            raise ValueError("a slice needs at least two modes")
        self.n_modes = n_modes
        self.entries: dict[tuple, int | float] = {}
        self.time_range = time_range

    def add(self, event: Event) -> None:
        """Accumulate one event; duplicate keys sum their values."""
        ids, value = event  # one unpack reads faster than five field lookups
        if len(ids) != self.n_modes:
            raise ShapeMismatch(f"event has {len(ids)} ids, slice expects {self.n_modes}")
        if not 0 < value <= sys.float_info.max:
            raise ValueError("slice entries must have positive finite values")
        key = tuple(ids)
        value = self.entries.get(key, 0) + value
        if value > sys.float_info.max:
            raise ValueError(f"entry {key!r} accumulates past the largest float")
        self.entries[key] = value

    @property
    def nnz(self) -> int:
        return len(self.entries)


class Block:
    """A subtensor: per-mode id sets plus the entries they support.

    Index sets are derived from the entries at construction, so the
    structural invariants (no dangling id, no empty mode while entries
    exist, positive finite values) hold for every instance.
    """

    __slots__ = ("n_modes", "entries", "index_sets", "mass", "size", "serial", "_index")

    def __init__(self, n_modes: int, entries: dict | None = None):
        entries = dict(entries) if entries else {}
        for key, value in entries.items():
            if len(key) != n_modes:
                raise ShapeMismatch(
                    f"entry key {key!r} has {len(key)} ids, expected {n_modes}"
                )
            if not 0 < value <= sys.float_info.max:
                raise ValueError(
                    f"entry {key!r} has value {value!r}, not positive and finite"
                )
        try:
            self._fill(n_modes, entries, None)
        except OverflowError:  # a float met an int too large for a float
            raise ValueError("entry values sum past the largest float") from None
        if self.mass > sys.float_info.max:
            raise ValueError("entry values sum past the largest float")

    @classmethod
    def _adopt(cls, n_modes: int, entries: dict, index_sets: list | None = None) -> "Block":
        # Internal constructor: takes ownership of a freshly built dict, and
        # of id sets that match it when the caller kept them up to date.
        self = cls.__new__(cls)
        self._fill(n_modes, entries, index_sets)
        return self

    def _fill(self, n_modes: int, entries: dict, index_sets: list | None) -> None:
        if index_sets is None:
            index_sets = [set(map(itemgetter(mode), entries)) for mode in range(n_modes)]
        self.n_modes = n_modes
        self.entries = entries
        self.index_sets = index_sets
        self.mass = running_sum(entries.values())
        self.size = sum(map(len, index_sets))
        self.serial = next(_serials)
        self._index = None

    @property
    def nnz(self) -> int:
        return len(self.entries)

    @property
    def is_empty(self) -> bool:
        return not self.entries

    @property
    def density(self) -> float:
        """Mass over size; undefined for a size-0 block."""
        size = self.size
        if size == 0:
            raise DegenerateBlock("density of an empty block is undefined")
        return self.mass / size

    def sorted_ids(self, mode: int) -> list[int]:
        return sorted(self.index_sets[mode])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Block):
            return NotImplemented
        return self.n_modes == other.n_modes and self.entries == other.entries

    __hash__ = None  # mutable-container semantics

    def __repr__(self) -> str:
        return (
            f"Block(n_modes={self.n_modes}, nnz={self.nnz}, "
            f"mass={self.mass}, size={self.size})"
        )
