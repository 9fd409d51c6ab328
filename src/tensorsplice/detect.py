"""Greedy seed detection: peel a slice down to its densest cores.

One peeling run walks a block downward. Each round targets the mode that
holds the globally lightest id and drops every id of that mode whose mass
sits at or below the block's current density (mass/size); if none qualifies
the single lightest id goes, so a round always makes progress. The densest
state seen across all rounds is returned, earliest state winning ties.

The detector repeats runs on what the earlier runs left, so the returned
blocks are entry-disjoint. They come back ordered by non-increasing density.

A detect call indexes the slice once (a ``PeelIndex``) in flat lists over
one id space, with no map from keys back to entries. Entries are numbered
in entry order. Each (mode, id) pair is numbered by a gid: the mode's
offset plus the id's rank within its mode, so each mode owns one range of
gids, in mode order, and ``(mass, gid)`` sorts exactly like ``(mass,
mode, id)``. Per entry the index holds its key, its value and its gid in
each mode; every value is positive, so a value of 0 marks a removed entry,
and a live-entry count says how many are left. Per gid it holds a mass
(``None`` once the id is gone) and a live entry count. The postings are
CSR: one unboxed array holds every gid's entry numbers, grouped by gid in
entry order, and an offsets array gives where each gid's group starts.
One heap holds a record per gid, and outdated records are skipped lazily.
When every value is an int, a record is the int ``mass * G + gid``, with
G the gid count, which sorts exactly like ``(mass, gid)`` and compares
faster; otherwise it is that tuple. Every run peels copies of the values
(its live marks), masses, counts and heap, and shares the rest
read-only. It frees them before it builds the block it returns, so a
run's state and its block are never alive at once.

The groups are fixed at the build: a removed entry stays in every group it
sits in, at value 0, and walks skip it. A run leaves the entry numbers of
its block on the index, and ``remove`` deletes those entries: their
values become 0. Each gid the block touched loses its
removed entries from its live count and dies at 0; every other one
re-sums its whole group in entry order and gets one fresh heap record.

The result is exactly that of indexing the remainder from scratch before
every run. A gid's mass is added up over its entries in entry order by the
one summation rule, ``running_sum`` in ``blocks.py``, and adding the zeros
of removed entries leaves a float sum's bits unchanged, so float masses
match bit for bit.

Inside a run, a removed entry lowers the mass of its gid in every other
mode, but only marks that gid dirty; the next pick pushes one record per
dirty live gid. The live records in the heap are then exactly the live
gids at their current masses, so picks and the ``(mass, mode, id)`` tie
breaks come out as if every decrement had pushed a record. A bulk round
pops every live record at or below the average, drops the picked mode's
gids among them and pushes the other modes' records back.

On sparse data nearly every round drops a single id, so single removals
are batched. After a pick ``(mu, g)`` in mode ``m`` with ``mu * size >
total``, the next live record's id goes without a fresh pick while that
record is mode ``m``'s, weighs exactly ``mu``, ``mu * size > total`` still
holds, and no decrement took an id of another mode below ``mu``, or down to
``mu`` in a lower mode. Removing an id of mode ``m`` changes no other id's
mass in mode ``m``, and every other mode's ids sorted after ``(mu, g)`` at
the pick and, by the last rule, still do, so a full pick would choose the
same id and drop it alone. The best state is still checked after every id.

The batch also stops once ``mu * size <= total``, where a full pick starts
a bulk round. With exact (integer) values that stop changes no result.
From there on, an id at or below the average stays so while such ids go,
so every order of dropping them ends in the same state E, and no id set
between that start and E is denser than E. The sets between them as dense
as E are closed under union, because mass is supermodular in the id sets,
so they have a largest one, U. The first id of U that an order drops
weighs exactly the average, so the state it is dropped from holds U and is
as dense as E: it is U, and a bulk round never passes U mid-way. Every
order thus checks U first among the states as dense as E, and keeps the
same best state. A float running sum rounds differently in each order,
so there the stop is needed; ``tests/test_detect.py`` pins such a case.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_right
from collections import Counter
from itertools import accumulate
from operator import itemgetter

from .blocks import Block, TensorSlice, running_sum
from .errors import ConfigError, PreconditionViolated


class PeelIndex:
    """The remaining tensor of one detect call, indexed for peeling.

    Entry ``e`` has key ``keys[e]``, value ``values[e]`` and gid
    ``ids[mode][e]`` in each mode; a removed entry keeps its key and gids,
    and its value becomes 0, which marks it dead, as every stored value is
    positive. ``live`` entries are left. Mode ``m`` owns the gids from
    ``starts[m]`` up to ``starts[m + 1]``. A gid ``g`` is live while its
    mass is not ``None``; its group, in entry order, is
    ``postings[offsets[g]:offsets[g + 1]]``, fixed at the build, so it
    keeps its removed entries, and ``counts[g]`` of them are live. Both
    ``postings`` and ``offsets`` are unboxed arrays. With int values
    ``scale`` is the gid count and a heap record is the int ``mass * scale
    + gid``; otherwise ``scale`` is ``None`` and a record is the tuple
    ``(mass, gid)``. ``peel_once`` leaves the entry numbers of the block
    it returned in ``kept``, for ``remove``.
    """

    __slots__ = ("n_modes", "keys", "values", "live", "ids", "starts", "masses", "counts",
                 "offsets", "postings", "scale", "heap", "kept")

    def __init__(self, n_modes: int, entries: dict):
        self.n_modes = n_modes
        self.keys = keys = list(entries)
        self.values = values = list(entries.values())
        self.live = len(keys)
        self.ids: list[list[int]] = []
        self.starts = starts = [0]
        self.masses: list = []
        self.counts: list[int] = []
        # Fixed after the build, so kept unboxed in 4 bytes per entry
        # number: 2**31 entries would take hundreds of GB before this.
        self.postings = array("i")
        masses, counts, postings = self.masses, self.counts, self.postings
        gids: list[int] = []
        for mode in range(n_modes):
            labels = sorted(set(map(itemgetter(mode), keys)))
            mode_gids = list(range(len(gids), len(gids) + len(labels)))
            gid = dict(zip(labels, mode_gids))
            ids = list(map(gid.__getitem__, map(itemgetter(mode), keys)))
            masses += [0] * len(labels)
            for g, value in zip(ids, values):
                masses[g] = masses[g] + value
            counts += map(Counter(ids).__getitem__, mode_gids)
            # Stable, so each gid's entries stay in entry order.
            postings.extend(sorted(range(len(keys)), key=ids.__getitem__))
            self.ids.append(ids)
            gids += mode_gids
            starts.append(len(gids))
        self.offsets = array("q", accumulate(counts, initial=0))
        self.scale = scale = len(gids) if type(running_sum(values)) is int else None
        self.heap = ([m * scale + g for g, m in enumerate(masses)] if scale
                     else list(zip(masses, gids)))
        heapq.heapify(self.heap)
        self.kept = None

    def remove(self) -> None:
        """Delete the entries of the block the last ``peel_once`` on this
        index returned, and re-sum every gid they touched."""
        if self.kept is None:
            raise PreconditionViolated("remove follows a peel_once on this index")
        gone, self.kept = self.kept, None
        values, masses, counts = self.values, self.masses, self.counts
        offsets, postings = self.offsets, self.postings
        for e in gone:
            values[e] = 0  # dead, and a re-sum over a whole group is the live mass
        self.live -= len(gone)
        for g, removed in Counter([ids[e] for ids in self.ids for e in gone]).items():
            counts[g] -= removed
            if not counts[g]:
                masses[g] = None
                continue
            group = postings[offsets[g]:offsets[g + 1]]
            masses[g] = mass = running_sum(list(map(values.__getitem__, group)))
            heapq.heappush(self.heap, mass * self.scale + g if self.scale else (mass, g))


def peel_once(working: PeelIndex) -> Block:
    """One greedy run: return the densest intermediate state of the peel.

    ``working`` keeps its tensor: the run peels copies of its values,
    masses, counts and heap, and it only gains the returned block's entry
    numbers (``kept``). Comparisons are done cross-multiplied (mass_a *
    size_b vs mass_b * size_a), which is exact for integer-valued blocks
    and avoids float tie instability.
    """
    nnz = working.live
    if not nnz:
        raise ValueError("cannot peel an empty block")
    starts, scale = working.starts, working.scale
    postings, offsets = working.postings, working.offsets
    values = working.values[:]  # the run's live marks: 0 once an entry goes
    masses = working.masses[:]
    counts = working.counts[:]
    heap = working.heap[:]
    split = scale.__rdivmod__ if scale else tuple  # record -> (mass, gid); tuple(t) is t
    dirty: set[int] = set()
    # Per mode, the entry-to-gid lists of every other mode.
    others = [working.ids[:mode] + working.ids[mode + 1:] for mode in range(working.n_modes)]
    heappush, heappop = heapq.heappush, heapq.heappop

    total = running_sum(values)
    size = len(masses) - masses.count(None)
    best_mass, best_size, best_cut = total, size, 0
    removal_log: list[int] = []

    while len(removal_log) < nnz:
        # Lightest live gid, once every dirty gid has a record at its
        # current mass; stale records are dropped on the way.
        for g in dirty:
            mass = masses[g]
            if mass is not None:
                heappush(heap, mass * scale + g if scale else (mass, g))
        dirty.clear()
        while True:
            mu, g = split(heap[0])
            if masses[g] == mu:
                break
            heappop(heap)
        mode = bisect_right(starts, g) - 1
        lo, hi = starts[mode], starts[mode + 1]
        if mu * size <= total:  # mu <= total/size, round-start total/size
            batch = False
            doomed: list[int] = []
            spared = []
            while heap:
                mass, g = split(heap[0])
                if masses[g] != mass:
                    heappop(heap)
                elif mass * size <= total:
                    record = heappop(heap)
                    if lo <= g < hi:
                        masses[g] = None
                        doomed.append(g)
                    else:
                        spared.append(record)
                else:
                    break
            for record in spared:
                heappush(heap, record)
        else:
            # Nothing at or below average: drop the single lightest id so
            # the peel always terminates, and the next ones while a full
            # pick would choose them alone (see the module docstring).
            batch = True
            heappop(heap)
            masses[g] = None
            doomed = [g]

        other_ids = others[mode]
        while True:
            overtaken = False
            for g in doomed:
                size -= 1
                for e in postings[offsets[g]:offsets[g + 1]]:
                    value = values[e]
                    if not value:
                        continue
                    values[e] = 0
                    total -= value
                    removal_log.append(e)
                    for ids in other_ids:
                        x = ids[e]
                        left = counts[x] - 1
                        counts[x] = left
                        if left:
                            mass = masses[x] - value
                            masses[x] = mass
                            dirty.add(x)
                            if mass <= mu and (mass < mu or x < lo):
                                overtaken = True
                        else:
                            masses[x] = None
                            size -= 1

            if size > 0 and total * best_size > best_mass * size:
                best_mass, best_size, best_cut = total, size, len(removal_log)
            if not batch or overtaken or len(removal_log) == nnz:
                break
            while True:  # entries are left, so mode m's live gids have records
                mass, g = split(heap[0])
                if masses[g] == mass:
                    break
                heappop(heap)
            if not lo <= g < hi or mass != mu or mu * size <= total:
                break
            heappop(heap)
            masses[g] = None
            doomed = [g]

    kept = sorted(removal_log[best_cut:])
    # Only the index and the kept entry numbers outlive the run, so its
    # state is freed before the block is built.
    del values, masses, counts, heap, dirty, removal_log
    keys, values = working.keys, working.values
    block = Block._adopt(working.n_modes, {keys[e]: values[e] for e in kept})
    working.kept = kept
    return block


def detect_top_blocks(source: TensorSlice, num_blocks: int) -> list[Block]:
    """Up to ``num_blocks`` entry-disjoint dense blocks, densest first."""
    if num_blocks < 1:
        raise ConfigError("num_blocks must be at least 1")
    index = PeelIndex(source.n_modes, source.entries)
    found: list[Block] = []
    while index.live:
        # Looked up as a module global on every run, so wrappers see each one.
        block = peel_once(index)
        found.append(block)
        # Nothing reads the index after a run that took every live entry.
        if len(found) == num_blocks or block.nnz == index.live:
            break
        index.remove()
    # Stable sort: equal densities keep discovery order.
    found.sort(key=lambda b: -(b.mass / b.size))
    return found
