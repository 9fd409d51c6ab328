"""Greedy seed detection: peel a slice down to its densest cores.

One peeling run walks a block downward. Each round targets the mode that
holds the globally lightest id and drops every id of that mode whose mass
sits at or below the block's current density (mass/size); if none qualifies
the single lightest id goes, so a round always makes progress. The densest
state seen across all rounds is returned, earliest state winning ties.

The detector repeats runs on what the earlier runs left, so the returned
blocks are entry-disjoint. They come back ordered by non-increasing density.

A detect call indexes the slice once (a ``PeelIndex``) in lists. Entries
are numbered in entry order, and each mode's ids are renumbered densely in
increasing id order, so ``(mass, ordinal)`` heap records sort exactly like
``(mass, id)``. Per entry the index holds its key, its value and its
ordinal in each mode, and a ``bytearray`` marks the live entries. Per mode
it holds each ordinal's mass (``None`` once the id is gone), entry count
and postings (its live entry numbers, in entry order), and a heap of
``(mass, ordinal)`` records whose outdated ones are skipped lazily. Every
run peels copies of the live marks, masses, counts and heaps and shares the
rest read-only. After a run, the found block's entries leave the index, and
each id the block touched has its postings, count and mass recomputed from
its remaining entries, with one fresh heap record.

The result is exactly that of indexing the remainder from scratch before
every run. Postings keep entry order, and an id's mass is summed over its
entries in that order, so float masses match bit for bit.

Inside a run, a removed entry lowers the mass of its id in every other
mode, but only marks that id dirty in its mode's set; the next pick pushes
one record per dirty live id. The live records in each heap are then
exactly the live ids at their current masses, so picks and the ``(mass,
mode, id)`` tie breaks come out as if every decrement had pushed a record.

On sparse data nearly every round drops a single id, so single removals
are batched. After a pick ``(mu, m)`` with ``mu * size > total``, mode
``m``'s next id goes without a fresh pick while its record weighs exactly
``mu``, ``mu * size > total`` still holds, and no decrement took an id of
another mode below ``mu``, or down to ``mu`` in a lower mode. Removing an
id of mode ``m`` changes no other id's mass in mode ``m``, and every other
mode's ids sorted after ``(mu, m)`` at the pick and, by the last rule,
still do, so a full pick would choose the same id and drop it alone. The
best state is still checked after every id.

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
same best state. Float sums round differently in each order, so there
the stop is needed; ``tests/test_detect.py`` pins such a case.
"""

from __future__ import annotations

import heapq
from itertools import compress
from operator import itemgetter

from .blocks import Block, TensorSlice
from .errors import ConfigError


class PeelIndex:
    """The remaining tensor of one detect call, indexed for peeling.

    Entry ``e`` has key ``keys[e]``, value ``values[e]`` and ordinal
    ``ids[mode][e]`` in each mode. ``number`` maps each live key to its
    entry number, and ``alive[e]`` is set while entry ``e`` is live. An
    ordinal is live while its mass is not ``None``; ``postings`` lists
    exactly the live entries of each ordinal, in entry order.
    """

    __slots__ = ("n_modes", "keys", "values", "number", "alive", "ids",
                 "masses", "counts", "postings", "heaps")

    def __init__(self, n_modes: int, entries: dict):
        self.n_modes = n_modes
        self.keys = keys = list(entries)
        self.values = values = list(entries.values())
        self.number = dict(zip(keys, range(len(keys))))
        self.alive = bytearray(b"\x01") * len(keys)
        self.ids: list[list[int]] = []
        self.masses: list[list] = []
        self.counts: list[list[int]] = []
        self.postings: list[list[list[int]]] = []
        self.heaps: list[list] = []
        for mode in range(n_modes):
            labels = sorted(set(map(itemgetter(mode), keys)))
            ordinal = {idx: o for o, idx in enumerate(labels)}
            ids = [ordinal[key[mode]] for key in keys]
            masses: list = [0] * len(labels)
            postings: list[list[int]] = [[] for _ in labels]
            for e, (o, value) in enumerate(zip(ids, values)):
                masses[o] = masses[o] + value
                postings[o].append(e)
            heap = list(zip(masses, range(len(labels))))
            heapq.heapify(heap)
            self.ids.append(ids)
            self.masses.append(masses)
            self.counts.append(list(map(len, postings)))
            self.postings.append(postings)
            self.heaps.append(heap)

    def remove(self, block: Block) -> None:
        """Delete a block's entries and re-index every id they touched."""
        number, alive, values = self.number, self.alive, self.values
        gone = [number.pop(key) for key in block.entries]
        for e in gone:
            alive[e] = 0
        for ids, masses, counts, postings, heap in zip(
            self.ids, self.masses, self.counts, self.postings, self.heaps
        ):
            for o in {ids[e] for e in gone}:
                live = [e for e in postings[o] if alive[e]]
                postings[o] = live
                counts[o] = len(live)
                if not live:
                    masses[o] = None
                    continue
                mass = 0
                for e in live:
                    mass = mass + values[e]
                masses[o] = mass
                heapq.heappush(heap, (mass, o))


def peel_once(working: PeelIndex) -> Block:
    """One greedy run: return the densest intermediate state of the peel.

    ``working`` is left unchanged. Comparisons are done cross-multiplied
    (mass_a * size_b vs mass_b * size_a), which is exact for integer-valued
    blocks and avoids float tie instability.
    """
    nnz = len(working.number)
    if not nnz:
        raise ValueError("cannot peel an empty block")
    n = working.n_modes
    values = working.values
    postings = working.postings
    alive = working.alive[:]
    masses = [list(m) for m in working.masses]
    counts = [list(c) for c in working.counts]
    heaps = [list(h) for h in working.heaps]
    dirty: list[set[int]] = [set() for _ in range(n)]
    # Per mode, what its removals update in every other mode, and whether
    # that other mode wins mass ties against it.
    others = [
        [(working.ids[o], masses[o], counts[o], dirty[o], o < mode)
         for o in range(n) if o != mode]
        for mode in range(n)
    ]
    heappush, heappop = heapq.heappush, heapq.heappop

    total = sum(compress(values, alive))
    size = sum(len(m) - m.count(None) for m in masses)
    best_mass, best_size, best_cut = total, size, 0
    removal_log: list[int] = []

    while len(removal_log) < nnz:
        # Lightest live id over all modes, once every dirty id has a record
        # at its current mass; stale records are dropped on the way.
        pick = None
        for mode in range(n):
            h = heaps[mode]
            live = masses[mode]
            for o in dirty[mode]:
                mass = live[o]
                if mass is not None:
                    heappush(h, (mass, o))
            dirty[mode].clear()
            while h:
                mass, o = h[0]
                if live[o] == mass:
                    if pick is None or (mass, mode, o) < pick:
                        pick = (mass, mode, o)
                    break
                heappop(h)
        mu, mode, o = pick
        h = heaps[mode]
        live = masses[mode]
        if mu * size <= total:  # mu <= total/size, round-start total/size
            batch = False
            doomed: list[int] = []
            while h:
                mass, o = h[0]
                if live[o] != mass:
                    heappop(h)
                elif mass * size <= total:
                    heappop(h)
                    live[o] = None
                    doomed.append(o)
                else:
                    break
        else:
            # Nothing at or below average: drop the single lightest id so
            # the peel always terminates, and the next ones while a full
            # pick would choose them alone (see the module docstring).
            batch = True
            heappop(h)
            live[o] = None
            doomed = [o]

        mode_postings = postings[mode]
        other_modes = others[mode]
        while True:
            overtaken = False
            for o in doomed:
                size -= 1
                for e in mode_postings[o]:
                    if not alive[e]:
                        continue
                    alive[e] = 0
                    value = values[e]
                    total -= value
                    removal_log.append(e)
                    for ids, other_masses, other_counts, marked, lower in other_modes:
                        x = ids[e]
                        left = other_counts[x] - 1
                        other_counts[x] = left
                        if left:
                            mass = other_masses[x] - value
                            other_masses[x] = mass
                            marked.add(x)
                            if mass <= mu and (lower or mass < mu):
                                overtaken = True
                        else:
                            other_masses[x] = None
                            size -= 1

            if size > 0 and total * best_size > best_mass * size:
                best_mass, best_size, best_cut = total, size, len(removal_log)
            if not batch or overtaken or len(removal_log) == nnz:
                break
            while True:  # entries are left, so this mode has a live record
                mass, o = h[0]
                if live[o] == mass:
                    break
                heappop(h)
            if mass != mu or mu * size <= total:
                break
            heappop(h)
            live[o] = None
            doomed = [o]

    keys = working.keys
    kept = sorted(removal_log[best_cut:])
    return Block._adopt(n, {keys[e]: values[e] for e in kept})


def detect_top_blocks(source: TensorSlice, num_blocks: int) -> list[Block]:
    """Up to ``num_blocks`` entry-disjoint dense blocks, densest first."""
    if num_blocks < 1:
        raise ConfigError("num_blocks must be at least 1")
    index = PeelIndex(source.n_modes, source.entries)
    found: list[Block] = []
    while index.number:
        # Looked up as a module global on every run, so wrappers see each one.
        block = peel_once(index)
        found.append(block)
        if len(found) == num_blocks:
            break
        index.remove(block)
    # Stable sort: equal densities keep discovery order.
    found.sort(key=lambda b: -(b.mass / b.size))
    return found
