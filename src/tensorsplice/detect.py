"""Greedy seed detection: peel a slice down to its densest cores.

One peeling run walks a block downward. Each round targets the mode that
holds the globally lightest id and drops every id of that mode whose mass
sits at or below the block's current density (mass/size); if none qualifies
the single lightest id goes, so a round always makes progress. The densest
state seen across all rounds is returned, earliest state winning ties.

The detector repeats runs on what the earlier runs left, so the returned
blocks are entry-disjoint. They come back ordered by non-increasing density.

A detect call indexes the slice once (a ``PeelIndex``): the remaining
entries, per-mode id masses and entry counts, postings from each id to its
entry keys, and per-mode ``(mass, id)`` heaps. Every run peels cheap
copies of the counters and heaps and shares the postings read-only; a key
already peeled is skipped because it is gone from the run's entry dict.
After a run, the found block's entries leave the index, and each id the
block touched has its postings, count and mass recomputed from its
remaining entries, with one fresh heap record; outdated records are
skipped lazily.

The result is exactly that of indexing the remainder from scratch before
every run. Postings keep entry order, and an id's mass is summed over its
entries in that order, so float masses match bit for bit. Heap records
order by ``(mass, id)`` and modes by index, so the removal order, the tie
breaks and the densest-prefix choice do not depend on how records were
pushed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .blocks import Block, TensorSlice
from .errors import ShapeMismatch


@dataclass(frozen=True)
class DetectParams:
    """How many blocks to extract, and the tensor arity they live in."""

    num_blocks: int
    n_modes: int

    def __post_init__(self):
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be at least 1")


class PeelIndex:
    """The remaining tensor of one detect call, indexed for peeling.

    An id is live while it has an entry in ``masses``; ``postings`` lists
    exactly the live keys of each live id, in entry order.
    """

    __slots__ = ("n_modes", "entries", "masses", "counts", "postings", "heaps")

    def __init__(self, n_modes: int, entries: dict):
        # ``entries`` is not copied: ``remove`` deletes from it.
        self.n_modes = n_modes
        self.entries = entries
        self.masses: list[dict] = []
        self.counts: list[dict[int, int]] = []
        self.postings: list[dict[int, list]] = []
        self.heaps: list[list] = []
        for mode in range(n_modes):
            masses: dict = {}
            postings: dict[int, list] = {}
            for key, value in entries.items():
                idx = key[mode]
                masses[idx] = masses.get(idx, 0) + value
                keys = postings.get(idx)
                if keys is None:
                    postings[idx] = [key]
                else:
                    keys.append(key)
            heap = [(mass, idx) for idx, mass in masses.items()]
            heapq.heapify(heap)
            self.masses.append(masses)
            self.counts.append({idx: len(keys) for idx, keys in postings.items()})
            self.postings.append(postings)
            self.heaps.append(heap)

    def remove(self, block: Block) -> None:
        """Delete a block's entries and re-index every id they touched."""
        entries = self.entries
        touched: list[dict[int, None]] = [{} for _ in range(self.n_modes)]
        for key in block.entries:
            del entries[key]
            for mode, idx in enumerate(key):
                touched[mode][idx] = None
        for mode, ids in enumerate(touched):
            masses = self.masses[mode]
            counts = self.counts[mode]
            postings = self.postings[mode]
            heap = self.heaps[mode]
            for idx in ids:
                live = [key for key in postings[idx] if key in entries]
                if not live:
                    del masses[idx], counts[idx], postings[idx]
                    continue
                mass = 0
                for key in live:
                    mass = mass + entries[key]
                postings[idx] = live
                counts[idx] = len(live)
                masses[idx] = mass
                heapq.heappush(heap, (mass, idx))


def peel_once(working: PeelIndex) -> Block:
    """One greedy run: return the densest intermediate state of the peel.

    ``working`` is left unchanged. Comparisons are done cross-multiplied
    (mass_a * size_b vs mass_b * size_a), which is exact for integer-valued
    blocks and avoids float tie instability.
    """
    if not working.entries:
        raise ValueError("cannot peel an empty block")
    n = working.n_modes
    entries = dict(working.entries)
    masses = [dict(d) for d in working.masses]
    counts = [dict(d) for d in working.counts]
    heaps = [list(h) for h in working.heaps]
    postings = working.postings
    # Per mode, the (mode, masses, counts, heap) of every other mode.
    others = [
        [(o, masses[o], counts[o], heaps[o]) for o in range(n) if o != mode]
        for mode in range(n)
    ]
    heappush, heappop = heapq.heappush, heapq.heappop

    total = sum(entries.values())
    size = sum(map(len, masses))
    best_mass, best_size, best_cut = total, size, 0
    removal_log: list = []

    while entries:
        # Lightest live id over all modes; stale heap records (dead ids,
        # superseded masses) are dropped on the way.
        pick = None
        for mode in range(n):
            h = heaps[mode]
            live = masses[mode]
            while h:
                mass, idx = h[0]
                if live.get(idx) == mass:
                    cand = (mass, mode, idx)
                    if pick is None or cand < pick:
                        pick = cand
                    break
                heappop(h)
        if pick is None:
            break
        mode = pick[1]
        h = heaps[mode]
        live = masses[mode]
        doomed: list[int] = []
        while h:  # h[0] starts out fresh, from the pick above
            mass, idx = h[0]
            if live.get(idx) != mass:
                heappop(h)
            elif mass * size <= total:  # mass <= total/size, round-start total/size
                heappop(h)
                del live[idx]
                doomed.append(idx)
            else:
                break
        if not doomed:
            # Nothing at or below average: drop the single lightest id so
            # the peel always terminates.
            _, idx = heappop(h)
            del live[idx]
            doomed = [idx]

        mode_postings = postings[mode]
        other_modes = others[mode]
        for idx in doomed:
            size -= 1
            for key in mode_postings[idx]:
                value = entries.pop(key, None)
                if value is None:
                    continue
                total -= value
                removal_log.append(key)
                for other, other_masses, other_counts, other_heap in other_modes:
                    oid = key[other]
                    left = other_counts[oid] - 1
                    if left:
                        other_counts[oid] = left
                        mass = other_masses[oid] - value
                        other_masses[oid] = mass
                        heappush(other_heap, (mass, oid))
                    else:
                        del other_counts[oid], other_masses[oid]
                        size -= 1

        if size > 0 and total * best_size > best_mass * size:
            best_mass, best_size, best_cut = total, size, len(removal_log)

    removed = set(removal_log[:best_cut])
    snapshot = {k: v for k, v in working.entries.items() if k not in removed}
    return Block._adopt(n, snapshot)


def detect_top_blocks(source: TensorSlice, params: DetectParams) -> list[Block]:
    """Up to ``num_blocks`` entry-disjoint dense blocks, densest first."""
    if source.n_modes != params.n_modes:
        raise ShapeMismatch(
            f"source has {source.n_modes} modes, params expect {params.n_modes}"
        )
    index = PeelIndex(source.n_modes, dict(source.entries))
    found: list[Block] = []
    while index.entries:
        # Looked up as a module global on every run, so wrappers see each one.
        block = peel_once(index)
        found.append(block)
        if len(found) == params.num_blocks:
            break
        index.remove(block)
    # Stable sort: equal densities keep discovery order.
    found.sort(key=lambda b: -(b.mass / b.size))
    return found
