"""Greedy seed detection: peel a slice down to its densest cores.

One peeling run walks a block downward. Each round targets the mode that
holds the globally lightest id and drops every id of that mode whose mass
sits at or below the block's current density (mass/size); if none qualifies
the single lightest id goes, so a round always makes progress. The densest
state seen across all rounds is returned, earliest state winning ties.

The detector repeats runs, subtracting each result from the working copy,
so the returned blocks are entry-disjoint. They come back ordered by
non-increasing density.
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


def mode_masses(block: Block) -> list[dict[int, int | float]]:
    """Per-mode map from id to the summed value of entries holding that id."""
    out: list[dict] = [{} for _ in range(block.n_modes)]
    for key, value in block.entries.items():
        for mode, idx in enumerate(key):
            out[mode][idx] = out[mode].get(idx, 0) + value
    return out


def peel_once(working: Block) -> Block:
    """One greedy run: return the densest intermediate state of the peel.

    Comparisons are done cross-multiplied (mass_a * size_b vs mass_b *
    size_a), which is exact for integer-valued blocks and avoids float
    tie instability.
    """
    if working.nnz == 0:
        raise ValueError("cannot peel an empty block")
    n = working.n_modes
    entries = dict(working.entries)
    masses = mode_masses(working)
    counts: list[dict[int, int]] = [{} for _ in range(n)]
    postings: list[dict[int, list]] = [{} for _ in range(n)]
    for key in entries:
        for mode, idx in enumerate(key):
            counts[mode][idx] = counts[mode].get(idx, 0) + 1
            postings[mode].setdefault(idx, []).append(key)
    alive = [set(d) for d in masses]
    heaps = [[(mass, idx) for idx, mass in masses[m].items()] for m in range(n)]
    for h in heaps:
        heapq.heapify(h)

    total = working.mass
    size = working.size
    best_mass, best_size, best_cut = total, size, 0
    removal_log: list = []

    def fresh_top(mode):
        # Drop stale heap records (dead ids, superseded masses) lazily.
        h = heaps[mode]
        while h:
            mass, idx = h[0]
            if idx in alive[mode] and mass == masses[mode][idx]:
                return h[0]
            heapq.heappop(h)
        return None

    while entries:
        pick = None
        for mode in range(n):
            top = fresh_top(mode)
            if top is not None:
                cand = (top[0], mode, top[1])
                if pick is None or cand < pick:
                    pick = cand
        if pick is None:
            break
        mode = pick[1]
        h = heaps[mode]
        doomed: list[int] = []
        while True:
            top = fresh_top(mode)
            if top is None:
                break
            mass, idx = top
            if mass * size <= total:  # mass <= total/size, round-start total/size
                heapq.heappop(h)
                alive[mode].discard(idx)
                doomed.append(idx)
            else:
                break
        if not doomed:
            # Nothing at or below average: drop the single lightest id so
            # the peel always terminates.
            _, idx = heapq.heappop(h)
            alive[mode].discard(idx)
            doomed = [idx]

        for idx in doomed:
            size -= 1
            for key in postings[mode][idx]:
                value = entries.pop(key, None)
                if value is None:
                    continue
                total -= value
                removal_log.append(key)
                for other in range(n):
                    if other == mode:
                        continue
                    oid = key[other]
                    if oid not in alive[other]:
                        continue
                    masses[other][oid] -= value
                    counts[other][oid] -= 1
                    if counts[other][oid] == 0:
                        alive[other].discard(oid)
                        size -= 1
                    else:
                        heapq.heappush(heaps[other], (masses[other][oid], oid))

        if size > 0 and total * best_size > best_mass * size:
            best_mass, best_size, best_cut = total, size, len(removal_log)

    removed = set(removal_log[:best_cut])
    snapshot = {k: v for k, v in working.entries.items() if k not in removed}
    return Block._adopt(working.n_modes, snapshot)


def detect_top_blocks(source: TensorSlice, params: DetectParams) -> list[Block]:
    """Up to ``num_blocks`` entry-disjoint dense blocks, densest first."""
    if source.n_modes != params.n_modes:
        raise ShapeMismatch(
            f"source has {source.n_modes} modes, params expect {params.n_modes}"
        )
    working = source.to_block()
    found: list[Block] = []
    while len(found) < params.num_blocks and working.nnz:
        block = peel_once(working)
        found.append(block)
        working = working.subtract(block)
    # Stable sort: equal densities keep discovery order.
    found.sort(key=lambda b: -(b.mass / b.size))
    return found
