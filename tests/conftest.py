"""Shared fixtures and independent oracles used across the suite.

The oracles here are deliberately naive (exhaustive enumeration, from
scratch recomputation) so they stay independent of the code paths they
check.
"""

from __future__ import annotations

import heapq
import random
import sys
from fractions import Fraction
from itertools import chain, combinations, product
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:  # allow running the suite without installing
    sys.path.insert(0, str(SRC))

from tensorsplice import Block  # noqa: E402


def mk(entries: dict, n_modes: int = 3) -> Block:
    return Block(n_modes, entries)


def random_block(
    rng: random.Random,
    n_modes: int = 3,
    max_id: int = 4,
    max_entries: int = 8,
    max_value: int = 9,
) -> Block:
    """Small random integer-valued block; duplicate keys accumulate."""
    entries: dict = {}
    for _ in range(rng.randint(1, max_entries)):
        key = tuple(rng.randrange(max_id) for _ in range(n_modes))
        entries[key] = entries.get(key, 0) + rng.randint(1, max_value)
    return Block(n_modes, entries)


def recomputed_mass(block: Block):
    return sum(block.entries.values())


def recomputed_size(block: Block) -> int:
    sets = [set() for _ in range(block.n_modes)]
    for key in block.entries:
        for mode, idx in enumerate(key):
            sets[mode].add(idx)
    return sum(len(s) for s in sets)


def _nonempty_subsets(ids):
    return list(
        chain.from_iterable(combinations(ids, r) for r in range(1, len(ids) + 1))
    )


def brute_force_best_density(block: Block) -> Fraction:
    """Exact maximum density over every per-mode index-subset restriction."""
    choices = [_nonempty_subsets(block.sorted_ids(m)) for m in range(block.n_modes)]
    best = Fraction(0)
    for picked in product(*choices):
        sets = [set(p) for p in picked]
        mass = sum(
            v
            for k, v in block.entries.items()
            if all(k[m] in sets[m] for m in range(block.n_modes))
        )
        size = sum(len(p) for p in picked)
        density = Fraction(mass, size)
        if density > best:
            best = density
    return best


# ---------------------------------------------------------------------------
# Detector oracle: every peel run indexes its block from scratch, and each
# found block is subtracted with the public Block operation. The production
# detector indexes a slice once per call and must return the same blocks.


def mode_masses(block: Block) -> list[dict]:
    """Per-mode map from id to the summed value of entries holding that id."""
    out: list[dict] = [{} for _ in range(block.n_modes)]
    for key, value in block.entries.items():
        for mode, idx in enumerate(key):
            out[mode][idx] = out[mode].get(idx, 0) + value
    return out


def reference_peel(working: Block) -> Block:
    """One greedy run over a freshly indexed block, densest prefix wins."""
    n = working.n_modes
    entries = dict(working.entries)
    masses = mode_masses(working)
    counts: list[dict] = [{} for _ in range(n)]
    postings: list[dict] = [{} for _ in range(n)]
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
        doomed: list = []
        while True:
            top = fresh_top(mode)
            if top is None:
                break
            mass, idx = top
            if mass * size <= total:
                heapq.heappop(h)
                alive[mode].discard(idx)
                doomed.append(idx)
            else:
                break
        if not doomed:
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
    return Block(n, {k: v for k, v in working.entries.items() if k not in removed})


def reference_detect(working: Block, num_blocks: int) -> list[Block]:
    """Up to ``num_blocks`` peel results, each subtracted before the next
    run, densest first with discovery order breaking ties."""
    found: list[Block] = []
    while len(found) < num_blocks and working.nnz:
        block = reference_peel(working)
        found.append(block)
        working = working.subtract(block)
    found.sort(key=lambda b: -(b.mass / b.size))
    return found


# ---------------------------------------------------------------------------
# One-shot splice oracle, written with the public Block operations only, so
# it shares no code with the pair splicer it is compared against.


def restrict(block: Block, allowed) -> Block:
    """Entries of ``block`` whose id on every mode lies in ``allowed[mode]``."""
    return Block(block.n_modes, {
        k: v
        for k, v in block.entries.items()
        if all(k[m] in allowed[m] for m in range(block.n_modes))
    })


def new_id_count(block: Block, target: Block) -> int:
    """Total ids of ``block`` absent from the matching mode of ``target``."""
    return sum(
        len(block.index_sets[m] - target.index_sets[m]) for m in range(block.n_modes)
    )


def required_new_modes(b1: Block, b2: Block) -> tuple:
    """Modes where b1 and b2 share no id: any merge brings a new id on each."""
    return tuple(
        m for m in range(b1.n_modes) if b1.index_sets[m].isdisjoint(b2.index_sets[m])
    )


def _one_new_id(b1: Block, b2: Block, picks: dict) -> Block:
    """Donor entries with id ``picks[m]`` on each picked mode and ids shared
    with b1 everywhere else."""
    allowed = [
        {picks[m]} if m in picks else b1.index_sets[m] for m in range(b1.n_modes)
    ]
    return restrict(b2, allowed)


def enumerate_candidates(b1: Block, b2: Block, q_modes: tuple) -> list:
    """``(new_ids, sub-block)`` for every non-empty donor sub-block with one
    id per forced mode, heaviest first, ties by the id tuple."""
    out = []
    for combo in product(*[b2.sorted_ids(m) for m in q_modes]):
        cand = _one_new_id(b1, b2, dict(zip(q_modes, combo)))
        if not cand.is_empty:
            out.append((combo, cand))
    out.sort(key=lambda c: (-c[1].mass, c[0]))
    return out


def single_new_id_candidates(b1: Block, b2: Block):
    """``((mode, id), sub-block)`` for every donor id unseen by b1, in
    ascending ``(mode, id)`` order; each sub-block adds only that id."""
    for mode in range(b1.n_modes):
        for idx in sorted(b2.index_sets[mode] - b1.index_sets[mode]):
            yield (mode, idx), _one_new_id(b1, b2, {mode: idx})


def empty_q_step(b1: Block, b2: Block) -> tuple:
    """One pass for fully-overlapping blocks.

    1. Entries of b2 indexed entirely by shared ids move into b1 outright.
    2. The heaviest single-new-id sub-block (ties: the smallest
       ``(mode, id)``) merges iff it beats one new id's worth of density.

    Returns the updated pair plus whether step 2 merged.
    """
    shared = restrict(b2, b1.index_sets)
    if not shared.is_empty:
        b1, b2 = b1.union_with(shared), b2.subtract(shared)
    best = max(
        (cand for _, cand in single_new_id_candidates(b1, b2)),
        key=lambda cand: cand.mass,
        default=None,
    )
    if best is not None and best.mass * b1.size > b1.mass:
        return b1.union_with(best), b2.subtract(best), True
    return b1, b2, False


def reference_splice(b1: Block, b2: Block) -> tuple:
    """Literal loop over the one-shot passes; the production splicer must
    land on exactly the same pair of blocks."""
    while not b2.is_empty:
        q_modes = required_new_modes(b1, b2)
        if not q_modes:
            donor_nnz = b2.nnz
            b1, b2, _ = empty_q_step(b1, b2)
            updated = b2.nnz != donor_nnz
        else:
            updated = False
            for _, cand in enumerate_candidates(b1, b2, q_modes):
                if cand.mass * b1.size > new_id_count(cand, b1) * b1.mass:
                    b1, b2 = b1.union_with(cand), b2.subtract(cand)
                    updated = True
                else:
                    break
        if not updated:
            break
    return b1, b2


def family_violations(b1: Block, b2: Block) -> list:
    """Donor sub-blocks of the splice family that would still raise b1.

    The family mirrors the splicer's candidate shapes for the pair's
    current forced modes: one new id per forced mode with every other id
    shared, plus (when nothing is forced) the fully-shared sub-block and
    all single-new-id sub-blocks. Exact integer arithmetic throughout;
    an exhausted splice must leave this list empty.
    """
    if b2.is_empty:
        return []
    g1 = Fraction(b1.mass, b1.size)
    q = required_new_modes(b1, b2)
    if q:
        return [
            (combo, cand.mass)
            for combo, cand in enumerate_candidates(b1, b2, q)
            if cand.mass > len(q) * g1
        ]
    out = []
    shared = restrict(b2, b1.index_sets)
    if not shared.is_empty:
        out.append((("shared",), shared.mass))
    for new_id, cand in single_new_id_candidates(b1, b2):
        if cand.mass > g1:
            out.append((new_id, cand.mass))
    return out


def ordered_pair(a: Block, b: Block) -> tuple[Block, Block]:
    """Denser block first, ties keeping the given order."""
    if a.mass * b.size >= b.mass * a.size:
        return a, b
    return b, a


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
