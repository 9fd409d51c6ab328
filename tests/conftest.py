"""Shared fixtures and independent oracles used across the suite.

The oracles here are deliberately naive (exhaustive enumeration, from
scratch recomputation) so they stay independent of the code paths they
check.
"""

from __future__ import annotations

import heapq
import math
import os
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain, combinations, product
from pathlib import Path

import pytest
from hypothesis import settings

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:  # allow running the suite without installing
    sys.path.insert(0, str(SRC))

from tensorsplice import Block, ShapeMismatch, TensorSpliceError  # noqa: E402
from tensorsplice.blocks import running_sum  # noqa: E402
from tensorsplice.detect import detect_top_blocks  # noqa: E402
from tensorsplice.engine import _order_key  # noqa: E402
from tensorsplice.splice import _denser_first, splice_pair  # noqa: E402

# HYPOTHESIS_PROFILE=ci runs the property tests with ten times their
# examples; without it, every test keeps the count it names.
settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


class NotASubblock(TensorSpliceError):
    """Tried to remove entries the target block does not fully contain."""


def examples(n: int) -> int:
    """``n`` scaled by the loaded profile, against Hypothesis's default 100."""
    return n * settings().max_examples // 100


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


def union(block: Block, addition: Block) -> Block:
    """Per-mode id-set union; colliding entry keys sum their values."""
    if addition.n_modes != block.n_modes:
        raise ShapeMismatch(
            f"cannot merge a {addition.n_modes}-mode block into "
            f"a {block.n_modes}-mode block"
        )
    merged = dict(block.entries)
    for key, value in addition.entries.items():
        merged[key] = merged.get(key, 0) + value
    return Block(block.n_modes, merged)


def subtract(block: Block, removal: Block) -> Block:
    """Remove the given entries; ids left without support are pruned."""
    if removal.n_modes != block.n_modes:
        raise ShapeMismatch(
            f"cannot subtract a {removal.n_modes}-mode block from "
            f"a {block.n_modes}-mode block"
        )
    result = dict(block.entries)
    for key, value in removal.entries.items():
        present = result.get(key)
        if present is None or value > present:
            raise NotASubblock(
                f"entry {key!r} (value {value!r}) is not contained in the block"
            )
        left = present - value
        if left > 0:
            result[key] = left
        else:
            del result[key]
    return Block(block.n_modes, result)


# ---------------------------------------------------------------------------
# CPython 3.12's sum(), in pure Python, so the suite can run the package
# under it on any interpreter. From 3.12 on, sum() adds floats with
# Neumaier compensation; before, it is a left-to-right running sum.

_C_LONG = range(-2**63, 2**63)


def compensated_sum(iterable):
    """Bit for bit what ``sum(iterable)`` returns on CPython 3.12.

    Ints that fit a C long add exactly; floats add with a Neumaier
    compensation term, which joins the total at the end only when it is
    finite; anything else falls back to plain ``+``.
    """
    items = iter(iterable)
    result = 0
    for item in items:
        if type(item) in (int, bool) and item in _C_LONG and result + item in _C_LONG:
            result += item
            continue
        result = result + item
        break
    else:
        return result
    if type(result) is float:
        total, c = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    c += (total - t) + item
                else:
                    c += (item - t) + total
                total = t
            elif isinstance(item, int) and item in _C_LONG:
                total += float(item)
            else:
                if c and math.isfinite(c):
                    total += c
                result = total + item
                break
        else:
            if c and math.isfinite(c):
                total += c
            return total
    for item in items:
        result = result + item
    return result


@contextmanager
def python312_sum():
    """Run the block with ``compensated_sum`` as the ``sum`` of every
    ``tensorsplice`` module; ``builtins`` stays as it is."""
    with pytest.MonkeyPatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if name == "tensorsplice" or name.startswith("tensorsplice."):
                patch.setattr(module, "sum", compensated_sum, raising=False)
        yield


def recomputed_mass(block: Block):
    return running_sum(block.entries.values())


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
        working = subtract(working, block)
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
        b1, b2 = union(b1, shared), subtract(b2, shared)
    best = max(
        (cand for _, cand in single_new_id_candidates(b1, b2)),
        key=lambda cand: cand.mass,
        default=None,
    )
    if best is not None and best.mass * b1.size > b1.mass:
        return union(b1, best), subtract(b2, best), True
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
                    b1, b2 = union(b1, cand), subtract(b2, cand)
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


# ---------------------------------------------------------------------------
# The pair splicer as it was before donors were indexed: every pass scans
# the whole donor. The indexed splicer must return the same entries, in
# the same order, with the same mass bits.


class _RefWorking:
    """Mutable view of a block inside one splice call.

    Stays a read-only alias of its source until the first mutation; after
    that it owns private copies of the entry dict and id sets. ``finish``
    hands back the untouched source or materializes a fresh block.
    """

    __slots__ = ("n", "entries", "sets", "mass", "counts", "owned", "source")

    def __init__(self, block: Block):
        self.n = block.n_modes
        self.entries = block.entries
        self.sets = block.index_sets
        self.mass = block.mass
        self.counts: list[dict[int, int]] | None = None
        self.owned = False
        self.source = block

    @property
    def size(self) -> int:
        return sum(len(s) for s in self.sets)

    def density(self) -> float:
        return self.mass / self.size

    def _own(self) -> None:
        if not self.owned:
            self.entries = dict(self.entries)
            self.sets = [set(s) for s in self.sets]
            self.owned = True

    def absorb(self, added: dict) -> None:
        self._own()
        entries = self.entries
        sets = self.sets
        for key, value in added.items():
            prev = entries.get(key)
            entries[key] = value if prev is None else prev + value
            for mode, idx in enumerate(key):
                sets[mode].add(idx)
        self.mass += running_sum(added.values())
        self.counts = None  # support counts are stale once entries grow

    def shed(self, removed: dict) -> None:
        self._own()
        if self.counts is None:
            counts: list[dict[int, int]] = [{} for _ in range(self.n)]
            for key in self.entries:
                for mode, idx in enumerate(key):
                    counts[mode][idx] = counts[mode].get(idx, 0) + 1
            self.counts = counts
        entries = self.entries
        counts = self.counts
        sets = self.sets
        lost = 0
        for key, value in removed.items():
            present = entries.get(key)
            if present is None or value > present:
                raise NotASubblock(f"entry {key!r} is not contained in the donor")
            left = present - value
            if left > 0:
                entries[key] = left
            else:
                del entries[key]
                for mode, idx in enumerate(key):
                    c = counts[mode][idx] - 1
                    if c:
                        counts[mode][idx] = c
                    else:
                        del counts[mode][idx]
                        sets[mode].discard(idx)
            lost += value
        self.mass -= lost

    def finish(self) -> Block:
        if not self.owned:
            return self.source
        return Block._adopt(self.n, self.entries, self.sets)


def _ref_bucket_by_combo(w1_sets, w2_entries, q_modes, free_modes) -> dict:
    """Group donor entries by their id combination on the forced modes.

    Entries whose ids on non-forced modes are not all shared with the
    target drop out, so only combinations with usable mass materialize.
    """
    buckets: dict[tuple, dict] = {}
    for key, value in w2_entries.items():
        usable = True
        for m in free_modes:
            if key[m] not in w1_sets[m]:
                usable = False
                break
        if not usable:
            continue
        combo = tuple(key[m] for m in q_modes)
        bucket = buckets.get(combo)
        if bucket is None:
            buckets[combo] = {key: value}
        else:
            bucket[key] = value
    return buckets


def _ref_empty_q_drain(w1: _RefWorking, w2: _RefWorking, trace) -> bool:
    """Run fully-overlapping passes to exhaustion without rescanning.

    Equivalent to repeating the one-shot pass while it keeps merging, but
    the donor is classified once: entries with a single unseen id feed a
    lazy max-heap of per-(mode, id) candidates, entries with several are
    parked and re-examined only when one of their ids becomes common.
    Returns once the best candidate fails, the donor runs dry, or some
    mode loses its overlap (the caller then recomputes the forced modes).
    """
    n = w1.n
    moved_any = False
    common = {}
    buckets: dict[tuple[int, int], dict] = {}
    masses: dict[tuple[int, int], int | float] = {}
    parked: dict[tuple[int, int], list] = {}
    heap: list = []

    def enroll(key, value, new_ids):
        bucket_key = new_ids[0]
        bucket = buckets.get(bucket_key)
        if bucket is None:
            buckets[bucket_key] = {key: value}
            masses[bucket_key] = value
        elif key not in bucket:
            bucket[key] = value
            masses[bucket_key] += value
        heapq.heappush(heap, (-masses[bucket_key], bucket_key))

    def unseen_ids(key):
        found = []
        for m in range(n):
            idx = key[m]
            if idx not in w1.sets[m]:
                found.append((m, idx))
        return found

    for key, value in w2.entries.items():
        new_ids = unseen_ids(key)
        if not new_ids:
            common[key] = value
        elif len(new_ids) == 1:
            enroll(key, value, new_ids)
        else:
            # Parked under every unseen id once; an id turning common
            # triggers a re-check, the other registrations stay put.
            for bucket_key in new_ids:
                parked.setdefault(bucket_key, []).append(key)

    # Shared entries bring no new id, so absorbing them after the scan
    # leaves every other entry's classification unchanged.
    if common:
        before = w1.density()
        w1.absorb(common)
        w2.shed(common)
        moved_any = True
        if trace is not None:
            trace.append((before, w1.density()))

    while buckets and heap:
        neg_mass, bucket_key = heapq.heappop(heap)
        current = masses.get(bucket_key)
        if current is None or -neg_mass != current:
            continue  # merged away or superseded by a grown mass
        if current * w1.size <= w1.mass:  # single new id: q is 1
            break
        entries = buckets.pop(bucket_key)
        del masses[bucket_key]
        before = w1.density()
        w1.absorb(entries)
        w2.shed(entries)
        moved_any = True
        if trace is not None:
            trace.append((before, w1.density()))
        for key in parked.pop(bucket_key, ()):
            value = w2.entries.get(key)
            if value is not None:
                still_new = unseen_ids(key)
                if len(still_new) == 1:
                    enroll(key, value, still_new)
        if not w2.entries:
            break
        if any(w1.sets[m].isdisjoint(w2.sets[m]) for m in range(n)):
            break  # overlap lost on some mode, forced modes changed
    return moved_any


def _ref_splice_workings(w1: _RefWorking, w2: _RefWorking, trace) -> None:
    n = w1.n
    while w2.entries:
        updated = False
        q_modes = tuple(
            m for m in range(n) if w1.sets[m].isdisjoint(w2.sets[m])
        )
        if not q_modes:
            updated = _ref_empty_q_drain(w1, w2, trace)
        else:
            free_modes = [m for m in range(n) if m not in q_modes]
            buckets = _ref_bucket_by_combo(w1.sets, w2.entries, q_modes, free_modes)
            heap = [(-running_sum(e.values()), combo) for combo, e in buckets.items()]
            heapq.heapify(heap)
            while heap:
                neg_mass, combo = heapq.heappop(heap)
                entries = buckets[combo]
                # Earlier merges this pass may have made some of this
                # candidate's ids common, so recount before testing.
                q_now = 0
                for m in range(n):
                    seen = w1.sets[m]
                    for idx in {key[m] for key in entries}:
                        if idx not in seen:
                            q_now += 1
                if -neg_mass * w1.size > q_now * w1.mass:
                    before = w1.density() if trace is not None else 0.0
                    w1.absorb(entries)
                    w2.shed(entries)
                    updated = True
                    if trace is not None:
                        trace.append((before, w1.density()))
                else:
                    break
        if not updated:
            break


def reference_splice_pair(b1: Block, b2: Block, trace: list | None = None) -> tuple:
    """Splice donor b2 into target b1; preconditions are the caller's."""
    if b2.is_empty:
        return b1, b2
    w1, w2 = _RefWorking(b1), _RefWorking(b2)
    _ref_splice_workings(w1, w2, trace)
    return w1.finish(), w2.finish()


def ordered_pair(a: Block, b: Block) -> tuple[Block, Block]:
    """Denser block first, ties keeping the given order."""
    if a.mass * b.size >= b.mass * a.size:
        return a, b
    return b, a


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def count_calls(monkeypatch, module, name: str, keep_args: bool = True) -> list:
    """Wrap ``module.name`` for one test; the returned list collects the
    positional arguments of every call, or ``None`` for each call without
    ``keep_args``, so the arguments can be freed."""
    original = getattr(module, name)
    calls: list = []

    def counted(*args):
        calls.append(args if keep_args else None)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def reference_sweep(retained: list, slice_, cfg) -> list:
    """The blocks ``engine.step`` retains, without its sterile-pair memo:
    every sweep splices every pair again."""
    pool = list(retained)
    if slice_.nnz:
        pool += detect_top_blocks(slice_, cfg.pool_size)
    for _ in range(cfg.max_epochs):
        pool.sort(key=_order_key)
        changed = False
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                a, b = pool[i], pool[j]
                if a.is_empty or b.is_empty:
                    continue
                if _denser_first(a, b):
                    new_a, new_b = splice_pair(a, b)
                else:
                    new_b, new_a = splice_pair(b, a)
                if new_a is not a or new_b is not b:
                    changed = True
                    pool[i], pool[j] = new_a, new_b
        pool = [blk for blk in pool if not blk.is_empty]
        if not changed:
            break
    pool.sort(key=_order_key)
    return pool[: cfg.pool_size]

