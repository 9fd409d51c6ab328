"""Move mass between two blocks whenever doing so raises density.

Given a denser target block and a donor block, a merge of a donor
sub-block with mass m that introduces q previously-unseen ids raises the
target's density exactly when ``m > q * target_density``. The pair
splicer applies this test greedily: it first determines the modes forced
to contribute new ids (the modes where the blocks share none), buckets
the donor's entries into sub-blocks adding exactly one new id per such
mode, and merges them largest mass first while the test keeps passing.
When every mode already overlaps, entries fully covered by shared ids
move for free and a single best one-new-id sub-block is tried. The loop
repeats until a full pass moves nothing.

All density comparisons are cross-multiplied so integer-valued blocks are
handled exactly. The pair splicer works on copy-on-write state, so a
sterile pair returns the original block objects and a productive one pays
for its copies once, not per merge.
"""

from __future__ import annotations

import heapq

from .blocks import Block
from .errors import DegenerateBlock, NotASubblock, PreconditionViolated, ShapeMismatch


def splice_condition(candidate_mass, q_total, g1) -> bool:
    """True when merging mass ``candidate_mass`` that brings ``q_total``
    new ids into a block of density ``g1`` strictly raises that density."""
    return candidate_mass > q_total * g1


# ---------------------------------------------------------------------------
# Copy-on-write working state


class _Working:
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
        self.mass += sum(added.values())
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
        return Block._from_parts(self.n, self.entries, self.sets)


def _bucket_by_combo(w1_sets, w2_entries, q_modes, free_modes) -> dict:
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


def _empty_q_drain(w1: _Working, w2: _Working, trace) -> bool:
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


def _splice_workings(w1: _Working, w2: _Working, trace) -> None:
    n = w1.n
    while w2.entries:
        updated = False
        q_modes = tuple(
            m for m in range(n) if w1.sets[m].isdisjoint(w2.sets[m])
        )
        if not q_modes:
            updated = _empty_q_drain(w1, w2, trace)
        else:
            free_modes = [m for m in range(n) if m not in q_modes]
            buckets = _bucket_by_combo(w1.sets, w2.entries, q_modes, free_modes)
            heap = [(-sum(e.values()), combo) for combo, e in buckets.items()]
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


# ---------------------------------------------------------------------------
# Public operations


def splice_pair(
    b1: Block, b2: Block, trace: list | None = None
) -> tuple[Block, Block]:
    """Splice donor b2 into target b1 until no profitable move remains.

    Requires density(b1) >= density(b2). Total mass is conserved; the
    returned target is at least as dense as the input one and the donor
    may come back empty. When nothing merges, the inputs come back as the
    same objects. ``trace``, when given, collects a ``(density_before,
    density_after)`` pair for every individual merge.
    """
    if b1.n_modes != b2.n_modes:
        raise ShapeMismatch(f"{b1.n_modes}-mode vs {b2.n_modes}-mode blocks")
    if b2.is_empty:
        return b1, b2
    if b1.is_empty:
        raise DegenerateBlock("splice target is empty")
    if b1.mass * b2.size < b2.mass * b1.size:
        raise PreconditionViolated("splice target must be at least as dense as donor")
    w1, w2 = _Working(b1), _Working(b2)
    _splice_workings(w1, w2, trace)
    return w1.finish(), w2.finish()
