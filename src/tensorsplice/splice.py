"""Move mass between two blocks whenever doing so raises density.

Given a denser target block and a donor block, a merge of a donor
sub-block with mass m that introduces q previously-unseen ids raises the
target's density exactly when ``m > q * target_density``. The pair
splicer applies this test greedily: it first determines the modes forced
to contribute new ids (the modes where the blocks share none), groups
the donor's entries into sub-blocks adding exactly one new id per such
mode, and merges them largest mass first while the test keeps passing.
When every mode already overlaps, entries fully covered by shared ids
move for free and one-new-id sub-blocks merge best first: a drain. The
loop repeats until a pass moves nothing or a drain is final.

A donor is read through its splice index, built the first time the block
is spliced and cached on it: per-mode postings from each id to its entry
keys in entry order, and an upper bound ``vmax`` on its entry values.
Each pass starts from one list, the ids the two blocks share on each
mode: the forced modes are those where it is empty, and it feeds both
the bound below and the walk of the donor. Every pass with
forced modes tries sub-blocks with one new id per forced mode, and an
entry-free bound on the heaviest one comes first. Its entries take every
other id from the shared ids, so it holds at most one entry per
combination of them and weighs at most ``vmax`` times their number,
widened past float rounding; and when no two live donor entries share
their forced-mode ids, it is a single entry of at most ``vmax``. A
forced mode with as many live ids as the donor has entries shows the
latter, so with one forced mode the bound reads no entry. When either
weight fails the test, the pass would merge nothing and the call ends
before the donor is walked.

A forced pass that goes on visits only entries that can survive the
shared-id filter: those reached through the shared ids of the cheapest
free mode, or the whole donor when that walk would cost as much. It
groups them by combination, and a candidate of several keys is read back
in entry order from its first forced id's postings. A drain scans the
donor once in entry order. So every mass is added up in entry order by
the one summation rule, ``running_sum`` in ``blocks.py``, and merges and
masses match a scan of the whole donor exactly. A drain that merged ends
the splice unless a mode lost its overlap or the donor holds a float
(see ``_empty_q_drain``).

Nothing is recounted per merge. The target keeps its mass and size as it
merges, and each merge names the ids it adds: none for shared entries, a
bucket's one id in a drain, the forced ids the target still lacks in a
forced pass. The donor's id sets stay exact as entries leave. A mode's
overlap is gone once the two blocks' id counts on it add up to their
union, which moving entries does not change.

A productive splice moves each input's index to the block that replaces
it. Keys a target gains only append to the postings, so a target's
update never re-reads them. The donor's live id counts are the record of
what left: an id at count 0 loses its postings, and only the others are
filtered back to live keys. The input's cache is cleared and rebuilt if
that block is ever spliced again.

All density comparisons are cross-multiplied so integer-valued blocks are
handled exactly. The pair splicer works on copy-on-write state, so a
sterile pair returns the original block objects and a productive one pays
for its copies once, not per merge.
"""

from __future__ import annotations

import heapq
from operator import itemgetter

from .blocks import Block, running_sum
from .errors import DegenerateBlock, PreconditionViolated, ShapeMismatch


def splice_condition(candidate_mass, q_total, mass, size) -> bool:
    """True when merging mass ``candidate_mass`` that brings ``q_total``
    new ids into a block of this ``mass`` and ``size`` strictly raises its density."""
    return candidate_mass * size > q_total * mass


def _denser_first(a: Block, b: Block) -> bool:
    """True when a qualifies as the splice target against b (exact compare)."""
    return a.mass * b.size >= b.mass * a.size


# ---------------------------------------------------------------------------
# Donor index


class _SpliceIndex:
    """One block's entries indexed for reading the block as a donor.

    ``postings[m][id]`` lists the keys holding ``id`` on mode ``m`` in
    entry order, as a fresh build would, and ``vmax`` is at least the
    block's largest entry value. That is all it holds: a reader that
    reaches keys out of entry order reads them back from the postings.
    """

    __slots__ = ("postings", "vmax")

    def __init__(self, block: Block):
        entries = block.entries
        self.postings: list[dict[int, list]] = []
        for mode in range(block.n_modes):
            postings: dict[int, list] = {}
            for key in entries:
                keys = postings.get(key[mode])
                if keys is None:
                    postings[key[mode]] = [key]
                else:
                    keys.append(key)
            self.postings.append(postings)
        self.vmax = max(entries.values())

    def rules_out_by_shared_ids(self, donor: _Working, q_modes: tuple, shared, mass, size) -> bool:
        """True when no sub-block of the live ``donor`` with one new id on
        each forced mode can raise a target of this mass and size, where
        ``shared[m]`` holds the ids both blocks hold on mode ``m``.

        Such a sub-block's entries share their forced-mode ids and, to be
        usable, take every other id from ``shared``, so it has at most one
        entry per combination of those shared ids, each weighing at most
        ``vmax``: the first clause bounds it by ``vmax`` times their number.
        The second clause holds when a single entry of ``vmax`` fails and
        no two live entries share their forced-mode ids, so that every
        candidate is one entry of at most ``vmax``. A forced mode with as
        many live ids as entries settles that, and with one forced mode it
        is the whole test; only several forced modes may read the entries.
        """
        combos = 1
        for ids in shared:
            if ids:
                combos *= len(ids)
        heaviest = self.vmax * combos
        nnz = len(donor.entries)
        if not isinstance(donor.source.mass, int):  # the donor holds a float value
            # Any float sum of at most nnz positive values, in any order,
            # is within a relative nnz * 2**-53 of the exact sum; widen the
            # bound past the error of both it and the candidate's own sum.
            heaviest *= 1 + (nnz + 1) * 2.0**-50
        q = len(q_modes)
        if not splice_condition(heaviest, q, mass, size):
            return True
        if splice_condition(self.vmax, q, mass, size):
            return False
        if any(len(donor.sets[m]) == nnz for m in q_modes):
            return True
        return q > 1 and len(set(map(itemgetter(*q_modes), donor.entries))) == nnz

    def update(self, entries: dict, held: dict, moved: list, counts: list) -> None:
        """Re-index after the dicts in ``moved`` were summed into or taken
        out of the entries ``held``, giving ``entries``; ``counts[m]`` holds
        the live entry count of every id on mode ``m`` that lost a key."""
        postings = self.postings
        vmax = self.vmax
        for changed in moved:
            for key in changed:
                value = entries.get(key)
                if value is None:
                    continue
                if value > vmax:
                    vmax = value
                if key not in held:
                    for mode, idx in enumerate(key):
                        postings[mode].setdefault(idx, []).append(key)
        for mode_postings, mode_counts in zip(postings, counts):
            for idx, count in mode_counts.items():
                if count:
                    mode_postings[idx] = [key for key in mode_postings[idx] if key in entries]
                else:
                    del mode_postings[idx]
        self.vmax = vmax


# ---------------------------------------------------------------------------
# Copy-on-write working state


class _Working:
    """Mutable view of a block inside one splice call.

    Stays a read-only alias of its source until the first mutation; after
    that it owns private copies of the entry dict and id sets. Only a
    target keeps ``mass`` and ``size`` current, as only they are tested,
    and a merge tells it the ids it gains. A donor keeps ``counts``, per
    mode the live entry count of every id a shed touched, so its ``sets``
    stay exact. ``finish`` hands back the untouched source or materializes
    a fresh block, moving the source's index to it. A donor's postings are
    not updated until then, so a walk skips keys already gone.
    """

    __slots__ = ("n", "entries", "sets", "mass", "size", "source", "index", "moved", "counts")

    def __init__(self, block: Block, index: _SpliceIndex | None):
        self.n = block.n_modes
        self.entries = block.entries
        self.sets = block.index_sets
        self.mass = block.mass
        self.size = block.size
        self.source = block
        self.index = index
        self.moved: list[dict] = []  # dicts absorbed or shed, in order
        self.counts: list[dict[int, int]] = [{} for _ in range(self.n)]

    def _own(self) -> None:
        if self.entries is self.source.entries:
            self.entries = dict(self.entries)
            self.sets = [set(s) for s in self.sets]

    def absorb(self, added: dict, new_ids) -> None:
        """Sum ``added`` into the entries, where a key already held adds
        its value, and add ``new_ids``: the ``(mode, id)`` pairs of
        ``added`` that the block does not hold yet."""
        self._own()
        entries = self.entries
        for key, value in added.items():
            prev = entries.get(key)
            entries[key] = value if prev is None else prev + value
        sets = self.sets
        for mode, idx in new_ids:
            sets[mode].add(idx)
        self.size += len(new_ids)
        self.mass += running_sum(added.values())
        self.moved.append(added)

    def shed(self, removed: dict) -> None:
        """Remove donor entries, passed with their full values."""
        self._own()
        entries = self.entries
        counts = self.counts
        postings = self.index.postings
        sets = self.sets
        for key in removed:
            del entries[key]
            for mode, idx in enumerate(key):
                count = counts[mode].get(idx)
                if count is None:
                    # First removal under this id, so its postings are exact.
                    count = len(postings[mode][idx])
                count -= 1
                counts[mode][idx] = count
                if not count:
                    sets[mode].discard(idx)
        self.moved.append(removed)

    def finish(self) -> Block:
        if self.entries is self.source.entries:
            return self.source
        block = Block._adopt(self.n, self.entries, self.sets)
        index = self.index
        if index is not None:
            self.source._index = None
            if block.entries:
                index.update(block.entries, self.source.entries, self.moved, self.counts)
                block._index = index
        return block


def _merge(w1: _Working, w2: _Working, entries: dict, new_ids, trace) -> None:
    """Move donor ``entries``, which bring the target ``new_ids``, into
    the target, tracing the density change."""
    before = w1.mass / w1.size if trace is not None else 0.0
    w1.absorb(entries, new_ids)
    w2.shed(entries)
    if trace is not None:
        trace.append((before, w1.mass / w1.size))


def _reached(shared, w2: _Working, modes):
    """Live donor keys holding a ``shared`` id on the cheapest of ``modes``,
    in walk order, or the donor's entry dict when no mode is given or each
    walk would visit at least as many postings as the donor has keys."""
    entries = w2.entries
    postings = w2.index.postings
    best = None
    cheapest = len(entries)
    for mode in modes:
        mode_postings = postings[mode]
        cost = sum([len(mode_postings[idx]) for idx in shared[mode]])
        if cost < cheapest:
            best, cheapest = mode, cost
    if best is None:
        return entries
    mode_postings = postings[best]
    return [key for idx in shared[best] for key in mode_postings[idx] if key in entries]


def _forced_pass(w1: _Working, w2: _Working, q_modes: tuple, shared, trace) -> bool:
    """One pass with forced modes: merge candidates heaviest first, ties
    by combination, while the merge test passes.

    A candidate is the donor entries sharing one id combination on the
    forced modes whose other ids the target already holds. One walk groups
    them; a walk through postings reaches them out of entry order, so a
    candidate of several keys is read back from its first forced id's
    postings, which hold every live key as a call never updates them.
    """
    entries = w2.entries
    free = [(m, ids) for m, ids in enumerate(shared) if ids]
    combo_of = itemgetter(*q_modes)  # a bare id when one mode is forced
    firsts: dict = {}
    spread: dict = {}  # the keys of the combinations seen twice
    reached = _reached(shared, w2, [m for m, _ in free])
    for key in reached:
        for m, seen in free:
            if key[m] not in seen:
                break
        else:
            combo = combo_of(key)
            first = firsts.get(combo)
            if first is None:
                firsts[combo] = key
            else:
                keys = spread.get(combo)
                if keys is None:
                    spread[combo] = [first, key]
                else:
                    keys.append(key)
    if reached is not entries:
        postings = w2.index.postings[q_modes[0]]
        for combo, keys in spread.items():
            found = set(keys)
            first_id = combo if len(q_modes) == 1 else combo[0]
            spread[combo] = [key for key in postings[first_id] if key in found]
    heap = []
    for combo, key in firsts.items():
        keys = spread.get(combo)
        mass = entries[key] if keys is None else running_sum([entries[k] for k in keys])
        heap.append((-mass, combo))
    heapq.heapify(heap)
    merged = False
    while heap:
        neg_mass, combo = heapq.heappop(heap)
        ids = (combo,) if len(q_modes) == 1 else combo
        # Earlier merges this pass may have made some of these ids common.
        new_ids = [(m, idx) for m, idx in zip(q_modes, ids) if idx not in w1.sets[m]]
        if not splice_condition(-neg_mass, len(new_ids), w1.mass, w1.size):
            break
        keys = spread.get(combo) or (firsts[combo],)
        _merge(w1, w2, {key: entries[key] for key in keys}, new_ids, trace)
        merged = True
    return merged


def _empty_q_drain(w1: _Working, w2: _Working, shared, trace) -> bool:
    """Run fully-overlapping passes to exhaustion without rescanning, and
    return whether the splice must go on.

    The donor is classified once, in entry order: entries with a single
    unseen id feed a lazy max-heap of per-(mode, id) buckets, and those
    with several wait until one of their ids becomes common, when a walk
    of that id's postings re-examines them. Stops once the best bucket
    fails or none is left, or a mode loses its overlap, as every mode does
    once the donor runs dry: the two blocks' id counts on it add up to
    their union, taken once from ``shared``. A drain that merged is final, since on ints
    a fresh one would find no shared entry and the same buckets at the same
    masses, unless the forced modes changed or the donor holds a float: a
    re-walk adds keys to a bucket out of entry order, and its float sum
    can round apart from a fresh one (``1 + 1e16 + 1``).
    """
    n = w1.n
    postings = w2.index.postings
    common = {}
    buckets: dict[tuple[int, int], dict] = {}
    masses: dict[tuple[int, int], int | float] = {}

    def enroll(key, value, bucket_key):
        # The bucket's id is the key's one unseen id, and it is seen only
        # once the bucket merges, so no key is enrolled twice.
        bucket = buckets.get(bucket_key)
        if bucket is None:
            buckets[bucket_key] = {key: value}
            masses[bucket_key] = value
        else:
            bucket[key] = value
            masses[bucket_key] += value

    unions = [len(a) + len(b) - len(ids) for a, b, ids in zip(w1.sets, w2.sets, shared)]

    def lost_overlap() -> bool:
        return any(len(a) + len(b) == u for a, b, u in zip(w1.sets, w2.sets, unions))

    sets = w1.sets  # the target's sets until its first merge copies them
    for key, value in w2.entries.items():
        new_id = None
        for m in range(n):
            if key[m] not in sets[m]:
                if new_id is not None:
                    break  # a second unseen id
                new_id = (m, key[m])
        else:
            if new_id is None:
                common[key] = value
            else:
                enroll(key, value, new_id)
    heap = [(-mass, bucket_key) for bucket_key, mass in masses.items()]
    heapq.heapify(heap)

    # Shared entries bring no new id, so absorbing them after the scan
    # leaves every other entry's classification unchanged.
    if common:
        _merge(w1, w2, common, (), trace)
    merged = bool(common)

    while buckets and heap:
        neg_mass, bucket_key = heapq.heappop(heap)
        current = masses.get(bucket_key)
        if current is None or -neg_mass != current:
            continue  # merged away or superseded by a grown mass
        if not splice_condition(current, 1, w1.mass, w1.size):  # one new id
            break
        entries = buckets.pop(bucket_key)
        del masses[bucket_key]
        _merge(w1, w2, entries, (bucket_key,), trace)
        merged = True
        mode, idx = bucket_key
        for key in postings[mode][idx]:
            value = w2.entries.get(key)
            if value is not None:
                new_ids = [(m, key[m]) for m in range(n) if key[m] not in w1.sets[m]]
                if len(new_ids) == 1:
                    enroll(key, value, new_ids[0])
                    heapq.heappush(heap, (-masses[new_ids[0]], new_ids[0]))
        if lost_overlap():
            return True
    # The merge of shared entries alone can take a mode's overlap.
    return merged and (lost_overlap() or not isinstance(w2.source.mass, int))


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
    if b1 is b2:
        raise PreconditionViolated("cannot splice a block into itself")
    if b1.n_modes != b2.n_modes:
        raise ShapeMismatch(f"{b1.n_modes}-mode vs {b2.n_modes}-mode blocks")
    if b2.is_empty:
        return b1, b2
    if b1.is_empty:
        raise DegenerateBlock("splice target is empty")
    if not _denser_first(b1, b2):
        raise PreconditionViolated("splice target must be at least as dense as donor")
    index = b2._index
    if index is None:
        index = b2._index = _SpliceIndex(b2)
    w1 = _Working(b1, b1._index)
    w2 = _Working(b2, index)
    while w2.entries:
        shared = [mine & theirs for mine, theirs in zip(w1.sets, w2.sets)]
        q_modes = tuple(m for m, ids in enumerate(shared) if not ids)
        if not q_modes:
            more = _empty_q_drain(w1, w2, shared, trace)
        elif index.rules_out_by_shared_ids(w2, q_modes, shared, w1.mass, w1.size):
            break  # even the heaviest candidate fails: the pass merges nothing
        else:
            more = _forced_pass(w1, w2, q_modes, shared, trace)
        if not more:
            break
    return w1.finish(), w2.finish()
