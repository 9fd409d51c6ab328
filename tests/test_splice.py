import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tensorsplice import (
    Block,
    DegenerateBlock,
    Event,
    PreconditionViolated,
    ShapeMismatch,
    TensorSlice,
    detect_top_blocks,
    splice_condition,
    splice_pair,
)
import tensorsplice.splice
from tensorsplice.blocks import running_sum
from tensorsplice.splice import _SpliceIndex, _Working
from conftest import (
    count_calls,
    empty_q_step,
    enumerate_candidates,
    examples,
    family_violations,
    mk,
    new_id_count,
    ordered_pair,
    python312_sum,
    random_block,
    recomputed_size,
    reference_splice,
    reference_splice_pair,
    required_new_modes,
    union,
)


class TestSpliceCondition:
    def test_profitable(self):
        assert splice_condition(5, 2, 4, 2)

    def test_boundary_is_not_profitable(self):
        # Exactly q * density keeps the ratio unchanged, so no merge.
        assert not splice_condition(4, 2, 4, 2)
        assert not splice_condition(2**53 + 1, 1, 2**53 + 1, 1)

    def test_no_new_ids_any_positive_mass_wins(self):
        assert splice_condition(1, 0, 123, 1)

    def test_matches_actual_density_rise(self):
        b1 = mk({(0, 0, 0): 4, (1, 1, 0): 4, (2, 0, 0): 4})  # mass 12, size 6
        extra = mk({(0, 5, 1): 3, (1, 5, 1): 2})  # mass 5, new ids o=5 and t=1
        q = sum(len(extra.index_sets[m] - b1.index_sets[m]) for m in range(3))
        assert q == 2
        merged = union(b1, extra)
        assert merged.density == pytest.approx(17 / 8)
        assert splice_condition(extra.mass, q, b1.mass, b1.size) == (
            merged.density > b1.density
        )


class TestRequiredNewModes:
    def test_disjoint_only_on_time(self):
        b1 = mk({(1, 5, 0): 1, (2, 5, 0): 1})
        b2 = mk({(1, 5, 1): 1})
        assert required_new_modes(b1, b2) == (2,)

    def test_full_overlap(self):
        b1 = mk({(1, 5, 0): 1})
        b2 = mk({(1, 5, 0): 2})
        assert required_new_modes(b1, b2) == ()

    def test_disjoint_everywhere(self):
        b1 = mk({(0, 0, 0): 1})
        b2 = mk({(1, 1, 1): 1})
        assert required_new_modes(b1, b2) == (0, 1, 2)


class TestEnumerateCandidates:
    def test_two_time_candidates_ordered_by_mass(self):
        b1 = mk({(0, 0, 0): 4, (1, 1, 0): 4})
        b2 = mk({(0, 0, 1): 3, (1, 1, 2): 5})
        cands = enumerate_candidates(b1, b2, required_new_modes(b1, b2))
        assert [(ids, block.mass) for ids, block in cands] == [((2,), 5), ((1,), 3)]
        assert [new_id_count(block, b1) for _, block in cands] == [1, 1]

    def test_no_overlapping_support_means_empty_heap(self):
        # Time is the only forced mode, but every donor entry carries an
        # unseen user or object id, so nothing survives the filter.
        b1 = mk({(0, 0, 0): 4})
        b2 = mk({(0, 8, 1): 3, (9, 0, 2): 5})
        q_modes = required_new_modes(b1, b2)
        assert q_modes == (2,)
        assert enumerate_candidates(b1, b2, q_modes) == []

    def test_combination_count_bounded_by_product(self):
        b1 = mk({(0, 0, 0): 4})
        b2 = mk(
            {(0, 5, 1): 1, (0, 6, 1): 1, (0, 5, 2): 1, (0, 6, 2): 1},
        )  # two new o ids x two new t ids
        assert len(enumerate_candidates(b1, b2, required_new_modes(b1, b2))) <= 4

    def test_new_index_counts_recomputable(self):
        # Each candidate adds exactly one id on every forced mode and none
        # elsewhere, so its new-id count is the number of forced modes.
        b1 = mk({(0, 0, 0): 4, (1, 1, 0): 4})
        b2 = mk({(0, 0, 1): 3, (1, 0, 2): 5})
        q_modes = required_new_modes(b1, b2)
        cands = enumerate_candidates(b1, b2, q_modes)
        assert cands
        for _, block in cands:
            counts = [len(block.index_sets[m] - b1.index_sets[m]) for m in range(3)]
            assert counts == [int(m in q_modes) for m in range(3)]
            assert new_id_count(block, b1) == len(q_modes)


class TestEmptyQStep:
    def test_shared_entries_move_for_free(self):
        b1 = mk({(0, 0, 0): 12})
        b2 = mk({(0, 0, 0): 2, (5, 0, 0): 1})
        r1, r2, progressed = empty_q_step(b1, b2)
        assert r1.entries[(0, 0, 0)] == 14
        assert (0, 0, 0) not in r2.entries
        assert r1.density > b1.density
        assert not progressed  # the lone new-user candidate is too light

    def test_all_candidates_fail(self):
        b1 = mk({(0, 0, 0): 12})  # density 4
        b2 = mk({(0, 0, 0): 2, (5, 0, 0): 3, (0, 7, 0): 4, (0, 0, 9): 2})
        r1, r2, progressed = empty_q_step(b1, b2)
        assert not progressed
        # Aside from the shared entry, nothing moved.
        assert r2.entries == {(5, 0, 0): 3, (0, 7, 0): 4, (0, 0, 9): 2}
        assert r1.mass == 14

    def test_max_mass_mode_wins(self):
        # Per-mode best single-new-id sub-blocks: user 3, object 7, time 5;
        # object beats the one-new-id bar against density 4.
        b1 = mk({(0, 0, 0): 12})
        b2 = mk(
            {
                (5, 0, 0): 2,
                (6, 0, 0): 3,
                (0, 7, 0): 7,
                (0, 8, 0): 1,
                (0, 0, 9): 5,
                (0, 0, 10): 2,
                (6, 8, 0): 9,
                (5, 7, 10): 4,
                (6, 0, 9): 6,
            }
        )
        r1, r2, progressed = empty_q_step(b1, b2)
        assert progressed
        assert r1.entries == {(0, 0, 0): 12, (0, 7, 0): 7}
        assert r1.density == pytest.approx(19 / 4)
        assert (0, 7, 0) not in r2.entries


class TestSplicePair:
    def test_empty_donor_untouched(self):
        b1 = mk({(0, 0, 0): 5})
        b2 = Block(3)
        r1, r2 = splice_pair(b1, b2)
        assert r1 is b1 and r2 is b2

    def test_empty_target_rejected(self):
        with pytest.raises(DegenerateBlock):
            splice_pair(Block(3), mk({(0, 0, 0): 1}))

    def test_target_must_be_denser(self):
        light = mk({(0, 0, 0): 1, (1, 1, 1): 1})
        heavy = mk({(0, 0, 0): 9})
        with pytest.raises(PreconditionViolated):
            splice_pair(light, heavy)

    def test_block_cannot_splice_into_itself(self):
        b = mk({(0, 0, 0): 2, (1, 1, 0): 1})
        with pytest.raises(PreconditionViolated, match="into itself"):
            splice_pair(b, b)
        assert b.entries == {(0, 0, 0): 2, (1, 1, 0): 1} and b.mass == 3

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            splice_pair(mk({(0, 0, 0): 1}), Block(4, {(0, 0, 0, 0): 1}))

    def test_staged_merge_scenario(self):
        # The donor first contributes time-disjoint sub-blocks, then, once
        # every mode overlaps, new ids arrive on object, time and user in
        # max-mass order. Light three-new-id filler never qualifies.
        b1 = mk({(u, o, 0): 13 for u in (0, 1) for o in (0, 1)})  # g = 10.4
        fillers = {
            (8, 9, 4): 1, (9, 8, 4): 1, (8, 8, 4): 1,
            (9, 9, 4): 1, (10, 9, 4): 1, (9, 10, 4): 1,
        }
        b2 = mk(
            {
                (0, 0, 1): 9, (1, 1, 1): 9,          # time-1 sub-block, mass 18
                (0, 1, 2): 8, (1, 0, 2): 8,          # time-2 sub-block, mass 16
                (0, 5, 1): 35, (1, 5, 2): 25,        # object-5 sub-block, mass 60
                (0, 5, 3): 30,                       # unlocks after object 5 lands
                (7, 0, 1): 26,                       # user-7 sub-block
                **fillers,
            }
        )
        assert b1.density >= b2.density
        trace = []
        r1, r2 = splice_pair(b1, b2, trace)

        assert r1.mass == 202 and r1.size == 10
        assert r1.density == pytest.approx(20.2)
        assert [r1.sorted_ids(m) for m in range(3)] == [
            [0, 1, 7], [0, 1, 5], [0, 1, 2, 3],
        ]
        assert r2.entries == fillers
        assert r1.mass + r2.mass == 52 + 156  # conserved
        densities = [after for _, after in trace]
        assert densities == sorted(densities)
        assert all(after > before for before, after in trace)
        assert family_violations(r1, r2) == []

    def test_merge_unlocks_entries_with_two_new_ids(self):
        # Every mode overlaps throughout (the light (2, 0, 1) keeps object 0
        # in the donor). Merging user 1 leaves (1, 1, 0) with a single new
        # id, object 1, which lifts that candidate from 5 to 15, ahead of
        # object 2's 13. Merging object 1 first leaves 13 exactly at the bar.
        b1 = mk({(0, 0, 0): 30})
        b2 = mk({
            (1, 0, 0): 20, (1, 1, 0): 10, (0, 1, 0): 5, (0, 2, 0): 13, (2, 0, 1): 1,
        })
        r1, r2 = splice_pair(b1, b2)
        assert list(r1.entries.items()) == [
            ((0, 0, 0), 30), ((1, 0, 0), 20), ((0, 1, 0), 5), ((1, 1, 0), 10),
        ]
        assert r2.entries == {(0, 2, 0): 13, (2, 0, 1): 1}
        assert (r1, r2) == reference_splice(b1, b2)

    def test_fully_disjoint_single_heavy_entry(self):
        # With every mode forced, each donor entry stands alone and needs
        # mass above three new ids' worth.
        b1 = mk({(0, 0, 0): 9})  # density 3
        b2 = mk({(5, 5, 5): 10, (6, 6, 6): 2})
        r1, r2 = splice_pair(b1, b2)
        assert (5, 5, 5) in r1.entries  # 10 > 3 * 3
        assert (6, 6, 6) in r2.entries  # 2 is below the (risen) bar

    def test_mass_conservation_random(self):
        rng = random.Random(31)
        for _ in range(200):
            a, b = ordered_pair(random_block(rng), random_block(rng))
            r1, r2 = splice_pair(a, b)
            assert r1.mass + r2.mass == a.mass + b.mass

    def test_traced_merges_strictly_raise_density(self):
        rng = random.Random(37)
        for _ in range(200):
            a, b = ordered_pair(random_block(rng), random_block(rng))
            trace = []
            r1, _ = splice_pair(a, b, trace)
            for before, after in trace:
                assert after > before
            if trace:
                assert r1.density == pytest.approx(trace[-1][1])

    def test_merge_count_bounded_by_donor_nnz(self):
        rng = random.Random(41)
        for _ in range(200):
            a, b = ordered_pair(random_block(rng), random_block(rng))
            trace = []
            splice_pair(a, b, trace)
            assert len(trace) <= b.nnz

    def test_no_profitable_family_candidate_remains(self):
        rng = random.Random(43)
        for _ in range(150):
            a, b = ordered_pair(random_block(rng), random_block(rng))
            r1, r2 = splice_pair(a, b)
            assert family_violations(r1, r2) == []

    def test_deterministic(self):
        rng = random.Random(47)
        for _ in range(50):
            a, b = ordered_pair(random_block(rng), random_block(rng))
            assert splice_pair(a, b) == splice_pair(a, b)

    def test_float_values_conserved_and_monotone(self):
        rng = random.Random(59)

        def float_block():
            return Block(3, {
                (rng.randrange(3), rng.randrange(3), rng.randrange(3)):
                    rng.random() + 0.05
                for _ in range(rng.randint(1, 6))
            })

        for _ in range(200):
            a, b = ordered_pair(float_block(), float_block())
            trace = []
            r1, r2 = splice_pair(a, b, trace)
            assert (r1.mass + r2.mass) == pytest.approx(a.mass + b.mass)
            for before, after in trace:
                assert after > before


def test_splice_pair_matches_one_shot_reference():
    rng = random.Random(61)
    for n_modes in (3, 4):
        for trial in range(300):
            a, b = ordered_pair(
                random_block(rng, n_modes=n_modes, max_entries=10),
                random_block(rng, n_modes=n_modes, max_entries=10),
            )
            got = splice_pair(a, b)
            want = reference_splice(a, b)
            assert got == want, f"{n_modes} modes, trial {trial}: {got} != {want}"


def test_theorem_equivalence_randomized():
    # Density rises under a merge exactly when the mass beats the new-id
    # bar, in exact arithmetic, whatever the blocks look like.
    rng = random.Random(53)
    for _ in range(1000):
        base = random_block(rng)
        extra = random_block(rng)
        q = sum(len(extra.index_sets[m] - base.index_sets[m]) for m in range(3))
        g1 = Fraction(base.mass, base.size)
        merged = union(base, extra)
        rose = Fraction(merged.mass, merged.size) > g1
        assert rose == splice_condition(extra.mass, q, base.mass, base.size)


# ---------------------------------------------------------------------------
# The indexed splicer against the scanning one it replaced

# Integers, floats whose sums round differently in different orders, and a
# single value that ties most candidate masses.
VALUES = {
    "int": st.integers(1, 9),
    "float": st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, 3.3, 1e16]),
    "tie": st.just(1),
}


@st.composite
def block_pools(draw, kinds=tuple(VALUES)):
    """2-5 blocks over 2-4 modes plus a sequence of index pairs to splice,
    with values of one of the ``kinds`` in ``VALUES``.

    Each block's ids on a drawn subset of the modes are shifted by a drawn
    offset, so pairs are often disjoint there, as retained blocks and new
    seeds are in time, and often forced on two or more modes.
    """
    n_modes = draw(st.integers(2, 4))
    values = VALUES[draw(st.sampled_from(sorted(kinds)))]
    max_id = draw(st.integers(1, 4))
    shifted = draw(st.lists(st.booleans(), min_size=n_modes, max_size=n_modes))
    pool = []
    for _ in range(draw(st.integers(2, 5))):
        shift = draw(st.integers(0, 2)) * (max_id + 1)
        cells = draw(st.lists(
            st.tuples(st.tuples(*[st.integers(0, max_id)] * n_modes), values),
            min_size=1, max_size=12,
        ))
        entries: dict = {}
        for key, value in cells:
            key = tuple(idx + shift if on else idx for idx, on in zip(key, shifted))
            entries[key] = entries.get(key, 0) + value
        pool.append(Block(n_modes, entries))
    pairs = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12))
    return pool, pairs


def splice_chain(pool: list, pairs: list):
    """Splice the drawn pairs in turn, feeding results back into the pool,
    so later calls read indices moved by earlier ones. Yields each call's
    ordered inputs and result."""
    for i, j in pairs:
        if len(pool) < 2:
            return
        i, j = i % len(pool), j % len(pool)
        if i == j:
            continue
        a, b = ordered_pair(pool[i], pool[j])
        got = splice_pair(a, b)
        yield a, b, got
        pool[i], pool[j] = got if a is pool[i] else got[::-1]
        pool[:] = [blk for blk in pool if not blk.is_empty]


def exact_view(block: Block):
    """Entries in order and the mass with its type and bits."""
    return list(block.entries.items()), repr(block.mass), block.index_sets


@settings(max_examples=examples(300), deadline=None)
@given(drawn=block_pools())
def test_splice_pair_matches_scanning_reference(drawn):
    pool, pairs = drawn
    for a, b, got in splice_chain(pool, pairs):
        trace: list = []
        want = reference_splice_pair(a, b, trace)
        assert [exact_view(x) for x in got] == [exact_view(x) for x in want]
        assert (got[0] is a, got[1] is b) == (want[0] is a, want[1] is b)
        traced: list = []
        splice_pair(a, b, traced)  # the inputs' cache was moved: rebuilt here
        assert traced == trace


@settings(max_examples=examples(100), deadline=None)
@given(drawn=block_pools(kinds=("float",)))
def test_float_results_are_the_same_under_python312_sum(drawn):
    pool, pairs = drawn

    def results():
        # Blocks rebuilt, so each run adds up its own masses and indices.
        fresh = [Block(b.n_modes, b.entries) for b in pool]
        slice_ = TensorSlice(fresh[0].n_modes, (0, 1))
        for block in fresh:
            for key, value in block.entries.items():
                slice_.add(Event(key, value))
        spliced = [[exact_view(x) for x in got] for _, _, got in splice_chain(fresh, pairs)]
        detected = [exact_view(b) for b in detect_top_blocks(slice_, 3)]
        return spliced, detected

    want = results()
    with python312_sum():
        assert results() == want


def assert_fresh(index: _SpliceIndex, block: Block) -> None:
    fresh = _SpliceIndex(block)
    assert index.postings == fresh.postings
    assert index.vmax >= fresh.vmax == max(block.entries.values())


def test_donor_index_drops_the_ids_its_sheds_emptied():
    # Forced on items, the pass merges (0, 1) and then (0, 2) (4.5 * 3 >
    # 13), and the next pass fails on (7, 1). User 0 and item 2 lose every
    # key; item 1 keeps (7, 1) of its two postings, and user 7 loses none.
    target = Block(2, {(0, 0): 8})
    donor = Block(2, {(0, 1): 5, (7, 1): 1, (0, 2): 4.5, (7, 7): 1})
    got = assert_matches_reference(target, donor)
    assert got[1].entries == {(7, 1): 1, (7, 7): 1}
    assert got[1]._index is not None
    assert_fresh(got[1]._index, got[1])


@settings(max_examples=examples(300), deadline=None)
@given(drawn=block_pools())
def test_moved_index_matches_fresh_index(drawn):
    pool, pairs = drawn
    for a, b, got in splice_chain(pool, pairs):
        if got[0] is a:
            continue
        assert a._index is None and b._index is None
        for block in got:
            if block._index is not None:
                assert_fresh(block._index, block)


@settings(max_examples=examples(300), deadline=None)
@given(drawn=block_pools())
def test_target_index_after_appends_matches_fresh_index(drawn):
    # Every block starts indexed, so each target carries its index into
    # the splice and only appends keys to it.
    pool, pairs = drawn
    for block in pool:
        block._index = _SpliceIndex(block)
    for a, b, got in splice_chain(pool, pairs):
        if got[0] is not a:
            assert got[0]._index is not None
            assert_fresh(got[0]._index, got[0])


def shared_ids(target: Block, donor: Block) -> list:
    """Per mode, the ids both blocks hold, as the bound is given them."""
    return [mine & theirs for mine, theirs in zip(target.index_sets, donor.index_sets)]


@settings(max_examples=examples(300), deadline=None)
@given(drawn=block_pools())
def test_shared_id_bound_never_rejects_a_productive_pair(drawn):
    # The pool after the drawn splices: indices moved through merges hold
    # a vmax that sheds may have left loose.
    pool, pairs = drawn
    for _ in splice_chain(pool, pairs):
        pass
    for x in pool:
        for y in pool:
            if x is y:
                continue
            a, b = ordered_pair(x, y)
            q_modes = required_new_modes(a, b)
            index = b._index or _SpliceIndex(b)
            if q_modes and index.rules_out_by_shared_ids(
                _Working(b, index), q_modes, shared_ids(a, b), a.mass, a.size
            ):
                r1, r2 = reference_splice_pair(a, b)
                assert r1 is a and r2 is b


@settings(max_examples=examples(300), deadline=None)
@given(
    n_modes=st.integers(2, 4),
    data=st.data(),
    nudge=st.integers(-3, 3),
)
def test_shared_id_bound_holds_within_rounding_of_the_merge_test(n_modes, data, nudge):
    # A donor whose one forced-mode combination fills every shared
    # free-mode combination with the same value, so the candidate weighs
    # what the bound allows, and a float target within a few ulps of
    # m * size == q * mass, on either side.
    forced = data.draw(st.sets(st.integers(0, n_modes - 1), min_size=1))
    value = data.draw(st.sampled_from([1, 7, 0.1, 0.3, 0.7, 3.3, 1e16]))
    extent = data.draw(st.integers(1, 3))
    ranges = [[0] if m in forced else range(extent) for m in range(n_modes)]
    donor = Block(n_modes, dict.fromkeys(product(*ranges), value))
    keys = {
        tuple(100 if m in forced else r for m in range(n_modes)) for r in range(extent)
    }
    q_modes = tuple(sorted(forced))
    size = sum(len({k[m] for k in keys}) for m in range(n_modes))
    heaviest = sum(donor.entries.values())
    share = heaviest * size / len(q_modes) / len(keys)
    for _ in range(abs(nudge)):
        share = math.nextafter(share, math.inf if nudge > 0 else 0.0)
    target = Block(n_modes, dict.fromkeys(keys, share))
    assume(target.mass * donor.size >= donor.mass * target.size)
    assert required_new_modes(target, donor) == q_modes
    index = _SpliceIndex(donor)
    if index.rules_out_by_shared_ids(
        _Working(donor, index), q_modes, shared_ids(target, donor), target.mass, target.size
    ):
        assert not heaviest * target.size > len(q_modes) * target.mass
        r1, r2 = reference_splice_pair(target, donor)
        assert r1 is target and r2 is donor


def assert_matches_reference(target: Block, donor: Block) -> tuple:
    """Splice with a trace and check results, identity and trace against
    the scanning reference; returns the results."""
    trace: list = []
    got = splice_pair(target, donor, trace)
    want_trace: list = []
    want = reference_splice_pair(target, donor, want_trace)
    assert [exact_view(x) for x in got] == [exact_view(x) for x in want]
    assert (got[0] is target, got[1] is donor) == (want[0] is target, want[1] is donor)
    assert trace == want_trace
    return got


def test_bound_widening_covers_a_compensated_candidate_sum():
    # One forced mode (mode 1). Added up left to right, as every mass is,
    # the donor's only combination weighs 1e16, which exactly ties the merge
    # test against a target of mass 4e16 and size 4, so nothing merges on
    # any Python; its exact sum, 1e16 + 2, would merge. The shared-id bound
    # (vmax 1e16 times 3 shared ids) lets the pass run, so the splice must
    # add the candidate up as the reference does.
    donor = Block(2, {(0, 0): 1e16, (1, 0): 1.0, (2, 0): 1.0})
    target = Block(2, {(0, 100): 1e16, (1, 100): 1e16, (2, 100): 2e16})
    assert required_new_modes(target, donor) == (1,)
    assert_matches_reference(target, donor)


@pytest.mark.parametrize("unit", [1, 0.1], ids=["int", "float"])
def test_bounds_reject_a_later_forced_pass(unit, monkeypatch):
    # The first pass, forced on time, merges (0, 0, 1). Every mode is then
    # forced, and the shared-id bound (vmax 10 * size 4 <= 3 * mass 19, in
    # units) ends the call before a second pass walks the donor.
    target = Block(3, {(0, 0, 0): 9 * unit})
    donor = Block(3, {(0, 0, 1): 10 * unit, (5, 5, 2): 1 * unit})
    passes = count_calls(monkeypatch, tensorsplice.splice, "_forced_pass")
    got = assert_matches_reference(target, donor)
    assert [args[2] for args in passes] == [(2,)]
    assert got[1].entries == {(5, 5, 2): 1 * unit}


# Users and items of the target (density 4/6); the donor below shares its
# two time bins and none of its users or items, so modes 0 and 1 are forced.
TWO_BIN_TARGET = {(0, 0, 0): 1, (0, 1, 0): 1, (1, 0, 1): 1, (1, 1, 1): 1}


def test_bound_ends_a_pass_of_one_entry_candidates(monkeypatch):
    # Each (user, item) pair appears once, so every candidate is one entry
    # of value 1, and 1 * 6 <= 2 * 4 fails the test. The first clause lets
    # the pass through (1 * 2 shared time bins * 6 > 2 * 4); the second
    # ends the call before the donor is walked.
    target = Block(3, TWO_BIN_TARGET)
    donor = Block(3, {(5, 5, 0): 1, (6, 6, 1): 1})
    passes = count_calls(monkeypatch, tensorsplice.splice, "_forced_pass")
    got = assert_matches_reference(target, donor)
    assert passes == []
    assert got[0] is target and got[1] is donor


def test_bound_lets_a_repeated_combination_through(monkeypatch):
    # (5, 5) appears in both time bins: a two-entry candidate of mass 2
    # passes (2 * 6 > 2 * 4), so the pass runs and merges it.
    target = Block(3, TWO_BIN_TARGET)
    donor = Block(3, {(5, 5, 0): 1, (5, 5, 1): 1, (6, 6, 1): 1})
    passes = count_calls(monkeypatch, tensorsplice.splice, "_forced_pass")
    got = assert_matches_reference(target, donor)
    assert [args[2] for args in passes] == [(0, 1)]
    assert got[1].entries == {(6, 6, 1): 1}


# Every mode overlaps. A drain moves the shared (0, 0, 0) for free, merges
# time 9 (19 * 3 > 14, in units) and stops on user 5 and item 7, whose
# entries keep every mode overlapping.
DRAIN_TARGET = {(0, 0, 0): 12}
DRAIN_DONOR = {(0, 0, 0): 2, (5, 0, 0): 1, (0, 7, 0): 1, (0, 0, 9): 19}


@pytest.mark.parametrize("unit", [1, 0.1], ids=["int", "float"])
def test_drain_that_stops_on_a_failing_candidate_is_final(unit):
    target = Block(3, {key: value * unit for key, value in DRAIN_TARGET.items()})
    donor = Block(3, {key: value * unit for key, value in DRAIN_DONOR.items()})
    got = assert_matches_reference(target, donor)
    assert got[1].entries == {(5, 0, 0): 1 * unit, (0, 7, 0): 1 * unit}


def test_an_int_drain_that_merged_and_then_failed_ends_the_splice(monkeypatch):
    # The drain above, on ints: a second drain would find the same two
    # buckets at the same masses, and user 5 would fail again, so none runs.
    target = Block(3, DRAIN_TARGET)
    donor = Block(3, DRAIN_DONOR)
    drains = count_calls(monkeypatch, tensorsplice.splice, "_empty_q_drain")
    got = assert_matches_reference(target, donor)
    assert len(drains) == 1
    assert got[1].entries == {(5, 0, 0): 1, (0, 7, 0): 1}


def test_a_drain_whose_shared_entries_took_an_overlap_is_followed_by_a_forced_pass(
    monkeypatch,
):
    # The drain moves the shared (0, 0) for free, and the donor keeps no
    # user or item the target holds. No bucket forms, as each entry left
    # brings two new ids, but both modes are now forced, and (1, 2) merges
    # (12 * 2 > 2 * 11); (1, 3) then fails on item 3 (1 * 4 <= 23).
    target = Block(2, {(0, 0): 10})
    donor = Block(2, {(0, 0): 1, (1, 2): 12, (1, 3): 1})
    drains = count_calls(monkeypatch, tensorsplice.splice, "_empty_q_drain")
    passes = count_calls(monkeypatch, tensorsplice.splice, "_forced_pass")
    got = assert_matches_reference(target, donor)
    assert len(drains) == 1
    assert [args[2] for args in passes] == [(0, 1), (1,)]
    assert got[1].entries == {(1, 3): 1}


def test_a_forced_pass_sums_a_walked_candidate_in_entry_order():
    # Item 7 is forced. The pass walks users 0, 1 and 2, the ids the blocks
    # share, in the order a set of small ints iterates, so (0, 7) comes first. In that order the
    # candidate weighs (1e16 + 1) + 1 = 1e16, which ties the merge test
    # (1e16 * 4 == 4e16); in entry order, (1 + 1) + 1e16 = 1e16 + 2, which
    # merges. Users 50 and 51 make the walk cheaper than a scan.
    assert running_sum([1e16, 1.0, 1.0]) == 1e16 != running_sum([1.0, 1.0, 1e16])
    target = Block(2, {(0, 100): 1e16, (1, 100): 1e16, (2, 100): 2e16})
    donor = Block(2, {(1, 7): 1.0, (2, 7): 1.0, (0, 7): 1e16, (50, 8): 1.0, (51, 8): 1.0})
    assert required_new_modes(target, donor) == (1,)
    got = assert_matches_reference(target, donor)
    assert got[1].entries == {(50, 8): 1.0, (51, 8): 1.0}


def test_target_index_only_gains_keys():
    # The drain sums the shared (0, 0, 0) into a key the target holds and
    # adds (0, 0, 9), raising vmax; no target posting is re-read.
    target = Block(3, DRAIN_TARGET)
    index = target._index = _SpliceIndex(target)
    postings = [dict(mode_postings) for mode_postings in index.postings]
    got = splice_pair(target, Block(3, DRAIN_DONOR))
    assert got[0]._index is index and target._index is None
    assert_fresh(index, got[0])
    assert index.vmax == 19
    for mode_postings, before in zip(index.postings, postings):
        assert all(mode_postings[idx] is keys for idx, keys in before.items())


def test_drain_runs_again_after_a_rewalk_joins_a_bucket(monkeypatch):
    # Merging user 5 leaves (5, 7, 0) with one unseen id, item 7, and its
    # re-walk appends it to item 7's bucket after (0, 7, 0) and (1, 7, 0):
    # (1 + 1e16) + 1 rounds to 1e16, which fails (1e16 * 5 <= 5e16). In
    # entry order a second drain adds (1 + 1) + 1e16 = 1e16 + 2, which
    # passes, so the first drain must not end the call.
    target = Block(3, {(0, 0, 0): 1.9e16, (1, 0, 0): 1.9e16})
    donor = Block(3, {
        (5, 7, 0): 1.0, (0, 7, 0): 1.0, (1, 7, 0): 1e16, (5, 0, 0): 1.2e16, (6, 0, 0): 1.0,
    })
    drains = count_calls(monkeypatch, tensorsplice.splice, "_empty_q_drain")
    got = assert_matches_reference(target, donor)
    assert len(drains) == 2
    assert got[1].entries == {(6, 0, 0): 1.0}


# ---------------------------------------------------------------------------
# Kept counts: sizes, id sets and masses that no merge recounts


@settings(max_examples=examples(300), deadline=None)
@given(drawn=block_pools())
def test_sizes_and_masses_are_kept_on_every_path(drawn):
    pool, pairs = drawn
    merge = tensorsplice.splice._merge

    def recounted(w1, w2, entries, new_ids, trace):
        merge(w1, w2, entries, new_ids, trace)
        for working in (w1, w2):
            assert working.sets == [{key[m] for key in working.entries} for m in range(working.n)]
        assert w1.size == sum(map(len, w1.sets))
        mass = running_sum(list(w1.entries.values()))
        if isinstance(mass, int):
            assert w1.mass == mass
        else:  # keys the target held add up in another order
            assert math.isclose(w1.mass, mass, rel_tol=1e-9)

    slice_ = TensorSlice(pool[0].n_modes, (0, 1))
    for block in pool:
        adopted = Block._adopt(block.n_modes, dict(block.entries))
        assert block.size == adopted.size == recomputed_size(block)
        for key, value in block.entries.items():
            slice_.add(Event(key, value))
    for block in detect_top_blocks(slice_, 3):
        assert block.size == recomputed_size(block)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tensorsplice.splice, "_merge", recounted)
        for _, _, got in splice_chain(pool, pairs):
            for block in got:
                assert block.size == recomputed_size(block)


# ---------------------------------------------------------------------------
# The shared-id bound against its eager form


def eager_rules_out(index: _SpliceIndex, donor: _Working, q_modes, shared, mass, size):
    """The shared-id bound with its second clause read from every live
    entry's forced-mode combination, as it was before the donor's live id
    counts settled it; returns the answer and the clause that gave it."""
    entries = donor.entries
    heaviest = index.vmax * math.prod(len(ids) for ids in shared if ids)
    if not isinstance(donor.source.mass, int):
        heaviest *= 1 + (len(entries) + 1) * 2.0**-50
    q = len(q_modes)
    if not splice_condition(heaviest, q, mass, size):
        return True, "first clause"
    if splice_condition(index.vmax, q, mass, size):
        return False, "one entry passes"
    combos = {tuple(key[m] for m in q_modes) for key in entries}
    return len(combos) == len(entries), "combinations"


def checked_bound(patch) -> list:
    """Check every call of the shared-id bound against ``eager_rules_out``.
    The returned list collects, per call, the number of forced modes, how
    the answer was settled and the answer."""
    bound = _SpliceIndex.rules_out_by_shared_ids
    calls: list = []

    def checked(index, donor, q_modes, shared, mass, size):
        got = bound(index, donor, q_modes, shared, mass, size)
        want, how = eager_rules_out(index, donor, q_modes, shared, mass, size)
        assert got == want
        if how == "combinations":
            nnz = len(donor.entries)
            if any(len(donor.sets[m]) == nnz for m in q_modes):
                how = "a distinct mode"
            else:
                how = "one mode repeats" if len(q_modes) == 1 else "all combinations read"
        calls.append((len(q_modes), how, got))
        return got

    patch.setattr(_SpliceIndex, "rules_out_by_shared_ids", checked)
    return calls


@settings(max_examples=examples(300), deadline=None)
@given(drawn=block_pools())
def test_shared_id_bound_matches_its_eager_form(drawn):
    pool, pairs = drawn
    with pytest.MonkeyPatch.context() as patch:
        checked_bound(patch)
        for _ in splice_chain(pool, pairs):
            pass


# Per case: target, donor, and the (forced modes, settled by, result) of
# each bound call, in order.
BOUND_CASES = {
    "one mode, distinct": (
        {(0, 0, 0): 3, (0, 1, 0): 3, (1, 0, 0): 3, (1, 1, 0): 3},
        {(0, 0, 1): 1, (1, 1, 2): 1},
        [(1, "a distinct mode", True)],
    ),
    "one mode, repeated": (
        {(0, 0, 0): 3, (0, 1, 0): 3, (1, 0, 0): 3, (1, 1, 0): 3},
        {(0, 0, 1): 1, (1, 1, 1): 1},
        [(1, "one mode repeats", False)],
    ),
    "two modes, distinct": (
        TWO_BIN_TARGET,
        {(5, 5, 0): 1, (6, 6, 1): 1},
        [(2, "a distinct mode", True)],
    ),
    # The first pass merges the one repeated combination, (5, 5); the live
    # donor left for the second pass repeats ids on both forced modes but
    # no combination, so only reading every combination shows it.
    "two modes, a later pass reads every combination": (
        TWO_BIN_TARGET,
        {(5, 5, 0): 1, (5, 5, 1): 1, (6, 7, 0): 1, (6, 8, 1): 1, (7, 7, 0): 1},
        [(2, "all combinations read", False), (2, "all combinations read", True)],
    ),
    "three modes, distinct": (
        {(0, 0, 0, t): 1 for t in range(4)},
        {(5, 5, 5, 0): 1, (6, 6, 6, 1): 1, (7, 7, 7, 2): 1, (8, 8, 8, 3): 1},
        [(3, "a distinct mode", True)],
    ),
    "three modes, every combination read": (
        {(0, 0, 0, t): 1 for t in range(4)},
        {(5, 5, 5, 0): 1, (5, 6, 6, 1): 1, (6, 5, 6, 2): 1},
        [(3, "all combinations read", True)],
    ),
}


@pytest.mark.parametrize("case", list(BOUND_CASES))
@pytest.mark.parametrize("unit", [1, 0.1], ids=["int", "float"])
def test_shared_id_bound_settles_its_second_clause(case, unit, monkeypatch):
    target, donor, want = BOUND_CASES[case]
    n_modes = len(next(iter(target)))
    calls = checked_bound(monkeypatch)
    assert_matches_reference(
        Block(n_modes, {key: value * unit for key, value in target.items()}),
        Block(n_modes, {key: value * unit for key, value in donor.items()}),
    )
    assert calls == want
