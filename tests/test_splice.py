import random
from fractions import Fraction

import pytest

from tensorsplice import (
    Block,
    DegenerateBlock,
    PreconditionViolated,
    ShapeMismatch,
    splice_condition,
    splice_pair,
)
from conftest import (
    empty_q_step,
    enumerate_candidates,
    family_violations,
    mk,
    new_id_count,
    ordered_pair,
    random_block,
    reference_splice,
    required_new_modes,
)


class TestSpliceCondition:
    def test_profitable(self):
        assert splice_condition(5, 2, 2.0)

    def test_boundary_is_not_profitable(self):
        # Exactly q * density keeps the ratio unchanged, so no merge.
        assert not splice_condition(4, 2, 2.0)

    def test_no_new_ids_any_positive_mass_wins(self):
        assert splice_condition(1, 0, 123.0)

    def test_matches_actual_density_rise(self):
        b1 = mk({(0, 0, 0): 4, (1, 1, 0): 4, (2, 0, 0): 4})  # mass 12, size 6
        extra = mk({(0, 5, 1): 3, (1, 5, 1): 2})  # mass 5, new ids o=5 and t=1
        q = sum(len(extra.index_sets[m] - b1.index_sets[m]) for m in range(3))
        assert q == 2
        merged = b1.union_with(extra)
        assert merged.density == pytest.approx(17 / 8)
        assert splice_condition(extra.mass, q, b1.density) == (
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
        b2 = Block.empty(3)
        r1, r2 = splice_pair(b1, b2)
        assert r1 is b1 and r2 is b2

    def test_empty_target_rejected(self):
        with pytest.raises(DegenerateBlock):
            splice_pair(Block.empty(3), mk({(0, 0, 0): 1}))

    def test_target_must_be_denser(self):
        light = mk({(0, 0, 0): 1, (1, 1, 1): 1})
        heavy = mk({(0, 0, 0): 9})
        with pytest.raises(PreconditionViolated):
            splice_pair(light, heavy)

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
        merged = base.union_with(extra)
        rose = Fraction(merged.mass, merged.size) > g1
        assert rose == splice_condition(extra.mass, q, g1)
