import math
import random
import sys
from fractions import Fraction
from functools import reduce
from operator import add

import pytest

from tensorsplice import (
    Block,
    DegenerateBlock,
    Event,
    ShapeMismatch,
    TensorSlice,
)
from tensorsplice.blocks import running_sum
from conftest import (
    NotASubblock, compensated_sum, mk, python312_sum, random_block,
    recomputed_mass, recomputed_size, subtract, union,
)


class TestRunningSum:
    # Inputs where a compensated sum and a running sum part ways, or where
    # the int path must stay exact.
    CASES = [
        [0.1] * 10,
        [1e16, 1.0, 1.0],
        [0.2, 0.1, 0.1, 0.1, 0.1],
        [1, 0.1, 2, 0.2, 0.7],
        [float("inf"), 1.0],
        [2**62, 2**62, 2**70, 1],
        [2**62, 2**62, 0.5],
    ]

    def test_floats_add_left_to_right(self):
        for values in self.CASES:
            want = reduce(add, values, 0)
            assert repr(running_sum(values)) == repr(want)
            with python312_sum():
                assert repr(running_sum(values)) == repr(want)

    def test_ints_stay_exact_ints(self):
        assert running_sum([2**62, 2**62, 2**70, 1]) == 2**63 + 2**70 + 1
        assert type(running_sum([3, 4])) is int
        assert running_sum([]) == 0

    def test_the_emulated_sum_compensates(self):
        assert compensated_sum([0.1] * 10) == 1.0
        assert compensated_sum([1e16, 1.0, 1.0]) == 1e16 + 2
        assert compensated_sum([0.2, 0.1, 0.1, 0.1, 0.1]) == 0.6000000000000001
        assert compensated_sum([float("inf"), 1.0]) == float("inf")
        assert compensated_sum([2**62, 2**62, 2**70, 1]) == 2**63 + 2**70 + 1
        if sys.version_info[:2] == (3, 12):
            for values in self.CASES:
                assert repr(compensated_sum(values)) == repr(sum(values))


class TestMass:
    def test_two_entries(self):
        assert mk({(0, 0, 0): 3, (1, 2, 0): 7}).mass == 10

    def test_empty(self):
        assert Block(3).mass == 0

    def test_merge_adds(self):
        b = mk({(0, 0, 0): 3, (1, 2, 0): 7})
        merged = union(b, mk({(2, 2, 1): 5}))
        assert merged.mass == b.mass + 5


class TestSize:
    def test_summed_cardinalities(self):
        b = mk({(1, 5, 0): 1, (2, 6, 0): 1, (2, 7, 0): 1})
        assert [b.sorted_ids(m) for m in range(3)] == [[1, 2], [5, 6, 7], [0]]
        assert b.size == 6

    def test_empty(self):
        assert Block(3).size == 0

    def test_single_entry_three_modes(self):
        assert mk({(4, 4, 4): 2}).size == 3


class TestDensity:
    def test_ratio(self):
        b = mk({(1, 5, 0): 4, (2, 6, 0): 3, (2, 7, 0): 3})
        assert b.mass == 10 and b.size == 6
        assert b.density == pytest.approx(10 / 6, abs=1e-9)

    def test_single_entry(self):
        assert mk({(0, 0, 0): 7}).density == pytest.approx(7 / 3)

    def test_empty_raises(self):
        with pytest.raises(DegenerateBlock):
            Block(3).density


class TestUnion:
    def test_disjoint_masses_add(self):
        a = mk({(0, 0, 0): 12})
        b = mk({(1, 1, 1): 5})
        assert union(a, b).mass == 17

    def test_identity_with_empty(self):
        a = mk({(0, 0, 0): 12, (0, 1, 0): 1})
        assert union(a, Block(3)) == a

    def test_colliding_keys_sum(self):
        merged = union(mk({(0, 0, 0): 2}), mk({(0, 0, 0): 3}))
        assert merged.entries == {(0, 0, 0): 5}

    def test_mode_count_mismatch(self):
        with pytest.raises(ShapeMismatch):
            union(mk({(0, 0, 0): 1}), Block(4, {(0, 0, 0, 0): 1}))


class TestSubtract:
    def test_self_gives_empty(self):
        a = mk({(0, 0, 0): 2, (1, 1, 1): 3})
        assert subtract(a, a) == Block(3)

    def test_empty_is_identity(self):
        a = mk({(0, 0, 0): 2})
        assert subtract(a, Block(3)) == a

    def test_prunes_vacated_ids(self):
        a = mk({(0, 0, 0): 2, (1, 1, 0): 3, (1, 2, 0): 4})
        left = subtract(a, mk({(1, 2, 0): 4}))
        # Oracle: recompute everything from the surviving entries.
        assert left.entries == {(0, 0, 0): 2, (1, 1, 0): 3}
        assert left.mass == recomputed_mass(left)
        assert left.size == recomputed_size(left) == 5
        assert 2 not in left.index_sets[1]

    def test_partial_value(self):
        left = subtract(mk({(0, 0, 0): 5}), mk({(0, 0, 0): 2}))
        assert left.entries == {(0, 0, 0): 3}

    def test_absent_key_rejected(self):
        with pytest.raises(NotASubblock):
            subtract(mk({(0, 0, 0): 5}), mk({(1, 0, 0): 1}))

    def test_oversized_value_rejected(self):
        with pytest.raises(NotASubblock):
            subtract(mk({(0, 0, 0): 5}), mk({(0, 0, 0): 6}))


class TestSliceAccumulation:
    def test_duplicates_sum(self):
        s = TensorSlice(3, (0, 1))
        s.add(Event((0, 0, 0), 2))
        s.add(Event((0, 0, 0), 3))
        assert s.entries == {(0, 0, 0): 5}
        assert s.nnz == 1

    def test_shape_checked(self):
        s = TensorSlice(3, (0, 1))
        with pytest.raises(ShapeMismatch):
            s.add(Event((0, 0), 1))

    def test_positive_values_only(self):
        s = TensorSlice(3, (0, 1))
        for value in (0, -1, math.inf, math.nan):
            with pytest.raises(ValueError):
                s.add(Event((0, 0, 0), value))

    def test_overflowing_sum_rejected(self):
        s = TensorSlice(3, (0, 1))
        s.add(Event((0, 0, 0), 1e308))
        with pytest.raises(ValueError):
            s.add(Event((0, 0, 0), 1e308))
        assert s.entries == {(0, 0, 0): 1e308}
        s.add(Event((1, 1, 1), 1.5))
        with pytest.raises(ValueError):
            s.add(Event((1, 1, 1), 10**400))
        assert s.entries[(1, 1, 1)] == 1.5
        with pytest.raises(ValueError):  # an int too large for a float, on a new key
            s.add(Event((2, 2, 2), 10**400))
        assert (2, 2, 2) not in s.entries

    def test_to_block_snapshot(self):
        s = TensorSlice(3, (0, 1))
        s.add(Event((1, 2, 0), 4))
        b = Block(s.n_modes, s.entries)
        s.add(Event((5, 5, 0), 1))
        assert b.entries == {(1, 2, 0): 4}


class TestConstruction:
    def test_rejects_nonpositive_values(self):
        for value in (0, -1, math.inf, math.nan, 10**400):
            with pytest.raises(ValueError):
                Block(3, {(0, 0, 0): value})
        for big in (1e308, 10**308):  # a float sum, or an int sum, past the largest float
            with pytest.raises(ValueError):
                Block(3, {(0, 0, 0): big, (1, 1, 1): big})
        with pytest.raises(ValueError):  # an int sum past the largest float meets a float
            Block(3, {(0, 0, 0): 10**308, (1, 1, 1): 10**308, (2, 2, 2): 1.5})
        with pytest.raises(ValueError):  # a value too large for a float
            Block(3, {(0, 0, 0): 1.5, (1, 1, 1): 10**400})

    def test_rejects_bad_key_length(self):
        with pytest.raises(ShapeMismatch):
            Block(3, {(0, 0): 1})

    def test_defensive_copy(self):
        entries = {(0, 0, 0): 1}
        b = Block(3, entries)
        entries[(1, 1, 1)] = 2
        assert b.entries == {(0, 0, 0): 1}


def test_caches_match_recompute_after_random_ops():
    rng = random.Random(7)
    for _ in range(300):
        a = random_block(rng)
        b = random_block(rng)
        merged = union(a, b)
        assert merged.mass == recomputed_mass(merged)
        assert merged.size == recomputed_size(merged)
        back = subtract(merged, b)
        assert back.mass == recomputed_mass(back)
        assert back.size == recomputed_size(back)
        for block in (merged, back):
            for mode, ids in enumerate(block.index_sets):
                support = {key[mode] for key in block.entries}
                assert ids == support  # no dangling ids, no missing ids
            assert all(v > 0 for v in block.entries.values())


def test_caches_match_recompute_float_values():
    rng = random.Random(11)
    for _ in range(100):
        entries = {
            (rng.randrange(3), rng.randrange(3), rng.randrange(3)): rng.random() + 0.1
            for _ in range(rng.randint(1, 6))
        }
        a = Block(3, entries)
        b = random_block(rng)
        merged = union(a, b)
        assert merged.mass == recomputed_mass(merged)


def test_union_density_matches_new_id_arithmetic():
    # density(B u E) == (M(B) + M(E)) / (S(B) + Q) with Q the count of
    # genuinely new ids, checked exactly against scratch recomputation.
    rng = random.Random(13)
    for _ in range(500):
        base = random_block(rng)
        extra = random_block(rng)
        q = sum(
            len(extra.index_sets[m] - base.index_sets[m]) for m in range(3)
        )
        merged = union(base, extra)
        expected = Fraction(base.mass + extra.mass, base.size + q)
        assert Fraction(merged.mass, merged.size) == expected


def test_subtract_union_round_trip():
    rng = random.Random(17)
    for _ in range(300):
        block = random_block(rng, max_entries=10)
        keys = list(block.entries)
        picked = rng.sample(keys, rng.randint(1, len(keys)))
        sub = Block(3, {k: block.entries[k] for k in picked})
        assert union(subtract(block, sub), sub) == block
