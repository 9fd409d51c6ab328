import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorsplice import (
    Block,
    DetectParams,
    Event,
    ShapeMismatch,
    TensorSlice,
    detect_top_blocks,
)
from tensorsplice.detect import PeelIndex, peel_once
from conftest import (
    brute_force_best_density,
    mk,
    mode_masses,
    random_block,
    reference_detect,
)


def slice_of(entries: dict, n_modes: int = 3) -> TensorSlice:
    s = TensorSlice(n_modes, (0, 1))
    for key, value in entries.items():
        s.add(Event(key, value))
    return s


def planted_4x4() -> dict:
    # 2x2x1 core of value 5 plus three scattered unit entries.
    cells = {(u, o, 0): 5 for u in (0, 1) for o in (0, 1)}
    cells.update({(2, 2, 0): 1, (3, 3, 0): 1, (2, 3, 0): 1})
    return cells


class TestDetectTopBlocks:
    def test_empty_slice(self):
        assert detect_top_blocks(slice_of({}), DetectParams(3, 3)) == []

    def test_single_entry(self):
        found = detect_top_blocks(slice_of({(4, 2, 0): 6}), DetectParams(1, 3))
        assert len(found) == 1
        assert found[0].entries == {(4, 2, 0): 6}
        assert found[0].density == pytest.approx(2.0)

    def test_planted_core_found(self):
        found = detect_top_blocks(slice_of(planted_4x4()), DetectParams(1, 3))
        core = found[0]
        assert core.entries == {(u, o, 0): 5 for u in (0, 1) for o in (0, 1)}
        assert core.density == pytest.approx(4.0)
        # Brute force confirms 4 is the best achievable density here.
        assert brute_force_best_density(mk(planted_4x4())) == Fraction(4)

    def test_blocks_entry_disjoint_and_subtensors(self):
        rng = random.Random(3)
        for _ in range(50):
            source = random_block(rng, max_id=3, max_entries=12)
            found = detect_top_blocks(
                slice_of(source.entries), DetectParams(4, 3)
            )
            seen = set()
            for block in found:
                for key, value in block.entries.items():
                    assert key not in seen
                    seen.add(key)
                    assert source.entries[key] == value

    def test_densities_non_increasing(self):
        rng = random.Random(5)
        for _ in range(50):
            source = random_block(rng, max_id=3, max_entries=12)
            found = detect_top_blocks(slice_of(source.entries), DetectParams(4, 3))
            densities = [b.density for b in found]
            assert densities == sorted(densities, reverse=True)

    def test_deterministic(self):
        rng = random.Random(9)
        source = random_block(rng, max_id=4, max_entries=12)
        a = detect_top_blocks(slice_of(source.entries), DetectParams(3, 3))
        b = detect_top_blocks(slice_of(source.entries), DetectParams(3, 3))
        assert a == b

    def test_mode_count_checked(self):
        with pytest.raises(ShapeMismatch):
            detect_top_blocks(slice_of({(0, 0, 0): 1}), DetectParams(1, 4))

    def test_num_blocks_validated(self):
        with pytest.raises(ValueError):
            DetectParams(0, 3)


def peel(block: Block) -> Block:
    return peel_once(PeelIndex(block.n_modes, block.entries))


class TestPeelOnce:
    def test_uniform_block_returned_whole(self):
        # Every id carries the same mass; no strictly denser state exists,
        # so the earliest (full) state wins.
        uniform = mk({(0, 0, 0): 3, (1, 1, 1): 3, (2, 2, 2): 3})
        assert peel(uniform) == uniform

    def test_single_entry(self):
        b = mk({(1, 1, 1): 2})
        assert peel(b) == b

    def test_planted_core(self):
        core = peel(mk(planted_4x4()))
        assert core.entries == {(u, o, 0): 5 for u in (0, 1) for o in (0, 1)}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            peel(Block.empty(3))

    def test_result_never_less_dense_than_input(self):
        rng = random.Random(21)
        for _ in range(100):
            block = random_block(rng, max_id=3, max_entries=12)
            got = peel(block)
            assert Fraction(got.mass, got.size) >= Fraction(block.mass, block.size)


def test_mode_masses_sum_to_block_mass():
    rng = random.Random(2)
    for _ in range(50):
        block = random_block(rng)
        for per_mode in mode_masses(block):
            assert sum(per_mode.values()) == block.mass


def test_greedy_meets_half_of_brute_force():
    rng = random.Random(4)
    for _ in range(60):
        block = random_block(rng, max_id=3, max_entries=12)
        found = detect_top_blocks(slice_of(block.entries), DetectParams(1, 3))
        got = Fraction(found[0].mass, found[0].size)
        assert 2 * got >= brute_force_best_density(block)


# Values for the equivalence properties: integers, floats whose sums round
# differently in different orders, and a single value that ties most masses.
VALUES = {
    "int": st.integers(1, 9),
    "float": st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, 3.3, 1e16]),
    "tie": st.just(1),
}


@st.composite
def tensors(draw):
    n_modes = draw(st.integers(2, 4))
    values = VALUES[draw(st.sampled_from(sorted(VALUES)))]
    max_id = draw(st.integers(1, 5))
    cells = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, max_id)] * n_modes), values),
        min_size=1, max_size=40,
    ))
    s = TensorSlice(n_modes, (0, 1))
    for key, value in cells:
        s.add(Event(key, value))
    return s


@settings(max_examples=300, deadline=None)
@given(source=tensors(), num_blocks=st.integers(1, 8))
def test_detector_matches_rebuilding_reference(source, num_blocks):
    got = detect_top_blocks(source, DetectParams(num_blocks, source.n_modes))
    want = reference_detect(source.to_block(), num_blocks)
    assert got == want
    assert [b.mass for b in got] == [b.mass for b in want]


@settings(max_examples=200, deadline=None)
@given(source=tensors())
def test_index_after_removal_matches_fresh_index(source):
    # After each run's block is removed, the kept index must equal one
    # built from scratch on what is left, float masses bit for bit.
    index = PeelIndex(source.n_modes, dict(source.entries))
    while index.entries:
        index.remove(peel_once(index))
        fresh = PeelIndex(index.n_modes, dict(index.entries))
        assert index.masses == fresh.masses
        assert index.counts == fresh.counts
        assert index.postings == fresh.postings
        for kept, masses in zip(index.heaps, fresh.masses):
            assert {(m, i) for m, i in kept if masses.get(i) == m} == {
                (m, i) for i, m in masses.items()
            }
