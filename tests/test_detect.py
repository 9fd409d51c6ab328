import random
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorsplice import (
    Block,
    Event,
    PreconditionViolated,
    TensorSlice,
    detect_top_blocks,
)
from tensorsplice.detect import PeelIndex, peel_once
from conftest import (
    brute_force_best_density,
    examples,
    mk,
    mode_masses,
    python312_sum,
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
        assert detect_top_blocks(slice_of({}), 3) == []

    def test_single_entry(self):
        found = detect_top_blocks(slice_of({(4, 2, 0): 6}), 1)
        assert len(found) == 1
        assert found[0].entries == {(4, 2, 0): 6}
        assert found[0].density == pytest.approx(2.0)

    def test_planted_core_found(self):
        found = detect_top_blocks(slice_of(planted_4x4()), 1)
        core = found[0]
        assert core.entries == {(u, o, 0): 5 for u in (0, 1) for o in (0, 1)}
        assert core.density == pytest.approx(4.0)
        # Brute force confirms 4 is the best achievable density here.
        assert brute_force_best_density(mk(planted_4x4())) == Fraction(4)

    def test_blocks_entry_disjoint_and_subtensors(self):
        rng = random.Random(3)
        for _ in range(50):
            source = random_block(rng, max_id=3, max_entries=12)
            found = detect_top_blocks(slice_of(source.entries), 4)
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
            found = detect_top_blocks(slice_of(source.entries), 4)
            densities = [b.density for b in found]
            assert densities == sorted(densities, reverse=True)

    def test_deterministic(self):
        rng = random.Random(9)
        source = random_block(rng, max_id=4, max_entries=12)
        a = detect_top_blocks(slice_of(source.entries), 3)
        b = detect_top_blocks(slice_of(source.entries), 3)
        assert a == b

    def test_num_blocks_validated(self):
        with pytest.raises(ValueError):
            detect_top_blocks(slice_of({(0, 0, 0): 1}), 0)


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
            peel(Block(3))

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
        found = detect_top_blocks(slice_of(block.entries), 1)
        got = Fraction(found[0].mass, found[0].size)
        assert 2 * got >= brute_force_best_density(block)


# Values for the equivalence properties: integers, floats whose sums round
# differently in different orders, and a single value that ties most masses.
VALUES = {
    "int": st.integers(1, 9),
    "float": st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, 3.3, 1e16]),
    "tie": st.just(1),
}


# Cell layouts: few ids per mode, where masses collide and bulk rounds are
# common, and a sparse one, where most ids hold one or two entries, so a run
# drops single ids in long batches and switches modes between them.
LAYOUTS = {
    "dense": (sorted(VALUES), st.integers(1, 5), 1, 40),
    "sparse": (["int", "tie"], st.integers(20, 60), 50, 200),
}


@st.composite
def tensors(draw):
    n_modes = draw(st.integers(2, 4))
    kinds, max_ids, min_cells, max_cells = LAYOUTS[draw(st.sampled_from(sorted(LAYOUTS)))]
    values = VALUES[draw(st.sampled_from(kinds))]
    max_id = draw(max_ids)
    cells = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, max_id)] * n_modes), values),
        min_size=min_cells, max_size=max_cells,
    ))
    s = TensorSlice(n_modes, (0, 1))
    for key, value in cells:
        s.add(Event(key, value))
    return s


@settings(max_examples=examples(300), deadline=None)
@given(source=tensors(), num_blocks=st.integers(1, 8))
def test_detector_matches_rebuilding_reference(source, num_blocks):
    got = detect_top_blocks(source, num_blocks)
    want = reference_detect(Block(source.n_modes, source.entries), num_blocks)
    assert got == want
    assert [b.mass for b in got] == [b.mass for b in want]


def test_batch_yields_to_a_lower_mode_tie():
    # Users are mode 0, items mode 1. The first pick is item 0 (mass 1) as
    # a single removal, 1 * 6 > 5, and items 1 and 3 weigh 1 as well.
    # Removing item 0 drops user 1 to mass 1, and mode 0 wins that tie, so
    # the next round drops user 1 and not item 1.
    entries = {(0, 1): 1, (1, 3): 1, (0, 2): 2, (1, 0): 1}
    found = detect_top_blocks(slice_of(entries, 2), 1)
    assert found == reference_detect(mk(entries, 2), 1)
    assert found[0].entries == {(0, 1): 1, (0, 2): 2}


# Users are mode 0, items mode 1. Items 0, 1 and 3 weigh 0.1 and the total
# is 0.6 over 6 ids, but 0.1 * 6 rounds above 0.6, so item 0 goes as a
# single removal. That leaves 0.5 over 5 ids, where 0.1 * 5 == 0.5: the
# batch must stop there, so the next round drops items 1 and 3 together.
# Dropping item 1 alone would check a state of 0.4 over 4 ids, which
# compares as denser than the start because 0.4 * 6 rounds above 0.6 * 4.
BATCH_STOP = {(2, 2): 0.2, (0, 2): 0.1, (0, 1): 0.1, (0, 3): 0.1, (2, 0): 0.1}


def test_batch_yields_once_a_float_mass_reaches_the_average():
    found = detect_top_blocks(slice_of(BATCH_STOP, 2), 1)
    assert found == reference_detect(mk(BATCH_STOP, 2), 1)
    assert found[0].entries == {(2, 2): 0.2, (0, 2): 0.1}


def test_batch_stop_case_is_the_same_under_python312_sum():
    # A compensated sum makes the start total 0.6000000000000001, not 0.6,
    # and the peel would then keep only (2, 2).
    with python312_sum():
        found = detect_top_blocks(slice_of(BATCH_STOP, 2), 1)
    assert found[0].entries == {(2, 2): 0.2, (0, 2): 0.1}


def group(index: PeelIndex, g: int) -> list[int]:
    """The live entry numbers of gid ``g``, from its fixed CSR group."""
    fixed = index.postings[index.offsets[g]:index.offsets[g + 1]]
    return [e for e in fixed if index.values[e]]


def by_id(index: PeelIndex) -> list[dict]:
    """Per mode, each live id's mass, count and posting keys, keyed by id."""
    tables = []
    for mode in range(index.n_modes):
        table = {}
        for g in range(index.starts[mode], index.starts[mode + 1]):
            mass = index.masses[g]
            if mass is not None:
                keys = [index.keys[e] for e in group(index, g)]
                table[keys[0][mode]] = (mass, index.counts[g], keys)
        tables.append(table)
    return tables


def live_records(index: PeelIndex) -> list[set]:
    """Per mode, the heap records that still match their id's mass, by id."""
    records = [set() for _ in range(index.n_modes)]
    for record in index.heap:
        mass, g = divmod(record, index.scale) if index.scale else record
        if index.masses[g] == mass:
            mode = bisect_right(index.starts, g) - 1
            records[mode].add((mass, index.keys[group(index, g)[0]][mode]))
    return records


@settings(max_examples=examples(200), deadline=None)
@given(source=tensors())
def test_index_after_removal_matches_fresh_index(source):
    # After each run's block is removed, the kept index must equal one
    # built from scratch on what is left, float masses bit for bit.
    index = PeelIndex(source.n_modes, source.entries)
    with pytest.raises(PreconditionViolated):
        index.remove()  # nothing peeled yet
    while index.live:
        block = peel_once(index)
        assert index.kept == sorted(index.kept)
        assert {index.keys[e]: index.values[e] for e in index.kept} == block.entries
        index.remove()
        assert index.kept is None
        with pytest.raises(PreconditionViolated):
            index.remove()  # already removed
        left = {key: value for key, value in zip(index.keys, index.values) if value}
        assert index.live == len(left)
        fresh = PeelIndex(index.n_modes, left)
        assert by_id(index) == by_id(fresh)
        assert live_records(index) == live_records(fresh) == [
            {(mass, idx) for idx, (mass, _, _) in table.items()}
            for table in by_id(fresh)
        ]


def test_int_records_break_mass_ties_by_mode_then_id():
    # Every id of both modes weighs 2, so the heap order is the tie-break
    # alone: an int record must sort as (mass, mode, id), like a tuple.
    entries = {(0, 0): 1, (0, 1): 1, (1, 1): 1, (1, 2): 1, (2, 2): 1, (2, 0): 1, (3, 3): 2}
    index = PeelIndex(2, entries)
    assert index.scale == 8
    assert [divmod(record, index.scale) for record in sorted(index.heap)] == [
        (2, g) for g in range(8)
    ]
    assert detect_top_blocks(slice_of(entries, 2), 3) == reference_detect(mk(entries, 2), 3)


def test_values_above_2_pow_63_peel_exactly():
    # As floats the first three values would be equal.
    big = 2**64
    entries = {(0, 0, 0): big, (0, 1, 0): big + 1, (1, 1, 0): big - 1, (2, 2, 1): 3, (1, 2, 1): big}
    assert PeelIndex(3, entries).scale == 8
    got = detect_top_blocks(slice_of(entries), 4)
    want = reference_detect(mk(entries), 4)
    assert got == want
    assert [b.mass for b in got] == [b.mass for b in want]


def test_one_float_value_takes_tuple_records():
    entries = {(0, 0, 0): 3, (0, 1, 0): 2, (1, 1, 0): 0.5, (2, 2, 1): 1}
    index = PeelIndex(3, entries)
    assert index.scale is None
    assert all(type(record) is tuple for record in index.heap)
    got = detect_top_blocks(slice_of(entries), 3)
    want = reference_detect(mk(entries), 3)
    assert got == want
    assert [b.mass for b in got] == [b.mass for b in want]


def test_removal_kills_emptied_ids_and_keeps_dead_entries_in_shared_groups():
    # A 2x2 core of 5s in bin 0, and light entries in bins 0 and 1. The core
    # leaves users 0 and 1 without entries; bin 0 keeps its light entry.
    entries = {(u, i, 0): 5 for u in (0, 1) for i in (0, 1)}
    entries.update({(2, 2, 0): 1, (2, 3, 1): 1, (3, 3, 1): 2})
    index = PeelIndex(3, entries)
    first = peel_once(index)
    assert first.entries == {(u, i, 0): 5 for u in (0, 1) for i in (0, 1)}
    index.remove()
    user0, bin0 = 0, index.starts[2]
    assert index.masses[user0] is None and index.counts[user0] == 0
    fixed = index.postings[index.offsets[bin0]:index.offsets[bin0 + 1]]
    assert [index.values[e] for e in fixed] == [0, 0, 0, 0, 1]
    assert index.live == 3
    assert (index.counts[bin0], index.masses[bin0]) == (1, 1)
    rest = {key: value for key, value in entries.items() if key not in first.entries}
    assert peel_once(index) == reference_detect(mk(rest), 1)[0]
