import operator
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorsplice import (
    Block,
    EngineConfig,
    EngineState,
    Event,
    OutOfOrderSlice,
    ShapeMismatch,
    TensorSlice,
    TimeRegression,
    detect_top_blocks,
    run_stream,
    step,
)
import tensorsplice.engine
from tensorsplice.engine import _order_key, iter_rerun_outputs
from tensorsplice.ingest import IngestConfig, ModeDictionary, parse_tuples
from conftest import (
    count_calls,
    examples,
    family_violations,
    ordered_pair,
    python312_sum,
    reference_detect,
    reference_sweep,
)

DATA = Path(__file__).parent / "data"

# Both consumers of the shared bin partition: the tracking engine and the
# full re-detection baseline.
STREAM_CONSUMERS = (run_stream, iter_rerun_outputs)


def slice_for(bin_: int, entries: dict, n_modes: int = 3) -> TensorSlice:
    s = TensorSlice(n_modes, (bin_, bin_ + 1))
    for key, value in entries.items():
        s.add(Event(key, value))
    return s


def dense_bin(bin_: int, users, objects, value=4) -> dict:
    return {(u, o, bin_): value for u in users for o in objects}


CFG = EngineConfig(k=3, l=2)


class TestStep:
    def test_first_step_is_detector_output(self):
        entries = dense_bin(0, range(2), range(2))
        entries[(9, 9, 0)] = 1
        state, out = step(EngineState(), slice_for(0, entries), CFG)
        expected = detect_top_blocks(slice_for(0, entries), 5)
        assert state.retained == expected
        assert out.top_k == expected[: CFG.k]
        assert state.frontier == 1 and out.time_range == (0, 1)

    def test_rejects_wrong_window(self):
        state = EngineState()
        with pytest.raises(OutOfOrderSlice):
            step(state, slice_for(3, {(0, 0, 3): 1}), CFG)

    def test_slice_of_another_arity_rejected(self):
        state, _ = step(EngineState(), slice_for(0, dense_bin(0, range(2), range(2))), CFG)
        other = slice_for(1, {(0, 0, 0, 1): 1}, n_modes=4)
        with pytest.raises(ShapeMismatch):
            step(state, other, CFG)

    def test_empty_slice_keeps_converged_state(self):
        entries = dense_bin(0, range(2), range(2))
        state, first = step(EngineState(), slice_for(0, entries), CFG)
        state2, out = step(state, slice_for(1, {}), CFG)
        assert state2.retained == state.retained
        assert out.top_k == first.top_k
        assert out.timing["detect"] >= 0.0

    def test_a_step_that_moves_nothing_ranks_each_block_once(self, monkeypatch):
        entries = dense_bin(0, range(2), range(2))
        entries.update(dense_bin(0, range(10, 12), range(10, 12), value=2))
        entries[(20, 20, 0)] = 1
        state, _ = step(EngineState(), slice_for(0, entries), CFG)
        serials = [block.serial for block in state.retained]
        assert len(serials) == 3
        # Converged: every retained pair is in the sterile memo.
        assert len(state.sterile) == 3

        order_key = tensorsplice.engine._order_key
        ranked = []

        def recording(block):
            ranked.append(block.serial)
            return order_key(block)

        monkeypatch.setattr(tensorsplice.engine, "_order_key", recording)
        state2, _ = step(state, slice_for(1, {}), CFG)
        assert state2.retained == state.retained
        assert sorted(ranked) == sorted(serials)

    def test_a_productive_step_leaves_its_input_state_as_it_was(self):
        users, objects = range(3), range(3)
        bin0 = dense_bin(0, users, objects) | {(7, 8, 0): 1}
        state, _ = step(EngineState(), slice_for(0, bin0), CFG)
        retained, sterile = list(state.retained), set(state.sterile)
        assert len(retained) == 2 and sterile
        after, _ = step(state, slice_for(1, dense_bin(1, users, objects)), CFG)
        # A splice replaced the retained core, and the step found the new
        # pool's pairs sterile.
        assert retained[0].serial not in {block.serial for block in after.retained}
        assert after.sterile - sterile
        assert state.frontier == 1 and state.sterile == sterile
        assert len(state.retained) == 2 and all(map(operator.is_, state.retained, retained))

    def test_cross_stride_block_is_spliced(self):
        # Same user/object core in two adjacent bins; after the second
        # step the top block spans both bins and beats each per-bin
        # density, staying close to a batch run over both bins at once.
        users, objects = range(3), range(3)
        noise0 = {(7, 8, 0): 1, (8, 9, 0): 1}
        noise1 = {(9, 7, 1): 1}
        bin0 = dense_bin(0, users, objects) | noise0
        bin1 = dense_bin(1, users, objects) | noise1

        state, out0 = step(EngineState(), slice_for(0, bin0), CFG)
        per_bin_density = out0.top_k[0].density
        state, out1 = step(state, slice_for(1, bin1), CFG)
        top = out1.top_k[0]

        assert top.sorted_ids(2) == [0, 1]
        assert top.density > per_bin_density

        both = TensorSlice(3, (0, 2))
        for key, value in (bin0 | bin1).items():
            both.add(Event(key, value))
        batch = detect_top_blocks(both, 1)[0]
        assert top.density >= 0.9 * batch.density

    def test_top_density_never_drops_during_splicing(self):
        rng = random.Random(5)
        state = EngineState()
        for bin_ in range(4):
            entries = {}
            for _ in range(30):
                key = (rng.randrange(6), rng.randrange(6), bin_)
                entries[key] = entries.get(key, 0) + rng.randint(1, 4)
            slice_ = slice_for(bin_, entries)
            pool_best = max(
                (b.density for b in state.retained), default=0.0
            )
            incoming = detect_top_blocks(slice_, 5)
            pool_best = max(pool_best, incoming[0].density)
            state, out = step(state, slice_, CFG)
            assert out.top_k[0].density >= pool_best - 1e-12

    def test_retained_blocks_are_stream_subtensors(self):
        rng = random.Random(11)
        state = EngineState()
        accumulated: dict = {}
        for bin_ in range(5):
            entries = {}
            for _ in range(40):
                key = (rng.randrange(5), rng.randrange(5), bin_)
                entries[key] = entries.get(key, 0) + rng.randint(1, 3)
            for key, value in entries.items():
                accumulated[key] = accumulated.get(key, 0) + value
            state, _ = step(state, slice_for(bin_, entries), CFG)
            for block in state.retained:
                for key, value in block.entries.items():
                    assert value <= accumulated[key]

    def test_unbounded_epochs_reach_fixed_point(self):
        cfg = EngineConfig(k=3, l=2, max_epochs=10_000)
        rng = random.Random(13)
        state = EngineState()
        for bin_ in range(3):
            entries = {}
            for _ in range(16):
                key = (rng.randrange(4), rng.randrange(4), bin_)
                entries[key] = entries.get(key, 0) + rng.randint(1, 5)
            state, _ = step(state, slice_for(bin_, entries), cfg)
        pool = state.retained
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                b1, b2 = ordered_pair(pool[i], pool[j])
                assert family_violations(b1, b2) == []


class TestRunStream:
    def test_two_bins_two_outputs(self):
        events = [Event((0, 0, 0), 2), Event((0, 1, 0), 1), Event((1, 1, 1), 3)]
        for consume in STREAM_CONSUMERS:
            outputs = list(consume(events, CFG))
            assert [o.time_range for o in outputs] == [(0, 1), (1, 2)], consume.__name__

    def test_gap_bin_emits_unchanged_output(self):
        events = [Event((0, 0, 0), 5), Event((1, 1, 2), 4)]
        for consume in STREAM_CONSUMERS:
            outputs = list(consume(events, CFG))
            assert len(outputs) == 3, consume.__name__
            assert outputs[1].top_k == outputs[0].top_k, consume.__name__

    def test_empty_stream_yields_nothing(self):
        for consume in STREAM_CONSUMERS:
            assert list(consume([], CFG)) == [], consume.__name__

    def test_time_regression_rejected(self):
        events = [Event((0, 0, 1), 1), Event((0, 0, 0), 1)]
        for consume in STREAM_CONSUMERS:
            with pytest.raises(TimeRegression):
                list(consume(events, CFG))

    @pytest.mark.parametrize("later_bin", [0, 1], ids=["same-bin", "next-bin"])
    def test_arity_change_rejected(self, later_bin):
        # The first event sets the arity; no config states it.
        events = [Event((0, 0, 0), 1), Event((0, 0, 0, later_bin), 1)]
        for consume in STREAM_CONSUMERS:
            with pytest.raises(ShapeMismatch):
                list(consume(events, CFG))

    def test_planted_block_reported_from_first_full_stride(self):
        rng = random.Random(17)
        events = []
        planted_users = set(range(50, 54))
        for bin_ in range(6):
            bucket = []
            for _ in range(25):  # light background
                bucket.append(Event((rng.randrange(40), rng.randrange(40), bin_), 1))
            if 2 <= bin_ <= 4:
                for u in planted_users:
                    for o in (90, 91, 92):
                        bucket.append(Event((u, o, bin_), 3))
            events.extend(bucket)
        outputs = list(run_stream(events, CFG))
        for out in outputs[2:]:
            top_users = set(out.top_k[0].index_sets[0])
            assert planted_users <= top_users


def test_four_mode_stream_end_to_end():
    # Two timestamp columns: one binned into an ordinary mode, one driving
    # the stream. The engine and serializer are mode-count agnostic.
    from tensorsplice import IngestConfig, ModeDictionary, emit_step_output, parse_tuples

    lines = [
        "d1\ta1\t100\t160",
        "d2\ta1\t110\t150",
        "d1\ta2\t130\t210",
        "d2\ta2\t170\t230",
        "d3\ta9\t180\t240",
    ]
    cfg = IngestConfig(mode_cols=(0, 1), time_col=2, stride=50, binned_cols=(3,), t0=100)
    dicts = ModeDictionary.for_config(cfg)
    outputs = list(run_stream(
        parse_tuples(iter(lines), cfg, dicts),
        EngineConfig(k=2, l=1),
    ))
    assert len(outputs) == 2
    top = outputs[-1].top_k[0]
    assert top.n_modes == 4
    line = emit_step_output(outputs[-1], dicts)
    assert '"modes":[["d1","d2"],["a1","a2"],[1,2],[0,1]]' in line


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"l": -1},
            {"k": -1},
            {"max_epochs": 0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        base = {"k": 1, "l": 0, "max_epochs": 1}
        base.update(kwargs)
        with pytest.raises(ValueError):
            EngineConfig(**base)


def eager_order_key(block: Block):
    """The rank key with the canonical id tuples built for every block."""
    return (
        -(block.mass / block.size),
        -block.mass,
        block.size,
        tuple(tuple(block.sorted_ids(m)) for m in range(block.n_modes)),
    )


@settings(max_examples=examples(300), deadline=None)
@given(cells=st.lists(
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)),
        st.integers(1, 2),
        min_size=1,
        max_size=3,
    ),
    min_size=1,
    max_size=8,
))
def test_lazy_tie_break_ranks_as_the_eager_key(cells):
    # Few ids and two values make exact ties on density, mass and size
    # common, and blocks with equal id sets tie on every part of the key.
    pool = [Block(3, entries) for entries in cells]
    lazy = sorted(pool, key=_order_key)
    eager = sorted(pool, key=eager_order_key)
    assert [block.serial for block in lazy] == [block.serial for block in eager]


def test_ranking_sorts_ids_only_on_a_tie(monkeypatch):
    sorts = count_calls(monkeypatch, Block, "sorted_ids")
    untied = [Block(3, {(0, 0, 0): 1}), Block(3, {(0, 0, 0): 2}), Block(3, {(0, 1, 0): 3})]
    assert sorted(untied, key=_order_key)[0].mass == 3
    assert sorts == []
    # Same density, mass and size: the id tuples decide, (0, ...) first.
    tied = [Block(3, {(1, 0, 0): 2}), Block(3, {(0, 1, 0): 2})]
    assert sorted(tied, key=_order_key) == tied[::-1]
    assert sorts


@st.composite
def bin_streams(draw):
    """2-4 modes, up to 6 bins of integer, float or all-tied entries."""
    n_modes = draw(st.integers(2, 4))
    values = draw(st.sampled_from([
        st.integers(1, 9), st.sampled_from([0.1, 0.3, 0.7, 3.3, 1e16]), st.just(1),
    ]))
    max_id = draw(st.integers(1, 5))
    bins = []
    for t in range(draw(st.integers(1, 6))):
        cells = draw(st.lists(
            st.tuples(st.tuples(*[st.integers(0, max_id)] * (n_modes - 1)), values),
            max_size=15,
        ))
        entries: dict = {}
        for ids, value in cells:
            entries[ids + (t,)] = entries.get(ids + (t,), 0) + value
        bins.append(entries)
    return n_modes, bins


@settings(max_examples=examples(150), deadline=None)
@given(stream=bin_streams(), k=st.integers(1, 3), l=st.integers(0, 2))
@example(
    stream=(2, [{(0, 0): 3, (1, 0): 4, (2, 0): 6}, {(0, 1): 4, (1, 1): 1, (2, 1): 9}]),
    k=1, l=2,
)
def test_step_matches_memo_free_sweep(stream, k, l):
    # The sterile-pair memo only skips calls that would return their
    # inputs again, so it must not change what a step retains. A memo
    # keyed by id() alone fails the explicit example: blocks superseded
    # during the step are freed and their ids reused.
    n_modes, bins = stream
    cfg = EngineConfig(k=k, l=l)
    state = EngineState()
    for t, entries in enumerate(bins):
        slice_ = slice_for(t, entries, n_modes)
        want = reference_sweep(state.retained, slice_, cfg)
        state, _ = step(state, slice_, cfg)
        assert [(list(b.entries.items()), repr(b.mass)) for b in state.retained] == [
            (list(b.entries.items()), repr(b.mass)) for b in want
        ]


@settings(max_examples=examples(150), deadline=None)
@given(stream=bin_streams(), k=st.integers(1, 3), l=st.integers(0, 2))
def test_rerun_matches_reference_detect_on_every_prefix(stream, k, l):
    # Each oracle step re-detects on the whole prefix, so neither the
    # detector's index nor the previous step's blocks may leak into it.
    # Empty bins are gaps in the event stream.
    n_modes, bins = stream
    events = [Event(key, value) for entries in bins for key, value in entries.items()]
    cfg = EngineConfig(k=k, l=l)
    outputs = list(iter_rerun_outputs(events, cfg))
    assert len(outputs) == (events[-1].ids[-1] + 1 if events else 0)
    prefix: dict = {}
    for output, entries in zip(outputs, bins):
        prefix.update(entries)
        want = reference_detect(Block(n_modes, prefix), cfg.pool_size)[:k] if prefix else []
        assert output.top_k == want
        assert [b.mass for b in output.top_k] == [b.mass for b in want]


@pytest.mark.parametrize("driver", STREAM_CONSUMERS)
def test_float_stream_masses_are_the_same_under_python312_sum(driver):
    # The golden stream with decimal values: every reported mass is a float
    # whose last bits depend on how it was added up.
    cfg = IngestConfig(mode_cols=(0, 1), time_col=2, value_col=3, stride=100, t0=0)
    with open(DATA / "golden_float_input.tsv", encoding="utf-8") as handle:
        events = list(parse_tuples(handle, cfg, ModeDictionary.for_config(cfg)))

    def reported():
        return [
            [(b.mass.hex(), b.size, b.entries) for b in output.top_k]
            for output in driver(events, EngineConfig(k=3))
        ]

    want = reported()
    with python312_sum():
        assert reported() == want
