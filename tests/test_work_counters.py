"""The work behind `steady` and `oracle` stream 0 at the benchmark's
default seed and behind a 30-bin stream at `steady`'s per-bin parameters,
and the memory a detect and a tracking run on such a stream take.

A change that keeps the output bytes must also keep the splices and peels
that produce them. The stream parameters are those of the workloads in
``bench/design.json``; calls are counted as ``bench/tracer.py`` counts them,
through the module globals the package calls.
"""

import collections
import gc
import hashlib
import sys
import tracemalloc

import pytest

import tensorsplice.detect
import tensorsplice.engine
import tensorsplice.splice
from tensorsplice import Block, EngineConfig, TensorSlice, detect_top_blocks, run_stream, synth
from tensorsplice.cli import main
from tensorsplice.ingest import IngestConfig, ModeDictionary, emit_step_output, parse_tuples
from conftest import count_calls

STEADY = synth.InjectionSpec(
    block_shape=(40, 20),
    density=0.3,
    span_bins=4,
    n_bins=10,
    background_tuples=15000,
    background_shape=(10000, 5000),
    start_bin=3,
    seed=10000,
)
DIGEST = "aafee183d80b446ff0105ff8ba893c34131a14142cc8b3d0e81e150d1af6f94c"
ORACLE = synth.InjectionSpec(
    block_shape=(40, 20),
    density=0.3,
    span_bins=4,
    n_bins=7,
    background_tuples=14000,
    background_shape=(20000, 10000),
    start_bin=2,
    seed=10000,
)
ORACLE_DIGEST = "7dc80dd93771c00ad132723c1bfa4c2f021464c7a9ec88bbcba37a9d5db63352"
# Thirty bins of steady's background rate, tracked at k=1.
LONG = STEADY._replace(n_bins=30, background_tuples=45000)
LONG_DIGEST = "4332d3ee3fc9b7ceaaa6bf335767ff538d44a612deec4bdba98341cad781476e"
# CPython 3.11 moved a call's arguments into the callee's frame. Before it,
# the caller's stack holds them until the call returns, so there the state
# run_stream hands a step, and every block it retains, lives until the step
# returns.
ARGUMENTS_HANDED_OVER = sys.version_info >= (3, 11)


def count_peels(monkeypatch) -> list:
    """Wrap ``peel_once`` for one test; the list collects each run's nnz."""
    peel_once = tensorsplice.detect.peel_once
    peeled: list = []

    def counted_peel(working):
        block = peel_once(working)
        peeled.append(block.nnz)
        return block

    monkeypatch.setattr(tensorsplice.detect, "peel_once", counted_peel)
    return peeled


def run_digest(command: str, spec, tmp_path, capsys, k: int = 10) -> str:
    """The sha256 of ``command``'s output on the stream ``spec`` generates,
    at ``--k k --l 5``."""
    lines, truth = synth.generate_stream(spec)
    stream = tmp_path / "stream.tsv"
    stream.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    code = main([
        command, "--input", str(stream), "--modes", "0,1", "--time-col", "2",
        "--value-col", "3", "--stride", str(truth.stride), "--t0", str(truth.t0),
        "--k", str(k), "--l", "5", "--output", str(out),
    ])
    assert code == 0, capsys.readouterr().err
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_steady_stream_work_counters(tmp_path, monkeypatch, capsys):
    splices = {"calls": 0, "productive_calls": 0, "donor_nnz": 0, "mass_moved": 0}
    splice_pair = tensorsplice.engine.splice_pair

    def counted_splice(target, donor, *rest):
        result = splice_pair(target, donor, *rest)
        splices["calls"] += 1
        splices["donor_nnz"] += donor.nnz
        if result[1].nnz != donor.nnz:  # the engine's own test for a productive call
            splices["productive_calls"] += 1
            splices["mass_moved"] += result[0].mass - target.mass
        return result

    monkeypatch.setattr(tensorsplice.engine, "splice_pair", counted_splice)
    detects = count_calls(monkeypatch, tensorsplice.engine, "detect_top_blocks")
    peeled = count_peels(monkeypatch)
    # The two kinds of pass in splice_pair's loop.
    drains = count_calls(monkeypatch, tensorsplice.splice, "_empty_q_drain", keep_args=False)
    forced = count_calls(monkeypatch, tensorsplice.splice, "_forced_pass", keep_args=False)
    assert run_digest("run", STEADY, tmp_path, capsys) == DIGEST
    assert splices == {
        "calls": 2849, "productive_calls": 495, "donor_nnz": 914741, "mass_moved": 19451,
    }
    assert (len(detects), len(peeled), sum(peeled)) == (10, 46, 15959)
    assert (len(drains), len(forced)) == (579, 1368)


def test_long_stream_drain_counters(tmp_path, monkeypatch, capsys):
    # A drain that merged on int values is final unless a mode lost its
    # overlap. When every drain that merged was followed by one more, this
    # stream took 1,199 drains.
    drains = count_calls(monkeypatch, tensorsplice.splice, "_empty_q_drain", keep_args=False)
    forced = count_calls(monkeypatch, tensorsplice.splice, "_forced_pass", keep_args=False)
    assert run_digest("run", LONG, tmp_path, capsys, k=1) == LONG_DIGEST
    assert (len(drains), len(forced)) == (950, 1147)


def test_oracle_stream_work_counters(tmp_path, monkeypatch, capsys):
    # The re-run baseline detects on the whole accumulated tensor at every
    # stride and never splices.
    splices = count_calls(monkeypatch, tensorsplice.engine, "splice_pair")
    detects = count_calls(monkeypatch, tensorsplice.engine, "detect_top_blocks")
    peeled = count_peels(monkeypatch)
    assert run_digest("oracle", ORACLE, tmp_path, capsys) == ORACLE_DIGEST
    assert (len(splices), len(detects), len(peeled), sum(peeled)) == (0, 7, 40, 59276)


def test_detect_peak_memory_per_entry():
    # The oracle stream with 3,000 background tuples instead of 14,000, so
    # tracing takes under a second, detected whole. Traced on Python 3.11,
    # the peak read 438 B per entry with a key-to-entry map and a live-mark
    # bytearray in the index and a run's state alive while its block was
    # built, and 335 B without them.
    lines, truth = synth.generate_stream(ORACLE._replace(background_tuples=3000))
    cfg = IngestConfig(mode_cols=(0, 1), time_col=2, value_col=3, stride=truth.stride,
                       t0=truth.t0)
    tensor = TensorSlice(3, (0, 1))
    for event in parse_tuples(lines, cfg, ModeDictionary.for_config(cfg)):
        tensor.add(event)
    assert tensor.nnz == 3960
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        detect_top_blocks(tensor, 15)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / tensor.nnz < 385


@pytest.fixture(scope="module")
def steady_prefix():
    """The first 6,000 lines of `steady` stream 0, parsed, and their
    dictionaries."""
    lines, truth = synth.generate_stream(STEADY)
    cfg = IngestConfig(mode_cols=(0, 1), time_col=2, value_col=3, stride=truth.stride,
                       t0=truth.t0)
    dicts = ModeDictionary.for_config(cfg)
    return list(parse_tuples(lines[:6000], cfg, dicts)), dicts


def test_a_replaced_block_is_freed_by_the_next_splice(steady_prefix, monkeypatch):
    # The caller keeps no output, so once a productive splice has returned,
    # no block it replaced is left when the next splice starts: before
    # Python 3.11, none but the blocks of the state the step started from.
    events, _ = steady_prefix
    splice_pair = tensorsplice.engine.splice_pair
    bin_slices = tensorsplice.engine.bin_slices
    replaced: set = set()
    survivors: list = []
    checks = 0
    step_start = 0  # serials from here on are those the running step made

    def live_serials() -> list:
        return [obj.serial for obj in gc.get_objects() if type(obj) is Block]

    def marked_slices(stream):
        nonlocal step_start
        for slice_ in bin_slices(stream):
            step_start = max(live_serials(), default=-1) + 1
            yield slice_

    def watched_splice(target, donor, *rest):
        nonlocal checks
        if replaced:
            checks += 1
            survivors.extend(serial for serial in live_serials() if serial in replaced
                             and (ARGUMENTS_HANDED_OVER or serial >= step_start))
            replaced.clear()
        new_target, new_donor = splice_pair(target, donor, *rest)
        if new_target is not target or new_donor is not donor:
            replaced.update((target.serial, donor.serial))
        return new_target, new_donor

    monkeypatch.setattr(tensorsplice.engine, "bin_slices", marked_slices)
    monkeypatch.setattr(tensorsplice.engine, "splice_pair", watched_splice)
    collections.deque(run_stream(events, EngineConfig()), maxlen=0)  # keeps no output
    assert (checks, survivors) == (74, [])


def test_run_stream_peak_memory_per_event(steady_prefix):
    # Traced on Python 3.11 and 3.12, the peak read 599-614 B per event,
    # by what ran before, while a step kept its input state, its seeds and
    # the previous output to its end, and 502-514 B without them. Python
    # 3.10, where the caller keeps the input state, read 597 B and 575 B.
    events, _ = steady_prefix
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        collections.deque(run_stream(events, EngineConfig()), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / len(events) < (550 if ARGUMENTS_HANDED_OVER else 610)


def test_run_stream_peak_memory_per_event_with_lean_splice_indexes(steady_prefix):
    # A block's splice index holds its postings and vmax and nothing else.
    # With a key-to-ordinal map beside them, the peak read 516-518 B per
    # event on Python 3.11 and 3.12 and 595 B on 3.10; without it, 434 B
    # and 515 B.
    events, _ = steady_prefix
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        collections.deque(run_stream(events, EngineConfig()), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / len(events) < (470 if ARGUMENTS_HANDED_OVER else 555)


def test_kept_outputs_emit_the_bytes_of_dropped_ones(steady_prefix):
    # The CLI drops each output before the next step; list() keeps them all.
    events, dicts = steady_prefix
    dropped = []
    for output in run_stream(events, EngineConfig()):
        dropped.append(emit_step_output(output, dicts))
        del output
    kept = list(run_stream(events, EngineConfig()))
    assert [emit_step_output(output, dicts) for output in kept] == dropped
