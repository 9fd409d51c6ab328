"""The work behind `steady` stream 0 at the benchmark's default seed.

A change that keeps the output bytes must also keep the splices and peels
that produce them. The stream parameters are those of the `steady`
workload in ``bench/design.json``; calls are counted as ``bench/tracer.py``
counts them, through the module globals the package calls.
"""

import hashlib

import tensorsplice.detect
import tensorsplice.engine
from tensorsplice import synth
from tensorsplice.cli import main
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


def test_steady_stream_work_counters(tmp_path, monkeypatch, capsys):
    lines, truth = synth.generate_stream(STEADY)
    stream = tmp_path / "steady.tsv"
    stream.write_text("\n".join(lines) + "\n", encoding="utf-8")
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
    peels = count_calls(monkeypatch, tensorsplice.detect, "peel_once")
    out = tmp_path / "run.jsonl"
    code = main([
        "run", "--input", str(stream), "--modes", "0,1", "--time-col", "2",
        "--value-col", "3", "--stride", str(truth.stride), "--t0", str(truth.t0),
        "--k", "10", "--l", "5", "--output", str(out),
    ])
    assert code == 0, capsys.readouterr().err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGEST
    assert splices == {
        "calls": 2849, "productive_calls": 495, "donor_nnz": 914741, "mass_moved": 19451,
    }
    assert (len(detects), len(peels)) == (10, 46)
