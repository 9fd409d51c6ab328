"""Tests of the benchmark's own output checker and span accounting.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import tracer  # noqa: E402


def _block(mass, modes):
    size = sum(len(ids) for ids in modes)
    return {"density": float(f"{mass / size:.12g}"), "mass": mass, "size": size, "modes": modes}


def _line(step, blocks):
    return {"schema": "tensorsplice/1", "step": step, "time_range": [step, step + 1],
            "blocks": blocks}


def _encode(lines) -> bytes:
    return "".join(json.dumps(obj, separators=(",", ":")) + "\n" for obj in lines).encode()


def _valid():
    return [
        _line(0, [_block(7, [["u1", "u2"], ["i1"], [0]]), _block(1, [["u3"], ["i2"], [0]])]),
        _line(1, []),
        _line(2, [_block(10, [["u1", "u2", "u4"], ["i1", "i5"], [0, 2]])]),
    ]


def test_valid_output_passes():
    assert checker.check_output(_encode(_valid()), k=2, n_steps=3) == []


def _corrupt(edit):
    lines = _valid()
    edit(lines)
    return _encode(lines)


@pytest.mark.parametrize("data", [
    _encode(_valid()).replace(b'"density":1.75', b'"density":Infinity'),
    _encode(_valid()).replace(b'"density":1.75', b'"density":NaN'),
    _corrupt(lambda ls: ls[0]["blocks"][0].update(density=3.4)),
    _corrupt(lambda ls: ls.pop(1)),
    _corrupt(lambda ls: ls[2].update(step=3)),
    _corrupt(lambda ls: ls[2].update(time_range=[2, 4])),
    _corrupt(lambda ls: ls[0].update(schema="tensorsplice/2")),
    _corrupt(lambda ls: ls[0]["blocks"][1].update(size=4)),
    _corrupt(lambda ls: ls[0]["blocks"].reverse()),
    _corrupt(lambda ls: ls[1]["blocks"].extend([_block(1, [["a"], ["b"], [1]])] * 3)),
    _encode(_valid())[:-1],
    _encode(_valid()) + b"{}\n",
], ids=["infinity", "nan", "wrong-density", "skipped-step", "step-gap", "time-range",
        "schema", "size", "density-rises", "too-many-blocks", "no-final-newline", "extra-line"])
def test_corrupted_output_is_rejected(data):
    assert checker.check_output(data, k=2, n_steps=3)


def test_last_top_block():
    assert checker.last_top_block(_encode(_valid())) == [["u1", "u2", "u4"], ["i1", "i5"], [0, 2]]
    assert checker.last_top_block(_encode(_valid()[:2])) is None


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["cli", 0.0, 10.0, -1],
        ["run_stream", 1.0, 9.0, 0],
        ["step", 2.0, 8.0, 1],
        ["splice", 3.0, 7.0, 2],
    ]
    assert tracer.self_times(spans) == [2.0, 2.0, 2.0, 4.0]


def test_generator_spans_cover_only_resumptions():
    t = tracer.Tracer(run_id=0)

    def numbers():
        yield 1
        yield 2

    wrapped = t.wrap("parse", numbers)
    assert list(wrapped()) == [1, 2]
    assert [s[0] for s in t.spans] == ["parse"] * 3  # two items plus the final StopIteration
    assert t.counts["ingest.tuples"] == 2
    assert all(s[3] == -1 for s in t.spans)


def test_slope():
    assert tracer.slope([1.0, 3.0, 5.0]) == pytest.approx(2.0)
    assert tracer.slope([4.0]) == 0.0


def test_traced_cli_run_matches_untraced(tmp_path):
    src = HERE.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    stream = tmp_path / "s.tsv"
    rows = [f"u{u}\ti{i}\t{t}\t1" for t in range(0, 300, 7) for u in range(4) for i in range(3)
            if (u + i + t) % 3]
    stream.write_text("\n".join(rows) + "\n")
    args = ["run", "--input", str(stream), "--stride", "100", "--t0", "0", "--value-col", "3"]
    plain = subprocess.run([sys.executable, "-m", "tensorsplice.cli", *args], env=env,
                           capture_output=True, check=True, timeout=60)
    spans = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, str(HERE / "tracer.py"), str(spans), "0", "--", *args],
                            env=env, capture_output=True, check=True, timeout=60)
    assert traced.stdout == plain.stdout
    assert checker.check_output(traced.stdout, k=10, n_steps=3) == []
    trace = json.loads(spans.read_text())
    metrics, selves = tracer.layer_summary(trace, traced_wall_s=5.0)
    assert metrics["ingest.tuples"] == len(rows)
    assert metrics["engine.steps"] == 3
    assert metrics["detect.calls"] == 3
    root = [s for s in trace["spans"] if s[3] == -1]
    assert [s[0] for s in root] == ["cli"]
    assert sum(selves.values()) == pytest.approx(root[0][2] - root[0][1])


def test_stream_count_is_fixed_by_the_run_length():
    import run

    workload = {"streams": 14}
    full = run.BENCHMARK["run_seconds"]
    assert run.stream_count(workload, full, traced=False) == 14
    assert run.stream_count(workload, full, traced=True) == 7
    assert run.stream_count(workload, 1, traced=False) == 1


def test_deadline_counts_unrun_streams_as_failures():
    import run

    runner = run.Runner(None, deadline=0.0)
    assert runner.out_of_time(3)
    assert (runner.attempted, len(runner.failures)) == (3, 3)
    assert not run.Runner(None, deadline=float("inf")).out_of_time(3)


def test_launcher_rss_excludes_the_benchmark_process(tmp_path):
    import run

    launcher = run.Launcher(tmp_path, deadline=float("inf"))
    try:
        grown = b"x" * (100 * 1024 * 1024)  # the benchmark process grows after the fork
        reply, out, _ = launcher.run([sys.executable, "-c", "print(1)"])
        assert out == b"1\n" and reply["returncode"] == 0
        assert reply["rss_mb"] < 60 < len(grown) / 2**20
        with pytest.raises(run.CannotRun):
            launcher.run([str(tmp_path / "no-such-program")])
    finally:
        launcher.close()
