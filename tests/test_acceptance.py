"""End-to-end acceptance suite.

One test per criterion, each asserting its stated tolerance and printing
a single summary line (run with ``-s`` to see them live). Later criteria
reuse the expensive shared runs of earlier ones through module fixtures.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from tensorsplice import (
    EngineConfig,
    Event,
    IngestConfig,
    ModeDictionary,
    TensorSlice,
    detect_top_blocks,
    parse_tuples,
    run_stream,
    splice_condition,
    splice_pair,
)
from tensorsplice.synth import (
    InjectionSpec,
    generate_stream,
    rerun_scaling_run,
    scaling_run,
    score,
)
from conftest import (
    brute_force_best_density,
    family_violations,
    ordered_pair,
    random_block,
    union,
)

DATA = Path(__file__).parent / "data"


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


# ---------------------------------------------------------------------------
# 1. Splicing-condition equivalence, exact arithmetic


def test_criterion_1_splice_condition_equivalence():
    rng = random.Random(101)
    started = time.perf_counter()
    checked = 0
    for _ in range(10_000):
        n_modes = rng.choice((3, 4))
        base = random_block(rng, n_modes=n_modes)
        extra = random_block(rng, n_modes=n_modes)
        q = sum(
            len(extra.index_sets[m] - base.index_sets[m]) for m in range(n_modes)
        )
        g1 = Fraction(base.mass, base.size)
        merged = union(base, extra)
        rose = Fraction(merged.mass, merged.size) > g1
        assert rose == splice_condition(extra.mass, q, base.mass, base.size), (
            f"equivalence broken for {base.entries} + {extra.entries}"
        )
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(1, f"{checked} random pairs, exact equivalence, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2 + 3. Pair-splice local maximality, conservation, monotonicity


@pytest.fixture(scope="module")
def splice_runs():
    rng = random.Random(202)
    runs = []
    started = time.perf_counter()
    for _ in range(500):
        a, b = ordered_pair(
            random_block(rng, max_entries=8), random_block(rng, max_entries=8)
        )
        trace = []
        r1, r2 = splice_pair(a, b, trace)
        runs.append((a, b, r1, r2, trace))
    return runs, time.perf_counter() - started


def test_criterion_2_local_maximality(splice_runs):
    runs, elapsed = splice_runs
    started = time.perf_counter()
    for _, _, r1, r2, _ in runs:
        assert family_violations(r1, r2) == []
    elapsed += time.perf_counter() - started
    assert elapsed < 60.0
    report(2, f"{len(runs)} pairs exhaustively verified, {elapsed:.1f}s")


def test_criterion_3_conservation_and_monotonicity(splice_runs):
    runs, _ = splice_runs
    merges = 0
    for a, b, r1, r2, trace in runs:
        assert r1.mass + r2.mass == a.mass + b.mass  # integers, exact
        for before, after in trace:
            assert after > before
        merges += len(trace)
    report(3, f"mass conserved on {len(runs)} runs, {merges} merges all raised density")


# ---------------------------------------------------------------------------
# 4. Batch detector against brute force


def test_criterion_4_detector_brute_force_bound():
    rng = random.Random(404)
    worst = Fraction(10)
    for _ in range(200):
        block = random_block(rng, max_id=3, max_entries=12)
        slice_ = TensorSlice(3, (0, 1))
        for key, value in block.entries.items():
            slice_.add(Event(key, value))
        found = detect_top_blocks(slice_, 1)
        got = Fraction(found[0].mass, found[0].size)
        best = brute_force_best_density(block)
        assert 2 * got >= best, f"detector {got} under half of optimum {best}"
        worst = min(worst, got / best)
    report(4, f"200 tensors, worst detector/optimum ratio {float(worst):.3f}")


# ---------------------------------------------------------------------------
# 5 + 6. Injection recovery and streaming-vs-rerun density


SEEDS = (1, 2, 3, 4, 5)
DENSITIES = (1.0, 0.5, 0.1)


@pytest.fixture(scope="module")
def injection_runs():
    results = {}
    engine_elapsed = 0.0
    for seed in SEEDS:
        for density in DENSITIES:
            spec = InjectionSpec(
                block_shape=(50, 20),
                density=density,
                span_bins=3,
                n_bins=10,
                background_tuples=50_000,
                background_shape=(3000, 2000),
                seed=seed,
                start_bin=3,
                stride=100,
            )
            started = time.perf_counter()
            lines, truth = generate_stream(spec)
            cfg = IngestConfig(
                mode_cols=(0, 1), time_col=2, stride=truth.stride,
                value_col=3, t0=truth.t0,
            )
            dicts = ModeDictionary.for_config(cfg)
            engine_cfg = EngineConfig(k=1, l=5, max_epochs=5)
            last = None
            for out in run_stream(parse_tuples(iter(lines), cfg, dicts), engine_cfg):
                last = out
            f_measure = score(last, truth, dicts).f_measure
            engine_elapsed += time.perf_counter() - started

            full = TensorSlice(3, (0, truth.n_bins))
            dicts2 = ModeDictionary.for_config(cfg)
            for event in parse_tuples(iter(lines), cfg, dicts2):
                full.add(event)
            rerun_top = detect_top_blocks(full, 1)[0]
            results[(seed, density)] = {
                "f": f_measure,
                "stream_density": last.top_k[0].density if last.top_k else 0.0,
                "rerun_density": rerun_top.density,
            }
    results["elapsed"] = engine_elapsed
    return results


def test_criterion_5_injection_recovery(injection_runs):
    elapsed = injection_runs["elapsed"]
    for seed in SEEDS:
        f_half = injection_runs[(seed, 0.5)]["f"]
        f_full = injection_runs[(seed, 1.0)]["f"]
        f_low = injection_runs[(seed, 0.1)]["f"]
        assert f_half >= 0.90, f"seed {seed}: F at 0.5 was {f_half:.3f}"
        assert f_full >= 0.90, f"seed {seed}: F at 1.0 was {f_full:.3f}"
        assert f_low < f_half, f"seed {seed}: no difficulty gradient"
    assert elapsed < 120.0
    fs = [injection_runs[(s, 0.5)]["f"] for s in SEEDS]
    report(
        5,
        f"5 seeds recovered (min F at 0.5 = {min(fs):.3f}), "
        f"engine time {elapsed:.0f}s",
    )


def test_criterion_6_streaming_close_to_rerun(injection_runs):
    worst = 10.0
    for seed in SEEDS:
        for density in DENSITIES:
            case = injection_runs[(seed, density)]
            ratio = case["stream_density"] / case["rerun_density"]
            assert ratio >= 0.8, (
                f"seed {seed} density {density}: streaming reached only "
                f"{ratio:.2f} of the full re-run"
            )
            worst = min(worst, ratio)
    report(6, f"worst streaming/rerun density ratio {worst:.3f}")


# ---------------------------------------------------------------------------
# 7. Near-linear engine scaling, superlinear re-run baseline


def test_criterion_7_scaling_slopes():
    started = time.perf_counter()
    cfg = EngineConfig(k=3, l=2)
    engine = scaling_run(
        [1000, 2000, 4000, 8000, 16000], cfg=cfg, seed=0, repeats=5
    )
    baseline = rerun_scaling_run(8, 4000, cfg=cfg, seed=0)
    elapsed = time.perf_counter() - started
    assert engine.slope <= 1.3, f"engine slope {engine.slope:.2f}"
    assert baseline.slope >= 1.6, f"re-run baseline slope {baseline.slope:.2f}"
    assert elapsed < 300.0
    report(
        7,
        f"engine slope {engine.slope:.2f} (<= 1.3), "
        f"re-run slope {baseline.slope:.2f} (>= 1.6), {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 8. Byte-identical command output under fixed seeds


def _run_cli(args, cwd) -> subprocess.CompletedProcess:
    from test_cli import TIMEOUT_S, subprocess_env

    result = subprocess.run(
        [sys.executable, "-m", "tensorsplice.cli", *args],
        capture_output=True,
        cwd=cwd,
        env=subprocess_env(),
        timeout=TIMEOUT_S,
    )
    assert result.returncode == 0, result.stderr.decode()
    return result


def test_criterion_8_byte_identical_outputs(tmp_path):
    golden_in = str(DATA / "golden_input.tsv")
    ingest = ["--modes", "0,1", "--time-col", "2", "--value-col", "3",
              "--stride", "100", "--t0", "0"]
    gen_out = tmp_path / "gen.tsv"
    gen_truth = tmp_path / "gen.json"
    commands = {
        "generate": [
            "generate", "--block", "10x5", "--density", "0.8", "--span", "2",
            "--bins", "4", "--background-tuples", "400", "--background",
            "60x40", "--seed", "11", "--output", str(gen_out),
            "--truth", str(gen_truth),
        ],
        "run": ["run", "--input", golden_in, *ingest, "--k", "3"],
        "oracle": ["oracle", "--input", golden_in, *ingest, "--k", "3"],
    }
    outputs: dict[str, set] = {name: set() for name in commands}
    for _ in range(3):
        for name, args in commands.items():
            result = _run_cli(args, tmp_path)
            if name == "generate":
                outputs[name].add(gen_out.read_bytes() + gen_truth.read_bytes())
            else:
                outputs[name].add(result.stdout)
    # evaluate runs against the generated stream from above
    outputs["evaluate"] = set()
    for _ in range(3):
        result = _run_cli(
            ["evaluate", "--input", str(gen_out), "--truth", str(gen_truth)],
            tmp_path,
        )
        outputs["evaluate"].add(result.stdout)
    for name, seen in outputs.items():
        assert len(seen) == 1, f"{name} output varied across runs"
    report(8, f"{len(outputs)} commands byte-identical across 3 runs each")
