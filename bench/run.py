"""End-to-end and per-layer benchmark of the tensorsplice CLI.

    python3 bench/run.py --workload steady --seed 1 --seconds 30 --trace 0

Run it from a checkout of the repository; it imports the package from the
checkout's ``src/`` and runs the CLI from there, nothing installed. Each run
generates its input streams from ``--seed`` with ``tensorsplice.synth``,
writes them under ``.bench_out/``, and times the real CLI as a child
process (``python -u -m tensorsplice.cli run|oracle ... --t0 <truth.t0>``),
one child at a time. Every invocation is one operation; its output is
checked by ``checker.py`` and any failure counts in ``failed``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` pairs each
untraced invocation with one under ``tracer.py`` and prints the per-layer
metrics. Both print a human-readable report and, as the last line, one JSON
object. The full record (samples, digests, per-step series) goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json``. ``design.json`` holds the
workloads, seeds and recorded output digests; README.md explains the choices.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import tracer  # noqa: E402

DESIGN = json.loads((HERE / "design.json").read_text(encoding="utf-8"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TAIL_Q = 0.75  # step_s_tail percentile: keeps well over ten of ~100 gaps beyond it
# Per-layer counts fixed by the workload: printed, but not BENCHMARK.json metrics.
FIXED_COUNTS = ("ingest.tuples", "engine.steps")


class CannotRun(Exception):
    """The benchmark cannot run here (no package to measure, bad arguments)."""


def load_synth():
    src = ROOT / "src"
    if not (src / "tensorsplice" / "cli.py").is_file():
        raise CannotRun(f"no tensorsplice package under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))
    import tensorsplice.synth as synth

    if Path(synth.__file__).resolve().parent != (src / "tensorsplice").resolve():
        raise CannotRun(f"imported tensorsplice from {synth.__file__}, not from {src}")
    return synth


class Stream:
    """One generated input file, its truth and the CLI command that reads it."""

    def __init__(self, synth, workload: dict, seed: int, workdir: Path):
        params = dict(workload["stream"])
        params["block_shape"] = tuple(params["block_shape"])
        params["background_shape"] = tuple(params["background_shape"])
        lines, self.truth = synth.generate_stream(synth.InjectionSpec(seed=seed, **params))
        self.tuples = len(lines)
        self.path = workdir / f"stream-{seed}.tsv"
        self.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.n_steps = self.truth.n_bins
        n = len(self.truth.mode_ids)
        engine = workload["engine"]
        self.k = engine["k"]
        self.args = [
            workload["command"], "--input", str(self.path),
            "--modes", ",".join(str(m) for m in range(n)),
            "--time-col", str(n), "--value-col", str(n + 1),
            "--stride", str(self.truth.stride), "--t0", str(self.truth.t0),
            "--k", str(engine["k"]), "--l", str(engine["l"]),
        ]

    def f_measure(self, synth, output: bytes) -> float:
        """Entity F-measure of the last step's top block, as `evaluate --k 1` scores it."""
        modes = checker.last_top_block(output)
        if modes is None:
            return 0.0
        top = SimpleNamespace(n_modes=len(modes), index_sets=[set(ids) for ids in modes])
        labels = SimpleNamespace(decode=lambda mode, label: label)
        return synth.score(SimpleNamespace(top_k=[top]), self.truth, labels).f_measure

    def remove(self) -> None:
        self.path.unlink()


class Launcher:
    """Starts and times every child from a process forked before the benchmark
    imports the package or generates a stream. Linux carries a parent's peak
    RSS into its child's ``ru_maxrss``, so a child started from the grown
    benchmark process would never read below that process's own peak."""

    def __init__(self, workdir: Path, deadline: float):
        requests_r, requests_w = os.pipe()
        replies_r, replies_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            # Never return into the benchmark's code: the parent sees the
            # replies pipe close and fails the run.
            try:
                os.close(requests_w)
                os.close(replies_r)
                with open(requests_r, "r") as requests, open(replies_w, "w") as replies:
                    for line in requests:
                        reply = run_child(json.loads(line), workdir, deadline)
                        replies.write(json.dumps(reply) + "\n")
                        replies.flush()
            except BaseException:
                traceback.print_exc()
                os._exit(1)
            os._exit(0)
        os.close(requests_r)
        os.close(replies_w)
        self.requests = open(requests_w, "w")
        self.replies = open(replies_r, "r")
        self.workdir = workdir

    def run(self, argv: list[str]) -> tuple[dict, bytes, str]:
        """Run a child to completion: timings and peak RSS, stdout, stderr."""
        self.requests.write(json.dumps(argv) + "\n")
        self.requests.flush()
        line = self.replies.readline()
        if not line:
            raise CannotRun("the launcher process ended")
        reply = json.loads(line)
        return (reply, (self.workdir / "stdout.bin").read_bytes(),
                (self.workdir / "stderr.txt").read_text(encoding="utf-8", errors="replace"))

    def close(self) -> None:
        self.requests.close()
        self.replies.close()
        os.waitpid(self.pid, 0)


def run_child(argv: list[str], workdir: Path, deadline: float) -> dict:
    """In the launcher: wall time, stdout line arrival gaps, peak RSS, exit code."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = time.perf_counter()
    with open(workdir / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(deadline - started, 1.0), proc.kill)
    watchdog.start()
    stamps, chunks = [], []
    try:
        for line in proc.stdout:
            stamps.append(time.perf_counter())
            chunks.append(line)
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        watchdog.cancel()
        proc.stdout.close()
    (workdir / "stdout.bin").write_bytes(b"".join(chunks))
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024,
            "gaps": [b - a for a, b in zip(stamps, stamps[1:])],
            "returncode": os.waitstatus_to_exitcode(status)}


class Runner:
    """Launches one child at a time and keeps the operation tally."""

    def __init__(self, launcher: Launcher | None, deadline: float):
        self.launcher = launcher
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []

    def launch(self, argv: list[str], label: str) -> SimpleNamespace:
        self.attempted += 1
        reply, out, stderr = self.launcher.run(argv)
        result = SimpleNamespace(wall_s=reply["wall_s"], out=out, rss_mb=reply["rss_mb"],
                                 gaps=reply["gaps"], ok=True)
        if reply["returncode"] != 0 or "Traceback" in stderr:
            self.fail(result, f"{label}: exit {reply['returncode']}: {stderr.strip()[-500:]}")
        return result

    def fail(self, result, message: str) -> None:
        if result.ok:
            result.ok = False
            self.failures.append(message)

    def check(self, result, stream: Stream, label: str) -> None:
        if not result.ok:
            return
        problems = checker.check_output(result.out, stream.k, stream.n_steps)
        if problems:
            self.fail(result, f"{label}: output rejected: " + "; ".join(problems[:5]))

    def out_of_time(self, unrun: int) -> bool:
        """At the deadline, count the streams not yet run as failed operations."""
        if time.perf_counter() < self.deadline:
            return False
        self.attempted += unrun
        self.failures.extend(["deadline reached: stream not run"] * unrun)
        return True


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tail(samples: list[float]) -> tuple[str, float]:
    """Percentile TAIL_Q (nearest rank), labelled with how many samples lie beyond it."""
    ordered = sorted(samples)
    if not ordered:
        return "no samples", 0.0
    rank = max(math.ceil(TAIL_Q * len(ordered)), 1)
    beyond = len(ordered) - rank
    label = f"p{TAIL_Q * 100:g}, {beyond} beyond" + ("" if beyond >= 10 else ": too few samples")
    return label, ordered[rank - 1]


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-u", "-m", "tensorsplice.cli", *args]


def stream_count(workload: dict, seconds: float, traced: bool) -> int:
    """Streams in a run: fixed by the workload and the run length, never by how
    fast the program is, so every version measures the same inputs. A traced
    stream runs twice (untraced, then traced), so a traced run takes half."""
    count = workload["streams"] * seconds / BENCHMARK["run_seconds"]
    return max(1, round(count / 2 if traced else count))


def deadline_s(seconds: float) -> float:
    """Safety stop: twice the run length, plus room for a one-stream run."""
    return 2 * seconds + 30


def warm_up(runner: Runner, stream: Stream, workdir: Path) -> list[str]:
    """Run the stream's command once on an empty file, filling the bytecode
    cache; returns that command's arguments for the set-up timing."""
    empty = workdir / "empty.tsv"
    empty.write_text("", encoding="utf-8")
    args = [str(empty) if a == str(stream.path) else a for a in stream.args]
    runner.launch(cli_argv(args), "warm-up")
    return args


def measure(synth, name: str, workload: dict, seed: int, seconds: float,
            runner: Runner, workdir: Path) -> tuple[dict, dict]:
    """Untraced run: one invocation per generated stream, each preceded by
    one on an empty input, so set-up is sampled across the whole run."""
    count = stream_count(workload, seconds, traced=False)
    first = Stream(synth, workload, seed * 10_000, workdir)
    empty_args = warm_up(runner, first, workdir)
    setups = []

    def time_setup() -> None:
        result = runner.launch(cli_argv(empty_args), f"setup {len(setups)}")
        if result.ok and result.out:
            runner.fail(result, f"setup {len(setups)}: empty input printed output")
        setups.append(result.wall_s)

    walls, rss, gaps, fs, digests = [], [], [], [], []
    stream = first
    for i in range(count):
        if i:
            if runner.out_of_time(count - i):
                break
            stream = Stream(synth, workload, seed * 10_000 + i, workdir)
        time_setup()
        result = runner.launch(cli_argv(stream.args), f"stream {i}")
        runner.check(result, stream, f"stream {i}")
        walls.append(result.wall_s)
        rss.append(result.rss_mb)
        gaps.extend(result.gaps)
        digests.append(digest(result.out))
        fs.append(stream.f_measure(synth, result.out) if result.ok else 0.0)
        if stream is not first:
            stream.remove()

    if not runner.out_of_time(1):
        time_setup()
        again = runner.launch(cli_argv(first.args), "stream 0 re-run")
        runner.check(again, first, "stream 0 re-run")
        if again.ok and digest(again.out) != digests[0]:
            runner.fail(again, "stream 0: output differs between two runs of the same input")
        walls.append(again.wall_s)
        rss.append(again.rss_mb)
        gaps.extend(again.gaps)
    check_digest(runner, name, workload, seed, digests[0])

    wall_s = statistics.median(walls)
    label, step_tail = tail(gaps)
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups), "median"),
        "wall_s": (wall_s, "s", len(walls), "median"),
        # Every stream of a workload has the same tuple count.
        "tuples_per_s": (first.tuples / wall_s, "1/s", len(walls), "tuples / median wall"),
        "step_s_p50": (statistics.median(gaps) if gaps else 0.0, "s", len(gaps), "p50"),
        "step_s_tail": (step_tail, "s", len(gaps), label),
        "peak_rss_mb": (statistics.median(rss), "MB", len(rss), "median"),
        "f_measure": (statistics.median(fs), "ratio", len(fs), "median"),
    }
    record = {"setup_s": setups, "wall_s": walls, "step_gaps_s": gaps, "peak_rss_mb": rss,
              "f_measure": fs, "tuples": first.tuples, "digests": digests}
    return metrics, record


def measure_traced(synth, name: str, workload: dict, seed: int, seconds: float,
                   runner: Runner, workdir: Path) -> tuple[dict, dict]:
    """Traced run: each stream once untraced and once under the tracer."""
    count = stream_count(workload, seconds, traced=True)
    per_stream, layer_selves, series = [], [], []
    first_digest = None
    for i in range(count):
        if i and runner.out_of_time(count - i):
            break
        stream = Stream(synth, workload, seed * 10_000 + i, workdir)
        if i == 0:
            warm_up(runner, stream, workdir)
        plain = runner.launch(cli_argv(stream.args), f"stream {i}")
        runner.check(plain, stream, f"stream {i}")
        spans_path = workdir / f"spans-{i}.json"
        traced = runner.launch(
            [sys.executable, "-u", str(HERE / "tracer.py"), str(spans_path), str(i), "--",
             *stream.args], f"traced stream {i}")
        runner.check(traced, stream, f"traced stream {i}")
        if traced.ok and plain.ok and traced.out != plain.out:
            runner.fail(traced, f"traced stream {i}: output differs from the untraced run")
        if i == 0:
            first_digest = digest(plain.out)
        if spans_path.is_file():
            trace = json.loads(spans_path.read_text(encoding="utf-8"))
            metrics, selves = tracer.layer_summary(trace, traced.wall_s)
            metrics["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
            per_stream.append(metrics)
            layer_selves.append(selves)
            series.append(trace["steps"])
            spans_path.unlink()
        stream.remove()
    check_digest(runner, name, workload, seed, first_digest)
    if not per_stream:
        raise CannotRun("no traced invocation wrote its spans")

    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    units.update(dict.fromkeys(FIXED_COUNTS, "count"))
    metrics = {key: (statistics.median(s[key] for s in per_stream), units[key], len(per_stream),
                     "fixed by the workload" if key in FIXED_COUNTS else "median over streams")
               for key in units}
    selves = {layer: statistics.median(s[layer] for s in layer_selves) for layer in tracer.LAYERS}
    if name == "oracle" and metrics["splice.calls"][0] != 0:
        runner.failures.append("oracle: splice_pair was called, but the oracle has no splice step")
    record = {"per_stream": per_stream, "layer_self_s": layer_selves, "layer_self_s_median": selves,
              "step_series": series, "step_series_median": median_series(series)}
    return metrics, record


def median_series(series: list[list[dict]]) -> list[dict]:
    """Per step index: the median of each field over the traced streams."""
    if not series or not series[0]:
        return []
    length = min(len(s) for s in series)
    return [{key: statistics.median(s[j][key] for s in series) for key in series[0][0]}
            for j in range(length)]


def check_digest(runner: Runner, name: str, workload: dict, seed: int, got: str | None) -> None:
    if seed != workload["default_seed"] or got is None:
        return
    if got != workload["digest"]:
        runner.failures.append(
            f"{name}: stream 0 output sha256 {got} != recorded {workload['digest']}")


def report(name, seed, trace, metrics, runner, record) -> dict:
    failed = len(runner.failures)
    print(f"tensorsplice bench: workload={name} seed={seed} trace={trace} "
          f"attempted={runner.attempted} failed={failed} "
          f"error_rate={failed / max(runner.attempted, 1):.4f}")
    for key, (value, unit, n, how) in metrics.items():
        print(f"  {key:28s} {value:14.6g} {unit:6s} n={n} ({how})")
    if trace:
        selves = record["layer_self_s_median"]
        busiest = max((layer for layer in selves if layer != "cli"), key=selves.get)
        print("  self time by layer: " + ", ".join(f"{k}={v:.3f}s" for k, v in selves.items())
              + f"; largest (cli aside): {busiest}")
    for failure in runner.failures:
        print(f"  FAILED {failure}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit, _, _) in metrics.items() if key not in FIXED_COUNTS},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(DESIGN["workloads"]))
    parser.add_argument("--seed", type=int, default=None,
                        help="stream seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = DESIGN["workloads"][args.workload]
    seed = workload["default_seed"] if args.seed is None else args.seed
    started = time.perf_counter()
    deadline = started + deadline_s(args.seconds)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    launcher = Launcher(workdir, deadline)
    try:
        synth = load_synth()
        runner = Runner(launcher, deadline)
        run = measure_traced if args.trace else measure
        metrics, record = run(synth, args.workload, workload, seed, args.seconds, runner, workdir)
    except CannotRun as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
    result = report(args.workload, seed, args.trace, metrics, runner, record)
    record.update(result, failures=runner.failures,
                  elapsed_s=time.perf_counter() - started, seconds=args.seconds)
    results = OUT / f"{args.workload}-seed{seed}-trace{args.trace}.json"
    results.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
