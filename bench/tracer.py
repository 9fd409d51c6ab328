"""Traced run of the tensorsplice CLI, with spans recorded from outside the package.

Run as a program, it installs timing wrappers on the module attributes the
package calls through, runs ``tensorsplice.cli.main`` with the remaining
arguments, and writes every span and counter to a JSON file at exit:

    python3 -u bench/tracer.py SPANS.json RUN_ID -- run --input ... --t0 0

The program's own stdout is left untouched, so the traced output can be
checked and compared with an untraced run. Nothing under ``src/`` changes.
The layer summary (self time = span duration minus the time its child spans
cover) is computed by ``layer_summary`` in the benchmark process.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter

# (module, attribute) -> span name. Each attribute is the global the package
# resolves at call time, so replacing it reaches every call site that uses it.
WRAPPED = {
    ("tensorsplice.cli", "main"): "cli",
    ("tensorsplice.cli", "parse_tuples"): "parse",
    ("tensorsplice.cli", "run_stream"): "run_stream",
    ("tensorsplice.cli", "iter_rerun_outputs"): "rerun_stream",
    ("tensorsplice.engine", "step"): "step",
    ("tensorsplice.engine", "detect_top_blocks"): "detect",
    ("tensorsplice.cli", "detect_top_blocks"): "detect",
    ("tensorsplice.detect", "peel_once"): "peel",
    ("tensorsplice.engine", "splice_pair"): "splice",
    ("tensorsplice.cli", "emit_step_output"): "emit",
}
GENERATORS = {"parse", "run_stream", "rerun_stream"}

# Span name -> layer that owns its self time.
LAYER_OF = {
    "cli": "cli",
    "parse": "ingest",
    "emit": "ingest",
    "run_stream": "blocks",
    "rerun_stream": "blocks",
    "step": "engine",
    "detect": "detect",
    "peel": "detect",
    "splice": "splice",
}
LAYERS = ("ingest", "blocks", "detect", "splice", "engine", "cli")


class Tracer:
    """In-memory spans ``[name, start, end, parent]`` plus counters.

    A generator is traced as one span per resumption, so time spent in the
    consumer between items is not charged to it.
    """

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.steps: list[dict] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> float:
        end = perf_counter()
        self.spans[index][2] = end
        self.stack.pop()
        return end - self.spans[index][1]

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn):
        after = getattr(self, "_after_" + name, None)
        if name in GENERATORS:
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        index = self._open(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self._close(index)
                        if after:
                            after(item)
                        yield item
                finally:
                    inner.close()
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = self._close(index)
            if after:
                after(result, seconds, *args)
            return result
        return traced

    # Counters, taken at the same boundaries as the spans.

    def _after_parse(self, event) -> None:
        self.count("ingest.tuples")

    def _after_emit(self, line: str, seconds: float, *args) -> None:
        self.count("ingest.emit_bytes", len(line) + 1)  # ASCII JSON plus newline

    def _after_detect(self, found, seconds: float, *args) -> None:
        self.count("detect.calls")
        self.count("detect.seeds", len(found))

    def _after_peel(self, block, seconds: float, *args) -> None:
        self.count("detect.peel_runs")
        self.count("detect.peeled_nnz", block.nnz)

    def _after_splice(self, result, seconds: float, target, donor, *rest) -> None:
        new_target, new_donor = result
        self.count("splice.calls")
        self.count("splice.donor_nnz", donor.nnz)
        if new_donor.nnz != donor.nnz:  # the engine's own test for a productive call
            self.count("splice.productive_calls")
            self.count("splice.mass_moved", new_target.mass - target.mass)

    def _after_step(self, result, seconds: float, *args) -> None:
        state, _ = result
        nnz = [block.nnz for block in state.retained]
        self.steps.append({
            "step_s": seconds,
            "retained_nnz": sum(nnz),
            "retained_size": sum(block.size for block in state.retained),
            "max_block_nnz": max(nnz, default=0),
        })

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run_id": self.run_id, "spans": self.spans,
                       "counts": self.counts, "steps": self.steps}, handle)


def install(tracer: Tracer) -> None:
    import importlib

    for (module_name, attr), span in WRAPPED.items():
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(span, getattr(module, attr)))


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_summary(trace: dict, traced_wall_s: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced invocation, and each layer's self time."""
    spans = trace["spans"]
    own = self_times(spans)
    total: dict[str, float] = {}
    self_of: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    for (name, start, end, _), mine in zip(spans, own):
        total[name] = total.get(name, 0.0) + (end - start)
        self_of[name] = self_of.get(name, 0.0) + mine
        durations.setdefault(name, []).append(end - start)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in self_of.items():
        layer_self[LAYER_OF[name]] += seconds
    counts = trace["counts"]
    steps = trace["steps"]
    calls = counts.get("splice.calls", 0)
    splice_calls = durations.get("splice", [])
    out = {
        "splice.calls": calls,
        "splice.productive_calls": counts.get("splice.productive_calls", 0),
        "splice.useful_ratio": counts.get("splice.productive_calls", 0) / calls if calls else 0.0,
        "splice.donor_nnz": counts.get("splice.donor_nnz", 0),
        "splice.mass_moved": counts.get("splice.mass_moved", 0),
        "splice.s": total.get("splice", 0.0),
        "splice.call_s_p50": statistics.median(splice_calls) if splice_calls else 0.0,
        "splice.call_s_max": max(splice_calls, default=0.0),
        "engine.steps": len(steps),
        "engine.step_s": total.get("step", 0.0),
        "engine.sweep_self_s": self_of.get("step", 0.0),
        "engine.retained_nnz_final": steps[-1]["retained_nnz"] if steps else 0,
        "engine.retained_size_final": steps[-1]["retained_size"] if steps else 0,
        "engine.max_block_nnz": max((s["max_block_nnz"] for s in steps), default=0),
        "engine.step_s_slope": slope([s["step_s"] for s in steps]),
        "detect.calls": counts.get("detect.calls", 0),
        "detect.peel_runs": counts.get("detect.peel_runs", 0),
        "detect.peeled_nnz": counts.get("detect.peeled_nnz", 0),
        "detect.seeds": counts.get("detect.seeds", 0),
        "detect.s": total.get("detect", 0.0),
        "detect.peel_s": total.get("peel", 0.0),
        "detect.self_s": self_of.get("detect", 0.0),
        "blocks.accumulate_s": layer_self["blocks"],
        "ingest.tuples": counts.get("ingest.tuples", 0),
        "ingest.parse_s": total.get("parse", 0.0),
        "ingest.emit_s": total.get("emit", 0.0),
        "ingest.emit_bytes": counts.get("ingest.emit_bytes", 0),
        "cli.self_s": layer_self["cli"],
        "trace.wall_s": traced_wall_s,
        "trace.unattributed_s": traced_wall_s - sum(layer_self.values()),
    }
    return out, layer_self


def slope(ys: list[float]) -> float:
    """Least-squares slope of ys against their index (0 for fewer than 2)."""
    n = len(ys)
    if n < 2:
        return 0.0
    mx = (n - 1) / 2
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in range(n))
    return sum((x - mx) * (y - my) for x, y in enumerate(ys)) / sxx


def main(argv: list[str]) -> int:
    spans_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json RUN_ID -- <tensorsplice args>")
    tracer = Tracer(int(run_id))
    install(tracer)
    import tensorsplice.cli

    try:
        return tensorsplice.cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
