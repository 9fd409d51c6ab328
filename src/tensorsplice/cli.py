"""Command-line front end.

Subcommands:

* ``run``       stream a tuple file and emit one JSON line per stride
* ``oracle``    same schema, but re-detect on the full accumulated tensor
                at every stride (the expensive from-scratch baseline)
* ``generate``  write a synthetic stream with one planted dense block
* ``evaluate``  run the engine on a generated stream and score it
* ``scale``     runtime-vs-size measurements for engine and baseline

Exit codes: 0 on success, 1 when stdout is closed before all output is
written (quietly, for ``| head``), 2 when the input is bad (a malformed or
non-finite field, a timestamp out of order, bytes that are not UTF-8),
3 on configuration errors, including a file that cannot be opened or
written and an output path that names the command's input (``run``,
``oracle``, ``evaluate``) or its other output (``generate``), which is
refused before any file is written.
Detection output never contains wall-clock numbers, so a fixed input and
seed reproduce byte-identical files; timings go to stderr. The generator
and scorer (``synth``) are imported by the commands that use them, so
``run`` and ``oracle`` start without loading them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Iterator, TextIO

from .blocks import Event
from .detect import detect_top_blocks  # noqa: F401  bench/tracer.py wraps this attribute
from .engine import EngineConfig, iter_rerun_outputs, run_stream
from .errors import ConfigError, IngestError, TensorSpliceError
from .ingest import (
    SCHEMA_VERSION,
    IngestConfig,
    ModeDictionary,
    emit_step_output,
    parse_tuples,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are config errors (exit 3)
        raise ConfigError(message)


def _csv_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None


def _shape(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise ConfigError(f"expected a shape like 50x20, got {text!r}") from None


def number(text: str) -> int | float:
    """A float, or an ``int`` when integral; argparse names it in errors."""
    value = float(text)
    return int(value) if value.is_integer() else value


def _add_ingest_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="tuple file, one per line; - reads stdin")
    p.add_argument("--modes", default="0,1",
                   help="comma-separated categorical column indices (default 0,1)")
    p.add_argument("--time-col", type=int, default=2,
                   help="streaming timestamp column (default 2)")
    p.add_argument("--value-col", type=int, default=None,
                   help="value column; omitted means every tuple counts 1")
    p.add_argument("--binned-cols", default="",
                   help="extra timestamp columns binned with the stride "
                        "and kept as ordinary modes")
    p.add_argument("--stride", type=number, required=True,
                   help="time-bin width in source units (no default)")
    p.add_argument("--t0", type=number, default=None,
                   help="stream origin; defaults to the first tuple's time "
                        "floored to a multiple of --stride")
    p.add_argument("--delimiter", default="\t")
    p.add_argument("--time-format", choices=("epoch", "iso"), default="epoch")
    p.add_argument("--header", action="store_true", help="skip the first line")
    p.add_argument("--on-error", choices=("abort", "skip"), default="abort")


def _add_engine_flags(p: argparse.ArgumentParser, k_default: int = 10) -> None:
    p.add_argument("--k", type=int, default=k_default,
                   help=f"blocks reported per step (default {k_default})")
    p.add_argument("--l", type=int, default=5,
                   help="extra retained blocks kept as splice material (default 5)")
    p.add_argument("--max-epochs", type=int, default=5,
                   help="splicing sweeps per step (default 5)")


def _ingest_config(args) -> IngestConfig:
    return IngestConfig(
        mode_cols=_csv_ints(args.modes),
        time_col=args.time_col,
        stride=args.stride,
        value_col=args.value_col,
        binned_cols=_csv_ints(args.binned_cols),
        t0=args.t0,
        delimiter=args.delimiter,
        time_format=args.time_format,
        has_header=args.header,
        on_error=args.on_error,
    )


def _engine_config(args) -> EngineConfig:
    return EngineConfig(k=args.k, l=args.l, max_epochs=args.max_epochs)


def _same_file(a: str | int, b: str) -> bool:
    """True when ``a``, a path or an open file descriptor, and path ``b``
    name one file, also through a link; paths to files that do not exist
    yet are compared resolved."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return not isinstance(a, int) and os.path.realpath(a) == os.path.realpath(b)


def _refuse_overwrite(args, *inputs: str) -> None:
    """Refuse an ``--output`` that names one of the ``inputs`` (flag names
    without the dashes), also through a link, before anything is written.
    ``--input -`` is stdin, compared by the file it has open, not by name."""
    for name in inputs:
        path = getattr(args, name)
        if name == "input" and path == "-":
            path = 0
        if args.output and _same_file(path, args.output):
            raise ConfigError(f"--output {args.output} is the --{name} file")


@contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """stdout when ``path`` is None, else the file at ``path``, closed on
    any exit. An empty ``--output`` also means stdout, so callers pass
    ``args.output or None``; an empty ``--truth`` stays a file error."""
    if path is None:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8") as handle:
        yield handle


def _write_json(path: str | None, payload: dict) -> None:
    with _output(path) as out:
        json.dump(payload, out, separators=(",", ":"))
        out.write("\n")


def _read_events(
    path: str, cfg: IngestConfig, dicts: ModeDictionary, counts: dict
) -> Iterator[Event]:
    """Events parsed from a tuple file, or from stdin when ``path`` is
    ``-``, counted into ``counts["nnz"]``.

    Input is read as UTF-8 whatever the locale, and one leading byte-order
    mark is dropped. Bytes that are not UTF-8 end the read as an ingest
    error naming the file; the text layer decodes in chunks, so no line
    number is known.
    """
    stdin = path == "-"
    # File descriptor 0, not sys.stdin, so the locale cannot pick the codec.
    with open(0 if stdin else path, "r", encoding="utf-8-sig", closefd=not stdin) as handle:
        try:
            for event in parse_tuples(handle, cfg, dicts):
                counts["nnz"] += 1
                yield event
        except UnicodeDecodeError as exc:
            name = "stdin" if stdin else path
            raise IngestError(f"{name}: input is not UTF-8 text ({exc.reason})") from None


def cmd_stream(args) -> int:
    """``run`` and ``oracle``: one JSON line per stride, a summary on stderr."""
    _refuse_overwrite(args, "input")
    cfg = _ingest_config(args)
    engine_cfg = _engine_config(args)
    dicts = ModeDictionary.for_config(cfg)
    outputs_of = run_stream if args.command == "run" else iter_rerun_outputs
    counts = {"nnz": 0}
    steps = 0
    detect_s = splice_s = 0.0
    started = time.perf_counter()
    with _output(args.output or None) as out:
        events = _read_events(args.input, cfg, dicts, counts)
        for output in outputs_of(events, engine_cfg):
            out.write(emit_step_output(output, dicts))
            out.write("\n")
            if out is sys.stdout:
                out.flush()  # a reader at the other end of a pipe sees each stride
            steps += 1
            detect_s += output.timing["detect"]
            splice_s += output.timing["splice"]
            del output  # not kept alive while the next step is computed
    wall = time.perf_counter() - started
    print(
        f"steps={steps} nnz={counts['nnz']} detect={detect_s:.3f}s "
        f"splice={splice_s:.3f}s wall={wall:.3f}s",
        file=sys.stderr,
    )
    return 0


def cmd_generate(args) -> int:
    from .synth import InjectionSpec, generate_stream
    if _same_file(args.output, args.truth):
        raise ConfigError(f"--truth {args.truth} is the --output file")
    spec = InjectionSpec(
        block_shape=_shape(args.block),
        density=args.density,
        span_bins=args.span,
        n_bins=args.bins,
        background_tuples=args.background_tuples,
        background_shape=_shape(args.background),
        seed=args.seed,
        start_bin=args.start_bin,
        stride=int(args.gen_stride),
        value_mode=args.density_mode,
    )
    lines, truth = generate_stream(spec)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))
        handle.write("\n")
    _write_json(args.truth, truth.to_json())
    print(f"tuples={len(lines)} injected={spec.injected_nnz}", file=sys.stderr)
    return 0


def _read_truth(path: str):
    """The ground truth ``generate`` wrote, as an ``InjectedTruth``;
    anything else is bad input."""
    from .synth import InjectedTruth
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            obj = json.load(handle)
        except ValueError as exc:  # also bytes that are not UTF-8
            raise IngestError(f"{path}: not valid JSON ({exc})") from None
    try:
        return InjectedTruth.from_json(obj)
    except IngestError as exc:
        raise IngestError(f"{path}: {exc}") from None


def cmd_evaluate(args) -> int:
    from .synth import score
    _refuse_overwrite(args, "input", "truth")
    truth = _read_truth(args.truth)
    if args.per_entry and truth.cells is None:
        raise IngestError(f"{args.truth}: --per-entry needs the truth's 'cells', which are null")
    n_categorical = len(truth.mode_ids)
    cfg = IngestConfig(
        mode_cols=tuple(range(n_categorical)),
        time_col=n_categorical,
        stride=truth.stride,
        value_col=n_categorical + 1,
        t0=truth.t0,
    )
    engine_cfg = _engine_config(args)
    dicts = ModeDictionary.for_config(cfg)
    density_series: list[float] = []
    timings: list[float] = []
    last_output = None
    events = _read_events(args.input, cfg, dicts, {"nnz": 0})
    for output in run_stream(events, engine_cfg):
        last_output = output
        density_series.append(
            round(output.top_k[0].density, 9) if output.top_k else 0.0
        )
        timings.append(output.timing["detect"] + output.timing["splice"])
    if last_output is None:
        raise ConfigError("input stream is empty, nothing to evaluate")
    report = score(last_output, truth, dicts, per_entry=args.per_entry)
    payload = {
        "schema": SCHEMA_VERSION,
        "precision": round(report.precision, 9),
        "recall": round(report.recall, 9),
        "f_measure": round(report.f_measure, 9),
        "density_series": density_series,
    }
    if args.timings:
        payload["timings"] = timings
    _write_json(args.output or None, payload)
    return 0


def cmd_scale(args) -> int:
    from .synth import rerun_scaling_run, scaling_run
    cfg = _engine_config(args)
    sizes = _csv_ints(args.sizes)
    # Checked before any timing, so a bad flag fails at once.
    if len(sizes) < 4 or min(sizes) < 1 or max(sizes) < 16 * min(sizes):
        raise ConfigError("--sizes needs at least 4 positive sizes spanning a 16x range")
    if args.repeats < 1 or args.oracle_slice_nnz < 1:
        raise ConfigError("--repeats and --oracle-slice-nnz must be at least 1")
    if args.oracle_steps < 4:
        raise ConfigError("--oracle-steps must be at least 4")
    fits = {
        "engine": scaling_run(sizes, cfg=cfg, seed=args.seed, repeats=args.repeats),
        "rerun_baseline": rerun_scaling_run(
            args.oracle_steps, args.oracle_slice_nnz, cfg=cfg, seed=args.seed
        ),
    }
    payload = {"schema": SCHEMA_VERSION}
    for name, fit in fits.items():
        payload[name] = {
            "slope": fit.slope, "ci95": [fit.ci_low, fit.ci_high], "points": fit.points,
        }
    _write_json(args.output or None, payload)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="tensorsplice",
                     description="streaming top-k dense block tracking")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (
        ("run", "stream a tuple file, one JSON line per stride"),
        ("oracle", "full re-detection baseline, same schema"),
    ):
        p = sub.add_parser(name, help=text)
        _add_ingest_flags(p)
        _add_engine_flags(p)
        p.add_argument("--output", default=None, help="default: stdout")
        p.set_defaults(func=cmd_stream)

    p = sub.add_parser("generate", help="synthesize a stream with a planted block")
    p.add_argument("--block", required=True, help="planted shape, e.g. 50x20")
    p.add_argument("--density", type=float, required=True,
                   help="planted cell fraction of the block volume")
    p.add_argument("--span", type=int, required=True, help="bins the block occupies")
    p.add_argument("--bins", type=int, required=True, help="total stream bins")
    p.add_argument("--background-tuples", type=int, required=True)
    p.add_argument("--background", required=True,
                   help="background id ranges, e.g. 3000x2000")
    p.add_argument("--start-bin", type=int, default=0)
    p.add_argument("--gen-stride", type=int, default=100,
                   help="source time units per bin in the written file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density-mode", choices=("cells", "multi"), default="cells",
                   help="cells: distinct cells (density <= 1); multi: draw with "
                        "replacement so entry values exceed 1")
    p.add_argument("--output", required=True, help="tuple file to write")
    p.add_argument("--truth", required=True, help="ground-truth JSON to write")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="run the engine on a generated stream "
                                        "and score against its truth")
    p.add_argument("--input", required=True, help="generated stream; - reads stdin")
    p.add_argument("--truth", required=True)
    _add_engine_flags(p, k_default=1)
    p.add_argument("--per-entry", action="store_true",
                   help="score planted cells instead of entities")
    p.add_argument("--timings", action="store_true",
                   help="include per-step seconds (breaks byte-stable output)")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("scale", help="log-log runtime slopes for engine and baseline")
    p.add_argument("--sizes", default="1000,2000,4000,8000,16000",
                   help="per-slice nnz targets for the engine measurement")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--oracle-steps", type=int, default=8)
    p.add_argument("--oracle-slice-nnz", type=int, default=4000)
    _add_engine_flags(p, k_default=3)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_scale)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout must fail here, not at exit
        return code
    except BrokenPipeError:
        # The reader went away (``| head``). Point stdout at the null device
        # so the interpreter's final flush cannot fail again, and end quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TensorSpliceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
