"""Parsing delimited tuple files into dense-id events, and writing results.

Mode layout convention, used everywhere downstream: the categorical
columns come first in their configured order, then any extra time-binned
columns, and the streaming time bin is always the last mode.

Timestamps are shifted by the stream origin ``t0`` (unless configured,
the first tuple's timestamp floored to a multiple of the stride, so bins
align with the stride) and binned with floor semantics, so a tuple
at time t lands in bin ``floor((t - t0) / stride)``. The same origin and
stride apply to extra time-binned columns.
"""

from __future__ import annotations

import json
import math
import re
import sys
from typing import Iterable, Iterator

from .blocks import Block, Event
from .engine import StepOutput
from .errors import (
    BadTimestamp,
    ConfigError,
    IngestError,
    MalformedLine,
    NegativeValue,
    TimeRegression,
)

SCHEMA_VERSION = "tensorsplice/1"

# The ISO 8601 forms ``--time-format iso`` reads. ``fromisoformat`` reads more
# from 3.11 on, so it runs only on what this matches, alike on every Python.
ISO_TIMESTAMP = re.compile(r"\d{4}-\d{2}-\d{2}(?:[T ]\d{2}:\d{2}(?::\d{2}(?:\.\d{3}|\.\d{6})?)?"
                           r"(?:Z|[+-]\d{2}:\d{2})?)?", re.ASCII)

# The most one input's values may sum to. With fewer than 2**53 tuples and
# 2**10 modes, every ``mass * size``, ``q * mass`` and ``mu * size`` stays
# finite: a running float sum is within a factor e of the exact one, so any
# mass or ``mu`` is below e * e * ceiling, and any size or q below 2**63.
MASS_CEILING = sys.float_info.max / 2**66


class IngestConfig:
    """Column roles and binning for one tuple file."""

    __slots__ = ("mode_cols", "time_col", "stride", "value_col", "binned_cols", "t0",
                 "delimiter", "time_format", "has_header", "on_error")

    def __init__(
        self,
        mode_cols: tuple[int, ...],
        time_col: int,
        stride: int | float,
        value_col: int | None = None,
        binned_cols: tuple[int, ...] = (),
        t0: int | float | None = None,
        delimiter: str = "\t",
        time_format: str = "epoch",  # or "iso"
        has_header: bool = False,
        on_error: str = "abort",  # or "skip"
    ):
        if len(mode_cols) < 1:
            raise ConfigError("need at least one categorical mode column")
        if not 0 < stride < math.inf:
            raise ConfigError("stride must be positive and finite")
        if t0 is not None and not math.isfinite(t0):
            raise ConfigError("t0 must be finite")
        if not delimiter:
            raise ConfigError("delimiter cannot be empty")
        cols = [*mode_cols, *binned_cols, time_col]
        if value_col is not None:
            cols.append(value_col)
        if min(cols) < 0:
            raise ConfigError("column indices cannot be negative")
        if len(set(cols)) < len(cols):
            raise ConfigError("a column cannot have two roles (mode, binned, time, value)")
        if time_format not in ("epoch", "iso"):
            raise ConfigError(f"unknown time format {time_format!r}")
        if on_error not in ("abort", "skip"):
            raise ConfigError(f"unknown error policy {on_error!r}")
        self.mode_cols, self.time_col, self.stride = mode_cols, time_col, stride
        self.value_col, self.binned_cols, self.t0 = value_col, binned_cols, t0
        self.delimiter, self.time_format = delimiter, time_format
        self.has_header, self.on_error = has_header, on_error


class ModeDictionary:
    """Raw-label <-> dense-id maps for the categorical modes, which come
    first and assign dense ids in first-seen order.

    Every later mode (the time-binned columns and the streaming time) is
    a bin ordinal that ``parse_tuples`` computes itself, and decodes to
    itself.
    """

    def __init__(self, n_categorical: int):
        self._to_id: list[dict[str, int]] = [{} for _ in range(n_categorical)]
        self._to_raw: list[list[str]] = [[] for _ in range(n_categorical)]

    @classmethod
    def for_config(cls, cfg: IngestConfig) -> "ModeDictionary":
        return cls(len(cfg.mode_cols))

    def encode(self, mode: int, raw: str) -> int:
        table = self._to_id[mode]
        idx = table.get(raw)
        if idx is None:
            idx = len(table)
            table[raw] = idx
            self._to_raw[mode].append(raw)
        return idx

    def decode(self, mode: int, idx: int) -> str | int:
        return self._to_raw[mode][idx] if mode < len(self._to_raw) else idx

    def decode_all(self, mode: int, ids: list[int]) -> list:
        """``decode`` over a list of ids, with one lookup of the table."""
        return list(map(self._to_raw[mode].__getitem__, ids)) if mode < len(self._to_raw) else ids


def _parse_timestamp(raw: str, fmt: str, lineno: int) -> float:
    if fmt == "epoch":
        try:
            ts = float(raw)
        except ValueError:
            raise BadTimestamp(f"not an epoch timestamp: {raw!r}", lineno) from None
        if not math.isfinite(ts):
            raise BadTimestamp(f"non-finite timestamp: {raw!r}", lineno)
        return ts
    # Only ISO timestamps load datetime; a plain import statement re-runs
    # faster than one with a from-list.
    import datetime
    try:
        if not ISO_TIMESTAMP.fullmatch(raw):
            raise ValueError
        parsed = datetime.datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError:
        raise BadTimestamp(f"not an ISO-8601 timestamp: {raw!r}", lineno) from None
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=datetime.timezone.utc)  # no offset reads as UTC
    return parsed.timestamp()


def _time_bin(ts, t0, stride, lineno: int, raw: str, origin: str, binned_col=None) -> int:
    """The bin ordinal of ``ts``; an offset of ``2**53`` bins or more is bad
    input, as a float quotient that large cannot tell neighbouring bins
    apart. A real gap of fewer bins is still stepped through, one (empty)
    bin at a time."""
    offset = (ts - t0) / stride
    if 0 <= offset < 2**53:
        return math.floor(offset)
    what = f"timestamp {raw!r}" if binned_col is None else f"binned column {binned_col}"
    problem = f"precedes the stream origin{origin}" if offset < 0 else "is too far from the stream origin"
    raise BadTimestamp(f"{what} {problem}", lineno)


def _floored_origin(ts: float, stride: int | float) -> int | float:
    """``ts`` floored to a multiple of ``stride``, or ``ts`` itself when the
    quotient overflows."""
    steps = ts / stride
    if not math.isfinite(steps):
        return ts
    t0 = math.floor(steps) * stride
    if t0 > ts:  # the quotient rounded up to a whole number
        t0 -= stride
    return int(t0) if float(t0).is_integer() else t0


def _parse_value(raw: str, lineno: int) -> int | float:
    try:
        value = int(raw)
    except ValueError:
        try:
            value = float(raw)
        except ValueError:
            raise MalformedLine(f"bad value field: {raw!r}", lineno) from None
        if not math.isfinite(value):  # an int is finite, however long
            raise MalformedLine(f"non-finite value field: {raw!r}", lineno)
    if value < 0:
        raise NegativeValue(f"negative value {value!r}", lineno)
    return value


def parse_tuples(
    lines: Iterable[str], cfg: IngestConfig, dicts: ModeDictionary
) -> Iterator[Event]:
    """Yield dense-id events from delimited text, one tuple per line.

    Dictionaries extend as unseen raw values appear. Zero-valued tuples
    are dropped. Under ``on_error="skip"`` bad lines are logged and
    skipped instead of aborting; a time bin below that of an earlier
    yielded tuple raises ``TimeRegression`` under either policy, as a
    total of yielded values past ``MASS_CEILING`` raises ``IngestError``.
    """
    needed = max(
        (*cfg.mode_cols, cfg.time_col, *cfg.binned_cols),
        default=0,
    )
    if cfg.value_col is not None:
        needed = max(needed, cfg.value_col)
    t0 = cfg.t0
    origin = ""  # how an error names a default origin
    last_bin = 0  # highest time bin yielded so far
    total = 0  # sum of the values yielded so far
    warned_extra = False
    for lineno, raw_line in enumerate(lines, 1):
        if cfg.has_header and lineno == 1:
            continue
        line = raw_line.rstrip("\r\n")
        if not line:
            continue
        try:
            parts = line.split(cfg.delimiter)
            if len(parts) <= needed:
                raise MalformedLine(
                    f"has {len(parts)} columns, need at least {needed + 1}", lineno
                )
            if len(parts) > needed + 1 and not warned_extra:
                import logging  # only a warning needs it
                logging.getLogger(__name__).warning(
                    "line %d: extra columns beyond %d are ignored", lineno, needed + 1)
                warned_extra = True

            raw_ts = parts[cfg.time_col]
            ts = _parse_timestamp(raw_ts, cfg.time_format, lineno)
            if t0 is None:
                t0 = _floored_origin(ts, cfg.stride)
                origin = (
                    f" {t0}, the first tuple's time {raw_ts} (line {lineno}) "
                    "floored to a multiple of the stride; "
                    "pass --t0 with the earliest timestamp"
                )
            time_bin = _time_bin(ts, t0, cfg.stride, lineno, raw_ts, origin)

            value = 1 if cfg.value_col is None else _parse_value(parts[cfg.value_col], lineno)
            if value == 0:
                continue

            ids = [dicts.encode(m, parts[col]) for m, col in enumerate(cfg.mode_cols)]
            for col in cfg.binned_cols:
                extra_ts = _parse_timestamp(parts[col], cfg.time_format, lineno)
                ids.append(_time_bin(extra_ts, t0, cfg.stride, lineno, parts[col], origin, col))
            ids.append(time_bin)
        except (MalformedLine, BadTimestamp, NegativeValue) as exc:
            if cfg.on_error == "abort":
                raise
            import logging  # only a warning needs it
            logging.getLogger(__name__).warning("skipping %s", exc)
            continue
        if time_bin < last_bin:
            # Ends the run under either error policy: the bins before this
            # one may already have been processed.
            raise TimeRegression(
                f"time bin {time_bin} precedes bin {last_bin} of an earlier line",
                lineno,
            )
        last_bin = time_bin
        if value > MASS_CEILING - total:  # no huge int is added to a float
            raise IngestError(f"values sum past {MASS_CEILING:.3g}, too large", lineno)
        total += value
        yield Event(tuple(ids), value)


def _sig12(x: float) -> float:
    # At most 12 significant digits so serialized numbers are stable.
    return float(f"{x:.12g}")


def _number(x: int | float) -> int | float:
    return x if isinstance(x, int) else _sig12(x)


def block_payload(block: Block, dicts: ModeDictionary) -> dict:
    """One block as a JSON-ready mapping with a fixed key order."""
    return {
        "density": _sig12(block.density),
        "mass": _number(block.mass),
        "size": block.size,
        "modes": [
            dicts.decode_all(m, block.sorted_ids(m)) for m in range(block.n_modes)
        ],
    }


def emit_step_output(out: StepOutput, dicts: ModeDictionary) -> str:
    """Serialize one step as a single JSON line, byte-stable across runs."""
    obj = {
        "schema": SCHEMA_VERSION,
        "step": out.time_range[0],
        "time_range": list(out.time_range),
        "blocks": [block_payload(block, dicts) for block in out.top_k],
    }
    return json.dumps(obj, separators=(",", ":"))
