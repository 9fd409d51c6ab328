"""Synthetic streams with one planted dense block, plus scoring and scaling.

The generator writes raw tuple lines (background noise sampled uniformly
over its own id ranges and bins, planted cells sampled inside the block's
index product) so the full ingestion path is exercised. Planted entities
use ids beyond the background ranges, and the ground truth records their
raw labels, the occupied bin span, and the binning origin so evaluation
can replay the stream exactly.

Scoring counts per-mode entity membership: an entity is a hit when its
raw label appears both in some reported block and in the planted block.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator, Sequence

from .blocks import Event, record
from .engine import EngineConfig, StepOutput, iter_rerun_outputs, run_stream
from .errors import ConfigError, DensityInfeasible, IngestError
from .ingest import SCHEMA_VERSION, ModeDictionary

_PREFIXES = ("u", "i", "a", "b", "c", "d")


def _label(mode: int, idx: int) -> str:
    prefix = _PREFIXES[mode] if mode < len(_PREFIXES) else f"m{mode}x"
    return f"{prefix}{idx}"


class InjectionSpec(record("InjectionSpec", "block_shape density span_bins n_bins "
                           "background_tuples background_shape seed start_bin stride "
                           "value_mode", defaults=(0, 100, "cells"))):
    """One planted block inside uniform background noise.

    ``density`` is the planted cell fraction: entries = round(density *
    block volume), volume counting the time span. In ``cells`` mode the
    entries are distinct cells (density at most 1); in ``multi`` mode
    cells are drawn with replacement so values above 1 appear and density
    may exceed 1. ``value_mode`` is ``"cells"`` or ``"multi"``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.block_shape) != len(self.background_shape):
            raise DensityInfeasible("block and background mode counts differ")
        if not self.block_shape or any(c < 1 for c in self.block_shape):
            raise DensityInfeasible("block cardinalities must be positive")
        if any(c < 1 for c in self.background_shape):
            raise DensityInfeasible("background cardinalities must be positive")
        if self.background_tuples < 0:
            raise DensityInfeasible("background tuple count cannot be negative")
        if self.stride < 1:
            raise DensityInfeasible("stride must be at least 1")
        if not math.isfinite(self.density):
            raise DensityInfeasible("density must be finite")
        if self.span_bins < 1 or self.start_bin < 0:
            raise DensityInfeasible("span must cover at least one bin")
        if self.start_bin + self.span_bins > self.n_bins:
            raise DensityInfeasible("span exceeds the stream's bins")
        if self.value_mode not in ("cells", "multi"):
            raise DensityInfeasible(f"unknown value mode {self.value_mode!r}")
        if self.injected_nnz < 1:
            raise DensityInfeasible("density too small: no cells to inject")
        if self.value_mode == "cells" and self.injected_nnz > self.volume:
            raise DensityInfeasible(
                f"{self.injected_nnz} cells exceed the block volume {self.volume}; "
                "use value_mode='multi' for densities above 1"
            )
        return self

    @property
    def volume(self) -> int:
        return math.prod(self.block_shape) * self.span_bins

    @property
    def injected_nnz(self) -> int:
        return round(self.density * self.volume)


# Each required field of a truth file: the JSON types it may have, and how
# an error names them.
_TRUTH_FIELDS = (
    ("mode_ids", list, "a list of label lists"),
    ("span", list, "a list"),
    ("density", (int, float), "a number"),
    ("seed", int, "an integer"),
    ("stride", (int, float), "a number"),
    ("t0", (int, float), "a number"),
    ("n_bins", int, "an integer"),
)


class InjectedTruth(record("InjectedTruth", "mode_ids span density seed stride t0 n_bins cells",
                           defaults=(None,))):
    """What was planted, in raw-label terms, plus replay parameters.
    ``span`` is the ``[start, end)`` bin pair, always a tuple."""

    __slots__ = ()

    def __new__(cls, mode_ids, span, *rest, **kwargs):
        return super().__new__(cls, mode_ids, tuple(span), *rest, **kwargs)

    def to_json(self) -> dict:
        return {"schema": SCHEMA_VERSION, **self._asdict()}

    @classmethod
    def from_json(cls, obj) -> "InjectedTruth":
        """The truth ``to_json`` wrote; anything else raises ``IngestError``."""
        if not isinstance(obj, dict):
            raise IngestError(f"expected a JSON object, got {type(obj).__name__}")
        for name, types, what in _TRUTH_FIELDS:
            if name not in obj:
                raise IngestError(f"truth field {name!r} is missing")
            value = obj[name]
            if isinstance(value, bool) or not isinstance(value, types):
                raise IngestError(
                    f"truth field {name!r} must be {what}, got {type(value).__name__}"
                )
        labels = obj["mode_ids"]
        if not labels or not all(
            isinstance(ids, list) and all(isinstance(label, str) for label in ids)
            for ids in labels
        ):
            raise IngestError("truth field 'mode_ids' must be a non-empty list of label lists")
        if not 0 < obj["stride"] < math.inf or not math.isfinite(obj["t0"]):
            raise IngestError("truth fields 'stride' and 't0' must be finite, 'stride' positive")
        cells = obj.get("cells")
        if cells is not None and not (
            isinstance(cells, list) and all(
                isinstance(cell, list) and all(isinstance(x, (str, int, float)) for x in cell)
                for cell in cells
            )
        ):
            raise IngestError("truth field 'cells' must be null or a list of cells")
        return cls(**{name: obj[name] for name in cls._fields if name in obj})


class EvalReport(record("EvalReport", "precision recall f_measure")):
    """Detection quality against the planted block."""

    __slots__ = ()


def _decode_cell(offset: int, shape: Sequence[int]) -> list[int]:
    out = []
    for card in reversed(shape):
        out.append(offset % card)
        offset //= card
    out.reverse()
    return out


def generate_stream(spec: InjectionSpec) -> tuple[list[str], InjectedTruth]:
    """Deterministically build the raw tuple lines and their ground truth.

    Lines are tab-separated ``label.. timestamp value`` records, shuffled
    within each bin and ordered by bin, values all 1 (multi-mode repeats
    the same cell instead).
    """
    rng = random.Random(spec.seed)
    by_bin: list[list[str]] = [[] for _ in range(spec.n_bins)]

    for _ in range(spec.background_tuples):
        ids = [rng.randrange(card) for card in spec.background_shape]
        b = rng.randrange(spec.n_bins)
        t = b * spec.stride + rng.randrange(spec.stride)
        fieldsets = [_label(m, idx) for m, idx in enumerate(ids)]
        by_bin[b].append("\t".join(fieldsets + [str(t), "1"]))

    cell_shape = (*spec.block_shape, spec.span_bins)
    if spec.value_mode == "cells":
        offsets = rng.sample(range(spec.volume), spec.injected_nnz)
    else:
        offsets = [rng.randrange(spec.volume) for _ in range(spec.injected_nnz)]
    truth_cells = []
    for offset in offsets:
        *mode_idx, bin_off = _decode_cell(offset, cell_shape)
        b = spec.start_bin + bin_off
        t = b * spec.stride + rng.randrange(spec.stride)
        labels = [
            _label(m, spec.background_shape[m] + idx)
            for m, idx in enumerate(mode_idx)
        ]
        truth_cells.append(labels + [b])
        by_bin[b].append("\t".join(labels + [str(t), "1"]))

    for bucket in by_bin:
        rng.shuffle(bucket)
    lines = [line for bucket in by_bin for line in bucket]

    truth = InjectedTruth(
        mode_ids=[
            [_label(m, spec.background_shape[m] + j) for j in range(card)]
            for m, card in enumerate(spec.block_shape)
        ],
        span=(spec.start_bin, spec.start_bin + spec.span_bins),
        density=spec.density,
        seed=spec.seed,
        stride=spec.stride,
        t0=0,
        n_bins=spec.n_bins,
        cells=truth_cells,
    )
    return lines, truth


def score(
    detected: StepOutput,
    truth: InjectedTruth,
    dicts: ModeDictionary,
    per_entry: bool = False,
) -> EvalReport:
    """Precision/recall/F over planted vs reported entities.

    Entities are (mode, raw label) pairs pooled across the non-time
    modes; membership in any reported block counts. ``per_entry`` scores
    reported entry cells against planted cells instead (requires the
    truth to carry them).
    """
    if per_entry:
        if truth.cells is None:
            raise ValueError("truth has no cells; regenerate with cells included")
        truth_set = {tuple(c) for c in truth.cells}
        got = set()
        for block in detected.top_k:
            n = block.n_modes
            for key in block.entries:
                got.add(
                    tuple(dicts.decode(m, key[m]) for m in range(n - 1)) + (key[-1],)
                )
    else:
        truth_set = {
            (mode, label)
            for mode, labels in enumerate(truth.mode_ids)
            for label in labels
        }
        got = set()
        for block in detected.top_k:
            for mode in range(block.n_modes - 1):
                for idx in block.index_sets[mode]:
                    got.add((mode, dicts.decode(mode, idx)))

    hits = len(got & truth_set)
    precision = hits / len(got) if got else 0.0
    recall = hits / len(truth_set) if truth_set else 0.0
    if precision + recall == 0:
        f_measure = 0.0
    else:
        f_measure = 2 * precision * recall / (precision + recall)
    return EvalReport(precision=precision, recall=recall, f_measure=f_measure)


# ---------------------------------------------------------------------------
# Runtime scaling


class ScalingReport(record("ScalingReport", "slope ci_low ci_high points")):
    """A log-log slope, its 95% interval and the fitted ``(x, y)`` points."""

    __slots__ = ()


# Two-sided 95% critical values of Student's t by degrees of freedom.
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365,
    8: 2.306, 9: 2.262, 10: 2.228, 12: 2.179, 15: 2.131, 20: 2.086, 30: 2.042,
}


def _t95(df: int) -> float:
    # Rounding df down to a tabulated one keeps the interval conservative.
    return _T95[max(bound for bound in _T95 if bound <= df)]


def fit_loglog(points: Sequence[tuple[float, float]]) -> ScalingReport:
    """Least-squares slope of log(y) on log(x) with a 95% interval."""
    if len(points) < 3:
        raise ValueError("need at least 3 points for a slope estimate")
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(max(y, 1e-12)) for _, y in points]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    sse = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    se = math.sqrt(max(sse, 0.0) / (n - 2) / sxx)
    width = _t95(n - 2) * se
    return ScalingReport(
        slope=slope,
        ci_low=slope - width,
        ci_high=slope + width,
        points=[(int(x), y) for x, y in points],
    )


def _random_events(nnz: int, bin_: int, rng: random.Random) -> Iterator[Event]:
    """``nnz`` uniform random events in bin ``bin_``. Id ranges scale with
    ``nnz``, so sparsity stays comparable across sizes, and each bin draws
    ids of its own, as a streaming tensor's modes augment per stride."""
    shape = (max(nnz // 2, 4), max(nnz // 4, 4))
    for _ in range(nnz):
        yield Event(tuple(bin_ * shape[0] + rng.randrange(card) for card in shape) + (bin_,))


def scaling_fits(
    cfg: EngineConfig,
    sizes: Sequence[int],
    repeats: int,
    oracle_steps: int,
    oracle_slice_nnz: int,
    seed: int = 0,
) -> dict[str, ScalingReport]:
    """Log-log runtime fits of the tracking engine and the re-run baseline,
    as ``{"engine": ..., "rerun_baseline": ...}``.

    ``engine`` fits one ``run_stream`` step's detect and splice seconds (best
    of ``repeats``) against its slice nnz, one point per size. ``rerun_baseline``
    fits the cumulative detect seconds of ``oracle``'s driver
    ``iter_rerun_outputs`` against the cumulative nnz over ``oracle_steps``
    random bins; re-running over all history makes it superlinear. Every
    argument is checked before anything is timed (``ConfigError``).
    """
    if len(sizes) < 4 or min(sizes) < 1 or max(sizes) < 16 * min(sizes):
        raise ConfigError("sizes: need at least 4 positive sizes spanning a 16x range")
    if repeats < 1 or oracle_slice_nnz < 1:
        raise ConfigError("repeats and oracle_slice_nnz must be at least 1")
    if oracle_steps < 4:
        raise ConfigError("oracle_steps must be at least 4")
    engine_points = []
    for nnz in sizes:
        best = float("inf")
        for rep in range(repeats):
            rng = random.Random(seed * 1_000_003 + nnz * 31 + rep)
            out = next(run_stream(_random_events(nnz, 0, rng), cfg))
            best = min(best, out.timing["detect"] + out.timing["splice"])
        engine_points.append((nnz, best))
    rng = random.Random(seed)
    events = (event for b in range(oracle_steps)
              for event in _random_events(oracle_slice_nnz, b, rng))
    rerun_points = []
    total_time = 0.0
    for b, output in enumerate(iter_rerun_outputs(events, cfg), 1):
        total_time += output.timing["detect"]
        rerun_points.append((b * oracle_slice_nnz, total_time))
    return {"engine": fit_loglog(engine_points), "rerun_baseline": fit_loglog(rerun_points)}
