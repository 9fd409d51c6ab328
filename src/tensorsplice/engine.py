"""The two stream drivers, both fed by ``bin_slices``: the tracking loop
(``run_stream``) and the re-detection baseline (``iter_rerun_outputs``).

Each step detects seed blocks in the incoming slice, pools them with the
blocks retained from earlier strides, and runs pairwise splicing sweeps
over the pool until a sweep moves nothing or the epoch cap is reached.
The pool is ranked before the first sweep and after each sweep that
moved mass, which also drops emptied blocks. The densest k+l survivors
are retained for the next step and the top k are reported.

The stream is append-only: retained blocks never lose entries to later
slices, they only gain mass through splicing.

Pairs that ``splice_pair`` returned unchanged are remembered by block
serial, so a sweep does not splice them again. Blocks are values and a
productive splice returns fresh ones, so a remembered pair stays sterile
for as long as both blocks exist; the memo is carried in ``EngineState``
from step to step, pruned to pairs of retained blocks, and a step only
splices pairs that involve a new seed or a block changed since.
"""

from __future__ import annotations

import time
from collections import namedtuple
from typing import Iterable, Iterator

from .blocks import Block, Event, TensorSlice
from .detect import detect_top_blocks
from .errors import ConfigError, OutOfOrderSlice, TimeRegression
from .splice import _denser_first, splice_pair


class EngineConfig(namedtuple("EngineConfig", "k l max_epochs")):
    """Stream-tracking knobs.

    ``k`` blocks are reported, ``l`` extra ones are retained as splice
    material. The arity comes from the events, and binning happens at
    ingestion, so the engine consumes bin ordinals.
    """

    __slots__ = ()

    def __new__(cls, k: int = 10, l: int = 5, max_epochs: int = 5):
        if k < 1:
            raise ConfigError("k must be at least 1")
        if l < 0:
            raise ConfigError("l must be non-negative")
        if max_epochs < 1:
            raise ConfigError("max_epochs must be at least 1")
        return super().__new__(cls, k, l, max_epochs)

    @property
    def pool_size(self) -> int:
        return self.k + self.l


class EngineState:
    """Retained blocks, the time frontier and the sterile-pair memo,
    between steps."""

    __slots__ = ("retained", "frontier", "sterile")

    def __init__(self, retained: list[Block] | None = None, frontier: int = 0,
                 sterile: set[tuple[int, int]] | None = None):
        self.retained = [] if retained is None else retained
        self.frontier = frontier  # next bin ordinal to be processed, and the step index
        # Serial pairs (pool order) that splice_pair returned unchanged, kept
        # only for pairs of retained blocks.
        self.sterile = set() if sterile is None else sterile


class StepOutput:
    """What one step reports: the top blocks and how long the phases took."""

    __slots__ = ("time_range", "top_k", "timing")

    def __init__(self, time_range: tuple[int, int], top_k: list[Block], timing: dict[str, float]):
        self.time_range = time_range
        self.top_k = top_k
        self.timing = timing


class _TieBreak:
    """Orders blocks by their canonical id tuples, built only when a rank
    tie reaches them. A sort compares keys with ``<`` alone."""

    __slots__ = ("block",)

    def __init__(self, block: Block):
        self.block = block

    def __lt__(self, other) -> bool:
        a, b, modes = self.block, other.block, range(self.block.n_modes)
        return [a.sorted_ids(m) for m in modes] < [b.sorted_ids(m) for m in modes]


def _order_key(block: Block):
    # Total, deterministic order: density desc, then mass desc, then size,
    # then the canonical id tuples.
    return (-(block.mass / block.size), -block.mass, block.size, _TieBreak(block))


def step(
    state: EngineState, slice_: TensorSlice, cfg: EngineConfig
) -> tuple[EngineState, StepOutput]:
    """Process one stride window and report the current top blocks."""
    expected = (state.frontier, state.frontier + 1)
    if tuple(slice_.time_range) != expected:
        raise OutOfOrderSlice(
            f"slice covers bins {slice_.time_range}, engine expected {expected}"
        )

    started = time.perf_counter()
    incoming = detect_top_blocks(slice_, cfg.pool_size) if slice_.nnz else []
    detected_at = time.perf_counter()

    pool = sorted(state.retained + incoming, key=_order_key)
    # Pairs of retained blocks found sterile in earlier steps still are.
    sterile = set(state.sterile)
    for _ in range(cfg.max_epochs):
        changed = False
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                a, b = pool[i], pool[j]
                if a.is_empty or b.is_empty:
                    continue
                pair_key = (a.serial, b.serial)
                if pair_key in sterile:
                    continue
                if _denser_first(a, b):
                    new_a, new_b = splice_pair(a, b)
                else:
                    new_b, new_a = splice_pair(b, a)
                # A sterile pair comes back as the same objects.
                if new_a is a and new_b is b:
                    sterile.add(pair_key)
                else:
                    changed = True
                    pool[i], pool[j] = new_a, new_b
        if not changed:
            break
        pool = sorted((blk for blk in pool if not blk.is_empty), key=_order_key)
    spliced_at = time.perf_counter()

    retained = pool[: cfg.pool_size]
    kept = {block.serial for block in retained}
    output = StepOutput(
        time_range=expected,
        top_k=retained[: cfg.k],
        timing={
            "detect": detected_at - started,
            "splice": spliced_at - detected_at,
        },
    )
    new_state = EngineState(
        retained=retained,
        frontier=state.frontier + 1,
        sterile={pair for pair in sterile if pair[0] in kept and pair[1] in kept},
    )
    return new_state, output


def bin_slices(events: Iterable[Event]) -> Iterator[TensorSlice]:
    """Partition a bin-ordered event stream into one slice per time bin.

    Slices run from bin 0 through the last occupied bin; an empty bin
    between occupied ones still yields an empty slice, so per-step series
    keep a uniform time axis. The first event sets the arity, which later
    events must share (``ShapeMismatch``). An empty stream yields nothing.
    """
    current_bin = 0
    current = None
    for event in events:
        if current is None:
            current = TensorSlice(len(event.ids), (0, 1))
        t = event.ids[-1]
        if t < current_bin:
            raise TimeRegression(
                f"event in bin {t} after the stream advanced to bin {current_bin}"
            )
        while t > current_bin:
            yield current
            current_bin += 1
            current = TensorSlice(current.n_modes, (current_bin, current_bin + 1))
        current.add(event)
    if current is not None:
        yield current


def run_stream(events: Iterable[Event], cfg: EngineConfig) -> Iterator[StepOutput]:
    """Step through a bin-ordered event stream, one output per bin."""
    state = EngineState()
    for slice_ in bin_slices(events):
        state, output = step(state, slice_, cfg)
        yield output


def iter_rerun_outputs(
    events: Iterable[Event], cfg: EngineConfig
) -> Iterator[StepOutput]:
    """Re-detect on the full accumulated tensor at every stride."""
    accumulated = None
    for slice_ in bin_slices(events):
        if accumulated is None:
            accumulated = TensorSlice(slice_.n_modes, (0, 1))
        # Keys never collide across bins, because time is the last mode,
        # and detection reads only the entries.
        accumulated.entries.update(slice_.entries)
        begun = time.perf_counter()
        found = detect_top_blocks(accumulated, cfg.pool_size) if accumulated.nnz else []
        elapsed = time.perf_counter() - begun
        yield StepOutput(
            time_range=slice_.time_range,
            top_k=found[: cfg.k],
            timing={"detect": elapsed, "splice": 0.0},
        )
        # The next detect, on a larger tensor, runs without these blocks.
        del found
