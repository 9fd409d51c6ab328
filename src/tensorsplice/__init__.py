"""Streaming top-k dense block tracking in sparse N-mode tensors."""

from .blocks import Block, Event, TensorSlice
from .detect import detect_top_blocks
from .engine import EngineConfig, EngineState, StepOutput, run_stream, step
from .errors import (
    BadTimestamp,
    ConfigError,
    DegenerateBlock,
    DensityInfeasible,
    MalformedLine,
    NegativeValue,
    OutOfOrderSlice,
    PreconditionViolated,
    ShapeMismatch,
    TensorSpliceError,
    TimeRegression,
)
from .ingest import IngestConfig, ModeDictionary, emit_step_output, parse_tuples
from .splice import splice_condition, splice_pair
from .synth import (
    InjectedTruth,
    InjectionSpec,
    generate_stream,
    rerun_scaling_run,
    scaling_run,
    score,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "Event",
    "TensorSlice",
    "detect_top_blocks",
    "EngineConfig",
    "EngineState",
    "StepOutput",
    "run_stream",
    "step",
    "IngestConfig",
    "ModeDictionary",
    "emit_step_output",
    "parse_tuples",
    "splice_condition",
    "splice_pair",
    "InjectedTruth",
    "InjectionSpec",
    "generate_stream",
    "rerun_scaling_run",
    "scaling_run",
    "score",
    "TensorSpliceError",
    "ShapeMismatch",
    "DegenerateBlock",
    "PreconditionViolated",
    "OutOfOrderSlice",
    "TimeRegression",
    "MalformedLine",
    "BadTimestamp",
    "NegativeValue",
    "DensityInfeasible",
    "ConfigError",
]
