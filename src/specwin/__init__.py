"""Round-level simulator of speculative windowed decoding pipelines."""

from .pipeline import (
    LatencyModel,
    SimConfig,
    SimResult,
    decode_latency,
    occupancy_stats,
    parse_latency,
    processor_heuristic,
    simulate,
    simulate_many,
)
from .program import (
    Instruction,
    InstructionKind,
    Program,
    ProgramError,
    builtin_program,
    parse_program,
    serialize_program,
)

__version__ = "0.1.0"

__all__ = [
    "Instruction",
    "InstructionKind",
    "LatencyModel",
    "Program",
    "ProgramError",
    "SimConfig",
    "SimResult",
    "builtin_program",
    "decode_latency",
    "occupancy_stats",
    "parse_latency",
    "parse_program",
    "processor_heuristic",
    "serialize_program",
    "simulate",
    "simulate_many",
    "__version__",
]
