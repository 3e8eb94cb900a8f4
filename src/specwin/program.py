"""Lattice-surgery program representation.

A program is a list of timed instructions acting on surface-code patches
laid out on a rectangular grid.  Rounds are integer QEC rounds; a patch is
active from the first round of its first instruction to the last round of
its last instruction and generates one round of syndrome data per round
while active.  ``TTeleport`` instructions are blocking: the device must
stall the instruction's patches until the decoder has caught up before any
dependent conditional correction can be applied.
"""
from __future__ import annotations

import inspect
import json
import numbers
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

__all__ = [
    "PatchId",
    "InstructionKind",
    "Instruction",
    "Program",
    "ProgramError",
    "SchemaError",
    "OverlapError",
    "ConditionalError",
    "parse_program",
    "serialize_program",
    "validate",
    "builtin_program",
    "BUILTIN_PROGRAMS",
    "check_whole",
    "check_real",
    "check_distance",
]

PatchId = tuple[int, int]

PROGRAM_FORMAT = 1


class ProgramError(ValueError):
    """Base error for malformed programs."""


class SchemaError(ProgramError):
    """Raised when program JSON violates the schema."""


class OverlapError(ProgramError):
    """Raised when two instructions occupy the same (patch, round)."""


class ConditionalError(ProgramError):
    """Raised when a conditional reference is dangling or ill-typed."""


class InstructionKind(str, Enum):
    IDLE = "Idle"
    MERGE_ZZ = "MergeZZ"
    MERGE_XX = "MergeXX"
    SPLIT = "Split"
    T_TELEPORT = "TTeleport"
    MEASURE = "Measure"
    S_GATE = "SGate"
    Y_MEASURE = "YMeasure"


# Kinds whose multi-patch footprint couples the patches into one decoding
# region for the duration of the instruction.
MERGING_KINDS = frozenset(
    {
        InstructionKind.MERGE_ZZ,
        InstructionKind.MERGE_XX,
        InstructionKind.SPLIT,
        InstructionKind.T_TELEPORT,
    }
)


# Every whole-number and real-number input of specwin goes through these two.


def check_whole(name: str, v, least: int, error: type[ValueError] = ValueError) -> int:
    """``v`` as an int, or ``error`` naming ``name`` unless it is a whole
    number >= ``least``: an int, a numpy integer or a float with no
    fractional part, but not a bool."""
    if type(v) is int:
        n = v
    elif isinstance(v, numbers.Real) and not isinstance(v, bool) and float(v).is_integer():
        n = int(v)
    else:
        n = None
    if n is None or n < least:
        raise error(f"{name} must be a whole number >= {least}, got {v!r}")
    return n


def check_real(name: str, v) -> float:
    """``v`` as a float, or ValueError naming ``name`` unless it is an int or
    a float, numpy's included, that a float can hold (not a bool).  NaN and
    the infinities pass: callers bound the value themselves."""
    if not isinstance(v, numbers.Real) or isinstance(v, bool):
        raise ValueError(f"{name} must be a real number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise ValueError(f"{name} must be a real number a float can hold, got {v!r}") from None


def check_distance(name: str, d, error: type[ValueError] = ValueError) -> int:
    """``d`` as an int, or ``error`` naming ``name`` unless it is an odd
    code distance >= 3."""
    d = check_whole(name, d, 3, error)
    if d % 2 == 0:
        raise error(f"{name} must be odd and >= 3, got {d}")
    return d


@dataclass(frozen=True)
class Instruction:
    """One timed operation on one or more patches.

    Args:
        kind: Operation type.
        patches: Patches occupied for the full duration, including any
            ancilla or routing patches.
        start_round: First syndrome round of the operation (nominal
            schedule; the simulator may shift it later in time).
        duration: Number of rounds occupied, at least 1.
        conditional_on: Index of an earlier blocking instruction whose
            decoded outcome gates this operation, or None.
    """

    kind: InstructionKind
    patches: tuple[PatchId, ...]
    start_round: int
    duration: int
    conditional_on: int | None = None

    def __post_init__(self):
        fix = partial(object.__setattr__, self)
        try:
            fix("kind", InstructionKind(self.kind))
        except ValueError:
            kinds = [k.value for k in InstructionKind]
            raise SchemaError(f"kind must be one of {kinds}, got {self.kind!r}") from None
        try:
            patches = [(r, c) for r, c in self.patches]
        except (TypeError, ValueError):
            raise SchemaError(f"patches must be (row, col) pairs, got {self.patches!r}") from None
        whole = partial(check_whole, error=SchemaError)
        fix("patches", tuple((whole("patch row", r, 0), whole("patch col", c, 0))
                             for r, c in patches))
        fix("start_round", whole("start_round", self.start_round, 0))
        fix("duration", whole("duration", self.duration, 1))
        if self.conditional_on is not None:
            fix("conditional_on", whole("conditional_on", self.conditional_on, 0))
        if not self.patches:
            raise SchemaError("instruction requires at least one patch")
        if len(set(self.patches)) != len(self.patches):
            raise SchemaError(f"duplicate patches in {self.kind.value}")

    @property
    def blocking(self) -> bool:
        return self.kind is InstructionKind.T_TELEPORT

    @property
    def end_round(self) -> int:
        """Exclusive end round."""
        return self.start_round + self.duration

    @property
    def merging(self) -> bool:
        return self.kind in MERGING_KINDS and len(self.patches) > 1


@dataclass
class Program:
    """A lattice-surgery program on a patch grid.

    Args:
        distance: Code distance d (odd, >= 3); also the default window
            cell height in rounds.
        grid: (rows, cols) extent of the patch grid.
        instructions: Instructions in nominal schedule order.
        name: Optional label used in traces and output files.
    """

    distance: int
    grid: tuple[int, int]
    instructions: list[Instruction] = field(default_factory=list)
    name: str = "program"

    def __post_init__(self):
        self.distance = check_distance("distance", self.distance, SchemaError)
        try:
            rows, cols = self.grid
        except (TypeError, ValueError):
            raise SchemaError(f"grid must be a (rows, cols) pair, got {self.grid!r}") from None
        self.grid = (check_whole("grid rows", rows, 1, SchemaError),
                     check_whole("grid cols", cols, 1, SchemaError))
        if not isinstance(self.instructions, list):
            raise SchemaError(f"instructions must be a list, got {self.instructions!r}")
        for k, ins in enumerate(self.instructions):
            if not isinstance(ins, Instruction):
                raise SchemaError(f"instructions[{k}] must be an Instruction, got {ins!r}")
        if not isinstance(self.name, str):
            raise SchemaError(f"name must be a string, got {self.name!r}")

    @property
    def patches(self) -> list[PatchId]:
        seen: dict[PatchId, None] = {}
        for inst in self.instructions:
            for p in inst.patches:
                seen.setdefault(p)
        return list(seen)

    @property
    def end_round(self) -> int:
        return max((i.end_round for i in self.instructions), default=0)


def validate(program: Program) -> list[ProgramError]:
    """Check program invariants and return a list of diagnostics.

    An empty list means the program is valid.  Checks for instructions and
    grid bounds (SchemaError), spacetime exclusivity, i.e. no two
    instructions on the same patch in the same round (OverlapError), and
    conditional reference validity (ConditionalError).
    """
    diags: list[ProgramError] = []
    if not program.instructions:
        diags.append(SchemaError("program has no instructions"))
    rows, cols = program.grid
    # Spacetime exclusivity via per-patch interval sweep.
    by_patch: dict[PatchId, list[tuple[int, int, int]]] = {}
    for i, inst in enumerate(program.instructions):
        for r, c in inst.patches:
            if not (0 <= r < rows and 0 <= c < cols):
                diags.append(
                    SchemaError(f"instruction {i}: patch ({r},{c}) outside grid {program.grid}")
                )
            by_patch.setdefault((r, c), []).append((inst.start_round, inst.end_round, i))
    for p, spans in by_patch.items():
        spans.sort()
        for (s0, e0, i0), (s1, e1, i1) in zip(spans, spans[1:]):
            if s1 < e0:
                diags.append(
                    OverlapError(f"instructions {i0} and {i1} overlap on patch {p} at round {s1}")
                )
    for i, inst in enumerate(program.instructions):
        if inst.conditional_on is None:
            continue
        j = inst.conditional_on
        if inst.kind is not InstructionKind.S_GATE:
            diags.append(
                ConditionalError(f"instruction {i}: conditional_on only allowed on SGate")
            )
            continue
        if not (0 <= j < len(program.instructions)):
            diags.append(ConditionalError(f"instruction {i}: conditional_on {j} out of range"))
            continue
        target = program.instructions[j]
        if not target.blocking:
            diags.append(
                ConditionalError(f"instruction {i}: conditional target {j} is not blocking")
            )
        if target.start_round >= inst.start_round:
            diags.append(
                ConditionalError(f"instruction {i}: conditional target {j} does not precede it")
            )
    return diags


def _require_valid(program: Program) -> Program:
    diags = validate(program)
    if diags:
        raise diags[0]
    return program


def serialize_program(program: Program) -> dict:
    """Serialize to the JSON-compatible program schema (format 1)."""
    return {
        "format": PROGRAM_FORMAT,
        "name": program.name,
        "distance": program.distance,
        "grid": {"rows": program.grid[0], "cols": program.grid[1]},
        "instructions": [
            {
                "kind": inst.kind.value,
                "patches": [list(p) for p in inst.patches],
                "start_round": inst.start_round,
                "duration": inst.duration,
                **(
                    {"conditional_on": inst.conditional_on}
                    if inst.conditional_on is not None
                    else {}
                ),
            }
            for inst in program.instructions
        ],
    }


def parse_program(source: str | dict) -> Program:
    """Parse and validate a program from JSON text or a decoded dict.

    Raises SchemaError, OverlapError, or ConditionalError with a
    diagnostic message on the first violation found.
    """
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    else:
        data = source
    if not isinstance(data, dict):
        raise SchemaError("program must be a JSON object")
    if data.get("format") != PROGRAM_FORMAT:
        raise SchemaError(f"unsupported format {data.get('format')!r}")
    try:
        grid = (data["grid"]["rows"], data["grid"]["cols"])
        raw_instructions = data["instructions"]
        distance = data["distance"]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"missing or malformed field: {exc}") from exc
    if not isinstance(raw_instructions, list):
        raise SchemaError(f"instructions must be a list, got {raw_instructions!r}")
    instructions = []
    for k, raw in enumerate(raw_instructions):
        try:
            instructions.append(
                Instruction(
                    kind=raw["kind"],
                    patches=raw["patches"],
                    start_round=raw["start_round"],
                    duration=raw["duration"],
                    conditional_on=raw.get("conditional_on"),
                )
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            # ProgramError is a ValueError: every failure names its instruction.
            raise SchemaError(f"instruction {k}: {exc}") from exc
    program = Program(
        distance=distance,
        grid=grid,
        instructions=instructions,
        name=str(data.get("name", "program")),
    )
    return _require_valid(program)


# ---------------------------------------------------------------------------
# Built-in programs


def _repeated_t(d: int, count: int = 10) -> Program:
    """`count` T teleportations on one idling logical qubit.

    Each TTeleport (d rounds) is followed by an SGate conditioned on its
    outcome; the S fires with probability 1/2 at simulation time.  The
    nominal period is 2d rounds per T (a leading idle and the post-S slack
    keep every teleportation ending on a window boundary).
    """
    count = check_whole("count", count, 1, ProgramError)
    patch = (0, 0)
    instructions: list[Instruction] = [
        Instruction(InstructionKind.IDLE, (patch,), 0, d)
    ]
    t = d
    for _ in range(count):
        t_idx = len(instructions)
        instructions.append(
            Instruction(InstructionKind.T_TELEPORT, (patch,), t, d)
        )
        instructions.append(
            Instruction(
                InstructionKind.S_GATE, (patch,), t + d, 2, conditional_on=t_idx
            )
        )
        t += 2 * d
    return Program(d, (1, 1), instructions, name=f"repeated_t[{count}]")


def _msd_15to1(d: int) -> Program:
    """15-to-1 magic state distillation on a 4x8 patch footprint.

    Five row merges build the encoding, then 15 T teleportations (half-d
    merges against freshly injected states on rows 1 and 3) are consumed,
    each followed by a conditional S on its target patch.  The output
    patch (0,7) is measured last.
    """
    half = d // 2
    instructions: list[Instruction] = []

    def add(kind, patches, start, dur, cond=None):
        instructions.append(Instruction(kind, tuple(patches), start, dur, cond))
        return len(instructions) - 1

    route = [(1, c) for c in range(8)]
    merges = [
        [(0, 0), (0, 1), (0, 2), (0, 3), (2, 0), (2, 1), (2, 2), (2, 4)] + route[:5],
        [(0, 0), (0, 1), (0, 4), (0, 5), (2, 0), (2, 1), (2, 3), (2, 5)] + route[:6],
        [(0, 0), (0, 2), (0, 4), (0, 6), (2, 0), (2, 2), (2, 3), (2, 6)] + route[:7],
        [(0, 0), (0, 3), (0, 5), (0, 6), (2, 1), (2, 2), (2, 3), (2, 7)] + route[:8],
        [(0, c) for c in range(8)] + route[:8],
    ]
    for k, patches in enumerate(merges):
        add(InstructionKind.MERGE_ZZ, patches, k * d, d)

    # Row-3 injections run beside the final row merge; row-1 injections
    # wait for the routing row to free up.
    for c in range(8):
        add(InstructionKind.IDLE, [(3, c)], 4 * d, d)
    lower_t = []
    for c in range(8):
        lower_t.append(
            add(InstructionKind.T_TELEPORT, [(3, c), (2, c)], 5 * d, half)
        )
    for c in range(7):
        add(InstructionKind.IDLE, [(1, c)], 5 * d, d)
    upper_t = []
    for c in range(7):
        upper_t.append(
            add(InstructionKind.T_TELEPORT, [(1, c), (0, c)], 6 * d, half)
        )

    for c in range(8):
        add(InstructionKind.IDLE, [(2, c)], 5 * d + half, half)
        add(InstructionKind.S_GATE, [(2, c)], 6 * d, 2, cond=lower_t[c])
        add(InstructionKind.MEASURE, [(2, c)], 6 * d + 2, 1)
    for c in range(7):
        add(InstructionKind.IDLE, [(0, c)], 6 * d + half, half)
        add(InstructionKind.S_GATE, [(0, c)], 7 * d, 2, cond=upper_t[c])
        add(InstructionKind.MEASURE, [(0, c)], 7 * d + 2, 1)
    add(InstructionKind.MEASURE, [(0, 7)], 7 * d + 3, 1)
    return Program(d, (4, 8), instructions, name="msd_15to1")


def _zigzag_chain(d: int, count: int = 100) -> Program:
    """Idle-duration workload whose window graph is one zig-zag chain.

    Patches step down a grid staircase; each patch overlaps its successor
    for d rounds under a merge, so consecutive window boundaries alternate
    between temporal and spatial orientation (always mutually adjacent).
    ``count`` is the total number of window cells and must be even and
    >= 4.
    """
    count = check_whole("count", count, 4, ProgramError)
    if count % 2:
        raise ProgramError(f"count must be even and >= 4, got {count}")
    m = count // 2
    coords = [(i // 2, (i + 1) // 2) for i in range(m)]
    instructions = [Instruction(InstructionKind.IDLE, (coords[0],), 0, d)]
    for i in range(m - 1):
        instructions.append(
            Instruction(
                InstructionKind.MERGE_ZZ,
                (coords[i], coords[i + 1]),
                (i + 1) * d,
                d,
            )
        )
    instructions.append(Instruction(InstructionKind.IDLE, (coords[-1],), m * d, d))
    rows = max(r for r, _ in coords) + 1
    cols = max(c for _, c in coords) + 1
    return Program(d, (rows, cols), instructions, name=f"zigzag_chain[{count}]")


def _toffoli(d: int) -> Program:
    """Schematic Toffoli: 7 T teleportations across three data patches.

    Three data patches share a workspace row with magic-state patches; the
    T gates alternate over the data patches with conditional S fixups.
    Footprint is 3x3 patches.
    """
    data = [(0, 0), (0, 1), (0, 2)]
    magic = [(1, 0), (1, 1), (1, 2)]
    instructions: list[Instruction] = []
    instructions.append(
        Instruction(InstructionKind.MERGE_ZZ, tuple(data + [(1, 0), (1, 1), (1, 2)]), 0, d)
    )
    t = d
    for k in range(7):
        q = data[k % 3]
        a = magic[k % 3]
        t_idx = len(instructions)
        instructions.append(Instruction(InstructionKind.T_TELEPORT, (q, a), t, d))
        instructions.append(
            Instruction(InstructionKind.S_GATE, (q,), t + d, 2, conditional_on=t_idx)
        )
        t += d + 2
    for q in data:
        instructions.append(Instruction(InstructionKind.MEASURE, (q,), t, 1))
    return Program(d, (2, 3), instructions, name="toffoli")


BUILTIN_PROGRAMS = {
    "repeated_t": _repeated_t,
    "msd_15to1": _msd_15to1,
    "zigzag_chain": _zigzag_chain,
    "toffoli": _toffoli,
}


def builtin_program(name: str, d: int, **params) -> Program:
    """Build one of the bundled benchmark programs at distance ``d``."""
    try:
        builder = BUILTIN_PROGRAMS[name]
    except KeyError:
        raise ProgramError(
            f"unknown builtin {name!r}; available: {sorted(BUILTIN_PROGRAMS)}"
        ) from None
    d = check_distance("d", d, ProgramError)
    takes = list(inspect.signature(builder).parameters)[1:]
    if unknown := sorted(params.keys() - set(takes)):
        raise ProgramError(f"builtin {name!r} takes no parameter {unknown[0]!r}; it takes {takes}")
    return _require_valid(builder(d, **params))
