"""Seeded generator of small valid lattice-surgery programs.

Tests run the engine over these beside the builtins.  A program is laid
out on a 1x1 to 2x3 grid, one instruction at a time: an ``Idle``,
``MergeZZ``, ``Split`` or ``TTeleport`` on one patch or on two adjacent
ones, or an ``SGate`` conditional on an earlier T gate, on that gate's own
patch or on another.  Each is drawn to start from one round before to d
rounds after its patches' previous instructions end, so merges meet their
neighbours' window cells at arbitrary offsets; ``validate`` filters out an
instruction that overlaps one before it or does not follow its T gate.
"""
from __future__ import annotations

import random

from specwin.program import Instruction, InstructionKind, Program, validate

_KINDS = (
    InstructionKind.IDLE,
    InstructionKind.MERGE_ZZ,
    InstructionKind.SPLIT,
    InstructionKind.T_TELEPORT,
)


def generated_program(seed: int, d: int = 3) -> Program:
    """The program drawn from ``seed``; ``validate`` accepts it."""
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 2), rng.randint(1, 3)
    grid = [(r, c) for r in range(rows) for c in range(cols)]
    free = dict.fromkeys(grid, 0)  # the round after each patch's last instruction
    instructions: list[Instruction] = []
    teleports: list[int] = []
    for _ in range(rng.randint(2, 8)):
        if teleports and rng.random() < 0.3:
            gi = rng.choice(teleports)
            target = instructions[gi]
            others = [q for q in grid if q not in target.patches]
            p = rng.choice(others if others and rng.random() < 0.5 else target.patches)
            start = max(free[p], target.start_round + 1) + rng.randint(-1, d)
            ins = Instruction(InstructionKind.S_GATE, (p,), start, rng.randint(1, 2), gi)
        else:
            p = rng.choice(grid)
            nbrs = [q for q in grid if abs(q[0] - p[0]) + abs(q[1] - p[1]) == 1]
            patches = (p, rng.choice(nbrs)) if nbrs and rng.random() < 0.6 else (p,)
            start = max(0, max(free[q] for q in patches) + rng.randint(-1, d))
            ins = Instruction(rng.choice(_KINDS), patches, start, rng.randint(1, 2 * d))
        if validate(Program(d, (rows, cols), [*instructions, ins])):
            continue
        if ins.blocking:
            teleports.append(len(instructions))
        instructions.append(ins)
        for q in ins.patches:
            free[q] = ins.end_round
    return Program(d, (rows, cols), instructions, name=f"generated[{seed}]")


def generated_programs(count: int, seed: int = 0, d: int = 3) -> list[Program]:
    """The programs drawn from seeds ``seed`` to ``seed + count - 1``."""
    return [generated_program(seed + i, d) for i in range(count)]
