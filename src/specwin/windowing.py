"""Window cells, their faces, and boundary ownership.

Every patch's active lifetime is tiled into consecutive d-round window
cells starting at the patch's first active round (the final cell may be
shorter); the pipeline engine does the tiling, one cell at a time as
rounds are scheduled.  Consecutive cells of one patch share a temporal
face, and a multi-patch merging instruction puts spatial faces between
overlapping cells of grid-adjacent participants.

Each shared face is then owned by exactly one side (the source), which
decodes the d-deep buffer past the face and hands dependency bits to
the other side (the sink):

* sliding: every face feeds forward, earlier cell first, lower patch
  first on simultaneous spatial faces.
* parallel: cells are two-colored by time layer plus a patch
  checkerboard; one color owns every face around it.
* aligned: parallel, except each patch's coloring is phase-shifted so
  that the cell finishing that patch's first conditional-source
  instruction lands on the owning color.

Color ties (possible between phase-shifted patches) fall back to the
sliding rule, yielding mixed cells rather than a failure.

A cell's decode task covers its commit region plus one d^3 unit per
owned buffer, and re-covers received buffer regions when it owns none
itself (a pure sink decodes commit plus every neighboring buffer).
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import IntEnum
from operator import attrgetter

from .program import Instruction, PatchId, Program

__all__ = [
    "T",
    "ROW",
    "COL",
    "Side",
    "Face",
    "WindowCell",
    "STRATEGIES",
    "MAX_TASK_UNITS",
    "SOURCE_COLOR",
    "aligned_phases",
    "cell_color",
    "checkerboard",
    "owns_face",
    "patch_activity",
]

STRATEGIES = ("sliding", "parallel", "aligned")
SOURCE_COLOR = 0

# The axes of a window box, as indices into a (round, row, col) coordinate.
T, ROW, COL = 0, 1, 2

# The largest task a cell can take, in d^3 units: a commit region of at most
# d rounds plus one unit per face.  A cell has at most two temporal faces,
# and at most two faces on each spatial side: a d-round cell overlaps at most
# two of a neighbour's cells, since only a patch's last cell is shorter.
MAX_TASK_UNITS = 1 + 2 + 4 * 2


class Side(IntEnum):
    """The six faces of a window's box.

    Values are the faces' seeded-draw tags.  Each member carries its
    ``orientation`` ("temporal" or "spatial"), its ``axis`` (T, ROW or
    COL: the index of the axis it cuts in a (round, row, col) coordinate
    or box), its ``direction`` (+1 past the high end of the commit box,
    -1 past the low end), its ``mirror`` (the same face seen from the
    neighbor), and its ``pair`` (orientation, lower-case name).
    """

    PAST = 0, T, -1
    FUTURE = 1, T, +1
    NORTH = 2, ROW, -1
    SOUTH = 3, ROW, +1
    WEST = 4, COL, -1
    EAST = 5, COL, +1

    def __new__(cls, value: int, axis: int, direction: int):
        member = int.__new__(cls, value)
        member._value_ = value
        member.axis = axis
        member.direction = direction
        member.orientation = "temporal" if axis == T else "spatial"
        return member

    @classmethod
    def from_pair(cls, pair) -> "Side":
        """The member named by an (orientation, side) pair."""
        side = _BY_PAIR.get(tuple(pair))
        if side is None:
            raise ValueError(f"unknown face {tuple(pair)!r}")
        return side

    @classmethod
    def between(cls, a: PatchId, b: PatchId) -> "Side":
        """The spatial face of patch ``a`` that touches grid neighbor ``b``."""
        return _BY_STEP[(b[0] - a[0], b[1] - a[1])]


for _s in Side:
    _s.mirror = Side(_s ^ 1)
    _s.pair = (_s.orientation, _s.name.lower())
_BY_PAIR = {s.pair: s for s in Side}
_BY_STEP = {(-1, 0): Side.NORTH, (1, 0): Side.SOUTH, (0, -1): Side.WEST, (0, 1): Side.EAST}


@dataclass(slots=True)
class Face:
    """One face of a cell: where it lies and the cell across it."""

    side: Side
    neighbor: int


_SIDE_KEY = attrgetter("side")


@dataclass(slots=True)
class WindowCell:
    """One d-round commit region on one patch, with its boundary faces.

    ``index`` numbers the cell within its patch's tiling.  Each face is held
    once: in ``sources`` if the cell owns the buffer past it (ordered by
    side, ties in attach order), else in ``sinks`` (attach order).
    """

    id: int
    patch: PatchId
    index: int
    t0: int
    t1: int
    sources: list[Face] = field(default_factory=list)
    sinks: list[Face] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return self.t1 - self.t0

    def attach(self, face: Face, source: bool) -> None:
        if source:
            bisect.insort_right(self.sources, face, key=_SIDE_KEY)
        else:
            self.sinks.append(face)

    def source_faces(self) -> list[Face]:
        return self.sources

    def sink_faces(self) -> list[Face]:
        return self.sinks

    def task_units(self, d: int) -> float:
        """Decode problem size in d^3 units.

        Commit region plus owned buffers; received buffers add no volume
        while the cell owns at least one buffer of its own, and a pure sink
        re-covers everything it receives.
        """
        units = self.rounds / d + len(self.sources)
        if not self.sources:
            units += len(self.sinks)
        return units


def checkerboard(patch: PatchId) -> int:
    return (patch[0] + patch[1]) % 2


def cell_color(t0: int, d: int, patch: PatchId, phase: int = 0) -> int:
    return (t0 // d + checkerboard(patch) + phase) % 2


def patch_activity(program: Program) -> dict[PatchId, tuple[int, int]]:
    """First and last active round per patch."""
    spans: dict[PatchId, tuple[int, int]] = {}
    for ins in program.instructions:
        for p in ins.patches:
            lo, hi = spans.get(p, (ins.start_round, ins.end_round))
            spans[p] = (min(lo, ins.start_round), max(hi, ins.end_round))
    return spans


def aligned_phases(program: Program) -> dict[PatchId, int]:
    """Per-patch color phases for the aligned strategy.

    Each patch's phase makes the cell holding the final round of its
    earliest blocking instruction an owner; patches never blocked keep
    the parallel coloring.
    """
    first_blocking: dict[PatchId, Instruction] = {}
    for ins in sorted(program.instructions, key=lambda i: i.start_round):
        if not ins.blocking:
            continue
        for p in ins.patches:
            first_blocking.setdefault(p, ins)
    spans = patch_activity(program)
    phases: dict[PatchId, int] = {}
    for p, ins in first_blocking.items():
        birth = spans[p][0]
        cell_start = birth + ((ins.end_round - 1 - birth) // program.distance) * program.distance
        phases[p] = (cell_color(cell_start, program.distance, p) - SOURCE_COLOR) % 2
    return phases


def owns_face(
    strategy: str,
    d: int,
    phases: dict[PatchId, int],
    a: tuple[int, PatchId],
    b: tuple[int, PatchId],
) -> bool:
    """Whether cell ``a`` owns the face it shares with cell ``b``.

    Cells are keyed by (t0, patch); ``phases`` are the aligned strategy's
    per-patch phases (empty for the others).
    """
    if strategy != "sliding":
        ca = cell_color(a[0], d, a[1], phases.get(a[1], 0))
        cb = cell_color(b[0], d, b[1], phases.get(b[1], 0))
        if ca != cb:
            return ca == SOURCE_COLOR
    return a < b
