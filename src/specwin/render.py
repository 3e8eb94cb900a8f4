"""Trace exports for simulated schedules.

Two formats share one view of a result: a per-round CSV useful for
spreadsheet digging, and a spacetime SVG with one horizontal lane per
patch.  Uncovered rounds inside a patch's executed lifetime split into
``Gap`` (idle already present in the nominal schedule) and ``Stall``
(extra waiting because decoding pressure pushed a conditional gate past
its nominal start).
"""

from __future__ import annotations

from typing import IO

from .pipeline import SimResult, TraceSegment
from .program import PatchId, Program

__all__ = ["trace_rows", "write_trace_csv", "trace_svg"]

STALL_LABEL = "Stall"
GAP_LABEL = "Gap"

_PALETTE = {
    "Idle": "#d9d9d9",
    "MergeZZ": "#4c78a8",
    "MergeXX": "#72b7b2",
    "Split": "#9d755d",
    "TTeleport": "#e45756",
    "Measure": "#f58518",
    "SGate": "#54a24b",
    "YMeasure": "#b279a2",
    STALL_LABEL: "#f2cf5b",
    GAP_LABEL: "#f5f5f5",
}
_FALLBACK = "#888888"
ROUND_PX = 3.0  # SVG width of one round
LANE_PX = 22  # SVG height of one patch lane


def _lanes(program: Program, result: SimResult) -> dict[PatchId, list[TraceSegment]]:
    lanes: dict[PatchId, list[TraceSegment]] = {p: [] for p in program.patches}
    for seg in result.timeline:
        for p in seg.patches:
            lanes[p].append(seg)
    for segs in lanes.values():
        segs.sort(key=lambda s: s.start)
    return lanes


def _blocks(
    program: Program, segs: list[TraceSegment]
) -> list[tuple[int, int, str]]:
    """Contiguous (start, end, label) spans for one patch lane.

    Uncovered rounds up to the nominal gap between neighbouring
    instructions count as Gap; anything beyond that is Stall.
    """
    blocks = []
    cursor = segs[0].start
    prev_nominal_end = None
    for seg in segs:
        ins = program.instructions[seg.instruction]
        if seg.start > cursor:
            nominal_gap = (
                0 if prev_nominal_end is None else ins.start_round - prev_nominal_end
            )
            split = cursor + min(seg.start - cursor, max(0, nominal_gap))
            if split > cursor:
                blocks.append((cursor, split, GAP_LABEL))
            if seg.start > split:
                blocks.append((split, seg.start, STALL_LABEL))
        blocks.append((seg.start, seg.end, seg.label))
        cursor = seg.end
        prev_nominal_end = ins.end_round
    return blocks


def trace_rows(
    program: Program, result: SimResult
) -> list[tuple[int, int, int, str]]:
    """Flatten a result to (round, patch_row, patch_col, label) rows.

    Rows cover each patch from its first executed round to its last,
    ordered by round then patch.
    """
    rows = []
    for patch, segs in _lanes(program, result).items():
        if not segs:
            continue
        for t0, t1, label in _blocks(program, segs):
            for t in range(t0, t1):
                rows.append((t, patch[0], patch[1], label))
    rows.sort()
    return rows


def write_trace_csv(program: Program, result: SimResult, fh: IO[str]) -> None:
    """Write the header and ``trace_rows`` as ``csv.writer`` would, byte for
    byte: labels are instruction kinds, Stall and Gap, which its minimal
    quoting never quotes, so rows are formatted directly."""
    out = ["round,patch_row,patch_col,label\r\n"]
    out += [f"{t},{r},{c},{label}\r\n" for t, r, c, label in trace_rows(program, result)]
    fh.write("".join(out))


def _svg_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def trace_svg(program: Program, result: SimResult) -> str:
    """Render the executed schedule as a spacetime SVG document."""
    lanes = _lanes(program, result)
    order = sorted(lanes)
    margin_left, margin_top = 70, 30
    width = margin_left + int(result.runtime_rounds * ROUND_PX) + 20
    height = margin_top + LANE_PX * len(order) + 40
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<text x="{margin_left}" y="16">'
        f"{_svg_escape(program.name)}: {result.runtime_rounds} rounds</text>",
    ]
    for i, patch in enumerate(order):
        y = margin_top + i * LANE_PX
        parts.append(
            f'<text x="4" y="{y + LANE_PX - 8}">{patch[0]},{patch[1]}</text>'
        )
        segs = lanes[patch]
        if not segs:
            continue
        for t0, t1, label in _blocks(program, segs):
            x = margin_left + t0 * ROUND_PX
            w = (t1 - t0) * ROUND_PX
            fill = _PALETTE.get(label, _FALLBACK)
            parts.append(
                f'<rect x="{x:.1f}" y="{y}" width="{w:.1f}" '
                f'height="{LANE_PX - 3}" fill="{fill}" stroke="#333" '
                f'stroke-width="0.5"><title>{_svg_escape(label)} '
                f"[{t0}, {t1})</title></rect>"
            )
    # round axis ticks
    step = max(1, 2 * program.distance)
    axis_y = margin_top + LANE_PX * len(order) + 14
    for t in range(0, result.runtime_rounds + 1, step):
        x = margin_left + t * ROUND_PX
        parts.append(
            f'<line x1="{x:.1f}" y1="{axis_y - 10}" x2="{x:.1f}" '
            f'y2="{axis_y - 4}" stroke="#333"/>'
        )
        parts.append(f'<text x="{x:.1f}" y="{axis_y + 8}">{t}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
