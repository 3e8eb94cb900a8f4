"""Tests for trace export."""

import csv
import io

import pytest

from specwin.pipeline import LatencyModel, SimConfig, simulate
from specwin.program import BUILTIN_PROGRAMS, builtin_program
from specwin.render import trace_rows, trace_svg, write_trace_csv
from specwin.windowing import STRATEGIES


def run_msd(stall=True):
    prog = builtin_program("msd_15to1", 7)
    cfg = SimConfig(
        strategy="parallel", latency=LatencyModel.fixed(14), stall_blocking=stall
    )
    return prog, simulate(prog, cfg)


def test_rows_cover_every_executed_round():
    prog, res = run_msd()
    rows = trace_rows(prog, res)
    seen = {}
    for t, pr, pc, label in rows:
        key = (t, (pr, pc))
        assert key not in seen, "one label per patch-round"
        seen[key] = label
    for seg in res.timeline:
        for p in seg.patches:
            for t in range(seg.start, seg.end):
                assert seen[(t, p)] == seg.label


def test_rows_mark_stalled_rounds():
    prog, res = run_msd(stall=True)
    free_prog, free = run_msd(stall=False)
    stalled_labels = [r[3] for r in trace_rows(prog, res)]
    free_labels = [r[3] for r in trace_rows(free_prog, free)]
    assert "Stall" in stalled_labels
    assert "Stall" not in free_labels
    # stall padding accounts for the whole runtime difference
    extra = stalled_labels.count("Stall") - free_labels.count("Stall")
    assert extra > 0


def test_rows_sorted_by_round():
    prog, res = run_msd()
    rows = trace_rows(prog, res)
    assert rows == sorted(rows)


def test_csv_roundtrip():
    prog, res = run_msd()
    buf = io.StringIO()
    write_trace_csv(prog, res, buf)
    buf.seek(0)
    reader = csv.reader(buf)
    header = next(reader)
    assert header == ["round", "patch_row", "patch_col", "label"]
    body = list(reader)
    assert len(body) == len(trace_rows(prog, res))
    assert all(len(row) == 4 for row in body)


@pytest.mark.parametrize("stall", (True, False))
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", BUILTIN_PROGRAMS)
def test_csv_bytes_match_csv_writer(name, strategy, stall):
    """One-patch and multi-patch lanes alike, the CSV is byte for byte what
    csv.writer makes of the header and trace_rows."""
    prog = builtin_program(name, 3)
    cfg = SimConfig(strategy=strategy, latency=LatencyModel.fixed(6), stall_blocking=stall)
    res = simulate(prog, cfg)
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow(["round", "patch_row", "patch_col", "label"])
    writer.writerows(trace_rows(prog, res))
    got = io.StringIO()
    write_trace_csv(prog, res, got)
    assert got.getvalue() == want.getvalue()


def test_svg_structure():
    prog, res = run_msd()
    doc = trace_svg(prog, res)
    assert doc.startswith("<svg")
    assert doc.rstrip().endswith("</svg>")
    assert f"{res.runtime_rounds} rounds" in doc
    # one lane label per patch
    for r, c in prog.patches:
        assert f">{r},{c}</text>" in doc
    assert doc.count("<rect") >= len(res.timeline)


def test_svg_escapes_program_name():
    prog = builtin_program("repeated_t", 5, count=2)
    object.__setattr__(prog, "name", "a<b&c")
    res = simulate(prog, SimConfig(latency=LatencyModel.linear(0.4)))
    doc = trace_svg(prog, res)
    assert "a&lt;b&amp;c" in doc
    assert "a<b" not in doc
