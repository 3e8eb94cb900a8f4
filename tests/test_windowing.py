"""Window tiling and ownership tests, on the engine's own cells.

The engine tiles incrementally as it schedules; with stalls disabled every
instruction runs at its nominal rounds, so its cells are the tiling of the
nominal schedule.
"""
import graphlib

import pytest

from specwin.pipeline import SimConfig, _Engine, simulate
from specwin.program import Instruction, InstructionKind, Program, builtin_program
from specwin.windowing import (
    STRATEGIES,
    Side,
    aligned_phases,
    cell_color,
    checkerboard,
    patch_activity,
)


def idle_program(d, rounds):
    return Program(
        distance=d,
        grid=(1, 1),
        instructions=[Instruction(InstructionKind.IDLE, ((0, 0),), 0, rounds)],
    )


def all_programs():
    return [
        builtin_program("repeated_t", 5, count=6),
        builtin_program("msd_15to1", 7),
        builtin_program("zigzag_chain", 5, count=10),
        builtin_program("toffoli", 5),
    ]


def tile(program, strategy="sliding"):
    """The engine's window cells, indexed by id, for the nominal schedule."""
    engine = _Engine(program, SimConfig(strategy=strategy, stall_blocking=False))
    engine.run()
    cells = engine.cells
    assert [c.id for c in cells] == list(range(len(cells)))
    return cells


def by_patch(cells):
    out = {}
    for c in cells:
        out.setdefault(c.patch, []).append(c)
    return out


def edges(cells):
    """(source, sink) cell ids, one per shared face."""
    return [(c.id, f.neighbor) for c in cells for f in c.sources]


def roles(cell):
    """The cell's roles: "source" if it owns a face, "sink" if it receives one."""
    return {role for role, faces in (("source", cell.sources), ("sink", cell.sinks)) if faces}


def t_end_cells(program, cells):
    """Cell holding each conditional-source instruction's final round."""
    out = []
    for ins in program.instructions:
        if not ins.blocking:
            continue
        for p in ins.patches:
            for c in by_patch(cells)[p]:
                if c.t0 <= ins.end_round - 1 < c.t1:
                    out.append(c)
    return out


def test_side_geometry():
    assert [s.pair for s in Side] == [
        ("temporal", "past"), ("temporal", "future"),
        ("spatial", "north"), ("spatial", "south"),
        ("spatial", "west"), ("spatial", "east"),
    ]
    for s in Side:
        assert s.mirror.mirror is s
        assert (s.mirror.axis, s.mirror.direction) == (s.axis, -s.direction)
        assert Side.from_pair(s.pair) is s
    assert Side.between((1, 1), (0, 1)) is Side.NORTH
    assert Side.between((1, 1), (1, 2)) is Side.EAST
    with pytest.raises(ValueError):
        Side.from_pair(("temporal", "sideways"))


def test_parallel_chain_alternates():
    cells = tile(idle_program(5, 25), "parallel")
    assert len(cells) == 5
    kinds = [roles(c) for c in cells]
    assert kinds == [{"source"}, {"sink"}, {"source"}, {"sink"}, {"source"}]
    assert sorted(edges(cells)) == [(0, 1), (2, 1), (2, 3), (4, 3)]


def test_sliding_chain_feeds_forward():
    cells = tile(idle_program(5, 25), "sliding")
    assert sorted(edges(cells)) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert cells[0].task_units(5) == 2.0
    assert cells[2].task_units(5) == 2.0
    # The last cell only receives: commit plus the re-covered buffer.
    assert cells[4].rounds / 5 + len(cells[4].sources) == 1.0
    assert cells[4].task_units(5) == 2.0


def test_short_final_cell():
    cells = tile(idle_program(5, 13), "sliding")
    assert [(c.t0, c.t1) for c in cells] == [(0, 5), (5, 10), (10, 13)]
    assert cells[2].task_units(5) == pytest.approx(3 / 5 + 1)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("ix", range(4))
def test_tiling_and_consistency(strategy, ix):
    program = all_programs()[ix]
    cells = tile(program, strategy)
    d = program.distance
    # Exact per-patch tiling of the patch's active rounds, in order, no gaps.
    activity = patch_activity(program)
    for patch, run in by_patch(cells).items():
        spans = [(c.t0, c.t1) for c in run]
        assert (spans[0][0], spans[-1][1]) == activity[patch]
        for (_, e0), (s1, _) in zip(spans, spans[1:]):
            assert e0 == s1
        assert all(e - s >= 1 for s, e in spans)
        assert all(e - s == d for s, e in spans[:-1])
    # Each face is mirrored on its neighbour, a source by a sink and back.
    seen = 0
    for c in cells:
        assert [f.side for f in c.sources] == sorted(f.side for f in c.sources)
        for f in c.sources + c.sinks:
            nbr = cells[f.neighbor]
            back = [bf for bf in nbr.sources + nbr.sinks if bf.neighbor == c.id]
            assert len(back) == 1
            assert back[0].side is f.side.mirror
            assert (f in c.sources) != (back[0] in nbr.sources)
            seen += 1
    assert seen == 2 * len(edges(cells))
    # Dependency bits flow from sources to sinks without a cycle.
    ts = graphlib.TopologicalSorter({c.id: set() for c in cells})
    for src, dst in edges(cells):
        ts.add(dst, src)
    assert sorted(ts.static_order()) == [c.id for c in cells]


def test_repeated_t_parallel_sink_aligned_source():
    program = builtin_program("repeated_t", 5, count=6)
    parallel = tile(program, "parallel")
    for c in t_end_cells(program, parallel):
        assert roles(c) == {"sink"}
        assert c.task_units(5) == 3.0
    aligned = tile(program, "aligned")
    for c in t_end_cells(program, aligned):
        assert roles(c) == {"source"}
        assert c.task_units(5) == 3.0
    assert aligned_phases(program) == {(0, 0): 1}


def test_parallel_source_volumes():
    program = builtin_program("repeated_t", 5, count=6)
    cells = tile(program, "parallel")
    interior = [c for c in cells if len(c.sources) == 2 and not c.sinks]
    assert interior
    assert all(c.task_units(5) == 3.0 for c in interior)


def test_zigzag_is_a_chain():
    program = builtin_program("zigzag_chain", 5, count=10)
    cells = tile(program, "sliding")
    assert len(cells) == 10
    chain = edges(cells)
    assert len(chain) == 9
    outs = {src for src, _ in chain}
    ins = {dst for _, dst in chain}
    assert len(outs) == 9 and len(ins) == 9
    assert all(c.task_units(5) == 2.0 for c in cells)
    # Orientations alternate along each patch's two cells.
    for c in cells:
        faces = c.sources + c.sinks
        assert len(faces) <= 2
        assert len({f.side.orientation for f in faces}) == len(faces)


def test_aligned_phase_only_for_blocked_patches():
    program = builtin_program("zigzag_chain", 5, count=10)
    assert aligned_phases(program) == {}
    assert tile(program, "aligned") == tile(program, "parallel")


def test_msd_merge_faces():
    program = builtin_program("msd_15to1", 7)
    cells = tile(program, "sliding")
    assert max(len(c.sources + c.sinks) for c in cells) >= 4
    spatial = [
        (c, f) for c in cells for f in c.sources + c.sinks if f.side.orientation == "spatial"
    ]
    assert spatial
    for c, f in spatial:
        q = cells[f.neighbor].patch
        assert abs(c.patch[0] - q[0]) + abs(c.patch[1] - q[1]) == 1
        assert f.side is Side.between(c.patch, q)


def test_generation_complete():
    # A cell's data is complete once its commit and owned buffers exist.
    log = simulate(idle_program(5, 25), SimConfig(strategy="sliding")).cell_log
    assert [log[i].gen_round for i in (0, 3, 4)] == [10, 25, 25]
    log = simulate(idle_program(5, 25), SimConfig(strategy="parallel")).cell_log
    assert [log[i].gen_round for i in (1, 2)] == [10, 20]


def test_checkerboard_and_colors():
    assert checkerboard((0, 0)) == 0 and checkerboard((0, 1)) == 1
    assert cell_color(0, 5, (0, 0)) == 0
    assert cell_color(5, 5, (0, 0)) == 1
    assert cell_color(5, 5, (0, 0), phase=1) == 0


def test_unknown_strategy():
    with pytest.raises(ValueError):
        simulate(idle_program(5, 10), SimConfig(strategy="zigzag"))
