"""Program schema, validation, and builtin construction tests."""
import json

import numpy as np
import pytest

from specwin.program import (
    ConditionalError,
    Instruction,
    InstructionKind,
    OverlapError,
    Program,
    ProgramError,
    SchemaError,
    builtin_program,
    parse_program,
    serialize_program,
    validate,
)
from specwin.windowing import patch_activity


def simple_program() -> Program:
    return Program(
        distance=5,
        grid=(1, 2),
        instructions=[
            Instruction(InstructionKind.IDLE, ((0, 0),), 0, 5),
            Instruction(InstructionKind.T_TELEPORT, ((0, 0), (0, 1)), 5, 5),
            Instruction(
                InstructionKind.S_GATE, ((0, 0),), 10, 2, conditional_on=1
            ),
        ],
        name="simple",
    )


def test_round_trip():
    prog = simple_program()
    text = json.dumps(serialize_program(prog))
    back = parse_program(text)
    assert back.distance == prog.distance
    assert back.grid == prog.grid
    assert back.name == prog.name
    assert back.instructions == prog.instructions


def test_validate_clean():
    assert validate(simple_program()) == []


def test_blocking_flag():
    prog = simple_program()
    assert [i.blocking for i in prog.instructions] == [False, True, False]


def test_patch_interval_and_order():
    prog = simple_program()
    assert patch_activity(prog) == {(0, 0): (0, 12), (0, 1): (5, 10)}
    assert prog.end_round == 12


def test_rejects_even_distance():
    with pytest.raises(SchemaError):
        Program(distance=4, grid=(1, 1), instructions=[])


def test_rejects_zero_duration():
    with pytest.raises(SchemaError):
        Instruction(InstructionKind.IDLE, ((0, 0),), 0, 0)


def test_rejects_duplicate_patches():
    with pytest.raises(SchemaError):
        Instruction(InstructionKind.MERGE_ZZ, ((0, 0), (0, 0)), 0, 5)


def test_overlap_detected():
    data = serialize_program(simple_program())
    data["instructions"][1]["start_round"] = 3
    with pytest.raises(OverlapError):
        parse_program(data)


def test_conditional_must_point_to_blocking():
    data = serialize_program(simple_program())
    data["instructions"][2]["conditional_on"] = 0
    with pytest.raises(ConditionalError):
        parse_program(data)


def test_conditional_must_point_backward():
    data = serialize_program(simple_program())
    data["instructions"][2]["conditional_on"] = 5
    with pytest.raises(ConditionalError):
        parse_program(data)


def test_conditional_only_on_s_gate():
    data = serialize_program(simple_program())
    data["instructions"][2]["kind"] = "Measure"
    with pytest.raises(ConditionalError):
        parse_program(data)


def test_patch_outside_grid():
    data = serialize_program(simple_program())
    data["grid"]["cols"] = 1
    with pytest.raises(SchemaError):
        parse_program(data)


def test_bad_json_text():
    with pytest.raises(SchemaError):
        parse_program("{not json")


def _set(data: dict, path: tuple, value) -> dict:
    """``data`` with the field at ``path`` (keys and list indices) set."""
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@pytest.mark.parametrize(
    "path,value",
    [
        (("distance",), 3.9),
        (("distance",), True),
        (("distance",), "5"),
        (("grid", "rows"), 1.7),
        (("grid", "cols"), True),
        (("instructions", 0, "patches", 0, 1), 0.9),
        (("instructions", 1, "start_round"), 0.5),
        (("instructions", 1, "duration"), 3.2),
        (("instructions", 2, "conditional_on"), 1.5),
        (("instructions", 2, "conditional_on"), False),
    ],
)
def test_rejects_non_whole_numbers(path, value):
    data = _set(serialize_program(simple_program()), path, value)
    with pytest.raises(SchemaError, match="whole number"):
        parse_program(data)


def test_accepts_whole_floats():
    data = serialize_program(simple_program())
    data["distance"] = 5.0
    data["instructions"][1]["duration"] = 5.0
    back = parse_program(data)
    assert back.distance == 5 and type(back.distance) is int
    assert back.instructions == simple_program().instructions


def test_accepts_numpy_integers():
    inst = Instruction(InstructionKind.IDLE, [(np.int64(0), np.int32(1))], np.int64(2), np.int8(3))
    assert inst == Instruction(InstructionKind.IDLE, ((0, 1),), 2, 3)
    assert all(type(x) is int for x in (*inst.patches[0], inst.start_round, inst.duration))
    prog = Program(np.int64(5), (np.int64(1), np.int64(2)), simple_program().instructions)
    assert (prog.distance, prog.grid) == (5, (1, 2))
    assert all(type(x) is int for x in (prog.distance, *prog.grid))


def test_empty_program_is_invalid():
    assert [str(e) for e in validate(Program(3, (1, 1)))] == ["program has no instructions"]
    data = serialize_program(simple_program())
    data["instructions"] = []
    with pytest.raises(SchemaError, match="no instructions"):
        parse_program(data)


@pytest.mark.parametrize("d", [np.int64(5), 5.0])
@pytest.mark.parametrize("name", ["repeated_t", "msd_15to1", "zigzag_chain", "toffoli"])
def test_builtins_take_whole_numbers(name, d):
    assert builtin_program(name, d) == builtin_program(name, 5)
    if name in ("repeated_t", "zigzag_chain"):
        assert builtin_program(name, 5, count=d + 1) == builtin_program(name, 5, count=6)


@pytest.mark.parametrize(
    "name,d,params,match",
    [
        ("repeated_t", 4, {}, "^d must be odd"),
        ("repeated_t", 4.5, {}, "^d must be a whole number"),
        ("toffoli", True, {}, "^d must be a whole number"),
        ("repeated_t", 3, {"count": -3}, "^count must be a whole number >= 1"),
        ("repeated_t", 3, {"count": 0}, "^count must be a whole number >= 1"),
        ("repeated_t", 3, {"count": 2.5}, "^count must be a whole number"),
        ("zigzag_chain", 3, {"count": 2}, "^count must be a whole number >= 4"),
        ("zigzag_chain", 3, {"count": 7.0}, "^count must be even"),
        ("msd_15to1", 3, {"count": 3}, "^builtin 'msd_15to1' takes no parameter 'count'"),
        ("repeated_t", 3, {"size": 3}, "^builtin 'repeated_t' takes no parameter 'size'"),
    ],
)
def test_builtin_arguments_are_checked(name, d, params, match):
    with pytest.raises(ProgramError, match=match):
        builtin_program(name, d, **params)


@pytest.mark.parametrize("instructions", [5, "Idle", {"kind": "Idle"}, None])
def test_rejects_instructions_that_are_not_a_list(instructions):
    data = serialize_program(simple_program())
    data["instructions"] = instructions
    with pytest.raises(SchemaError, match="instructions must be a list"):
        parse_program(data)


@pytest.mark.parametrize(
    "raw",
    [5, [1, 2], {"kind": "Idle", "patches": [[0]], "start_round": 0, "duration": 1}],
)
def test_rejects_malformed_instruction(raw):
    data = serialize_program(simple_program())
    data["instructions"].append(raw)
    with pytest.raises(SchemaError, match="instruction 3:"):
        parse_program(data)


def test_unknown_format():
    data = serialize_program(simple_program())
    data["format"] = 99
    with pytest.raises(SchemaError):
        parse_program(data)


@pytest.mark.parametrize("name", ["repeated_t", "msd_15to1", "zigzag_chain", "toffoli"])
def test_builtins_validate(name):
    prog = builtin_program(name, 7)
    assert validate(prog) == []
    assert prog.distance == 7
    assert prog.end_round > 0


def test_repeated_t_shape():
    prog = builtin_program("repeated_t", 5, count=4)
    kinds = [i.kind for i in prog.instructions]
    assert kinds == [InstructionKind.IDLE] + [
        InstructionKind.T_TELEPORT,
        InstructionKind.S_GATE,
    ] * 4
    assert len(prog.patches) == 1
    for s in prog.instructions[2::2]:
        target = prog.instructions[s.conditional_on]
        assert target.blocking
        assert target.end_round == s.start_round


def test_repeated_t_period():
    prog = builtin_program("repeated_t", 5, count=3)
    starts = [i.start_round for i in prog.instructions if i.blocking]
    assert starts == [5, 15, 25]


def test_msd_15to1_shape():
    prog = builtin_program("msd_15to1", 7)
    assert prog.grid == (4, 8)
    blocks = [i for i in prog.instructions if i.blocking]
    conds = [i for i in prog.instructions if i.conditional_on is not None]
    assert len(blocks) == 15
    assert len(conds) == 15
    assert all(b.duration == 3 for b in blocks)
    assert len(prog.patches) == 4 * 8


def test_zigzag_chain_staircase():
    prog = builtin_program("zigzag_chain", 5, count=10)
    merges = [i for i in prog.instructions if i.kind is InstructionKind.MERGE_ZZ]
    assert len(merges) == 4
    for m in merges:
        (r0, c0), (r1, c1) = m.patches
        assert abs(r0 - r1) + abs(c0 - c1) == 1
    # Patches two steps apart sit on a diagonal, never grid-adjacent.
    patches = prog.patches
    for a, b in zip(patches, patches[2:]):
        assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 2


def test_zigzag_chain_rejects_odd():
    with pytest.raises(Exception):
        builtin_program("zigzag_chain", 5, count=7)


def test_unknown_builtin():
    with pytest.raises(Exception):
        builtin_program("nope", 5)
