"""Tests for the pipeline simulator."""

import gc
import json
import math
import os
import pickle
import warnings
import weakref
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specwin import pipeline
from specwin.decoding_graph import Syndrome, build_window_graph
from specwin.matching import decode, extract_dependency_bits
from specwin.pipeline import (
    RECOVERY_STRATEGIES,
    SPECULATION_MODES,
    CellRecord,
    LatencyModel,
    SimConfig,
    SimResult,
    decode_latency,
    occupancy_stats,
    parse_latency,
    processor_heuristic,
    simulate,
    simulate_many,
    _Engine,
)
from specwin.predictor import predict_3step
from specwin.program import (
    BUILTIN_PROGRAMS,
    Instruction,
    InstructionKind,
    Program,
    builtin_program,
    validate,
)
from specwin.windowing import MAX_TASK_UNITS, STRATEGIES, T, Side

from generated import generated_programs

# Generated programs the engine invariants are checked on besides the builtins.
GENERATED = 40


def idle_program(d: int, rounds: int) -> Program:
    ins = Instruction(InstructionKind.IDLE, [(0, 0)], 0, rounds)
    return Program(distance=d, grid=(1, 1), instructions=[ins], name="idle")


def occupancy_area(result: SimResult) -> int:
    area = 0
    occ = result.occupancy
    for (t0, n), (t1, _) in zip(occ, occ[1:]):
        area += n * (t1 - t0)
    return area


def check_timeline(program: Program, result: SimResult) -> None:
    """Executed schedule respects per-patch order, nominal gaps, causality."""
    segs = {s.instruction: s for s in result.timeline}
    assert len(segs) == len(program.instructions)
    for i, ins in enumerate(program.instructions):
        seg = segs[i]
        assert seg.end - seg.start == ins.duration
        assert seg.start >= ins.start_round
    for patch in program.patches:
        chain = sorted(
            (i for i, ins in enumerate(program.instructions) if patch in ins.patches),
            key=lambda i: program.instructions[i].start_round,
        )
        for a, b in zip(chain, chain[1:]):
            nominal_gap = (
                program.instructions[b].start_round - program.instructions[a].end_round
            )
            assert segs[b].start - segs[a].end >= nominal_gap
    for rec in result.cell_log:
        assert rec.gen_round >= rec.t1
        assert rec.first_start >= rec.gen_round
        assert rec.verified_round > rec.first_start
        assert rec.attempts >= 1


# -- latency models ---------------------------------------------------------


def test_parse_latency_forms(tmp_path):
    assert parse_latency("fixed:2d", 7).rounds == 14
    assert parse_latency("fixed:25", 7).rounds == 25
    assert parse_latency("fixed:1.5d", 7).rounds == 11
    assert parse_latency("linear:0.5", 7).rate == 0.5
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({"2": [5, 7], "3": [9]}))
    model = parse_latency(f"empirical:{path}", 7)
    assert model.buckets == {2: [5, 7], 3: [9]}


@pytest.mark.parametrize("bad", ["fixed", "warp:3", "linear:abc"])
def test_parse_latency_rejects(bad):
    with pytest.raises(ValueError):
        parse_latency(bad, 5)


def test_decode_latency_fixed_and_linear():
    assert decode_latency(2.0, 5, LatencyModel.fixed(9)) == 9
    assert decode_latency(2.0, 5, LatencyModel.linear(0.5)) == 5
    # task units round up to whole d^3 blocks
    assert decode_latency(2.5, 5, LatencyModel.linear(0.5)) == 8
    assert decode_latency(0.2, 5, LatencyModel.linear(0.5)) == 3
    # never below one round
    assert decode_latency(1.0, 3, LatencyModel.linear(0.01)) == 1
    # an unknown kind is named, not taken for an empirical model
    with pytest.raises(ValueError, match="unknown latency kind 'bogus'"):
        decode_latency(1, 3, LatencyModel(kind="bogus"))


def test_decode_latency_empirical():
    import numpy as np

    model = LatencyModel.empirical({2: [7], 3: [4, 11]})
    rng = np.random.default_rng(0)
    assert decode_latency(1.5, 5, model, rng) == 7
    seen = {decode_latency(3.0, 5, model, np.random.default_rng(s)) for s in range(40)}
    assert seen == {4, 11}
    with pytest.raises(ValueError):
        decode_latency(5.0, 5, model, rng)
    with pytest.raises(ValueError):
        decode_latency(2.0, 5, model, None)


def test_fixed_latency_takes_whole_rounds():
    assert LatencyModel.fixed(3.0).rounds == 3
    for bad in (2.7, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            LatencyModel.fixed(bad)


def test_a_validated_rate_and_the_factory_agree():
    """A numpy float32 rate is stored as a float, so a validated model and
    ``linear()`` give the same rounds.  Multiplied in float32, rate 0.1 at
    k=2, d=5 would take 1 round; as a float it takes 2."""
    for i in range(1, 2000):
        rate = np.float32(i / 1000)
        built = LatencyModel(kind="linear", rate=rate)
        built.validate()
        factory = LatencyModel.linear(rate)
        assert built == factory
        for d in (3, 5, 7, 9, 11):
            for k in range(1, 12):
                assert decode_latency(k, d, built) == decode_latency(k, d, factory)


def test_linear_latency_rate_is_bounded_by_the_distance():
    """A rate whose largest task overflows to infinite rounds at the
    program's distance fails before the run, not inside ``decode_latency``."""
    model = LatencyModel.linear(1e308)
    model.validate()
    with pytest.raises(ValueError, match="overflows"):
        model.validate(3)
    with pytest.raises(ValueError, match="overflows"):
        simulate(idle_program(3, 6), SimConfig(latency=model))
    LatencyModel.linear(1e300).validate(25)
    assert decode_latency(MAX_TASK_UNITS, 25, LatencyModel.linear(1e300)) > 0


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_tasks_never_exceed_the_largest_task(strategy):
    for name in BUILTIN_PROGRAMS:
        eng = _Engine(builtin_program(name, 3), SimConfig(strategy=strategy))
        eng.run()
        assert max(cell.task_units(3) for cell in eng.cells) <= MAX_TASK_UNITS


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(strategy="diagonal").validate()
    with pytest.raises(ValueError, match="unknown speculation mode 'eager'"):
        SimConfig(speculation="eager").validate()
    with pytest.raises(ValueError, match="unknown recovery strategy 'lazy'"):
        SimConfig(recovery="lazy").validate()
    for bad in (1.0, -0.1):
        with pytest.raises(ValueError, match=r"noise_p must be in \[0, 1\)"):
            SimConfig(noise_p=bad).validate()
    with pytest.raises(ValueError):
        SimConfig(accuracy=0.5, accuracy_adjacent=0.6).validate()
    with pytest.raises(ValueError):
        SimConfig(processors=0).validate()
    # Seeds and pool sizes are whole numbers: a fractional seed would run as
    # its truncation.
    for bad in (1.5, True, "3", -1, None):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(seed=bad).validate()
    for bad in (2.5, True, "2", 0):
        with pytest.raises(ValueError, match="processors"):
            SimConfig(processors=bad).validate()
    # A truthy or falsy stand-in would run as its truth value.
    for bad in ("no", None, 0, 1, np.int64(1)):
        with pytest.raises(ValueError, match="stall_blocking"):
            SimConfig(stall_blocking=bad).validate()
    for good in (True, False, np.bool_(False)):
        SimConfig(stall_blocking=good).validate()
    # Probabilities are real numbers, numpy scalars included; a bool or a
    # string is not.
    for name in ("accuracy", "accuracy_adjacent", "noise_p"):
        for bad in ("0.5", False, True, np.bool_(True), None, [0.5]):
            with pytest.raises(ValueError, match=name):
                SimConfig(**{name: bad}).validate()
    SimConfig().validate()
    SimConfig(seed=2**40, processors=3).validate()
    SimConfig(seed=np.int64(7), processors=np.int64(2)).validate()
    SimConfig(accuracy=1, accuracy_adjacent=0, noise_p=0).validate()
    SimConfig(
        accuracy=np.float32(0.9), accuracy_adjacent=np.int64(0), noise_p=np.float32(1e-3)
    ).validate()
    SimConfig(accuracy=np.int64(1), accuracy_adjacent=np.float32(0.5), noise_p=np.int64(0)).validate()
    # Reals are stored back as floats, as whole numbers are stored as ints.
    cfg = SimConfig(accuracy=np.int64(1), accuracy_adjacent=np.float32(0.5), noise_p=0)
    cfg.validate()
    reals = (cfg.accuracy, cfg.accuracy_adjacent, cfg.noise_p)
    assert reals == (1.0, 0.5, 0.0) and {type(x) for x in reals} == {float}
    # Latency models check their own fields: a fractional or bool round
    # count, a non-number rate or a spec string in place of a model fails
    # with the field's name, instead of running truncated or crashing.
    for bad in (2.7, True, 0, float("inf"), "2", None):
        with pytest.raises(ValueError, match="rounds"):
            LatencyModel(kind="fixed", rounds=bad).validate(3)
        with pytest.raises(ValueError, match="rounds"):
            LatencyModel.fixed(bad)
    for bad in ("2", True, np.bool_(True), None, 0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="rate"):
            LatencyModel(kind="linear", rate=bad).validate(3)
        with pytest.raises(ValueError, match="rate"):
            LatencyModel.linear(bad)
    with pytest.raises(ValueError, match="latency"):
        SimConfig(latency="fixed:4").validate()
    for good in (4, 4.0, np.int64(4)):
        model = LatencyModel(kind="fixed", rounds=good)
        model.validate(3)
        assert type(model.rounds) is int and model.rounds == 4
        assert LatencyModel.fixed(good).rounds == 4
    for good in (2, 0.5, np.float32(0.5), np.int64(2)):
        model = LatencyModel(kind="linear", rate=good)
        model.validate(3)
        assert type(model.rate) is float and model.rate == float(good)
        SimConfig(latency=LatencyModel.linear(good)).validate(3)
    # A rate whose largest task overflows a float fails with the rate's name
    # and no warning.  The rate is stored as a float, so a numpy float32 runs
    # as its float value, not in its own narrower type.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (10**400, np.float64(1e308)):
            with pytest.raises(ValueError, match="rate"):
                LatencyModel(kind="linear", rate=bad).validate(3)
            with pytest.raises(ValueError, match="rate"):
                cfg = SimConfig(latency=LatencyModel(kind="linear", rate=bad))
                simulate(idle_program(3, 6), cfg)
        cfg = SimConfig(latency=LatencyModel(kind="linear", rate=np.float32(3e38)))
        simulate(idle_program(3, 6), cfg)
        assert cfg.latency.rate == float(np.float32(3e38))
        LatencyModel(kind="linear", rate=np.float32(1e36)).validate(3)


def test_whole_floats_and_numpy_ints_run_as_their_ints():
    """A seed, a pool size or a latency given as a whole float or a numpy
    integer runs bit-identical to its int, and is stored back as the int."""
    program = builtin_program("zigzag_chain", 3, count=10)

    def run(seed, processors, rounds):
        cfg = SimConfig(
            speculation="stochastic",
            seed=seed,
            processors=processors,
            latency=LatencyModel(kind="fixed", rounds=rounds),
        )
        result = simulate(program, cfg).to_json()
        assert (type(cfg.seed), type(cfg.processors), type(cfg.latency.rounds)) == (int,) * 3
        return result

    want = run(1, 2, 4)
    assert run(1.0, 2.0, 4.0) == want
    assert run(np.int64(1), np.int64(2), np.int64(4)) == want


# -- verification timing ----------------------------------------------------


def test_idle_chain_verification_times():
    # d=5, three cells, r=0.5: interior cells decode in 5 rounds, the
    # pure-sink tail re-covers its received buffer so it also takes 5.
    res = simulate(idle_program(5, 15), SimConfig(latency=LatencyModel.linear(0.5)))
    assert [(r.t0, r.t1) for r in res.cell_log] == [(0, 5), (5, 10), (10, 15)]
    assert [r.gen_round for r in res.cell_log] == [10, 15, 15]
    assert [r.first_start for r in res.cell_log] == [10, 15, 20]
    assert [r.verified_round for r in res.cell_log] == [15, 20, 25]
    assert all(r.attempts == 1 for r in res.cell_log)
    assert res.valid_compute == 15
    assert res.wasted_compute == 0
    assert res.runtime_rounds == 15


def test_free_run_reactions_low_rate():
    # steady state: reaction independent of gate index; the final gate's
    # covering cell sees a short trailing neighbor and reacts earlier.
    prog = builtin_program("repeated_t", 11, count=50)
    res = simulate(
        prog, SimConfig(latency=LatencyModel.linear(0.4), stall_blocking=False)
    )
    rs = [r for _, r in res.reactions]
    assert rs[:-1] == [20] * 49
    assert rs[-1] == 18
    assert res.runtime_rounds == prog.end_round


def test_free_run_reactions_backlog_growth():
    prog = builtin_program("repeated_t", 11, count=60)
    res = simulate(
        prog, SimConfig(latency=LatencyModel.linear(1.0), stall_blocking=False)
    )
    rs = [r for _, r in res.reactions]
    assert rs == [44 + 22 * j for j in range(60)]


@pytest.mark.parametrize(
    "rate,expect_off,expect_on", [(2.0, 154, 89), (4.0, 286, 155)]
)
def test_parallel_reactions_off_and_perfect(rate, expect_off, expect_on):
    prog = builtin_program("repeated_t", 11, count=12)
    base = SimConfig(strategy="parallel", latency=LatencyModel.linear(rate))
    off = simulate(prog, base)
    on = simulate(
        prog,
        replace(base, speculation="stochastic", accuracy=1.0, accuracy_adjacent=1.0),
    )
    assert set(r for _, r in off.reactions) == {expect_off}
    assert set(r for _, r in on.reactions) == {expect_on}


def test_aligned_beats_parallel_at_small_rate():
    prog = builtin_program("repeated_t", 11, count=12)
    par = simulate(prog, SimConfig(strategy="parallel", latency=LatencyModel.linear(0.25)))
    ali = simulate(prog, SimConfig(strategy="aligned", latency=LatencyModel.linear(0.25)))
    assert set(r for _, r in par.reactions) == {40}
    assert set(r for _, r in ali.reactions) == {20}


# -- stalling ---------------------------------------------------------------


def test_stall_rounds_up_to_2d_blocks():
    d = 11
    prog = builtin_program("repeated_t", d, count=10)
    res = simulate(prog, SimConfig(latency=LatencyModel.linear(0.4)))
    assert set(r for _, r in res.reactions) == {20}
    segs = {s.instruction: s for s in res.timeline}
    for i, ins in enumerate(prog.instructions):
        if ins.conditional_on is None:
            continue
        t_end = segs[ins.conditional_on].end
        # reaction 20 stalls one full 2d block
        assert segs[i].start - t_end == 2 * d
        assert segs[i].start % (2 * d) == ins.start_round % (2 * d)
    assert res.runtime_rounds == prog.end_round + 10 * 2 * d
    check_timeline(prog, res)


def test_stall_can_be_disabled():
    prog = builtin_program("msd_15to1", 7)
    stalled = simulate(prog, SimConfig(latency=LatencyModel.fixed(14)))
    free = simulate(
        prog, SimConfig(latency=LatencyModel.fixed(14), stall_blocking=False)
    )
    assert free.runtime_rounds == prog.end_round
    assert stalled.runtime_rounds > prog.end_round
    assert free.reactions == stalled.reactions or len(free.reactions) == len(
        stalled.reactions
    )
    check_timeline(prog, stalled)
    check_timeline(prog, free)


# -- backlog -----------------------------------------------------------------

BACKLOG_COUNTS = (5, 10, 15, 20)


def _runtime_steps(d: int, strategy: str, rate: float) -> list[int]:
    """Rounds each five more T gates of ``repeated_t`` add to the runtime."""
    cfg = SimConfig(strategy=strategy, latency=LatencyModel.linear(rate))
    runtimes = [
        simulate(builtin_program("repeated_t", d, count=n), cfg).runtime_rounds
        for n in BACKLOG_COUNTS
    ]
    return [b - a for a, b in zip(runtimes, runtimes[1:])]


@pytest.mark.parametrize("d", [3, 5])
def test_sliding_backlog_threshold(d):
    """One sliding window at a time keeps up with the data only while a
    decode lasts no longer than the rounds its cell covers.

    A steady-state sliding cell covers ``rounds`` rounds and decodes
    ``task_units`` d^3 units, which take rate * task_units * d rounds, so
    the backlog threshold is r* = rounds / (task_units * d).  Just below it
    the runtime is linear in the gate count; just above it every five gates
    add more than twice the rounds the five before did.  Parallel windows
    stay linear far above it.
    """
    eng = _Engine(builtin_program("repeated_t", d, count=4), SimConfig(strategy="sliding"))
    eng.run()
    cell = eng.cells[len(eng.cells) // 2]
    assert (cell.rounds, len(cell.sources), len(cell.sinks)) == (d, 1, 1)
    r_star = cell.rounds / (cell.task_units(d) * d)
    assert r_star == 0.5

    steps = _runtime_steps(d, "sliding", r_star)
    assert len(set(steps)) == 1, steps
    steps = _runtime_steps(d, "sliding", 1.1 * r_star)
    assert all(b > 2 * a for a, b in zip(steps, steps[1:])), steps
    steps = _runtime_steps(d, "parallel", 2.0)
    assert len(set(steps)) == 1, steps


# -- speculation baselines ---------------------------------------------------


@pytest.mark.parametrize("name,d", [("repeated_t", 5), ("msd_15to1", 3)])
def test_zero_accuracy_equals_speculation_off(name, d):
    prog = builtin_program(name, d)
    recoveries = ("optimistic", "adjacent", "pessimistic")
    lat = LatencyModel.linear(0.5)
    for seed in range(5):
        off = simulate(prog, SimConfig(seed=seed, latency=lat))
        a0 = simulate(
            prog,
            SimConfig(
                seed=seed,
                latency=lat,
                speculation="stochastic",
                accuracy=0.0,
                accuracy_adjacent=0.0,
                recovery=recoveries[seed % 3],
            ),
        )
        assert a0.timeline == off.timeline
        assert a0.reactions == off.reactions
        assert a0.runtime_rounds == off.runtime_rounds


def test_perfect_speculation_wastes_nothing():
    prog = builtin_program("repeated_t", 11, count=10)
    cfg = SimConfig(
        strategy="parallel",
        latency=LatencyModel.linear(2.0),
        speculation="stochastic",
        accuracy=1.0,
        accuracy_adjacent=1.0,
    )
    res = simulate(prog, cfg)
    assert res.wasted_compute == 0
    assert res.mispredictions == 0
    assert all(r.attempts == 1 for r in res.cell_log)


@pytest.mark.parametrize("strategy,rate", [("parallel", 2.0), ("sliding", 0.4)])
def test_stochastic_never_worse_elementwise(strategy, rate):
    prog = builtin_program("repeated_t", 11, count=10)
    base = SimConfig(strategy=strategy, latency=LatencyModel.linear(rate))
    off = simulate(prog, base)
    for seed in range(8):
        acc = 0.3 + 0.08 * seed
        spec = simulate(
            prog,
            replace(
                base,
                seed=seed,
                speculation="stochastic",
                accuracy=acc,
                accuracy_adjacent=acc * 0.9,
            ),
        )
        assert len(spec.reactions) == len(off.reactions)
        for (gi_s, r_s), (gi_o, r_o) in zip(spec.reactions, off.reactions):
            assert gi_s == gi_o
            assert r_s <= r_o


# -- compute accounting ------------------------------------------------------


def test_compute_conservation():
    prog = builtin_program("zigzag_chain", 3, count=30)
    for seed in range(4):
        res = simulate(
            prog,
            SimConfig(
                speculation="stochastic",
                latency=LatencyModel.fixed(4),
                recovery="adjacent",
                seed=seed,
            ),
        )
        assert occupancy_area(res) == res.valid_compute + res.wasted_compute
    off = simulate(prog, SimConfig(latency=LatencyModel.fixed(4)))
    assert off.wasted_compute == 0
    assert occupancy_area(off) == off.valid_compute


def test_recovery_strategy_waste_ordering():
    prog = builtin_program("zigzag_chain", 3, count=100)
    totals = {}
    for rec in ("optimistic", "adjacent", "pessimistic"):
        w = 0
        for seed in range(120):
            res = simulate(
                prog,
                SimConfig(
                    speculation="stochastic",
                    recovery=rec,
                    latency=LatencyModel.fixed(4),
                    seed=seed,
                ),
            )
            w += res.wasted_compute
        totals[rec] = w
    assert totals["optimistic"] < totals["adjacent"] < totals["pessimistic"]


def test_one_cycle_decode_never_consumes_speculation():
    # verified bits land one phase ahead of same-round speculative bits, so
    # a wrong guess may be published but never triggers a restart
    prog = builtin_program("zigzag_chain", 3, count=40)
    for rec in ("optimistic", "adjacent", "pessimistic"):
        res = simulate(
            prog,
            SimConfig(
                speculation="stochastic",
                recovery=rec,
                latency=LatencyModel.fixed(1),
                seed=11,
            ),
        )
        assert res.wasted_compute == 0
        assert all(r.attempts == 1 for r in res.cell_log)


# -- conditional coins -------------------------------------------------------


def test_conditional_coin_reproducible_and_timing_free():
    prog = builtin_program("repeated_t", 5, count=12)
    a = simulate(prog, SimConfig(seed=4))
    b = simulate(prog, SimConfig(seed=4))
    assert [s.skipped for s in a.timeline] == [s.skipped for s in b.timeline]
    c = simulate(prog, SimConfig(seed=5))
    # coins flip labels only, never the executed schedule
    assert [(s.start, s.end) for s in c.timeline] == [(s.start, s.end) for s in a.timeline]
    conditionals = {i for i, ins in enumerate(prog.instructions) if ins.conditional_on is not None}
    for seg in a.timeline:
        if seg.skipped:
            assert seg.instruction in conditionals
            assert seg.label == "Idle"
    assert any(s.skipped for s in a.timeline) or any(s.skipped for s in c.timeline)


# -- processors --------------------------------------------------------------


def test_single_processor_serializes():
    prog = builtin_program("zigzag_chain", 3, count=20)
    res = simulate(prog, SimConfig(latency=LatencyModel.fixed(5), processors=1))
    assert max(n for _, n in res.occupancy) == 1
    assert res.wasted_compute == 0
    assert occupancy_area(res) == res.valid_compute == 5 * len(res.cell_log)


def test_processor_heuristic_perfect_matches_peak():
    prog = builtin_program("repeated_t", 7, count=10)
    cfg = SimConfig(
        strategy="parallel",
        latency=LatencyModel.linear(1.0),
        speculation="stochastic",
        accuracy=1.0,
        accuracy_adjacent=1.0,
    )
    probe = simulate(prog, replace(cfg, processors=None))
    peak, _ = occupancy_stats(probe)
    assert processor_heuristic(prog, cfg) == max(1, peak)


def test_processor_heuristic_limit_keeps_runtime():
    prog = builtin_program("repeated_t", 11, count=10)
    cfg = SimConfig(
        strategy="parallel",
        latency=LatencyModel.linear(1.0),
        speculation="stochastic",
        seed=3,
    )
    limit = processor_heuristic(prog, cfg)
    unlimited = simulate(prog, cfg)
    limited = simulate(prog, replace(cfg, processors=limit))
    assert max(n for _, n in limited.occupancy) <= limit
    assert limited.runtime_rounds == unlimited.runtime_rounds


class _CellCap(Exception):
    """A capped run made its last allowed cell."""


def _cap_cells(monkeypatch, cap: int) -> None:
    """Make every run raise ``_CellCap`` instead of making cell ``cap + 1``."""
    new_cell = _Engine._new_cell

    def capped(self, *args):
        if len(self.cells) >= cap:
            raise _CellCap
        return new_cell(self, *args)

    monkeypatch.setattr(_Engine, "_new_cell", capped)


def test_queue_waits_only_on_busy_processors_and_faces_attach_before_generation(monkeypatch):
    """Engine invariants, checked on every builtin at d=3 and on generated
    programs, under each strategy, speculation mode, recovery scope, pool
    and latency.  Each is why a guard the engine does without would never
    fire.

    - After every event, the decoder queue is empty or every processor is
      busy, so only a freed processor can start a queued cell.
    - No face attaches to a cell once it has generated, so a cell's sink
      faces are those its decode tasks started on.
    - ``_try_start`` never sees a verified cell or one that holds a
      finished task.
    - Every recovery target is unverified and holds a running or finished
      task.
    - No commit starts before the clock.  After a patch's final commit its
      tail cell ends at the patch's death, and when a tail cell shrinks,
      no cell across its sink faces has generated.
    - Every cell verifies at most once, and only after every cell across
      its sink faces has; no reaction is negative.
    - On every finished run, valid plus wasted compute is the busy area.

    Runs that live-lock a limited pool stop at a cell cap, with every event
    before the stop checked.
    """
    _cap_cells(monkeypatch, 1500)
    seen = dict.fromkeys(
        ("events", "queued", "attached", "recovered", "shrunk", "finished", "capped"), 0
    )

    def wrap(name, check):
        method = getattr(_Engine, name)
        monkeypatch.setattr(_Engine, name, lambda self, *args: check(method, self, *args))

    def after_event(handler, self, *args):
        handler(self, *args)
        seen["events"] += 1
        if self.queue:
            seen["queued"] += 1
            assert self.running_count == self.cfg.processors

    def attach(attach_face, self, a, b, side):
        assert a.gen_time is None and b.gen_time is None
        seen["attached"] += 1
        attach_face(self, a, b, side)

    def try_start(start, self, cell):
        assert cell.verified_at is None and cell.done is None
        start(self, cell)

    def recovery_targets(targets_of, self, src, face):
        targets = targets_of(self, src, face)
        for cell in targets:
            assert cell.verified_at is None and (cell.running or cell.done)
        seen["recovered"] += len(targets)
        return targets

    def commit(commit_at, self, gi, ins, start):
        assert start >= self.clock
        commit_at(self, gi, ins, start)
        for q in ins.patches:
            ps = self.pstate[q]
            if ps.order[-1] == gi:
                assert ps.cells[-1].t1 == self.exec_end[gi]

    def apply_death(shrink, self, last, death):
        if last.t1 > death:
            seen["shrunk"] += 1
            assert all(self.cells[f.neighbor].gen_time is None for f in last.sinks)
        shrink(self, last, death)

    def note_release(resolve, self, rel):
        resolved = resolve(self, rel)
        assert not resolved or self.reactions[-1][1] >= 0
        return resolved

    def run(run_engine, self):
        running["engine"] = self
        return run_engine(self)

    running = {}
    verified_at = pipeline._Cell.verified_at

    class VerifiesOnce(pipeline._Cell):
        """A cell that verifies once, after the sources of its sink faces."""

        __slots__ = ()

        @property
        def verified_at(self):
            return verified_at.__get__(self)

        @verified_at.setter
        def verified_at(self, t):
            if t is not None:
                assert verified_at.__get__(self) is None
                cells = running["engine"].cells
                assert all(cells[f.neighbor].verified_at is not None for f in self.sinks)
            verified_at.__set__(self, t)

    monkeypatch.setattr(pipeline, "_Cell", VerifiesOnce)
    wrap("run", run)
    for name in ("_on_gen", "_on_done", "_on_spec"):
        wrap(name, after_event)
    wrap("_attach", attach)
    wrap("_try_start", try_start)
    wrap("_recovery_targets", recovery_targets)
    wrap("_commit", commit)
    wrap("_apply_death", apply_death)
    wrap("_note_release", note_release)

    modes = [("off", "adjacent"), ("integrated", "adjacent")]
    modes += [("stochastic", recovery) for recovery in RECOVERY_STRATEGIES]
    programs = [builtin_program(name, 3) for name in BUILTIN_PROGRAMS]
    programs += generated_programs(GENERATED)
    for k, prog in enumerate(programs):
        for strategy, (spec, recovery), pool, rounds in product(
            STRATEGIES, modes, (None, 1, 2, 3), (1, 4)
        ):
            cfg = SimConfig(
                strategy=strategy,
                speculation=spec,
                recovery=recovery,
                processors=pool,
                latency=LatencyModel.fixed(rounds),
                stall_blocking=k % 4 != 3,
                noise_p=0.02,
            )
            try:
                res = simulate(prog, cfg)
            except _CellCap:
                seen["capped"] += 1
                continue
            seen["finished"] += 1
            assert occupancy_area(res) == res.valid_compute + res.wasted_compute
    # Every check was exercised: cells waited in the queue, faces attached,
    # tasks were recovered, tail cells shrank, and some runs finished.
    assert 0 < seen["queued"] < seen["events"]
    assert seen["attached"] > 0 and seen["recovered"] > 0 and seen["shrunk"] > 0
    assert seen["finished"] > seen["capped"]


def test_generated_programs_validate_and_run():
    """The generator emits only programs ``validate`` accepts, drawing every
    kind it names, merges of adjacent patches and conditionals on another
    patch than their T gate's, and each runs to completion under an
    unlimited pool in every strategy and speculation mode."""
    programs = generated_programs(GENERATED)
    kinds, merged, remote = set(), 0, 0
    for prog in programs:
        assert validate(prog) == []
        for ins in prog.instructions:
            kinds.add(ins.kind)
            merged += ins.merging
            if ins.conditional_on is not None:
                remote += ins.patches[0] not in prog.instructions[ins.conditional_on].patches
        for strategy, spec in product(STRATEGIES, SPECULATION_MODES):
            res = simulate(prog, SimConfig(strategy=strategy, speculation=spec))
            check_timeline(prog, res)
    assert kinds == {
        InstructionKind.IDLE,
        InstructionKind.MERGE_ZZ,
        InstructionKind.SPLIT,
        InstructionKind.T_TELEPORT,
        InstructionKind.S_GATE,
    }
    assert merged > 0 and remote > 0
    assert {prog.grid for prog in programs} == {(r, c) for r in (1, 2) for c in (1, 2, 3)}


@pytest.mark.xfail(
    raises=_CellCap,
    strict=True,
    reason="A limited decoder pool can live-lock (ROADMAP: 'A limited decoder pool "
    "can live-lock: a measured policy that ends it')",
)
@pytest.mark.parametrize(
    "prog,pools,cells",
    [
        (builtin_program("msd_15to1", 3), (2, 3), 362),
        # The smallest program known to live-lock: a T gate on one patch
        # and an S conditional on it on the other.
        (
            Program(3, (1, 2), [
                Instruction(InstructionKind.IDLE, [(0, 1)], 0, 2),
                Instruction(InstructionKind.T_TELEPORT, [(0, 0)], 3, 3),
                Instruction(InstructionKind.S_GATE, [(0, 1)], 7, 2, conditional_on=1),
                Instruction(InstructionKind.IDLE, [(0, 0)], 6, 4),
            ]),
            (1,),
            10,
        ),
    ],
    ids=["msd_15to1", "four_instructions"],
)
def test_limited_pool_msd_returns(monkeypatch, prog, pools, cells):
    """A limited pool finishes the program within 20 times the cells of the
    unlimited run: msd_15to1 at d=3 with 2 or 3 decoders, and the
    four-instruction program with 1."""
    cfg = SimConfig(strategy="sliding", speculation="off", latency=LatencyModel.fixed(4))
    assert len(simulate(prog, cfg).cell_log) == cells
    _cap_cells(monkeypatch, 20 * cells)
    for pool in pools:
        res = simulate(prog, replace(cfg, processors=pool))
        check_timeline(prog, res)


# -- results -----------------------------------------------------------------


def test_occupancy_stats_by_hand():
    res = SimResult(
        runtime_rounds=10,
        reactions=[],
        timeline=[],
        occupancy=[(0, 1), (5, 2), (8, 0)],
        valid_compute=11,
        wasted_compute=0,
        mispredictions=0,
        cell_log=[],
    )
    peak, mean = occupancy_stats(res)
    assert peak == 2
    assert mean == pytest.approx((5 * 1 + 3 * 2) / 10)


def test_result_serializes_to_json():
    prog = builtin_program("toffoli", 5)
    res = simulate(prog, SimConfig(latency=LatencyModel.linear(0.5)))
    blob = json.dumps(res.to_json())
    data = json.loads(blob)
    assert data["runtime_rounds"] == res.runtime_rounds
    assert len(data["timeline"]) == len(prog.instructions)
    assert len(data["cells"]) == len(res.cell_log)
    check_timeline(prog, res)


def test_empirical_latency_end_to_end():
    prog = idle_program(5, 15)
    model = LatencyModel.empirical({1: [3], 2: [5, 6]})
    a = simulate(prog, SimConfig(latency=model, seed=1))
    b = simulate(prog, SimConfig(latency=model, seed=1))
    assert [r.verified_round for r in a.cell_log] == [r.verified_round for r in b.cell_log]
    for rec in a.cell_log:
        assert rec.verified_round - rec.first_start in (3, 5, 6)


def test_msd_runtime_by_strategy():
    d = 7
    prog = builtin_program("msd_15to1", d)
    par = simulate(prog, SimConfig(strategy="parallel", latency=LatencyModel.fixed(2 * d)))
    ali = simulate(prog, SimConfig(strategy="aligned", latency=LatencyModel.fixed(2 * d)))
    assert par.runtime_rounds == 104
    assert ali.runtime_rounds == 90
    check_timeline(prog, par)
    check_timeline(prog, ali)


@pytest.mark.parametrize("strategy", ["sliding", "parallel", "aligned"])
def test_timeline_valid_across_programs(strategy):
    for name, d in (("repeated_t", 5), ("msd_15to1", 5), ("toffoli", 5)):
        prog = builtin_program(name, d)
        res = simulate(prog, SimConfig(strategy=strategy, latency=LatencyModel.linear(0.4)))
        check_timeline(prog, res)
        # cells tile each patch contiguously from first to last executed round
        by_patch = {}
        for rec in res.cell_log:
            by_patch.setdefault(tuple(rec.patch), []).append(rec)
        for recs in by_patch.values():
            for a, b in zip(recs, recs[1:]):
                assert a.t1 == b.t0


# -- integrated speculation ---------------------------------------------------


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", BUILTIN_PROGRAMS)
def test_integrated_noiseless_matches_perfect_stochastic(name, strategy):
    """Without noise every prediction equals the truth, so integrated mode
    runs as stochastic mode does at perfect accuracy."""
    prog = builtin_program(name, 5)
    latency = LatencyModel.fixed(10)
    integ = simulate(
        prog,
        SimConfig(strategy=strategy, speculation="integrated", noise_p=0.0, latency=latency),
    )
    perfect = simulate(
        prog,
        SimConfig(
            strategy=strategy,
            speculation="stochastic",
            accuracy=1.0,
            accuracy_adjacent=1.0,
            latency=latency,
        ),
    )
    assert integ.mispredictions == perfect.mispredictions == 0
    assert integ.wasted_compute == perfect.wasted_compute == 0
    assert integ.runtime_rounds == perfect.runtime_rounds
    assert integ.reactions == perfect.reactions
    assert integ.timeline == perfect.timeline
    assert [r.verified_round for r in integ.cell_log] == [
        r.verified_round for r in perfect.cell_log
    ]


def test_integrated_mispredictions_recover():
    prog = builtin_program("zigzag_chain", 3, count=40)
    total = 0
    for seed in range(4):
        res = simulate(
            prog,
            SimConfig(
                speculation="integrated",
                noise_p=0.08,
                latency=LatencyModel.fixed(6),
                seed=seed,
            ),
        )
        total += res.mispredictions
        assert occupancy_area(res) == res.valid_compute + res.wasted_compute
        again = simulate(
            prog,
            SimConfig(
                speculation="integrated",
                noise_p=0.08,
                latency=LatencyModel.fixed(6),
                seed=seed,
            ),
        )
        assert again.to_json() == res.to_json()
    assert total > 0


_INTEGRATED_CASES = [
    (name, d, strategy, 2e-2, 1)
    for name in BUILTIN_PROGRAMS
    for d in (3, 5)
    for strategy in ("sliding", "parallel", "aligned")
] + [("msd_15to1", 7, "aligned", 1e-3, 0)]


@pytest.mark.parametrize("name,d,strategy,p,seed", _INTEGRATED_CASES)
def test_integrated_runs_complete(name, d, strategy, p, seed):
    prog = builtin_program(name, d)
    res = simulate(
        prog,
        SimConfig(
            strategy=strategy,
            speculation="integrated",
            noise_p=p,
            latency=LatencyModel.fixed(2 * d),
            seed=seed,
        ),
    )
    assert all(c.verified_round is not None for c in res.cell_log)
    assert occupancy_area(res) == res.valid_compute + res.wasted_compute


def _two_buffer_source():
    """A source cell owning its future face and a spatial face, its spatial
    sink, and the sink's face back to it.

    Patch (1, 0) starts one round after patch (0, 0), so the sink's rounds
    are shifted against the source's: [0, 3) owns the face it shares with
    [1, 4) under the sliding rule.
    """
    prog = Program(
        distance=3,
        grid=(2, 1),
        instructions=[
            Instruction(InstructionKind.IDLE, [(0, 0)], 0, 2),
            Instruction(InstructionKind.IDLE, [(1, 0)], 1, 2),
            Instruction(InstructionKind.MERGE_ZZ, [(0, 0), (1, 0)], 2, 11),
        ],
    )
    # The engine keeps no window graph; the tests rebuild the ones they need.
    engine = _Engine(prog, SimConfig(stall_blocking=False, speculation="integrated", noise_p=0.0))
    engine.run()
    src = engine.cells[0]
    assert (src.patch, src.t0) == ((0, 0), 0)
    assert [f.side for f in src.sources] == [Side.FUTURE, Side.SOUTH]
    dst = engine.cells[src.sources[1].neighbor]
    assert (dst.patch, dst.t0, dst.t1) == ((1, 0), 1, 4)
    back = next(g for g in dst.sinks if g.neighbor == src.id)
    return engine, src, dst, back


def _window_graph(cell, d):
    """The window graph integrated mode decodes ``cell`` on: one buffer per
    source side."""
    sides = dict.fromkeys(f.side.pair for f in cell.sources)
    return build_window_graph(d, cell.rounds, list(sides))


def _plane(g, side):
    """The window graph's boundary plane on ``side``."""
    return next(p for p in g.planes if p.side is side)


def _chain_toggles(g, plane, inner, outer):
    """Dependency bits on ``plane`` of a single matched chain inner-outer."""
    u, v = int(g.node_id(*inner)), int(g.node_id(*outer))
    bits = np.zeros(g.node_count, dtype=np.uint8)
    bits[[u, v]] = 1
    m = decode(g, Syndrome(bits))
    assert m.pairs == [(min(u, v), max(u, v))]
    return extract_dependency_bits(m, g, plane).sites


def _crossing(side, t, d, rounds):
    """Commit-side and buffer-side (t, row, col) of an edge across ``side``."""
    rows, cols = d - 1, (d + 1) // 2
    inner = [t, rows // 2, cols // 2]
    high = (rounds, rows, cols)[side.axis] - 1
    inner[side.axis] = high if side.direction > 0 else 0
    outer = list(inner)
    outer[side.axis] += side.direction
    return tuple(inner), tuple(outer)


def test_injected_crossing_chain_toggles_matching_sink_node():
    engine, src, dst, back = _two_buffer_source()
    side, d = back.side.mirror, engine.d
    g, box = _window_graph(src, d), _window_graph(dst, d).commit_hi
    plane = _plane(g, side)
    t_global = max(src.t0, dst.t0)
    inner, outer = _crossing(side, t_global - src.t0, d, src.rounds)
    toggles = _chain_toggles(g, plane, inner, outer)
    assert toggles == {int(g.node_id(*inner))}
    (site,) = toggles
    # The chain's buffer-side end lies in the sink's patch, on the sink's face
    # layer: same round and same coordinate along the face.
    rows, cols = d - 1, (d + 1) // 2
    want = (t_global - dst.t0, outer[1] % rows, outer[2] % cols)
    assert engine._project(back, src, dst, box, g.node_coords(site)) == want


def test_chain_in_sources_other_buffer_is_dropped():
    engine, src, dst, back = _two_buffer_source()
    d, g, rounds = engine.d, _window_graph(src, engine.d), src.rounds
    spatial = back.side.mirror
    # Across the spatial plane, but in the first round of the source's future
    # buffer: that round is inside the sink's commit, yet the crossing edge
    # is the next source cell's, not this one's.
    plane = _plane(g, spatial)
    inner, outer = _crossing(spatial, rounds, d, rounds)
    assert 0 <= src.t0 + rounds - dst.t0 < dst.rounds
    (site,) = _chain_toggles(g, plane, inner, outer)
    box = _window_graph(dst, d).commit_hi
    assert engine._project(back, src, dst, box, g.node_coords(site)) is None
    # Across the future plane, but in the columns or rows of the spatial buffer.
    later = engine.cells[next(f.neighbor for f in src.sources if f.side is Side.FUTURE)]
    past = next(f for f in later.sinks if f.neighbor == src.id)
    plane = _plane(g, Side.FUTURE)
    inner, _ = _crossing(Side.FUTURE, 0, d, rounds)
    far = g.hi[spatial.axis] - 1 if spatial.direction > 0 else g.lo[spatial.axis]
    inner = list(inner)
    inner[spatial.axis] = far
    inner, outer = tuple(inner), (inner[T] + 1, *inner[1:])
    (site,) = _chain_toggles(g, plane, inner, outer)
    box = _window_graph(later, d).commit_hi
    assert engine._project(past, src, later, box, g.node_coords(site)) is None


# -- faces and references ----------------------------------------------------


def offset_merge_program() -> Program:
    """Two patches whose tilings are offset by one round: under parallel and
    aligned ownership a cell of (0, 1) owns two WEST faces."""
    return Program(
        distance=3,
        grid=(1, 2),
        instructions=[
            Instruction(InstructionKind.IDLE, [(0, 0)], 0, 1),
            Instruction(InstructionKind.MERGE_ZZ, [(0, 0), (0, 1)], 1, 12),
            Instruction(InstructionKind.IDLE, [(0, 0)], 13, 2),
        ],
    )


def west_sources(cell) -> list:
    return [f for f in cell.sources if f.side is Side.WEST]


@pytest.mark.parametrize("spec", SPECULATION_MODES)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_two_source_faces_on_one_side(strategy, spec):
    prog = offset_merge_program()
    for recovery in RECOVERY_STRATEGIES:
        cfg = SimConfig(
            strategy=strategy,
            speculation=spec,
            recovery=recovery,
            latency=LatencyModel.fixed(2),
            seed=1,
            noise_p=2e-2,
        )
        engine = _Engine(prog, cfg)
        res = engine.run()
        doubled = [c for c in engine.cells if len(west_sources(c)) == 2]
        assert bool(doubled) == (strategy != "sliding")
        check_timeline(prog, res)
        assert occupancy_area(res) == res.valid_compute + res.wasted_compute
        assert res.to_json() == simulate(prog, cfg).to_json()


def test_faces_on_one_side_are_judged_independently():
    prog = offset_merge_program()
    split = 0
    for seed in range(50):
        cfg = SimConfig(
            strategy="parallel",
            speculation="stochastic",
            accuracy=0.5,
            accuracy_adjacent=0.5,
            latency=LatencyModel.fixed(2),
            seed=seed,
        )
        engine = _Engine(prog, cfg)
        judge = engine._by_draw
        judged = {}

        def record(cell):
            judged[cell.id] = judge(cell)
            return judged[cell.id]

        engine._by_draw = record
        engine.run()
        for cell in engine.cells:
            faces = west_sources(cell)
            if len(faces) == 2:
                wrong = [any(g is f for g in judged[cell.id]) for f in faces]
                assert wrong == [(cell.id, f.neighbor) in engine.wrong_faces for f in faces]
                split += wrong[0] != wrong[1]
    assert split > 0


def test_faces_on_one_side_are_judged_by_their_neighbours_rounds(monkeypatch):
    """Integrated mode: a face sharing its side's plane is wrong only if a
    plane site where prediction and truth differ lies in its neighbour's
    rounds, so a difference confined to one neighbour's rounds never marks
    the other face wrong."""
    prog = Program(
        distance=3,
        grid=(1, 2),
        instructions=[
            Instruction(InstructionKind.IDLE, [(0, 0)], 0, 1),
            Instruction(InstructionKind.MERGE_ZZ, [(0, 0), (0, 1)], 1, 40),
            Instruction(InstructionKind.IDLE, [(0, 0)], 41, 2),
        ],
    )
    confined = 0
    for seed in range(20):
        cfg = SimConfig(
            strategy="parallel",
            speculation="integrated",
            latency=LatencyModel.fixed(2),
            seed=seed,
            noise_p=0.05,
        )
        engine = _Engine(prog, cfg)
        judge = engine._by_decoding
        judged, predicted = {}, {}
        judging = []

        def record(cell):
            judging[:] = [cell]
            judged[cell.id] = judge(cell)
            return judged[cell.id]

        def predict(view):
            # Keyed by the cell being judged, in its window frame, as truth is.
            prediction = predict_3step(view)
            sites = frozenset(map(view.g.node_coords, prediction.bits.sites))
            predicted[judging[0].id, view.plane.side] = sites
            return prediction

        engine._by_decoding = record
        monkeypatch.setattr(pipeline, "predict_3step", predict)
        engine.run()
        for cell in engine.cells:
            faces = west_sources(cell)
            if len(faces) != 2 or cell.spec_time is None:
                continue
            pred = predicted[cell.id, Side.WEST]
            truth = cell.truth[Side.WEST]
            rounds = [cell.t0 + site[T] for site in pred ^ truth]
            hit = []
            for f in faces:
                nbr = engine.cells[f.neighbor]
                hit.append(any(nbr.t0 <= t < nbr.t1 for t in rounds))
            wrong = [any(g is f for g in judged[cell.id]) for f in faces]
            assert wrong == hit
            confined += hit.count(True) == 1
    assert confined > 0


@pytest.mark.parametrize("spec", SPECULATION_MODES)
def test_merges_listing_patches_in_either_order_share_one_face(spec):
    prog = Program(
        distance=3,
        grid=(1, 2),
        instructions=[
            Instruction(InstructionKind.MERGE_ZZ, [(0, 0), (0, 1)], 0, 5),
            Instruction(InstructionKind.MERGE_ZZ, [(0, 1), (0, 0)], 5, 5),
        ],
    )
    engine = _Engine(prog, SimConfig(strategy="parallel", speculation=spec))
    check_timeline(prog, engine.run())
    for cell in engine.cells:
        nbrs = [f.neighbor for f in cell.sources + cell.sinks]
        assert len(nbrs) == len(set(nbrs))


def test_runs_leave_no_reference_cycles():
    """Finished runs free by reference counting alone."""
    configs = [
        (name, SimConfig(strategy=strategy, speculation=spec, latency=LatencyModel.fixed(2)))
        for name in BUILTIN_PROGRAMS
        for strategy in STRATEGIES
        for spec in SPECULATION_MODES
    ]
    configs.append(
        (
            "repeated_t",
            SimConfig(speculation="stochastic", processors=2, latency=LatencyModel.fixed(4)),
        )
    )
    gc.collect()
    gc.disable()
    try:
        for name, cfg in configs:
            simulate(builtin_program(name, 3), cfg)
            assert gc.collect() == 0, (name, cfg)
    finally:
        gc.enable()


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", BUILTIN_PROGRAMS)
def test_integrated_mode_keeps_one_window_graph_at_a_time(name, strategy, monkeypatch):
    """A cell's window graph is freed once the cell is judged: when the
    engine builds a graph, no earlier one is still alive, so memory does not
    grow with the run's length."""
    refs, peak = [], [0]

    def build(*args):
        g = build_window_graph(*args)
        refs.append(weakref.ref(g))
        peak[0] = max(peak[0], sum(r() is not None for r in refs))
        return g

    monkeypatch.setattr(pipeline, "build_window_graph", build)
    cfg = SimConfig(strategy=strategy, speculation="integrated", latency=LatencyModel.fixed(2))
    res = simulate(builtin_program(name, 3), cfg)
    assert len(refs) == len(res.cell_log) > 1
    assert peak[0] == 1


@pytest.mark.parametrize("enabled", [True, False])
def test_simulate_restores_collector_state(enabled):
    """simulate() pauses the cycle collector and leaves it as it found it."""
    prog = builtin_program("zigzag_chain", 3)
    cfg = SimConfig(speculation="stochastic", latency=LatencyModel.fixed(2))
    (gc.enable if enabled else gc.disable)()
    try:
        simulate(prog, cfg)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


# -- keyed draws and seed-parallel sweeps ----------------------------------------

_WORD = st.integers(min_value=0, max_value=2**32 - 1)
# Ids past 2**32 take the list-key path of the seed sequence.
_ID = st.one_of(_WORD, st.integers(min_value=2**32, max_value=2**80))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.one_of(_WORD, st.integers(min_value=2**32, max_value=2**70)),
    tag=st.integers(min_value=0, max_value=8),
    ids=st.lists(_ID, max_size=6),
)
def test_keyed_draws_match_default_rng(seed, tag, ids):
    engine = _Engine(idle_program(3, 3), SimConfig(seed=seed))
    want = np.random.default_rng([seed, tag, *ids])
    assert engine._uniform(tag, *ids) == want.random()
    want = np.random.default_rng([seed, tag, *ids])
    got = engine._rng(tag, *ids)
    assert got.integers(1 << 62, size=4).tolist() == want.integers(1 << 62, size=4).tolist()


# Words at both ends of the uint32 range, and anything between.
_EDGE_WORD = st.one_of(st.sampled_from([0, 2**32 - 1]), _WORD)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.lists(st.lists(_EDGE_WORD, min_size=n, max_size=n), min_size=1, max_size=12)
    )
)
def test_block_replay_matches_default_rng(rows):
    # Keys of one to eight words: shorter than the seed sequence's pool of
    # four, as long, and longer.
    got = pipeline._first_doubles(np.array(rows, dtype=np.uint32))
    assert got.dtype == np.float64
    assert got.tolist() == [np.random.default_rng(row).random() for row in rows]


# Stream indices across the first block's start (32) and the next blocks'
# edges (1056, 2080).
_STREAM = range(2101)


@pytest.mark.parametrize("seed", [5, 2**32 + 5], ids=["uint32", "wide"])
def test_keyed_draws_match_default_rng_across_blocks(seed):
    engine = _Engine(idle_program(3, 3), SimConfig(seed=seed))
    keys = [(pipeline._COND, i) for i in _STREAM]
    for side in (Side.PAST, Side.NORTH):
        keys += [(pipeline._SPEC, 1, 2, i, side) for i in _STREAM]
        keys += [(pipeline._SPEC, 1, 2, i, side, 1) for i in _STREAM]
    # An index whose block would pass 2**32 - 1 is drawn alone, and a block
    # may end at 2**32 - 1.
    edges = (2**32 - 2, 2**32 + 1, 2**32 - 1024, 2**32 - 1)
    keys += [(pipeline._SPEC, 1, 2, i, Side.PAST) for i in edges]
    for key in keys:
        assert engine._uniform(*key) == np.random.default_rng([seed, *key]).random(), key
    # A seed past uint32 leaves every draw to numpy.
    assert bool(engine._ahead) == (seed < 2**32)


def _count_draws(monkeypatch, counts: dict) -> None:
    """Count numpy fallbacks (``_rng`` calls, those of conditional coins
    apart too), ``_first_doubles`` calls, stream blocks, cell batches and
    coin replays (``_replay`` calls tagged ``_COND``) into ``counts``; a
    replay that returns False replayed nothing and is not counted."""

    def counted(name, fn):
        def wrapper(*args):
            out = fn(*args)
            counts[name] += out is not False
            return out

        return wrapper

    def rng(self, tag, *ids):
        counts["coin fallback"] += tag == pipeline._COND
        return fallback(self, tag, *ids)

    def replay(self, tag, columns):
        counts["coins"] += tag == pipeline._COND
        return replay_keys(self, tag, columns)

    names = ("fallback", "coin fallback", "first_doubles", "stream", "cells", "coins")
    for name in names:
        counts[name] = 0
    fallback = counted("fallback", _Engine._rng)
    replay_keys = _Engine._replay
    monkeypatch.setattr(_Engine, "_rng", rng)
    monkeypatch.setattr(_Engine, "_replay", replay)
    monkeypatch.setattr(
        pipeline, "_first_doubles", counted("first_doubles", pipeline._first_doubles)
    )
    monkeypatch.setattr(_Engine, "_replay_stream", counted("stream", _Engine._replay_stream))
    monkeypatch.setattr(_Engine, "_replay_cells", counted("cells", _Engine._replay_cells))


def test_long_streams_draw_in_blocks(monkeypatch):
    """A speculation stream draws its first 32 indices from numpy or in a
    batch of new cells, and the rest in blocks, so a long run makes at most
    32 numpy draws per stream."""
    counts: dict[str, int] = {}
    streams: dict[tuple, int] = {}

    def uniform(self, tag, *ids):
        if tag == pipeline._SPEC:
            stream = (*ids[:2], *ids[3:])
            streams[stream] = max(streams.get(stream, 0), ids[2])
        return draw(self, tag, *ids)

    draw = _Engine._uniform
    _count_draws(monkeypatch, counts)
    monkeypatch.setattr(_Engine, "_uniform", uniform)
    prog = builtin_program("repeated_t", 3, count=300)
    simulate(prog, SimConfig(strategy="parallel", speculation="stochastic", seed=3))
    # The speculation draws of two temporal sides.
    assert len(streams) == 2
    assert min(streams.values()) >= 600
    assert counts["fallback"] <= 32 * len(streams)
    assert 0 < counts["stream"] <= sum(last // 1024 + 1 for last in streams.values())
    # One call per stream block, at most one per key length per cell batch,
    # and one for every conditional coin.
    assert counts["coins"] == 1
    assert counts["stream"] < counts["first_doubles"] <= (
        counts["stream"] + 2 * counts["cells"] + counts["coins"]
    )


def test_conditional_coins_replay_once(monkeypatch):
    """A run replays every conditional coin in one batch when it starts, bit
    for bit; a seed past uint32 leaves the coins to numpy."""
    prog = builtin_program("repeated_t", 3, count=40)
    gis = [gi for gi, ins in enumerate(prog.instructions) if ins.conditional_on is not None]
    assert min(gis) < pipeline._BLOCK_FROM <= max(gis)

    def coins(seed):
        return {gi: np.random.default_rng([seed, pipeline._COND, gi]).random() for gi in gis}

    def run(seed):
        cfg = SimConfig(speculation="stochastic", seed=seed)
        engine = _Engine(prog, cfg)
        if seed < 2**32:
            assert engine._ahead == {(pipeline._COND, gi): u for gi, u in coins(seed).items()}
        else:
            assert engine._ahead == {}
        res = engine.run()
        skipped = {seg.instruction: seg.skipped for seg in res.timeline if seg.instruction in gis}
        assert skipped == {gi: u >= 0.5 for gi, u in coins(seed).items()}
        return res.to_json()

    counts: dict[str, int] = {}
    _count_draws(monkeypatch, counts)
    batched = run(3)
    assert counts["coins"] == 1
    assert counts["coin fallback"] == 0
    wide = run(2**32 + 3)
    assert counts["coins"] == 1
    assert counts["coin fallback"] == len(gis)

    # With the coin batch left out, numpy draws every coin alike.
    replay = _Engine._replay
    monkeypatch.setattr(
        _Engine, "_replay", lambda self, tag, cols: tag != pipeline._COND and replay(self, tag, cols)
    )
    assert simulate(prog, SimConfig(speculation="stochastic", seed=3)).to_json() == batched
    assert counts["coin fallback"] == 2 * len(gis)
    assert simulate(prog, SimConfig(speculation="stochastic", seed=2**32 + 3)).to_json() == wide


def test_short_streams_draw_in_one_batch(monkeypatch):
    """A run whose streams are all shorter than 32 cells replays its
    speculation draws in one batch once 32 cells exist, bit for bit."""
    prog = builtin_program("zigzag_chain", 3, count=100)

    def run(**cfg):
        return simulate(prog, SimConfig(speculation="stochastic", **cfg)).to_json()

    batched = []
    for recovery, latency, strategy in product(
        RECOVERY_STRATEGIES, (LatencyModel.fixed(4), LatencyModel.fixed(1)), STRATEGIES
    ):
        cfg = dict(recovery=recovery, latency=latency, strategy=strategy, seed=5)
        batched.append((cfg, run(**cfg)))

    counts: dict[str, int] = {}
    _count_draws(monkeypatch, counts)
    run(latency=LatencyModel.fixed(4), seed=5)
    assert counts["first_doubles"] == counts["cells"] == 1
    assert counts["fallback"] < pipeline._BLOCK_FROM

    # A seed past uint32 leaves every draw to numpy.
    wide = run(latency=LatencyModel.fixed(4), seed=2**32 + 5)
    assert counts["first_doubles"] == 1

    monkeypatch.setattr(_Engine, "_replay_cells", lambda self: False)
    for cfg, want in batched:
        assert run(**cfg) == want, cfg
    assert counts["first_doubles"] == 1
    assert run(latency=LatencyModel.fixed(4), seed=2**32 + 5) == wide


def _sweep_configs() -> list[SimConfig]:
    empirical = LatencyModel.empirical({k: [2 + k, 3 * k, 5] for k in range(1, 8)})
    cfgs = []
    for i, strategy in enumerate(("sliding", "parallel", "aligned")):
        for j, recovery in enumerate(("optimistic", "adjacent", "pessimistic")):
            cfgs.append(
                SimConfig(
                    strategy=strategy,
                    speculation="stochastic",
                    recovery=recovery,
                    latency=LatencyModel.fixed(4) if j < 2 else empirical,
                    processors=None if i < 2 else 3,
                    seed=3 * i + j,
                )
            )
    cfgs.append(SimConfig(strategy="aligned", latency=empirical, seed=7))
    return cfgs


def test_simulate_many_equals_serial_in_order():
    prog = builtin_program("msd_15to1", 3)
    cfgs = _sweep_configs()
    serial = [simulate(prog, cfg).to_json() for cfg in cfgs]
    assert [r.to_json() for r in simulate_many(prog, cfgs)] == serial
    # Fewer configs than workers, down to none.
    assert [r.to_json() for r in simulate_many(prog, cfgs[4:5])] == serial[4:5]
    assert simulate_many(prog, []) == []


@pytest.mark.parametrize(
    "bad",
    [
        SimConfig(strategy="diagonal"),
        SimConfig(latency=LatencyModel.empirical({1: [2]})),
    ],
    ids=["invalid-config", "fails-mid-run"],
)
def test_simulate_many_raises_like_serial(bad):
    prog = builtin_program("msd_15to1", 3)
    with pytest.raises(Exception) as serial:
        simulate(prog, bad)
    cfgs = _sweep_configs()
    cfgs.insert(5, bad)
    with pytest.raises(serial.type):
        simulate_many(prog, cfgs)


def test_simulate_many_workers_bounded_by_cores(monkeypatch):
    import concurrent.futures

    pools = []
    real = concurrent.futures.ProcessPoolExecutor

    def spy(workers, *args, **kwargs):
        pools.append(workers)
        return real(workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    prog = builtin_program("zigzag_chain", 3, count=8)
    cfgs = [SimConfig(speculation="stochastic", seed=s) for s in range(6)]
    serial = [simulate(prog, cfg).to_json() for cfg in cfgs]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert [r.to_json() for r in simulate_many(prog, cfgs)] == serial
    assert pools == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert [r.to_json() for r in simulate_many(prog, cfgs)] == serial
    assert pools == [2]


def test_result_pickle_round_trip():
    prog = builtin_program("zigzag_chain", 3, count=12)
    res = simulate(prog, SimConfig(speculation="stochastic", seed=4))
    back = pickle.loads(pickle.dumps(res))
    assert back == res
    assert back.to_json() == res.to_json()
