"""The four benchmark workloads and the checks on their outputs.

Every workload is an endless, seeded stream of ops.  ``stream`` opens it
with the workload's check ops, drawn from ``CHECK_SEED`` whatever the
workload seed, and goes on with ops drawn from the workload seed.  Op ``i``
depends only on its seed and ``i``, so the check ops are the same on every
machine, at every speed and for every seed; the digest covers them and
``reference.json`` holds their expected results.  An op returns an
``Outcome``; ``check`` raises ``CheckError`` when the outcome is wrong.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

import specwin.pipeline as pipeline
import specwin.predictor as predictor
import specwin.render as render
from specwin.pipeline import SimConfig, SimResult, occupancy_stats, parse_latency
from specwin.program import Program, builtin_program

RECOVERIES = ("optimistic", "adjacent", "pessimistic")
STRATEGIES = ("sliding", "parallel", "aligned")
PREDICTOR_NAMES = ("1step", "2step", "3step")
# Seed of the check ops that open every stream.
CHECK_SEED = 0


class CheckError(Exception):
    """An op finished but its output is wrong."""


@dataclass
class Outcome:
    windows: int
    record: object  # JSON-serialisable result that feeds the digest
    sims: list[SimResult] = field(default_factory=list)


@dataclass
class Op:
    index: int
    label: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome], None]


@dataclass
class Workload:
    name: str
    digest_ops: int  # check ops that open the stream, hashed into the digest
    prepare: Callable[[], object]  # builds programs and shared config
    ops: Callable[[object, int], Iterator[Op]]


def stream(wl: Workload, ctx, seed: int) -> Iterator[Op]:
    """The check ops of ``CHECK_SEED``, then the ops of ``seed``."""
    check = wl.ops(ctx, CHECK_SEED)
    for _ in range(wl.digest_ops):
        yield next(check)
    for op in wl.ops(ctx, seed):
        yield replace(op, index=op.index + wl.digest_ops)


# -- checks ------------------------------------------------------------------


def check_sim(program: Program, result: SimResult) -> None:
    blocking = sorted(i for i, ins in enumerate(program.instructions) if ins.blocking)
    gates = sorted(gi for gi, _ in result.reactions)
    if gates != blocking:
        raise CheckError(f"reactions for gates {gates}, blocking gates are {blocking}")
    bad = [(gi, r) for gi, r in result.reactions if r < 0]
    if bad:
        raise CheckError(f"negative reactions {bad[:3]}")
    if not result.cell_log:
        raise CheckError("empty cell_log")
    unverified = [c.index for c in result.cell_log if c.verified_round is None]
    if unverified:
        raise CheckError(f"{len(unverified)} windows without verified_round")


def check_rows(rows: list[dict], d: int, shots: int) -> None:
    names = sorted(r["predictor"] for r in rows)
    if names != sorted(PREDICTOR_NAMES):
        raise CheckError(f"predictor rows {names}")
    for r in rows:
        if r["d"] != d or r["shots"] != shots:
            raise CheckError(f"row for d={r['d']} shots={r['shots']}, asked d={d} shots={shots}")
        for key in ("accuracy", "fp_rate", "fn_rate"):
            if not 0.0 <= r[key] <= 1.0:
                raise CheckError(f"{r['predictor']} {key}={r[key]} outside [0, 1]")


def _sim_op(index: int, label: str, program: Program, cfg: SimConfig) -> Op:
    """One simulate() call; its windows are the result's cell_log."""

    def run() -> Outcome:
        res = pipeline.simulate(program, cfg)
        return Outcome(len(res.cell_log), res, [res])

    return Op(index, label, run, lambda out: check_sim(program, out.record))


# -- stochastic_sweep --------------------------------------------------------


def _stochastic_prepare():
    program = builtin_program("zigzag_chain", 3, count=100)
    latencies = {text: parse_latency(text, 3) for text in ("fixed:4", "fixed:1")}
    return program, latencies


def _stochastic_ops(ctx, seed: int) -> Iterator[Op]:
    program, latencies = ctx
    draw = random.Random(seed)
    i = 0
    while True:
        rec = RECOVERIES[i % 3]
        lat = ("fixed:4", "fixed:1")[(i // 3) % 2]
        sim_seed = draw.randrange(2**31)
        cfg = SimConfig(
            speculation="stochastic", recovery=rec, latency=latencies[lat], seed=sim_seed
        )
        yield _sim_op(i, f"recovery={rec} latency={lat} seed={sim_seed}", program, cfg)
        i += 1


# -- long_program --------------------------------------------------------------


def _long_prepare():
    program = builtin_program("repeated_t", 11, count=1000)
    return program, parse_latency("linear:0.4", 11)


def _long_ops(ctx, seed: int) -> Iterator[Op]:
    program, latency = ctx
    draw = random.Random(seed)
    i = 0
    while True:
        sim_seed = draw.randrange(2**31)
        cfg = SimConfig(
            strategy="parallel", speculation="stochastic", latency=latency, seed=sim_seed
        )

        def run(cfg=cfg) -> Outcome:
            limit = pipeline.processor_heuristic(program, cfg)
            unlimited = pipeline.simulate(program, cfg)
            limited = pipeline.simulate(program, replace(cfg, processors=limit))
            doc = limited.to_json()
            buf = io.StringIO()
            render.write_trace_csv(program, limited, buf)
            svg = render.trace_svg(program, limited)
            record = {
                "limit": limit,
                "unlimited": unlimited,
                "limited": doc,
                "csv_sha256": _sha(buf.getvalue()),
                "svg_sha256": _sha(svg),
            }
            windows = len(unlimited.cell_log) + len(limited.cell_log)
            return Outcome(windows, record, [unlimited, limited])

        def check(out: Outcome) -> None:
            unlimited, limited = out.sims
            check_sim(program, unlimited)
            check_sim(program, limited)
            peak, _ = occupancy_stats(limited)
            if peak > out.record["limit"]:
                raise CheckError(f"limited pool peaked at {peak} > limit {out.record['limit']}")

        yield Op(i, f"seed={sim_seed}", run, check)
        i += 1


# -- integrated_msd ------------------------------------------------------------


def _msd_prepare():
    program = builtin_program("msd_15to1", 3)
    return program, parse_latency("fixed:2d", 3)


def _msd_ops(ctx, seed: int) -> Iterator[Op]:
    program, latency = ctx
    draw = random.Random(seed)
    i = 0
    while True:
        strategy = STRATEGIES[i % 3]
        sim_seed = draw.randrange(2**31)
        cfg = SimConfig(
            strategy=strategy,
            speculation="integrated",
            noise_p=1e-3,
            latency=latency,
            seed=sim_seed,
        )
        yield _sim_op(i, f"strategy={strategy} seed={sim_seed}", program, cfg)
        i += 1


# -- predictor_eval ------------------------------------------------------------

PREDICTOR_DS = (13, 17, 21, 25)
# Shots of each call.  Criterion 1 runs the same shot count at every d, so an
# op does too: one call per d, which keeps every op the same mix of work.
PREDICTOR_SHOTS = 20


def _predictor_prepare():
    return PREDICTOR_DS, PREDICTOR_SHOTS


def _predictor_ops(ctx, seed: int) -> Iterator[Op]:
    ds, shots = ctx
    draw = random.Random(seed)
    i = 0
    while True:
        eval_seed = draw.randrange(2**31)

        def run(eval_seed=eval_seed) -> Outcome:
            rows = [predictor.evaluate_predictors(d, 1e-3, shots, seed=eval_seed) for d in ds]
            return Outcome(shots * len(ds), rows)

        def check(out: Outcome) -> None:
            for d, rows in zip(ds, out.record):
                check_rows(rows, d, shots)

        yield Op(i, f"d={','.join(map(str, ds))} shots={shots} seed={eval_seed}", run, check)
        i += 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("stochastic_sweep", 12, _stochastic_prepare, _stochastic_ops),
        Workload("long_program", 1, _long_prepare, _long_ops),
        Workload("integrated_msd", 3, _msd_prepare, _msd_ops),
        Workload("predictor_eval", 2, _predictor_prepare, _predictor_ops),
    )
}


# -- digest --------------------------------------------------------------------


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _plain(obj):
    if isinstance(obj, SimResult):
        return obj.to_json()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_plain(v) for v in obj]
    return obj


def digest_line(index: int, outcome: Outcome | None, error: BaseException | None) -> bytes:
    """One op's contribution to the workload digest."""
    if outcome is None:
        body = {"op": index, "error": type(error).__name__}
    else:
        body = {"op": index, "result": _plain(outcome.record)}
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def engine_counters(sims: list[SimResult]) -> dict[str, float]:
    """Modelled-engine quantities read from results; they repeat exactly."""
    windows = starts = valid = wasted = wait = peak = 0
    for res in sims:
        windows += len(res.cell_log)
        starts += sum(c.attempts for c in res.cell_log)
        wait += sum(c.first_start - c.gen_round for c in res.cell_log)
        valid += res.valid_compute
        wasted += res.wasted_compute
        peak = max(peak, occupancy_stats(res)[0])
    return {
        "decode_starts": starts,
        "retry_frac": (starts - windows) / starts if starts else 0.0,
        "useful_compute_frac": valid / (valid + wasted) if valid + wasted else 0.0,
        "wait_rounds": wait,
        "peak_decoders": peak,
    }
