"""Golden results: sha256 digests over ``to_json()`` of fixed d=3 run matrices,
and over the predictors' output on fixed sampled windows.

The digests pin every field of every result, so a refactor that claims to
leave the simulator's output unchanged must leave them unchanged.  A change
that moves them on purpose changes what specwin computes and must say why.
"""
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from specwin.decoding_graph import build_window_graph
from specwin.pipeline import LatencyModel, SimConfig, simulate
from specwin.predictor import PREDICTORS, boundary_view, evaluate_predictors
from specwin.program import builtin_program
from specwin.windowing import STRATEGIES

SPECBENCH = Path(__file__).resolve().parent.parent / "specbench"
D = 3
PROGRAMS = {
    "repeated_t": {"count": 6},
    "msd_15to1": {},
    "zigzag_chain": {"count": 20},
    "toffoli": {},
}
SPECULATION = (
    ("off", "adjacent"),
    ("stochastic", "optimistic"),
    ("stochastic", "adjacent"),
    ("stochastic", "pessimistic"),
    ("integrated", "adjacent"),
)
LATENCIES = (
    LatencyModel.fixed(2 * D),
    LatencyModel.linear(0.7),
    LatencyModel.empirical({k: [1 + k, 3 * k, 5, 2] for k in range(1, 10)}),
)
# Limited pools only on configs that finish: a starved queue can keep some
# msd_15to1 and toffoli configs generating cells forever.
LIMITED = (
    ("repeated_t", "sliding", "stochastic"),
    ("repeated_t", "parallel", "integrated"),
    ("zigzag_chain", "aligned", "off"),
    ("zigzag_chain", "sliding", "integrated"),
    ("toffoli", "parallel", "off"),
    ("toffoli", "aligned", "stochastic"),
    ("msd_15to1", "parallel", "stochastic"),
)

UNLIMITED_SHA256 = "fcf0de5cfa052a71c3fb5315591bc800b799b44135970541c3cc75e86d6d6bfe"
LIMITED_SHA256 = "95935a4464b0e284b161739221c828e398825ce22c542511387d8aa9e7cd8d4a"
PREDICTOR_SHA256 = "8c219b38b5f4687b134f4b86712414723528423e493665f2db9e989582aae51c"

# Window shapes for the predictor digest: every face, alone and combined.
FACE_SETS = (
    [("temporal", "future")],
    [("temporal", "past")],
    [("spatial", "east")],
    [("spatial", "west")],
    [("spatial", "north"), ("temporal", "future")],
    [("spatial", "south"), ("spatial", "east"), ("temporal", "past"), ("spatial", "west")],
)


def _digest(runs) -> str:
    h = hashlib.sha256()
    for key, name, cfg in runs:
        res = simulate(builtin_program(name, D, **PROGRAMS[name]), cfg)
        h.update(json.dumps([key, res.to_json()]).encode())
    return h.hexdigest()


def unlimited_runs():
    for name in PROGRAMS:
        for j, strategy in enumerate(sorted(STRATEGIES)):
            for spec, recovery in SPECULATION:
                for i, latency in enumerate(LATENCIES):
                    # Integrated runs build a window graph per cell; one
                    # latency per strategy keeps the matrix fast.
                    if spec == "integrated" and i != j:
                        continue
                    seed = (0, 1, 2**63 - 1)[i]
                    cfg = SimConfig(
                        strategy=strategy,
                        speculation=spec,
                        recovery=recovery,
                        latency=latency,
                        seed=seed,
                        stall_blocking=i != 1,
                        noise_p=2e-2,
                    )
                    yield [name, strategy, spec, recovery, i], name, cfg


def limited_runs():
    for name, strategy, spec in LIMITED:
        for processors in (1, 2, 3):
            for rounds in (1, 4):
                cfg = SimConfig(
                    strategy=strategy,
                    speculation=spec,
                    latency=LatencyModel.fixed(rounds),
                    processors=processors,
                    seed=5,
                    noise_p=2e-2,
                )
                yield [name, strategy, spec, processors, rounds], name, cfg


def test_unlimited_pool_results_are_unchanged():
    assert _digest(unlimited_runs()) == UNLIMITED_SHA256


def test_limited_pool_results_are_unchanged():
    assert _digest(limited_runs()) == LIMITED_SHA256


def predictor_records():
    for d in (5, 9, 13):
        yield evaluate_predictors(d, 5e-3, 30, seed=d)
    for d in (3, 5, 7):
        for rounds in (1, 2, d):
            for k, faces in enumerate(FACE_SETS):
                g = build_window_graph(d, rounds, faces)
                rng = np.random.default_rng([d, rounds, k])
                for shot in range(6):
                    _, syn = g.sample_errors((0.02, 0.06)[shot % 2], rng)
                    for plane in g.planes:
                        view = boundary_view(g, plane, syn)
                        for name, fn in PREDICTORS.items():
                            pred = fn(view)
                            yield [
                                d, rounds, k, shot, plane.id, name,
                                [[site, 1] for site in sorted(pred.bits.sites)],
                                pred.declared,
                                pred.phases_executed,
                            ]


def test_predictor_results_are_unchanged():
    h = hashlib.sha256()
    for rec in predictor_records():
        h.update(json.dumps(rec).encode())
    assert h.hexdigest() == PREDICTOR_SHA256


@pytest.mark.parametrize(
    "name", ["stochastic_sweep", "long_program", "integrated_msd", "predictor_eval"]
)
def test_benchmark_check_ops_match_reference(name):
    """The benchmark's check ops reproduce ``specbench/reference.json``."""
    if str(SPECBENCH) not in sys.path:
        sys.path.insert(0, str(SPECBENCH))
    import run

    run.add_paths()
    from workloads import WORKLOADS, stream

    wl = WORKLOADS[name]
    ops = stream(wl, wl.prepare(), 0)
    phase = run.run_phase(next(ops), ops, wl.digest_ops, 0.0, max_ops=wl.digest_ops)
    ok, verdict = run.check_verdict(run.reference_check_ops(name), phase.check_ops)
    assert ok, verdict
