"""Acceptance suite: end-to-end behavioural gates, one per criterion.

Each test prints a single PASS/FAIL line with the measured numbers
(visible with ``pytest -v -s`` or in the captured output of failures).
The thresholds are fixed; loosening them to make a run green defeats
the point of the suite.
"""

import math
import statistics
import time
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from specwin.decoding_graph import build_window_graph
from specwin.matching import Matching, _greedy, decode
from specwin.pipeline import (
    LatencyModel,
    SimConfig,
    occupancy_stats,
    processor_heuristic,
    simulate,
    simulate_many,
)
from specwin.predictor import PREDICTORS, boundary_view, evaluate_predictors
from specwin.program import builtin_program


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _mean_reaction(result) -> float:
    return statistics.fmean(r for _, r in result.reactions)


# -- 1: predictor quality ----------------------------------------------------


def test_criterion_01_predictor_quality():
    shots = 10_000
    worst_1, worst_3 = 1.0, 1.0
    fp_ordered = True
    slowest = 0.0
    for d in (13, 17, 21, 25):
        t0 = time.perf_counter()
        rows = {r["predictor"]: r for r in evaluate_predictors(d, 1e-3, shots)}
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        worst_1 = min(worst_1, rows["1step"]["accuracy"])
        worst_3 = min(worst_3, rows["3step"]["accuracy"])
        fp_ordered &= rows["2step"]["fp_rate"] < rows["1step"]["fp_rate"]
    ok = worst_1 > 0.70 and worst_3 > 0.90 and fp_ordered and slowest < 600.0
    _report(
        1,
        ok,
        f"over d in 13..25 at p=1e-3, {shots} shots: 1step acc >= {worst_1:.4f} "
        f"(>0.70), 3step acc >= {worst_3:.4f} (>0.90), 2step fp < 1step fp at "
        f"every d ({fp_ordered}), slowest d took {slowest:.0f}s (<600s)",
    )


# -- 2: predictor cost is size-independent ------------------------------------


def test_criterion_02_predictor_phase_counts():
    phases: dict[str, set[int]] = {name: set() for name in PREDICTORS}
    for d in range(3, 27, 2):
        g = build_window_graph(d, d, [("temporal", "future")])
        rng = np.random.default_rng([17, d])
        for _ in range(3):
            _, syn = g.sample_errors(1e-3, rng)
            view = boundary_view(g, g.planes[0], syn)
            for name, fn in PREDICTORS.items():
                phases[name].add(fn(view).phases_executed)
    ok = all(len(v) == 1 for v in phases.values())
    detail = ", ".join(f"{k}={sorted(v)}" for k, v in sorted(phases.items()))
    _report(2, ok, f"phases executed constant for d in 3..25: {detail}")


# -- 3: sliding reaction growth with decoder speed ----------------------------


def test_criterion_03_sliding_reaction_growth():
    t0 = time.perf_counter()
    prog = builtin_program("repeated_t", 11, count=200)
    slow = simulate(
        prog, SimConfig(latency=LatencyModel.linear(0.4), stall_blocking=False)
    )
    rs_slow = [r for _, r in slow.reactions]
    bounded = max(rs_slow) <= 3 * rs_slow[0]

    crit = simulate(
        prog, SimConfig(latency=LatencyModel.linear(1.0), stall_blocking=False)
    )
    rs = [r for _, r in crit.reactions]
    first = statistics.fmean(rs[:20])
    last = statistics.fmean(rs[-20:])
    elapsed = time.perf_counter() - t0
    ok = bounded and last >= 10 * first and elapsed < 60.0
    _report(
        3,
        ok,
        f"200 T gates, sliding: r=0.4 max {max(rs_slow)} <= 3x first "
        f"{rs_slow[0]} ({bounded}); r=1.0 decile means {first:.0f} -> "
        f"{last:.0f} (x{last / first:.1f} >= 10); {elapsed:.1f}s (<60s)",
    )


# -- 4: speculation halves parallel reaction times -----------------------------


def test_criterion_04_parallel_speculation_speedup():
    t0 = time.perf_counter()
    prog = builtin_program("repeated_t", 11, count=20)
    ratios = []
    for rate in (2.0, 4.0):
        base = SimConfig(strategy="parallel", latency=LatencyModel.linear(rate))
        off = simulate(prog, base)
        on = simulate(
            prog,
            replace(
                base, speculation="stochastic", accuracy=1.0, accuracy_adjacent=1.0
            ),
        )
        ratios.append(_mean_reaction(on) / _mean_reaction(off))
    elapsed = time.perf_counter() - t0
    ok = all(0.40 <= r <= 0.65 for r in ratios) and elapsed < 120.0
    _report(
        4,
        ok,
        f"parallel, perfect speculation vs off mean-reaction ratios "
        f"{ratios[0]:.3f} (r=2), {ratios[1]:.3f} (r=4), both in [0.40, 0.65]; "
        f"{elapsed:.1f}s (<120s)",
    )


# -- 5: aligned windows react faster than parallel ----------------------------


def test_criterion_05_aligned_beats_parallel():
    t0 = time.perf_counter()
    prog = builtin_program("repeated_t", 11, count=20)
    par = simulate(
        prog, SimConfig(strategy="parallel", latency=LatencyModel.linear(0.25))
    )
    ali = simulate(
        prog, SimConfig(strategy="aligned", latency=LatencyModel.linear(0.25))
    )
    ratio = _mean_reaction(ali) / _mean_reaction(par)
    elapsed = time.perf_counter() - t0
    ok = ratio <= 0.6 and elapsed < 60.0
    _report(
        5,
        ok,
        f"r=0.25 speculation off: aligned mean {_mean_reaction(ali):.1f} vs "
        f"parallel {_mean_reaction(par):.1f}, ratio {ratio:.3f} <= 0.6; "
        f"{elapsed:.1f}s (<60s)",
    )


# -- 6: zero-accuracy speculation is timing-identical to off ------------------


def test_criterion_06_zero_accuracy_identical():
    recoveries = ("optimistic", "adjacent", "pessimistic")
    seeds = np.random.default_rng(2026).integers(0, 10**6, size=20)
    checked = 0
    for name in ("repeated_t", "msd_15to1"):
        prog = builtin_program(name, 5)
        for i, seed in enumerate(map(int, seeds)):
            lat = LatencyModel.linear(0.5)
            off = simulate(prog, SimConfig(seed=seed, latency=lat))
            a0 = simulate(
                prog,
                SimConfig(
                    seed=seed,
                    latency=lat,
                    speculation="stochastic",
                    accuracy=0.0,
                    accuracy_adjacent=0.0,
                    recovery=recoveries[i % 3],
                ),
            )
            assert a0.timeline == off.timeline
            assert a0.reactions == off.reactions
            assert a0.runtime_rounds == off.runtime_rounds
            checked += 1
    _report(
        6,
        checked == 40,
        f"a=0 stochastic runs bit-identical to speculation-off on timeline, "
        f"reactions, runtime for {checked} program/seed combinations",
    )


# -- 7: factory runtime bands -------------------------------------------------


def test_criterion_07_msd_runtime_bands():
    t0 = time.perf_counter()
    d = 7
    prog = builtin_program("msd_15to1", d)
    lat = LatencyModel.fixed(2 * d)
    par = [
        simulate(
            prog, SimConfig(strategy="parallel", latency=lat, seed=s)
        ).runtime_rounds
        for s in range(50)
    ]
    ali = [
        simulate(
            prog,
            SimConfig(
                strategy="aligned", latency=lat, speculation="stochastic", seed=s
            ),
        ).runtime_rounds
        for s in range(50)
    ]
    mean_par, mean_ali = statistics.fmean(par), statistics.fmean(ali)
    improvement = (mean_par - mean_ali) / mean_par
    elapsed = time.perf_counter() - t0
    par_ok = 0.8 * 15.1 * d <= mean_par <= 1.2 * 15.1 * d
    ali_ok = 0.8 * 11.3 * d <= mean_ali <= 1.2 * 11.3 * d
    ok = par_ok and ali_ok and improvement >= 0.15 and elapsed < 120.0
    _report(
        7,
        ok,
        f"distillation at d=7, fixed 2d latency, 50 seeds: parallel off "
        f"{mean_par / d:.2f}d (15.1d +-20%: {par_ok}), aligned+speculation "
        f"{mean_ali / d:.2f}d (11.3d +-20%: {ali_ok}), improvement "
        f"{improvement:.1%} >= 15%; {elapsed:.1f}s (<120s)",
    )


# -- 8: recovery scope orders wasted compute ----------------------------------


def test_criterion_08_recovery_waste_ordering():
    t0 = time.perf_counter()
    prog = builtin_program("zigzag_chain", 3, count=100)
    shots = 10_000

    def total_waste(rec: str, rounds: int) -> int:
        cfgs = [
            SimConfig(
                speculation="stochastic",
                recovery=rec,
                latency=LatencyModel.fixed(rounds),
                seed=seed,
            )
            for seed in range(shots)
        ]
        # Blocks of 5,000 seeds bound the results held in memory at once.
        return sum(
            res.wasted_compute
            for lo in range(0, shots, 5000)
            for res in simulate_many(prog, cfgs[lo : lo + 5000])
        )

    slow = {rec: total_waste(rec, 4) for rec in ("optimistic", "adjacent", "pessimistic")}
    fast = {rec: total_waste(rec, 1) for rec in ("optimistic", "adjacent", "pessimistic")}
    ordered = slow["optimistic"] < slow["adjacent"] < slow["pessimistic"]
    # A 1-round decode verifies each window no later than its speculative
    # bits appear, so no guess is ever consumed and no scope wastes anything.
    fast_zero = all(v == 0 for v in fast.values())
    elapsed = time.perf_counter() - t0
    ok = ordered and fast_zero and elapsed < 300.0
    _report(
        8,
        ok,
        f"{shots} seeds, 100-window chain: wasted at 4-round decode "
        f"{slow['optimistic']} < {slow['adjacent']} < {slow['pessimistic']} "
        f"({ordered}); wasted at 1-round decode {fast['optimistic']}/"
        f"{fast['adjacent']}/{fast['pessimistic']} == 0 ({fast_zero}); "
        f"{elapsed:.0f}s (<300s)",
    )


# -- 9: processor pool sizing --------------------------------------------------


def test_criterion_09_processor_heuristic():
    cases = [
        (
            builtin_program("repeated_t", 11, count=10),
            SimConfig(
                strategy="parallel",
                latency=LatencyModel.linear(1.0),
                speculation="stochastic",
            ),
        ),
        (
            builtin_program("msd_15to1", 7),
            SimConfig(
                strategy="aligned",
                latency=LatencyModel.fixed(14),
                speculation="stochastic",
            ),
        ),
    ]
    worst_delta = 0.0
    capped = True
    for prog, cfg in cases:
        for seed in (0, 1, 2):
            c = replace(cfg, seed=seed)
            limit = processor_heuristic(prog, c)
            unlim = simulate(prog, c)
            lim = simulate(prog, replace(c, processors=limit))
            peak, _ = occupancy_stats(lim)
            capped &= peak <= limit
            delta = abs(lim.runtime_rounds - unlim.runtime_rounds) / unlim.runtime_rounds
            worst_delta = max(worst_delta, delta)
    ok = worst_delta <= 0.01 and capped
    _report(
        9,
        ok,
        f"heuristic pool size on both benchmark programs, 3 seeds each: "
        f"runtime delta <= {worst_delta:.2%} (<=1%), occupancy never exceeds "
        f"the limit ({capped})",
    )


# -- 10: exact matching is minimal ---------------------------------------------


def _oracle_weight(g, lit) -> float:
    """Minimum matching weight by brute force on an independent metric."""
    n = g.node_count
    adj: list[list[int]] = [[] for _ in range(n)]
    boundary_seed = []
    for u, v in zip(g.edges_u, g.edges_v):
        if v < 0:
            boundary_seed.append(int(u))
        else:
            adj[int(u)].append(int(v))
            adj[int(v)].append(int(u))

    def bfs(starts: list[tuple[int, int]]) -> list[float]:
        dist = [math.inf] * n
        queue = list(starts)
        for node, w in queue:
            dist[node] = min(dist[node], w)
        queue.sort(key=lambda x: x[1])
        head = 0
        while head < len(queue):
            node, w = queue[head]
            head += 1
            if w > dist[node]:
                continue
            for nb in adj[node]:
                if w + 1 < dist[nb]:
                    dist[nb] = w + 1
                    queue.append((nb, w + 1))
        return dist

    bdist = bfs([(u, 1) for u in boundary_seed])
    defect_dist = [bfs([(int(u), 0)]) for u in lit]
    k = len(lit)

    @lru_cache(maxsize=None)
    def solve(mask: int) -> float:
        if mask == 0:
            return 0.0
        i = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << i)
        best = bdist[int(lit[i])] + solve(rest)
        for j in range(i + 1, k):
            if rest & (1 << j):
                best = min(
                    best, defect_dist[i][int(lit[j])] + solve(rest ^ (1 << j))
                )
        return best

    return solve((1 << k) - 1)


def _clears_syndrome(matching, lit) -> bool:
    endpoints = []
    for u, v in matching.pairs:
        endpoints.append(u)
        if v >= 0:
            endpoints.append(v)
    return sorted(endpoints) == sorted(int(x) for x in lit)


def test_criterion_10_exact_matching_minimality():
    shapes = [
        [("temporal", "future")],
        [("temporal", "past"), ("temporal", "future")],
        [("spatial", "north")],
        [("temporal", "future"), ("spatial", "west")],
    ]
    graphs = [build_window_graph(5, 5, faces) for faces in shapes]
    rng = np.random.default_rng(99)
    instances = 0
    while instances < 1_000:
        g = graphs[instances % len(graphs)]
        _, syn = g.sample_errors(0.005, rng)
        lit = syn.lit()
        if not 1 <= lit.size <= 8:
            continue
        # At most 8 defects never exceed the cap, so decode matches exactly.
        exact = decode(g, syn)
        greedy = Matching(*_greedy(lit, *g.match_tables(lit)))
        assert exact.weight == _oracle_weight(g, lit)
        assert greedy.weight >= exact.weight
        assert _clears_syndrome(exact, lit)
        assert _clears_syndrome(greedy, lit)
        instances += 1
    _report(
        10,
        instances == 1_000,
        f"{instances} random d=5 instances with <=8 defects: exact weight "
        f"matches exhaustive enumeration, exact and greedy corrections both "
        f"pair every defect exactly once",
    )


# -- 11: speculation never slows a reaction ------------------------------------


def test_criterion_11_speculation_never_slower():
    prog = builtin_program("repeated_t", 11, count=20)
    base = SimConfig(strategy="parallel", latency=LatencyModel.linear(2.0))
    off = simulate(prog, base)
    draws = np.random.default_rng(7).uniform(0.05, 1.0, size=50)
    checked = 0
    for seed, a in enumerate(map(float, draws)):
        spec = simulate(
            prog,
            replace(
                base,
                seed=seed,
                speculation="stochastic",
                accuracy=a,
                accuracy_adjacent=0.9 * a,
            ),
        )
        assert len(spec.reactions) == len(off.reactions)
        for (gi_s, r_s), (gi_o, r_o) in zip(spec.reactions, off.reactions):
            assert gi_s == gi_o
            assert r_s <= r_o
        checked += 1
    _report(
        11,
        checked == 50,
        f"{checked} seeded runs, accuracy drawn per seed, deterministic "
        f"latency: every per-gate reaction under speculation <= the "
        f"speculation-off reaction",
    )
