"""Boundary-bit predictors.

A window that owns a buffer can start decoding before its neighbor has
verified the bits crossing their shared plane.  The predictors guess
those bits from the syndrome within two graph layers of the plane, in a
number of sequential phases that does not depend on the code distance:

* 1-step declares every crossing edge whose two endpoint bits are lit.
* 2-step first counts, for every near node, its own bit plus its lit
  near neighbors, then resolves candidate edges in increasing order of
  endpoint-counter sum.  A candidate declares a match only while both
  counters are nonzero, and declaring zeroes them, so tightly coupled
  same-side pairs consume their nodes before a spurious crossing is
  reached.  Only declared crossing edges emit dependency bits.
* 3-step additionally declares weight-2 chains across the plane whose
  endpoint bits survived the 2-step resolution.

Each predictor reads the plane's geometry, and 2-step its candidate edges,
from the coordinates of the lit nodes it is given, so its work scales with
the lit bits, not the plane or the graph.

Counters are bounded by 1 + max degree = 7, so candidate sums span
2..14 and the phase counts are 1, 1 + 13, and 1 + 13 + 1.

Predictions are scored against the reference decoder's dependency bits;
a prediction is correct only when it reproduces them exactly.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .decoding_graph import BoundaryPlane, DecodingGraph, DependencyBits, Syndrome
from .decoding_graph import build_window_graph, check_distance, check_whole, is_real
from .matching import crossing_site, dependency_bits
# Not called here: specbench/tracing.py rebinds these names.
from .matching import decode, extract_dependency_bits  # noqa: F401

__all__ = [
    "BoundaryView",
    "Prediction",
    "Classification",
    "boundary_view",
    "predict_1step",
    "predict_2step",
    "predict_3step",
    "classify",
    "check_eval_args",
    "evaluate_predictors",
    "write_accuracy_csv",
]

MAX_COUNTER_SUM = 14
PHASES_1STEP = 1
PHASES_2STEP = 1 + (MAX_COUNTER_SUM - 1)
PHASES_3STEP = PHASES_2STEP + 1

# Offsets enumerating each unordered coordinate pair at Manhattan
# distance 2 exactly once (lexicographically positive half).
_W2_OFFSETS = (
    (2, 0, 0),
    (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1),
    (0, 2, 0), (0, 1, 1), (0, 1, -1),
    (0, 0, 2),
)


@dataclass
class BoundaryView:
    """Near-plane slice of one window's syndrome.

    ``bits`` is the set of lit nodes within two layers of the plane.
    """

    g: DecodingGraph
    plane: BoundaryPlane
    bits: frozenset[int]


def boundary_view(g: DecodingGraph, plane: BoundaryPlane, s: Syndrome) -> BoundaryView:
    """Lit nodes within two layers of the plane's node layer."""
    lit = s.lit()
    near = np.abs(g.node_coords(lit)[plane.side.axis] - plane.node_layer) <= 2
    return BoundaryView(g, plane, frozenset(lit[near].tolist()))


@dataclass
class Prediction:
    bits: DependencyBits
    phases_executed: int
    declared: list[tuple]


@dataclass
class Classification:
    correct: bool
    false_positives: int
    false_negatives: int


def predict_1step(v: BoundaryView) -> Prediction:
    """Declare every crossing edge with both endpoints lit.

    All edges are checked against the input bits simultaneously, so
    overlapping explanations are all declared (the over-matching this
    causes is the price of a single phase).
    """
    g, plane = v.g, v.plane
    k = plane.side.axis
    declared = []
    for u in sorted(v.bits):
        coords = list(g.node_coords(u))
        if coords[k] != plane.node_layer:
            continue
        # A commit-layer node's crossing edge leads one step into the buffer.
        coords[k] += plane.side.direction
        partner = g.node_id(*coords)
        if partner in v.bits:
            declared.append(("edge", u, partner))
    sites = frozenset(u for _, u, _ in declared)
    return Prediction(DependencyBits(v.plane.id, sites), PHASES_1STEP, declared)


def _two_step(v: BoundaryView):
    """Shared increment + binned-resolution pass.

    Returns (declared, surviving bits, toggled sites).  Counters start at
    1 on every lit node; declaring a match zeroes both counters, consuming
    the nodes.
    """
    et, er, ec = v.g.extent
    # Each lit node's higher neighbours: +1 column, +1 row, +1 round.
    # (kind, lower endpoint) orders candidates as their edge ids do, since
    # the graph numbers column, then row, then temporal edges, each kind
    # by increasing lower endpoint.
    edges = []
    for u in v.bits:
        rest, c = divmod(u, ec)
        t, r = divmod(rest, er)
        if c + 1 < ec and u + 1 in v.bits:
            edges.append((0, u, u + 1))
        if r + 1 < er and u + ec in v.bits:
            edges.append((1, u, u + ec))
        if t + 1 < et and u + ec * er in v.bits:
            edges.append((2, u, u + ec * er))
    counters = dict.fromkeys(v.bits, 1)
    for _, u, w in edges:
        counters[u] += 1
        counters[w] += 1
    bins: dict[int, list[tuple[int, int, int]]] = {}
    for edge in edges:
        total = counters[edge[1]] + counters[edge[2]]
        assert 2 <= total <= MAX_COUNTER_SUM
        bins.setdefault(total, []).append(edge)
    declared = []
    toggles: set[int] = set()
    for total in range(2, MAX_COUNTER_SUM + 1):
        for _, u, w in sorted(bins.get(total, ())):
            if counters[u] and counters[w]:
                counters[u] = counters[w] = 0
                declared.append(("edge", u, w))
                site = crossing_site(v.g, v.plane, u, w)
                if site is not None:
                    toggles ^= {site}
    return declared, {u for u, n in counters.items() if n}, toggles


def predict_2step(v: BoundaryView) -> Prediction:
    declared, _, toggles = _two_step(v)
    return Prediction(DependencyBits(v.plane.id, frozenset(toggles)), PHASES_2STEP, declared)


def predict_3step(v: BoundaryView) -> Prediction:
    """2-step resolution followed by one weight-2 chain phase.

    Chain checks run simultaneously against the bits left by the 2-step
    pass, then consume them.
    """
    g = v.g
    declared, snapshot, toggles = _two_step(v)
    for a in sorted(snapshot):
        ta, ra, ca = g.node_coords(a)
        for dt, dr, dc in _W2_OFFSETS:
            try:
                b = g.node_id(ta + dt, ra + dr, ca + dc)
            except IndexError:
                continue
            if b not in snapshot:
                continue
            site = crossing_site(g, v.plane, a, b)
            if site is not None:
                declared.append(("chain", a, b))
                toggles ^= {site}
    return Prediction(DependencyBits(v.plane.id, frozenset(toggles)), PHASES_3STEP, declared)


def classify(pred: Prediction, truth: DependencyBits) -> Classification:
    """Exact scoring: any wrong bit makes the prediction incorrect."""
    if pred.bits.plane != truth.plane:
        raise ValueError(
            f"prediction is for plane {pred.bits.plane}, truth for {truth.plane}"
        )
    fp = len(pred.bits.sites - truth.sites)
    fn = len(truth.sites - pred.bits.sites)
    return Classification(fp == 0 and fn == 0, fp, fn)


PREDICTORS = {
    "1step": predict_1step,
    "2step": predict_2step,
    "3step": predict_3step,
}


def check_eval_args(d: int, p: float, shots: int) -> None:
    """Raise ValueError unless ``evaluate_predictors(d, p, shots)`` can run."""
    check_whole("shots", shots, 1)
    if not (is_real(p) and 0 <= p <= 1):
        raise ValueError(f"p must be a number in [0, 1], got {p!r}")
    check_distance(d)


def evaluate_predictors(d: int, p: float, shots: int, seed: int = 0) -> list[dict]:
    """Score all predictors over sampled windows of one shape.

    Each shot samples a d-round commit with a future temporal buffer,
    takes ``matching.dependency_bits`` as truth, and classifies
    every predictor on the same syndrome.  Rates are the fraction of shots
    with at least one false positive (resp. negative).
    """
    check_eval_args(d, p, shots)
    g = build_window_graph(d, d, [("temporal", "future")])
    plane = g.planes[0]
    rng = np.random.default_rng([seed, d])
    correct = {name: 0 for name in PREDICTORS}
    fp_shots = {name: 0 for name in PREDICTORS}
    fn_shots = {name: 0 for name in PREDICTORS}
    for _ in range(shots):
        _, syn = g.sample_errors(p, rng)
        (truth,) = dependency_bits(g, syn)
        view = boundary_view(g, plane, syn)
        for name, fn in PREDICTORS.items():
            cls = classify(fn(view), truth)
            correct[name] += cls.correct
            fp_shots[name] += cls.false_positives > 0
            fn_shots[name] += cls.false_negatives > 0
    return [
        {
            "d": d,
            "p": p,
            "predictor": name,
            "shots": shots,
            "accuracy": correct[name] / shots,
            "fp_rate": fp_shots[name] / shots,
            "fn_rate": fn_shots[name] / shots,
        }
        for name in PREDICTORS
    ]


def write_accuracy_csv(rows: list[dict], fh) -> None:
    writer = csv.DictWriter(
        fh, fieldnames=["d", "p", "predictor", "shots", "accuracy", "fp_rate", "fn_rate"]
    )
    writer.writeheader()
    writer.writerows(rows)
