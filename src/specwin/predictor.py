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

Each predictor reads the plane's geometry from the coordinates of the lit
nodes it is given, so its work scales with the lit bits, not the plane.

Counters are bounded by 1 + max degree = 7, so candidate sums span
2..14 and the phase counts are 1, 1 + 13, and 1 + 13 + 1.

Predictions are scored against the reference decoder's dependency bits;
a prediction is correct only when it reproduces them exactly.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .decoding_graph import AXES, BoundaryPlane, DecodingGraph, DependencyBits, Syndrome
from .decoding_graph import build_window_graph
from .matching import ExactCapExceeded, crossing_site, decode, extract_dependency_bits

__all__ = [
    "BoundaryView",
    "Prediction",
    "Classification",
    "boundary_view",
    "predict_1step",
    "predict_2step",
    "predict_3step",
    "classify",
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

    ``bits`` is sparse over the plane's near nodes (missing key = 0).
    Predictors never mutate a view.
    """

    g: DecodingGraph
    plane: BoundaryPlane
    bits: dict[int, int]


def boundary_view(g: DecodingGraph, plane: BoundaryPlane, s: Syndrome) -> BoundaryView:
    """Lit nodes within two layers of the plane's node layer."""
    lit = s.lit()
    near = np.abs(g.axis_coord(lit, plane.side.axis) - plane.node_layer) <= 2
    return BoundaryView(g, plane, dict.fromkeys(lit[near].tolist(), 1))


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
    k = AXES.index(plane.side.axis)
    declared = []
    toggles: dict[int, int] = {}
    for u in sorted(v.bits):
        coords = [int(x) for x in g.node_coords(u)]
        if coords[k] != plane.node_layer:
            continue
        # A commit-layer node's crossing edge leads one step into the buffer.
        coords[k] += plane.side.direction
        partner = int(g.node_id(*coords))
        if partner in v.bits:
            declared.append(("edge", u, partner))
            toggles[u] = toggles.get(u, 0) ^ 1
    return Prediction(DependencyBits(v.plane.id, toggles), PHASES_1STEP, declared)


def _two_step(v: BoundaryView):
    """Shared increment + binned-resolution pass.

    Returns (declared, surviving bits, toggles).  Counters start as a
    copy of the bits; declaring a match zeroes both counters and both
    bits, consuming the nodes.
    """
    inc = v.g.incidence()
    edges: dict[int, tuple[int, int]] = {}
    for u in sorted(v.bits):
        for eid, w in inc[u]:
            if w > u and w in v.bits:
                edges[eid] = (u, w)
    counters = dict(v.bits)
    for u, w in edges.values():
        counters[u] += 1
        counters[w] += 1
    bins: dict[int, list[int]] = {}
    for eid, (u, w) in edges.items():
        total = counters[u] + counters[w]
        assert 2 <= total <= MAX_COUNTER_SUM
        bins.setdefault(total, []).append(eid)
    declared = []
    bits = dict(v.bits)
    toggles: dict[int, int] = {}
    for total in range(2, MAX_COUNTER_SUM + 1):
        for eid in sorted(bins.get(total, [])):
            u, w = edges[eid]
            if counters[u] and counters[w]:
                counters[u] = counters[w] = 0
                bits[u] = bits[w] = 0
                declared.append(("edge", u, w))
                site = crossing_site(v.g, v.plane, u, w)
                if site is not None:
                    toggles[site] = toggles.get(site, 0) ^ 1
    return declared, bits, toggles


def predict_2step(v: BoundaryView) -> Prediction:
    declared, _, toggles = _two_step(v)
    return Prediction(DependencyBits(v.plane.id, toggles), PHASES_2STEP, declared)


def predict_3step(v: BoundaryView) -> Prediction:
    """2-step resolution followed by one weight-2 chain phase.

    Chain checks run simultaneously against the bits left by the 2-step
    pass, then consume them.
    """
    g = v.g
    declared, bits, toggles = _two_step(v)
    snapshot = {u for u, b in bits.items() if b}
    for a in sorted(snapshot):
        ta, ra, ca = (int(x) for x in g.node_coords(a))
        for dt, dr, dc in _W2_OFFSETS:
            try:
                b = int(g.node_id(ta + dt, ra + dr, ca + dc))
            except IndexError:
                continue
            if b not in snapshot:
                continue
            site = crossing_site(g, v.plane, a, b)
            if site is not None:
                declared.append(("chain", a, b))
                toggles[site] = toggles.get(site, 0) ^ 1
    return Prediction(DependencyBits(v.plane.id, toggles), PHASES_3STEP, declared)


def classify(pred: Prediction, truth: DependencyBits) -> Classification:
    """Exact scoring: any wrong bit makes the prediction incorrect."""
    if pred.bits.plane != truth.plane:
        raise ValueError(
            f"prediction is for plane {pred.bits.plane}, truth for {truth.plane}"
        )
    got = set(pred.bits.nonzero())
    want = set(truth.nonzero())
    fp = len(got - want)
    fn = len(want - got)
    return Classification(fp == 0 and fn == 0, fp, fn)


PREDICTORS = {
    "1step": predict_1step,
    "2step": predict_2step,
    "3step": predict_3step,
}


def evaluate_predictors(d: int, p: float, shots: int, seed: int = 0) -> list[dict]:
    """Score all predictors over sampled windows of one shape.

    Each shot samples a d-round commit with a future temporal buffer,
    takes the reference decoder's crossing bits as truth (exact mode,
    greedy when a defect cluster exceeds the enumeration cap), and
    classifies every predictor on the same syndrome.  Rates are the
    fraction of shots with at least one false positive (resp. negative).
    """
    g = build_window_graph(d, d, [("temporal", "future")])
    plane = g.planes[0]
    rng = np.random.default_rng([seed, d])
    correct = {name: 0 for name in PREDICTORS}
    fp_shots = {name: 0 for name in PREDICTORS}
    fn_shots = {name: 0 for name in PREDICTORS}
    for _ in range(shots):
        _, syn = g.sample_errors(p, rng)
        try:
            m = decode(g, syn, "exact")
        except ExactCapExceeded:
            m = decode(g, syn, "greedy")
        truth = extract_dependency_bits(m, g, plane)
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
