"""Predictor tests.

Ground truth throughout is the reference decoder's dependency bits on
the same syndrome (the decoder itself is validated against brute-force
enumeration in test_matching).
"""
import io

import numpy as np
import pytest

from specwin.decoding_graph import DependencyBits, Syndrome, build_window_graph
from specwin.matching import decode, extract_dependency_bits
from specwin.predictor import (
    PHASES_1STEP,
    PHASES_2STEP,
    PHASES_3STEP,
    PREDICTORS,
    Prediction,
    boundary_view,
    check_eval_args,
    classify,
    evaluate_predictors,
    predict_1step,
    predict_2step,
    predict_3step,
    write_accuracy_csv,
)


def future_graph(d, commit=None):
    return build_window_graph(d, commit or d, [("temporal", "future")])


def syndrome_of(g, nodes):
    bits = np.zeros(g.node_count, dtype=np.uint8)
    for n in nodes:
        bits[n] ^= 1
    return Syndrome(bits)


def truth_bits(g, syn):
    return extract_dependency_bits(decode(g, syn), g, g.planes[0])


def test_all_zero_view():
    g = future_graph(5)
    view = boundary_view(g, g.planes[0], syndrome_of(g, []))
    for fn in PREDICTORS.values():
        pred = fn(view)
        assert pred.declared == []
        assert pred.bits.sites == set()


def test_isolated_crossing_edge_all_predictors():
    g = future_graph(5)
    u = int(g.node_id(4, 2, 1))
    v = int(g.node_id(5, 2, 1))
    syn = syndrome_of(g, [u, v])
    truth = truth_bits(g, syn)
    assert truth.sites == {u}
    view = boundary_view(g, g.planes[0], syn)
    for fn in PREDICTORS.values():
        pred = fn(view)
        assert pred.bits == truth
        assert classify(pred, truth).correct


def test_false_positive_cluster_pruned_by_2step():
    # Two parallel crossing edges whose endpoints are also same-side
    # neighbors: the minimum matching stays on one side of the plane,
    # 1-step over-matches both crossings, 2-step consumes the same-side
    # pairs first.
    g = future_graph(7)
    u1 = int(g.node_id(6, 2, 1))
    u2 = int(g.node_id(6, 2, 2))
    v1 = int(g.node_id(7, 2, 1))
    v2 = int(g.node_id(7, 2, 2))
    syn = syndrome_of(g, [u1, u2, v1, v2])
    truth = truth_bits(g, syn)
    assert truth.sites == set()
    view = boundary_view(g, g.planes[0], syn)

    one = classify(predict_1step(view), truth)
    assert not one.correct and one.false_positives == 2
    two = classify(predict_2step(view), truth)
    assert two.correct
    assert two.false_positives < one.false_positives
    assert classify(predict_3step(view), truth).correct


def test_weight2_chain_found_by_3step_only():
    g = future_graph(5)
    u = int(g.node_id(4, 2, 1))
    w = int(g.node_id(5, 2, 2))
    syn = syndrome_of(g, [u, w])
    truth = truth_bits(g, syn)
    assert truth.sites == {int(g.node_id(4, 2, 2))}
    view = boundary_view(g, g.planes[0], syn)

    one = classify(predict_1step(view), truth)
    assert not one.correct and one.false_negatives == 1
    assert not classify(predict_2step(view), truth).correct
    three = predict_3step(view)
    assert ("chain", u, w) in three.declared
    assert three.bits == truth
    assert classify(three, truth).correct


def test_sparse_agreement():
    # Two isolated crossings, one same-side pair near the plane, one
    # lone defect by the west boundary: every predictor reproduces the
    # oracle bits exactly.
    g = future_graph(9)
    a1, a2 = int(g.node_id(8, 1, 1)), int(g.node_id(9, 1, 1))
    b1, b2 = int(g.node_id(8, 6, 3)), int(g.node_id(9, 6, 3))
    c1, c2 = int(g.node_id(7, 3, 1)), int(g.node_id(7, 4, 1))
    lone = int(g.node_id(8, 0, 0))
    syn = syndrome_of(g, [a1, a2, b1, b2, c1, c2, lone])
    truth = truth_bits(g, syn)
    assert truth.sites == {a1, b1}
    view = boundary_view(g, g.planes[0], syn)
    for fn in PREDICTORS.values():
        assert fn(view).bits == truth


@pytest.mark.parametrize("d", range(3, 26, 2))
def test_phase_counts_constant(d):
    g = future_graph(d)
    view = boundary_view(g, g.planes[0], syndrome_of(g, []))
    assert predict_1step(view).phases_executed == PHASES_1STEP == 1
    assert predict_2step(view).phases_executed == PHASES_2STEP == 14
    assert predict_3step(view).phases_executed == PHASES_3STEP == 15


def test_deterministic_and_view_unmutated():
    g = future_graph(7)
    rng = np.random.default_rng(3)
    _, syn = g.sample_errors(0.02, rng)
    v1 = boundary_view(g, g.planes[0], syn)
    v2 = boundary_view(g, g.planes[0], Syndrome(syn.bits.copy()))
    bits_before = set(v1.bits)
    for fn in PREDICTORS.values():
        p1, p2 = fn(v1), fn(v2)
        assert p1.declared == p2.declared
        assert p1.bits == p2.bits
    assert v1.bits == bits_before
    assert v2.bits == bits_before


def test_classify_counts_and_plane_check():
    pred = Prediction(DependencyBits(0, frozenset({3, 5})), 1, [])
    cls = classify(pred, DependencyBits(0, frozenset({5, 9})))
    assert (cls.correct, cls.false_positives, cls.false_negatives) == (False, 1, 1)
    cls = classify(pred, DependencyBits(0, frozenset({3, 5})))
    assert (cls.correct, cls.false_positives, cls.false_negatives) == (True, 0, 0)
    with pytest.raises(ValueError):
        classify(pred, DependencyBits(1))


def test_evaluate_predictors_rows():
    rows = evaluate_predictors(d=5, p=0.004, shots=200, seed=1)
    assert [r["predictor"] for r in rows] == ["1step", "2step", "3step"]
    for r in rows:
        assert r["d"] == 5 and r["shots"] == 200
        assert 0.0 <= r["accuracy"] <= 1.0
        assert 0.0 <= r["fp_rate"] <= 1.0
        assert 0.0 <= r["fn_rate"] <= 1.0
    again = evaluate_predictors(d=5, p=0.004, shots=200, seed=1)
    assert again == rows

    fh = io.StringIO()
    write_accuracy_csv(rows, fh)
    lines = fh.getvalue().strip().splitlines()
    assert lines[0] == "d,p,predictor,shots,accuracy,fp_rate,fn_rate"
    assert len(lines) == 4


@pytest.mark.parametrize(
    "args,name",
    [
        ((13.5, 1e-3, 2), "d"),
        ((True, 1e-3, 2), "d"),
        ((13, 1e-3, 2.5), "shots"),
        ((13, 1e-3, 0), "shots"),
        ((13, 1e-3, True), "shots"),
        ((13, "x", 5), "p"),
        ((13, None, 5), "p"),
        ((13, True, 5), "p"),
        ((13, 1.5, 5), "p"),
    ],
)
def test_eval_args_are_checked_up_front(args, name):
    """A float distance or shot count and a non-number error rate fail the
    up-front check with the argument's name, not later as a TypeError."""
    with pytest.raises(ValueError, match=f"^{name} must"):
        check_eval_args(*args)
    with pytest.raises(ValueError, match=f"^{name} must"):
        evaluate_predictors(*args)


def test_eval_args_accept_numpy_numbers():
    check_eval_args(np.int64(13), np.float32(1e-3), np.int64(5))
    rows = evaluate_predictors(np.int64(3), np.float64(0.01), np.int64(2))
    assert [r["shots"] for r in rows] == [2, 2, 2]


def test_whole_floats_and_numpy_ints_evaluate_as_ints():
    """``d``, ``shots`` and ``seed`` given as whole floats or numpy integers
    give the rows of their ints, with ints in the rows."""
    want = evaluate_predictors(3, 0.01, 4, seed=2)
    assert check_eval_args(3.0, 0.01, 4.0) == (3, 0.01, 4)
    for d, shots, seed in ((3.0, 4.0, 2.0), (np.int64(3), np.int64(4), np.int64(2))):
        rows = evaluate_predictors(d, 0.01, shots, seed=seed)
        assert rows == want
        assert all(type(r["d"]) is int and type(r["shots"]) is int for r in rows)
    for bad in (1.5, -1, True):
        with pytest.raises(ValueError, match="^seed must"):
            evaluate_predictors(3, 0.01, 4, seed=bad)


def test_zero_noise_always_correct():
    rows = evaluate_predictors(d=5, p=0.0, shots=20, seed=0)
    assert all(r["accuracy"] == 1.0 for r in rows)
