"""Spans and counters around specwin's layer boundaries, from outside.

``Tracer.install`` rebinds each traced name where its caller looks it up
(module globals such as ``specwin.pipeline.decode``, class attributes such
as ``DecodingGraph.sample_errors``) and ``Tracer.restore`` puts the
originals back.  Wrappers record only while ``Tracer.active`` is set, so
the benchmark's own checks and hashing stay out of the numbers.

A span is ``(id, name, start, end, parent id, op index)``.  Hot boundaries,
called hundreds of times per simulation, only add to their counters; the
rest also keep their span in memory until ``write_spans``.
"""

from __future__ import annotations

import csv
import sys
from collections import defaultdict
from time import perf_counter

import numpy.random

import specwin.decoding_graph as decoding_graph
import specwin.matching as matching
import specwin.pipeline as pipeline
import specwin.predictor as predictor
import specwin.render as render
import specwin.windowing as windowing

SIMULATE = "pipeline.simulate"

# (owner, attribute, layer, keep).  The owner is a module or a class.  keep is
# True to keep spans, False to add only calls and self time (hot names), and
# None to count calls only (coordinate helpers, called ~10^5 times per op).
TARGETS = [
    (pipeline, "simulate", SIMULATE, True),
    (pipeline, "processor_heuristic", "pipeline.processor_heuristic", True),
    (pipeline, "validate", "program.validate", True),
    (pipeline, "aligned_phases", "windowing.aligned_phases", True),
    (windowing.WindowCell, "source_faces", "windowing.face_scans", False),
    (windowing.WindowCell, "sink_faces", "windowing.face_scans", False),
    (numpy.random, "default_rng", "pipeline.rng", False),
    (pipeline, "build_window_graph", "decoding_graph.build", True),
    (predictor, "build_window_graph", "decoding_graph.build", True),
    (decoding_graph.DecodingGraph, "sample_errors", "decoding_graph.sample", True),
    (decoding_graph.DecodingGraph, "incidence", "decoding_graph.incidence", False),
    (decoding_graph.DecodingGraph, "node_id", "decoding_graph.coord", None),
    (decoding_graph.DecodingGraph, "node_coords", "decoding_graph.coord", None),
    (pipeline, "boundary_view", "predictor.view", True),
    (predictor, "boundary_view", "predictor.view", True),
    (pipeline, "predict_3step", "predictor.predict", True),
    (predictor, "classify", "predictor.classify", False),
    (pipeline, "decode", "matching.decode", True),
    (predictor, "decode", "matching.decode", True),
    (pipeline, "extract_dependency_bits", "matching.depbits", True),
    (predictor, "extract_dependency_bits", "matching.depbits", True),
    (render, "write_trace_csv", "render.csv", True),
    (render, "trace_svg", "render.svg", True),
    (pipeline.SimResult, "to_json", "render.json", True),
]


def wrapped_names() -> list[tuple[object, str]]:
    """Every (owner, attribute) the tracer rebinds, PREDICTORS entries too."""
    names = [(owner, attr) for owner, attr, _, _ in TARGETS]
    names += [(predictor.PREDICTORS, key) for key in predictor.PREDICTORS]
    return names


def lookup(owner, attr):
    if isinstance(owner, dict):
        return owner[attr]
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _bind(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.stack: list[list] = []  # [span id, layer, child seconds]
        self.next_id = 0
        self.sim_depth = 0
        self.windows = 0  # windows of every traced simulate, internal ones too
        self.shapes: set = set()
        self.defects = 0
        self.exact_calls = 0
        self.exact_raised = 0
        self.exact_wasted_s = 0.0
        self._saved: list[tuple] = []

    # -- install / restore -----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr in wrapped_names():
            self._saved.append((owner, attr, lookup(owner, attr)))
        try:
            for owner, attr, layer, keep in TARGETS:
                fn = lookup(owner, attr)
                if keep is None:
                    wrapper = self._counter(fn, layer)
                elif layer == "pipeline.rng":
                    wrapper = self._rng(fn)
                else:
                    wrapper = self._timed(fn, layer, keep)
                _bind(owner, attr, wrapper)
            for key, fn in list(predictor.PREDICTORS.items()):
                predictor.PREDICTORS[key] = self._timed(fn, "predictor.predict", True)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            _bind(owner, attr, original)

    # -- wrappers --------------------------------------------------------------

    def _enter(self, layer: str) -> list:
        self.next_id += 1
        frame = [self.next_id, layer, 0.0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list, t0: float, t1: float, keep: bool) -> None:
        self.stack.pop()
        dur = t1 - t0
        layer = frame[1]
        self.calls[layer] += 1
        self.self_s[layer] += dur - frame[2]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        if keep:
            self.spans.append(
                (frame[0], layer, t0, t1, parent[0] if parent else 0, self.op)
            )

    def _timed(self, fn, layer: str, keep: bool):
        tracer = self
        is_sim = layer == SIMULATE
        is_build = layer == "decoding_graph.build"
        is_decode = layer == "matching.decode"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if is_build:
                tracer.shapes.add(_shape(*args, **kwargs))
            exact = is_decode and _decode_mode(*args, **kwargs) == "exact"
            if is_decode:
                tracer.defects += int(args[1].lit().size)
                tracer.exact_calls += exact
            tracer.sim_depth += is_sim
            frame = tracer._enter(layer)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except matching.ExactCapExceeded:
                t1 = perf_counter()
                if exact:
                    tracer.exact_raised += 1
                    tracer.exact_wasted_s += t1 - t0
                tracer._exit(frame, t0, t1, keep)
                raise
            except BaseException:
                tracer._exit(frame, t0, perf_counter(), keep)
                raise
            finally:
                tracer.sim_depth -= is_sim
            tracer._exit(frame, t0, perf_counter(), keep)
            if is_sim:
                tracer.windows += len(result.cell_log)
            return result

        return wrapper

    def _rng(self, fn):
        """``default_rng`` is counted as a pipeline layer only inside simulate."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not (tracer.active and tracer.sim_depth):
                return fn(*args, **kwargs)
            frame = tracer._enter("pipeline.rng")
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame, t0, perf_counter(), False)

        return wrapper

    def _counter(self, fn, layer: str):
        calls = self.calls
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                calls[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- output ----------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start", "end", "parent", "op"])
            out.writerows(self.spans)


def _shape(d, commit_rounds, buffer_spec):
    return (d, commit_rounds, tuple(tuple(f) for f in buffer_spec))


def _decode_mode(g, s, mode="exact", cap=None):
    return mode


def per_layer(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics from a traced phase of ``ops`` ops."""
    n = max(ops, 1)

    def calls(layer):
        return tracer.calls.get(layer, 0) / n

    def self_s(layer):
        return tracer.self_s.get(layer, 0.0) / n

    builds = tracer.calls.get("decoding_graph.build", 0)
    exact = tracer.exact_calls
    decodes = tracer.calls.get("matching.decode", 0)
    sim_self = tracer.self_s.get(SIMULATE, 0.0)
    return {
        "program.validate.calls": (calls("program.validate"), "count/op"),
        "program.validate.self_s": (self_s("program.validate"), "s/op"),
        "windowing.face_scans": (calls("windowing.face_scans"), "count/op"),
        "windowing.face_scans.self_s": (self_s("windowing.face_scans"), "s/op"),
        "pipeline.simulate.calls": (calls(SIMULATE), "count/op"),
        "pipeline.self_s": (self_s(SIMULATE), "s/op"),
        "pipeline.self_us_per_window": (
            1e6 * sim_self / tracer.windows if tracer.windows else 0.0, "us/window"),
        "pipeline.rng_constructions": (calls("pipeline.rng"), "count/op"),
        "pipeline.rng.self_s": (self_s("pipeline.rng"), "s/op"),
        "decoding_graph.build.calls": (calls("decoding_graph.build"), "count/op"),
        "decoding_graph.build.self_s": (self_s("decoding_graph.build"), "s/op"),
        "decoding_graph.build.distinct_shapes": (float(len(tracer.shapes)), "count"),
        "decoding_graph.build.reuse_frac": (
            1.0 - len(tracer.shapes) / builds if builds else 0.0, "frac"),
        "decoding_graph.sample.calls": (calls("decoding_graph.sample"), "count/op"),
        "decoding_graph.sample.self_s": (self_s("decoding_graph.sample"), "s/op"),
        "decoding_graph.incidence.self_s": (self_s("decoding_graph.incidence"), "s/op"),
        "decoding_graph.coord_calls": (calls("decoding_graph.coord"), "count/op"),
        "predictor.view.calls": (calls("predictor.view"), "count/op"),
        "predictor.view.self_s": (self_s("predictor.view"), "s/op"),
        "predictor.predict.calls": (calls("predictor.predict"), "count/op"),
        "predictor.predict.self_s": (self_s("predictor.predict"), "s/op"),
        "predictor.classify.self_s": (self_s("predictor.classify"), "s/op"),
        "matching.decode.calls": (calls("matching.decode"), "count/op"),
        "matching.decode.self_s": (self_s("matching.decode"), "s/op"),
        "matching.defects_per_decode": (
            tracer.defects / decodes if decodes else 0.0, "count"),
        "matching.fallback_frac": (tracer.exact_raised / exact if exact else 0.0, "frac"),
        "matching.exact_wasted_s": (tracer.exact_wasted_s / n, "s/op"),
        "matching.depbits.calls": (calls("matching.depbits"), "count/op"),
        "matching.depbits.self_s": (self_s("matching.depbits"), "s/op"),
        "render.csv.self_s": (self_s("render.csv"), "s/op"),
        "render.svg.self_s": (self_s("render.svg"), "s/op"),
        "render.json.self_s": (self_s("render.json"), "s/op"),
    }


def layer_table(tracer: Tracer, ops: int, out=sys.stdout) -> None:
    """Calls and self time of every traced layer, busiest first."""
    print(f"{'layer':<32} {'calls':>10} {'self_s':>10} {'self_ms/op':>11}", file=out)
    for layer in sorted(tracer.calls, key=lambda k: -tracer.self_s.get(k, 0.0)):
        s = tracer.self_s.get(layer, 0.0)
        print(f"{layer:<32} {tracer.calls[layer]:>10} {s:>10.3f} "
              f"{1e3 * s / max(ops, 1):>11.3f}", file=out)
