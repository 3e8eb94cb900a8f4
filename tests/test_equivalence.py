"""The predictor's and the matcher's fast paths against plain references.

Each reference is the straightforward form of the same algorithm: 2-step
candidate edges from the graph's edge list; greedy matching from a heap
of every candidate, and from one sort of every candidate; clusters from a
union over every useful pair; and cluster enumeration over every
partner, memoized on frozensets.  The fast paths, which only try the
pairs that can win, must reproduce their output exactly, tie-breaks
included.  The engine's one-path projection of a dependency bit into its
sink is checked against the per-axis branches it replaced, and its
stochastic judge, which draws and scans corners only where the verdict
can change, against the eager judge that always does both.
"""
import heapq
import itertools
from dataclasses import replace
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specwin.decoding_graph import Syndrome, build_window_graph
from specwin.matching import DEFAULT_CAP, ExactCapExceeded, crossing_site, decode
from specwin.matching import dependency_bits, extract_dependency_bits
from specwin.matching import _enumerate_cluster, _greedy, _greedy_candidates
from specwin.pipeline import _SPEC, LatencyModel, SimConfig, _Engine, processor_heuristic
from specwin.predictor import MAX_COUNTER_SUM, BoundaryView, _two_step, boundary_view
from specwin.program import builtin_program
from specwin.windowing import COL, ROW, T, Face, Side
from test_golden import FACE_SETS, PROGRAMS


@lru_cache(maxsize=None)
def graph(d, rounds, k):
    return build_window_graph(d, rounds, FACE_SETS[k])


# -- references ----------------------------------------------------------------


def two_step_reference(v):
    """2-step resolution over candidate edges taken from the edge list, in
    edge-id order within each counter-sum bin."""
    g = v.g
    edges = {}
    for eid, (u, w) in enumerate(zip(g.edges_u.tolist(), g.edges_v.tolist())):
        if w >= 0 and u in v.bits and w in v.bits:
            edges[eid] = (min(u, w), max(u, w))
    counters = dict.fromkeys(v.bits, 1)
    for u, w in edges.values():
        counters[u] += 1
        counters[w] += 1
    bins = {}
    for eid, (u, w) in edges.items():
        bins.setdefault(counters[u] + counters[w], []).append(eid)
    declared, bits, toggles = [], set(v.bits), set()
    for total in range(2, MAX_COUNTER_SUM + 1):
        for eid in sorted(bins.get(total, [])):
            u, w = edges[eid]
            if counters[u] and counters[w]:
                counters[u] = counters[w] = 0
                bits -= {u, w}
                declared.append(("edge", u, w))
                site = crossing_site(g, v.plane, u, w)
                if site is not None:
                    toggles ^= {site}
    return declared, bits, toggles


def greedy_reference(g, lit):
    """Pop (weight, u, v) candidates off a heap of every candidate."""
    dmat, bdist, nearest = g.match_tables(lit)
    heap = []
    nodes, rows = lit.tolist(), dmat.tolist()
    for i, u in enumerate(nodes):
        heap.append((int(bdist[i]), u, int(nearest[i])))
        for j in range(i + 1, len(nodes)):
            heap.append((rows[i][j], u, nodes[j]))
    heapq.heapify(heap)
    matched, pairs, weight = set(), [], 0
    while heap and len(matched) < lit.size:
        w, u, v = heapq.heappop(heap)
        if u in matched or (v >= 0 and v in matched):
            continue
        pairs.append((u, v))
        weight += w
        matched.add(u)
        if v >= 0:
            matched.add(v)
    return pairs, weight


def full_greedy_reference(g, lit):
    """Walk one lexsort of every (weight, i, j) candidate, every pair
    included."""
    n = lit.size
    dmat, bdist, nearest = g.match_tables(lit)
    iu, ju = np.triu_indices(n, 1)
    w = np.concatenate([bdist, dmat[iu, ju]])
    a = np.concatenate([np.arange(n), iu])
    b = np.concatenate([np.full(n, -1), ju])
    order = np.lexsort((b, a, w)).tolist()
    w, a, b = w.tolist(), a.tolist(), b.tolist()
    nodes, nearest = lit.tolist(), nearest.tolist()
    matched = [False] * n
    pairs, weight = [], 0
    for k in order:
        i, j = a[k], b[k]
        if matched[i] or (j >= 0 and matched[j]):
            continue
        pairs.append((nodes[i], nearest[i] if j < 0 else nodes[j]))
        weight += w[k]
        matched[i] = True
        if j >= 0:
            matched[j] = True
    return pairs, weight


def enumerate_reference(remaining, dmat, bdist, memo):
    """Minimum (weight, pairs) over pairings of the ``remaining`` indices,
    memoized on frozensets."""
    if not remaining:
        return 0, ()
    hit = memo.get(remaining)
    if hit is not None:
        return hit
    u = min(remaining)
    rest = remaining - {u}
    w0, p0 = enumerate_reference(rest, dmat, bdist, memo)
    best = (int(bdist[u]) + w0, ((u, -1),) + p0)
    for v in sorted(rest):
        w1, p1 = enumerate_reference(rest - {v}, dmat, bdist, memo)
        w = int(dmat[u][v]) + w1
        if w < best[0]:
            best = (w, ((u, v),) + p1)
    memo[remaining] = best
    return best


def exact_reference(g, lit, cap):
    """Cluster by a union over every useful pair, then enumerate each
    cluster in turn, raising at the first one past the cap."""
    dmat, bdist, nearest = g.match_tables(lit)
    useful = dmat < (bdist[:, None] + bdist[None, :])
    n = lit.size
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if useful[i, j]:
                parent[find(i)] = find(j)
    clusters = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)
    pairs, weight = [], 0
    for members in clusters.values():
        if len(members) > cap:
            raise ExactCapExceeded(f"cluster of {len(members)} defects exceeds cap {cap}")
        w, local = enumerate_reference(frozenset(members), dmat, bdist, {})
        weight += w
        for i, j in local:
            pairs.append((int(lit[i]), int(nearest[i]) if j < 0 else int(lit[j])))
    return pairs, weight


def project_reference(f, src, dst, nid):
    """``_Engine._project`` written with one branch per axis of the face, on
    a node id of the source's window graph ``src.graph``."""
    t, r, c = src.graph.node_coords(nid)
    box = dst.graph.commit_hi
    side = f.side
    if side.axis == T:
        t = 0 if side.direction < 0 else box[T] - 1
    else:
        if not 0 <= t < src.graph.commit_hi[T]:
            return None
        t += src.t0 - dst.t0
        if not 0 <= t < box[T]:
            return None
        if side.axis == ROW:
            r = 0 if side.direction < 0 else box[ROW] - 1
        else:
            c = 0 if side.direction < 0 else box[COL] - 1
    if not (0 <= r < box[ROW] and 0 <= c < box[COL]):
        return None
    return (t, r, c)


class EagerJudgeEngine(_Engine):
    """The engine with the eager stochastic judge: every source face draws,
    and once any face is wrong each face's threshold is chosen from its
    corner faces before its draw is compared."""

    def _by_draw(self, cell):
        wrongs = []
        side, k = None, 0
        for f in cell.sources:
            k = k + 1 if f.side is side else 0
            side = f.side
            ids = (*cell.patch, cell.index, side)
            u = self._uniform(_SPEC, *ids, k) if k else self._uniform(_SPEC, *ids)
            thr = self.cfg.accuracy
            if self.wrong_faces and not self.wrong_faces.isdisjoint(
                self._adjacent_faces(cell, f)
            ):
                thr = self.cfg.accuracy_adjacent
            if u > thr:
                wrongs.append(f)
        return wrongs


# -- strategies ----------------------------------------------------------------


@st.composite
def lit_window(draw, ds=(3, 5, 7), k=None, max_lit=40):
    """A window graph and a sorted array of distinct lit node ids."""
    d = draw(st.sampled_from(ds))
    if k is None:
        k = draw(st.integers(0, len(FACE_SETS) - 1))
    rounds = draw(st.sampled_from((1, 2, d)))
    g = graph(d, rounds, k)
    nodes = draw(st.sets(st.integers(0, g.node_count - 1), min_size=1, max_size=max_lit))
    return g, np.array(sorted(nodes), dtype=np.intp)


@st.composite
def sampled_window(draw, k=None):
    """A window graph and the lit nodes of one sampled syndrome, up to about
    120 of them: the size of the windows that fall back to greedy."""
    d = draw(st.sampled_from((9, 13)))
    if k is None:
        k = draw(st.integers(0, len(FACE_SETS) - 1))
    g = graph(d, d, k)
    p = draw(st.sampled_from((2e-3, 5e-3, 1e-2)))
    _, syn = g.sample_errors(p, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    lit = syn.lit()
    assume(0 < lit.size <= 130)
    return g, lit


def big_windows(k=None):
    return st.one_of(lit_window(ds=(7, 9), k=k, max_lit=120), sampled_window(k))


big_window = big_windows()


@lru_cache(maxsize=None)
def sided_graph(d, rounds, sides):
    return build_window_graph(d, rounds, [s.pair for s in sides])


@st.composite
def projection(draw):
    """A sink face, its source and sink cells, and a node of the source's
    window: in its commit box or anywhere in its box, and on its plane
    layer or off it."""
    d = draw(st.sampled_from((3, 5)))
    side = draw(st.sampled_from(list(Side)))
    # The source owns the buffer past the mirror face; its other buffers
    # widen its box past its commit cross-section.
    others = draw(st.sets(st.sampled_from([s for s in Side if s is not side.mirror])))
    src_g = sided_graph(d, draw(st.integers(1, d)), (side.mirror, *sorted(others)))
    dst_g = sided_graph(d, draw(st.integers(1, d)), ())
    t0 = draw(st.integers(0, 2 * d))
    src = SimpleNamespace(graph=src_g, t0=t0, rounds=src_g.commit_hi[T])
    dst = SimpleNamespace(graph=dst_g, t0=t0 + draw(st.integers(-d - 1, d + 1)))
    lo = draw(st.sampled_from((src_g.lo, (0, 0, 0))))
    hi = src_g.hi if lo is src_g.lo else src_g.commit_hi
    coords = [draw(st.integers(a, b - 1)) for a, b in zip(lo, hi)]
    if draw(st.booleans()):
        plane = next(p for p in src_g.planes if p.side is side.mirror)
        coords[side.axis] = plane.node_layer
    return Face(side, 0), src, dst, src_g.node_id(*coords)


# -- tests ---------------------------------------------------------------------


@pytest.mark.parametrize("k", range(len(FACE_SETS)))
@pytest.mark.parametrize("d", (3, 5, 7))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_two_step_matches_edge_list_reference(d, k, data):
    g, lit = data.draw(lit_window(ds=(d,), k=k, max_lit=60))
    bits = np.zeros(g.node_count, dtype=np.uint8)
    bits[lit] = 1
    for plane in g.planes:
        views = (
            boundary_view(g, plane, Syndrome(bits)),
            BoundaryView(g, plane, frozenset(lit.tolist())),
        )
        for view in views:
            assert _two_step(view) == two_step_reference(view)


@settings(max_examples=200, deadline=None)
@given(window=lit_window())
def test_greedy_matches_heap_reference(window):
    g, lit = window
    assert _greedy(lit, *g.match_tables(lit)) == greedy_reference(g, lit)


@settings(max_examples=120, deadline=None)
@given(window=big_window)
def test_pruned_greedy_matches_full_candidate_greedy(window):
    g, lit = window
    assert _greedy(lit, *g.match_tables(lit)) == full_greedy_reference(g, lit)


@settings(max_examples=100, deadline=None)
@given(window=st.one_of(lit_window(), big_window))
def test_greedy_sorts_only_pairs_that_can_win(window):
    """Greedy's candidates are the boundary candidates plus exactly the
    pairs that sort before both endpoints' boundary candidates."""
    g, lit = window
    dmat, bdist, _ = g.match_tables(lit)
    w, a, b = (x.tolist() for x in _greedy_candidates(dmat, bdist))
    n = lit.size
    bd = bdist.tolist()
    assert list(zip(w, a, b))[:n] == [(bd[i], i, -1) for i in range(n)]
    want = {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (dmat[i, j], i, j) < (bd[i], i, -1) and (dmat[i, j], i, j) < (bd[j], j, -1)
    }
    assert sorted(zip(a[n:], b[n:])) == sorted(want)
    assert all(w[k] == dmat[a[k], b[k]] for k in range(n, len(w)))


@st.composite
def tied_costs(draw):
    """Symmetric small-integer pair costs and boundary costs, full of ties."""
    n = draw(st.integers(1, 12))
    cost = st.integers(0, 3)
    dist = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = draw(cost)
    return dist, draw(st.lists(cost, min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(costs=tied_costs())
def test_bitmask_enumeration_matches_frozenset_reference(costs):
    """Enumeration over useful partners only (the reference tries every
    partner)."""
    dist, bdist = costs
    n = len(bdist)
    adj = [
        sum(1 << v for v in range(n) if v != u and dist[u][v] < bdist[u] + bdist[v])
        for u in range(n)
    ]
    want = enumerate_reference(frozenset(range(n)), dist, bdist, {})
    assert _enumerate_cluster((1 << n) - 1, dist, bdist, adj, {}) == want


@settings(max_examples=60, deadline=None)
@given(window=st.one_of(lit_window(max_lit=30), big_window))
def test_decode_is_capped_exact_else_greedy(window):
    """One decode gives what a capped exact decode, and a greedy decode when
    that raised, gave as two separate calls."""
    g, lit = window
    try:
        pairs, weight = exact_reference(g, lit, DEFAULT_CAP)
    except ExactCapExceeded:
        pairs, weight = greedy_reference(g, lit)
    bits = np.zeros(g.node_count, dtype=np.uint8)
    bits[lit] = 1
    m = decode(g, Syndrome(bits))
    assert m.pairs == sorted(pairs) and m.weight == weight


@pytest.mark.parametrize("k", range(len(FACE_SETS)))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dependency_bits_match_whole_window_decode(k, data):
    """Solving only the clusters that can cross a plane toggles what the
    whole-window decode toggles, on every plane: on windows that match
    exactly and on windows big enough to fall back to greedy."""
    g, lit = data.draw(st.one_of(lit_window(k=k), big_windows(k)))
    bits = np.zeros(g.node_count, dtype=np.uint8)
    bits[lit] = 1
    s = Syndrome(bits)
    m = decode(g, s)
    assert dependency_bits(g, s) == [extract_dependency_bits(m, g, pl) for pl in g.planes]


@settings(max_examples=600, deadline=None)
@given(case=projection())
def test_project_matches_per_axis_reference(case):
    """On all six faces, any round offset between source and sink and cells
    1..d rounds high: the same site lands on the same sink node, and the
    same sites are dropped."""
    f, src, dst, nid = case
    site = src.graph.node_coords(nid)
    assert _Engine._project(f, src, dst, dst.graph.commit_hi, site) == project_reference(*case)


@pytest.mark.parametrize("k", range(len(FACE_SETS)))
def test_node_id_int_path_matches_array_path(k):
    """Over the box and one step past each face: int coordinates give numpy's
    row-major index of the box as a Python int, and raise outside."""
    g = graph(3, 2, k)
    spans = [range(lo - 1, hi + 1) for lo, hi in zip(g.lo, g.hi)]
    for coords in itertools.product(*spans):
        if all(lo <= x < hi for lo, x, hi in zip(g.lo, coords, g.hi)):
            got = g.node_id(*coords)
            assert type(got) is int
            assert got == np.ravel_multi_index(np.subtract(coords, g.lo), g.extent)
            assert g.node_coords(got) == coords
        else:
            with pytest.raises(IndexError):
                g.node_id(*coords)


# (accuracy, accuracy_adjacent): perfect, no corner band, the defaults, a wide
# band, perfect only away from wrong corners, and always wrong.
ACCURACY_PAIRS = ((1.0, 1.0), (0.9, 0.9), (0.9, 0.86), (0.5, 0.0), (1.0, 0.5), (0.0, 0.0))
# Draws snapped onto these values land exactly on every threshold above.
GRID_DRAWS = (0.0, 0.3, 0.5, 0.7, 0.86, 0.88, 0.9, 0.95, 1.0 - 2.0**-53)


def _grid_uniform(uniform):
    def draw(self, tag, *ids):
        return GRID_DRAWS[int(uniform(self, tag, *ids) * len(GRID_DRAWS))]

    return draw


@pytest.mark.parametrize("draws", ("keyed", "grid"))
@pytest.mark.parametrize("acc", ACCURACY_PAIRS, ids=str)
@pytest.mark.parametrize("name", PROGRAMS)
def test_judge_matches_eager_reference(name, acc, draws, monkeypatch):
    """Skipping the draws and corner scans that cannot change a verdict
    leaves every result field as the eager judge gives it, on keyed draws
    and on draws that sit exactly on the thresholds."""
    if draws == "grid":
        monkeypatch.setattr(_Engine, "_uniform", _grid_uniform(_Engine._uniform))
    prog = builtin_program(name, 3, **PROGRAMS[name])
    for strategy, recovery, latency in itertools.product(
        ("sliding", "parallel", "aligned"),
        ("optimistic", "adjacent", "pessimistic"),
        (LatencyModel.fixed(6), LatencyModel.linear(0.7)),
    ):
        cfg = SimConfig(
            strategy=strategy,
            speculation="stochastic",
            accuracy=acc[0],
            accuracy_adjacent=acc[1],
            recovery=recovery,
            latency=latency,
            seed=11,
        )
        want = EagerJudgeEngine(prog, cfg).run().to_json()
        assert _Engine(prog, cfg).run().to_json() == want, (strategy, recovery, latency)


def test_processor_probe_makes_no_speculation_draw(monkeypatch):
    """The probe runs at perfect accuracy, where no draw can mark a face
    wrong, so it draws only its conditional coins; the eager judge draws
    for every published face there."""
    uniform = _Engine._uniform
    tags = []

    def counted(self, tag, *ids):
        tags.append(tag)
        return uniform(self, tag, *ids)

    monkeypatch.setattr(_Engine, "_uniform", counted)
    for name in PROGRAMS:
        prog = builtin_program(name, 3, **PROGRAMS[name])
        cfg = SimConfig(strategy="parallel", latency=LatencyModel.fixed(6))
        processor_heuristic(prog, cfg)
        assert _SPEC not in tags, name
        tags.clear()
        probe = replace(cfg, speculation="stochastic", accuracy=1.0, accuracy_adjacent=1.0)
        EagerJudgeEngine(prog, probe).run()
        assert _SPEC in tags, name
        tags.clear()
