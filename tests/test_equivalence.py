"""The predictor's and the matcher's fast paths against plain references.

Each reference is the straightforward form of the same algorithm: 2-step
candidate edges from the graph's edge list; greedy matching from a heap
of every candidate, and from one sort of every candidate; clusters from a
union over every useful pair; and cluster enumeration over every
partner, memoized on frozensets.  The fast paths, which only try the
pairs that can win, must reproduce their output exactly, tie-breaks
included.
"""
import heapq
import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specwin.decoding_graph import AXES, Syndrome, build_window_graph
from specwin.matching import DEFAULT_CAP, ExactCapExceeded, crossing_site, decode
from specwin.matching import _enumerate_cluster, _exact, _greedy, _greedy_candidates
from specwin.predictor import MAX_COUNTER_SUM, BoundaryView, _two_step, boundary_view
from test_golden import FACE_SETS


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
def sampled_window(draw):
    """A window graph and the lit nodes of one sampled syndrome, up to about
    120 of them: the size of the windows that fall back to greedy."""
    d = draw(st.sampled_from((9, 13)))
    g = graph(d, d, draw(st.integers(0, len(FACE_SETS) - 1)))
    p = draw(st.sampled_from((2e-3, 5e-3, 1e-2)))
    _, syn = g.sample_errors(p, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    lit = syn.lit()
    assume(0 < lit.size <= 130)
    return g, lit


big_window = st.one_of(lit_window(ds=(7, 9), max_lit=120), sampled_window())


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


@settings(max_examples=150, deadline=None)
@given(window=lit_window(max_lit=30), cap=st.integers(1, 12))
def test_exact_matches_cluster_by_cluster_reference(window, cap):
    """Same clusters, same pairs and weight, and a raise exactly when some
    cluster exceeds the cap."""
    g, lit = window
    try:
        want = exact_reference(g, lit, cap)
    except ExactCapExceeded:
        with pytest.raises(ExactCapExceeded):
            _exact(lit, *g.match_tables(lit), cap)
        return
    assert _exact(lit, *g.match_tables(lit), cap) == want


@settings(max_examples=60, deadline=None)
@given(window=big_window)
def test_exact_matches_reference_on_fallback_sized_windows(window):
    """At the decoder's own cap, on windows as large as the ones that fall
    back to greedy."""
    g, lit = window
    try:
        want = exact_reference(g, lit, 12)
    except ExactCapExceeded as exc:
        with pytest.raises(ExactCapExceeded, match=str(exc)):
            _exact(lit, *g.match_tables(lit), 12)
        return
    assert _exact(lit, *g.match_tables(lit), 12) == want


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
def test_node_id_int_path_matches_array_path(k):
    """Over the box and one step past each face: int coordinates give the
    array path's id as a Python int, and both paths raise outside."""
    g = graph(3, 2, k)
    spans = [range(g.lo[a] - 1, g.hi[a] + 1) for a in AXES]
    for coords in itertools.product(*spans):
        arrays = [np.array([x]) for x in coords]
        if all(g.lo[a] <= x < g.hi[a] for a, x in zip(AXES, coords)):
            got = g.node_id(*coords)
            assert type(got) is int
            assert got == g.node_id(*arrays)[0]
        else:
            with pytest.raises(IndexError):
                g.node_id(*coords)
            with pytest.raises(IndexError):
                g.node_id(*arrays)
