"""Reference decoder tests.

The minimum-weight oracle here is an independent brute force: pairing
enumeration by plain recursion over BFS distances computed from the edge
list, with no clustering or memoization.  The reference router
``path_edges`` walks a matched pair's canonical path edge by edge, for the
checks of the closed-form ``crossing_site``.
"""
import collections
import itertools

import numpy as np
import pytest

from specwin.decoding_graph import EAST, WEST, DecodingGraph, Syndrome, build_window_graph
from specwin.matching import DEFAULT_CAP, Matching, _greedy
from specwin import matching
from specwin.matching import decode, dependency_bits, extract_dependency_bits
from specwin.windowing import COL


# -- reference router: the canonical path of a matched pair, edge by edge --


def path_edges(g, u: int, v: int) -> list[int]:
    """Edge ids of the canonical path between u and v (or to a boundary).

    v may be WEST or EAST.  The route from the lower-id endpoint walks
    rows, then columns, then rounds; boundary routes walk columns only.
    """
    index = _edge_index(g)
    if v < 0:
        t, r, c = (int(x) for x in g.node_coords(u))
        edges = []
        if v == WEST:
            for cc in range(c, g.lo[COL], -1):
                edges.append(index[_ekey(g, (t, r, cc - 1), (t, r, cc))])
            edges.append(index[(int(g.node_id(t, r, g.lo[COL])), WEST)])
        else:
            for cc in range(c, g.hi[COL] - 1):
                edges.append(index[_ekey(g, (t, r, cc), (t, r, cc + 1))])
            edges.append(index[(int(g.node_id(t, r, g.hi[COL] - 1)), EAST)])
        return edges
    a, b = min(u, v), max(u, v)
    ta, ra, ca = (int(x) for x in g.node_coords(a))
    tb, rb, cb = (int(x) for x in g.node_coords(b))
    edges = []
    step = 1 if rb >= ra else -1
    for r in range(ra, rb, step):
        edges.append(index[_ekey(g, (ta, r, ca), (ta, r + step, ca))])
    step = 1 if cb >= ca else -1
    for c in range(ca, cb, step):
        edges.append(index[_ekey(g, (ta, rb, c), (ta, rb, c + step))])
    for t in range(ta, tb):
        edges.append(index[_ekey(g, (t, rb, cb), (t + 1, rb, cb))])
    return edges


def _ekey(g, coord_a, coord_b):
    ia = int(g.node_id(*coord_a))
    ib = int(g.node_id(*coord_b))
    return (min(ia, ib), max(ia, ib))


def _edge_index(g) -> dict:
    """Edge id by endpoint pair: (low, high) for real edges, (u, boundary)."""
    index = {}
    for e in range(g.edge_count):
        u = int(g.edges_u[e])
        v = int(g.edges_v[e])
        index[(min(u, v), max(u, v)) if v >= 0 else (u, v)] = e
    return index


def bfs_all(g):
    adj = collections.defaultdict(list)
    for u, v in zip(g.edges_u, g.edges_v):
        adj[int(u)].append(int(v))
        if v >= 0:
            adj[int(v)].append(int(u))
    def from_source(s):
        dist = {s: 0}
        q = collections.deque([s])
        while q:
            x = q.popleft()
            if x < 0:
                continue
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    q.append(y)
        return dist
    return from_source


def brute_force_weight(g, lit):
    """Minimum pairing weight by unmemoized recursion over BFS distances."""
    source_dist = bfs_all(g)
    dist = {u: source_dist(u) for u in lit}

    def rec(remaining):
        if not remaining:
            return 0
        u, rest = remaining[0], remaining[1:]
        best = min(dist[u][WEST], dist[u][EAST]) + rec(rest)
        for i, v in enumerate(rest):
            cand = dist[u][v] + rec(rest[:i] + rest[i + 1 :])
            best = min(best, cand)
        return best

    return rec(tuple(int(u) for u in lit))


def syndrome_of(g, nodes):
    bits = np.zeros(g.node_count, dtype=np.uint8)
    for n in nodes:
        bits[n] ^= 1
    return Syndrome(bits)


def matching_flips(g, m):
    acc = set()
    for u, v in m.pairs:
        acc ^= set(path_edges(g, u, v))
    return sorted(acc)


def greedy(g, syn):
    """The greedy solver alone, on the graph's tables; pairs sorted as
    decode sorts them."""
    lit = syn.lit()
    pairs, weight = _greedy(lit, *g.match_tables(lit))
    return Matching(sorted(pairs), weight)


# decode matches exactly while no defect cluster exceeds DEFAULT_CAP.
SOLVERS = {"exact": decode, "greedy": greedy}


def test_empty_syndrome():
    g = build_window_graph(5, 5, [("temporal", "future")])
    m = decode(g, syndrome_of(g, []))
    assert m.pairs == [] and m.weight == 0


def test_two_adjacent_defects():
    g = build_window_graph(5, 5, [])
    u = int(g.node_id(2, 1, 1))
    v = int(g.node_id(2, 2, 1))
    syn = syndrome_of(g, [u, v])
    for m in (decode(g, syn), greedy(g, syn)):
        assert m.weight == 1
        assert m.pairs == [(u, v)]


def test_single_defect_goes_to_boundary():
    g = build_window_graph(5, 5, [])
    u = int(g.node_id(0, 0, 0))
    m = decode(g, syndrome_of(g, [u]))
    assert m.pairs == [(u, WEST)]
    assert m.weight == 1


@pytest.mark.parametrize("seed", range(6))
def test_exact_matches_brute_force(seed):
    g = build_window_graph(5, 5, [("temporal", "future")])
    rng = np.random.default_rng(seed)
    done = 0
    while done < 40:
        _, syn = g.sample_errors(0.012, rng)
        lit = syn.lit()
        if not 1 <= lit.size <= 8:
            continue
        done += 1
        m = decode(g, syn)
        assert m.weight == brute_force_weight(g, lit)
        mg = greedy(g, syn)
        assert mg.weight >= m.weight


@pytest.mark.parametrize("mode", list(SOLVERS))
def test_corrections_clear_syndrome(mode):
    g = build_window_graph(5, 5, [("temporal", "past"), ("spatial", "east")])
    rng = np.random.default_rng(17)
    for _ in range(60):
        _, syn = g.sample_errors(0.01, rng)
        if syn.lit().size > 8 and mode == "exact":
            continue
        m = SOLVERS[mode](g, syn)
        residual = g.syndrome_from_edges(matching_flips(g, m))
        assert np.array_equal(residual.bits, syn.bits)


def test_decode_deterministic():
    g = build_window_graph(5, 5, [("temporal", "future")])
    rng = np.random.default_rng(23)
    _, syn = g.sample_errors(0.02, rng)
    a = decode(g, syn)
    b = decode(g, Syndrome(syn.bits.copy()))
    assert a.pairs == b.pairs and a.weight == b.weight
    ga = greedy(g, syn)
    gb = greedy(g, Syndrome(syn.bits.copy()))
    assert ga.pairs == gb.pairs


def cap_window():
    """A d=9 window whose 14 defects form one cluster, over the cap."""
    g = build_window_graph(9, 9, [])
    nodes = [int(g.node_id(t, r, 2)) for t, r in itertools.product(range(2), range(7))]
    return g, nodes


def test_cap_exceeded():
    """The cap window's one cluster is over the cap, so decode matches it
    greedily."""
    g, nodes = cap_window()
    syn = syndrome_of(g, nodes)
    dist, bdist, _ = g.match_tables(syn.lit())
    assert matching._useful_clusters(dist, bdist).sizes.max() == len(nodes) > DEFAULT_CAP
    m = decode(g, syn)
    assert m == greedy(g, syn)
    assert len(m.pairs) >= 7


def test_decode_falls_back_inside_matching_on_one_table_pass(monkeypatch):
    """Over the cap, decode returns greedy's matching; at the cap, exact's.
    Either way it builds the tables once."""
    g, nodes = cap_window()
    tables = DecodingGraph.match_tables
    calls = []

    def counting(self, ids):
        calls.append(len(ids))
        return tables(self, ids)

    monkeypatch.setattr(DecodingGraph, "match_tables", counting)
    over = syndrome_of(g, nodes)
    lit = over.lit()
    pairs, weight = _greedy(lit, *tables(g, lit))
    m = decode(g, over)
    assert calls == [len(nodes)]
    assert m.pairs == sorted(pairs) and m.weight == weight

    at_cap = syndrome_of(g, nodes[:DEFAULT_CAP])
    m = decode(g, at_cap)
    assert calls == [len(nodes), DEFAULT_CAP]
    assert m.weight == brute_force_weight(g, at_cap.lit())


def test_no_crossing_no_toggles():
    g = build_window_graph(5, 5, [("temporal", "future")])
    u = int(g.node_id(0, 1, 1))
    v = int(g.node_id(0, 2, 1))
    m = decode(g, syndrome_of(g, [u, v]))
    bits = extract_dependency_bits(m, g, g.planes[0])
    assert bits.sites == set()


def test_single_crossing_edge_toggle():
    g = build_window_graph(5, 5, [("temporal", "future")])
    plane = g.planes[0]
    u = int(g.node_id(4, 2, 1))
    v = int(g.node_id(5, 2, 1))
    m = decode(g, syndrome_of(g, [u, v]))
    assert m.weight == 1
    bits = extract_dependency_bits(m, g, plane)
    assert bits.sites == {u}


def test_weight2_crossing_chain_toggle():
    # Spatial error in the last commit round plus a crossing measurement
    # error: the canonical route walks the column first, so the toggle
    # registers under the buffer-side endpoint's site.
    g = build_window_graph(5, 5, [("temporal", "future")])
    plane = g.planes[0]
    u = int(g.node_id(4, 2, 1))
    w = int(g.node_id(5, 2, 2))
    m = decode(g, syndrome_of(g, [u, w]))
    assert m.weight == 2
    bits = extract_dependency_bits(m, g, plane)
    assert bits.sites == {int(g.node_id(4, 2, 2))}


def test_boundary_path_crossing_spatial_plane():
    g = build_window_graph(5, 5, [("spatial", "east")])
    plane = g.planes[0]
    u = int(g.node_id(2, 1, 4))  # buffer-side defect nearer the east edge
    m = decode(g, syndrome_of(g, [u]))
    assert m.pairs == [(u, EAST)]
    bits = extract_dependency_bits(m, g, plane)
    assert bits.sites == set()
    v = int(g.node_id(2, 1, 2))  # commit-side defect; east is equally near
    m = decode(g, syndrome_of(g, [v]))
    site = int(g.node_id(2, 1, plane.node_layer))
    if m.pairs == [(v, EAST)]:
        assert extract_dependency_bits(m, g, plane).sites == {site}
    else:
        assert extract_dependency_bits(m, g, plane).sites == set()


def solved_pairs(monkeypatch, g, syn):
    """``dependency_bits(g, syn)``, checked against the whole-window
    decode, and the pairs it solved to get them."""
    m = decode(g, syn)
    want = [extract_dependency_bits(m, g, plane) for plane in g.planes]
    seen = []
    toggled = matching._toggled

    def spy(g, plane, pairs):
        seen.append(sorted(pairs))
        return toggled(g, plane, pairs)

    monkeypatch.setattr(matching, "_toggled", spy)
    bits = dependency_bits(g, syn)
    assert bits == want
    assert len(seen) == len(g.planes) and all(pairs == seen[0] for pairs in seen)
    return bits, seen[0]


def test_dependency_bits_skip_a_cluster_on_one_side_of_a_temporal_cut(monkeypatch):
    g = build_window_graph(7, 7, [("temporal", "future")])
    # Five rounds apart, farther than both pairs' boundaries: two clusters.
    inside = [int(g.node_id(1, 1, 1)), int(g.node_id(1, 2, 1))]
    u, v = int(g.node_id(6, 2, 1)), int(g.node_id(7, 2, 1))
    bits, pairs = solved_pairs(monkeypatch, g, syndrome_of(g, inside + [u, v]))
    assert pairs == [(u, v)]
    assert bits[0].sites == {u}


def test_dependency_bits_keep_a_singleton_whose_boundary_lies_across_a_plane(monkeypatch):
    g = build_window_graph(5, 5, [("spatial", "west"), ("spatial", "east")])
    east = g.planes[1]
    # Commit-side defect in the last commit column: the east boundary is
    # nearer, and the walk to it crosses the east plane only.
    u = int(g.node_id(2, 1, 2))
    far = int(g.node_id(4, 3, -2))  # in the west buffer, nearer the west edge
    bits, pairs = solved_pairs(monkeypatch, g, syndrome_of(g, [u, far]))
    assert pairs == [(u, EAST)]
    assert bits[1].sites == {int(g.node_id(2, 1, east.node_layer))}
    assert bits[0].sites == set()


def test_path_edges_produce_endpoint_syndrome():
    g = build_window_graph(5, 5, [("temporal", "past"), ("spatial", "east")])
    rng = np.random.default_rng(9)
    ids = rng.choice(g.node_count, size=16, replace=False)
    for u, v in zip(ids[:8], ids[8:]):
        syn = g.syndrome_from_edges(path_edges(g, int(u), int(v)))
        assert set(syn.lit().tolist()) == ({int(u), int(v)} if u != v else set())
    for u in ids[:6]:
        for b in (WEST, EAST):
            syn = g.syndrome_from_edges(path_edges(g, int(u), b))
            assert set(syn.lit().tolist()) == {int(u)}
