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

from specwin.decoding_graph import EAST, WEST, Syndrome, build_window_graph
from specwin.matching import ExactCapExceeded, decode, extract_dependency_bits


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
            for cc in range(c, g.lo["col"], -1):
                edges.append(index[_ekey(g, (t, r, cc - 1), (t, r, cc))])
            edges.append(index[(int(g.node_id(t, r, g.lo["col"])), WEST)])
        else:
            for cc in range(c, g.hi["col"] - 1):
                edges.append(index[_ekey(g, (t, r, cc), (t, r, cc + 1))])
            edges.append(index[(int(g.node_id(t, r, g.hi["col"] - 1)), EAST)])
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


def test_empty_syndrome():
    g = build_window_graph(5, 5, [("temporal", "future")])
    m = decode(g, syndrome_of(g, []), "exact")
    assert m.pairs == [] and m.weight == 0
    m = decode(g, syndrome_of(g, []), "greedy")
    assert m.pairs == [] and m.weight == 0


def test_two_adjacent_defects():
    g = build_window_graph(5, 5, [])
    u = int(g.node_id(2, 1, 1))
    v = int(g.node_id(2, 2, 1))
    for mode in ("exact", "greedy"):
        m = decode(g, syndrome_of(g, [u, v]), mode)
        assert m.weight == 1
        assert m.pairs == [(u, v)]


def test_single_defect_goes_to_boundary():
    g = build_window_graph(5, 5, [])
    u = int(g.node_id(0, 0, 0))
    m = decode(g, syndrome_of(g, [u]), "exact")
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
        m = decode(g, syn, "exact")
        assert m.weight == brute_force_weight(g, lit)
        mg = decode(g, syn, "greedy")
        assert mg.weight >= m.weight


@pytest.mark.parametrize("mode", ["exact", "greedy"])
def test_corrections_clear_syndrome(mode):
    g = build_window_graph(5, 5, [("temporal", "past"), ("spatial", "east")])
    rng = np.random.default_rng(17)
    for _ in range(60):
        _, syn = g.sample_errors(0.01, rng)
        if syn.lit().size > 8 and mode == "exact":
            continue
        m = decode(g, syn, mode)
        residual = g.syndrome_from_edges(matching_flips(g, m))
        assert np.array_equal(residual.bits, syn.bits)


def test_decode_deterministic():
    g = build_window_graph(5, 5, [("temporal", "future")])
    rng = np.random.default_rng(23)
    _, syn = g.sample_errors(0.02, rng)
    a = decode(g, syn, "exact")
    b = decode(g, syn.copy(), "exact")
    assert a.pairs == b.pairs and a.weight == b.weight
    ga = decode(g, syn, "greedy")
    gb = decode(g, syn.copy(), "greedy")
    assert ga.pairs == gb.pairs


def test_cap_exceeded():
    g = build_window_graph(9, 9, [])
    nodes = [int(g.node_id(t, r, 2)) for t, r in itertools.product(range(2), range(7))]
    with pytest.raises(ExactCapExceeded):
        decode(g, syndrome_of(g, nodes), "exact")
    m = decode(g, syndrome_of(g, nodes), "greedy")
    assert len(m.pairs) >= 7


def test_no_crossing_no_toggles():
    g = build_window_graph(5, 5, [("temporal", "future")])
    u = int(g.node_id(0, 1, 1))
    v = int(g.node_id(0, 2, 1))
    m = decode(g, syndrome_of(g, [u, v]), "exact")
    bits = extract_dependency_bits(m, g, g.planes[0])
    assert bits.sites == set()


def test_single_crossing_edge_toggle():
    g = build_window_graph(5, 5, [("temporal", "future")])
    plane = g.planes[0]
    u = int(g.node_id(4, 2, 1))
    v = int(g.node_id(5, 2, 1))
    m = decode(g, syndrome_of(g, [u, v]), "exact")
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
    m = decode(g, syndrome_of(g, [u, w]), "exact")
    assert m.weight == 2
    bits = extract_dependency_bits(m, g, plane)
    assert bits.sites == {int(g.node_id(4, 2, 2))}


def test_boundary_path_crossing_spatial_plane():
    g = build_window_graph(5, 5, [("spatial", "east")])
    plane = g.planes[0]
    u = int(g.node_id(2, 1, 4))  # buffer-side defect nearer the east edge
    m = decode(g, syndrome_of(g, [u]), "exact")
    assert m.pairs == [(u, EAST)]
    bits = extract_dependency_bits(m, g, plane)
    assert bits.sites == set()
    v = int(g.node_id(2, 1, 2))  # commit-side defect; east is equally near
    m = decode(g, syndrome_of(g, [v]), "exact")
    site = int(g.node_id(2, 1, plane.node_layer))
    if m.pairs == [(v, EAST)]:
        assert extract_dependency_bits(m, g, plane).sites == {site}
    else:
        assert extract_dependency_bits(m, g, plane).sites == set()


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
