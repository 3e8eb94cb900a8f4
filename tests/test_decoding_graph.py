"""Window graph construction, sampling, and boundary-plane tests.

Distance checks use an independent breadth-first search over the edge
list; the mean lit-node check uses the closed-form parity expectation
sum((1 - (1-2p)^deg) / 2) over nodes.
"""
import collections

import numpy as np
import pytest

from specwin.decoding_graph import EAST, WEST, build_window_graph


def bfs_distances(g, source: int) -> dict[int, int]:
    """Edge-count distances from source, real nodes as intermediates only."""
    adj = collections.defaultdict(list)
    for u, v in zip(g.edges_u, g.edges_v):
        adj[int(u)].append(int(v))
        if v >= 0:
            adj[int(v)].append(int(u))
    dist = {source: 0}
    queue = collections.deque([source])
    while queue:
        x = queue.popleft()
        if x < 0:
            continue
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def degrees(g) -> np.ndarray:
    """Real edges incident on each node (virtual endpoints not counted)."""
    deg = np.bincount(g.edges_u, minlength=g.node_count)
    return deg + np.bincount(g.edges_v[g.edges_v >= 0], minlength=g.node_count)


@pytest.mark.parametrize("d", [3, 5, 7, 11])
def test_nodes_per_round(d):
    g = build_window_graph(d, d, [])
    assert g.node_count == d * (d * d - 1) // 2


def test_counting_examples():
    g = build_window_graph(3, 3, [("temporal", "future")])
    assert g.node_count == 24

    g = build_window_graph(5, 5, [("temporal", "future"), ("spatial", "east")])
    assert len(g.planes) == 2

    g = build_window_graph(5, 5, [])
    assert g.planes == []


def test_rejects_bad_buffers():
    with pytest.raises(ValueError):
        build_window_graph(5, 5, [("temporal", "future"), ("temporal", "future")])
    with pytest.raises(ValueError):
        build_window_graph(5, 5, [("temporal", "sideways")])


@pytest.mark.parametrize(
    "buffers",
    [
        [],
        [("temporal", "past"), ("temporal", "future")],
        [("temporal", "future"), ("spatial", "east"), ("spatial", "north")],
    ],
)
def test_degree_bound(buffers):
    g = build_window_graph(5, 5, buffers)
    assert degrees(g).max() <= 6


def test_zero_noise():
    g = build_window_graph(5, 5, [("temporal", "future")])
    flips, syn = g.sample_errors(0.0, np.random.default_rng(1))
    assert not flips.any()
    assert not syn.bits.any()


def test_single_edge_injection():
    g = build_window_graph(3, 3, [("temporal", "future")])
    rng = np.random.default_rng(7)
    for e in rng.choice(g.edge_count, size=40, replace=False):
        syn = g.syndrome_from_edges([e])
        expected = {int(g.edges_u[e])}
        if g.edges_v[e] >= 0:
            expected.add(int(g.edges_v[e]))
        assert set(syn.lit().tolist()) == expected


def test_parity_conservation():
    g = build_window_graph(5, 5, [("temporal", "past"), ("spatial", "west")])
    boundary = g.edges_v < 0
    rng = np.random.default_rng(11)
    for _ in range(50):
        flips = rng.random(g.edge_count) < 0.02
        syn = g.syndrome_from_flips(flips)
        assert (syn.bits.sum() + flips[boundary].sum()) % 2 == 0


def test_sampling_deterministic():
    g = build_window_graph(5, 5, [("temporal", "future")])
    f1, s1 = g.sample_errors(0.01, np.random.default_rng(42))
    f2, s2 = g.sample_errors(0.01, np.random.default_rng(42))
    assert np.array_equal(f1, f2)
    assert np.array_equal(s1.bits, s2.bits)


def test_mean_lit_count_matches_expectation():
    d, p, shots = 13, 1e-3, 10_000
    g = build_window_graph(d, d, [("temporal", "future")])
    deg = degrees(g)
    analytic = ((1.0 - (1.0 - 2.0 * p) ** deg) / 2.0).sum()
    rng = np.random.default_rng(2024)
    counts = np.empty(shots)
    for k in range(shots):
        _, syn = g.sample_errors(p, rng)
        counts[k] = syn.bits.sum()
    sem = counts.std(ddof=1) / np.sqrt(shots)
    assert abs(counts.mean() - analytic) < 3 * sem


def test_distances_match_bfs():
    g = build_window_graph(
        5, 5, [("temporal", "past"), ("temporal", "future"), ("spatial", "east")]
    )
    rng = np.random.default_rng(3)
    sources = rng.choice(g.node_count, size=12, replace=False)
    targets = rng.choice(g.node_count, size=40, replace=False)
    for s in sources:
        dist = bfs_distances(g, int(s))
        for t in targets:
            assert dist[int(t)] == g.distance(int(s), int(t))
        want_b = min(dist[WEST], dist[EAST])
        assert want_b == g.boundary_distance(int(s))
        near = WEST if dist[WEST] <= dist[EAST] else EAST
        assert near == g.nearest_boundary(int(s))


def test_plane_geometry():
    g = build_window_graph(5, 5, [("temporal", "future"), ("spatial", "east")])
    rows, cols = 4, 3
    temporal, spatial = g.planes
    # Temporal plane: one full cross-section, crossing edges one per site.
    per_layer = rows * (cols + cols)
    assert temporal.nodes.size == per_layer
    assert temporal.crossing_edges.size == per_layer
    t, _, _ = g.node_coords(temporal.nodes)
    assert (t == 4).all()
    # Spatial plane: col cut at the commit edge.
    _, _, c = g.node_coords(spatial.nodes)
    assert (c == cols - 1).all()
    for p in g.planes:
        assert set(p.nodes.tolist()) <= set(p.near_nodes.tolist())
        u = g.edges_u[p.crossing_edges]
        v = g.edges_v[p.crossing_edges]
        assert (v >= 0).all()
        cu = g.node_coords(u)[{"t": 0, "row": 1, "col": 2}[p.side.axis]]
        cv = g.node_coords(v)[{"t": 0, "row": 1, "col": 2}[p.side.axis]]
        assert (np.minimum(cu, cv) == p.cut).all()
        assert (np.maximum(cu, cv) == p.cut + 1).all()
