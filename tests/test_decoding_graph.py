"""Window graph construction, sampling, and boundary-plane tests.

Distance checks use an independent breadth-first search over the edge
list; the mean lit-node check uses the closed-form parity expectation
sum((1 - (1-2p)^deg) / 2) over nodes.
"""
import collections

import numpy as np
import pytest

from specwin.decoding_graph import EAST, WEST, build_window_graph
from specwin.windowing import COL, T


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
    # Whole numbers only: a float distance or round count would fail later
    # as a TypeError deep in numpy.
    for bad in (2.5, 5.0, True, "5", 0):
        with pytest.raises(ValueError, match="commit_rounds"):
            build_window_graph(5, bad, [])
    for bad in (13.0, True, "5", 4, 1):
        with pytest.raises(ValueError, match="d must"):
            build_window_graph(bad, 5, [])
    assert build_window_graph(np.int64(5), np.int64(5), []).node_count == 5 * 4 * 3


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
    ids = np.sort(rng.choice(g.node_count, size=40, replace=False))
    table, bdist, nearest = g.match_tables(ids)
    for i, s in enumerate(ids.tolist()[:12]):
        dist = bfs_distances(g, s)
        assert [dist[t] for t in ids.tolist()] == table[i].tolist()
        assert min(dist[WEST], dist[EAST]) == bdist[i]
        assert nearest[i] == (WEST if dist[WEST] <= dist[EAST] else EAST)


def test_plane_geometry():
    rows, cols = 4, 3
    g = build_window_graph(5, 5, [("temporal", "future"), ("spatial", "east")])
    temporal, spatial = g.planes
    assert (temporal.node_layer, temporal.cut) == (4, 4)
    assert (spatial.node_layer, spatial.cut) == (cols - 1, cols - 1)
    past = build_window_graph(5, 5, [("temporal", "past"), ("spatial", "west")])
    assert all((p.node_layer, p.cut) == (0, -1) for p in past.planes)
    # One crossing edge per commit-layer node, cutting the axis at ``cut``.
    per_layer = {T: rows * (cols + cols), COL: (5 + 5) * rows}
    for gg in (g, past):
        real = gg.edges_v >= 0
        u, v = gg.edges_u[real], gg.edges_v[real]
        all_ids = np.arange(gg.node_count)
        for p in gg.planes:
            cu = gg.node_coords(u)[p.side.axis]
            cv = gg.node_coords(v)[p.side.axis]
            crossing = (np.minimum(cu, cv) == p.cut) & (np.maximum(cu, cv) == p.cut + 1)
            commit = np.where(cu == p.node_layer, u, v)[crossing]
            layer = all_ids[gg.node_coords(all_ids)[p.side.axis] == p.node_layer]
            assert commit.size == layer.size == per_layer[p.side.axis]
            assert sorted(commit.tolist()) == layer.tolist()


def test_node_id_rejects_coordinates_outside_the_box():
    g = build_window_graph(5, 3, [("temporal", "past"), ("spatial", "east")])
    first = list(g.lo)
    last = [h - 1 for h in g.hi]
    assert g.node_id(*first) == 0
    assert g.node_id(*last) == g.node_count - 1
    for k in range(3):
        for corner, step in ((first, -1), (last, 1)):
            past = list(corner)
            past[k] += step
            with pytest.raises(IndexError):
                g.node_id(*past)
            with pytest.raises(IndexError):
                g.node_id(*(np.int64(x) for x in past))
