"""Reference inner decoder: minimum-weight matching on window graphs.

Exact mode provably minimizes total weight: defects are first split into
independent clusters (two defects can only be worth pairing if their
separation beats the cost of sending both to the boundary), then each
cluster is solved by memoized enumeration over pairings with boundary
options.  Greedy mode repeatedly pairs the globally closest remaining
defects.  Unit edge weights throughout, so weight equals path length.

Matched paths follow a canonical route (row moves, then column moves,
then temporal moves, starting from the lower-id endpoint), which fixes
where a crossing chain registers its dependency-bit toggle: at the plane
node carrying the crossing edge's commit-side endpoint.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoding_graph import (
    WEST,
    BoundaryPlane,
    DecodingGraph,
    DependencyBits,
    Syndrome,
)

__all__ = [
    "Matching",
    "ExactCapExceeded",
    "decode",
    "extract_dependency_bits",
    "crossing_site",
]

DEFAULT_CAP = 12


class ExactCapExceeded(ValueError):
    """Raised when an exact decode would enumerate too many defects."""


@dataclass
class Matching:
    """Pairing of every lit node with a partner or a virtual boundary."""

    pairs: list[tuple[int, int]]
    weight: int


def _pair_key(u: int, v: int) -> tuple[int, int]:
    if v >= 0 and v < u:
        return (v, u)
    return (u, v)


def decode(
    g: DecodingGraph, s: Syndrome, mode: str = "exact", cap: int = DEFAULT_CAP
) -> Matching:
    """Match all lit syndrome nodes, to each other or to the boundary.

    Exact mode enumerates pairings per independent defect cluster and
    raises ExactCapExceeded if a cluster holds more than ``cap`` defects
    (callers fall back to greedy).  Greedy mode always succeeds but may
    exceed the minimum weight.
    """
    lit = s.lit()
    if lit.size == 0:
        return Matching([], 0)
    if mode == "greedy":
        pairs, weight = _greedy(g, lit)
    elif mode == "exact":
        pairs, weight = _exact(g, lit, cap)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    pairs = sorted(_pair_key(u, v) for u, v in pairs)
    return Matching(pairs, int(weight))


def _greedy(g: DecodingGraph, lit: np.ndarray):
    import heapq

    dmat = g.distance(lit[:, None], lit[None, :])
    bdist = g.boundary_distance(lit)
    nearest = g.nearest_boundary(lit)
    heap = []
    nodes, rows = lit.tolist(), dmat.tolist()
    for i, u in enumerate(nodes):
        heap.append((int(bdist[i]), u, int(nearest[i])))
        for j in range(i + 1, len(nodes)):
            heap.append((rows[i][j], u, nodes[j]))
    heapq.heapify(heap)
    matched: set[int] = set()
    pairs = []
    weight = 0
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


def _exact(g: DecodingGraph, lit: np.ndarray, cap: int):
    dmat = g.distance(lit[:, None], lit[None, :])
    bdist = g.boundary_distance(lit)
    nearest = g.nearest_boundary(lit)
    # Pairing u with v can only beat boundary-matching both when their
    # separation is strictly smaller; such pairs define the clusters.
    useful = dmat < (bdist[:, None] + bdist[None, :])
    n = lit.size
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if useful[i, j]:
                parent[find(i)] = find(j)
    clusters: dict[int, list[int]] = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)

    pairs = []
    weight = 0
    for members in clusters.values():
        if len(members) > cap:
            raise ExactCapExceeded(
                f"cluster of {len(members)} defects exceeds cap {cap}"
            )
        w, local = _enumerate_cluster(frozenset(members), dmat, bdist, {})
        weight += w
        for i, j in local:
            if j < 0:
                pairs.append((int(lit[i]), int(nearest[i])))
            else:
                pairs.append((int(lit[i]), int(lit[j])))
    return pairs, weight


def _enumerate_cluster(remaining: frozenset, dmat, bdist, memo: dict):
    """Minimum (weight, pairs) over pairings of the ``remaining`` defect
    indices, each with a partner or the boundary (-1); ``memo`` caches
    solved subsets."""
    if not remaining:
        return 0, ()
    hit = memo.get(remaining)
    if hit is not None:
        return hit
    u = min(remaining)
    rest = remaining - {u}
    w0, p0 = _enumerate_cluster(rest, dmat, bdist, memo)
    best = (int(bdist[u]) + w0, ((u, -1),) + p0)
    for v in sorted(rest):
        w1, p1 = _enumerate_cluster(rest - {v}, dmat, bdist, memo)
        w = int(dmat[u, v]) + w1
        if w < best[0]:
            best = (w, ((u, v),) + p1)
    memo[remaining] = best
    return best


# ---------------------------------------------------------------------------
# Crossing registration on the canonical path


def crossing_site(g, plane: BoundaryPlane, u: int, v: int):
    """Plane node toggled by the canonical u-v path, or None.

    Closed form from the canonical route: rows vary at the low endpoint's
    (round, col), columns at (low round, high row), rounds at the high
    endpoint's site.
    """
    if v < 0:
        t, r, c = (int(x) for x in g.node_coords(u))
        if plane.side.axis != "col":
            return None
        lo, hi = (g.lo["col"] - 1, c) if v == WEST else (c, g.hi["col"])
        if lo <= plane.cut < hi:
            return int(g.node_id(t, r, plane.node_layer))
        return None
    a, b = min(u, v), max(u, v)
    ta, ra, ca = (int(x) for x in g.node_coords(a))
    tb, rb, cb = (int(x) for x in g.node_coords(b))
    axis = plane.side.axis
    if axis == "t":
        if ta <= plane.cut < tb:
            return int(g.node_id(plane.node_layer, rb, cb))
    elif axis == "row":
        if min(ra, rb) <= plane.cut < max(ra, rb):
            return int(g.node_id(ta, plane.node_layer, ca))
    else:
        if min(ca, cb) <= plane.cut < max(ca, cb):
            return int(g.node_id(ta, rb, plane.node_layer))
    return None


def extract_dependency_bits(
    m: Matching, g: DecodingGraph, plane: BoundaryPlane
) -> DependencyBits:
    """Toggle mask the matching induces on one boundary plane."""
    toggles: dict[int, int] = {}
    for u, v in m.pairs:
        site = crossing_site(g, plane, u, v)
        if site is not None:
            toggles[site] = toggles.get(site, 0) ^ 1
    return DependencyBits(plane.id, toggles)
