"""Reference inner decoder: minimum-weight matching on window graphs.

Exact mode provably minimizes total weight: defects are first split into
independent clusters (two defects can only be worth pairing if their
separation beats the cost of sending both to the boundary).  Every
cluster is sized against the cap before any is enumerated, so a decode
that falls back to greedy wastes no enumeration.  Each cluster is then
solved by enumeration over pairings with boundary options, memoized on an
int bitmask of the cluster's remaining defects.  Greedy mode repeatedly
pairs the globally closest remaining defects, taking candidates from one
array sort.  Unit edge weights throughout, so weight equals path length.

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


def decode(g: DecodingGraph, s: Syndrome, mode: str = "exact") -> Matching:
    """Match all lit syndrome nodes, to each other or to the boundary.

    Exact mode sizes every independent defect cluster first and raises
    ExactCapExceeded, before enumerating any cluster, if one holds more
    than ``DEFAULT_CAP`` defects (callers fall back to greedy).  Greedy
    mode always succeeds but may exceed the minimum weight.
    """
    lit = s.lit()
    if lit.size == 0:
        return Matching([], 0)
    if mode == "greedy":
        pairs, weight = _greedy(g, lit)
    elif mode == "exact":
        pairs, weight = _exact(g, lit, DEFAULT_CAP)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    pairs = sorted(_pair_key(u, v) for u, v in pairs)
    return Matching(pairs, int(weight))


def _greedy(g: DecodingGraph, lit: np.ndarray):
    """Take candidates in increasing (weight, u, v) order, skipping any with
    a matched endpoint.

    Each lit node has one boundary candidate (v < 0) and one per higher lit
    partner, so the key is unique.  ``lit`` is sorted, so local indices, with
    -1 for the boundary, sort the candidates the same way.
    """
    n = lit.size
    iu, ju = np.triu_indices(n, 1)
    w = np.concatenate([g.boundary_distance(lit), g.distance(lit[iu], lit[ju])])
    a = np.concatenate([np.arange(n), iu])
    b = np.concatenate([np.full(n, -1), ju])
    order = np.lexsort((b, a, w)).tolist()
    w, a, b = w.tolist(), a.tolist(), b.tolist()
    nodes, nearest = lit.tolist(), g.nearest_boundary(lit).tolist()
    matched = [False] * n
    left = n
    pairs = []
    weight = 0
    for k in order:
        i, j = a[k], b[k]
        if matched[i] or (j >= 0 and matched[j]):
            continue
        pairs.append((nodes[i], nearest[i] if j < 0 else nodes[j]))
        weight += w[k]
        matched[i] = True
        left -= 1
        if j >= 0:
            matched[j] = True
            left -= 1
        if not left:
            break
    return pairs, weight


def _exact(g: DecodingGraph, lit: np.ndarray, cap: int):
    dmat = g.distance(lit[:, None], lit[None, :])
    bdist = g.boundary_distance(lit)
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

    for i, j in zip(*(k.tolist() for k in np.nonzero(np.triu(useful, 1)))):
        parent[find(i)] = find(j)
    clusters: dict[int, list[int]] = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)
    for members in clusters.values():
        if len(members) > cap:
            raise ExactCapExceeded(
                f"cluster of {len(members)} defects exceeds cap {cap}"
            )

    nodes = lit.tolist()
    nearest = g.nearest_boundary(lit).tolist()
    drows, brow = dmat.tolist(), bdist.tolist()
    pairs = []
    weight = 0
    for members in clusters.values():
        dist = [[drows[i][j] for j in members] for i in members]
        w, local = _enumerate_cluster(
            (1 << len(members)) - 1, dist, [brow[i] for i in members], {}
        )
        weight += w
        for i, j in local:
            u = members[i]
            pairs.append((nodes[u], nearest[u] if j < 0 else nodes[members[j]]))
    return pairs, weight


def _enumerate_cluster(mask: int, dist, bdist, memo: dict):
    """Minimum (weight, pairs) over pairings of the cluster-local indices
    set in ``mask``, each with a partner or the boundary (-1).

    The lowest index pairs first with the boundary, then with each higher
    index in turn; a later option wins only if strictly lighter.  ``dist``
    and ``bdist`` are lists, and ``memo`` caches solved masks.
    """
    if not mask:
        return 0, ()
    hit = memo.get(mask)
    if hit is not None:
        return hit
    low = mask & -mask
    u = low.bit_length() - 1
    rest = mask ^ low
    best_w, best_p = _enumerate_cluster(rest, dist, bdist, memo)
    best_w += bdist[u]
    best_v = -1
    row = dist[u]
    todo = rest
    while todo:
        bit = todo & -todo
        todo ^= bit
        v = bit.bit_length() - 1
        w, p = _enumerate_cluster(rest ^ bit, dist, bdist, memo)
        w += row[v]
        if w < best_w:
            best_w, best_p, best_v = w, p, v
    best = (best_w, ((u, best_v),) + best_p)
    memo[mask] = best
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
    """Dependency bits the matching toggles on one boundary plane."""
    sites: set[int] = set()
    for u, v in m.pairs:
        site = crossing_site(g, plane, u, v)
        if site is not None:
            sites ^= {site}
    return DependencyBits(plane.id, frozenset(sites))
