"""Reference inner decoder: minimum-weight matching on window graphs.

Both modes read the tables of one coordinate pass (pair distances,
boundary distances, nearest boundaries) and only try the pairs that they
could choose.

Exact mode provably minimizes total weight.  Two defects are useful
partners only if their separation is strictly smaller than the cost of
sending both to the boundary; pairing any other two never beats that.
Useful pairs split the defects into independent clusters, found in numpy
by min-label propagation.  Every cluster is sized against the cap before
any is solved, so a decode that falls back to greedy wastes no
enumeration.  A one-member cluster goes to its nearest boundary; the
rest are solved by enumeration over pairings with boundary options,
trying useful partners only, memoized on an int bitmask of the cluster's
remaining defects.

Greedy mode repeatedly pairs the globally closest remaining defects.  A
defect still unmatched at its own boundary candidate takes it, so greedy
sorts the boundary candidates plus only the pairs that come before both
endpoints' boundary candidates.  Unit edge weights throughout, so weight
equals path length.

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
    dist, bdist, nearest = g.match_tables(lit)
    w, a, b = _greedy_candidates(dist, bdist)
    order = np.lexsort((b, a, w)).tolist()
    w, a, b = w.tolist(), a.tolist(), b.tolist()
    nodes, nearest = lit.tolist(), nearest.tolist()
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


def _greedy_candidates(dist: np.ndarray, bdist: np.ndarray):
    """Greedy's candidates as (weight, i, j) arrays: every node's boundary
    candidate (j = -1), then the pairs that can ever be taken.

    A node still unmatched at its own boundary candidate (b_i, i, -1) takes
    it, so a pair (w, i, j), i < j, is taken only if it sorts before both
    endpoints' boundary candidates: w < b_i and w <= b_j.
    """
    n = bdist.size
    iu, ju = np.nonzero((dist < bdist[:, None]) & (dist <= bdist[None, :]))
    upper = iu < ju
    iu, ju = iu[upper], ju[upper]
    return (
        np.concatenate([bdist, dist[iu, ju]]),
        np.concatenate([np.arange(n), iu]),
        np.concatenate([np.full(n, -1), ju]),
    )


def _clusters(cols: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each node's cluster label: the smallest node linked to it by a chain
    of useful pairs.  Node i's useful partners, itself included, are
    ``cols[starts[i]:starts[i + 1]]``.

    Min-label propagation with pointer jumping: each round takes the
    smallest label among a node's partners, then that label's own label,
    until nothing changes.
    """
    labels = np.minimum.reduceat(cols, starts)
    while True:
        new = np.minimum.reduceat(labels[cols], starts)
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def _exact(g: DecodingGraph, lit: np.ndarray, cap: int):
    """Cluster the defects, size every cluster against ``cap``, then solve
    each cluster in order of its smallest member."""
    dist, bdist, nearest = g.match_tables(lit)
    # Pairing u with v can only beat boundary-matching both when their
    # separation is strictly smaller; such pairs define the clusters.  The
    # diagonal is useful too, so every node's partners form one nonempty
    # run of the row-major flat indices.
    n = lit.size
    flat = np.flatnonzero(dist < (bdist[:, None] + bdist[None, :]))
    cols = flat % n
    starts = np.searchsorted(flat, np.arange(0, n * n, n))
    labels = _clusters(cols, starts)
    sizes = np.bincount(labels)
    big = np.flatnonzero(sizes > cap)
    if big.size:
        raise ExactCapExceeded(
            f"cluster of {sizes[big[0]]} defects exceeds cap {cap}"
        )

    # Members grouped by cluster, clusters by smallest member, members
    # ascending.  ``local`` is each node's index within its cluster, and
    # ``adj`` its useful partners as a bitmask of those indices.
    order = np.argsort(labels, kind="stable")
    counts = sizes[sizes > 0]
    ends = np.cumsum(counts)
    local = np.empty_like(order)
    local[order] = np.arange(order.size) - np.repeat(ends - counts, counts)
    adj = np.bitwise_or.reduceat(np.left_shift(1, local)[cols], starts).tolist()

    nodes, nearest = lit.tolist(), nearest.tolist()
    drows, brow, order = dist.tolist(), bdist.tolist(), order.tolist()
    pairs = []
    weight = 0
    lo = 0
    for hi in ends.tolist():
        members = order[lo:hi]
        lo = hi
        if len(members) == 1:
            u = members[0]
            pairs.append((nodes[u], nearest[u]))
            weight += brow[u]
            continue
        w, found = _enumerate_cluster(
            (1 << len(members)) - 1,
            [[drows[i][j] for j in members] for i in members],
            [brow[i] for i in members],
            [adj[i] for i in members],
            {},
        )
        weight += w
        for i, j in found:
            u = members[i]
            pairs.append((nodes[u], nearest[u] if j < 0 else nodes[members[j]]))
    return pairs, weight


def _enumerate_cluster(mask: int, dist, bdist, adj, memo: dict):
    """Minimum (weight, pairs) over pairings of the cluster-local indices
    set in ``mask``, each with a partner or the boundary (-1).

    The lowest index pairs first with the boundary, then with each higher
    useful partner in turn (bitmask ``adj[u]``); a later option wins only
    if strictly lighter.  A partner v with d(u,v) >= b(u) + b(v) is never
    tried: its option weighs at least b(u) + b(v) + f(rest - v) >=
    b(u) + f(rest), the boundary option.  ``dist``, ``bdist`` and ``adj``
    are lists, and ``memo`` caches solved masks.
    """
    if not mask:
        return 0, ()
    hit = memo.get(mask)
    if hit is not None:
        return hit
    low = mask & -mask
    u = low.bit_length() - 1
    rest = mask ^ low
    best_w, best_p = _enumerate_cluster(rest, dist, bdist, adj, memo)
    best_w += bdist[u]
    best_v = -1
    row = dist[u]
    todo = rest & adj[u]
    while todo:
        bit = todo & -todo
        todo ^= bit
        v = bit.bit_length() - 1
        w, p = _enumerate_cluster(rest ^ bit, dist, bdist, adj, memo)
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
        if plane.side.axis != "col":
            return None
        t, r, c = g.node_coords(u)
        lo, hi = (g.lo["col"] - 1, c) if v == WEST else (c, g.hi["col"])
        if lo <= plane.cut < hi:
            return g.node_id(t, r, plane.node_layer)
        return None
    a, b = min(u, v), max(u, v)
    ta, ra, ca = g.node_coords(a)
    tb, rb, cb = g.node_coords(b)
    axis = plane.side.axis
    if axis == "t":
        if ta <= plane.cut < tb:
            return g.node_id(plane.node_layer, rb, cb)
    elif axis == "row":
        if min(ra, rb) <= plane.cut < max(ra, rb):
            return g.node_id(ta, plane.node_layer, ca)
    else:
        if min(ca, cb) <= plane.cut < max(ca, cb):
            return g.node_id(ta, rb, plane.node_layer)
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
