"""Reference inner decoder: minimum-weight matching on window graphs.

``dependency_bits`` is what specwin calls: the bits a matching toggles on
each boundary plane of a window.  ``decode`` is the whole-window matching
that specifies it.  Both read the tables of one coordinate pass (pair
distances, boundary distances, nearest boundaries) and share one solver,
which matches exactly and runs greedy on the same tables when a defect
cluster is too large to enumerate.  Both solvers only try the pairs that
they could choose.

Exact matching provably minimizes total weight.  Two defects are useful
partners only if their separation is strictly smaller than the cost of
sending both to the boundary; pairing any other two never beats that.
Useful pairs split the defects into independent clusters, found in numpy
by min-label propagation.  Every cluster is sized against the cap before
any is solved, so a decode that falls back to greedy wastes no
enumeration.  A one-member cluster goes to its nearest boundary; the
rest are solved by enumeration over pairings with boundary options,
trying useful partners only, memoized on an int bitmask of the cluster's
remaining defects.  ``dependency_bits`` solves only the clusters with
members on both sides of some plane, or with a boundary match that can
cross one; no other cluster's pairs toggle a bit.

Greedy matching repeatedly pairs the globally closest remaining defects.
A defect still unmatched at its own boundary candidate takes it, so
greedy sorts the boundary candidates plus only the pairs that come
before both endpoints' boundary candidates.  Those pairs are useful, so
greedy too matches each cluster on its own.  Unit edge weights
throughout, so weight equals path length.  Both emit each pair lower id
first (``lit`` is sorted), with the boundary (< 0) second.

Matched paths follow a canonical route (row moves, then column moves,
then temporal moves, starting from the lower-id endpoint), which fixes
where a crossing chain registers its dependency-bit toggle: at the plane
node carrying the crossing edge's commit-side endpoint.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .decoding_graph import (
    EAST,
    WEST,
    BoundaryPlane,
    DecodingGraph,
    DependencyBits,
    Syndrome,
)
from .windowing import COL, ROW, T

__all__ = [
    "Matching",
    "decode",
    "dependency_bits",
    "extract_dependency_bits",
    "crossing_site",
]

DEFAULT_CAP = 12


class ExactCapExceeded(ValueError):
    """Raised when exact matching would enumerate too many defects.

    ``decode`` falls back to greedy instead, so no specwin path raises it;
    ``specbench/tracing.py`` still catches it.
    """


@dataclass
class Matching:
    """Pairing of every lit node with a partner or a virtual boundary."""

    pairs: list[tuple[int, int]]
    weight: int


def decode(g: DecodingGraph, s: Syndrome) -> Matching:
    """Match all lit syndrome nodes, to each other or to the boundary.

    This whole-window matching specifies ``dependency_bits``, which solves
    only the clusters that can cross a plane.  The matching has minimum
    weight when every independent defect cluster holds at most
    ``DEFAULT_CAP`` defects.  Otherwise it is greedy's, which may exceed
    the minimum; both read the same tables.
    """
    lit = s.lit()
    if lit.size == 0:
        return Matching([], 0)
    pairs, weight = _solve(lit, *g.match_tables(lit))
    return Matching(sorted(pairs), weight)


def dependency_bits(g: DecodingGraph, s: Syndrome) -> list[DependencyBits]:
    """The dependency bits ``decode(g, s)`` toggles, one entry per plane of
    ``g.planes``.

    Only the clusters that can toggle some plane are solved; the rest of
    the matching crosses no plane.
    """
    lit = s.lit()
    pairs = []
    if lit.size and g.planes:
        tables = g.match_tables(lit)
        pairs, _ = _solve(lit, *tables, keep=partial(_can_toggle, g, lit, tables[2]))
    return [_toggled(g, plane, pairs) for plane in g.planes]


def _can_toggle(g: DecodingGraph, lit: np.ndarray, nearest: np.ndarray, labels, sizes):
    """Bool mask over cluster labels: the clusters whose matching can toggle
    a plane of ``g``.

    A pair toggles a plane only if its endpoints lie on both sides of the
    plane's cut, and a boundary match only on a col-axis plane, when its
    column walk crosses the cut.  The west boundary lies below every col
    cut and the east one above, so that walk crosses exactly when the node
    lies on the other side of the cut from its nearest boundary.
    """
    coords = g.node_coords(lit)
    east = nearest == EAST
    kept = np.zeros(sizes.size, dtype=bool)
    for plane in g.planes:
        above = coords[plane.side.axis] > plane.cut
        up = np.bincount(labels, weights=above, minlength=sizes.size)
        kept |= (up > 0) & (up < sizes)
        if plane.side.axis == COL:
            kept[labels[above != east]] = True
    return kept


def _solve(lit: np.ndarray, dist, bdist, nearest, keep=None):
    """``decode``'s (pairs, weight) over the clusters that ``keep`` selects.

    ``keep(labels, sizes)`` returns a bool mask over cluster labels; None
    keeps every cluster.  Exact matching runs when no cluster, kept or not,
    exceeds ``DEFAULT_CAP``, and greedy otherwise.  Neither lets one
    cluster's pairs depend on another's: greedy's pair candidates are
    useful pairs, and restricting it to the kept nodes (still sorted) keeps
    its tie-break order.  The tables are ``match_tables(lit)``'s.
    """
    clusters = _useful_clusters(dist, bdist)
    kept = None if keep is None else keep(clusters.labels, clusters.sizes)
    if clusters.sizes.max() > DEFAULT_CAP:
        if kept is not None:
            sub = np.flatnonzero(kept[clusters.labels])
            lit, dist, bdist, nearest = lit[sub], dist[np.ix_(sub, sub)], bdist[sub], nearest[sub]
        return _greedy(lit, dist, bdist, nearest)
    return _solve_clusters(lit, dist, bdist, nearest, clusters, kept)


def _greedy(lit: np.ndarray, dist, bdist, nearest):
    """Take candidates in increasing (weight, u, v) order, skipping any with
    a matched endpoint.

    Each lit node has one boundary candidate (v < 0) and one per higher lit
    partner, so the key is unique.  ``lit`` is sorted, so local indices, with
    -1 for the boundary, sort the candidates the same way.  The tables are
    ``match_tables(lit)``'s.
    """
    n = lit.size
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


class _Clusters(NamedTuple):
    """Useful-pair clusters of n defects.

    Node i's useful partners, itself included, are
    ``cols[starts[i]:starts[i + 1]]``.  ``labels[i]`` is the smallest
    member of node i's cluster, and ``sizes[k]`` the size of the cluster
    labelled k (0 if no cluster is).
    """

    cols: np.ndarray
    starts: np.ndarray
    labels: np.ndarray
    sizes: np.ndarray


def _useful_clusters(dist: np.ndarray, bdist: np.ndarray) -> _Clusters:
    """Cluster the defects by useful pairs.

    Pairing u with v can only beat boundary-matching both when their
    separation is strictly smaller.  The diagonal is useful too, so every
    node's partners form one nonempty run of the row-major flat indices.
    """
    n = bdist.size
    flat = np.flatnonzero(dist < (bdist[:, None] + bdist[None, :]))
    cols = flat % n
    starts = np.searchsorted(flat, np.arange(0, n * n, n))
    labels = _clusters(cols, starts)
    return _Clusters(cols, starts, labels, np.bincount(labels))


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


def _solve_clusters(lit: np.ndarray, dist, bdist, nearest, clusters: _Clusters, kept=None):
    """Minimum-weight (pairs, weight) of each cluster, or of each one that
    the bool label mask ``kept`` selects, in order of smallest member.
    Every cluster must be small enough to enumerate."""
    # Members grouped by cluster, clusters by smallest member, members
    # ascending.  ``local`` is each node's index within its cluster, and
    # ``adj`` its useful partners as a bitmask of those indices.
    labels, sizes = clusters.labels, clusters.sizes
    order = np.argsort(labels, kind="stable")
    present = np.flatnonzero(sizes)
    counts = sizes[present]
    ends = np.cumsum(counts)
    firsts = ends - counts
    local = np.empty_like(order)
    local[order] = np.arange(order.size) - np.repeat(firsts, counts)
    adj = np.bitwise_or.reduceat(np.left_shift(1, local)[clusters.cols], clusters.starts)
    if kept is not None:
        chosen = kept[present]
        firsts, ends = firsts[chosen], ends[chosen]

    nodes, nearest = lit.tolist(), nearest.tolist()
    brow, adj, order = bdist.tolist(), adj.tolist(), order.tolist()
    pairs = []
    weight = 0
    for lo, hi in zip(firsts.tolist(), ends.tolist()):
        members = order[lo:hi]
        if len(members) == 1:
            u = members[0]
            pairs.append((nodes[u], nearest[u]))
            weight += brow[u]
            continue
        w, found = _enumerate_cluster(
            (1 << len(members)) - 1,
            dist[np.ix_(members, members)].tolist(),
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
        if plane.side.axis != COL:
            return None
        t, r, c = g.node_coords(u)
        lo, hi = (g.lo[COL] - 1, c) if v == WEST else (c, g.hi[COL])
        if lo <= plane.cut < hi:
            return g.node_id(t, r, plane.node_layer)
        return None
    a, b = min(u, v), max(u, v)
    ta, ra, ca = g.node_coords(a)
    tb, rb, cb = g.node_coords(b)
    axis = plane.side.axis
    if axis == T:
        if ta <= plane.cut < tb:
            return g.node_id(plane.node_layer, rb, cb)
    elif axis == ROW:
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
    return _toggled(g, plane, m.pairs)


def _toggled(g: DecodingGraph, plane: BoundaryPlane, pairs) -> DependencyBits:
    """Dependency bits that the matched ``pairs`` toggle on ``plane``."""
    sites: set[int] = set()
    for u, v in pairs:
        site = crossing_site(g, plane, u, v)
        if site is not None:
            sites ^= {site}
    return DependencyBits(plane.id, frozenset(sites))
