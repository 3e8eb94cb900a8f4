"""Phenomenological decoding graphs for window decoding.

A window graph covers a commit region of ``commit_rounds`` syndrome rounds
on one surface-code patch (one stabilizer type of the rotated code:
(d^2-1)/2 checks per round on a (d-1) x (d+1)/2 site grid), plus one
buffer region per requested face.  Temporal buffers extend the round axis
by d rounds; spatial buffers extend the site grid by a full neighboring
patch.  Edges flip independently with probability p: spatial and boundary
edges are data errors, temporal edges are measurement errors, and a node's
syndrome bit is the parity of its flipped incident edges.

Each buffered face carries a BoundaryPlane: the interface where matched
error chains crossing between commit and buffer register dependency-bit
toggles.  Virtual boundary nodes sit past the first and last columns of
the full box (the two open sides of the patch).

Node coordinates and box corners are both (round, row, col) tuples, so a
side's ``axis`` (T, ROW or COL) indexes either.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .windowing import COL, Side

__all__ = [
    "DecodingGraph",
    "Syndrome",
    "BoundaryPlane",
    "DependencyBits",
    "build_window_graph",
    "check_distance",
]

# Virtual boundary node ids.
WEST = -1
EAST = -2


def is_real(v) -> bool:
    """Whether ``v`` is a real number, numpy scalars included; a bool is not."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def check_whole(name: str, v, least: int) -> None:
    """Raise ValueError unless ``v`` is an int (numpy's too) >= ``least``."""
    if not isinstance(v, numbers.Integral) or isinstance(v, bool) or v < least:
        raise ValueError(f"{name} must be a whole number >= {least}, got {v!r}")


def check_distance(d: int) -> None:
    """Raise ValueError unless ``d`` is an odd code distance >= 3."""
    check_whole("d", d, 3)
    if d % 2 == 0:
        raise ValueError(f"d must be odd and >= 3, got {d}")


@dataclass(frozen=True)
class BoundaryPlane:
    """Commit/buffer interface of one buffered face.

    ``node_layer`` is the commit-side coordinate along ``side.axis``: its
    cross-section is where crossing chains register toggles, and the
    buffer's first layer is ``node_layer + side.direction``.  The plane
    cuts the axis between ``cut`` and ``cut + 1``.
    """

    id: int
    side: Side
    node_layer: int

    @property
    def cut(self) -> int:
        return min(self.node_layer, self.node_layer + self.side.direction)


@dataclass
class Syndrome:
    """Defect bits over the window's non-virtual nodes."""

    bits: np.ndarray

    def lit(self) -> np.ndarray:
        return np.flatnonzero(self.bits)


@dataclass(frozen=True)
class DependencyBits:
    """The nodes of one boundary plane whose dependency bit is toggled."""

    plane: int
    sites: frozenset[int] = frozenset()


class DecodingGraph:
    """Matching graph for one decoding window."""

    def __init__(self, d: int, commit_rounds: int, buffer_spec):
        check_distance(d)
        check_whole("commit_rounds", commit_rounds, 1)
        self.d = d
        self.sides = [Side.from_pair(b) for b in buffer_spec]
        if len(set(self.sides)) < len(self.sides):
            raise ValueError(f"duplicate buffer face in {list(buffer_spec)!r}")

        # Boxes are (round, row, col) tuples, indexed by a side's axis like a
        # node's coordinates.  The commit box spans [0, commit_hi[a]) on each
        # axis a, the full box [lo[a], hi[a]); a buffer is d rounds deep or
        # a whole patch wide.
        self.commit_hi = (commit_rounds, d - 1, (d + 1) // 2)
        depth = (d, *self.commit_hi[1:])
        lo, hi = [0, 0, 0], list(self.commit_hi)
        for side in self.sides:
            if side.direction > 0:
                hi[side.axis] += depth[side.axis]
            else:
                lo[side.axis] -= depth[side.axis]
        self.lo, self.hi = tuple(lo), tuple(hi)
        self.extent = et, er, ec = tuple(h - l for l, h in zip(lo, hi))
        self.node_count = et * er * ec

        self._build_edges()
        self.planes = [
            BoundaryPlane(i, side, self.commit_hi[side.axis] - 1 if side.direction > 0 else 0)
            for i, side in enumerate(self.sides)
        ]
        self._incidence = None

    # -- geometry ---------------------------------------------------------

    def node_id(self, t: int, r: int, c: int) -> int:
        """Flat node index from (round, row, col) coordinates.

        Raises IndexError if any coordinate lies outside the box.
        """
        (lt, lr, lc), (et, er, ec) = self.lo, self.extent
        nt, nr, nc = t - lt, r - lr, c - lc
        if 0 <= nt < et and 0 <= nr < er and 0 <= nc < ec:
            return (nt * er + nr) * ec + nc
        raise IndexError(f"coordinates ({t}, {r}, {c}) outside the window box")

    def node_coords(self, ids):
        """(round, row, col) of node ``ids``: Python ints for an int id,
        arrays otherwise."""
        (lt, lr, lc), (_, er, ec) = self.lo, self.extent
        if isinstance(ids, int):
            rest, nc = divmod(ids, ec)
            nt, nr = divmod(rest, er)
            return nt + lt, nr + lr, nc + lc
        ids = np.asarray(ids)
        rest = ids // ec
        return rest // er + lt, rest % er + lr, ids % ec + lc

    def _build_edges(self):
        _, er, ec = self.extent
        ids = np.arange(self.node_count).reshape(self.extent)
        # Spatial edges within each round, temporal edges between consecutive
        # rounds, then boundary edges on the two open column sides.
        west = ids[:, :, 0].ravel()
        east = ids[:, :, -1].ravel()
        us = [ids[:, :, :-1].ravel(), ids[:, :-1, :].ravel(), ids[:-1].ravel(), west, east]
        steps = (1, ec, er * ec)
        vs = [u + step for u, step in zip(us, steps)]
        vs += [np.full(west.size, WEST), np.full(east.size, EAST)]
        self.edges_u = np.concatenate(us)
        self.edges_v = np.concatenate(vs)
        self.edge_count = self.edges_u.size

    # -- sampling ---------------------------------------------------------

    def sample_errors(self, p: float, rng) -> tuple[np.ndarray, Syndrome]:
        """Flip each edge independently with probability p.

        Returns the flip mask and the resulting syndrome.
        """
        if not 0 <= p <= 1:
            raise ValueError(f"p must be in [0, 1], got {p}")
        flips = rng.random(self.edge_count) < p
        return flips, self.syndrome_from_flips(flips)

    def syndrome_from_flips(self, flips: np.ndarray) -> Syndrome:
        idx = np.flatnonzero(flips)
        return self.syndrome_from_edges(idx)

    def syndrome_from_edges(self, edge_ids) -> Syndrome:
        """Syndrome produced by flipping exactly the given edges."""
        edge_ids = np.asarray(edge_ids, dtype=np.intp)
        v = self.edges_v[edge_ids]
        ends = np.concatenate([self.edges_u[edge_ids], v[v >= 0]])
        counts = np.bincount(ends, minlength=self.node_count)
        return Syndrome((counts & 1).astype(np.uint8))

    # -- distances (unit weights; the box is convex, so Manhattan is exact)

    def match_tables(self, ids: np.ndarray):
        """Matching costs of the nodes ``ids``, from one coordinate pass.

        Returns ``(dist, bdist, nearest)``: the len(ids) x len(ids) matrix
        of pair distances, each node's steps to the nearer virtual boundary
        (west or east column), and that boundary, WEST or EAST (west on
        ties).
        """
        # int32 halves the memory the n x n table passes through.
        t, r, c = self.node_coords(np.asarray(ids, dtype=np.int32))
        dist = np.abs(np.subtract.outer(t, t))
        dist += np.abs(np.subtract.outer(r, r))
        dist += np.abs(np.subtract.outer(c, c))
        west = c - self.lo[COL] + 1
        east = self.hi[COL] - c
        return dist, np.minimum(west, east), np.where(west <= east, WEST, EAST)

    # -- adjacency helpers --------------------------------------------------

    def incidence(self):
        """node -> list of (edge id, other endpoint), virtual included.

        specwin itself no longer calls this; ``specbench/tracing.py`` still
        wraps it.
        """
        if self._incidence is None:
            inc: list[list[tuple[int, int]]] = [[] for _ in range(self.node_count)]
            for e in range(self.edge_count):
                u = int(self.edges_u[e])
                v = int(self.edges_v[e])
                inc[u].append((e, v))
                if v >= 0:
                    inc[v].append((e, u))
            self._incidence = inc
        return self._incidence


def build_window_graph(d: int, commit_rounds: int, buffer_spec) -> DecodingGraph:
    """Build the matching graph for one window.

    ``buffer_spec`` lists (orientation, side) faces, each adding one
    d-deep buffer region and its boundary plane; at most one buffer per
    face.
    """
    return DecodingGraph(d, commit_rounds, buffer_spec)
