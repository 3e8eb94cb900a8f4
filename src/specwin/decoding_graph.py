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
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .windowing import Side

__all__ = [
    "DecodingGraph",
    "Syndrome",
    "BoundaryPlane",
    "DependencyBits",
    "build_window_graph",
]

AXES = ("t", "row", "col")

# Virtual boundary node ids.
WEST = -1
EAST = -2


@dataclass(frozen=True)
class BoundaryPlane:
    """Commit/buffer interface of one buffered face.

    The plane cuts its axis between coordinates ``cut`` and ``cut + 1``;
    ``node_layer`` is the commit-side coordinate, and ``nodes`` are the
    commit-side cross-section (where crossing chains register toggles).
    ``near_nodes`` spans two layers on each side of ``node_layer``.
    """

    id: int
    side: Side
    cut: int
    node_layer: int
    nodes: np.ndarray
    crossing_edges: np.ndarray
    near_nodes: np.ndarray


@dataclass
class Syndrome:
    """Defect bits over the window's non-virtual nodes."""

    bits: np.ndarray

    def lit(self) -> np.ndarray:
        return np.flatnonzero(self.bits)

    def copy(self) -> "Syndrome":
        return Syndrome(self.bits.copy())


@dataclass
class DependencyBits:
    """XOR toggle mask over one boundary plane's nodes."""

    plane: int
    toggles: dict[int, int] = field(default_factory=dict)

    def nonzero(self) -> dict[int, int]:
        return {n: b for n, b in self.toggles.items() if b}

    def __eq__(self, other) -> bool:
        if not isinstance(other, DependencyBits):
            return NotImplemented
        return self.plane == other.plane and self.nonzero() == other.nonzero()


class DecodingGraph:
    """Matching graph for one decoding window."""

    def __init__(self, d: int, commit_rounds: int, buffer_spec):
        if d < 3 or d % 2 == 0:
            raise ValueError(f"d must be odd and >= 3, got {d}")
        if commit_rounds < 1:
            raise ValueError(f"commit_rounds must be >= 1, got {commit_rounds}")
        self.d = d
        self.commit_rounds = commit_rounds
        self.sides = [Side.from_pair(b) for b in buffer_spec]
        if len(set(self.sides)) < len(self.sides):
            raise ValueError(f"duplicate buffer face in {list(buffer_spec)!r}")

        rows, cols = d - 1, (d + 1) // 2
        lo = {"t": 0, "row": 0, "col": 0}
        hi = {"t": commit_rounds, "row": rows, "col": cols}
        depth = {"t": d, "row": rows, "col": cols}
        for side in self.sides:
            if side.direction > 0:
                hi[side.axis] += depth[side.axis]
            else:
                lo[side.axis] -= depth[side.axis]
        self.lo, self.hi = lo, hi
        self.extent = {a: hi[a] - lo[a] for a in AXES}
        self.node_count = self.extent["t"] * self.extent["row"] * self.extent["col"]

        self._build_edges()
        self._build_planes()
        self._incidence = None

    # -- geometry ---------------------------------------------------------

    def node_id(self, t, r, c):
        """Flat node index from (round, row, col) coordinates."""
        nt = np.asarray(t) - self.lo["t"]
        nr = np.asarray(r) - self.lo["row"]
        nc = np.asarray(c) - self.lo["col"]
        return (nt * self.extent["row"] + nr) * self.extent["col"] + nc

    def node_coords(self, ids):
        ids = np.asarray(ids)
        nc = ids % self.extent["col"]
        rest = ids // self.extent["col"]
        nr = rest % self.extent["row"]
        nt = rest // self.extent["row"]
        return (
            nt + self.lo["t"],
            nr + self.lo["row"],
            nc + self.lo["col"],
        )

    def _build_edges(self):
        lo, hi = self.lo, self.hi
        ts = np.arange(lo["t"], hi["t"])
        rs = np.arange(lo["row"], hi["row"])
        cs = np.arange(lo["col"], hi["col"])

        def grid(tt, rr, cc):
            t, r, c = np.meshgrid(tt, rr, cc, indexing="ij")
            return self.node_id(t.ravel(), r.ravel(), c.ravel())

        us, vs = [], []
        # Spatial edges within each round.
        u = grid(ts, rs, cs[:-1])
        us.append(u)
        vs.append(u + 1)
        u = grid(ts, rs[:-1], cs)
        us.append(u)
        vs.append(u + self.extent["col"])
        # Temporal edges between consecutive rounds.
        u = grid(ts[:-1], rs, cs)
        us.append(u)
        vs.append(u + self.extent["row"] * self.extent["col"])
        # Boundary edges on the two open column sides.
        u = grid(ts, rs, [lo["col"]])
        us.append(u)
        vs.append(np.full(u.size, WEST))
        u = grid(ts, rs, [hi["col"] - 1])
        us.append(u)
        vs.append(np.full(u.size, EAST))

        self.edges_u = np.concatenate(us)
        self.edges_v = np.concatenate(vs)
        self.edge_count = self.edges_u.size

    def axis_coord(self, ids, axis):
        """Coordinate of nodes ``ids`` along ``axis`` ("t", "row" or "col")."""
        t, r, c = self.node_coords(ids)
        return {"t": t, "row": r, "col": c}[axis]

    def _build_planes(self):
        rows, cols = self.d - 1, (self.d + 1) // 2
        commit_hi = {"t": self.commit_rounds, "row": rows, "col": cols}
        self.planes: list[BoundaryPlane] = []
        all_ids = np.arange(self.node_count)
        for side in self.sides:
            axis = side.axis
            if side.direction > 0:
                cut = commit_hi[axis] - 1
                node_layer = cut
            else:
                cut = -1
                node_layer = 0
            coord_u = self.axis_coord(self.edges_u, axis)
            real_v = self.edges_v >= 0
            coord_v = np.where(
                real_v, self.axis_coord(np.maximum(self.edges_v, 0), axis), coord_u
            )
            crossing = np.flatnonzero(
                real_v
                & (np.minimum(coord_u, coord_v) == cut)
                & (np.maximum(coord_u, coord_v) == cut + 1)
            )
            coords = self.axis_coord(all_ids, axis)
            nodes = all_ids[coords == node_layer]
            near = all_ids[np.abs(coords - node_layer) <= 2]
            self.planes.append(
                BoundaryPlane(
                    id=len(self.planes),
                    side=side,
                    cut=cut,
                    node_layer=node_layer,
                    nodes=nodes,
                    crossing_edges=crossing,
                    near_nodes=near,
                )
            )

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
        counts = np.bincount(
            self.edges_u[edge_ids], minlength=self.node_count
        )
        v = self.edges_v[edge_ids]
        v = v[v >= 0]
        counts = counts + np.bincount(v, minlength=self.node_count)
        return Syndrome((counts % 2).astype(np.uint8))

    # -- distances (unit weights; the box is convex, so Manhattan is exact)

    def distance(self, u, v):
        tu, ru, cu = self.node_coords(u)
        tv, rv, cv = self.node_coords(v)
        return np.abs(tu - tv) + np.abs(ru - rv) + np.abs(cu - cv)

    def boundary_distance(self, u):
        """Steps to the nearest virtual boundary (west or east column)."""
        _, _, c = self.node_coords(u)
        return np.minimum(c - self.lo["col"] + 1, self.hi["col"] - c)

    def nearest_boundary(self, u):
        """WEST or EAST, whichever is closer (west on ties)."""
        _, _, c = self.node_coords(u)
        west = c - self.lo["col"] + 1
        east = self.hi["col"] - c
        return np.where(west <= east, WEST, EAST)

    # -- adjacency helpers --------------------------------------------------

    def incidence(self):
        """node -> list of (edge id, other endpoint), virtual included."""
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
