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
        self.sides = [Side.from_pair(b) for b in buffer_spec]
        if len(set(self.sides)) < len(self.sides):
            raise ValueError(f"duplicate buffer face in {list(buffer_spec)!r}")

        # The commit box spans [0, commit_hi[axis]) on each axis.
        self.commit_hi = {"t": commit_rounds, "row": d - 1, "col": (d + 1) // 2}
        lo = dict.fromkeys(AXES, 0)
        hi = dict(self.commit_hi)
        depth = {**self.commit_hi, "t": d}
        for side in self.sides:
            if side.direction > 0:
                hi[side.axis] += depth[side.axis]
            else:
                lo[side.axis] -= depth[side.axis]
        self.lo, self.hi = lo, hi
        self.extent = {a: hi[a] - lo[a] for a in AXES}
        self.node_count = self.extent["t"] * self.extent["row"] * self.extent["col"]

        self._build_edges()
        self.planes = [
            BoundaryPlane(i, side, self.commit_hi[side.axis] - 1 if side.direction > 0 else 0)
            for i, side in enumerate(self.sides)
        ]
        self._incidence = None

    # -- geometry ---------------------------------------------------------

    def node_id(self, t, r, c):
        """Flat node index from (round, row, col) coordinates.

        Raises IndexError if any coordinate lies outside the box.
        """
        ext = self.extent
        nt = np.asarray(t) - self.lo["t"]
        nr = np.asarray(r) - self.lo["row"]
        nc = np.asarray(c) - self.lo["col"]
        ids = (nt * ext["row"] + nr) * ext["col"] + nc
        if isinstance(ids, np.ndarray):
            inside = ((nt >= 0) & (nt < ext["t"]) & (nr >= 0) & (nr < ext["row"])
                      & (nc >= 0) & (nc < ext["col"])).all()
        else:
            inside = 0 <= nt < ext["t"] and 0 <= nr < ext["row"] and 0 <= nc < ext["col"]
        if not inside:
            raise IndexError(f"coordinates ({t}, {r}, {c}) outside the window box")
        return ids

    def node_coords(self, ids):
        """(round, row, col) of node ``ids``: Python ints for an int id,
        arrays otherwise."""
        if isinstance(ids, int):
            rest, nc = divmod(ids, self.extent["col"])
            nt, nr = divmod(rest, self.extent["row"])
            return nt + self.lo["t"], nr + self.lo["row"], nc + self.lo["col"]
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
        return self.node_coords(ids)[AXES.index(axis)]

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
