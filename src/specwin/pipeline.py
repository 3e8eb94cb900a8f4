"""Round-level event simulation of the windowed decode pipeline.

Runs a lattice-surgery program against a decoder model: window cells are
materialized as rounds are generated, decode tasks start when their
input boundary bits are available (verified, or speculated when enabled),
and blocking instructions stall their patches until every covering cell
is decoded and verified.  Reported reaction times, compute volumes, and
the executed timeline come straight out of the event loop.

Speculation state is kept per face, and a face is named by its (source,
sink) cell pair.  A cell's consumers and the tasks still waiting on its
verification are read off its faces and its neighbours' current tasks.  A
cell can have two faces on one side when neighbouring patches' tilings are
offset; each face is judged on its own.
"""

from __future__ import annotations

import gc
import heapq
import json
import math
import os
from collections import deque
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from itertools import repeat
from operator import attrgetter
from typing import Any

import numpy as np

from .decoding_graph import Syndrome, build_window_graph
from .matching import dependency_bits
# Not called here: specbench/tracing.py rebinds these names.
from .matching import decode, extract_dependency_bits  # noqa: F401
from .predictor import boundary_view, predict_3step
from .program import Instruction, Program, ProgramError, check_real, check_whole, validate
from .windowing import MAX_TASK_UNITS, STRATEGIES, T, Face, Side, WindowCell
from .windowing import aligned_phases, owns_face

__all__ = [
    "LatencyModel",
    "SimConfig",
    "TraceSegment",
    "CellRecord",
    "SimResult",
    "parse_latency",
    "decode_latency",
    "simulate",
    "simulate_many",
    "occupancy_stats",
    "processor_heuristic",
    "SPECULATION_MODES",
    "RECOVERY_STRATEGIES",
]

SPECULATION_MODES = ("off", "stochastic", "integrated")
RECOVERY_STRATEGIES = ("optimistic", "adjacent", "pessimistic")

# Sub-stream tags for seeded RNG; every draw is keyed so results do not
# depend on event interleaving.
_COND, _SPEC, _LAT, _WIN = 1, 2, 3, 4

# A stream is a draw key with its index word left out: the cell index of a
# speculation draw, at this position of the ids, and the instruction index
# of a conditional coin.  A draw at stream index _BLOCK_FROM or later
# replays the stream's next _BLOCK indices in one vectorized step; a
# speculation draw below it, once _BLOCK_FROM cells are new since the last
# such batch, replays those cells' speculation draws.  A step costs about
# 0.17 ms up to ~100 keys and 0.28 ms at 1,024 on two shared Xeon cores,
# as much as 20 and 35 scalar replays (8 us each).
_STREAM_POS = {_COND: 0, _SPEC: 2}
_BLOCK_FROM, _BLOCK = 32, 1024

# Event phases: completions verify before speculative bits published at
# the same round become consumable.
_PH_GEN, _PH_DONE, _PH_SPEC = 0, 1, 2

# Rounds from a cell's generation to its published speculative bits.
_T_SPEC = 1


# -- keyed draws ------------------------------------------------------------

_U32_MAX, _U64_MAX, _U128_MAX = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _u32(*words: int) -> bool:
    """Whether every word is a uint32."""
    return min(words) >= 0 and max(words) <= _U32_MAX


def _hash_consts(h: int, mult: int, n: int) -> tuple[tuple[int, int], ...]:
    out = []
    for _ in range(n):
        nxt = h * mult & _U32_MAX
        out.append((h, nxt))
        h = nxt
    return tuple(out)


# SeedSequence.generate_state's (xor, multiplier) hash constants, one pair
# per output word, and PCG64's 128-bit LCG multiplier.  Seeding takes two
# LCG steps, folded into one: state = (inc + init) * MULT^2 + inc * (MULT + 1).
_STATE_HASH = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG64_MULT2 = _PCG64_MULT * _PCG64_MULT & _U128_MAX
_PCG64_MULT1 = _PCG64_MULT + 1


def _first_double(pool: np.ndarray) -> float:
    """First ``random()`` of a PCG64 Generator seeded by a SeedSequence.

    Replays numpy from the sequence's mixed entropy ``pool`` (four uint32
    words): ``generate_state(4, uint64)``, PCG64 seeding, one XSL-RR output
    and the 53-bit double conversion.
    """
    words = pool.tolist() * 2
    st = []
    for w, (x, m) in zip(words, _STATE_HASH):
        v = (w ^ x) * m & _U32_MAX
        st.append(v ^ v >> 16)
    init = st[1] << 96 | st[0] << 64 | st[3] << 32 | st[2]
    inc = (st[5] << 96 | st[4] << 64 | st[7] << 32 | st[6]) << 1 & _U128_MAX | 1
    state = ((inc + init) * _PCG64_MULT2 + inc * _PCG64_MULT1) & _U128_MAX
    x = (state >> 64 ^ state) & _U64_MAX
    rot = state >> 122
    x = (x >> rot | x << (64 - rot)) & _U64_MAX
    return (x >> 11) * (1.0 / 9007199254740992.0)


# SeedSequence.mix_entropy's hash and mix constants (pool size 4), and the
# PCG64 seeding multipliers as four 32-bit limbs, least significant first:
# the two folded steps as state = init * MULT^2 + inc * (MULT^2 + MULT + 1).
_MIX_HASH = (0x43B0D7E5, 0x931E8875)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_M32 = np.uint64(_U32_MAX)
_LIMB_MULTS = tuple(
    tuple(np.uint64(m >> s & _U32_MAX) for s in (0, 32, 64, 96))
    for m in (_PCG64_MULT2, (_PCG64_MULT2 + _PCG64_MULT1) & _U128_MAX)
)


def _hash_columns(pairs: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) pairs as two read-only uint32 columns."""
    cols = tuple(np.array(c, np.uint32)[:, None] for c in zip(*pairs))
    for c in cols:
        c.flags.writeable = False
    return cols


_STATE_COLUMNS = _hash_columns(_STATE_HASH)


@lru_cache(maxsize=None)
def _mix_columns(n_words: int) -> tuple[np.ndarray, np.ndarray]:
    """mix_entropy's hash constant columns for keys of ``n_words`` words."""
    return _hash_columns(_hash_consts(*_MIX_HASH, 16 + 4 * max(n_words - 4, 0)))


def _hashmix(v: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mult
    return v ^ v >> 16


def _first_doubles(words: np.ndarray) -> np.ndarray:
    """``np.random.default_rng(row).random()`` for every row of a (K, L)
    uint32 key matrix.

    The vectorized form of ``SeedSequence(row).pool`` followed by
    ``_first_double``: ``mix_entropy`` into a pool of four words, then
    ``generate_state``, PCG64 seeding with the 128-bit LCG as 32-bit limbs
    in uint64 arrays, one XSL-RR output and the 53-bit double.  Arithmetic
    runs on arrays only, where uint32 and uint64 products wrap silently.
    """
    n_rows, n_words = words.shape
    xor, mult = _mix_columns(n_words)

    # mix_entropy: hash the first four words (zeros past a short key) into
    # the pool, mix every pool word into every other, then mix each further
    # key word into all four.  One source word feeds its destinations in
    # one vector step, since none of them is the source.
    pool = np.zeros((4, n_rows), np.uint32)
    pool[:n_words] = words[:, :4].T
    pool = _hashmix(pool, xor[:4], mult[:4])
    j = 4
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        h = _hashmix(pool[src], xor[j : j + 3], mult[j : j + 3])
        r = pool[dst] * _MIX_L - h * _MIX_R
        pool[dst] = r ^ r >> 16
        j += 3
    for src in range(4, n_words):
        h = _hashmix(words[:, src], xor[j : j + 4], mult[j : j + 4])
        r = pool * _MIX_L - h * _MIX_R
        pool = r ^ r >> 16
        j += 4

    # generate_state(4, uint64), then PCG64's (initstate, initseq) as limbs.
    xor, mult = _STATE_COLUMNS
    st = _hashmix(np.concatenate((pool, pool)), xor, mult).astype(np.uint64)
    init = (st[2], st[3], st[0], st[1])
    inc = (
        (st[6] << np.uint64(1) | np.uint64(1)) & _M32,
        (st[7] << np.uint64(1) | st[6] >> np.uint64(31)) & _M32,
        (st[4] << np.uint64(1) | st[7] >> np.uint64(31)) & _M32,
        (st[5] << np.uint64(1) | st[4] >> np.uint64(31)) & _M32,
    )
    # Column sums of the 32x32-bit limb products below 2^128, then carries.
    cols = [np.zeros(n_rows, np.uint64) for _ in range(4)]
    for limbs, m in zip((init, inc), _LIMB_MULTS):
        for a in range(4):
            for b in range(4 - a):
                p = limbs[a] * m[b]
                cols[a + b] += p & _M32
                if a + b < 3:
                    cols[a + b + 1] += p >> np.uint64(32)
    state = []
    carry = np.uint64(0)
    for c in cols:
        c = c + carry
        state.append(c & _M32)
        carry = c >> np.uint64(32)

    # XSL-RR output and the 53-bit double.
    x = (state[3] ^ state[1]) << np.uint64(32) | (state[2] ^ state[0])
    rot = state[3] >> np.uint64(26)
    x = x >> rot | x << ((np.uint64(64) - rot) & np.uint64(63))
    return (x >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


# -- latency models ---------------------------------------------------------


@dataclass
class LatencyModel:
    """Decode latency as a function of task size.

    kind "fixed" always takes ``rounds``; "linear" takes rate * k * d
    rounds for a task of k d^3 units; "empirical" draws uniformly from
    a per-size bucket of measured latencies.
    """

    kind: str = "linear"
    rounds: int = 0
    rate: float = 1.0
    buckets: dict[int, list[int]] | None = None

    @classmethod
    def fixed(cls, rounds: int) -> "LatencyModel":
        cls(kind="fixed", rounds=rounds).validate()
        return cls(kind="fixed", rounds=int(rounds))

    @classmethod
    def linear(cls, rate: float) -> "LatencyModel":
        cls(kind="linear", rate=rate).validate()
        return cls(kind="linear", rate=float(rate))

    @classmethod
    def empirical(cls, buckets: dict[int, list[int]]) -> "LatencyModel":
        # Keys may be decimal text, as in JSON; ``validate`` checks the rest.
        if isinstance(buckets, dict):
            buckets = {int(k) if str(k).isdecimal() else k: v for k, v in buckets.items()}
        return cls(kind="empirical", buckets=buckets)

    def validate(self, d: int | None = None) -> None:
        """Raise ValueError unless the model can run; given the code
        distance ``d``, also unless the largest task a cell can take lasts
        a finite number of rounds.  Stores whole numbers back as ints."""
        if self.kind not in ("fixed", "linear", "empirical"):
            raise ValueError(f"unknown latency kind {self.kind!r}")
        if self.kind == "fixed":
            self.rounds = check_whole("fixed latency rounds", self.rounds, 1)
        if self.kind == "linear":
            rate = check_real("linear latency rate", self.rate)
            if not 0 < rate < math.inf:
                raise ValueError(f"linear latency rate must be positive and finite, got {rate!r}")
            # decode_latency multiplies in the rate's own type: a numpy
            # float32 overflows at its own largest value.
            own = np.finfo(self.rate).max if isinstance(self.rate, np.floating) else math.inf
            if d is not None and not rate * MAX_TASK_UNITS * d < float(own):
                raise ValueError(f"linear rate {self.rate!r} overflows the largest task at d={d}")
        if self.kind == "empirical":
            if not isinstance(self.buckets, dict) or not self.buckets:
                raise ValueError("empirical latency needs an object of size: [rounds] buckets")
            buckets = {}
            for k, b in self.buckets.items():
                what = f"empirical latency bucket {k!r}"
                if not isinstance(b, list) or not b:
                    raise ValueError(f"{what} needs a non-empty list of rounds, got {b!r}")
                size = check_whole(f"{what}: task size", k, 1)
                buckets[size] = [check_whole(f"{what}: rounds", r, 1) for r in b]
            self.buckets = buckets


def parse_latency(text: str, d: int) -> LatencyModel:
    """Parse a latency spec like "fixed:2d", "linear:0.5", "empirical:f.json"."""
    kind, sep, arg = text.partition(":")
    if not sep:
        raise ValueError(f"latency spec {text!r} needs kind:argument")
    if kind == "empirical":
        with open(arg) as fh:
            return LatencyModel.empirical(json.load(fh))
    if kind not in ("fixed", "linear"):
        raise ValueError(f"unknown latency kind {kind!r}")
    arg = arg.strip()
    per_d = kind == "fixed" and arg.endswith("d")
    try:
        x = float(arg[:-1] or "1") if per_d else float(arg)
    except ValueError:
        raise ValueError(f"latency spec {text!r} needs a number, got {arg!r}") from None
    if kind == "linear":
        return LatencyModel.linear(x)
    if per_d:  # rounds up; fixed() rejects a product that is not finite
        x = math.ceil(x * d - 1e-9) if math.isfinite(x * d) else x
    return LatencyModel.fixed(x)


def decode_latency(task_units: float, d: int, model: LatencyModel, rng=None) -> int:
    """Rounds one decode call takes for a task of ``task_units`` d^3 units."""
    k = max(1, int(math.ceil(task_units - 1e-9)))
    if model.kind == "fixed":
        t = model.rounds
    elif model.kind == "linear":
        t = int(math.ceil(model.rate * k * d - 1e-9))
    else:
        bucket = (model.buckets or {}).get(k)
        if not bucket:
            raise ValueError(f"empirical latency has no bucket for task size {k}")
        if rng is None:
            raise ValueError("empirical latency needs an rng")
        t = bucket[int(rng.integers(len(bucket)))]
    return max(1, int(t))


# -- configuration ----------------------------------------------------------


@dataclass
class SimConfig:
    strategy: str = "sliding"
    speculation: str = "off"
    accuracy: float = 0.90
    accuracy_adjacent: float = 0.86
    recovery: str = "adjacent"
    latency: LatencyModel = field(default_factory=LatencyModel)
    processors: int | None = None
    seed: int = 0
    stall_blocking: bool = True
    noise_p: float = 1e-3

    def validate(self, d: int | None = None) -> None:
        """Raise ValueError unless the config can run, and store whole numbers
        back as ints; ``d`` is the code distance, which bounds the latency."""
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.speculation not in SPECULATION_MODES:
            raise ValueError(f"unknown speculation mode {self.speculation!r}")
        if self.recovery not in RECOVERY_STRATEGIES:
            raise ValueError(f"unknown recovery strategy {self.recovery!r}")
        for name in ("accuracy", "accuracy_adjacent", "noise_p"):
            check_real(name, getattr(self, name))
        if not (0.0 <= self.accuracy_adjacent <= self.accuracy <= 1.0):
            raise ValueError("need 0 <= accuracy_adjacent <= accuracy <= 1")
        # Stored back as ints: the keyed draws hash the seed's value.
        if self.processors is not None:
            self.processors = check_whole("processors", self.processors, 1)
        self.seed = check_whole("seed", self.seed, 0)
        if not (0.0 <= self.noise_p < 1.0):
            raise ValueError("noise_p must be in [0, 1)")
        if not isinstance(self.latency, LatencyModel):
            raise ValueError(f"latency must be a LatencyModel, got {self.latency!r}")
        self.latency.validate(d)


# -- results ----------------------------------------------------------------


@dataclass(slots=True)
class TraceSegment:
    instruction: int
    patches: tuple
    start: int
    end: int
    label: str
    skipped: bool = False

    def to_json(self) -> dict[str, Any]:
        return {
            "instruction": self.instruction,
            "patches": [list(p) for p in self.patches],
            "start": self.start,
            "end": self.end,
            "label": self.label,
            "skipped": self.skipped,
        }


@dataclass(slots=True)
class CellRecord:
    patch: tuple
    index: int
    t0: int
    t1: int
    gen_round: int
    first_start: int
    verified_round: int
    attempts: int

    def to_json(self) -> dict[str, Any]:
        return {
            "patch": list(self.patch),
            "index": self.index,
            "t0": self.t0,
            "t1": self.t1,
            "gen_round": self.gen_round,
            "first_start": self.first_start,
            "verified_round": self.verified_round,
            "attempts": self.attempts,
        }


@dataclass
class SimResult:
    runtime_rounds: int
    reactions: list[tuple[int, int]]
    timeline: list[TraceSegment]
    occupancy: list[tuple[int, int]]
    valid_compute: int
    wasted_compute: int
    mispredictions: int
    cell_log: list[CellRecord]

    @property
    def runtime_us(self) -> float:
        """Runtime in microseconds, at 1 us per round."""
        return float(self.runtime_rounds)

    def to_json(self) -> dict[str, Any]:
        return {
            "runtime_rounds": self.runtime_rounds,
            "runtime_us": self.runtime_us,
            "reactions": [list(r) for r in self.reactions],
            "timeline": [seg.to_json() for seg in self.timeline],
            "occupancy": [list(o) for o in self.occupancy],
            "valid_compute": self.valid_compute,
            "wasted_compute": self.wasted_compute,
            "mispredictions": self.mispredictions,
            "cells": [c.to_json() for c in self.cell_log],
        }

    def __reduce__(self):
        # Segments and cell records travel as plain tuples, which pickle
        # several times faster than slotted dataclasses; simulate_many ships
        # every result from a worker process this way.
        fields = dict(vars(self))
        fields["timeline"] = [_SEGMENT_ROW(s) for s in self.timeline]
        fields["cell_log"] = [_CELL_ROW(c) for c in self.cell_log]
        return _unpickle_result, (fields,)


_SEGMENT_ROW = attrgetter(*TraceSegment.__slots__)
_CELL_ROW = attrgetter(*CellRecord.__slots__)


def _unpickle_result(fields: dict) -> SimResult:
    fields["timeline"] = [TraceSegment(*row) for row in fields["timeline"]]
    fields["cell_log"] = [CellRecord(*row) for row in fields["cell_log"]]
    return SimResult(**fields)


def occupancy_stats(result: SimResult) -> tuple[int, float]:
    """Peak and time-averaged decoder occupancy over the executed rounds."""
    series = result.occupancy
    if not series:
        return 0, 0.0
    horizon = result.runtime_rounds
    peak = max(n for _, n in series)
    if horizon <= 0:
        return peak, 0.0
    area = 0
    for (t0, n), (t1, _) in zip(series, series[1:]):
        lo, hi = min(t0, horizon), min(t1, horizon)
        area += n * (hi - lo)
    last_t, last_n = series[-1]
    if last_t < horizon:
        area += last_n * (horizon - last_t)
    return peak, area / horizon


# -- engine state -----------------------------------------------------------


def _overlapping(cells: list[_Cell], lo: int, hi: int) -> list[_Cell]:
    """The cells, of one patch's time-ordered tiling, that meet rounds [lo, hi).

    Scans back from the newest cell, so the cost does not grow with the
    patch's history.
    """
    i = len(cells)
    while i and cells[i - 1].t1 > lo:
        i -= 1
    return [c for c in cells[i:] if c.t0 < hi]


class _Task:
    """One decode attempt of a cell: its rounds and what it consumed."""

    __slots__ = ("start", "end", "attempt", "consumed")

    def __init__(self, start: int, end: int, attempt: int, consumed: tuple):
        self.start = start
        self.end = end
        self.attempt = attempt
        self.consumed = consumed  # (sink face, source cell, "verified" | "spec")

    def speculated_on(self, src: _Cell) -> bool:
        """Whether this task decoded on ``src``'s speculated bits."""
        for _, s, mode in self.consumed:
            if s is src:
                return mode == "spec"
        return False

    def awaits_verification(self) -> bool:
        """Whether a source this task speculated on is still unverified."""
        for _, src, mode in self.consumed:
            if mode == "spec" and src.verified_at is None:
                return True
        return False


class _Cell(WindowCell):
    """A window cell with its pipeline state."""

    __slots__ = (
        "vgen", "gen_time", "spec_time", "verified_at", "running", "done",
        "queued", "attempts", "first_start", "hooks", "truth",
    )

    def __init__(self, id: int, patch: tuple, index: int, t0: int, t1: int):
        WindowCell.__init__(self, id, patch, index, t0, t1)
        self.vgen = 0
        self.gen_time: int | None = None
        self.spec_time: int | None = None
        self.verified_at: int | None = None
        self.running: _Task | None = None
        self.done: _Task | None = None
        self.queued = False
        self.attempts = 0
        self.first_start: int | None = None
        self.hooks: list[_Release] = []
        # Integrated truth per source side (faces on a side share its plane):
        # toggled (round, row, col) sites in this cell's window frame.
        self.truth: dict[Side, frozenset] = {}


class _Release:
    """Release of one blocking instruction: it resolves, and ``resume`` is
    set, when the last of its ``pending`` covering cells verifies."""

    __slots__ = ("gi", "t_b", "pending", "resume")

    def __init__(self, gi: int, t_b: int):
        self.gi = gi
        self.t_b = t_b
        self.pending = 0
        self.resume: int | None = None


class _PatchState:
    __slots__ = ("order", "next_i", "death", "cells")

    def __init__(self, order: list[int]):
        self.order = order
        self.next_i = 0
        self.death: int | None = None
        self.cells: list[_Cell] = []


class _Engine:
    def __init__(self, program: Program, cfg: SimConfig):
        self.cfg = cfg
        self.d = program.distance
        self.instructions = program.instructions
        self.spec_on = cfg.speculation != "off"
        self.integrated = cfg.speculation == "integrated"
        self.phases = aligned_phases(program) if cfg.strategy == "aligned" else {}

        per_patch: dict[tuple, list[int]] = {}
        for i, ins in enumerate(self.instructions):
            for p in ins.patches:
                per_patch.setdefault(p, []).append(i)
        self.pstate = {
            p: _PatchState(sorted(order, key=lambda i: self.instructions[i].start_round))
            for p, order in per_patch.items()
        }
        self.patch_order = sorted(self.pstate)

        n = len(self.instructions)
        self.exec_end: list[int | None] = [None] * n
        self.timeline: list[TraceSegment] = []
        self.releases: dict[int, _Release] = {}
        self.reactions: list[tuple[int, int]] = []

        self.cells: list[_Cell] = []
        self.heap: list = []
        self.seq = 0
        self.clock = 0
        self.queue: deque[_Cell] = deque()
        self.running_count = 0
        self.occupancy: list[tuple[int, int]] = []
        self.valid = 0
        self.wasted = 0
        self.mispredictions = 0
        self.wrong_faces: set[tuple[int, int]] = set()  # (source id, sink id)
        self._need_sweep = False
        self._ahead: dict[tuple, float] = {}  # (tag, *ids) -> replayed draw
        self._batched = 0  # cells whose speculation draws were batched

    # -- rng streams --------------------------------------------------------

    def _seed_seq(self, tag: int, *ids: int) -> np.random.SeedSequence:
        """The SeedSequence of key ``[seed, tag, *ids]``.

        A key of uint32 values is passed as an array: it seeds the same
        sequence and skips numpy's slow conversion of a list of ints.
        """
        key = [self.cfg.seed, tag, *ids]
        if _u32(*key):
            key = np.array(key, dtype=np.uint32)
        return np.random.SeedSequence(key)

    def _rng(self, tag: int, *ids: int) -> np.random.Generator:
        """``np.random.default_rng([seed, tag, *ids])``."""
        return np.random.default_rng(self._seed_seq(tag, *ids))

    def _uniform(self, tag: int, *ids: int) -> float:
        """``self._rng(tag, *ids).random()``, without building the generator.

        A draw missing from ``_ahead`` replays a batch into it: at stream
        index ``_BLOCK_FROM`` or later, the stream's next ``_BLOCK`` draws;
        at a lower index of a speculation stream, once ``_BLOCK_FROM`` cells
        are new since the last such batch, those cells' speculation draws.
        Any other draw is replayed alone.
        """
        if self._ahead:
            u = self._ahead.pop((tag, *ids), None)
            if u is not None:
                return u
        pos = _STREAM_POS.get(tag)
        if pos is None or pos >= len(ids):
            replayed = False
        elif ids[pos] >= _BLOCK_FROM:
            replayed = self._replay_stream(tag, ids, pos)
        else:
            replayed = tag == _SPEC and self._replay_cells()
        if replayed:
            u = self._ahead.pop((tag, *ids), None)
            if u is not None:
                return u
        return _first_double(self._seed_seq(tag, *ids).pool)

    def _replay_stream(self, tag: int, ids: tuple, pos: int) -> bool:
        """Replay the draws of key ``(tag, *ids)`` and the next ``_BLOCK - 1``
        indices of its stream; False when a word of the block is not a uint32."""
        n = ids[pos]
        if not _u32(self.cfg.seed, tag, *ids, n + _BLOCK - 1):
            return False
        columns = list(ids)
        columns[pos] = range(n, n + _BLOCK)
        self._replay(tag, columns)
        return True

    def _replay_cells(self) -> bool:
        """Replay the speculation draws below stream index ``_BLOCK_FROM`` of
        the cells created since the last such batch, one ``_first_doubles``
        call per key length; False, replaying nothing, while fewer than
        ``_BLOCK_FROM`` are new or when the seed is not a uint32.

        The keys are those of each cell's source faces now.  A cell that
        never publishes leaves its keys unused, and a face attached later
        draws alone; each value depends on its key only, so neither moves
        a result.
        """
        if len(self.cells) - self._batched < _BLOCK_FROM or not _u32(self.cfg.seed):
            return False
        new = self.cells[self._batched :]
        self._batched = len(self.cells)
        rows: dict[int, list[tuple]] = {}
        for cell in new:
            if cell.index < _BLOCK_FROM and _u32(*cell.patch):
                for _, ids in self._spec_draws(cell):
                    rows.setdefault(len(ids), []).append(ids)
        for same_length in rows.values():
            self._replay(_SPEC, list(zip(*same_length)))
        return True

    def _replay(self, tag: int, columns: list) -> None:
        """Replay into ``_ahead``, in one ``_first_doubles`` call, the draws
        of the keys ``(tag, *ids)`` whose ids are the rows of ``columns``.

        A column is an int shared by every key, or a tuple or range of ints
        with one per key.  Every word must be a uint32: callers check.
        """
        n = next(len(c) for c in columns if not isinstance(c, int))
        words = np.empty((n, 2 + len(columns)), np.uint32)
        words[:, 0] = self.cfg.seed
        words[:, 1] = tag
        for j, c in enumerate(columns, 2):
            # numpy converts a range as a slow generic sequence.
            words[:, j] = np.arange(c.start, c.stop) if isinstance(c, range) else c
        keys = zip(repeat(tag), *(repeat(c, n) if isinstance(c, int) else c for c in columns))
        self._ahead.update(zip(keys, _first_doubles(words).tolist()))

    # -- event plumbing -----------------------------------------------------

    def _push(self, time: int, phase: int, cid: int, arg: int = 0) -> None:
        """Queue the phase's handler for cell ``cid``; gen and done events
        carry the version or attempt they were issued for in ``arg``."""
        self.seq += 1
        heapq.heappush(self.heap, (time, phase, self.seq, cid, arg))

    # -- cell construction --------------------------------------------------

    def _new_cell(self, patch: tuple, t0: int, t1: int) -> _Cell:
        ps = self.pstate[patch]
        cell = _Cell(len(self.cells), patch, len(ps.cells), t0, t1)
        self.cells.append(cell)
        ps.cells.append(cell)
        if len(ps.cells) > 1:
            self._attach(ps.cells[-2], cell, Side.FUTURE)
        self._push(t1, _PH_GEN, cell.id, cell.vgen)
        return cell

    def _attach(self, a: _Cell, b: _Cell, side: Side) -> None:
        """Put a face between cells ``a`` and ``b`` on ``a``'s ``side``."""
        a_src = owns_face(
            self.cfg.strategy, self.d, self.phases, (a.t0, a.patch), (b.t0, b.patch)
        )
        a.attach(Face(side, b.id), a_src)
        b.attach(Face(side.mirror, a.id), not a_src)

    def _ensure_upto(self, patch: tuple, upto: int) -> None:
        ps = self.pstate[patch]
        while True:
            end = ps.cells[-1].t1
            if end >= upto or (ps.death is not None and end >= ps.death):
                break
            t1 = end + self.d
            if ps.death is not None:
                t1 = min(t1, ps.death)
            self._new_cell(patch, end, t1)

    def _apply_death(self, patch: tuple) -> None:
        ps = self.pstate[patch]
        last = ps.cells[-1]
        if last.t1 <= ps.death:
            return
        # The provisional tail cell overshot the patch's final round.
        # Shrink it and reposition every generation event that referenced
        # its old end; none of them can have fired yet since the new end
        # is still in the future.
        last.t1 = ps.death
        last.vgen += 1
        self._push(ps.death, _PH_GEN, last.id, last.vgen)
        # Sinks keep attach order, which the push sequence needs: it breaks
        # event ties.
        for f in last.sinks:
            nbr = self.cells[f.neighbor]
            if nbr.gen_time is not None:
                continue
            nbr.vgen += 1
            self._push(self._gen_value(nbr), _PH_GEN, nbr.id, nbr.vgen)

    def _connect(self, pa: tuple, pb: tuple, w_start: int, w_end: int) -> None:
        side = Side.between(pa, pb)
        cbs = _overlapping(self.pstate[pb].cells, w_start, w_end)
        for ca in _overlapping(self.pstate[pa].cells, w_start, w_end):
            for cb in cbs:
                lo = max(ca.t0, cb.t0, w_start)
                hi = min(ca.t1, cb.t1, w_end)
                if lo >= hi or cb.id in [f.neighbor for f in ca.sources + ca.sinks]:
                    continue
                self._attach(ca, cb, side)

    # -- instruction scheduling ---------------------------------------------

    def _sweep(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for p in self.patch_order:
                while self._try_schedule(self.pstate[p]):
                    progressed = True

    def _try_schedule(self, ps: _PatchState) -> bool:
        if ps.next_i >= len(ps.order):
            return False
        gi = ps.order[ps.next_i]
        ins = self.instructions[gi]
        cands = []
        for q in ins.patches:
            qs = self.pstate[q]
            if qs.next_i >= len(qs.order) or qs.order[qs.next_i] != gi:
                return False
            if qs.next_i == 0:
                cands.append(ins.start_round)
            else:
                prev_gi = qs.order[qs.next_i - 1]
                gap = ins.start_round - self.instructions[prev_gi].end_round
                cands.append(self.exec_end[prev_gi] + gap)
        if (
            self.cfg.stall_blocking
            and ins.conditional_on is not None
            and self.instructions[ins.conditional_on].blocking
        ):
            rel = self.releases.get(ins.conditional_on)
            if rel is None or rel.resume is None:
                return False
            cands.append(rel.resume)
        self._commit(gi, ins, max(cands))
        return True

    def _commit(self, gi: int, ins: Instruction, start: int) -> None:
        end = start + ins.duration
        self.exec_end[gi] = end
        skipped = False
        if ins.conditional_on is not None:
            skipped = self._uniform(_COND, gi) >= 0.5
        label = "Idle" if skipped else ins.kind.value
        self.timeline.append(
            TraceSegment(gi, tuple(ins.patches), start, end, label, skipped)
        )
        for q in ins.patches:
            qs = self.pstate[q]
            qs.next_i += 1
            if not qs.cells:
                # The patch's first instruction: its tiling starts here.
                self._new_cell(q, start, start + self.d)
            self._ensure_upto(q, end)
            if qs.next_i >= len(qs.order):
                qs.death = end
                self._apply_death(q)
        if ins.merging:
            for i, pa in enumerate(ins.patches):
                for pb in ins.patches[i + 1:]:
                    if abs(pa[0] - pb[0]) + abs(pa[1] - pb[1]) == 1:
                        self._connect(pa, pb, start, end)
        if ins.blocking:
            rel = _Release(gi, end)
            for q in ins.patches:
                for cell in _overlapping(self.pstate[q].cells, start, end):
                    rel.pending += 1
                    cell.hooks.append(rel)
            self.releases[gi] = rel

    # -- generation ---------------------------------------------------------

    def _gen_value(self, cell: _Cell) -> int:
        g = cell.t1
        for f in cell.sources:
            g = max(g, self.cells[f.neighbor].t1)
        return g

    def _on_gen(self, cid: int, v: int) -> None:
        cell = self.cells[cid]
        if cell.gen_time is not None or cell.vgen != v:
            return
        patch = cell.patch
        if self.pstate[patch].cells[-1] is cell:
            self._ensure_upto(patch, cell.t1 + 1)
        g = self._gen_value(cell)
        if g > self.clock:
            cell.vgen += 1
            self._push(g, _PH_GEN, cid, cell.vgen)
            return
        cell.gen_time = self.clock
        if self.spec_on and cell.sources:
            self._push(self.clock + _T_SPEC, _PH_SPEC, cid)
        self._try_start(cell)

    # -- speculation --------------------------------------------------------

    def _on_spec(self, cid: int) -> None:
        cell = self.cells[cid]
        if cell.verified_at is not None:
            return
        # Every mode publishes alike: the bits become consumable here and
        # are judged when the cell verifies.
        cell.spec_time = self.clock
        # Retry the cells across the source faces; one waiting on another
        # source stays waiting.
        for nid in sorted([f.neighbor for f in cell.sources]):
            self._try_start(self.cells[nid])
        self._dispatch()

    # -- decode task lifecycle ----------------------------------------------

    def _try_start(self, cell: _Cell) -> None:
        if (
            cell.gen_time is None
            or cell.verified_at is not None
            or cell.running is not None
            or cell.done is not None
            or cell.queued
        ):
            return
        consumed = []
        for f in cell.sinks:
            src = self.cells[f.neighbor]
            if src.verified_at is not None:
                consumed.append((f, src, "verified"))
            elif src.spec_time is not None:
                consumed.append((f, src, "spec"))
            else:
                return
        if self.cfg.processors is not None and self.running_count >= self.cfg.processors:
            cell.queued = True
            self.queue.append(cell)
            return
        self._start(cell, consumed)

    def _start(self, cell: _Cell, consumed: list) -> None:
        attempt = cell.attempts
        cell.attempts += 1
        rng = None
        if self.cfg.latency.kind == "empirical":
            rng = self._rng(_LAT, *cell.patch, cell.index, attempt)
        dur = decode_latency(cell.task_units(self.d), self.d, self.cfg.latency, rng)
        now = self.clock
        if cell.first_start is None:
            cell.first_start = now
        cell.running = _Task(now, now + dur, attempt, tuple(consumed))
        self._occupy(1)
        self._push(now + dur, _PH_DONE, cell.id, attempt)

    def _occupy(self, delta: int) -> None:
        """Add ``delta`` to the running count and record it; once per round."""
        self.running_count += delta
        occ = self.occupancy
        if occ and occ[-1][0] == self.clock:
            occ.pop()
        occ.append((self.clock, self.running_count))

    def _dispatch(self) -> None:
        if self.cfg.processors is None:
            return
        while self.queue and self.running_count < self.cfg.processors:
            cell = self.queue.popleft()
            cell.queued = False
            self._try_start(cell)

    def _stop(self, cell: _Cell) -> _Task:
        """Take the cell's running task off its processor."""
        task = cell.running
        cell.running = None
        self._occupy(-1)
        return task

    def _on_done(self, cid: int, attempt: int) -> None:
        cell = self.cells[cid]
        task = cell.running
        if task is None or task.attempt != attempt:
            return
        self._stop(cell)
        cell.done = task
        if not task.awaits_verification():
            self._verify_cascade(cell)
        self._dispatch()

    # -- verification and recovery ------------------------------------------

    def _verify_cascade(self, root: _Cell) -> None:
        work = deque([root])
        while work:
            cell = work.popleft()
            task = cell.done
            if cell.verified_at is not None or task is None or task.awaits_verification():
                continue
            cell.done = None
            cell.verified_at = self.clock
            self.valid += task.end - task.start
            for rel in cell.hooks:
                self._note_release(rel)
            # Integrated mode decodes every cell: its consumers need its truth.
            if self.integrated:
                wrongs = self._by_decoding(cell, task.consumed)
            elif cell.spec_time is not None:
                wrongs = self._by_draw(cell)
            else:
                wrongs = []
            for f in wrongs:
                self.wrong_faces.add((cell.id, f.neighbor))
                self.mispredictions += 1
            for f in wrongs:
                self._recover(cell, f)
            # A consumer that finished decoding did so on this cell's
            # speculation and may now verify; the others are retried.
            for nid in sorted([f.neighbor for f in cell.sources]):
                child = self.cells[nid]
                if child.done is None:
                    self._try_start(child)
                elif not child.done.awaits_verification():
                    work.append(child)
        self._dispatch()
        if self._need_sweep:
            self._need_sweep = False
            self._sweep()

    def _by_draw(self, cell: _Cell) -> list[Face]:
        """Stochastic mode: the published cell's source faces whose
        speculated bits a keyed draw marks wrong.

        A face is wrong if its draw ``u`` exceeds ``accuracy``, or exceeds
        ``accuracy_adjacent`` while the face meets a wrong face at a
        corner.  A draw lies in [0, 1), so at ``accuracy_adjacent >= 1`` no
        face can be wrong and none is drawn; draws are keyed, so skipping
        them moves no other draw.
        """
        acc, acc_adj = self.cfg.accuracy, self.cfg.accuracy_adjacent
        if acc_adj >= 1.0:
            return []
        wrongs = []
        for f, ids in self._spec_draws(cell):
            u = self._uniform(_SPEC, *ids)
            if u > acc or (
                u > acc_adj
                and self.wrong_faces
                and not self.wrong_faces.isdisjoint(self._adjacent_faces(cell, f))
            ):
                wrongs.append(f)
        return wrongs

    @staticmethod
    def _spec_draws(cell: _Cell):
        """Each source face of ``cell`` with the ids of its speculation draw,
        in face order.  The second and later faces on a side draw under an
        extra index."""
        side, k = None, 0
        for f in cell.sources:
            k = k + 1 if f.side is side else 0
            side = f.side
            ids = (*cell.patch, cell.index, side)
            yield f, ((*ids, k) if k else ids)

    def _adjacent_faces(self, cell: _Cell, f: Face) -> set[tuple[int, int]]:
        """(source id, sink id) of the faces meeting ``cell``'s face ``f``
        at a corner."""
        out: set[tuple[int, int]] = set()
        axis = f.side.axis
        for z in (cell, self.cells[f.neighbor]):
            out.update((z.id, g.neighbor) for g in z.sources if g.side.axis != axis)
            out.update((g.neighbor, z.id) for g in z.sinks if g.side.axis != axis)
        return out

    def _note_release(self, rel: _Release) -> None:
        """A covering cell of ``rel`` verified now; the last one resolves it."""
        rel.pending -= 1
        if rel.pending:
            return
        reaction = max(0, self.clock - rel.t_b)
        self.reactions.append((rel.gi, reaction))
        blocks = (reaction + 2 * self.d - 1) // (2 * self.d)
        rel.resume = rel.t_b + 2 * self.d * blocks
        self._need_sweep = True

    def _recover(self, src: _Cell, face: Face) -> None:
        owners = [(src, face.neighbor)]
        if self.cfg.recovery in ("adjacent", "pessimistic"):
            for oid, sid in self._adjacent_faces(src, face):
                owner = self.cells[oid]
                if owner.verified_at is None:
                    owners.append((owner, sid))
        # The consumer across a face, while its task speculated on the owner.
        targets: dict[int, _Cell] = {}
        for owner, sid in owners:
            sink = self.cells[sid]
            task = sink.running or sink.done
            if task is not None and task.speculated_on(owner):
                targets[sid] = sink
        if self.cfg.recovery == "pessimistic":
            frontier = list(targets.values())
            seen = set(targets)
            while frontier:
                cur = frontier.pop()
                for f in cur.sources:
                    child = self.cells[f.neighbor]
                    if child.id in seen:
                        continue
                    seen.add(child.id)
                    frontier.append(child)
                    if child.verified_at is None and (child.running or child.done):
                        targets[child.id] = child
        now = self.clock
        for cid in sorted(targets):
            cell = targets[cid]
            if cell.verified_at is not None:
                continue
            if cell.running is not None:
                task = self._stop(cell)
                self.wasted += now - task.start
            elif cell.done is not None:
                task = cell.done
                self.wasted += task.end - task.start
                cell.done = None
            else:
                continue
            self._try_start(cell)
        self._dispatch()

    # -- integrated speculation ----------------------------------------------

    def _by_decoding(self, cell: _Cell, consumed: tuple) -> list[Face]:
        """Integrated mode: store the cell's truth, the dependency bits of a
        matching decode of its keyed syndrome with its ``consumed`` sources'
        truth projected in; then judge its published prediction by it.  The
        prediction reads only that syndrome, fixed before the cell generated,
        so predicting now gives the bits it published.  Both are sites in the
        cell's window frame, and only truth is kept, not the window graph."""
        # One buffer per side, however many faces lie on it.
        sides = dict.fromkeys(f.side.pair for f in cell.sources)
        g = build_window_graph(self.d, cell.rounds, list(sides))
        _, synd = g.sample_errors(self.cfg.noise_p, self._rng(_WIN, *cell.patch, cell.index))
        bits = synd.bits.copy()
        for f, src, _ in consumed:
            for site in src.truth[f.side.mirror]:
                loc = self._project(f, src, cell, g.commit_hi, site)
                if loc is not None:
                    bits[g.node_id(*loc)] ^= 1
        for plane, truth in zip(g.planes, dependency_bits(g, Syndrome(bits))):
            cell.truth[plane.side] = frozenset(map(g.node_coords, truth.sites))
        if cell.spec_time is None:
            return []
        pred = {
            plane.side: frozenset(
                map(g.node_coords, predict_3step(boundary_view(g, plane, synd)).bits.sites)
            )
            for plane in g.planes
        }
        return [f for f in cell.sources if self._plane_wrong(cell, f, pred[f.side])]

    def _plane_wrong(self, cell: _Cell, f: Face, pred: frozenset) -> bool:
        """Whether the sites ``pred`` predicted on source face ``f``'s plane
        differ from the truth.

        A face alone on its side is judged by the side's whole plane.  Faces
        sharing a side share its plane, so each is judged only by the plane
        sites in its neighbour's rounds.
        """
        truth = cell.truth[f.side]
        if pred == truth:
            return False
        if sum(g.side is f.side for g in cell.sources) == 1:
            return True
        nbr = self.cells[f.neighbor]
        return any(nbr.t0 <= cell.t0 + site[T] < nbr.t1 for site in pred ^ truth)

    @staticmethod
    def _project(f: Face, src: _Cell, dst: _Cell, box: tuple, site: tuple):
        """Map one source-plane toggle ``site`` into the sink's frame.

        ``f`` is the sink's face and ``box`` the sink's commit box.  A site
        is kept only if its coordinates off the face's axis lie in the
        source's commit cross-section and, shifted into the sink's rounds,
        inside the sink's commit box; the rest of the source's plane runs
        through its other buffers, whose chains are not this sink's.  The
        site lands on the sink's face layer.
        """
        site = list(site)
        side = f.side
        if side.axis != T:
            if not 0 <= site[T] < src.rounds:
                return None
            site[T] += src.t0 - dst.t0
        site[side.axis] = 0 if side.direction < 0 else box[side.axis] - 1
        if all(0 <= x < n for x, n in zip(site, box)):
            return tuple(site)
        return None

    # -- run ------------------------------------------------------------------

    def run(self) -> SimResult:
        self._sweep()
        heap = self.heap
        pop = heapq.heappop
        while heap:
            self.clock, phase, _, cid, arg = pop(heap)
            if phase == _PH_GEN:
                self._on_gen(cid, arg)
            elif phase == _PH_DONE:
                self._on_done(cid, arg)
            else:
                self._on_spec(cid)
        missing = [i for i, e in enumerate(self.exec_end) if e is None]
        if missing:
            raise RuntimeError(f"scheduling deadlock; instructions never ran: {missing}")
        loose = [c.id for c in self.cells if c.verified_at is None]
        if loose:
            raise RuntimeError(f"cells never verified: {loose}")
        return self._result()

    def _result(self) -> SimResult:
        runtime = max(e for e in self.exec_end if e is not None)
        log = [
            CellRecord(p, c.index, c.t0, c.t1, c.gen_time, c.first_start, c.verified_at, c.attempts)
            for p in self.patch_order
            for c in self.pstate[p].cells
        ]
        return SimResult(
            runtime_rounds=runtime,
            reactions=sorted(self.reactions),
            timeline=sorted(self.timeline, key=lambda s: (s.start, s.instruction)),
            occupancy=self.occupancy,
            valid_compute=self.valid,
            wasted_compute=self.wasted,
            mispredictions=self.mispredictions,
            cell_log=log,
        )


# -- public entry points -----------------------------------------------------


def simulate(program: Program, cfg: SimConfig | None = None) -> SimResult:
    """Simulate one program run and return its full trace."""
    cfg = cfg or SimConfig()
    cfg.validate(program.distance)
    diags = validate(program)
    if diags:
        raise ProgramError("; ".join(map(str, diags)))
    # A run's cells, tasks and events live until it returns, so collections
    # during the run promote them and set off a full collection of the
    # interpreter's heap (several ms) every hundred-odd runs.  Runs make no
    # reference cycles (tests/test_pipeline.py checks every builtin), so the
    # cycle collector is paused while one runs.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _Engine(program, cfg).run()
    finally:
        if collecting:
            gc.enable()


def simulate_many(program: Program, cfgs) -> list[SimResult]:
    """``[simulate(program, cfg) for cfg in cfgs]``, spread over processes.

    The configs are mapped in chunks over a pool of at most one worker
    process per usable core (never more than ``os.cpu_count()``), or run
    inline when one worker is enough.  Workers are spawned, not forked, so
    the caller may have threads; each pays one fresh import of specwin.
    Results come back in input order and equal the serial ones; the
    exception of the first failing run propagates.
    """
    cfgs = list(cfgs)
    cores = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    )
    workers = min(cores or 1, len(cfgs))
    if workers <= 1:
        return [simulate(program, cfg) for cfg in cfgs]
    # Imported here: a plain ``import specwin`` need not load multiprocessing.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # Short chunks keep the last one from idling the other workers for long;
    # 32 runs amortise a pickle round trip many times over.
    chunk = max(1, min(32, len(cfgs) // (4 * workers)))
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
    try:
        return list(pool.map(partial(simulate, program), cfgs, chunksize=chunk))
    finally:
        pool.shutdown(cancel_futures=True)


def processor_heuristic(program: Program, cfg: SimConfig) -> int:
    """Processor count that keeps a limited run at unlimited-run speed.

    Probes the program with perfect speculation on unlimited processors,
    then pads the observed peak by the expected misprediction rework.
    """
    probe = replace(
        cfg,
        processors=None,
        speculation="stochastic",
        accuracy=1.0,
        accuracy_adjacent=1.0,
    )
    result = simulate(program, probe)
    peak, mean = occupancy_stats(result)
    eps = 1.0 - cfg.accuracy
    return max(1, int(math.ceil(peak + eps * mean - 1e-9)))
