"""Host-speed benchmark of specwin.

    python3 specbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 specbench/run.py --smoke

Run from the repository root.  One process, one client, a closed loop: each
op starts when the previous one has finished and been checked.  Workloads
(see ``reference.json``): stochastic_sweep, long_program, integrated_msd,
predictor_eval.

Every stream opens with the workload's check ops, which do not depend on
``--seed``; their results are hashed into the digest and compared op by op
with ``reference.json``.  ``--trace 0`` measures for ``--seconds`` with
tracing off and prints the end-to-end metrics.  ``--trace 1`` runs the check
ops untraced, then traces the same stream for the rest of ``--seconds`` and
prints per-layer metrics, the tracing slowdown and whether the traced digest
equals the untraced one.  ``--smoke`` runs a few ops of every workload
traced and untraced, and checks that the digests agree and that every
wrapped name is restored.

The last line of output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  An op that raises is counted in ``failed`` and
its exception type goes into the digest and the failure tally.  ``correct``
is false when a finished op fails an output check, when a check op that
succeeded in ``reference.json`` gives another result, or when traced and
untraced digests differ.  Other details go to ``.specbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One process, one thread: keep numpy's BLAS from starting worker threads,
# which on a two-core host would time the scheduler rather than specwin.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".specbench_out"
SETUP_PROBES = 6
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0)
# The host's speed changes by up to 2x for seconds to minutes at a time: the
# same op took 0.97 s in one run and 1.8 s in the next.  So before the first
# op and after every block of ops lasting at least BLOCK_S, the harness times
# host_kernel(), fixed work that shares no code with specwin, and rescales
# the block's op times to a host on which the kernel takes KERNEL_REF_S.
# Rescaled seconds are "ref seconds".  Each set-up time is rescaled by kernel
# timings taken in the process that set up, right after it.
BLOCK_S = 1.0
KERNEL_REF_S = 0.02
# Ops per workload in --smoke; its keys are every workload the harness has.
SMOKE_OPS = {"stochastic_sweep": 6, "long_program": 1, "integrated_msd": 1, "predictor_eval": 2}


class SetupError(Exception):
    pass


def host_kernel() -> float:
    """Seconds taken by fixed pure-Python and small-numpy work."""
    import numpy

    t0 = perf_counter()
    total, table = 0, {}
    for i in range(120000):
        total += i * i % 7
        table[i % 97] = total
    a = numpy.arange(2000.0)
    for _ in range(1200):
        a = numpy.sqrt(a + 1.0)
    return perf_counter() - t0


def add_paths() -> None:
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def timed_setup(workload: str, seed: int):
    """Import specwin, build the workload's programs and its first op."""
    t0 = perf_counter()
    add_paths()
    import specwin

    if Path(specwin.__file__).resolve().parent != SRC / "specwin":
        raise SetupError(f"imported specwin from {specwin.__file__}, not from {SRC}")
    from workloads import WORKLOADS, stream

    wl = WORKLOADS[workload]
    ctx = wl.prepare()
    ops = stream(wl, ctx, seed)
    first = next(ops)
    return perf_counter() - t0, wl, ctx, ops, first


# -- measurement -------------------------------------------------------------


class Phase:
    """Closed-loop results of one pass over an op stream."""

    def __init__(self, digest_ops: int):
        self.digest_ops = digest_ops
        self.latency: list[float] = []  # seconds, every op
        self.ok: list[bool] = []
        self.op_windows: list[int] = []  # windows of each op that passed, else 0
        self.errors: dict[str, int] = {}
        self.first_error: dict[str, str] = {}
        self.check_failures = 0
        self.hasher = hashlib.sha256()
        self.check_ops: list[dict] = []  # per check op: its line's sha256, what it raised
        self.sims: list = []
        # (first op, end op) of each block, and host_kernel() seconds before
        # the first block and after each block.
        self.blocks: list[tuple[int, int]] = []
        self.kernel_s: list[float] = []
        self.open_s = 0.0  # op seconds since the last block closed

    def close_block(self) -> None:
        start = self.blocks[-1][1] if self.blocks else 0
        self.blocks.append((start, self.attempted))
        self.kernel_s.append(host_kernel())
        self.open_s = 0.0

    def record(self, op, outcome, error, dt: float) -> None:
        from workloads import digest_line

        self.latency.append(dt)
        self.open_s += dt
        self.ok.append(error is None)
        self.op_windows.append(0 if error else outcome.windows)
        if error is not None:
            name = type(error).__name__
            self.errors[name] = self.errors.get(name, 0) + 1
            self.first_error.setdefault(name, f"op {op.index} ({op.label}): {error}")
        if op.index < self.digest_ops:
            line = digest_line(op.index, None if error else outcome, error)
            self.hasher.update(line)
            self.check_ops.append({"sha256": hashlib.sha256(line).hexdigest(),
                                   "raised": None if error is None else type(error).__name__})
            if error is None:
                self.sims.extend(outcome.sims)

    @property
    def windows(self) -> int:
        return sum(self.op_windows)

    @property
    def attempted(self) -> int:
        return len(self.latency)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    @property
    def digest(self) -> str:
        return self.hasher.hexdigest()


def run_phase(first, stream, digest_ops: int, seconds: float, max_ops: int | None = None,
              tracer=None, host_probe: bool = False) -> Phase:
    """Run ops until ``seconds`` have passed and at least the check ops ran.

    With ``host_probe``, time host_kernel() between blocks of ops.
    """
    from workloads import CheckError

    phase = Phase(digest_ops)
    if host_probe:
        phase.kernel_s.append(host_kernel())
    deadline = perf_counter() + seconds
    op = first
    while True:
        if tracer is not None:
            tracer.op = op.index
            tracer.active = True
        t0 = perf_counter()
        try:
            outcome, error = op.run(), None
        except Exception as exc:  # a failing op is counted, never skipped
            outcome, error = None, exc
        finally:
            if tracer is not None:
                tracer.active = False
        t1 = perf_counter()
        if error is None:
            try:
                op.check(outcome)
            except CheckError as exc:
                error = exc
                phase.check_failures += 1
        phase.record(op, outcome, error, t1 - t0)
        n = phase.attempted
        done = (max_ops is not None and n >= max_ops) or (n >= digest_ops and t1 >= deadline)
        if host_probe and (done or phase.open_s >= BLOCK_S):
            phase.close_block()
        if done:
            return phase
        op = next(stream)


def rank_value(values: list[float], p: float) -> float:
    """Nearest-rank percentile of sorted values."""
    k = max(1, math.ceil(p / 100.0 * len(values)))
    return values[k - 1]


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten ops beyond it (else 50)."""
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p
    return 50.0


def ref_latency(phase: Phase) -> list[float]:
    """Op latencies in ref seconds; wall seconds when no kernel was timed."""
    if not phase.blocks:
        return list(phase.latency)
    out = []
    for j, (start, end) in enumerate(phase.blocks):
        scale = 2 * KERNEL_REF_S / (phase.kernel_s[j] + phase.kernel_s[j + 1])
        out.extend(dt * scale for dt in phase.latency[start:end])
    return out


def latency_metrics(latency: list[float], ok: list[bool]) -> tuple[float, float, float]:
    """(p50, tail, tail percentile) in ms; a failed op ranks slower than every other."""
    ranked = sorted(dt if good else math.inf for dt, good in zip(latency, ok))
    worst = max(latency)
    p_tail = tail_percentile(len(ranked))
    p50, tail = rank_value(ranked, 50.0), rank_value(ranked, p_tail)
    return (1e3 * (worst if math.isinf(p50) else p50),
            1e3 * (worst if math.isinf(tail) else tail), p_tail)


def end_to_end(phase: Phase) -> dict:
    """Ref-second metrics, and the same over wall time (``wall_`` keys)."""
    out = {"failed_frac": phase.failed / phase.attempted}
    for prefix, latency in (("", ref_latency(phase)), ("wall_", phase.latency)):
        out[prefix + "windows_per_s"] = phase.windows / sum(latency)
        p50, tail, p_tail = latency_metrics(latency, phase.ok)
        out[prefix + "op_p50_ms"], out[prefix + "op_tail_ms"] = p50, tail
    out["tail_percentile"] = p_tail
    return out


def setup_probes(workload: str, seed: int, count: int) -> list[tuple[float, float]]:
    """(set-up seconds, host_kernel() seconds) in fresh interpreters, one after another."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        setup, kernel = proc.stdout.split()[-2:]
        samples.append((float(setup), float(kernel)))
    return samples


def setup_probe(workload: str, seed: int) -> str:
    """Set-up time, then the median of three host_kernel() timings in the same process.

    The kernel runs in the process that set up, right after it, so it sees
    nearly the same host speed as the set-up did.
    """
    setup = timed_setup(workload, seed)[0]
    kernel = statistics.median(host_kernel() for _ in range(3))
    return f"{setup:.6f} {kernel:.6f}"


# -- environment and reference -------------------------------------------------


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unknown (not a git checkout)"
    return "unknown"


def env_stamp() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(),
        "loadavg_start": list(os.getloadavg()),
    }


def reference_check_ops(workload: str) -> list[dict]:
    ref = json.loads((HERE / "reference.json").read_text())
    return ref["workloads"][workload]["check_ops"]


def check_verdict(want: list[dict], got: list[dict]) -> tuple[bool, str]:
    """Compare the check ops with their reference, op by op.

    A check op that raised in the reference may now give another result (a
    fix of that error changes it); every other difference fails the run.
    """
    if len(got) != len(want):
        return False, f"MISMATCH: {len(got)} check ops ran, reference.json has {len(want)}"
    differ = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    bad = [i for i in differ if want[i]["raised"] is None]
    if bad:
        return False, f"MISMATCH with reference.json on check ops {bad}"
    if differ:
        raised = ", ".join(f"op {i} ({want[i]['raised']})" for i in differ)
        return True, f"matches reference.json except {raised}, which raised there"
    return True, "matches reference.json"


def tally(phase: Phase) -> str:
    if not phase.errors:
        return "none"
    return "; ".join(f"{k} x{v} (first: {phase.first_error[k][:160]})"
                     for k, v in sorted(phase.errors.items()))


def emit(record: dict, name: str) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def result_line(correct: bool, phase: Phase, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


# -- modes ---------------------------------------------------------------------


def run_untraced(args) -> int:
    stamp = env_stamp()
    own_setup, wl, _, stream, first = timed_setup(args.workload, args.seed)
    import numpy

    phase = run_phase(first, stream, wl.digest_ops, args.seconds, host_probe=True)
    e2e = end_to_end(phase)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The run's own set-up ends just before the phase's first kernel timing.
    samples = [(own_setup, phase.kernel_s[0])] + setup_probes(
        args.workload, args.seed, SETUP_PROBES)
    setups = [t for t, _ in samples]
    ref_setups = [t * KERNEL_REF_S / k for t, k in samples]
    setup_s = statistics.median(ref_setups)
    stamp.update(numpy=numpy.__version__, loadavg_end=list(os.getloadavg()))
    same_as_ref, verdict = check_verdict(reference_check_ops(args.workload), phase.check_ops)
    correct = phase.check_failures == 0 and same_as_ref

    print(f"specbench {args.workload} seed={args.seed} seconds={args.seconds} trace=0")
    print("env        " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    print(f"ops        {phase.attempted} attempted, {phase.failed} failed, "
          f"{phase.windows} windows; failures: {tally(phase)}")
    print(f"setup_s        {setup_s:.4f} ref_s, reported in unit s (median of {len(setups)} "
          "set-ups; ref " + ", ".join(f"{s:.3f}" for s in ref_setups)
          + "; wall " + ", ".join(f"{s:.3f}" for s in setups) + ")")
    kernel = statistics.median(phase.kernel_s)
    print(f"host       host_kernel() median {1e3 * kernel:.2f} ms over {len(phase.kernel_s)} "
          f"timings (reference {1e3 * KERNEL_REF_S:g} ms), range "
          f"{1e3 * min(phase.kernel_s):.2f}-{1e3 * max(phase.kernel_s):.2f} ms")
    print(f"windows_per_s  {e2e['windows_per_s']:.1f} windows/ref_s "
          f"(wall {e2e['wall_windows_per_s']:.1f} windows/s)")
    print(f"op_p50_ms      {e2e['op_p50_ms']:.3f} ref_ms (wall {e2e['wall_op_p50_ms']:.3f} ms)")
    print(f"op_tail_ms     {e2e['op_tail_ms']:.3f} ref_ms (wall {e2e['wall_op_tail_ms']:.3f} ms; "
          f"p{e2e['tail_percentile']:g} of {phase.attempted} ops, failed ops ranked last)")
    print(f"failed_frac    {e2e['failed_frac']:.4f}")
    print(f"peak_rss_mb    {rss_mb:.1f} MB")
    print(f"digest     {phase.digest} over the {wl.digest_ops} check ops: {verdict}")

    metrics = {
        "setup_s": (setup_s, "s"),
        "windows_per_s": (e2e["windows_per_s"], "windows/ref_s"),
        "op_p50_ms": (e2e["op_p50_ms"], "ref_ms"),
        "op_tail_ms": (e2e["op_tail_ms"], "ref_ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    emit({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": 0,
        "env": stamp, "attempted": phase.attempted, "failed": phase.failed,
        "failures": phase.errors, "correct": correct, "digest": phase.digest,
        "digest_verdict": verdict, "check_ops": phase.check_ops, "setup_samples_s": setups,
        "setup_samples_ref_s": ref_setups, "setup_kernel_s": [k for _, k in samples],
        "op_latency_s": phase.latency, "op_windows": phase.op_windows,
        "blocks": phase.blocks, "kernel_s": phase.kernel_s,
        "metrics": dict(e2e, setup_s=setup_s, peak_rss_mb=rss_mb),
    }, f"{args.workload}-seed{args.seed}-trace0.json")
    print(result_line(correct, phase, metrics))
    return 0 if correct else 1


def traced_pair(wl, ctx, seed: int, seconds: float, ops: int | None):
    """Run the digest ops untraced, then the same stream traced.

    With ``ops`` set, both passes run exactly that many ops.
    """
    import tracing
    from workloads import stream as op_stream

    first_n = ops if ops is not None else wl.digest_ops
    stream = op_stream(wl, ctx, seed)
    t_start = perf_counter()
    plain = run_phase(next(stream), stream, first_n, 0.0, max_ops=first_n)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        stream = op_stream(wl, ctx, seed)
        left = max(0.0, seconds - (perf_counter() - t_start))
        traced = run_phase(next(stream), stream, first_n, left, max_ops=ops, tracer=tracer)
    finally:
        tracer.restore()
    return plain, traced, tracer


def run_traced(args) -> int:
    stamp = env_stamp()
    _, wl, ctx, _, _ = timed_setup(args.workload, args.seed)
    import numpy
    import tracing
    from workloads import engine_counters

    plain, traced, tracer = traced_pair(wl, ctx, args.seed, args.seconds, None)
    n = wl.digest_ops
    slowdown = sum(traced.latency[:n]) / sum(plain.latency[:n])
    same = plain.digest == traced.digest
    same_as_ref, verdict = check_verdict(reference_check_ops(args.workload), plain.check_ops)
    correct = (same and same_as_ref and plain.check_failures == 0
               and traced.check_failures == 0)
    stamp.update(numpy=numpy.__version__, loadavg_end=list(os.getloadavg()))

    layers = tracing.per_layer(tracer, traced.attempted)
    eng = engine_counters(traced.sims)
    layers.update({
        "pipeline.decode_starts": (eng["decode_starts"] / n, "count/op"),
        "pipeline.retry_frac": (eng["retry_frac"], "frac"),
        "pipeline.useful_compute_frac": (eng["useful_compute_frac"], "frac"),
        "pipeline.wait_rounds": (eng["wait_rounds"] / n, "rounds/op"),
        "pipeline.peak_decoders": (float(eng["peak_decoders"]), "count"),
        "trace.slowdown": (slowdown, "x"),
    })

    print(f"specbench {args.workload} seed={args.seed} seconds={args.seconds} trace=1")
    print("env        " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    print(f"ops        {traced.attempted} traced ({traced.failed} failed); "
          f"failures: {tally(traced)}")
    wps_plain = sum(plain.op_windows[:n]) / sum(plain.latency[:n])
    wps_traced = sum(traced.op_windows[:n]) / sum(traced.latency[:n])
    print(f"overhead   first {n} ops: untraced {wps_plain:.1f} windows/s, traced "
          f"{wps_traced:.1f} windows/s, slowdown x{slowdown:.3f}")
    print(f"digest     untraced {plain.digest}")
    print(f"           traced   {traced.digest}: {'equal' if same else 'DIFFERENT'}; "
          f"{verdict}")
    print()
    tracing.layer_table(tracer, traced.attempted)
    print()
    for name, (value, unit) in layers.items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write_spans(spans_file)
    print(f"spans      {len(tracer.spans)} written to {spans_file.relative_to(ROOT)}")
    emit({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": 1,
        "env": stamp, "attempted": traced.attempted, "failed": traced.failed,
        "failures": traced.errors, "correct": correct, "digest_untraced": plain.digest,
        "digest_traced": traced.digest, "metrics": {n: v for n, (v, _) in layers.items()},
    }, f"{args.workload}-seed{args.seed}-trace1.json")
    print(result_line(correct, traced, layers))
    return 0 if correct else 1


def run_smoke() -> int:
    """A few ops of every workload, traced and untraced."""
    add_paths()
    import tracing

    before = [(owner, attr, tracing.lookup(owner, attr))
              for owner, attr in tracing.wrapped_names()]
    ok = True
    for name, n in SMOKE_OPS.items():
        _, wl, ctx, _, _ = timed_setup(name, 0)
        plain, traced, tracer = traced_pair(wl, ctx, 0, 0.0, n)
        same = plain.digest == traced.digest
        clean = plain.check_failures == 0 and traced.check_failures == 0
        ok &= same and clean and traced.attempted == n and tracer.spans != []
        print(f"smoke {name:<17} {n} ops, {plain.failed} failed: digests "
              f"{'equal' if same else 'DIFFERENT'}, checks {'pass' if clean else 'FAIL'}, "
              f"{len(tracer.spans)} spans")
    moved = [f"{getattr(o, '__name__', 'PREDICTORS')}.{a}" for o, a, fn in before
             if tracing.lookup(o, a) is not fn]
    print(f"smoke restore: {'every wrapped name restored' if not moved else moved}")
    return 0 if ok and not moved else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, then one summary table."""
    names = list(SMOKE_OPS)
    rows, status = [], 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=seconds + 170,
        )
        print(proc.stdout.rstrip("\n").rsplit("\n", 1)[0])
        status |= proc.returncode
        rows.append(json.loads((OUT_DIR / f"{name}-seed{seed}-trace0.json").read_text()))
    print()
    print(f"{'workload':<17} {'setup_s':>8} {'win/ref_s':>10} {'p50_refms':>9} {'tail_refms':>10} "
          f"{'failed':>7} {'rss_MB':>7}  digest")
    for name, r in zip(names, rows):
        m = r["metrics"]
        print(f"{name:<17} {m['setup_s']:>8.3f} {m['windows_per_s']:>10.1f} "
              f"{m['op_p50_ms']:>9.1f} {m['op_tail_ms']:>10.1f} {m['failed_frac']:>7.3f} "
              f"{m['peak_rss_mb']:>7.1f}  {r['digest'][:16]} {r['digest_verdict']}; "
              f"failures {r['failures'] or 'none'}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(SMOKE_OPS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="few-op check of every workload")
    ap.add_argument("--all", action="store_true", help="every workload, one process each")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "specwin" / "__init__.py").is_file():
        print(f"specbench: no specwin sources in {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return run_smoke()
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        if args.setup_probe:
            print(setup_probe(args.workload, args.seed))
            return 0
        return run_traced(args) if args.trace else run_untraced(args)
    except SetupError as exc:
        print(f"specbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
