"""Command line front end.

Subcommands:
    run             simulate one program and summarize (or export) the result
    sweep-latency   compare reaction times across decoder latency models
    predictor-eval  score the dependency-bit predictors on sampled windows
    recovery-eval   compare wasted compute across recovery strategies
    processors      size a decoder pool and check it against unlimited
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from contextlib import nullcontext
from dataclasses import replace

from .pipeline import (
    RECOVERY_STRATEGIES,
    SPECULATION_MODES,
    SimConfig,
    occupancy_stats,
    parse_latency,
    processor_heuristic,
    simulate,
    simulate_many,
)
from .predictor import check_eval_args, evaluate_predictors, write_accuracy_csv
from .program import (
    BUILTIN_PROGRAMS,
    Program,
    builtin_program,
    check_whole,
    parse_program,
)
from .render import trace_svg, write_trace_csv
from .windowing import STRATEGIES

__all__ = ["main"]


def _add_program_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group()
    src.add_argument(
        "--builtin",
        default="repeated_t",
        choices=sorted(BUILTIN_PROGRAMS),
        help="built-in benchmark circuit (default: %(default)s)",
    )
    src.add_argument("--program-file", help="JSON program description")
    p.add_argument("--d", default=11, help="code distance (default: %(default)s)")
    p.add_argument("--count", default=None, help="repetition count for builtins that take one")


def _add_sim_args(
    p: argparse.ArgumentParser, latency: bool = True, processors: bool = True
) -> None:
    """Simulation options; a subcommand that sets the latency or the pool
    size itself leaves that option out."""
    p.add_argument("--strategy", default=SimConfig.strategy, choices=sorted(STRATEGIES))
    p.add_argument("--spec", default=SimConfig.speculation, choices=SPECULATION_MODES)
    p.add_argument("--accuracy", type=float, default=SimConfig.accuracy)
    p.add_argument("--accuracy-adjacent", type=float, default=SimConfig.accuracy_adjacent)
    p.add_argument("--recovery", default=SimConfig.recovery, choices=RECOVERY_STRATEGIES)
    if latency:
        p.add_argument(
            "--latency",
            default="linear:1.0",
            help="decoder latency: fixed:N, fixed:Fd, linear:RATE, empirical:FILE",
        )
    if processors:
        p.add_argument(
            "--processors",
            default="unlimited",
            help="decoder pool size: a number, 'auto' (heuristic), or 'unlimited'",
        )
    p.add_argument(
        "--noise-p", type=float, default=SimConfig.noise_p, help="integrated-mode error rate"
    )
    p.add_argument("--seed", default=SimConfig.seed)
    p.add_argument(
        "--no-stall",
        action="store_true",
        help="let conditional gates start on schedule instead of waiting for decoding",
    )


# Whole-number options and their least values.  argparse keeps them as text
# and main() reads them with check_whole, so "3.0" means 3 here as it does
# through the Python API.  --processors also takes 'auto' and 'unlimited'
# and is read by _build_config.
_WHOLE_OPTIONS = (("d", 3), ("count", 1), ("seed", 0), ("shots", 1))


def _number(text):
    """``text`` as an int, or else a float; anything that is not a string,
    or names neither, comes back as it is."""
    if not isinstance(text, str):
        return text
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _read_whole_options(args: argparse.Namespace) -> None:
    for dest, least in _WHOLE_OPTIONS:
        v = getattr(args, dest, None)
        if v is None:
            continue
        option = f"--{dest}"
        if isinstance(v, list):
            setattr(args, dest, [check_whole(option, _number(t), least) for t in v])
        else:
            setattr(args, dest, check_whole(option, _number(v), least))


def _with(args: argparse.Namespace, **over) -> argparse.Namespace:
    merged = vars(args).copy()
    merged.update(over)
    return argparse.Namespace(**merged)


def _load_program(args: argparse.Namespace) -> Program:
    if args.program_file:
        with open(args.program_file) as fh:
            return parse_program(json.load(fh))
    params = {} if args.count is None else {"count": args.count}
    return builtin_program(args.builtin, args.d, **params)


def _build_config(args: argparse.Namespace, program: Program) -> SimConfig:
    """The checked config of ``args``; ``_size_pool`` sizes an 'auto' pool,
    once every config of the command is checked."""
    cfg = SimConfig(
        strategy=args.strategy,
        speculation=args.spec,
        accuracy=args.accuracy,
        accuracy_adjacent=args.accuracy_adjacent,
        recovery=args.recovery,
        latency=parse_latency(args.latency, program.distance),
        seed=args.seed,
        stall_blocking=not args.no_stall,
        noise_p=args.noise_p,
    )
    if args.processors not in ("auto", "unlimited"):
        n = _number(args.processors)
        if isinstance(n, str):
            raise ValueError(
                f"--processors takes a number, 'auto' or 'unlimited', got {args.processors!r}"
            )
        cfg.processors = check_whole("--processors", n, 1)
    cfg.validate(program.distance)
    return cfg


def _size_pool(args: argparse.Namespace, program: Program, cfg: SimConfig) -> None:
    """Set the pool size for ``--processors auto``: a whole probe simulation."""
    if args.processors == "auto":
        cfg.processors = processor_heuristic(program, cfg)


def _summary_lines(program: Program, cfg: SimConfig, result) -> list[str]:
    peak, mean_occ = occupancy_stats(result)
    lines = [
        f"program        {program.name} (d={program.distance}, "
        f"{len(program.instructions)} instructions)",
        f"strategy       {cfg.strategy}, speculation {cfg.speculation}, "
        f"recovery {cfg.recovery}",
        f"runtime        {result.runtime_rounds} rounds ({result.runtime_us:.1f} us)",
    ]
    if result.reactions:
        rs = [r for _, r in result.reactions]
        lines.append(
            f"reaction       mean {statistics.fmean(rs):.1f}, max {max(rs)} rounds "
            f"over {len(rs)} blocking gates"
        )
    lines.append(
        f"compute        valid {result.valid_compute}, wasted {result.wasted_compute} "
        f"round-units, {result.mispredictions} mispredictions"
    )
    lines.append(f"decoders       peak {peak}, mean {mean_occ:.2f} busy")
    return lines


def _open_out(path: str | None, newline: str | None):
    """``--out`` opened for writing, so a path that cannot be written fails
    before anything runs or prints; a null context without one."""
    return open(path, "w", newline=newline) if path else nullcontext()


def cmd_run(args: argparse.Namespace) -> int:
    program = _load_program(args)
    cfg = _build_config(args, program)
    out = args.out or ""
    with _open_out(args.out, None if out.endswith((".svg", ".json")) else "") as fh:
        _size_pool(args, program, cfg)
        result = simulate(program, cfg)
        for line in _summary_lines(program, cfg, result):
            print(line)
        if fh:
            if out.endswith(".svg"):
                fh.write(trace_svg(program, result))
            elif out.endswith(".json"):
                json.dump(result.to_json(), fh, indent=2)
            else:
                write_trace_csv(program, result, fh)
            print(f"wrote {args.out}")
    return 0


def cmd_sweep_latency(args: argparse.Namespace) -> int:
    program = _load_program(args)
    cfgs = [_build_config(_with(args, latency=text), program) for text in args.latencies]
    print(f"{'latency':>16} {'runtime':>8} {'mean_react':>10} {'max_react':>9}")
    for text, cfg in zip(args.latencies, cfgs):
        _size_pool(args, program, cfg)
        result = simulate(program, cfg)
        rs = [r for _, r in result.reactions] or [0]
        print(
            f"{text:>16} {result.runtime_rounds:>8} "
            f"{statistics.fmean(rs):>10.1f} {max(rs):>9}"
        )
    return 0


def cmd_predictor_eval(args: argparse.Namespace) -> int:
    for d in args.d:
        check_eval_args(d, args.p, args.shots)
    with _open_out(args.out, "") as fh:
        rows = []
        for d in args.d:
            rows.extend(evaluate_predictors(d, args.p, args.shots, seed=args.seed))
        print(f"{'d':>3} {'predictor':>10} {'accuracy':>9} {'fp_rate':>8} {'fn_rate':>8}")
        for row in rows:
            print(
                f"{row['d']:>3} {row['predictor']:>10} {row['accuracy']:>9.4f} "
                f"{row['fp_rate']:>8.4f} {row['fn_rate']:>8.4f}"
            )
        if fh:
            write_accuracy_csv(rows, fh)
            print(f"wrote {args.out}")
    return 0


def cmd_recovery_eval(args: argparse.Namespace) -> int:
    program = _load_program(args)
    # The recovery scope only acts on mispredictions, and the 'auto' pool
    # probe runs with perfect speculation, so one config per seed serves all.
    cfgs = [_build_config(_with(args, seed=args.seed + s), program) for s in range(args.shots)]
    for cfg in cfgs:
        _size_pool(args, program, cfg)
    print(f"{'recovery':>12} {'wasted':>10} {'valid':>10} {'mispred':>8}")
    for rec in RECOVERY_STRATEGIES:
        wasted, valid, mis = 0, 0, 0
        for result in simulate_many(program, [replace(cfg, recovery=rec) for cfg in cfgs]):
            wasted += result.wasted_compute
            valid += result.valid_compute
            mis += result.mispredictions
        n = args.shots
        print(f"{rec:>12} {wasted / n:>10.1f} {valid / n:>10.1f} {mis / n:>8.2f}")
    return 0


def cmd_processors(args: argparse.Namespace) -> int:
    program = _load_program(args)
    base_args = _with(args, processors="unlimited")
    cfg = _build_config(base_args, program)
    limit = processor_heuristic(program, cfg)
    unlimited = simulate(program, cfg)
    limited = simulate(program, replace(cfg, processors=limit))
    peak_unlim, mean_unlim = occupancy_stats(unlimited)
    peak_lim, _ = occupancy_stats(limited)
    ratio = peak_unlim / limit if limit else float("inf")
    print(f"recommended    {limit} decoders")
    print(f"unlimited      peak {peak_unlim}, mean {mean_unlim:.2f}, "
          f"runtime {unlimited.runtime_rounds}")
    print(f"limited        peak {peak_lim}, runtime {limited.runtime_rounds}")
    print(f"peak/limit     {ratio:.2f}")
    delta = limited.runtime_rounds - unlimited.runtime_rounds
    print(f"runtime delta  {delta} rounds "
          f"({100.0 * delta / max(1, unlimited.runtime_rounds):.2f}%)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specwin",
        description="Round-level simulator of speculative windowed decoding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate one program")
    _add_program_args(p)
    _add_sim_args(p)
    p.add_argument("--out", help="write trace (.csv default, .svg, or .json)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep-latency", help="reaction times across latency models")
    _add_program_args(p)
    _add_sim_args(p, latency=False)
    p.add_argument(
        "latencies", nargs="+", metavar="LATENCY", help="latency models to sweep"
    )
    p.set_defaults(func=cmd_sweep_latency)

    p = sub.add_parser("predictor-eval", help="score dependency-bit predictors")
    p.add_argument("--d", nargs="+", default=[13, 17, 21, 25])
    p.add_argument("--p", type=float, default=1e-3, help="error rate per edge")
    p.add_argument("--shots", default=10000)
    p.add_argument("--seed", default=0)
    p.add_argument("--out", help="write rates as CSV")
    p.set_defaults(func=cmd_predictor_eval)

    p = sub.add_parser("recovery-eval", help="wasted compute per recovery strategy")
    _add_program_args(p)
    _add_sim_args(p)
    p.add_argument("--shots", default=100, help="seeds per strategy")
    p.set_defaults(func=cmd_recovery_eval)

    p = sub.add_parser("processors", help="size a decoder pool")
    _add_program_args(p)
    _add_sim_args(p, processors=False)
    p.set_defaults(func=cmd_processors)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _read_whole_options(args)
        return args.func(args)
    except (ValueError, OSError) as exc:  # a ProgramError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
