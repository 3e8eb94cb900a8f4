"""Tests for the command line interface."""

import csv
import json

import pytest

from specwin import cli, pipeline
from specwin.cli import main
from specwin.pipeline import LatencyModel, SimConfig, simulate
from specwin.program import builtin_program, serialize_program


def test_run_summary(capsys):
    rc = main(
        [
            "run",
            "--builtin",
            "repeated_t",
            "--d",
            "11",
            "--count",
            "10",
            "--latency",
            "linear:0.4",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "runtime        442 rounds" in out
    assert "mean 20.0, max 20" in out


def test_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    rc = main(
        [
            "run",
            "--builtin",
            "repeated_t",
            "--d",
            "5",
            "--count",
            "3",
            "--latency",
            "linear:0.4",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["round", "patch_row", "patch_col", "label"]
    assert len(rows) > 1
    capsys.readouterr()


def test_run_writes_svg_and_json(tmp_path, capsys):
    svg = tmp_path / "trace.svg"
    blob = tmp_path / "result.json"
    for out in (svg, blob):
        rc = main(
            [
                "run",
                "--builtin",
                "msd_15to1",
                "--d",
                "3",
                "--latency",
                "fixed:6",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
    assert svg.read_text().startswith("<svg")
    data = json.loads(blob.read_text())
    assert data["runtime_rounds"] > 0
    capsys.readouterr()


def test_run_accepts_program_file(tmp_path, capsys):
    prog = builtin_program("repeated_t", 5, count=2)
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(serialize_program(prog)))
    rc = main(
        ["run", "--program-file", str(path), "--latency", "linear:0.4"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "d=5" in out


def test_run_rejects_bad_latency(capsys):
    rc = main(["run", "--latency", "warp:3"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "latency" in err


def test_run_rejects_missing_file(capsys):
    rc = main(["run", "--program-file", "/nonexistent/prog.json"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_run_rejects_bad_builtin_param(capsys):
    rc = main(["run", "--builtin", "msd_15to1", "--count", "4"])
    assert rc == 2
    assert "count" in capsys.readouterr().err


def test_sweep_latency_table(capsys):
    rc = main(
        [
            "sweep-latency",
            "--builtin",
            "repeated_t",
            "--d",
            "11",
            "--count",
            "5",
            "--no-stall",
            "linear:0.4",
            "fixed:2d",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert "linear:0.4" in lines[1]
    assert "fixed:2d" in lines[2]


def test_predictor_eval_table_and_csv(tmp_path, capsys):
    out = tmp_path / "rates.csv"
    rc = main(
        ["predictor-eval", "--d", "5", "--shots", "50", "--out", str(out)]
    )
    text = capsys.readouterr().out
    assert rc == 0
    for name in ("1step", "2step", "3step"):
        assert name in text
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert all(0.0 <= float(r["accuracy"]) <= 1.0 for r in rows)


def test_recovery_eval_lists_all_strategies(capsys):
    rc = main(
        [
            "recovery-eval",
            "--builtin",
            "zigzag_chain",
            "--d",
            "3",
            "--count",
            "20",
            "--spec",
            "stochastic",
            "--latency",
            "fixed:4",
            "--shots",
            "5",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    for rec in ("optimistic", "adjacent", "pessimistic"):
        assert rec in out


@pytest.mark.parametrize(
    "argv",
    [
        ["predictor-eval", "--d", "5", "--shots", "0"],
        ["predictor-eval", "--d", "5", "--shots", "-3"],
        ["recovery-eval", "--builtin", "zigzag_chain", "--d", "3", "--shots", "0"],
        ["recovery-eval", "--processors", "auto", "--shots", "-3"],
    ],
)
def test_eval_commands_reject_shots_below_one(argv, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("ran a simulation")

    for name in ("simulate", "simulate_many", "processor_heuristic"):
        monkeypatch.setattr(cli, name, no_run)
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "shots" in captured.err


def _program_json(**over) -> dict:
    return {**serialize_program(builtin_program("repeated_t", 3, count=2)), **over}


# Input files that the bad-input cases name as "@name".
BAD_FILES = {
    "fractional_distance.json": _program_json(distance=3.9),
    "instructions_not_a_list.json": _program_json(instructions=5),
    "bucket_not_a_list.json": {"1": 5},
    "buckets_not_an_object.json": [1, 2],
    "empty_bucket.json": {"1": []},
    "rounds_below_one.json": {"1": [-3, 0]},
    "size_below_one.json": {"0": [4]},
    "empty_program.json": _program_json(instructions=[]),
    "fractional_size.json": {"1.5": [4]},
}


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-latency", "--d", "3", "fixed:4", "fixed:0"],
        ["sweep-latency", "--d", "3", "--processors", "auto", "fixed:4", "fixed:0"],
        ["recovery-eval", "--accuracy", "1.5"],
        ["predictor-eval", "--d", "5", "4"],
        ["predictor-eval", "--d", "5", "--p", "1.5"],
        ["run", "--d", "3", "--latency", "linear:inf"],
        ["run", "--d", "3", "--latency", "linear:nan"],
        ["run", "--d", "3", "--latency", "fixed:inf"],
        ["run", "--d", "3", "--latency", "fixed:2.7"],
        ["run", "--d", "3", "--latency", "linear:1e308"],
        ["run", "--program-file", "@fractional_distance.json"],
        ["run", "--program-file", "@instructions_not_a_list.json"],
        ["run", "--d", "3", "--latency", "empirical:@bucket_not_a_list.json"],
        ["run", "--d", "3", "--latency", "empirical:@buckets_not_an_object.json"],
        ["run", "--d", "3", "--latency", "empirical:@empty_bucket.json"],
        ["run", "--d", "3", "--latency", "empirical:@rounds_below_one.json"],
        ["run", "--d", "3", "--latency", "empirical:@size_below_one.json"],
        ["sweep-latency", "--program-file", "@empty_program.json", "fixed:4"],
        ["recovery-eval", "--program-file", "@empty_program.json"],
        ["run", "--d", "3", "--count", "-3"],
        ["run", "--builtin", "msd_15to1", "--d", "3", "--count", "3"],
        ["run", "--d", "3", "--latency", "empirical:@fractional_size.json"],
        ["sweep-latency", "--d", "3", "fixed:4", "linear:abc"],
    ],
)
def test_bad_input_fails_before_anything_runs(argv, monkeypatch, capsys, tmp_path):
    def no_run(*args, **kwargs):
        raise AssertionError("ran before validating")

    for name, content in BAD_FILES.items():
        (tmp_path / name).write_text(json.dumps(content))
    argv = [arg.replace("@", f"{tmp_path}/") for arg in argv]

    for name in ("simulate", "simulate_many", "processor_heuristic", "evaluate_predictors"):
        monkeypatch.setattr(cli, name, no_run)
    # processor_heuristic's probe goes through the pipeline's own name.
    monkeypatch.setattr(pipeline, "simulate", no_run)
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_processors_auto_probes_only_valid_configs(monkeypatch, capsys):
    probes = []
    simulate_fn = pipeline.simulate

    def counting(program, cfg):
        probes.append(cfg)
        return simulate_fn(program, cfg)

    monkeypatch.setattr(pipeline, "simulate", counting)
    rc = main(["run", "--d", "3", "--processors", "auto", "--accuracy", "1.5"])
    assert rc == 2
    assert probes == []
    assert "accuracy" in capsys.readouterr().err


def test_processors_rejects_a_non_number(capsys):
    rc = main(["run", "--d", "3", "--processors", "abc"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == (
        "error: --processors takes a number, 'auto' or 'unlimited', got 'abc'\n"
    )


@pytest.mark.parametrize(
    "spec,message",
    [
        ("fixed:abc", "latency spec 'fixed:abc' needs a number, got 'abc'"),
        ("fixed:xd", "latency spec 'fixed:xd' needs a number, got 'xd'"),
        ("linear:abc", "latency spec 'linear:abc' needs a number, got 'abc'"),
        (
            "empirical:@fractional_size.json",
            "empirical latency bucket '1.5': task size must be a whole number >= 1, got '1.5'",
        ),
    ],
    ids=["fixed", "fixed-per-d", "linear", "empirical"],
)
def test_latency_specs_name_themselves(spec, message, capsys, tmp_path):
    (tmp_path / "fractional_size.json").write_text(json.dumps(BAD_FILES["fractional_size.json"]))
    rc = main(["run", "--d", "3", "--latency", spec.replace("@", f"{tmp_path}/")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_recovery_eval_table_matches_serial_runs(capsys):
    rc = main(
        [
            "recovery-eval",
            "--builtin",
            "zigzag_chain",
            "--d",
            "3",
            "--count",
            "20",
            "--spec",
            "stochastic",
            "--latency",
            "fixed:4",
            "--shots",
            "7",
            "--seed",
            "11",
        ]
    )
    assert rc == 0
    prog = builtin_program("zigzag_chain", 3, count=20)
    lines = [f"{'recovery':>12} {'wasted':>10} {'valid':>10} {'mispred':>8}"]
    for rec in ("optimistic", "adjacent", "pessimistic"):
        runs = [
            simulate(
                prog,
                SimConfig(
                    speculation="stochastic",
                    recovery=rec,
                    latency=LatencyModel.fixed(4),
                    seed=11 + s,
                ),
            )
            for s in range(7)
        ]
        wasted = sum(r.wasted_compute for r in runs)
        valid = sum(r.valid_compute for r in runs)
        mis = sum(r.mispredictions for r in runs)
        lines.append(f"{rec:>12} {wasted / 7:>10.1f} {valid / 7:>10.1f} {mis / 7:>8.2f}")
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


def test_recovery_eval_probes_the_pool_once_per_seed(monkeypatch, capsys):
    probed = []
    heuristic = cli.processor_heuristic

    def counting(program, cfg):
        probed.append(cfg.seed)
        return heuristic(program, cfg)

    monkeypatch.setattr(cli, "processor_heuristic", counting)
    rc = main(
        [
            "recovery-eval",
            "--builtin",
            "zigzag_chain",
            "--d",
            "3",
            "--count",
            "6",
            "--spec",
            "stochastic",
            "--processors",
            "auto",
            "--shots",
            "3",
            "--seed",
            "5",
        ]
    )
    assert rc == 0
    assert probed == [5, 6, 7]
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_processors_report(capsys):
    rc = main(
        [
            "processors",
            "--builtin",
            "repeated_t",
            "--d",
            "7",
            "--count",
            "5",
            "--strategy",
            "parallel",
            "--spec",
            "stochastic",
            "--seed",
            "3",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "recommended" in out
    assert "runtime delta" in out


def test_processors_auto_flag(capsys):
    rc = main(
        [
            "run",
            "--builtin",
            "repeated_t",
            "--d",
            "7",
            "--count",
            "5",
            "--strategy",
            "parallel",
            "--spec",
            "stochastic",
            "--processors",
            "auto",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "runtime" in out


def test_unknown_command_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-latency", "--d", "5", "--latency", "fixed:3", "fixed:2"],
        ["processors", "--d", "5", "--processors", "2"],
    ],
)
def test_options_a_subcommand_sets_itself_are_rejected(argv, capsys):
    # sweep-latency runs each listed latency and processors sizes the pool,
    # so neither takes the option it would silently override.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
