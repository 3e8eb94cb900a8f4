"""Tests of the benchmark harness itself.

    python3 -m pytest specbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.add_paths()

from workloads import WORKLOADS, stream  # noqa: E402


def test_smoke_digests_agree_and_names_restored(capsys):
    assert run.run_smoke() == 0
    out = capsys.readouterr().out
    assert out.count("digests equal") == len(WORKLOADS)
    assert "every wrapped name restored" in out


def test_op_stream_depends_only_on_seed():
    for wl in WORKLOADS.values():
        ctx = wl.prepare()

        def labels(seed):
            stream = wl.ops(ctx, seed)
            return [next(stream).label for _ in range(4)]

        assert labels(3) == labels(3)
        assert labels(3) != labels(4)


def test_check_ops_open_every_stream():
    for wl in WORKLOADS.values():
        ctx = wl.prepare()

        def labels(seed):
            ops = stream(wl, ctx, seed)
            return [next(ops).label for _ in range(wl.digest_ops + 1)]

        first, second = labels(3), labels(4)
        assert first[:-1] == second[:-1]
        assert first[-1] != second[-1]


def test_reference_has_every_check_op():
    ref = json.loads((HERE / "reference.json").read_text())["workloads"]
    for name, wl in WORKLOADS.items():
        assert ref[name]["digest_ops"] == len(ref[name]["check_ops"]) == wl.digest_ops


def test_changed_check_op_fails_unless_it_raised_in_reference():
    want = [{"sha256": "a", "raised": None}, {"sha256": "b", "raised": "IndexError"}]
    assert run.check_verdict(want, want)[0]
    fixed = [want[0], {"sha256": "c", "raised": None}]
    assert run.check_verdict(want, fixed)[0]
    changed = [{"sha256": "d", "raised": None}, want[1]]
    assert not run.check_verdict(want, changed)[0]
    assert not run.check_verdict(want, want[:1])[0]


def test_digest_does_not_depend_on_run_length():
    wl = WORKLOADS["stochastic_sweep"]
    ctx = wl.prepare()
    digests = set()
    for seconds in (0.0, 0.5):
        ops = stream(wl, ctx, 7)
        phase = run.run_phase(next(ops), ops, wl.digest_ops, seconds)
        digests.add(phase.digest)
    assert len(digests) == 1


def test_tail_percentile_keeps_ten_ops_beyond():
    assert run.tail_percentile(3500) == 99.0
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(999) == 95.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(15) == 50.0


def test_failed_op_ranks_slowest():
    phase = run.Phase(0)
    phase.latency = [0.001, 0.002, 0.003, 0.010]
    phase.ok = [True, True, False, True]
    phase.op_windows = [10, 10, 0, 10]
    e2e = run.end_to_end(phase)
    assert e2e["op_p50_ms"] == 2.0  # the 3 ms failure sorts above 10 ms
    assert e2e["failed_frac"] == 0.25
    assert abs(e2e["windows_per_s"] - 30 / 0.016) < 1e-9


def test_block_times_rescale_by_host_kernel():
    ref = run.KERNEL_REF_S
    phase = run.Phase(0)
    phase.latency = [0.5, 0.5, 1.0, 1.0]
    phase.ok = [True] * 4
    phase.op_windows = [10] * 4
    phase.blocks = [(0, 2), (2, 4)]
    phase.kernel_s = [ref, ref, 2 * ref]  # the host slowed down during block 2
    want = [0.5, 0.5, 2 / 3, 2 / 3]
    assert all(abs(x - y) < 1e-12 for x, y in zip(run.ref_latency(phase), want))
    e2e = run.end_to_end(phase)
    assert abs(e2e["windows_per_s"] - 40 / (1.0 + 4 / 3)) < 1e-9
    assert e2e["wall_windows_per_s"] == 40 / 3.0


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "specbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bench = HERE.parent / "BENCHMARK.json"
    if bench.is_file():
        shutil.copy(bench, tmp_path)
    proc = subprocess.run(
        [sys.executable, "specbench/run.py", "--workload", "stochastic_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
