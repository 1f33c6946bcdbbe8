"""Self-tests of the benchmark (not part of the package's test suite).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))
import lqpower  # noqa: E402
from lqpower import cli  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(capsys, argv) -> dict:
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run(workload, capsys):
    res = _result(capsys, ["--workload", workload, "--seed", "3", "--seconds", "0",
                           "--size", "tiny"])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0


def test_tiny_traced_run_reports_every_layer_metric(capsys):
    res = _result(capsys, ["--workload", "monte_carlo", "--seed", "1",
                           "--seconds", "0", "--size", "tiny", "--trace", "1"])
    assert res["correct"]
    assert set(res["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["simulator.mc_calls"] == 2
    assert m["simulator.slot_steps"] == 2 * 4000 * 30
    assert m["optimizer.optimize_calls"] == 2 and m["optimizer.unconverged"] == 0
    assert m["model.slot_steps"] > 0 and m["experiments.csv_bytes"] > 0


def test_same_seed_same_inputs(tmp_path):
    a = workloads.build("long_horizon", 5, tmp_path / "a")
    b = workloads.build("long_horizon", 5, tmp_path / "b")
    c = workloads.build("long_horizon", 6, tmp_path / "c")
    assert [op.scenarios for op in a] == [op.scenarios for op in b]
    assert [op.scenarios for op in a] != [op.scenarios for op in c]


def test_exact_cost_matches_package_model():
    rng = random.Random(0)
    for _ in range(20):
        T = rng.randint(1, 25)
        sys_ = dict(workloads.FIG4_SYS, T=T, a=rng.uniform(0.8, 1.2),
                    sigma_d2=rng.uniform(0, 0.3))
        ch = dict(workloads.CHANNEL, p_max=rng.uniform(0.5, 4))
        powers = [rng.choice([0.0, rng.uniform(0.01, ch["p_max"])]) for _ in range(T)]
        sp = lqpower.SystemParams(**sys_)
        cp = lqpower.ChannelParams(**ch)
        want = lqpower.expected_cost(sp, cp, lqpower.policy_to_success(powers, cp), 1.0)
        assert check.exact_cost(sys_, ch, powers, 1.0) == pytest.approx(want, rel=1e-12)


def _ran_ops(tmp_path, workload="monte_carlo"):
    ops = workloads.build(workload, 2, tmp_path, "tiny")
    for op in ops:
        _, err = run.run_op(cli, op)
        assert err is None
        check.check_op(op)
    return ops


def _rewrite(path: Path, row: int, col: int, fn) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = fn(cells[col])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _other_power(v: str) -> str:
    """A different feasible power, with its success probability to match."""
    p = float(v) * 0.5 + 0.1
    return f"{p!r},{math.exp(-1.0 / p)!r}"  # theta = 1 in every workload


@pytest.mark.parametrize("name,row,col,fn", [
    ("policy.csv", 1, 1, lambda v: repr(float(v) * 0.5 + 0.1)),  # pi mismatch
    ("policy.csv", -1, 1, lambda v: "0.5"),                   # terminal slot on
    ("policy.csv", 1, 1, lambda v: "99"),                     # above p_max
    ("trace.csv", -1, 1, lambda v: repr(float(v) * (1 + 1e-8))),  # wrong cost
    ("report.csv", 1, 0, lambda v: repr(float(v) * 3)),       # MC mean off
])
def test_tampered_output_fails_check(tmp_path, name, row, col, fn):
    op = _ran_ops(tmp_path)[0]
    _rewrite(op.out / name, row, col, fn)
    with pytest.raises(check.CheckError):
        check.check_op(op)


def test_consistent_but_different_policy_fails_cost_check(tmp_path):
    op = _ran_ops(tmp_path)[0]
    path = op.out / "policy.csv"
    lines = path.read_text().splitlines()
    t, p, _ = lines[1].split(",")
    lines[1] = f"{t},{_other_power(p)}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(check.CheckError, match="reported cost"):
        check.check_op(op)


def test_wrong_reported_cost_counts_as_failed_operation(tmp_path):
    class TamperingCli:
        """Runs the real CLI, then corrupts the cost it reported."""

        @staticmethod
        def main(argv):
            rc = cli.main(argv)
            out = Path(argv[argv.index("--out") + 1])
            _rewrite(out / "trace.csv", -1, 1, lambda v: repr(float(v) + 1e-6))
            return rc

    ops = workloads.build("long_horizon", 0, tmp_path, "tiny")
    res = run.run_pass(TamperingCli, ops, {}, traced=False)
    assert len(res.times) == 2 and len(res.errors) == 2
    assert run.run_pass(cli, ops, {}, traced=False).errors == []


def test_tracer_restores_and_tolerates_missing_functions(tmp_path):
    original = lqpower.optimizer.expected_cost
    with Tracer() as t:
        assert lqpower.optimizer.expected_cost is not original
        op = workloads.build("long_horizon", 0, tmp_path, "tiny")[0]
        assert run.run_op(cli, op)[1] is None
    assert lqpower.optimizer.expected_cost is original
    assert lqpower.model.expected_cost is original
    assert t.calls("model.expected_cost") > 0
    assert t.calls("optimizer.no_such_function") == 0
    assert all(v == 0 for v in run.layer_metrics(Tracer(), 0).values())


def test_speed_sampler_samples_and_restores_signal_state():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedSampler(workloads.MONTE_CARLO_WORK) as sampler:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.3:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 2 and 0 < sampler.spent < 0.3
    assert set(sampler.part_speeds()) == set(workloads.MONTE_CARLO_WORK)
    assert 0 < sampler.scaled(0.3) and sampler.speed() > 0


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "monte_carlo",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
