"""lqpower benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload paper_figures --seed 0 --seconds 42 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and driven in-process through ``lqpower.cli.main``, one operation
(one CLI call) at a time, in a single process with no extra threads.  The
workloads are described in ``workloads.py``.

A run times set-up, then repeats passes over the workload's operations and
stops before the first operation that would end after ``--seconds`` (it
always completes one pass), so the last pass may be partial.  Every
operation's output files are checked by ``check.py``; a failed check counts
toward ``failed`` and does not stop the run.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced passes and reports the per-layer metrics of the complete traced ones
(per pass).

The host's speed swings while a run goes on, so every untraced operation
and every set-up probe runs under ``hostspeed.SpeedSampler``, and the
end-to-end times are those times taken to the host's nominal speed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same metrics by name and unit, the failure share, and the machine,
commit and source size.  Exits 2 without a result when the checkout has no
``src/lqpower``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",         # import lqpower, generate configs and argv (median of probes), scaled
    "wall_scaled_s": "s",   # one pass, tracing off: sum over operations of median time, scaled
    "policy_cost": "cost",  # exact expected cost of every policy one pass writes, summed
    "peak_rss_mb": "MB",    # peak resident set size of the benchmark process
}

PER_LAYER = {
    "model.expected_cost_calls": "count",
    "model.expected_cost_s": "s",
    "model.forward_calls": "count",
    "model.forward_s": "s",
    "model.tables_calls": "count",
    "model.tables_s": "s",
    "model.slot_steps": "count",
    "model.ns_per_slot_step": "ns",
    "model.self_s": "s",
    "optimizer.optimize_calls": "count",
    "optimizer.optimize_s": "s",
    "optimizer.iterations": "count",
    "optimizer.unconverged": "count",
    "optimizer.sweep_calls": "count",
    "optimizer.sweep_self_s": "s",
    "optimizer.useful_sweep_ratio": "ratio",
    "optimizer.trial_evals_per_sweep": "count",
    "optimizer.candidates_self_s": "s",
    "optimizer.root_calls": "count",
    "optimizer.root_s": "s",
    "optimizer.self_s": "s",
    "simulator.mc_calls": "count",
    "simulator.mc_s": "s",
    "simulator.slot_steps": "count",
    "simulator.slot_steps_per_s": "1/s",
    "simulator.uniform_bytes": "B",
    "simulator.self_s": "s",
    "experiments.load_config_s": "s",
    "experiments.self_s": "s",
    "experiments.csv_bytes": "B",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer, csv_bytes: int) -> dict:
    """Per-layer metrics of one traced pass."""
    sweeps = t.calls("optimizer.coordinate_sweep")
    steps = t.counters["model.slot_steps"]
    recursion_s = (t.self_s("model.forward_second_moments")
                   + t.self_s("model.backward_tables"))
    mc_steps = t.counters["simulator.slot_steps"]
    return {
        "model.expected_cost_calls": t.calls("model.expected_cost"),
        "model.expected_cost_s": t.total_s("model.expected_cost"),
        "model.forward_calls": t.calls("model.forward_second_moments"),
        "model.forward_s": t.total_s("model.forward_second_moments"),
        "model.tables_calls": t.calls("model.compute_tables"),
        "model.tables_s": t.total_s("model.compute_tables"),
        "model.slot_steps": steps,
        "model.ns_per_slot_step": _ratio(recursion_s * 1e9, steps),
        "model.self_s": t.layer_self_s("model"),
        "optimizer.optimize_calls": t.calls("optimizer.optimize_policy"),
        "optimizer.optimize_s": t.total_s("optimizer.optimize_policy"),
        "optimizer.iterations": t.counters["optimizer.iterations"],
        "optimizer.unconverged": t.counters["optimizer.unconverged"],
        "optimizer.sweep_calls": sweeps,
        "optimizer.sweep_self_s": t.self_s("optimizer.coordinate_sweep"),
        "optimizer.useful_sweep_ratio":
            _ratio(t.counters["optimizer.useful_sweeps"], sweeps),
        "optimizer.trial_evals_per_sweep": _ratio(
            t.edges["optimizer.coordinate_sweep", "model.expected_cost"], sweeps),
        "optimizer.candidates_self_s": t.self_s("optimizer.slot_candidates"),
        "optimizer.root_calls": t.calls("optimizer.stationary_success"),
        "optimizer.root_s": t.total_s("optimizer.stationary_success"),
        "optimizer.self_s": t.layer_self_s("optimizer"),
        "simulator.mc_calls": t.calls("simulator.monte_carlo_cost"),
        "simulator.mc_s": t.total_s("simulator.monte_carlo_cost"),
        "simulator.slot_steps": mc_steps,
        "simulator.slot_steps_per_s":
            _ratio(mc_steps, t.total_s("simulator.monte_carlo_cost")),
        "simulator.uniform_bytes": t.counters["simulator.uniform_bytes"],
        "simulator.self_s": t.layer_self_s("simulator"),
        "experiments.load_config_s": t.total_s("experiments.load_config"),
        "experiments.self_s": t.layer_self_s("experiments"),
        "experiments.csv_bytes": csv_bytes,
        "cli.self_s": t.layer_self_s("cli"),
    }


# ----------------------------------------------------------------------------
# Operations and passes
# ----------------------------------------------------------------------------

def run_op(cli, op, sampler=None) -> tuple[float, str | None]:
    """Run one CLI call into a fresh output dir: (seconds, error or None).

    With a SpeedSampler, the call runs while it samples; the seconds then
    include the sampler's handler time.
    """
    shutil.rmtree(op.out, ignore_errors=True)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
            sampler or contextlib.nullcontext():
        t0 = perf_counter()
        try:
            rc = cli.main(op.argv)
        except (Exception, SystemExit) as exc:  # counted as a failed operation
            rc = repr(exc)
        dt = perf_counter() - t0
    if rc != 0:
        return dt, f"{op.name}: exit {rc}: {sink.getvalue().strip()[-300:]}"
    return dt, None


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class Pass:
    """Timings, check results and output totals of one pass.

    times, scaled, speeds and costs are keyed by operation name; a pass cut
    short by the deadline lacks the operations it did not run and is not
    complete.  An untraced pass samples the host's speed: times are net of
    the sampler's handler, scaled are times at nominal speed.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.times: dict[str, float] = {}
        self.scaled: dict[str, float] = {}
        self.speeds: dict[str, dict[str, float]] = {}
        self.costs: dict[str, float] = {}
        self.errors: list[str] = []
        self.csv_bytes = 0
        self.layers: dict | None = None
        self.complete = True


def run_pass(cli, ops, refs: dict, traced: bool, deadline: float | None = None,
             longest: dict | None = None) -> Pass:
    """Run ops in order, traced or sampling the host's speed.

    With a deadline, stop before an operation that would end after it,
    judged by ``longest`` (op name, traced) -> its longest time so far.
    """
    res = Pass(traced)
    longest = {} if longest is None else longest
    tracer = Tracer() if traced else None
    for op in ops:
        key = (op.name, traced)
        if deadline is not None and perf_counter() + longest.get(key, 0.0) > deadline:
            res.complete = False
            break
        if tracer is not None:
            with tracer:
                dt, err = run_op(cli, op)
        else:
            sampler = hostspeed.SpeedSampler(op.speed_parts)
            dt, err = run_op(cli, op, sampler)
            res.scaled[op.name] = sampler.scaled(dt)
            res.speeds[op.name] = sampler.part_speeds()
            dt -= sampler.spent
        res.times[op.name] = dt
        longest[key] = max(longest.get(key, 0.0), dt)
        if err is None:
            try:
                res.costs[op.name] = sum(check.check_op(op, refs))
            except check.CheckError as exc:
                err = str(exc)
        if err is not None:
            res.errors.append(err)
        if op.out.exists():
            res.csv_bytes += _dir_bytes(op.out)
    if tracer is not None and res.complete:
        res.layers = layer_metrics(tracer, res.csv_bytes)
    return res


def reference_costs(cli, work: Path) -> dict:
    """Exact costs of the fig4 proposed policies, from ``optimize`` outputs."""
    refs = {}
    for op in workloads.reference_ops(work):
        _, err = run_op(cli, op)
        try:
            if err is not None:
                raise check.CheckError(err)
            refs[op.scenarios[""].T] = check.check_op(op)[0]
        except check.CheckError as exc:
            print(f"reference failed: {exc}", file=sys.stderr)
    return refs


def per_op_median(passes: list[Pass], field: str) -> float:
    """Sum over operations of the operation's median value over passes.

    field is "times", "scaled" or "costs"; a pass that lacks an operation
    (cut short, or its check failed) does not count toward its median.
    """
    names = passes[0].times
    total = 0.0
    for n in names:
        values = [getattr(p, field)[n] for p in passes if n in getattr(p, field)]
        total += statistics.median(values) if values else 0.0
    return total


def wall(passes: list[Pass], field: str = "times") -> float:
    """One pass's time: sum over operations of the median time over passes."""
    return per_op_median(passes, field)


def measure(cli, ops, refs: dict, seconds: float, trace: bool) -> list[Pass]:
    """Passes until the next operation would end after `seconds`.

    The first pass (with tracing, the first untraced and the first traced
    one) always completes; an operation is estimated to take as long as its
    longest run so far.
    """
    passes = []
    longest: dict = {}
    deadline = perf_counter() + seconds
    while True:
        traced = trace and len(passes) % 2 == 1
        must_complete = len(passes) < (2 if trace else 1)
        p = run_pass(cli, ops, refs, traced, None if must_complete else deadline,
                     longest)
        if p.times:
            passes.append(p)
        if not p.complete:
            return passes


# ----------------------------------------------------------------------------
# Set-up and machine information
# ----------------------------------------------------------------------------

def measure_setup(workload: str, seed: int, size: str, work: Path) -> list[dict]:
    """Set-up of SETUP_PROBES fresh interpreters (see probe_setup.py): each
    probe's seconds (net of sampling), seconds at nominal speed, and speed."""
    probes = []
    for i in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), workload, str(seed),
             size, str(work / f"probe{i}")],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        probes.append(json.loads(proc.stdout.splitlines()[-1]))
    return probes


def _git_commit() -> str:
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
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "src_loc": sum(len(f.read_text().splitlines())
                       for f in sorted((SRC / "lqpower").rglob("*.py"))),
    }


# ----------------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------------

def report(args, setup: list[dict], passes: list[Pass]) -> dict:
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = sum(len(p.times) for p in passes)
    failed = sum(len(p.errors) for p in passes)
    if args.trace:
        complete = [p for p in traced if p.complete]
        layers = {k: statistics.fmean(p.layers[k] for p in complete)
                  for k in complete[0].layers}
        layers["trace.wall_s"] = wall(traced)
        layers["trace.overhead_s"] = wall(traced) - wall(untraced)
        metrics = {k: (layers[k], unit) for k, unit in PER_LAYER.items()}
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": statistics.median(p["scaled"] for p in setup),
            "wall_scaled_s": wall(untraced, "scaled"),
            "policy_cost": per_op_median(untraced, "costs"),
            "peak_rss_mb": rss_kb / 1024.0,
        }
        metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}

    info = machine_info()
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}  passes {len(untraced)} untraced + {len(traced)} traced"
          f" ({sum(not p.complete for p in passes)} cut short)")
    print("info " + json.dumps(info, sort_keys=True))
    for p in passes:
        for err in p.errors:
            print(f"FAILED {err}")
    print(f"  {'fail_frac':34s} {failed / attempted:.6g}   ({failed}/{attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    if not args.trace:
        speeds = [hostspeed.combined(v) for p in untraced for v in p.speeds.values()]
        print(f"  unscaled: wall {wall(untraced):.6g} s, set-up "
              f"{statistics.median(p['seconds'] for p in setup):.6g} s; host speed "
              f"{min(speeds):.3g}..{max(speeds):.3g} over operations, "
              f"{min(p['speed'] for p in setup):.3g}.."
              f"{max(p['speed'] for p in setup):.3g} at set-up (1 = nominal)")
    if args.trace:
        self_s = {layer: layers[f"{layer}.self_s"] for layer in LAYERS}
        print("  share of traced time: " + "  ".join(
            f"{k} {_ratio(v, sum(self_s.values())):.1%}" for k, v in self_s.items()))
    print("detail " + json.dumps({
        "setup_probes": setup,
        "op_times_s": [p.times for p in untraced],
        "op_speeds": [p.speeds for p in untraced],
    }))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measurement budget of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="'tiny' shrinks every operation (self-tests)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lqpower" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'lqpower'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lqpower
    import lqpower.cli as cli
    if Path(lqpower.__file__).resolve().parent != (SRC / "lqpower").resolve():
        print(f"error: imported lqpower from {lqpower.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        setup = measure_setup(args.workload, args.seed, args.size, work)
        ops = workloads.build(args.workload, args.seed, work / "run", args.size)
        if args.workload == "paper_figures":
            refs = reference_costs(cli, work / "ref")   # also warms up
        else:
            refs = {}
            run_pass(cli, workloads.build(args.workload, args.seed,
                                          work / "warm", "tiny"), refs, False)
        passes = measure(cli, ops, refs, args.seconds, bool(args.trace))
        result = report(args, setup, passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
