"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workloads paper_figures,long_horizon \
        --seeds 0-9 --seconds 30 --trace 0 [--out summary.json]

Runs ``run.py`` once per (workload, seed), one run at a time, and reports
for every metric its median, quartiles and spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median.  The bounds in ``BENCHMARK.json`` are checked against these
spreads; a before/after comparison runs this on both commits.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def parse_seeds(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: (final JSON result, machine info)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    info = next((json.loads(line[5:]) for line in lines if line.startswith("info ")), {})
    return json.loads(lines[-1]), info


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True, help="comma-separated names")
    ap.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,7")
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the summary JSON here")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            result, info = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            summary["info"] = info
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"{result['failed']}/{result['attempted']} failed  " + "  ".join(
                      f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()
                      if not args.trace), file=sys.stderr, flush=True)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            metrics[name] = dict(summarise([r["metrics"][name]["value"] for r in runs]),
                                 unit=first["unit"])
        summary["workloads"][workload] = {
            "runs": len(runs),
            "all_correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics,
        }
        for name, m in metrics.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if m["spread"] < bound / 3 else "SPREAD >= bound/3"
            print(f"{workload:14s} {name:34s} median {m['median']:<12.6g} "
                  f"spread {m['spread']:.4f}  {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
