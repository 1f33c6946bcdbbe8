"""Benchmark workloads: a seed becomes a list of CLI operations.

Every operation is one ``lqpower.cli.main(argv)`` call.  Next to its argv,
each operation carries the scenario it solves, written out here from the
published figure parameters rather than read from the package's presets, so
the output check (``check.py``) trusts nothing the package computes.

Workloads (names are fixed; later changes compare against them):

``paper_figures``  ``figure fig2``, ``fig3`` and ``fig4`` in that order: 40
    small optimizations (T <= 30) and 87 Monte Carlo evaluations at 1e4
    replications.  The paper-reproduction path; touches every layer with none
    dominating, and is the only workload where per-scenario overhead in
    ``experiments``/``cli`` and ``run_compare``'s three policies per seed show.
``long_horizon``  ``optimize`` at T = 100 on a fig2-based and a fig4-based
    scenario, ``a`` and ``sigma_d2`` jittered in a narrow band by the seed and
    ``k_max`` pinned to 10 T so every run reaches a fixed point.  Nearly all
    time is in ``model`` + ``optimizer``; no Monte Carlo at all.
``monte_carlo``  ``simulate`` with 1e6 replications at T = 30: fig4
    (Bernoulli channel, Gaussian x1, perturbations on) and fig2 with the
    gain-threshold channel (fixed x1, no perturbation).  Nearly all time is in
    ``simulator.monte_carlo_cost``; one policy per seed, so a change to how
    ``run_compare`` shares random numbers leaves it flat.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("paper_figures", "long_horizon", "monte_carlo")
SIZES = ("full", "tiny")

# Published parameter sets of the reference figures.
CHANNEL = {"gamma": 1.0, "sigma2": 1.0, "gbar": 1.0, "p_max": 3.0}
FIG2_SYS = {"a": 1.1, "b": -1.0, "k": 1.0, "q": 1.0, "r": 0.5,
            "sigma_x2": 1.0, "sigma_d2": 0.0}
FIG3_SYS = dict(FIG2_SYS, k=1.8)
FIG4_SYS = dict(FIG3_SYS, sigma_d2=0.05)
EX2_1 = 1.0  # every figure preset fixes E[x_1^2] = 1
FIG2_VARIANTS = {
    "nominal": {},
    "low_p_max": {"p_max": 1.5},
    "low_a": {"a": 1.05},
    "high_k": {"k": 1.8},
    "high_q": {"q": 2.0},
    "high_r": {"r": 500.0},
}
FIG3_SIGMA_D2 = (0.0, 0.01, 0.05, 0.1, 0.2)
FIG4_HORIZONS = tuple(range(2, 31))

# Half-widths of the relative jitter long_horizon applies to a and sigma_d2.
# Narrow on purpose: iteration counts, and so run time, stay within a few
# percent across seeds, while the program never sees the same inputs twice.
A_JITTER = 0.001
SIGMA_D2_JITTER = 0.01


# Snippet parts (hostspeed.py) matching where an operation's time goes.
# model/optimizer work is interpreter-bound Python and numpy calls on arrays
# of length T; a Monte Carlo run adds streaming over arrays of 1e6
# replications.  Scaling optimizer-bound calls by the large-array part as
# well made their spread worse, not better, so it is left out for them.
OPTIMIZER_WORK = ("python", "small_arrays")
MONTE_CARLO_WORK = ("python", "small_arrays", "large_arrays")


@dataclass(frozen=True)
class Scenario:
    """One optimization problem: plant (with horizon T) and channel."""

    sys: dict
    ch: dict
    ex2_1: float = EX2_1

    @property
    def T(self) -> int:
        return self.sys["T"]


@dataclass
class Op:
    """One CLI call and what its output directory must contain.

    kind is the output layout: "fig2", "fig3", "fig4", "optimize" or
    "simulate".  scenarios maps an output key (fig2 variant name, fig3
    sigma_d2 value, fig4 horizon, or "" for a single policy) to its scenario.
    For "simulate", sim holds the Monte Carlo settings the check needs.
    speed_parts names the parts of the host-speed snippet (``hostspeed.py``)
    that the call's time is scaled by: the kinds of work the call spends its
    time on.
    """

    name: str
    kind: str
    argv: list[str]
    out: Path
    scenarios: dict = field(default_factory=dict)
    sim: dict | None = None
    speed_parts: tuple[str, ...] = OPTIMIZER_WORK


def _write_config(path: Path, sc: Scenario, k_max: int | None = None,
                  sim: dict | None = None) -> Path:
    # Only keys every version of the config schema is expected to keep.
    cfg = {"sys": sc.sys, "ch": sc.ch, "opt": {"ex2_1": sc.ex2_1}}
    if k_max is not None:
        cfg["opt"]["k_max"] = k_max
    if sim is not None:
        cfg["sim"] = {k: v for k, v in sim.items() if k != "n_samples"}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=1))
    return path


def _paper_figures(rng: random.Random, work: Path, size: str) -> list[Op]:
    seed = str(rng.getrandbits(63))
    extra = ["--samples", "200"] if size == "tiny" else []
    fig2 = {}
    for name, over in FIG2_VARIANTS.items():
        ch = dict(CHANNEL, **{k: v for k, v in over.items() if k == "p_max"})
        sys_ = dict(FIG2_SYS, T=30, **{k: v for k, v in over.items() if k != "p_max"})
        fig2[name] = Scenario(sys_, ch)
    fig3 = {s: Scenario(dict(FIG3_SYS, T=30, sigma_d2=s), CHANNEL)
            for s in FIG3_SIGMA_D2}
    fig4 = {T: Scenario(dict(FIG4_SYS, T=T), CHANNEL) for T in FIG4_HORIZONS}
    ops = []
    for which, scenarios in (("fig2", fig2), ("fig3", fig3), ("fig4", fig4)):
        out = work / which
        ops.append(Op(which, which,
                      ["figure", which, "--seed", seed, *extra, "--out", str(out)],
                      out, scenarios))
    return ops


def reference_ops(work: Path) -> list[Op]:
    """``optimize`` calls for every fig4 horizon.

    ``figure fig4`` writes only Monte Carlo costs, not the proposed policies.
    These calls produce those policies, so the check can compare each
    proposed-policy Monte Carlo mean with its exact cost.
    """
    ops = []
    for T in FIG4_HORIZONS:
        sc = Scenario(dict(FIG4_SYS, T=T), CHANNEL)
        cfg = _write_config(work / f"fig4_T{T}.json", sc)
        out = work / f"T{T}"
        ops.append(Op(f"ref_T{T}", "optimize",
                      ["optimize", "--config", str(cfg), "--out", str(out)],
                      out, {"": sc}))
    return ops


def _long_horizon(rng: random.Random, work: Path, size: str) -> list[Op]:
    T = 12 if size == "tiny" else 100
    ops = []
    for name, base in (("fig2", FIG2_SYS), ("fig4", FIG4_SYS)):
        sys_ = dict(base, T=T,
                    a=base["a"] * (1 + rng.uniform(-A_JITTER, A_JITTER)),
                    sigma_d2=base["sigma_d2"]
                    * (1 + rng.uniform(-SIGMA_D2_JITTER, SIGMA_D2_JITTER)))
        sc = Scenario(sys_, CHANNEL)
        cfg = _write_config(work / f"{name}.json", sc, k_max=10 * T)
        out = work / name
        ops.append(Op(name, "optimize",
                      ["optimize", "--config", str(cfg), "--out", str(out)],
                      out, {"": sc}))
    return ops


def _monte_carlo(rng: random.Random, work: Path, size: str) -> list[Op]:
    samples = 4000 if size == "tiny" else 1_000_000
    cases = (
        ("fig4_bernoulli", FIG4_SYS,
         {"channel_model": "bernoulli", "initial_state": "gaussian"}),
        ("fig2_gain_threshold", FIG2_SYS,
         {"channel_model": "gain_threshold", "initial_state": "fixed", "x1": 1.0}),
    )
    ops = []
    for name, base, sim in cases:
        sc = Scenario(dict(base, T=30), CHANNEL)
        sim = dict(sim, n_samples=samples)
        cfg = _write_config(work / f"{name}.json", sc, sim=sim)
        out = work / name
        ops.append(Op(name, "simulate",
                      ["simulate", "--config", str(cfg), "--samples", str(samples),
                       "--seed", str(rng.getrandbits(63)), "--out", str(out)],
                      out, {"": sc}, sim, MONTE_CARLO_WORK))
    return ops


def build(workload: str, seed: int, work: Path, size: str = "full") -> list[Op]:
    """The operations of one pass; writes their config files under work."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r} (valid: {', '.join(SIZES)})")
    makers = {"paper_figures": _paper_figures, "long_horizon": _long_horizon,
                "monte_carlo": _monte_carlo}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r} "
                         f"(valid: {', '.join(WORKLOADS)})")
    rng = random.Random(f"{workload}:{seed}")
    return makers[workload](rng, Path(work), size)
