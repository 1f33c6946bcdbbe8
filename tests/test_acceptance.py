"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Criterion 8's horizon-30 cost-ratio gate is expected to fail;
see the repository notes: the proposed policy's cost has a per-slot floor
that keeps the full-power baseline within a factor of about two of it, so a
min-over-baselines ratio of 10 (let alone about 50) is not reachable at
these parameters.  The open-loop ratio, reported in the failure detail,
lands where the reference experiments put it.
"""

import math
import time
from dataclasses import replace

import numpy as np

from lqpower import (
    ChannelParams,
    OptimizerConfig,
    SimConfig,
    SystemParams,
    backward_tables,
    baseline_policy,
    compute_tables,
    expected_cost,
    monte_carlo_cost,
    optimize_policy,
    policy_to_success,
    power_to_success,
    success_to_power,
)
from lqpower.cli import main
from oracles import (
    cost_slope,
    expected_cost_enumerated,
    fbar_direct,
    fd_slope,
    fs_direct,
    interior_success,
    random_channel,
    random_success,
    random_system,
)

FIG2_SYS = SystemParams(a=1.1, b=-1.0, k=1.0, q=1.0, r=0.5,
                        sigma_x2=1.0, sigma_d2=0.0, T=30)
FIG4_SYS = SystemParams(a=1.1, b=-1.0, k=1.8, q=1.0, r=0.5,
                        sigma_x2=1.0, sigma_d2=0.05, T=30)
CH = ChannelParams(gamma=1.0, sigma2=1.0, gbar=1.0, p_max=3.0)
CFG = OptimizerConfig(ex2_1=1.0)


def _report(name: str, ok: bool, detail: str = ""):
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        s = random_system(rng, t_max=10)
        ch = random_channel(rng)
        pi = random_success(rng, ch, s.T)
        c_closed = expected_cost(s, ch, pi)
        c_enum = expected_cost_enumerated(s, ch, pi)
        worst = max(worst, abs(c_closed - c_enum) / max(1.0, abs(c_closed)))
    elapsed = time.perf_counter() - start
    _report("criterion 1, closed form vs enumeration oracle",
            worst <= 1e-9 and elapsed < 5.0,
            f"worst rel err {worst:.2e}, {elapsed:.2f}s over 100 configs")


def test_criterion_02_recursion_equivalence():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        s = random_system(rng, t_max=20)
        ch = random_channel(rng)
        pi = random_success(rng, ch, s.T)
        tab = backward_tables(s, ch, pi)
        for t in range(s.T):
            direct_f = fbar_direct(s, pi, t)
            direct_s = fs_direct(s, pi, t)
            worst = max(worst,
                        abs(tab.fbar[t] - direct_f) / abs(direct_f),
                        abs(tab.fs[t] - direct_s) / abs(direct_s))
    _report("criterion 2, recursions vs direct sums",
            worst <= 1e-12, f"worst rel err {worst:.2e} over 100 configs")


def test_criterion_03_analytic_slope_vs_finite_differences():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(50):
        s = random_system(rng, t_min=1, t_max=10)
        ch = random_channel(rng, min_pi_max=0.2)
        pi = interior_success(rng, ch, s.T)
        tab = compute_tables(s, ch, pi, s.sigma_x2)
        for t in range(s.T):
            analytic = cost_slope(s, ch, tab, t, pi[t])
            fd = fd_slope(s, ch, pi, t, h=1e-6)
            worst = max(worst, abs(analytic - fd) / max(abs(analytic), abs(fd)))
    _report("criterion 3, analytic slope vs central differences",
            worst <= 1e-5, f"worst rel err {worst:.2e}, every slot, 50 configs")


def test_criterion_04_monte_carlo_consistency():
    rng = np.random.default_rng(1004)
    start = time.perf_counter()
    hits = 0
    configs = []
    for _ in range(20):
        s = random_system(rng, t_max=10)
        ch = random_channel(rng)
        pol = rng.uniform(0, ch.p_max, s.T)
        pol[rng.random(s.T) < 0.25] = 0.0
        seed = int(rng.integers(2**31))
        configs.append((s, ch, pol, seed))
        rep = monte_carlo_cost(s, ch, pol,
                               SimConfig(n_samples=100_000, seed=seed))
        want = expected_cost(s, ch, policy_to_success(pol, ch))
        if abs(rep.mean_cost - want) <= 4 * rep.std_err:
            hits += 1
    variant_ok = True
    for s, ch, pol, seed in configs[:6]:
        rb = monte_carlo_cost(s, ch, pol,
                              SimConfig(n_samples=100_000, seed=seed))
        rg = monte_carlo_cost(s, ch, pol,
                              SimConfig(n_samples=100_000, seed=seed + 10_000,
                                        channel_model="gain_threshold"))
        gap = abs(rb.mean_cost - rg.mean_cost)
        variant_ok &= gap <= 4 * math.hypot(rb.std_err, rg.std_err)
    elapsed = time.perf_counter() - start
    _report("criterion 4, Monte Carlo consistency",
            hits >= 19 and variant_ok and elapsed < 30.0,
            f"{hits}/20 within 4 SE, channel variants "
            f"{'agree' if variant_ok else 'DISAGREE'}, {elapsed:.1f}s")


def test_criterion_05_descent_and_terminal_rule():
    rng = np.random.default_rng(1005)
    ok = True
    for _ in range(100):
        s = random_system(rng, t_max=15)
        ch = random_channel(rng)
        trace = optimize_policy(s, ch, OptimizerConfig())
        ok &= bool(np.all(np.diff(trace.cost_history) <= 0))
        ok &= trace.policy[-1] == 0.0
    _report("criterion 5, monotone descent and silent terminal slot",
            ok, "100 random configurations")


def test_criterion_06_fig2_nominal_reproduction():
    start = time.perf_counter()
    trace = optimize_policy(FIG2_SYS, CH, CFG)
    elapsed = time.perf_counter() - start
    nz = np.nonzero(trace.policy)[0]
    prefix = np.array_equal(nz, np.arange(len(nz)))
    stop_slot = len(nz) + 1  # first silent slot, 1-based
    full = policy_to_success(baseline_policy("full_power", CH, 30), CH)
    beats = (trace.cost < expected_cost(FIG2_SYS, CH, full, 1.0)
             and trace.cost < expected_cost(FIG2_SYS, CH, np.zeros(30), 1.0))
    _report("criterion 6, nominal policy profile",
            prefix and 7 <= stop_slot <= 9 and beats and elapsed < 1.0,
            f"prefix of {len(nz)} slots, transmissions stop at t={stop_slot}, "
            f"cost {trace.cost:.4f}, {elapsed:.3f}s")


def test_criterion_07_fig2_directional_properties():
    def energy_window(sys=FIG2_SYS, ch=CH):
        trace = optimize_policy(sys, ch, CFG)
        nz = np.nonzero(trace.policy)[0]
        window = int(nz.max() + 1) if len(nz) else 0
        return float(trace.policy.sum()), window

    e_nom, w_nom = energy_window()
    e_k, _ = energy_window(replace(FIG2_SYS, k=1.8))
    _, w_p = energy_window(ch=ChannelParams(gamma=1.0, sigma2=1.0,
                                            gbar=1.0, p_max=1.5))
    e_r, _ = energy_window(replace(FIG2_SYS, r=500.0))
    e_q, _ = energy_window(replace(FIG2_SYS, q=2.0))
    ok = (e_k > e_nom) and (w_p > w_nom) and (e_r < e_nom) and (e_q > e_nom)
    _report("criterion 7, single-parameter directions",
            ok,
            f"energy nominal {e_nom:.3f}: k=1.8 -> {e_k:.3f} (+), "
            f"r=500 -> {e_r:.3f} (-), q=2 -> {e_q:.3f} (+); "
            f"window {w_nom} -> {w_p} under p_max=1.5 (+)")


def test_criterion_08_fig4_reproduction():
    start = time.perf_counter()
    overlap_ok = True
    ratio = None
    open_ratio = None
    for T in range(2, 31):
        s = replace(FIG4_SYS, T=T)
        trace = optimize_policy(s, CH, CFG)
        sim = SimConfig(n_samples=10_000, seed=404, initial_state="gaussian")
        rp = monte_carlo_cost(s, CH, trace.policy, sim)
        rf = monte_carlo_cost(s, CH, baseline_policy("full_power", CH, T), sim)
        ro = monte_carlo_cost(s, CH, baseline_policy("open_loop", CH, T), sim)
        if T <= 6:
            gap = abs(rp.mean_cost - ro.mean_cost)
            overlap_ok &= gap <= 4 * math.hypot(rp.std_err, ro.std_err)
        if T == 30:
            ratio = min(rf.mean_cost, ro.mean_cost) / rp.mean_cost
            open_ratio = ro.mean_cost / rp.mean_cost
    elapsed = time.perf_counter() - start
    ratio_ok = ratio >= 10.0 and 25.0 <= ratio <= 100.0
    _report("criterion 8, horizon study",
            overlap_ok and ratio_ok and elapsed < 120.0,
            f"open-loop overlap for T<=6: {'yes' if overlap_ok else 'NO'}; "
            f"min(full,open)/proposed = {ratio:.2f} (gate: >=10 and in [25,100]); "
            f"open/proposed = {open_ratio:.1f}; {elapsed:.1f}s")


def test_criterion_09_mapping_round_trip():
    grid = np.linspace(CH.p_max / 1000, CH.p_max, 1000)
    worst = max(abs(success_to_power(power_to_success(p, CH), CH) - p) / p
                for p in grid)
    _report("criterion 9, power mapping round trip",
            worst <= 1e-12, f"worst rel err {worst:.2e} on 1000-point grid")


def test_criterion_10_byte_identical_outputs(tmp_path):
    runs = {
        "optimize": ["optimize", "--preset", "fig2"],
        "compare": ["compare", "--preset", "fig4", "--horizons", "2:5",
                    "--samples", "2000", "--seed", "31"],
        "sweep": ["sweep", "--preset", "fig3", "--param", "sigma_d2",
                  "--values", "0,0.05"],
    }
    ok = True
    for name, args in runs.items():
        d1, d2 = tmp_path / f"{name}1", tmp_path / f"{name}2"
        assert main([*args, "--out", str(d1)]) == 0
        assert main([*args, "--out", str(d2)]) == 0
        for f1 in sorted(d1.iterdir()):
            ok &= f1.read_bytes() == (d2 / f1.name).read_bytes()
    _report("criterion 10, deterministic CSV output", ok,
            "optimize, compare and sweep reruns compared byte for byte")
