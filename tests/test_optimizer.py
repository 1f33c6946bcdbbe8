import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lqpower import (
    ChannelParams,
    OptimizerConfig,
    SystemParams,
    backward_tables,
    baseline_policy,
    compute_tables,
    expected_cost,
    optimize_policies,
    optimize_policy,
    policy_to_success,
    slot_candidates,
    stationary_success,
)
from lqpower import model, optimizer
from lqpower.experiments import (
    FIG2_VARIANTS,
    FIG3_SIGMA_D2_VALUES,
    FIG4_HORIZONS,
    load_config,
)
from oracles import (
    coordinate_sweep,
    random_channel,
    random_system,
    reference_sweep,
    single_slot_costs,
)

CH = ChannelParams(gamma=1.0, sigma2=1.0, gbar=1.0, p_max=3.0)

NOMINAL = SystemParams(a=1.1, b=-1.0, k=1.0, q=1.0, r=0.5,
                       sigma_x2=1.0, sigma_d2=0.0, T=30)
CFG = OptimizerConfig(ex2_1=1.0)


class TestStationarySuccess:
    def test_analytic_construction(self):
        # theta/(pi ln^2 pi) equals e at pi = 1/e, so A = -e balances there
        root = stationary_success(-math.e, CH)
        assert root == pytest.approx(math.exp(-1), abs=1e-9)

    def test_closed_form_root(self):
        # A = -5 places the root where pi ln^2 pi = 0.2
        root = stationary_success(-5.0, CH)
        assert root == pytest.approx(0.5459, abs=1e-4)
        assert root * math.log(root) ** 2 == pytest.approx(0.2, abs=1e-10)

    def test_slope_negative_on_whole_interval(self):
        # endpoint slope -13 + 9 e^(1/3) < 0: the cap is the candidate
        assert CH.theta / (CH.pi_max * math.log(CH.pi_max) ** 2) == pytest.approx(
            9 * math.exp(1 / 3), rel=1e-12)
        assert stationary_success(-13.0, CH) is None

    def test_slope_nonnegative_at_left_edge(self):
        # A + theta e^2/4 >= 0 leaves no interior root
        assert stationary_success(-1.0, CH) is None

    def test_empty_interval_when_cap_below_e_minus_2(self):
        ch = ChannelParams(gamma=1.0, sigma2=1.0, gbar=1.0, p_max=0.4)
        assert ch.pi_max < math.exp(-2)
        assert stationary_success(-50.0, ch) is None

    def test_vectorised_matches_scalar(self):
        # one array call gives the scalar roots, NaN where a scalar gives None
        A = np.array([-math.e, -5.0, -13.0, -1.0, 0.0, 2.0])
        roots = stationary_success(A, CH)
        for a, root in zip(A, roots):
            scalar = stationary_success(a, CH)
            if scalar is None:
                assert math.isnan(root)
            else:
                assert root == scalar

    def test_subnormal_slope_constant_warns_nothing(self):
        # -theta/A overflows for a subnormal A; neither sign has a root
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = stationary_success(np.array([-5e-324, 5e-324]), CH)
        assert np.isnan(roots).all()

    def test_subnormal_initial_variance_optimizes_without_warning(self, tmp_path):
        # sigma_x2 = 1e-310 makes every slot's slope constant A_t subnormal
        path = tmp_path / "cfg.json"
        path.write_text('{"sys": {"sigma_x2": 1e-310, "T": 3}}')
        cfg = load_config(path=path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = optimize_policy(cfg.sys, cfg.ch, cfg.opt)
        assert trace.converged and not trace.policy.any()

    def test_residual_and_bracket_random(self):
        rng = np.random.default_rng(71)
        checked = 0
        while checked < 50:
            ch = random_channel(rng, min_pi_max=0.2)
            g_lo = ch.theta * math.e**2 / 4
            g_hi = ch.theta / (ch.pi_max * math.log(ch.pi_max) ** 2)
            if not g_lo < g_hi:
                continue
            A = -rng.uniform(g_lo, g_hi)
            root = stationary_success(A, ch)
            if root is None:
                continue  # A drawn at an endpoint, no strict sign change
            assert math.exp(-2) < root < ch.pi_max
            residual = A + ch.theta / (root * math.log(root) ** 2)
            assert abs(residual) <= 1e-10 * abs(A)
            checked += 1


class TestSlotCandidates:
    def _tables(self, sys, pi, ex2_1=1.0):
        return compute_tables(sys, CH, pi, ex2_1)

    def test_keep_when_slope_nonnegative(self):
        # terminal slot: A = ex2 * r k^2 >= 0 always keeps the incumbent
        s = SystemParams(a=1.1, b=-1.0, k=1.0, q=1.0, r=0.5,
                         sigma_x2=1.0, sigma_d2=0.0, T=1)
        tab = self._tables(s, np.zeros(1))
        cands, deltas = slot_candidates(s, CH, tab, np.zeros(1))
        assert cands.tolist() == [[0.0, 0.0]]
        assert deltas.tolist() == [[0.0, 0.0]]

    def test_backward_tables_alone_are_refused(self):
        # slot_candidates needs the second moments of the forward pass
        s = SystemParams(T=3)
        with pytest.raises(ValueError) as exc:
            slot_candidates(s, CH, backward_tables(s, CH, np.zeros(3)), np.zeros(3))
        assert str(exc.value) == "tables.ex2 missing: run the forward pass first"

    def test_interior_root_candidates(self):
        # craft tables so A = -e exactly; candidates are {0, 1/e}
        s = SystemParams(a=1.1, b=-1.0, k=1.0, q=1.0, r=1.0,
                         sigma_x2=1.0, sigma_d2=0.0, T=2)
        tab = self._tables(s, np.zeros(2))
        tab.fbar[1] = (1.0 + math.e) / 1.2
        tab.ex2[0] = 1.0
        cands = slot_candidates(s, CH, tab, np.zeros(2))[0][0]
        assert cands[0] == 0.0
        assert cands[1] == pytest.approx(math.exp(-1), abs=1e-9)

    def test_boundary_candidates_without_root(self):
        # A = -13 keeps the slope negative up to the cap
        s = SystemParams(a=1.1, b=-1.0, k=1.0, q=1.0, r=1.0,
                         sigma_x2=1.0, sigma_d2=0.0, T=2)
        tab = self._tables(s, np.zeros(2))
        tab.fbar[1] = 14.0 / 1.2
        tab.ex2[0] = 1.0
        cands = slot_candidates(s, CH, tab, np.zeros(2))[0][0]
        assert cands.tolist() == [0.0, CH.pi_max]

    def test_deltas_match_full_evaluation(self):
        # (v - pi_t) A_t + P(v) - P(pi_t) is the exact cost change
        rng = np.random.default_rng(203)
        checked = 0
        for _ in range(120):
            s = random_system(rng, t_max=12)
            ch = random_channel(rng)
            pi = rng.uniform(0, ch.pi_max, s.T)
            pi[rng.random(s.T) < 0.3] = 0.0
            incumbent = expected_cost(s, ch, pi)
            cands, deltas = slot_candidates(
                s, ch, compute_tables(s, ch, pi, s.sigma_x2), pi)
            for t in range(s.T):
                for v, delta in zip(cands[t], deltas[t]):
                    trial = pi.copy()
                    trial[t] = v
                    full = expected_cost(s, ch, trial)
                    assert abs(incumbent + delta - full) <= 1e-12 * abs(full)
                    checked += v != pi[t]
        assert checked > 150


class TestCandidateAnalysisAgainstGridScan:
    """Dense 1-d scans of the true cost validate the two-branch case split."""

    def test_candidates_contain_the_slot_minimizer(self):
        rng = np.random.default_rng(202)
        checked_pair, checked_keep = 0, 0
        while checked_pair < 12 or checked_keep < 12:
            s = random_system(rng, t_min=2, t_max=9)
            ch = random_channel(rng)
            pi = rng.uniform(0, ch.pi_max, s.T)
            pi[rng.random(s.T) < 0.3] = 0.0
            tab = compute_tables(s, ch, pi, s.sigma_x2)
            t = int(rng.integers(0, s.T))
            cands = slot_candidates(s, ch, tab, pi)[0][t]

            grid = np.linspace(0.0, ch.pi_max, 1001)
            costs = np.empty_like(grid)
            for i, v in enumerate(grid):
                trial = pi.copy()
                trial[t] = v
                costs[i] = expected_cost(s, ch, trial)

            if cands[0] != cands[1]:
                best = min(expected_cost(s, ch,
                                         np.where(np.arange(s.T) == t, v, pi))
                           for v in cands)
                assert best <= costs.min() + 1e-11 * max(1.0, abs(costs.min()))
                checked_pair += 1
            else:
                assert cands.tolist() == [0.0, 0.0]
                # silence alone fires only when the cost never decreases in
                # pi_t, so silence reaches the grid minimum
                assert np.all(np.diff(costs)
                              >= -1e-11 * np.abs(costs).max())
                assert costs[0] <= costs.min() + 1e-11 * max(1.0, abs(costs.min()))
                checked_keep += 1


class TestCoordinateSweep:
    def test_single_slot_stays_silent(self):
        s = SystemParams(a=1.1, b=-1.0, k=1.0, q=1.0, r=0.5,
                         sigma_x2=1.0, sigma_d2=0.0, T=1)
        policy, cost = coordinate_sweep(s, CH, CFG, np.zeros(1))
        assert policy[0] == 0.0
        assert cost == pytest.approx(1.0)

    def test_first_sweep_improves_nominal(self):
        zero_cost = expected_cost(NOMINAL, CH, np.zeros(30), 1.0)
        policy, cost = coordinate_sweep(NOMINAL, CH, CFG, np.zeros(30))
        assert cost < zero_cost
        assert np.count_nonzero(policy) == 1

    def test_never_increases_cost(self):
        rng = np.random.default_rng(81)
        for _ in range(20):
            s = random_system(rng, t_max=12)
            ch = random_channel(rng)
            p = rng.uniform(0, ch.p_max, s.T)
            p[rng.random(s.T) < 0.4] = 0.0
            cfg = OptimizerConfig()
            incumbent = expected_cost(s, ch, policy_to_success(p, ch))
            _, cost = coordinate_sweep(s, ch, cfg, p)
            assert cost <= incumbent + 1e-12 * abs(incumbent)

    def test_converged_policy_is_fixed_point(self):
        trace = optimize_policy(NOMINAL, CH, CFG)
        assert trace.converged
        policy, cost = coordinate_sweep(NOMINAL, CH, CFG, trace.policy)
        assert np.array_equal(policy, trace.policy)
        assert cost == trace.cost


class TestOptimizePolicy:
    def test_nominal_profile(self):
        trace = optimize_policy(NOMINAL, CH, CFG)
        nz = np.nonzero(trace.policy)[0]
        # transmissions fill a prefix of slots and stop around t = 8
        assert len(nz) > 0
        assert np.array_equal(nz, np.arange(len(nz)))
        assert 7 <= len(nz) + 1 <= 9
        # powers decrease over the transmitting prefix
        assert np.all(np.diff(trace.policy[nz]) < 0)
        # strictly beats both reference policies
        full = policy_to_success(baseline_policy("full_power", CH, 30), CH)
        assert trace.cost < expected_cost(NOMINAL, CH, full, 1.0)
        assert trace.cost < expected_cost(NOMINAL, CH, np.zeros(30), 1.0)

    def test_single_slot(self):
        s = SystemParams(a=1.1, b=-1.0, k=1.0, q=1.0, r=0.5,
                         sigma_x2=1.0, sigma_d2=0.0, T=1)
        trace = optimize_policy(s, CH, OptimizerConfig(ex2_1=2.0))
        assert np.array_equal(trace.policy, np.zeros(1))
        assert trace.cost == pytest.approx(s.q * 2.0)

    def test_descent_terminal_and_feasibility(self):
        rng = np.random.default_rng(91)
        for _ in range(25):
            s = random_system(rng, t_max=15)
            ch = random_channel(rng)
            trace = optimize_policy(s, ch, OptimizerConfig())
            assert np.all(np.diff(trace.cost_history) <= 0)
            assert trace.policy[-1] == 0.0
            assert np.all(trace.policy >= 0) and np.all(trace.policy <= ch.p_max)
            assert np.all(trace.success >= 0) and np.all(trace.success <= ch.pi_max)

    def test_candidate_dominance(self):
        rng = np.random.default_rng(92)
        for _ in range(15):
            s = random_system(rng, t_max=12)
            ch = random_channel(rng)
            trace = optimize_policy(s, ch, OptimizerConfig())
            open_cost = expected_cost(s, ch, np.zeros(s.T))
            full = policy_to_success(baseline_policy("full_power", ch, s.T), ch)
            full_cost = expected_cost(s, ch, full)
            assert trace.cost <= open_cost + 1e-12 * open_cost
            assert trace.cost <= full_cost + 1e-12 * full_cost

    def test_huge_input_weight_still_transmits_when_it_pays(self):
        # even at r = 500 an early transmission saves far more tail cost
        # than it adds, so the policy is not all-zero (verified against the
        # enumeration oracle at smaller horizons)
        s = SystemParams(a=1.1, b=-1.0, k=1.0, q=1.0, r=500.0,
                         sigma_x2=1.0, sigma_d2=0.0, T=30)
        trace = optimize_policy(s, CH, CFG)
        assert np.count_nonzero(trace.policy) > 0
        assert trace.cost < expected_cost(s, CH, np.zeros(30), 1.0)

    def test_iteration_cap_reported(self):
        with pytest.warns(RuntimeWarning) as caught:
            trace = optimize_policy(NOMINAL, CH, OptimizerConfig(k_max=3, ex2_1=1.0))
        assert trace.iterations == 3
        assert not trace.converged
        assert len(caught) == 1
        message = str(caught[0].message)
        assert "T = 30" in message
        assert "after 3 iterations" in message and "k_max = 3" in message
        # a run that reaches its fixed point stays quiet
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert optimize_policy(NOMINAL, CH, CFG).converged

    def test_default_k_max_scales_with_horizon(self):
        # each iteration changes one slot: fig4 at T = 100 needs more than
        # 200 iterations, within the default max(200, 10 T)
        s = SystemParams(a=1.1, b=-1.0, k=1.8, q=1.0, r=0.5,
                         sigma_x2=1.0, sigma_d2=0.05, T=100)
        trace = optimize_policy(s, CH, CFG)
        assert trace.converged and 200 < trace.iterations <= 1000
        with pytest.warns(RuntimeWarning, match="k_max = 200"):
            capped = optimize_policy(s, CH, replace(CFG, k_max=200))
        assert capped.iterations == 200

    def test_tiny_power_cap_keeps_feasible_range_below_e_minus_2(self):
        # pi_max < e^-2 leaves no interior stationary point; candidates
        # collapse to {0, pi_max} and the loop still descends
        ch = ChannelParams(gamma=1.0, sigma2=1.0, gbar=1.0, p_max=0.4)
        assert ch.pi_max < math.exp(-2)
        s = SystemParams(a=1.1, b=-1.0, k=1.0, q=1.0, r=0.5,
                         sigma_x2=1.0, sigma_d2=0.0, T=12)
        trace = optimize_policy(s, ch, OptimizerConfig(ex2_1=1.0))
        assert np.all(np.diff(trace.cost_history) <= 0)
        assert set(np.round(trace.policy, 12)) <= {0.0, 0.4}
        assert trace.cost <= expected_cost(s, ch, np.zeros(12), 1.0)

    def test_full_init_respects_terminal_rule(self):
        trace = optimize_policy(NOMINAL, CH, OptimizerConfig(ex2_1=1.0, init="full"))
        assert trace.policy[-1] == 0.0
        assert np.all(np.diff(trace.cost_history) <= 0)

    @pytest.mark.parametrize("preset", ["fig2", "fig4"])
    def test_cost_is_exact_cost_of_policy(self, preset):
        # trace.csv's last cost is the exact cost of the written powers
        cfg = load_config(preset=preset)
        trace = optimize_policy(cfg.sys, cfg.ch, cfg.opt)
        ex2_1 = cfg.sys.sigma_x2 if cfg.opt.ex2_1 is None else cfg.opt.ex2_1
        pi = policy_to_success(trace.policy, cfg.ch)
        assert np.array_equal(trace.success, pi)
        assert trace.cost == expected_cost(cfg.sys, cfg.ch, pi, ex2_1)

    def test_start_reads_fbar_not_its_sums(self):
        # fbar[0] = q (1 + a^2) = 1.7975e308 is finite and so is the cost;
        # only the unread sum fbar[0] + fbar[1] would overflow
        a = math.sqrt(np.finfo(float).max / 1e300 - 1.5)
        s = SystemParams(q=1e300, a=a, T=2)
        trace = optimize_policy(s, ChannelParams(), OptimizerConfig(ex2_1=1.0))
        assert trace.cost == pytest.approx(1.7975e308, rel=1e-4)
        assert trace.cost == expected_cost(s, ChannelParams(), trace.success, 1.0)

    def test_overflowing_slope_ranks_its_slot_last(self):
        # A_1 = ex2[0] (r k^2 + c fbar[1]) is about 1e500, so sending in slot
        # 1 costs more than any float; staying silent keeps the finite cost
        s = SystemParams(q=1.0, r=1e300, a=0.5, sigma_x2=1e200, T=2)
        trace = optimize_policy(s, CH, OptimizerConfig())
        assert trace.converged and not trace.policy.any()
        assert trace.cost == expected_cost(s, CH, np.zeros(2)) == pytest.approx(1.25e200)

    def test_overflowing_moments_raise(self):
        # the plant's second moments pass 1.8e308 long before slot 700; its
        # tail factors overflow too, from slot 377 down, and the start's
        # cost names the moments first
        s = SystemParams(a=3.0, b=-1.0, k=1.8, q=1.0, r=0.5,
                         sigma_x2=1.0, sigma_d2=0.05, T=700)
        with pytest.raises(ValueError, match=r"^second moment E\[x_t\^2\] is not "
                                             r"finite at slot t = 325 of T = 700$"):
            optimize_policy(s, CH, CFG)

    @pytest.mark.parametrize("k_max", [None, 5])
    def test_t_slot_steps_per_adopted_move(self, monkeypatch, k_max):
        # work count, no timing: after the start's full passes, a move at
        # slot t reruns the backward pass from t down to 0 and the forward
        # pass from t to T-1, T slot-steps together, and no full cost
        # evaluation runs beyond the start's
        passes, cost_calls = [], []
        backward, forward, cost = model._backward, model._forward, optimizer.expected_cost

        def counted_backward(sys, pi, f, top):
            run = backward(sys, pi, f, top)
            passes.append(("backward", top, len(run)))
            return run

        def counted_forward(sys, pi, m, bottom):
            run = forward(sys, pi, m, bottom)
            passes.append(("forward", bottom, len(run)))
            return run

        def counted_cost(*args, **kwargs):
            cost_calls.append(1)
            return cost(*args, **kwargs)

        monkeypatch.setattr(model, "_backward", counted_backward)
        monkeypatch.setattr(model, "_forward", counted_forward)
        monkeypatch.setattr(optimizer, "expected_cost", counted_cost)
        s = replace(NOMINAL, sigma_d2=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            trace = optimize_policy(s, CH, replace(CFG, k_max=k_max))
        adopted = trace.iterations - trace.converged
        assert trace.iterations > 1 and adopted > 0
        if k_max is not None:
            assert not trace.converged and adopted == trace.iterations == k_max
        T = s.T
        # the start: expected_cost's forward pass, then the incumbent's tables
        assert passes[:3] == [("forward", 0, T - 1), ("backward", T - 1, T),
                              ("forward", 0, T - 1)]
        moves = passes[3:]
        assert len(moves) == 2 * adopted
        for (b, top, b_steps), (f, bottom, f_steps) in zip(moves[::2], moves[1::2]):
            assert (b, f) == ("backward", "forward") and top == bottom
            assert b_steps + f_steps == T
        assert len(cost_calls) == 1

    def test_config_validation(self):
        with pytest.raises(ValueError, match="k_max"):
            OptimizerConfig(k_max=0)
        with pytest.raises(ValueError, match="k_max"):
            OptimizerConfig(k_max=2.5)
        with pytest.raises(ValueError, match=r"opt\.k_max .* \(got True\)"):
            OptimizerConfig(k_max=True)   # a bool is an int to Python
        with pytest.raises(ValueError, match="eps_cost"):
            OptimizerConfig(eps_cost=0.0)
        with pytest.raises(ValueError, match="init"):
            OptimizerConfig(init="warm")
        for bad in (-1.0, math.nan, math.inf, True, False, "2.5"):
            with pytest.raises(ValueError, match=rf"opt\.ex2_1 .* finite .* \(got {bad!r}\)"):
                OptimizerConfig(ex2_1=bad)
        for bad in (True, False, "2.5"):   # a bool is an int to Python
            with pytest.raises(ValueError, match=rf"opt\.eps_cost .* \(got {bad!r}\)"):
                OptimizerConfig(eps_cost=bad)


class TestFullStart:
    """A full-power start descends as far as the zero start."""

    def test_fig2_nominal_reaches_zero_start_cost(self):
        cfg = load_config(preset="fig2")
        zero = optimize_policy(cfg.sys, cfg.ch, cfg.opt)
        full = optimize_policy(cfg.sys, cfg.ch, replace(cfg.opt, init="full"))
        assert full.converged
        assert abs(full.cost - zero.cost) <= 1e-6 * zero.cost

    def test_zero_state_silences_every_slot(self):
        # a state that is 0 almost surely makes every transmission pure cost
        s = replace(NOMINAL, sigma_x2=0.0, T=5)
        trace = optimize_policy(s, CH, OptimizerConfig(ex2_1=0.0, init="full"))
        assert trace.converged
        assert np.array_equal(trace.policy, np.zeros(5))
        assert trace.cost == 0.0


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _scenarios(draw, t_max=10):
    """A valid system, channel and optimizer config with T <= t_max."""
    sign = st.sampled_from([-1.0, 1.0])
    s = SystemParams(
        a=draw(_floats(0.6, 1.3)),
        b=draw(sign) * draw(_floats(0.3, 1.5)),
        k=draw(sign) * draw(_floats(0.3, 2.0)),
        q=draw(_floats(0.2, 3.0)),
        r=draw(_floats(0.05, 2.0)),
        sigma_x2=draw(_floats(0.0, 2.0)),
        sigma_d2=draw(st.just(0.0) | _floats(0.0, 0.5)),
        T=draw(st.integers(1, t_max)),
    )
    ch = ChannelParams(
        gamma=draw(_floats(0.3, 3.0)),
        sigma2=draw(_floats(0.3, 3.0)),
        gbar=draw(_floats(0.3, 3.0)),
        p_max=draw(_floats(0.5, 5.0)),
    )
    cfg = OptimizerConfig(init=draw(st.sampled_from(["zero", "full"])),
                          ex2_1=draw(st.none() | _floats(0.0, 2.0)))
    return s, ch, cfg


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_scenarios())
def test_result_is_a_single_slot_minimum(scenario):
    s, ch, cfg = scenario
    trace = optimize_policy(s, ch, cfg)
    assert trace.converged
    policy, cost = coordinate_sweep(s, ch, cfg, trace.policy)
    assert np.array_equal(policy, trace.policy) and cost == trace.cost
    # no slot moved alone anywhere on a fine grid lowers the exact cost by
    # the stop rule's quantum cfg.eps_cost, give or take 1e-11 of rounding
    ex2_1 = s.sigma_x2 if cfg.ex2_1 is None else cfg.ex2_1
    grid = np.linspace(0.0, ch.pi_max, 1001)
    costs = single_slot_costs(s, ch, trace.success, ex2_1, grid)
    assert costs.min() >= trace.cost - (cfg.eps_cost + 1e-11) * abs(trace.cost)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_scenarios(t_max=60))
def test_history_matches_full_table_sweeps(scenario):
    # the tables updated from the moved slot on, carried over every
    # iteration, retrace oracles.coordinate_sweep, which rebuilds them in
    # full before each step
    s, ch, cfg = scenario
    # feedback against the input (b k < 0) mostly stabilizes, so that most
    # descents move many slots
    s = replace(s, k=-math.copysign(s.k, s.b))
    trace = optimize_policy(s, ch, cfg)
    _, costs, policies = _descent(coordinate_sweep, s, ch, cfg)
    assert np.array_equal(trace.cost_history, costs)
    assert np.array_equal(trace.policy, policies[-1])
    assert np.all(np.diff(trace.cost_history) <= 0)
    ex2_1 = s.sigma_x2 if cfg.ex2_1 is None else cfg.ex2_1
    assert trace.cost == expected_cost(s, ch, trace.success, ex2_1)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(theta=_floats(0.03, 30.0), p_max=_floats(0.3, 5.0), T=st.integers(1, 30))
@example(theta=0.5081262829514546, p_max=2.6980215218848573, T=5)
def test_descent_stays_in_the_image_of_the_cap(theta, p_max, T):
    # pi_max is policy_to_success's own image of p_max, so neither a
    # full-power start nor a move to the cap can leave [0, pi_max]
    ch = ChannelParams(gamma=theta, p_max=p_max)
    assert ch.pi_max == policy_to_success([p_max], ch)[0]
    s = SystemParams(T=T)
    for init in ("zero", "full"):
        cfg = OptimizerConfig(init=init)
        trace = optimize_policy(s, ch, cfg)
        assert np.array_equal(trace.success, policy_to_success(trace.policy, ch))
        slots, _, policies = _descent(coordinate_sweep, s, ch, cfg)
        for t, old, new in zip(slots, policies, policies[1:]):
            pi = policy_to_success(old, ch)
            cands, _ = slot_candidates(s, ch, compute_tables(s, ch, pi, s.sigma_x2), pi)
            if cands[t, 1] == ch.pi_max and new[t] > 0:  # a move to the cap
                assert policy_to_success(new, ch)[t] <= ch.pi_max
                assert abs(new[t] - p_max) <= math.ulp(p_max)


def _descent(sweep, s, ch, cfg):
    """The outer loop of optimize_policy over a given sweep function.

    Returns the slot changed by each iteration, the cost history and the
    policies from the start to the end.
    """
    policy = np.zeros(s.T) if cfg.init == "zero" else np.full(s.T, ch.p_max)
    policy[-1] = 0.0
    ex2_1 = s.sigma_x2 if cfg.ex2_1 is None else cfg.ex2_1
    slots, policies = [], [policy]
    costs = [expected_cost(s, ch, policy_to_success(policy, ch), ex2_1)]
    for _ in range(max(200, 10 * s.T)):
        new_policy, cost = sweep(s, ch, cfg, policy)
        costs.append(cost)
        step = np.abs(new_policy - policy)
        if not step.any():
            break
        # an iteration writes the adopted slot's power and no other
        t = int(np.argmax(step))
        assert np.all(np.delete(step, t) == 0)
        slots.append(t)
        policies.append(new_policy)
        policy = new_policy
    return slots, np.array(costs), policies


def _assert_same_trajectory(s, ch, cfg):
    trace = optimize_policy(s, ch, cfg)
    slots, costs, policies = _descent(coordinate_sweep, s, ch, cfg)
    ref_slots, ref_costs, ref_policies = _descent(reference_sweep, s, ch, cfg)
    assert trace.converged
    assert trace.iterations == len(ref_costs) - 1 == len(costs) - 1
    assert np.array_equal(trace.cost_history, costs)
    assert np.array_equal(trace.policy, policies[-1])
    assert slots == ref_slots
    np.testing.assert_allclose(costs, ref_costs, rtol=1e-12, atol=0)
    for p, ref in zip(policies, ref_policies):
        np.testing.assert_allclose(p, ref, rtol=0, atol=1e-9)


class TestTrajectoryMatchesReferenceSweep:
    """The exact-delta sweep retraces the full re-evaluation sweep."""

    @pytest.mark.parametrize("variant", list(FIG2_VARIANTS))
    def test_fig2_variants(self, variant):
        cfg = load_config(preset="fig2")
        over = FIG2_VARIANTS[variant]
        ch = replace(cfg.ch, **{k: v for k, v in over.items() if k == "p_max"})
        s = replace(cfg.sys, **{k: v for k, v in over.items() if k != "p_max"})
        _assert_same_trajectory(s, ch, cfg.opt)

    @pytest.mark.parametrize("sigma_d2", FIG3_SIGMA_D2_VALUES)
    def test_fig3_sigma_d2(self, sigma_d2):
        cfg = load_config(preset="fig3")
        _assert_same_trajectory(replace(cfg.sys, sigma_d2=sigma_d2), cfg.ch, cfg.opt)

    def test_fig4_horizons(self):
        cfg = load_config(preset="fig4")
        for T in FIG4_HORIZONS:
            _assert_same_trajectory(replace(cfg.sys, T=T), cfg.ch, cfg.opt)

    def test_random_configs(self):
        rng = np.random.default_rng(404)
        for i in range(36):
            s = random_system(rng, t_max=14)
            ch = random_channel(rng)
            cfg = OptimizerConfig(init="full" if i % 4 == 3 else "zero",
                                  ex2_1=None if i % 3 else float(rng.uniform(0, 2)))
            _assert_same_trajectory(s, ch, cfg)


def _assert_same_traces(traces, expected):
    assert len(traces) == len(expected)
    for trace, ref in zip(traces, expected):
        assert np.array_equal(trace.policy, ref.policy)
        assert np.array_equal(trace.success, ref.success)
        assert np.array_equal(trace.cost_history, ref.cost_history)
        assert (trace.iterations, trace.converged) == (ref.iterations, ref.converged)


def _figure_scenarios(figure):
    """The scenarios of one reference figure and the preset's optimizer config."""
    cfg = load_config(preset=figure)
    if figure == "fig2":
        scenarios = [(replace(cfg.sys, **{k: v for k, v in over.items() if k != "p_max"}),
                      replace(cfg.ch, **{k: v for k, v in over.items() if k == "p_max"}))
                     for over in FIG2_VARIANTS.values()]
    elif figure == "fig3":
        scenarios = [(replace(cfg.sys, sigma_d2=v), cfg.ch) for v in FIG3_SIGMA_D2_VALUES]
    else:
        scenarios = [(replace(cfg.sys, T=T), cfg.ch) for T in FIG4_HORIZONS]
    return scenarios, cfg.opt


class TestOptimizePolicies:
    """A batch runs each scenario's descent as optimize_policy runs it alone."""

    @pytest.mark.parametrize("figure", ["fig2", "fig3", "fig4"])
    def test_batch_equals_singles_on_the_figures(self, figure):
        scenarios, cfg = _figure_scenarios(figure)
        _assert_same_traces(list(optimize_policies(scenarios, cfg)),
                            [optimize_policy(s, ch, cfg) for s, ch in scenarios])

    def test_empty_batch(self):
        assert list(optimize_policies([], CFG)) == []

    def test_rows_hold_their_own_scenarios(self, monkeypatch):
        # the model's table passes and success_to_power get the scenario's
        # own SystemParams and ChannelParams, never a record that copies them
        scenarios = [(NOMINAL, CH), (replace(NOMINAL, k=1.8, sigma_d2=0.05, T=12),
                                     ChannelParams(p_max=0.4))]
        seen = {"_fill_tables": [], "_update_tables": [], "success_to_power": []}
        for name, at in [("_fill_tables", 0), ("_update_tables", 0), ("success_to_power", 1)]:
            def spy(*args, _seen=seen[name], _at=at, _original=getattr(optimizer, name)):
                _seen.append(args[_at])
                return _original(*args)
            monkeypatch.setattr(optimizer, name, spy)
        batch = optimizer._Batch(scenarios, [np.zeros(s.T) for s, _ in scenarios], CFG)
        with np.errstate(over="ignore", invalid="ignore"):
            while batch.active:
                batch.step()
        assert all(isinstance(o, optimizer.OptimizationTrace) for o in batch.outcomes)
        systems, channels = [s for s, _ in scenarios], [ch for _, ch in scenarios]
        for name, own in [("_fill_tables", systems), ("_update_tables", systems),
                          ("success_to_power", channels)]:
            assert {id(x) for x in seen[name]} == {id(x) for x in own}, name
        assert all(row.sys is s and row.ch is ch
                   for row, (s, ch) in zip(batch.rows, scenarios))
        # a row copies no parameter field or derived constant, and the batch
        # keeps no per-row list beside its rows
        copies = {f.name for f in fields(SystemParams) + fields(ChannelParams)}
        copies |= {"_coeffs", "closed_loop_coeff", "theta", "pi_max"}
        assert not copies & set(optimizer._Row.__slots__)
        assert not hasattr(batch, "history") and not hasattr(batch, "k_max")

    def test_first_failure_in_input_order_raises_after_the_rows_before_it(self):
        # the T = 700 row overflows at its start; the rows before it yield
        # their traces (and k_max warnings), the rows after it nothing
        bad = SystemParams(a=3.0, b=-1.0, k=1.8, q=1.0, r=0.5,
                           sigma_x2=1.0, sigma_d2=0.05, T=700)
        cfg = replace(CFG, k_max=3)
        scenarios = [(NOMINAL, CH), (replace(NOMINAL, T=1), CH), (bad, CH), (NOMINAL, CH)]
        traces = optimize_policies(scenarios, cfg)
        with pytest.warns(RuntimeWarning, match="k_max = 3") as caught:
            first = next(traces)
        assert len(caught) == 1 and first.iterations == 3 and not first.converged
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert next(traces).converged
            with pytest.raises(ValueError, match=r"^second moment E\[x_t\^2\] is not "
                                                 r"finite at slot t = 325 of T = 700$"):
                next(traces)


@st.composite
def _batches(draw):
    """A few scenarios of mixed horizons and one optimizer config, its k_max
    often small enough to stop some rows short."""
    drawn = draw(st.lists(_scenarios(t_max=12), min_size=1, max_size=5))
    cfg = replace(drawn[0][2], k_max=draw(st.none() | st.integers(1, 8)))
    return [(s, ch) for s, ch, _ in drawn], cfg


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_batches())
@example(([(replace(NOMINAL, T=1), CH),
           (replace(NOMINAL, sigma_d2=0.0, T=12), ChannelParams(p_max=0.4)),
           (replace(NOMINAL, k=1.8, sigma_d2=0.05, T=9), CH)],
          OptimizerConfig(init="full", k_max=5, ex2_1=1.0)))
def test_batch_equals_singles(batch):
    # traces and k_max warnings alike, in input order
    scenarios, cfg = batch
    with warnings.catch_warnings(record=True) as batched:
        warnings.simplefilter("always")
        traces = list(optimize_policies(scenarios, cfg))
    with warnings.catch_warnings(record=True) as singly:
        warnings.simplefilter("always")
        singles = [optimize_policy(s, ch, cfg) for s, ch in scenarios]
    _assert_same_traces(traces, singles)
    assert [str(w.message) for w in batched] == [str(w.message) for w in singly]
