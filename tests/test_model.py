import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from lqpower import (
    ChannelParams,
    OptimizerConfig,
    RecursionTables,
    SimConfig,
    SystemParams,
    backward_tables,
    compute_tables,
    expected_cost,
    forward_second_moments,
    optimize_policy,
    policy_to_success,
    power_to_success,
    success_to_power,
)
from lqpower.model import _update_tables
from oracles import (
    cost_direct,
    cost_slope,
    expected_cost_enumerated,
    fbar_direct,
    fd_slope,
    fs_direct,
    interior_success,
    random_channel,
    random_success,
    random_system,
    reference_tables,
)

CH = ChannelParams(gamma=1.0, sigma2=1.0, gbar=1.0, p_max=3.0)


def _sys(**kw):
    base = dict(a=1.1, b=-1.0, k=1.0, q=1.0, r=0.5, sigma_x2=1.0, sigma_d2=0.0, T=2)
    base.update(kw)
    return SystemParams(**base)


class TestMapping:
    def test_channel_derived_quantities(self):
        ch = ChannelParams(gamma=2.0, sigma2=0.5, gbar=4.0, p_max=1.0)
        assert ch.theta == 2.0 * 0.5 / 4.0
        # the one power -> success map takes the cap to pi_max
        assert ch.pi_max == policy_to_success([ch.p_max], ch)[0]
        assert 0.0 < ch.pi_max < 1.0

    def test_cached_constants_follow_the_fields(self):
        # replace builds a new object, which derives its own constants
        ch = replace(CH, p_max=1.5)
        assert ch.pi_max == float(np.exp(-ch.theta / 1.5)) != CH.pi_max
        sys = replace(_sys(), k=2.0)
        assert sys._coeffs[3] == 0.5 * 2.0**2 != _sys()._coeffs[3]

    def test_cached_constants_are_not_fields(self):
        # each object stores its derived constants once read, outside the
        # fields that ==, hash and asdict see: a twin whose stored constants
        # differ still compares, hashes and converts the same
        for obj, names in [(ChannelParams(gamma=2.0, p_max=1.5), {"theta", "pi_max"}),
                           (_sys(a=0.9), {"_coeffs"})]:
            before = hash(obj), asdict(obj)
            for name in names:
                getattr(obj, name)
            assert (hash(obj), asdict(obj)) == before
            assert names <= set(vars(obj)) and not names & set(asdict(obj))
            twin = replace(obj)
            for name in names:
                vars(twin)[name] = None
            assert twin == obj and (hash(twin), asdict(twin)) == before

    def test_power_to_success_values(self):
        assert power_to_success(0.0, CH) == 0.0
        assert power_to_success(1.0, CH) == pytest.approx(math.exp(-1), rel=1e-12)
        assert power_to_success(3.0, CH) == pytest.approx(math.exp(-1 / 3), rel=1e-12)

    def test_subnormal_power_maps_to_zero_silently(self):
        # -theta/p overflows to -inf: pi = 0, with no numpy warning
        pi = policy_to_success([2.2e-311, 0.0, 1.0], CH)
        assert pi.tolist() == [0.0, 0.0, math.exp(-1.0)]

    def test_power_domain_errors(self):
        with pytest.raises(ValueError):
            power_to_success(-0.1, CH)
        with pytest.raises(ValueError):
            power_to_success(3.1, CH)
        with pytest.raises(ValueError, match="policy powers must lie"):
            power_to_success(math.nan, CH)
        with pytest.raises(ValueError, match="policy powers must lie"):
            policy_to_success([math.nan, 1.0, 0.0], CH)
        # the message names the first slot out of range and its value
        with pytest.raises(ValueError, match=r"p_max = 3\.0\] \(slot t = 1 of T = 3 is nan\)$"):
            policy_to_success([math.nan, 1.0, 0.0], CH)
        with pytest.raises(ValueError, match=r"\(slot t = 2 of T = 3 is 3\.5\)$"):
            policy_to_success([1.0, 3.5, math.nan], CH)

    def test_success_to_power_values(self):
        assert success_to_power(0.0, CH) == 0.0
        assert success_to_power(math.exp(-1), CH) == pytest.approx(1.0, rel=1e-12)
        assert success_to_power(math.exp(-2), CH) == pytest.approx(0.5, rel=1e-12)

    def test_success_domain_errors(self):
        with pytest.raises(ValueError):
            success_to_power(1.0, CH)
        with pytest.raises(ValueError):
            success_to_power(-0.01, CH)
        # above the cap-implied maximum
        with pytest.raises(ValueError):
            success_to_power(CH.pi_max * 1.01, CH)
        with pytest.raises(ValueError, match="must lie in"):
            success_to_power(math.nan, CH)
        with pytest.raises(ValueError, match="success probabilities must lie"):
            expected_cost(_sys(T=2), CH, np.array([math.nan, 0.0]))
        above = np.array([0.0, 0.9, math.nan])  # pi_max = exp(-1/3) < 0.9
        with pytest.raises(ValueError,
                           match=r"pi_max = .*\] \(slot t = 2 of T = 3 is 0\.9\)$"):
            expected_cost(_sys(T=3), CH, above)

    def test_round_trip_grid(self):
        p = np.linspace(CH.p_max / 1000, CH.p_max, 1000)
        back = np.array([success_to_power(power_to_success(x, CH), CH) for x in p])
        assert np.max(np.abs(back - p) / p) <= 1e-12

    def test_round_trip_random_channels(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ch = random_channel(rng)
            p = rng.uniform(ch.p_max * 1e-3, ch.p_max)
            back = success_to_power(power_to_success(p, ch), ch)
            assert abs(back - p) <= 1e-12 * p

    def test_cap_round_trip_stays_feasible(self):
        # the cap maps to pi_max and back exactly
        rng = np.random.default_rng(12)
        for _ in range(200):
            ch = random_channel(rng)
            assert power_to_success(ch.p_max, ch) == ch.pi_max
            assert success_to_power(ch.pi_max, ch) == ch.p_max


class TestParamValidation:
    @pytest.mark.parametrize("field,value,bound", [
        ("q", 0.0, "> 0"), ("q", -1.0, "> 0"), ("r", 0.0, "> 0"),
        ("T", 0, "an integer >= 1"), ("T", True, "an integer >= 1"),
        ("sigma_x2", -0.1, ">= 0"), ("sigma_d2", -0.1, ">= 0"),
    ])
    def test_system_invariants(self, field, value, bound):
        with pytest.raises(ValueError,
                           match=rf"^sys\.{field} must be {bound} \(got {value}\)$"):
            _sys(**{field: value})

    def test_variances_may_be_zero(self):
        assert _sys(sigma_x2=0.0, sigma_d2=0.0).sigma_x2 == 0.0

    @pytest.mark.parametrize("field", ["a", "b", "k"])
    def test_coefficient_whose_square_overflows(self, field):
        _sys(**{field: -1e154})   # its square, 1e308, is finite
        with pytest.raises(ValueError, match=rf"^sys\.{field} = -1e\+200 is out of "
                                             r"range: its square overflows$"):
            _sys(**{field: -1e200})

    def test_overflowing_input_weight(self):
        # r k^2 overflows although r and k^2 are finite; at 1e307 it does not
        _sys(r=1e307, k=3.0, T=3)
        with pytest.raises(ValueError, match=r"^sys: r k\^2 = 1e\+308 \* 3\.0\^2 is "
                                             r"out of range: the product overflows$"):
            _sys(r=1e308, k=3.0, T=3)

    def test_overflowing_closed_loop_coeff(self):
        # b^2 k^2 = 1e400 overflows although b^2 and k^2 are finite
        _sys(b=1e100, k=1e50, T=3)
        with pytest.raises(ValueError, match=r"^sys: c = b\^2 k\^2 \+ 2abk is out of "
                                             r"range at a = 1\.1, b = 1e\+100, "
                                             r"k = 1e\+100: it overflows$"):
            _sys(b=1e100, k=1e100, T=3)

    def test_pi_max_must_stay_below_one(self):
        # exp(-1e-17) rounds to 1: the cap's power -theta/ln(pi_max) is not finite
        with pytest.raises(ValueError, match=r"theta/p_max = 1e-17 .* rounds to 1"):
            ChannelParams(gamma=1e-17, p_max=1.0)

    @pytest.mark.parametrize("kw,ratio", [
        (dict(gamma=3000.0), r"1000\.0"),  # exp(-1000) underflows to 0
        (dict(gamma=1e308, sigma2=10.0, p_max=1e-300), "inf"),  # theta = inf
    ])
    def test_pi_max_must_stay_above_zero(self, kw, ratio):
        # pi_max = 0 would make the cap's power -theta/ln(pi_max) 0
        with pytest.raises(ValueError, match=rf"theta/p_max = {ratio} .* rounds to 0$"):
            ChannelParams(**kw)

    @pytest.mark.parametrize("field", ["gamma", "sigma2", "gbar", "p_max"])
    def test_channel_invariants(self, field):
        kw = dict(gamma=1.0, sigma2=1.0, gbar=1.0, p_max=3.0)
        kw[field] = 0.0
        with pytest.raises(ValueError, match=field):
            ChannelParams(**kw)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, False, np.True_,
                                       "2.5"])
    @pytest.mark.parametrize("section,field", [
        *[("sys", f) for f in ("a", "b", "k", "q", "r", "sigma_x2", "sigma_d2")],
        *[("ch", f) for f in ("gamma", "sigma2", "gbar", "p_max")],
    ])
    def test_non_finite_rejected(self, section, field, value):
        # a bool is an int to Python, and float("2.5") would parse
        make = _sys if section == "sys" else (
            lambda **kw: ChannelParams(**{**asdict(CH), **kw}))
        must = "finite" if isinstance(value, float) else "a real number"
        with pytest.raises(ValueError,
                           match=rf"^{section}\.{field} must be {must} \(got {value!r}\)$"):
            make(**{field: value})

    @pytest.mark.parametrize("value", [10**400, -10**400], ids=["1e400", "-1e400"])
    @pytest.mark.parametrize("cls,section,field", [
        *[(SystemParams, "sys", f)
          for f in ("a", "b", "k", "q", "r", "sigma_x2", "sigma_d2")],
        *[(ChannelParams, "ch", f) for f in ("gamma", "sigma2", "gbar", "p_max")],
        (SimConfig, "sim", "x1"),
        (OptimizerConfig, "opt", "eps_cost"),
        (OptimizerConfig, "opt", "ex2_1"),
    ])
    def test_int_too_large_for_a_float_rejected(self, cls, section, field, value):
        # float() of such an int raises OverflowError; the field is named instead
        with pytest.raises(ValueError, match=rf"^{section}\.{field} must be "):
            cls(**{field: value})

    @pytest.mark.parametrize("value,shown", [
        (10**5000, "an int of 5001 digits"),
        (-(10**5000 - 1), "a negative int of 5000 digits"),
        (2**20000, "an int of 6021 digits"),
    ], ids=["1e5000", "-(1e5000-1)", "2**20000"])
    @pytest.mark.parametrize("cls,section,field", [
        *[(SystemParams, "sys", f)
          for f in ("a", "b", "k", "q", "r", "sigma_x2", "sigma_d2")],
        *[(ChannelParams, "ch", f) for f in ("gamma", "sigma2", "gbar", "p_max")],
        (SimConfig, "sim", "x1"),
        (OptimizerConfig, "opt", "eps_cost"),
        (OptimizerConfig, "opt", "ex2_1"),
    ])
    def test_int_too_long_to_print_is_named(self, cls, section, field, value, shown):
        # str() of an int of more than 4300 digits raises Python's own
        # ValueError, which names no field; the message gives its size instead
        with pytest.raises(ValueError,
                           match=rf"^{section}\.{field} must be .* \(got {shown}\)$"):
            cls(**{field: value})

    @pytest.mark.parametrize("cls,section,field,value", [
        (SystemParams, "sys", "T", -10**5000),
        (SimConfig, "sim", "n_samples", -10**5000),
        (SimConfig, "sim", "seed", 10**5000),
        (OptimizerConfig, "opt", "k_max", -10**5000),
    ], ids=["sys.T", "sim.n_samples", "sim.seed", "opt.k_max"])
    def test_integer_field_too_long_to_print_is_named(self, cls, section, field, value):
        shown = "an int" if value > 0 else "a negative int"
        with pytest.raises(ValueError, match=rf"^{section}\.{field} must be .* "
                                             rf"\(got {shown} of 5001 digits\)$"):
            cls(**{field: value})

    def test_success_vector_range(self):
        with pytest.raises(ValueError):
            expected_cost(_sys(T=2), CH, np.array([0.0, CH.pi_max + 0.01]))
        with pytest.raises(ValueError):
            expected_cost(_sys(T=2), CH, np.array([-0.1, 0.0]))


class TestExpectedCost:
    def test_single_slot_no_transmission(self):
        assert expected_cost(_sys(T=1), CH, np.zeros(1)) == 1.0

    def test_two_slot_open_loop(self):
        assert expected_cost(_sys(), CH, np.zeros(2)) == pytest.approx(2.21, abs=1e-12)

    def test_two_slot_open_loop_with_noise(self):
        s = _sys(sigma_d2=1.0)
        assert expected_cost(s, CH, np.zeros(2)) == pytest.approx(3.21, abs=1e-12)

    def test_all_zero_geometric_identity(self):
        for T in (1, 3, 10, 25):
            s = _sys(T=T, sigma_x2=1.7, q=0.8)
            want = s.q * s.sigma_x2 * sum(s.a ** (2 * t) for t in range(T))
            got = expected_cost(s, CH, np.zeros(T))
            assert got == pytest.approx(want, rel=1e-13)

    def test_explicit_ex2_1_overrides_sigma_x2(self):
        s = _sys(sigma_x2=5.0)
        assert expected_cost(s, CH, np.zeros(2), ex2_1=1.0) == pytest.approx(2.21)

    def test_matches_direct_transcription(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            s = random_system(rng, t_max=12)
            ch = random_channel(rng)
            pi = random_success(rng, ch, s.T)
            got = expected_cost(s, ch, pi)
            want = cost_direct(s, ch, pi)
            assert got == pytest.approx(want, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            expected_cost(_sys(T=3), CH, np.zeros(2))


class TestEnumerationOracle:
    def test_matches_closed_form_examples(self):
        assert expected_cost_enumerated(_sys(T=1), CH, np.zeros(1)) == 1.0
        assert expected_cost_enumerated(_sys(), CH, np.zeros(2)) == pytest.approx(2.21)

    def test_matches_closed_form_random(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            s = random_system(rng, t_max=10)
            ch = random_channel(rng)
            pi = random_success(rng, ch, s.T)
            c_closed = expected_cost(s, ch, pi)
            c_enum = expected_cost_enumerated(s, ch, pi)
            assert abs(c_closed - c_enum) <= 1e-9 * max(1.0, abs(c_closed))

    def test_refuses_large_horizons(self):
        with pytest.raises(ValueError, match="T <= 14"):
            expected_cost_enumerated(_sys(T=15), CH, np.zeros(15))


class TestRecursionTables:
    def test_terminal_values(self):
        # no transmission at the terminal slot leaves exactly q
        for q in (1.0, 2.5):
            s = _sys(T=4, q=q)
            tab = backward_tables(s, CH, np.array([0.3, 0.2, 0.1, 0.0]))
            assert tab.fbar[s.T - 1] == q
            assert tab.fs[s.T - 1] == q
            assert tab.fbar[s.T] == 0.0 and tab.fs[s.T] == 0.0  # sentinels

    def test_two_slot_example(self):
        # (q + r k^2 pi_1) + (a^2 + c pi_1) q = 1.9524843911...
        tab = backward_tables(_sys(), CH, np.array([math.exp(-1), 0.0]))
        assert tab.fbar[0] == pytest.approx(1.9524844, abs=1e-6)

    def test_three_slot_geometric(self):
        s = _sys(T=3)
        tab = backward_tables(s, CH, np.zeros(3))
        assert tab.fbar[0] == pytest.approx(1 + 1.1**2 + 1.1**4, rel=1e-14)

    def test_matches_direct_sums(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            s = random_system(rng, t_max=20)
            ch = random_channel(rng)
            pi = random_success(rng, ch, s.T)
            tab = backward_tables(s, ch, pi)
            assert np.all(tab.fbar >= 0) and np.all(tab.fs >= 0)
            for t in range(s.T):
                assert tab.fbar[t] == pytest.approx(fbar_direct(s, pi, t), rel=1e-12)
                assert tab.fs[t] == pytest.approx(fs_direct(s, pi, t), rel=1e-12)

    def test_cost_decomposes_through_tables(self):
        # C = ex2_1*fbar[0] + sigma_d2*fs[1] + total power
        rng = np.random.default_rng(42)
        for _ in range(20):
            s = random_system(rng, t_max=15)
            ch = random_channel(rng)
            pi = random_success(rng, ch, s.T)
            tab = backward_tables(s, ch, pi)
            power = np.sum([success_to_power(v, ch) for v in pi])
            via_tables = s.sigma_x2 * tab.fbar[0] + s.sigma_d2 * tab.fs[1] + power
            assert expected_cost(s, ch, pi) == pytest.approx(via_tables, rel=1e-12)

    def test_bitwise_matches_numpy_scalar_loops(self):
        # the Python-float passes do the same IEEE operations in the same
        # order as the numpy-scalar loops of the oracle
        rng = np.random.default_rng(43)
        for _ in range(120):
            s = random_system(rng, t_max=200)
            ch = random_channel(rng)
            pi = random_success(rng, ch, s.T)
            pi[rng.random(s.T) < 0.2] = ch.pi_max
            ex2_1 = float(rng.uniform(0, 2))
            tab = compute_tables(s, ch, pi, ex2_1)
            fbar, fs, ex2 = reference_tables(s, pi, ex2_1)
            assert np.array_equal(tab.fbar, fbar)
            assert np.array_equal(tab.fs, fs)
            assert np.array_equal(tab.ex2, ex2)


class TestPartialUpdate:
    """Rerunning the passes from one changed slot retraces compute_tables."""

    def test_bitwise_matches_full_tables(self):
        rng = np.random.default_rng(44)
        for _ in range(120):
            s = random_system(rng, t_max=200)
            ch = random_channel(rng)
            pi = random_success(rng, ch, s.T)
            ex2_1 = float(rng.uniform(0, 2))
            tab = compute_tables(s, ch, pi, ex2_1)
            t = int(rng.integers(s.T))
            pi[t] = rng.choice([0.0, ch.pi_max, rng.uniform(0, ch.pi_max)])
            _update_tables(s, pi, tab.fbar, tab.ex2, t, t)
            full = compute_tables(s, ch, pi, ex2_1)
            assert np.array_equal(tab.fbar, full.fbar)
            assert np.array_equal(tab.ex2, full.ex2)

    @pytest.mark.parametrize("stable, t, ex2_1, q, match", [
        # the first stabilizing slot falls silent: E[x_t^2] ~ 9^t is just
        # finite at slot 324 and overflows at the next one
        ((323, 328), 323, 1.0, 1e-200, r"second moment .* slot t = 325 of T = 329"),
        # the last stabilizing slot falls silent: the tails, just finite
        # over 323 silent slots, overflow at it
        ((0, 6), 5, 1e-300, 1.0, r"tail factor .* slot t = 6 of T = 329"),
    ])
    def test_overflow_names_the_same_slot(self, stable, t, ex2_1, q, match):
        s = SystemParams(a=3.0, b=-1.0, k=3.0, q=q, r=q / 2, T=329)
        ch = ChannelParams(gamma=0.1, p_max=3.0)
        pi = np.zeros(s.T)
        pi[slice(*stable)] = 0.9   # a^2 + c pi is 0.9 there and 9 at silence
        tab = compute_tables(s, ch, pi, ex2_1)
        pi[t] = 0.0
        with pytest.raises(ValueError, match=match):
            compute_tables(s, ch, pi, ex2_1)
        with pytest.raises(ValueError, match=match):
            _update_tables(s, pi, tab.fbar, tab.ex2, t, t)


class TestNonFiniteMoments:
    """Horizons where the second moments overflow fail loudly."""

    UNSTABLE = dict(a=3.0, b=-1.0, k=1.8, q=1.0, r=0.5,
                    sigma_x2=1.0, sigma_d2=0.05, T=700)

    def test_expected_cost_names_first_overflowing_moment(self):
        # E[x_t^2] ~ 9^t overflows past 1.8e308 at 1-based slot 325
        s = SystemParams(**self.UNSTABLE)
        with pytest.raises(ValueError, match=r"second moment .* slot t = 325 of T = 700"):
            expected_cost(s, CH, np.zeros(s.T))

    def test_tables_name_first_overflowing_tail_factor(self):
        s = SystemParams(**self.UNSTABLE)
        with pytest.raises(ValueError, match=r"tail factor .* slot t = 377 of T = 700"):
            compute_tables(s, CH, np.zeros(s.T), 1.0)
        # the forward pass on its own reports the moment overflow
        with pytest.raises(ValueError, match=r"second moment .* slot t = 325 of T = 700"):
            forward_second_moments(s, np.zeros(s.T), 1.0)

    def test_overflowing_tails_over_a_zero_state(self):
        # x_1 = 0 and no perturbation: the state is 0 almost surely, the cost
        # is 0 although the tail factors overflow from slot 77 on
        s = SystemParams(**dict(self.UNSTABLE, sigma_x2=0.0, sigma_d2=0.0, T=400))
        tab = compute_tables(s, CH, np.zeros(s.T), 0.0)
        assert not np.isfinite(tab.fbar[0]) and not np.any(tab.ex2)
        trace = optimize_policy(s, CH, OptimizerConfig(ex2_1=0.0))
        assert trace.cost == 0.0 and trace.converged
        assert not np.any(trace.policy)
        # a nonzero moment meeting those tails still raises
        with pytest.raises(ValueError, match=r"tail factor .* slot t = 77 of T = 400"):
            compute_tables(s, CH, np.zeros(s.T), 1e-300)
        with pytest.raises(ValueError, match=r"tail factor .* slot t = 77 of T = 400"):
            backward_tables(s, CH, np.zeros(s.T))

    def test_overflowing_tail_sum_is_named_silently(self):
        # fbar[0] = q (1 + a^2) is just finite, fs[0] = fbar[0] + fbar[1]
        # is not: the cumulative sum overflows without a numpy warning
        a = math.sqrt(np.finfo(float).max / 1e300 - 1.5)
        s = SystemParams(q=1e300, a=a, T=2)
        with pytest.raises(ValueError, match=r"^tail factor is not finite at "
                                             r"slot t = 1 of T = 2$"):
            backward_tables(s, CH, np.zeros(2))

    def test_overflowing_cost_is_named_silently(self):
        # every E[x_t^2] is finite, but q E[x_t^2] overflows in the product
        s = SystemParams(q=1e300, a=13407.8, T=30)
        with pytest.raises(ValueError, match=r"^expected cost is not finite \(T = 30\)$"):
            expected_cost(s, CH, np.zeros(s.T), 1.0)

    def test_stable_long_horizon_stays_finite(self):
        s = SystemParams(**dict(self.UNSTABLE, a=1.1, T=3000))
        pi = np.full(s.T, 0.5)
        assert np.isfinite(expected_cost(s, CH, pi))
        tab = compute_tables(s, CH, pi, 1.0)
        assert np.all(np.isfinite(tab.fs)) and np.all(np.isfinite(tab.ex2))


class TestForwardMoments:
    def test_open_loop_step(self):
        s = _sys(sigma_d2=0.0)
        ex2 = forward_second_moments(s, np.array([0.0, 0.0]), 1.0)
        assert ex2[1] == pytest.approx(1.21, rel=1e-15)

    def test_perfect_reception_step(self):
        ex2 = forward_second_moments(_sys(), np.array([1.0, 0.0]), 1.0)
        assert ex2[1] == pytest.approx(0.01, rel=1e-12)  # (a + b k)^2

    def test_noise_accumulates(self):
        s = _sys(sigma_d2=0.05)
        ex2 = forward_second_moments(s, np.array([0.0, 0.0]), 1.0)
        assert ex2[1] == pytest.approx(1.26, rel=1e-15)

    def test_rejects_negative_initial_moment(self):
        with pytest.raises(ValueError):
            forward_second_moments(_sys(), np.zeros(2), -1.0)

    @pytest.mark.parametrize("ex2_1", [math.nan, math.inf, True, "1", 10**400, -10**400],
                             ids=["nan", "inf", "True", "'1'", "1e400", "-1e400"])
    @pytest.mark.parametrize("call", [
        lambda ex2_1: forward_second_moments(_sys(), np.zeros(2), ex2_1),
        lambda ex2_1: expected_cost(_sys(), CH, np.zeros(2), ex2_1),
        lambda ex2_1: compute_tables(_sys(), CH, np.zeros(2), ex2_1),
    ], ids=["forward_second_moments", "expected_cost", "compute_tables"])
    def test_rejects_non_finite_initial_moment(self, call, ex2_1):
        # a bool is an int to Python, float("1") would parse, and float(10**400)
        # raises OverflowError
        with pytest.raises(ValueError, match=r"^ex2_1 must be a finite number >= 0 \(got "):
            call(ex2_1)

    def test_initial_moment_too_long_to_print_is_named(self):
        with pytest.raises(ValueError, match=r"^ex2_1 must be a finite number >= 0 "
                                             r"\(got an int of 5001 digits\)$"):
            expected_cost(_sys(), CH, np.zeros(2), 10**5000)

    @pytest.mark.parametrize("pi", [np.array([]), np.zeros((2, 1))])
    def test_rejects_empty_or_non_1d_success(self, pi):
        with pytest.raises(ValueError, match="success vector must be a 1-d sequence"):
            forward_second_moments(_sys(), pi, 1.0)


class TestCostSlope:
    def test_constructed_zero_slope(self):
        # with A = -e and theta = 1 the slope vanishes at pi = 1/e
        s = _sys(r=1.0)  # r k^2 = 1, coeff = -1.2
        fbar1 = (1.0 + math.e) / 1.2
        tab = RecursionTables(
            fbar=np.array([0.0, fbar1, 0.0]),
            fs=np.zeros(3),
            ex2=np.array([1.0, 1.0]),
        )
        assert cost_slope(s, CH, tab, 0, math.exp(-1)) == pytest.approx(0.0, abs=1e-12)

    def test_power_term_at_e_minus_2(self):
        tab = RecursionTables(fbar=np.zeros(2), fs=np.zeros(2), ex2=np.zeros(1))
        got = cost_slope(_sys(T=1), CH, tab, 0, math.exp(-2))
        assert got == pytest.approx(CH.theta * math.e**2 / 4, rel=1e-12)

    def test_terminal_slot_uses_sentinel(self):
        s = _sys(T=3)
        pi = np.array([0.3, 0.2, 0.1])
        tab = compute_tables(s, CH, pi, 1.0)
        want = tab.ex2[2] * s.r * s.k**2 + CH.theta / (0.1 * math.log(0.1) ** 2)
        assert cost_slope(s, CH, tab, 2, 0.1) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("bad", [0.0, 1.0])
    def test_singular_points_rejected(self, bad):
        tab = compute_tables(_sys(), CH, np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            cost_slope(_sys(), CH, tab, 0, bad)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(51)
        worst = 0.0
        for _ in range(10):
            s = random_system(rng, t_min=2, t_max=10)
            ch = random_channel(rng, min_pi_max=0.2)
            pi = interior_success(rng, ch, s.T)
            tab = compute_tables(s, ch, pi, s.sigma_x2)
            for t in range(s.T):
                an = cost_slope(s, ch, tab, t, pi[t])
                fd = fd_slope(s, ch, pi, t)
                rel = abs(an - fd) / max(abs(an), abs(fd))
                worst = max(worst, rel)
        assert worst <= 1e-5


class TestPowerTermShape:
    def test_monotone_decreasing_then_increasing(self):
        # theta/(pi ln^2 pi) falls on (0, e^-2) and rises on (e^-2, 1)
        g = lambda pi: CH.theta / (pi * math.log(pi) ** 2)
        left = np.linspace(1e-4, math.exp(-2) - 1e-9, 400)
        right = np.linspace(math.exp(-2) + 1e-9, 0.999, 400)
        assert np.all(np.diff([g(x) for x in left]) < 0)
        assert np.all(np.diff([g(x) for x in right]) > 0)

    def test_stationary_point_at_e_minus_2(self):
        g = lambda pi: CH.theta / (pi * math.log(pi) ** 2)
        pivot = math.exp(-2)
        assert g(pivot) < g(pivot * (1 - 1e-6))
        assert g(pivot) < g(pivot * (1 + 1e-6))
        assert g(pivot) == pytest.approx(CH.theta * math.e**2 / 4, rel=1e-12)


def test_policy_success_vector_consistency():
    rng = np.random.default_rng(61)
    ch = random_channel(rng)
    p = rng.uniform(0, ch.p_max, 12)
    p[rng.random(12) < 0.3] = 0.0
    pi = policy_to_success(p, ch)
    assert np.all((pi == 0) == (p == 0))  # zero power iff zero probability
