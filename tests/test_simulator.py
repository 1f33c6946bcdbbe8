import math
import multiprocessing
import os
import threading
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lqpower.simulator as simmod
from lqpower import (
    ChannelParams,
    SimConfig,
    SystemParams,
    baseline_policy,
    expected_cost,
    monte_carlo_batch,
    monte_carlo_cost,
    policy_to_success,
)
from lqpower.cli import main
from lqpower.experiments import load_config, run_compare
from lqpower.simulator import _stream_keys, _uniform_column
from oracles import (
    ReplicationStream,
    _uniform_block,
    random_channel,
    random_system,
    reference_monte_carlo,
    simulate_replication,
)

CH = ChannelParams(gamma=1.0, sigma2=1.0, gbar=1.0, p_max=3.0)


def _sys(**kw):
    base = dict(a=1.1, b=-1.0, k=1.0, q=1.0, r=0.5, sigma_x2=1.0, sigma_d2=0.0, T=3)
    base.update(kw)
    return SystemParams(**base)


def _columns(seed, start, stop, draws):
    """Draws `draws` of replications start..stop-1, one column per draw."""
    keys = _stream_keys(seed, np.arange(start, stop, dtype=np.int64))
    return np.column_stack([_uniform_column(keys, j) for j in draws])


class TestUniformStreams:
    def test_range_and_determinism(self):
        u = _columns(123, 0, 1000, range(8))
        assert np.all((u > 0) & (u < 1))
        assert np.array_equal(u, _columns(123, 0, 1000, range(8)))

    def test_rows_depend_only_on_index(self):
        whole = _columns(9, 0, 64, range(5))
        part = _columns(9, 17, 40, range(5))
        assert np.array_equal(whole[17:40], part)

    def test_columns_are_the_block_columns(self):
        # each column made on demand holds the bits of that column of the
        # whole block, whichever other columns are made
        block = _uniform_block(31, 5, 300, 61)
        draws = [0, 60, 3, 31, 2]
        assert np.array_equal(_columns(31, 5, 300, draws), block[:, draws])
        big = np.array([2**40, 2**62 + 7])
        keys = _stream_keys(31, big)
        for j in (0, 17, 2**33):
            want = np.array([_uniform_block(31, int(i), int(i) + 1, 1, first_draw=j)[0, 0]
                             for i in big])
            assert np.array_equal(_uniform_column(keys, j), want)

    def test_stream_continuation(self):
        s1 = ReplicationStream(5, 3)
        first = np.concatenate([s1.uniform(4), s1.uniform(3)])
        s2 = ReplicationStream(5, 3)
        assert np.array_equal(first, s2.uniform(7))

    def test_mixed_call_sizes_reproduce_one_block_row(self):
        # each call generates only its own draws, from the stream's position on
        row = _uniform_block(11, 6, 7, 40)[0]
        stream = ReplicationStream(11, 6)
        parts = [stream.uniform(k) for k in (1, 7, 2, 13, 1, 16)]
        assert np.array_equal(np.concatenate(parts), row)
        assert np.array_equal(_uniform_block(11, 0, 9, 9, first_draw=31)[6], row[31:])

    def test_seeds_decorrelate(self):
        a = _columns(1, 0, 4000, [0])[:, 0]
        b = _columns(2, 0, 4000, [0])[:, 0]
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05

    def test_marginals_are_uniform(self):
        u = _columns(77, 0, 200_000, [0])[:, 0]
        assert abs(u.mean() - 0.5) < 4 * (1 / math.sqrt(12 * len(u)))
        assert abs(u.var() - 1 / 12) < 1e-3


class TestSimulateReplication:
    def test_open_loop_deterministic(self):
        # no transmissions, no noise, fixed start: 1 + 1.21 + 1.4641
        sim = SimConfig(initial_state="fixed", x1=1.0)
        cost = simulate_replication(_sys(), CH, np.zeros(3),
                                    ReplicationStream(0, 0), sim)
        assert cost == pytest.approx(3.6741, rel=1e-14)

    def test_forced_reception_hook(self, monkeypatch):
        # success in slot 1 only, power clamped to 0: (1 + 0.5) + 0.01
        monkeypatch.setattr("oracles.policy_to_success",
                            lambda policy, ch: np.array([1.0, 0.0]))
        sim = SimConfig(initial_state="fixed", x1=1.0)
        cost = simulate_replication(
            _sys(T=2), CH, np.zeros(2), ReplicationStream(0, 0), sim)
        assert cost == pytest.approx(1.51, rel=1e-14)

    def test_same_stream_same_cost(self):
        s = _sys(sigma_d2=0.2, T=6)
        pol = np.array([2.0, 1.0, 0.5, 0.0, 0.3, 0.0])
        sim = SimConfig(channel_model="gain_threshold")
        c1 = simulate_replication(s, CH, pol, ReplicationStream(42, 7), sim)
        c2 = simulate_replication(s, CH, pol, ReplicationStream(42, 7), sim)
        assert c1 == c2

    def test_trajectory_recording(self):
        s = _sys(sigma_d2=0.1, T=5)
        pol = np.array([2.0, 1.5, 1.0, 0.5, 0.0])
        sim = SimConfig(initial_state="gaussian")
        cost, traj = simulate_replication(s, CH, pol, ReplicationStream(3, 1),
                                          sim, record=True)
        assert traj["x"].shape == traj["z"].shape == traj["u"].shape == (5,)
        rebuilt = np.sum(s.q * traj["x"] ** 2 + s.r * traj["u"] ** 2 + pol)
        assert cost == pytest.approx(rebuilt, rel=1e-12)
        # control fires only on reception
        assert np.all((traj["u"] != 0) <= traj["z"])


# (channel model, initial state, perturbed, policy, replications); 70,001
# replications cross two chunk boundaries
_REFERENCE_CASES = [
    *[(model, init, noisy, kind, 3001)
      for model in ("bernoulli", "gain_threshold")
      for init in ("gaussian", "fixed")
      for noisy in (False, True)
      for kind in ("mixed", "zero", "p_max")],
    *[(model, "gaussian", noisy, "mixed", 70_001)
      for model in ("bernoulli", "gain_threshold")
      for noisy in (False, True)],
    ("gain_threshold", "fixed", True, "mixed", 1 << 16),   # the fork threshold
]


class TestMonteCarlo:
    def test_batch_matches_scalar_path(self):
        s = _sys(a=1.1, k=1.8, sigma_d2=0.05, T=7)
        pol = np.array([2.5, 1.7, 0.9, 0.4, 0.0, 1.2, 0.0])
        for model in ("bernoulli", "gain_threshold"):
            sim = SimConfig(n_samples=50, seed=99, channel_model=model)
            rep = monte_carlo_cost(s, CH, pol, sim, return_samples=True)
            scalar = np.array([
                simulate_replication(s, CH, pol, ReplicationStream(99, i), sim)
                for i in range(50)
            ])
            assert np.array_equal(rep.samples, scalar)

    @pytest.mark.parametrize("case", range(len(_REFERENCE_CASES)),
                             ids=["-".join(map(str, c)) for c in _REFERENCE_CASES])
    def test_matches_whole_block_reference(self, case):
        # drawing columns on demand, and only those read, keeps every bit of
        # the whole-block rollout: the mean, its error, the per-slot sums
        # and every replication's cost
        model, initial_state, noisy, kind, n = _REFERENCE_CASES[case]
        rng = np.random.default_rng(1000 + case)
        s = random_system(rng, t_max=12)
        s = replace(s, sigma_d2=rng.uniform(0.01, 0.5) if noisy else 0.0)
        ch = random_channel(rng)
        if kind == "zero":
            pol = np.zeros(s.T)
        elif kind == "p_max":
            pol = np.full(s.T, ch.p_max)
        else:
            pol = rng.uniform(0.0, ch.p_max, s.T)
            pol[rng.random(s.T) < 0.4] = 0.0
            pol[rng.integers(s.T)] = ch.p_max
        sim = SimConfig(n_samples=n, seed=int(rng.integers(2**63)),
                        channel_model=model, initial_state=initial_state,
                        x1=rng.uniform(-2.0, 2.0))
        got = monte_carlo_cost(s, ch, pol, sim, return_samples=True)
        want = reference_monte_carlo(s, ch, pol, sim, return_samples=True)
        assert got.mean_cost == want.mean_cost
        assert got.std_err == want.std_err
        assert np.array_equal(got.per_slot, want.per_slot)
        assert np.array_equal(got.samples, want.samples)

    def test_draws_only_what_is_read(self, monkeypatch):
        read = []
        make = simmod._uniform_column

        def spy(keys, j):
            read.append(j)
            return make(keys, j)

        monkeypatch.setattr(simmod, "_uniform_column", spy)
        s = _sys(T=5)
        pol = np.array([2.0, 0.0, 1.0, 0.0, 0.0])
        # fixed x1, no perturbation: only the channels of the sending slots
        monte_carlo_cost(s, CH, pol, SimConfig(n_samples=10, initial_state="fixed"))
        assert read == [1, 3]
        read.clear()
        # draw 0 is x1, draws 1..5 the channels, 6..10 the perturbations; the
        # last perturbation only moves the state past the horizon
        monte_carlo_cost(replace(s, sigma_d2=0.1), CH, pol,
                         SimConfig(n_samples=10, channel_model="gain_threshold"))
        assert read == [0, 1, 6, 7, 3, 8, 9]

    def test_overflowing_rollout_raises(self):
        # x_t = 3^(t-1) from x1 = 1: the state cost overflows at slot 324
        sim = SimConfig(n_samples=4, initial_state="fixed")
        with pytest.raises(ValueError, match="statistics are not finite"):
            monte_carlo_cost(_sys(a=3.0, T=400), CH, np.zeros(400), sim)

    def test_bit_identical_reruns(self):
        s = _sys(sigma_d2=0.3, T=8)
        pol = np.linspace(2.4, 0.0, 8)
        sim = SimConfig(n_samples=4000, seed=2024)
        r1 = monte_carlo_cost(s, CH, pol, sim)
        r2 = monte_carlo_cost(s, CH, pol, sim)
        assert r1.mean_cost == r2.mean_cost
        assert r1.std_err == r2.std_err
        assert np.array_equal(r1.per_slot, r2.per_slot)

    def test_replications_independent_of_batch_size(self):
        s = _sys(sigma_d2=0.1, T=4)
        pol = np.array([1.0, 0.5, 0.2, 0.0])
        small = monte_carlo_cost(s, CH, pol, SimConfig(n_samples=60, seed=8),
                                 return_samples=True)
        large = monte_carlo_cost(s, CH, pol, SimConfig(n_samples=240, seed=8),
                                 return_samples=True)
        assert np.array_equal(small.samples, large.samples[:60])

    def test_chunking_does_not_change_results(self, monkeypatch):
        s = _sys(sigma_d2=0.1, T=5)
        pol = np.array([2.0, 1.0, 0.5, 0.2, 0.0])
        sim = SimConfig(n_samples=1000, seed=5)
        whole = monte_carlo_cost(s, CH, pol, sim)
        monkeypatch.setattr(simmod, "_CHUNK", 64)
        chunked = monte_carlo_cost(s, CH, pol, sim)
        assert whole.mean_cost == pytest.approx(chunked.mean_cost, rel=1e-13)
        assert whole.std_err == pytest.approx(chunked.std_err, rel=1e-11)

    def test_report_totals_match_per_slot(self):
        s = _sys(sigma_d2=0.2, T=9)
        pol = np.linspace(2.7, 0.0, 9)
        rep = monte_carlo_cost(s, CH, pol, SimConfig(n_samples=20_000, seed=3))
        assert rep.mean_cost == pytest.approx(rep.per_slot.sum(), rel=1e-9)
        assert rep.per_slot.shape == (9, 3)
        assert np.array_equal(rep.per_slot[:, 2], pol)

    def test_std_err_definition(self):
        s = _sys(sigma_d2=0.4, T=4)
        pol = np.array([1.5, 0.7, 0.0, 0.0])
        rep = monte_carlo_cost(s, CH, pol, SimConfig(n_samples=500, seed=4),
                               return_samples=True)
        want = rep.samples.std(ddof=1) / math.sqrt(len(rep.samples))
        assert rep.std_err == pytest.approx(want, rel=1e-10)

    def test_single_replication_flagged(self):
        rep = monte_carlo_cost(_sys(), CH, np.zeros(3), SimConfig(n_samples=1, seed=0))
        assert rep.std_err == 0.0
        assert not rep.std_err_valid
        assert rep.n_samples == 1

    def test_deterministic_config_has_zero_spread(self):
        sim = SimConfig(n_samples=200, seed=6, initial_state="fixed", x1=1.0)
        rep = monte_carlo_cost(_sys(), CH, np.zeros(3), sim, return_samples=True)
        assert np.ptp(rep.samples) == 0.0
        want = sum(1.1 ** (2 * t) for t in range(3))
        assert rep.mean_cost == pytest.approx(want, rel=1e-14)

    def test_mean_tracks_closed_form(self):
        rng = np.random.default_rng(101)
        for _ in range(5):
            s = random_system(rng, t_max=8)
            ch = random_channel(rng)
            pol = rng.uniform(0, ch.p_max, s.T)
            sim = SimConfig(n_samples=40_000, seed=int(rng.integers(2**31)))
            rep = monte_carlo_cost(s, ch, pol, sim)
            want = expected_cost(s, ch, policy_to_success(pol, ch))
            assert abs(rep.mean_cost - want) <= 4.5 * rep.std_err

    def test_proposed_policy_beats_baselines_in_simulation(self):
        # the perturbed long-horizon scenario: optimized policy's sampled
        # mean sits below both reference policies by many standard errors
        from lqpower import OptimizerConfig, optimize_policy
        s = _sys(k=1.8, sigma_d2=0.05, T=30)
        trace = optimize_policy(s, CH, OptimizerConfig(ex2_1=1.0))
        sim = SimConfig(n_samples=4000, seed=12)
        rp = monte_carlo_cost(s, CH, trace.policy, sim)
        rf = monte_carlo_cost(s, CH, baseline_policy("full_power", CH, 30), sim)
        ro = monte_carlo_cost(s, CH, baseline_policy("open_loop", CH, 30), sim)
        assert rp.mean_cost + 4 * rp.std_err < min(rf.mean_cost, ro.mean_cost)

    def test_channel_models_agree_statistically(self):
        s = _sys(k=1.8, sigma_d2=0.05, T=8)
        pol = np.linspace(2.8, 0.0, 8)
        rb = monte_carlo_cost(s, CH, pol,
                              SimConfig(n_samples=50_000, seed=10))
        rg = monte_carlo_cost(s, CH, pol,
                              SimConfig(n_samples=50_000, seed=11,
                                        channel_model="gain_threshold"))
        gap = abs(rb.mean_cost - rg.mean_cost)
        assert gap <= 4 * math.hypot(rb.std_err, rg.std_err)

    def test_gain_threshold_matches_success_law(self):
        n = 100_000
        for j, p in enumerate(np.linspace(0.3, CH.p_max, 8)):
            u = _columns(500 + j, 0, n, [0])[:, 0]
            gains = -CH.gbar * np.log(u)
            freq = np.mean(gains * p / CH.sigma2 >= CH.gamma)
            pi = math.exp(-CH.theta / p)
            assert abs(freq - pi) <= 4 * math.sqrt(pi * (1 - pi) / n)


# (channel model, initial state, perturbed, replications); 70,001
# replications cross two chunk boundaries
_SHARED_CASES = [
    *[(model, init, noisy, n)
      for model in ("bernoulli", "gain_threshold")
      for init in ("gaussian", "fixed")
      for noisy in (False, True)
      for n in (1, 3001)],
    *[(model, "gaussian", noisy, 70_001)
      for model in ("bernoulli", "gain_threshold")
      for noisy in (False, True)],
]


class TestSharedRollout:
    @pytest.mark.parametrize("case", range(len(_SHARED_CASES)),
                             ids=["-".join(map(str, c)) for c in _SHARED_CASES])
    def test_each_report_is_the_policy_alone(self, case):
        # sharing the draws keeps every bit of each policy's own rollout
        model, initial_state, noisy, n = _SHARED_CASES[case]
        rng = np.random.default_rng(2000 + case)
        s = random_system(rng, t_min=2, t_max=12)
        s = replace(s, sigma_d2=rng.uniform(0.01, 0.5) if noisy else 0.0)
        ch = random_channel(rng)
        partly = rng.uniform(0.0, ch.p_max, s.T)
        partly[rng.random(s.T) < 0.4] = 0.0
        partly[0] = 0.0   # a slot that some policies leave silent
        partly[-1] = ch.p_max
        policies = [partly, np.zeros(s.T), np.full(s.T, ch.p_max),
                    np.where(partly > 0, 0.0, ch.p_max / 2)]
        sim = SimConfig(n_samples=n, seed=int(rng.integers(2**63)),
                        channel_model=model, initial_state=initial_state,
                        x1=rng.uniform(-2.0, 2.0))
        reports = monte_carlo_batch([(s, ch, policies)], sim, return_samples=True)[0]
        assert len(reports) == len(policies)
        for got, pol in zip(reports, policies):
            want = reference_monte_carlo(s, ch, pol, sim, return_samples=True)
            assert got.mean_cost == want.mean_cost
            assert got.std_err == want.std_err
            assert got.std_err_valid == want.std_err_valid
            assert np.array_equal(got.per_slot, want.per_slot)
            assert np.array_equal(got.samples, want.samples)

    def test_each_column_made_once(self, monkeypatch):
        made = []   # (first key of the chunk, j) of every column made
        make = simmod._uniform_column

        def spy(keys, j):
            made.append((int(keys[0]), j))
            return make(keys, j)

        monkeypatch.setattr(simmod, "_uniform_column", spy)
        monkeypatch.setattr(simmod, "_CHUNK", 4)
        s = _sys(sigma_d2=0.1, T=5)
        policies = [np.array([2.0, 0.0, 1.0, 0.0, 0.0]),
                    np.array([0.0, 0.0, 0.0, 3.0, 0.0]),
                    np.zeros(5)]
        sim = SimConfig(n_samples=10, channel_model="gain_threshold")
        alone = set()
        for pol in policies:
            monte_carlo_cost(s, CH, pol, sim)
            alone |= set(made)
            made.clear()
        monte_carlo_batch([(s, CH, policies)], sim)
        # three chunks of 4, 4 and 2 replications
        assert len({key for key, _ in made}) == 3
        assert len(made) == len(set(made))
        assert set(made) == alone
        assert sorted({j for _, j in made}) == [0, 1, 3, 4, 6, 7, 8, 9]

    def test_overflow_names_the_policy(self):
        # a reception multiplies the state by a + bk = -8.9: full power
        # overflows by T = 400, while open loop's 1.1^399 stays finite
        s = _sys(k=10.0, T=400)
        sim = SimConfig(n_samples=4, initial_state="fixed")
        good, bad = np.zeros(400), np.full(400, CH.p_max)
        monte_carlo_batch([(s, CH, [good, good])], sim)
        with pytest.raises(ValueError, match=r"\(T = 400, policy 1\)"):
            monte_carlo_batch([(s, CH, [good, bad, good])], sim)
        with pytest.raises(ValueError, match=r"\(T = 400, policy 0\)"):
            monte_carlo_batch([(s, CH, [bad, good])], sim)

    def test_per_slot_sums_overflow_across_chunks(self):
        # q x1^2 = 3.969e303 in every replication and slot: a chunk's state
        # sum, 32,768 of them, is 1.3e308 and finite, but the two chunks'
        # total overflows, while the mean and its zero spread stay finite
        s = _sys(k=0.0, T=1)
        sim = SimConfig(n_samples=65_536, initial_state="fixed", x1=6.3e151)
        runs = [(s, CH, [[0.0], [CH.p_max], [0.0]])]
        reports = monte_carlo_batch(runs, sim, per_slot=False)[0]
        for report in reports:
            assert report.mean_cost == pytest.approx(3.969e303)
            assert report.std_err == 0.0 and report.per_slot is None
        with pytest.raises(ValueError, match=r"\(T = 1, policy 0\)"):
            monte_carlo_batch(runs, sim)

    def test_policy_length_names_the_policy(self):
        s = _sys(T=3)
        with pytest.raises(ValueError, match="policy 1 has length 2"):
            monte_carlo_batch([(s, CH, [np.zeros(3), np.zeros(2)])], SimConfig())

    def test_no_policies(self):
        assert monte_carlo_batch([(_sys(), CH, [])], SimConfig())[0] == []


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _batches(draw):
    """A SimConfig and 1..5 scenarios (sys, ch, policies) with T <= 6, so
    that scenarios often read the same draw columns."""
    sim = SimConfig(
        n_samples=draw(st.integers(1, 40)),
        seed=draw(st.integers(0, 2**64 - 1)),
        channel_model=draw(st.sampled_from(["bernoulli", "gain_threshold"])),
        initial_state=draw(st.sampled_from(["gaussian", "fixed"])),
        x1=draw(_floats(-2.0, 2.0)))
    runs = []
    for _ in range(draw(st.integers(1, 5))):
        s = _sys(a=draw(_floats(0.6, 1.3)), sigma_x2=draw(_floats(0.0, 2.0)),
                 sigma_d2=draw(st.just(0.0) | _floats(0.0, 0.5)),
                 T=draw(st.integers(1, 6)))
        # each scenario's own channel: a gain-threshold chunk transforms a
        # shared uniform column by several gbar, gamma and p_max
        ch = ChannelParams(gamma=draw(_floats(0.5, 2.0)), gbar=draw(_floats(0.5, 2.0)),
                           p_max=draw(_floats(0.5, 4.0)))
        power = st.just(0.0) | st.just(ch.p_max) | _floats(0.0, ch.p_max)
        policies = draw(st.lists(st.lists(power, min_size=s.T, max_size=s.T),
                                 max_size=3))
        runs.append((s, ch, policies))
    return sim, runs


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(_batches(), st.booleans())
def test_batch_equals_singles(batch, per_slot):
    # chunks of 7 replications: up to 40 replications cross chunk boundaries.
    # The singles keep their per-slot sums; a batch without them must give
    # the same bits for everything else
    sim, runs = batch
    with mock.patch.object(simmod, "_CHUNK", 7):
        together = monte_carlo_batch(runs, sim, return_samples=True, per_slot=per_slot)
        alone = [monte_carlo_batch([run], sim, return_samples=True)[0] for run in runs]
    assert len(together) == len(runs)
    for got_reports, want_reports in zip(together, alone):
        assert len(got_reports) == len(want_reports)
        for got, want in zip(got_reports, want_reports):
            assert got.mean_cost == want.mean_cost
            assert got.std_err == want.std_err
            assert got.std_err_valid == want.std_err_valid
            if per_slot:
                assert np.array_equal(got.per_slot, want.per_slot)
            else:
                assert got.per_slot is None
            assert np.array_equal(got.samples, want.samples)


class TestBatchRollout:
    @pytest.mark.parametrize("last", [6, 30])
    def test_compare_makes_each_draw_column_once(self, tmp_path, monkeypatch, last):
        uniforms, normals = [], []   # (first key of the chunk, j) of every column made
        made = []                    # each uniform column, kept so that its id stays its own
        stores = []                  # each chunk's _Draws
        make, ndtri, Draws = simmod._uniform_column, simmod.ndtri, simmod._Draws

        def spy(keys, j):
            uniforms.append((int(keys[0]), j))
            made.append(make(keys, j))
            return made[-1]

        def normal_spy(u):   # normal column j is made from uniform column j
            [source] = [uniforms[i] for i, column in enumerate(made) if column is u]
            normals.append(source)
            return ndtri(u)

        class Recorded(Draws):
            def __init__(self, *args):
                super().__init__(*args)
                stores.append(self)

        monkeypatch.setattr(simmod, "_uniform_column", spy)
        monkeypatch.setattr(simmod, "ndtri", normal_spy)
        monkeypatch.setattr(simmod, "_Draws", Recorded)
        monkeypatch.setattr(simmod, "_CHUNK", 4)
        cfg = load_config(preset="fig4", samples=10, output_dir=str(tmp_path))
        run_compare(cfg, range(2, last + 1))
        # three chunks of 4, 4 and 2 replications.  Full power sends in every
        # slot, so the channels read j = 1..last; the normal columns are x1
        # (j = 0) and the perturbations j = T+1..2T-1 of T = 2..last
        chunks = {key for key, _ in uniforms}
        assert len(chunks) == 3 and len(stores) == 3
        assert len(uniforms) == len(set(uniforms))
        assert len(normals) == len(set(normals))
        normal_draws = [0, *range(3, 2 * last)]
        assert set(normals) == {(key, j) for key in chunks for j in normal_draws}
        channel_draws = range(1, last + 1)
        assert set(uniforms) == {(key, j) for key in chunks
                                 for j in {*channel_draws, *normal_draws}}
        if last == 30:   # figure fig4: 60 uniform and 58 normal columns a chunk
            assert len(uniforms) == 3 * 60 and len(normals) == 3 * 58
        for store in stores:   # every read made, no column left held
            assert store.held == {}
            assert not any(store.left.values())

    @pytest.mark.parametrize("channel_model", ["bernoulli", "gain_threshold"])
    def test_compare_never_writes_a_column(self, tmp_path, monkeypatch, channel_model):
        # horizons 2..6 share channel and perturbation columns (sigma_d2 > 0);
        # each column must keep the bits it was made with until its chunk ends
        made = []   # (column, its bits when made)
        uniform, ndtri, moments = simmod._uniform_column, simmod.ndtri, simmod._Scenario.moments

        def kept(make):
            def spy(*args):
                column = make(*args)
                made.append((column, column.copy()))
                return column
            return spy

        chunks = []

        def checked_moments(self, costs):   # the last scenario's moments end a chunk
            result = moments(self, costs)
            if self.sys.T == 6:
                chunks.append(len(made))
                for column, bits in made:
                    assert np.array_equal(column, bits)
            return result

        monkeypatch.setattr(simmod, "_uniform_column", kept(uniform))
        monkeypatch.setattr(simmod, "ndtri", kept(ndtri))
        monkeypatch.setattr(simmod._Scenario, "moments", checked_moments)
        monkeypatch.setattr(simmod, "_CHUNK", 4)
        cfg = load_config(preset="fig4", samples=10, output_dir=str(tmp_path))
        cfg = replace(cfg, sim=replace(cfg.sim, channel_model=channel_model))
        assert cfg.sys.sigma_d2 > 0
        run_compare(cfg, range(2, 7))
        assert len(chunks) == 3 and chunks[0] > 0

    def test_empty_batch(self):
        assert monte_carlo_batch([], SimConfig()) == []

    @pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1), (3, 0), (0, 3),
                                       (1, 3), (3, 1)])
    def test_raises_the_first_failure_in_input_order(self, order):
        # 0 is valid; 1 overflows to inf; 2 has a policy of the wrong length;
        # 3 has a finite cost near 1e200, whose moments stay finite
        sim = SimConfig(n_samples=4, initial_state="fixed")
        scenarios = [
            (_sys(a=0.5, T=3), CH, [np.zeros(3)]),
            (_sys(a=3.0, T=400), CH, [np.zeros(400)]),
            (_sys(T=3), CH, [np.zeros(3), np.zeros(2)]),
            (_sys(q=1e200, T=2), CH, [np.zeros(2)]),
        ]
        [[report]] = monte_carlo_batch([scenarios[3]], sim)
        assert report.mean_cost == pytest.approx(2.21e200) and report.std_err == 0.0
        runs = [scenarios[i] for i in order]
        if not {1, 2} & set(order):   # every scenario has one policy
            assert [r.mean_cost for [r] in monte_carlo_batch(runs, sim)] == [
                monte_carlo_batch([run], sim)[0][0].mean_cost for run in runs]
            return
        for run in runs:   # the failure of one scenario at a time
            try:
                monte_carlo_batch([run], sim)
            except ValueError as exc:
                want = exc
                break
        with pytest.raises(ValueError) as got:
            monte_carlo_batch(runs, sim)
        assert str(got.value) == str(want)


def _bits(report):
    """Every field of a report, as bytes where it is an array."""
    return (np.float64(report.mean_cost).tobytes(), np.float64(report.std_err).tobytes(),
            None if report.per_slot is None else report.per_slot.tobytes(),
            report.n_samples, report.std_err_valid,
            None if report.samples is None else report.samples.tobytes())


def _forking(monkeypatch, cpus):
    """Make `cpus` CPUs usable to the rollout, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


class TestForkedRollout:
    """From _FORK_MIN replications on, chunks run in forked helpers too."""

    RUNS = [(_sys(k=1.8, sigma_d2=0.05, T=6), CH,
             [np.array([2.5, 0.0, 1.2, 3.0, 0.7, 0.0]), np.full(6, 3.0), np.zeros(6)]),
            (_sys(T=4), CH, [np.array([0.4, 3.0, 0.0, 0.0]), np.full(4, 1.0)])]

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("n", [1 << 16, 100_001])   # two full chunks; a partial last one
    @pytest.mark.parametrize("channel_model", ["bernoulli", "gain_threshold"])
    @pytest.mark.parametrize("per_slot", [True, False])
    def test_same_bits_as_in_process(self, monkeypatch, cpus, n, channel_model, per_slot):
        sim = SimConfig(n_samples=n, seed=123, channel_model=channel_model)
        _forking(monkeypatch, cpus)
        parent, rollout, here = os.getpid(), simmod._rollout, []

        def counted(live, sim, los):
            if os.getpid() == parent:
                here.extend(los)
            return rollout(live, sim, los)

        monkeypatch.setattr(simmod, "_rollout", counted)
        forked = monte_carlo_batch(self.RUNS, sim, return_samples=True, per_slot=per_slot)
        chunks = list(range(0, n, simmod._CHUNK))
        assert here == chunks[::cpus] and multiprocessing.active_children() == []
        monkeypatch.setattr(simmod, "_FORK_MIN", n + 1)
        del here[:]
        alone = monte_carlo_batch(self.RUNS, sim, return_samples=True, per_slot=per_slot)
        assert here == chunks
        assert [[_bits(r) for r in reports] for reports in forked] == \
            [[_bits(r) for r in reports] for reports in alone]

    def test_empty_batch_rolls_nothing_out(self, monkeypatch):
        # no scenario with a policy: no chunk's keys are made, no helper forks
        _forking(monkeypatch, 2)
        calls = []
        for name in ("_stream_keys", "_rollout"):
            monkeypatch.setattr(simmod, name, lambda *args, name=name: calls.append(name))
        assert monte_carlo_batch([], SimConfig(n_samples=10**6)) == []
        assert monte_carlo_batch([(_sys(), CH, [])], SimConfig(n_samples=10**7)) == [[]]
        assert calls == [] and multiprocessing.active_children() == []

    def test_no_fork_beside_another_thread(self, monkeypatch):
        # a forked helper would inherit the other thread's locks, held
        _forking(monkeypatch, 2)
        rollout, here = simmod._rollout, []

        def counted(live, sim, los):
            here.extend(los)
            return rollout(live, sim, los)

        monkeypatch.setattr(simmod, "_rollout", counted)
        done = threading.Event()
        other = threading.Thread(target=done.wait, args=(60,))
        other.start()
        try:
            monte_carlo_batch(self.RUNS, SimConfig(n_samples=1 << 16))
        finally:
            done.set()
            other.join(60)
        assert not other.is_alive()
        assert here == [0, simmod._CHUNK]

    def test_runs_in_a_pool_worker(self, monkeypatch):
        # a daemon process, such as a multiprocessing pool's worker, may not
        # start processes of its own: there the rollout stays in process
        _forking(monkeypatch, 2)
        sim = SimConfig(n_samples=1 << 16)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            in_worker = pool.apply(monte_carlo_batch, (self.RUNS, sim))
        here = monte_carlo_batch(self.RUNS, sim)
        assert [[_bits(r) for r in reports] for reports in in_worker] == \
            [[_bits(r) for r in reports] for reports in here]

    def test_parent_share_raising_leaves_no_helper(self, monkeypatch):
        _forking(monkeypatch, 2)
        parent, rollout = os.getpid(), simmod._rollout

        def failing(*args):
            if os.getpid() == parent:
                raise RuntimeError("the parent's share failed")
            return rollout(*args)

        monkeypatch.setattr(simmod, "_rollout", failing)
        with pytest.raises(RuntimeError, match="the parent's share failed"):
            monte_carlo_batch(self.RUNS, SimConfig(n_samples=1 << 16))
        assert multiprocessing.active_children() == []

    def test_helper_exception_is_raised_here(self, monkeypatch):
        _forking(monkeypatch, 2)
        parent, rollout = os.getpid(), simmod._rollout

        def failing(*args):
            if os.getpid() != parent:
                raise MemoryError("a helper's share failed")
            return rollout(*args)

        monkeypatch.setattr(simmod, "_rollout", failing)
        with pytest.raises(MemoryError, match="a helper's share failed"):
            monte_carlo_batch(self.RUNS, SimConfig(n_samples=1 << 16))
        assert multiprocessing.active_children() == []

    def test_helper_exiting_without_a_result(self, tmp_path, capsys, monkeypatch):
        _forking(monkeypatch, 2)
        parent, rollout = os.getpid(), simmod._rollout

        def exiting(*args):
            if os.getpid() != parent:
                os._exit(3)
            return rollout(*args)

        monkeypatch.setattr(simmod, "_rollout", exiting)
        with pytest.raises(ChildProcessError, match=r"\(code 3\) without its result"):
            monte_carlo_batch(self.RUNS, SimConfig(n_samples=1 << 16))
        assert multiprocessing.active_children() == []
        out = tmp_path / "out"
        assert main(["simulate", "--samples", "70000", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: a Monte Carlo helper exited")
        assert multiprocessing.active_children() == []


class TestBaselines:
    def test_open_loop(self):
        assert np.array_equal(baseline_policy("open_loop", CH, 5), np.zeros(5))

    def test_full_power(self):
        pol = baseline_policy("full_power", CH, 3)
        assert np.array_equal(pol, np.full(3, 3.0))
        pi = policy_to_success(pol, CH)
        assert np.allclose(pi, math.exp(-1 / 3), rtol=1e-14)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            baseline_policy("half_power", CH, 3)

    @pytest.mark.parametrize("kind,T,message", [
        ("half", 3, "unknown baseline 'half': use 'full_power' or 'open_loop'"),
        ("open_loop", 0, "T must be >= 1 (got 0)")])
    def test_errors_are_named(self, kind, T, message):
        with pytest.raises(ValueError) as exc:
            baseline_policy(kind, CH, T)
        assert str(exc.value) == message


class TestSimConfigValidation:
    @pytest.mark.parametrize("n_samples", [0, True])
    def test_bad_samples(self, n_samples):
        with pytest.raises(ValueError, match=rf"sim\.n_samples .* \(got {n_samples}\)"):
            SimConfig(n_samples=n_samples)

    def test_bad_channel_model(self):
        with pytest.raises(ValueError, match="channel_model"):
            SimConfig(channel_model="awgn")

    @pytest.mark.parametrize("x1", [math.nan, math.inf, -math.inf])
    def test_bad_x1(self, x1):
        with pytest.raises(ValueError, match=r"sim\.x1 must be finite"):
            SimConfig(initial_state="fixed", x1=x1)

    @pytest.mark.parametrize("x1", [True, False, "2.5"])
    def test_x1_must_be_a_number(self, x1):
        # a bool is an int to Python
        with pytest.raises(ValueError,
                           match=rf"^sim\.x1 must be a real number \(got {x1!r}\)$"):
            SimConfig(initial_state="fixed", x1=x1)

    def test_bad_initial_state(self):
        with pytest.raises(ValueError, match="initial_state"):
            SimConfig(initial_state="uniform")

    @pytest.mark.parametrize("seed", [-1, 2**64, 3 + 2**64, False])
    def test_seed_outside_u64(self, seed):
        # the streams take the seed as a u64: a wrapped seed would replay
        # another seed's draws; a bool is an int to Python, but no seed
        with pytest.raises(ValueError, match=r"sim\.seed must be an integer "
                                             r"in \[0, 2\*\*64 - 1\]"):
            SimConfig(seed=seed)

    def test_seed_bounds_accepted(self):
        for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
            SimConfig(seed=seed)
