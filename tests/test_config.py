"""Config files round-trip: any valid JSON config loads as the dataclasses it
names; a numpy number field is stored as the Python float or int of its value."""

import json
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lqpower import (
    ChannelParams,
    OptimizerConfig,
    SimConfig,
    SystemParams,
    expected_cost,
    monte_carlo_cost,
    optimize_policy,
)
from lqpower.experiments import PRESETS, ExperimentConfig, load_config


def _floats(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


_positive = _floats(min_value=0.0, exclude_min=True)
_nonnegative = _floats(min_value=0.0)
# SystemParams rejects an a, b or k whose square overflows
_coefficient = _floats(min_value=-1e154, max_value=1e154)


def _accepted(cls):
    """A filter: whether cls accepts the drawn keyword arguments, each of
    which is in range on its own.  ChannelParams also rejects a theta/p_max
    so small that pi_max rounds to 1, and one so large (an overflowed,
    infinite theta among them) that pi_max rounds to 0; SystemParams rejects
    an r k^2 or a c = b^2 k^2 + 2abk that overflows."""
    def accepted(kwargs) -> bool:
        try:
            cls(**kwargs)
        except ValueError:
            return False
        return True
    return accepted


@st.composite
def _channels(draw):
    """Positive channel constants, p_max drawn through theta/p_max: of four
    independent positive floats, most give a pi_max that rounds to 0 or 1."""
    kw = draw(st.fixed_dictionaries(
        {"gamma": _positive, "sigma2": _positive, "gbar": _positive}))
    theta = kw["gamma"] * kw["sigma2"] / kw["gbar"]
    kw["p_max"] = theta / draw(_floats(min_value=1e-15, max_value=700.0))
    return kw


_SECTIONS = {
    "sys": (SystemParams, st.fixed_dictionaries({
        "a": _coefficient, "b": _coefficient, "k": _coefficient, "q": _positive,
        "r": _positive, "sigma_x2": _nonnegative, "sigma_d2": _nonnegative,
        "T": st.integers(1, 10**6)}).filter(_accepted(SystemParams))),
    "ch": (ChannelParams, _channels().filter(_accepted(ChannelParams))),
    "opt": (OptimizerConfig, st.fixed_dictionaries({
        "k_max": st.none() | st.integers(1, 10**6), "eps_cost": _positive,
        "ex2_1": st.none() | _nonnegative,
        "init": st.sampled_from(["zero", "full"])})),
    "sim": (SimConfig, st.fixed_dictionaries({
        "n_samples": st.integers(1, 10**9), "seed": st.integers(0, 2**64 - 1),
        "channel_model": st.sampled_from(["bernoulli", "gain_threshold"]),
        "initial_state": st.sampled_from(["gaussian", "fixed"]),
        "x1": _floats()})),
}


@st.composite
def _documents(draw):
    doc = {name: draw(strategy) for name, (_, strategy) in _SECTIONS.items()}
    doc["preset"] = draw(st.none() | st.sampled_from(sorted(PRESETS)))
    doc["output_dir"] = draw(st.text("abc/_-.0", min_size=1, max_size=12))
    return doc


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(doc=_documents())
def test_config_file_round_trip(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(path)
    # every section is given in full, so a preset changes nothing but its name
    assert cfg == ExperimentConfig(
        **{name: cls(**doc[name]) for name, (cls, _) in _SECTIONS.items()},
        preset=doc["preset"], output_dir=doc["output_dir"])
    path.write_text(json.dumps(asdict(cfg)))
    assert load_config(path) == cfg


# A numpy float field is stored as float(value): numpy 2 keeps arithmetic that
# mixes a float32 (or float16, or longdouble) with a Python float in that
# type.  A numpy int field is stored as int(value): an int8 product wraps.

def _trace_bits(trace):
    return (trace.policy.tobytes(), trace.cost_history.tobytes(), trace.converged)


def _report_bits(report):
    return (report.mean_cost, report.std_err, report.per_slot.tobytes())


def test_float32_p_max_keeps_pi_max_the_image_of_p_max():
    # pi_max was float32 arithmetic, a few ulps below the full start's pi
    cfg = OptimizerConfig(init="full")
    trace = optimize_policy(SystemParams(T=10), ChannelParams(p_max=np.float32(3.0)), cfg)
    assert _trace_bits(trace) == _trace_bits(
        optimize_policy(SystemParams(T=10), ChannelParams(p_max=3.0), cfg))


def test_float32_plant_costs_as_its_floats():
    a, k = np.float32(1.1), np.float32(1.8)
    pi = np.full(30, 0.5)
    cost = expected_cost(SystemParams(a=a, k=k, T=30), ChannelParams(), pi)
    assert cost == expected_cost(SystemParams(a=float(a), k=float(k), T=30),
                                 ChannelParams(), pi)
    assert cost == pytest.approx(55.2554380, abs=1e-7)   # not 55.2554324


def test_float32_eps_cost_descends_as_its_float():
    # in float32 the fig4 descent at T = 30 stopped after 82 iterations
    sys = SystemParams(k=1.8, sigma_d2=0.05, T=30)
    trace = optimize_policy(sys, ChannelParams(),
                            OptimizerConfig(ex2_1=1.0, eps_cost=np.float32(1e-10)))
    assert (trace.iterations, trace.converged) == (105, True)
    assert trace.cost == pytest.approx(60.3612882, abs=1e-7)


_FIELD_VALUES = {
    "sys": {"a": 1.1, "b": -0.9, "k": 1.8, "q": 1.3, "r": 0.7, "sigma_x2": 1.1,
            "sigma_d2": 0.05},
    "ch": {"gamma": 1.1, "sigma2": 0.9, "gbar": 1.3, "p_max": 2.7},
    "opt": {"eps_cost": 1e-4, "ex2_1": 0.9},   # 1e-4: float16 has no 1e-10
    "sim": {"x1": 1.3},
}


def _outcome(sys, ch, opt, sim):
    """What a run reads of its parameters: the derived constants, the
    descent's trace and the Monte Carlo report of its policy."""
    trace = optimize_policy(sys, ch, opt)
    return (sys._coeffs, ch.theta, ch.pi_max, _trace_bits(trace),
            _report_bits(monte_carlo_cost(sys, ch, trace.policy, sim)))


def _assert_stored_as(cast, section, name, value):
    """The section given value in its field name holds cast(value) there and
    runs as the section given cast(value)."""
    base = {"sys": SystemParams(k=1.8, sigma_d2=0.05, T=8), "ch": ChannelParams(),
            "opt": OptimizerConfig(),
            "sim": SimConfig(n_samples=200, seed=7,
                             initial_state="fixed" if name == "x1" else "gaussian")}
    given, python = dict(base), dict(base)
    given[section] = replace(base[section], **{name: value})
    python[section] = replace(base[section], **{name: cast(value)})
    stored = getattr(given[section], name)
    assert type(stored) is cast and stored == cast(value)
    assert _outcome(**given) == _outcome(**python)


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.longdouble])
@pytest.mark.parametrize("section,name", [
    (section, name) for section, values in _FIELD_VALUES.items() for name in values])
def test_numpy_float_fields_are_stored_as_floats(dtype, section, name):
    _assert_stored_as(float, section, name, dtype(_FIELD_VALUES[section][name]))


def test_bound_checks_the_stored_float():
    # a longdouble below the smallest float is > 0, but stored it would be 0.0
    with pytest.raises(ValueError, match=r"ch\.gbar must be > 0"):
        ChannelParams(gbar=np.longdouble("1e-400"))


def test_numpy_int_plant_squares_exactly():
    # an int8 or int64 square wrapped around: a = 100 squared to 16
    assert SystemParams(a=np.int8(100))._coeffs[0] == 10000.0
    assert SystemParams(a=np.int64(2**40))._coeffs[0] == 2.0**80


_INT_FIELD_VALUES = {
    "sys": {"a": 1, "q": 2, "T": 8},
    "ch": {"gamma": 1, "p_max": 3},
    "opt": {"k_max": 50, "ex2_1": 1},
    "sim": {"n_samples": 100, "seed": 7, "x1": 2},
}


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint64])
@pytest.mark.parametrize("section,name", [
    (section, name) for section, values in _INT_FIELD_VALUES.items() for name in values])
def test_numpy_int_fields_are_stored_as_ints(dtype, section, name):
    _assert_stored_as(int, section, name, dtype(_INT_FIELD_VALUES[section][name]))
