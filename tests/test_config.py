"""Config files round-trip: any valid JSON config loads as the dataclasses it names."""

import json
from dataclasses import asdict

from hypothesis import given, settings, strategies as st

from lqpower import ChannelParams, OptimizerConfig, SimConfig, SystemParams
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
