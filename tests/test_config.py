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

_SECTIONS = {
    "sys": (SystemParams, st.fixed_dictionaries({
        "a": _floats(), "b": _floats(), "k": _floats(), "q": _positive,
        "r": _positive, "sigma_x2": _nonnegative, "sigma_d2": _nonnegative,
        "T": st.integers(1, 10**6)})),
    "ch": (ChannelParams, st.fixed_dictionaries({
        "gamma": _positive, "sigma2": _positive, "gbar": _positive,
        "p_max": _positive})),
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
