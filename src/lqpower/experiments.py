"""Experiment workflows: config handling, CSV output, figure presets.

A single JSON document mirrors :class:`ExperimentConfig`; omitted fields take
the defaults of the parameter dataclasses, and a named preset holds only the
values of one reference figure that differ from those defaults.  All numeric
CSV output is printed with 17 significant digits so files round-trip exactly.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .model import ChannelParams, SystemParams
from .optimizer import OptimizerConfig, optimize_policy
from .simulator import SimConfig, baseline_policy, monte_carlo_cost, monte_carlo_costs

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "load_config",
    "run_optimize",
    "run_simulate",
    "run_compare",
    "run_sweep",
    "run_figure",
    "emit_plot_script",
    "PRESETS",
    "FIG2_VARIANTS",
    "FIG3_SIGMA_D2_VALUES",
    "FIG4_HORIZONS",
]


class ConfigError(ValueError):
    """Invalid experiment configuration (bad value, unknown key, bad preset)."""


@dataclass
class ExperimentConfig:
    sys: SystemParams = field(default_factory=SystemParams)
    ch: ChannelParams = field(default_factory=ChannelParams)
    opt: OptimizerConfig = field(default_factory=OptimizerConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    preset: str | None = None
    output_dir: str = "out"


# Config sections: the ExperimentConfig fields that hold a parameter dataclass.
_SECTIONS = {f.name: f.default_factory for f in fields(ExperimentConfig)
             if f.default_factory is not MISSING}


def _integer(value) -> int:
    number = int(value)
    if isinstance(value, float) and number != value:
        raise ValueError("not an integer")  # int() would truncate it
    return number


# JSON value -> field value, keyed by the field's annotation.
_CASTS = {"float": float, "int": _integer, "str": str}

# Published parameter sets of the three reference figures, as changes to the
# defaults.  fig2 is the perturbation-free study, fig3/fig4 switch to the
# less stable k = 1.8 loop.
PRESETS = {
    "fig2": {"opt": {"ex2_1": 1.0}, "sim": {"initial_state": "fixed"}},
    "fig3": {"sys": {"k": 1.8}, "opt": {"ex2_1": 1.0}},
    "fig4": {"sys": {"k": 1.8, "sigma_d2": 0.05}, "opt": {"ex2_1": 1.0}},
}

# Single-parameter variants shown alongside the nominal fig2 policy.  The
# magnitudes are implementation choices (only the changed component is
# published); high_r is large because the transmission profile barely moves
# until the input penalty dominates the tail cost it also inflates.
FIG2_VARIANTS = {
    "nominal": {},
    "low_p_max": {"p_max": 1.5},
    "low_a": {"a": 1.05},
    "high_k": {"k": 1.8},
    "high_q": {"q": 2.0},
    "high_r": {"r": 500.0},
}

FIG3_SIGMA_D2_VALUES = (0.0, 0.01, 0.05, 0.1, 0.2)
FIG4_HORIZONS = tuple(range(2, 31))

SWEEP_PARAMETERS = ("a", "k", "q", "r", "p_max", "sigma_d2")


# ----------------------------------------------------------------------------
# Config assembly
# ----------------------------------------------------------------------------

def _cast_section(section: str, override) -> dict:
    if not isinstance(override, dict):
        raise ConfigError(f"config section {section!r} must be an object")
    types = {f.name: f.type for f in fields(_SECTIONS[section])}
    out = {}
    for key, value in override.items():
        if key not in types:
            raise ConfigError(
                f"unknown key {section}.{key} "
                f"(valid: {', '.join(sorted(types))})")
        annotation = types[key]
        try:
            if value is None and annotation.endswith(" | None"):
                out[key] = None
            else:
                out[key] = _CASTS[annotation.removesuffix(" | None")](value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(
                f"bad value for {section}.{key}: {value!r} "
                f"(expected {annotation})") from None
    return out


def load_config(
    path: str | Path | None = None,
    preset: str | None = None,
    seed: int | None = None,
    samples: int | None = None,
    output_dir: str | None = None,
) -> ExperimentConfig:
    """Assemble an ExperimentConfig from defaults, preset, file and flags.

    Precedence, lowest to highest: the dataclass defaults, preset overrides
    (from the file's "preset" field or the explicit argument), the file's own
    sections, then the seed/samples/output_dir flag overrides.
    """
    raw = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(ExperimentConfig)}
        if unknown:
            raise ConfigError(
                f"unknown config section(s): {', '.join(sorted(unknown))}")

    preset_name = preset if preset is not None else raw.get("preset")
    if preset_name is not None and not (
            isinstance(preset_name, str) and preset_name in PRESETS):
        raise ConfigError(
            f"unknown preset {preset_name!r} (valid: {', '.join(sorted(PRESETS))})")
    flags = {"seed": seed, "n_samples": samples}
    layers = [PRESETS.get(preset_name, {}), raw,
              {"sim": {k: v for k, v in flags.items() if v is not None}}]
    values = {section: {} for section in _SECTIONS}
    for layer in layers:
        for section in _SECTIONS:
            if section in layer:
                values[section].update(_cast_section(section, layer[section]))

    out_dir = output_dir or raw.get("output_dir")
    try:
        return ExperimentConfig(
            **{section: cls(**values[section]) for section, cls in _SECTIONS.items()},
            preset=preset_name,
            **({"output_dir": str(out_dir)} if out_dir else {}),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ----------------------------------------------------------------------------
# CSV output
# ----------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([header, *rows]))
        fh.write("\n")


def write_policy_csv(path: Path, policy: np.ndarray, success: np.ndarray) -> None:
    rows = [f"{t + 1},{_fmt(p)},{_fmt(pi)}"
            for t, (p, pi) in enumerate(zip(policy, success))]
    _write_csv(path, "t,p,pi", rows)


def write_trace_csv(path: Path, cost_history: np.ndarray) -> None:
    rows = [f"{i},{_fmt(c)}" for i, c in enumerate(cost_history)]
    _write_csv(path, "iteration,cost", rows)


# ----------------------------------------------------------------------------
# Workflows
# ----------------------------------------------------------------------------

def _out_dir(cfg: ExperimentConfig, out_dir: str | Path | None) -> Path:
    return Path(out_dir if out_dir is not None else cfg.output_dir)


def _scenario(cfg: ExperimentConfig, override: dict) -> tuple[SystemParams, ChannelParams]:
    """cfg's plant and channel with override applied (p_max is a channel field)."""
    sys_, ch = cfg.sys, cfg.ch
    for parameter, value in override.items():
        if parameter == "p_max":
            ch = replace(ch, p_max=value)
        else:
            sys_ = replace(sys_, **{parameter: value})
    return sys_, ch


def _optimize_each(cfg: ExperimentConfig, out: Path, header: str, scenarios) -> dict:
    """Optimize each scenario; one policy_<label>.csv each, plus index.csv.

    scenarios holds (key, label, override) triples: the result's key (a
    variant name, or a swept value written with 17 digits), the policy
    file's label and the parameters that differ from cfg.  header names the
    index columns; after the key's column they are picked from cost,
    active_slots, last_active_slot, total_energy and file.
    """
    rows, files, results = [], [], []
    for key, label, override in scenarios:
        trace = optimize_policy(*_scenario(cfg, override), cfg.opt)
        path = out / f"policy_{label}.csv"
        write_policy_csv(path, trace.policy, trace.success)
        active = np.nonzero(trace.policy)[0]
        cells = {
            "cost": _fmt(trace.cost),
            "active_slots": str(len(active)),
            "last_active_slot": str(int(active.max() + 1) if len(active) else 0),
            "total_energy": _fmt(trace.policy.sum()),
            "file": path.name,
        }
        first = key if isinstance(key, str) else _fmt(key)
        rows.append(",".join([first, *(cells[c] for c in header.split(",")[1:])]))
        files.append(path)
        results.append((key, trace))
    index_path = out / "index.csv"
    _write_csv(index_path, header, rows)
    return {"results": results, "files": [*files, index_path]}


def run_optimize(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> dict:
    """Optimize the configured scenario; writes policy.csv and trace.csv."""
    out = _out_dir(cfg, out_dir)
    trace = optimize_policy(cfg.sys, cfg.ch, cfg.opt)
    policy_path = out / "policy.csv"
    trace_path = out / "trace.csv"
    write_policy_csv(policy_path, trace.policy, trace.success)
    write_trace_csv(trace_path, trace.cost_history)
    return {"trace": trace, "files": [policy_path, trace_path]}


def run_simulate(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> dict:
    """run_optimize, then Monte Carlo-evaluate the optimized policy.

    Adds a summary report (mean cost, standard error, sample count) and the
    per-slot cost breakdown.
    """
    out = _out_dir(cfg, out_dir)
    res = run_optimize(cfg, out)
    report = monte_carlo_cost(cfg.sys, cfg.ch, res["trace"].policy, cfg.sim)
    report_path = out / "report.csv"
    _write_csv(report_path, "mean_cost,std_err,n_samples",
               [f"{_fmt(report.mean_cost)},{_fmt(report.std_err)},{report.n_samples}"])
    slots_path = out / "per_slot.csv"
    _write_csv(slots_path, "t,state_cost,input_cost,power",
               [f"{t + 1},{_fmt(row[0])},{_fmt(row[1])},{_fmt(row[2])}"
                for t, row in enumerate(report.per_slot)])
    return {**res, "report": report,
            "files": [*res["files"], report_path, slots_path]}


def run_compare(
    cfg: ExperimentConfig,
    horizons,
    out_dir: str | Path | None = None,
) -> dict:
    """Optimize and Monte Carlo-evaluate proposed vs full-power vs open-loop.

    The three policies of a horizon share one Monte Carlo rollout and one
    set of draws (common random numbers), so the comparison is deterministic
    given the config and each policy's statistics are those it gets alone.
    Writes comparison.csv.
    """
    out = _out_dir(cfg, out_dir)
    horizons = [int(T) for T in horizons]
    for T in horizons:
        if T < 1:
            raise ConfigError(f"horizon values must be >= 1 (got {T})")
    rows = []
    results = []
    for T in horizons:
        sys_T = replace(cfg.sys, T=T)
        trace = optimize_policy(sys_T, cfg.ch, cfg.opt)
        policies = {
            "proposed": trace.policy,
            "full": baseline_policy("full_power", cfg.ch, T),
            "open": baseline_policy("open_loop", cfg.ch, T),
        }
        reports = dict(zip(policies, monte_carlo_costs(
            sys_T, cfg.ch, list(policies.values()), cfg.sim)))
        rows.append(",".join([
            str(T),
            _fmt(reports["proposed"].mean_cost), _fmt(reports["proposed"].std_err),
            _fmt(reports["full"].mean_cost), _fmt(reports["full"].std_err),
            _fmt(reports["open"].mean_cost), _fmt(reports["open"].std_err),
        ]))
        results.append((T, trace, reports))
    path = out / "comparison.csv"
    _write_csv(
        path,
        "T,cost_proposed,se_proposed,cost_full,se_full,cost_open,se_open",
        rows)
    return {"results": results, "files": [path]}


def run_sweep(
    cfg: ExperimentConfig,
    parameter: str,
    values,
    out_dir: str | Path | None = None,
) -> dict:
    """Optimize once per value of a swept parameter; one policy CSV each.

    index.csv records, per value, the converged cost, the number of active
    (nonzero-power) slots and the total transmitted energy.  File names
    print the value with %g; two values that would share one raise
    ConfigError before any file is written.
    """
    if parameter == "P_max":
        parameter = "p_max"
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(
            f"unknown sweep parameter {parameter!r} "
            f"(valid: {', '.join(SWEEP_PARAMETERS)})")
    scenarios = [(v, f"{parameter}_{v:g}", {parameter: v}) for v in map(float, values)]
    seen = {}
    for value, label, _ in scenarios:
        if label in seen and seen[label] != value:
            raise ConfigError(
                f"sweep values {seen[label]!r} and {value!r} would both write "
                f"policy_{label}.csv")
        seen[label] = value
    return _optimize_each(cfg, _out_dir(cfg, out_dir),
                          f"{parameter},cost,active_slots,total_energy,file",
                          scenarios)


def run_figure(
    cfg: ExperimentConfig,
    which: str,
    out_dir: str | Path | None = None,
) -> dict:
    """Reproduce the data behind one of the three reference figures."""
    out = _out_dir(cfg, out_dir)
    if which == "fig2":
        return _optimize_each(
            cfg, out, "variant,cost,active_slots,last_active_slot,total_energy,file",
            [(name, name, override) for name, override in FIG2_VARIANTS.items()])
    if which == "fig3":
        return run_sweep(cfg, "sigma_d2", FIG3_SIGMA_D2_VALUES, out)
    if which == "fig4":
        return run_compare(cfg, FIG4_HORIZONS, out)
    raise ConfigError(f"unknown figure {which!r} (valid: fig2, fig3, fig4)")


# ----------------------------------------------------------------------------
# Plot scripts
# ----------------------------------------------------------------------------

def emit_plot_script(
    csv_paths,
    kind: str,
    out_path: str | Path,
    logy: bool = False,
) -> Path:
    """Write a self-contained gnuplot script rendering the given CSVs.

    kind "policy" draws power-vs-slot stem plots (one impulse series per
    file, columns t and p); kind "comparison" draws the three cost-vs-horizon
    series of a comparison CSV.  logy switches the y axis to log scale,
    useful when costs span orders of magnitude.
    """
    csv_paths = [Path(p) for p in csv_paths]
    for p in csv_paths:
        if not p.exists():
            raise FileNotFoundError(f"missing CSV: {p}")
    out_path = Path(out_path)
    lines = [
        "# gnuplot script; run:  gnuplot <this file>",
        "set datafile separator ','",
        "set terminal pngcairo size 960,640",
        f"set output '{out_path.with_suffix('.png').name}'",
        "set grid",
    ]
    if logy:
        lines.append("set logscale y")
    if kind == "policy":
        lines += ["set xlabel 't'", "set ylabel 'p_t'"]
        series = [
            f"'{p.name}' skip 1 using 1:2 with impulses lw 2 title '{p.stem}'"
            for p in csv_paths
        ]
        lines.append("plot " + ", \\\n     ".join(series))
    elif kind == "comparison":
        src = csv_paths[0].name
        lines += [
            "set xlabel 'T'",
            "set ylabel 'average cost'",
            f"plot '{src}' skip 1 using 1:2 with linespoints title 'proposed', \\",
            f"     '{src}' skip 1 using 1:4 with linespoints title 'full power', \\",
            f"     '{src}' skip 1 using 1:6 with linespoints title 'open loop'",
        ]
    else:
        raise ValueError(f"unknown plot kind {kind!r} (valid: policy, comparison)")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    return out_path
