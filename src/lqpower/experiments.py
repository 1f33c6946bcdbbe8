"""Experiment workflows: config handling, CSV output, figure presets.

A single JSON document mirrors :class:`ExperimentConfig`; omitted fields take
the defaults of the parameter dataclasses, and a named preset holds only the
values of one reference figure that differ from those defaults.  The
workflows over many scenarios (sweep, compare, figure) optimize them
through one loop, which runs their descents as one optimize_policies batch
and hands the results on in input order; optimize and simulate run
optimize_policy on their one scenario.  Every workflow writes under
cfg.output_dir, and prints its CSV files through one writer: integers as
they are, any other number with 17 significant digits so files round-trip
exactly.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .model import (ChannelParams, SystemParams, _float, _is_integer, _is_real, _shown,
                    _until_failure)
from .optimizer import OptimizerConfig, optimize_policies, optimize_policy
from .simulator import SimConfig, baseline_policy, monte_carlo_batch, monte_carlo_cost

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
    "SWEEP_PARAMETERS",
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


def _number(value):
    # float() and int() would take true as 1 and "2.5" as 2.5
    if not _is_real(value):
        raise TypeError("not a JSON number")
    return value


def _integer(value) -> int:
    number = int(_number(value))
    if isinstance(value, float) and number != value:
        raise ValueError("not an integer")  # int() would truncate it
    return number


# JSON value -> field value, keyed by the field's annotation.
_CASTS = {"float": lambda value: float(_number(value)), "int": _integer, "str": str}

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
        except OSError as exc:  # a directory, say
            raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        except ValueError as exc:   # an int too long to convert, or bytes not UTF-8
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
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

    directories = [raw.get("output_dir", ExperimentConfig.output_dir)]
    if output_dir is not None:   # the flag wins; the file's value is still checked
        directories.append(output_dir)
    for directory in directories:
        if not (isinstance(directory, str) and directory):
            raise ConfigError(
                f"bad value for output_dir: {directory!r} (expected a non-empty string)")
    try:
        return ExperimentConfig(
            **{section: cls(**values[section]) for section, cls in _SECTIONS.items()},
            preset=preset_name,
            output_dir=directories[-1],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ----------------------------------------------------------------------------
# CSV output
# ----------------------------------------------------------------------------

def _fmt(x) -> str:
    """One CSV cell: a string or an integer as it is, any other number with
    17 significant digits, so the file round-trips exactly."""
    if isinstance(x, (str, int, np.integer)):
        return str(x)
    return format(float(x), ".17g")


def _write_lines(path: Path, lines) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    return path


def _write_csv(path: Path, header: str, rows) -> Path:
    return _write_lines(path, [header, *(",".join(map(_fmt, row)) for row in rows)])


def _write_policy(path: Path, trace) -> Path:
    rows = [(t, p, pi) for t, (p, pi) in enumerate(zip(trace.policy, trace.success), 1)]
    return _write_csv(path, "t,p,pi", rows)


# ----------------------------------------------------------------------------
# Workflows
# ----------------------------------------------------------------------------

def _optimize_each(cfg: ExperimentConfig, overrides):
    """Optimize cfg's scenario once per override; yield (sys, ch, trace).

    An override maps field names to the values that differ from cfg:
    p_max is a channel field, every other name (T included) a plant field.
    The scenarios descend together, in one optimize_policies batch, and
    come out in input order, as one at a time would: an override that makes
    no valid scenario, or a scenario whose descent overflows, raises its
    ValueError once the scenarios before it have been yielded.
    """
    scenarios, error = _until_failure(
        (replace(cfg.sys, **{k: v for k, v in override.items() if k != "p_max"}),
         replace(cfg.ch, **{k: v for k, v in override.items() if k == "p_max"}))
        for override in overrides)
    for (sys_, ch), trace in zip(scenarios, optimize_policies(scenarios, cfg.opt)):
        yield sys_, ch, trace
    if error is not None:
        raise error


def _optimize_indexed(cfg: ExperimentConfig, header: str, scenarios) -> dict:
    """Optimize each scenario; one policy_<label>.csv each, plus index.csv.

    scenarios holds (key, label, override) triples: the result's key (a
    variant name or a swept value), the policy file's label and the
    override.  header names the index columns; after the key's column they
    are picked from cost, active_slots, last_active_slot, total_energy and
    file.
    """
    out = Path(cfg.output_dir)
    rows, files, results = [], [], []
    traces = _optimize_each(cfg, [override for _, _, override in scenarios])
    for (key, label, _), (_, _, trace) in zip(scenarios, traces):
        path = _write_policy(out / f"policy_{label}.csv", trace)
        active = np.nonzero(trace.policy)[0]
        cells = {
            "cost": trace.cost,
            "active_slots": len(active),
            "last_active_slot": int(active.max() + 1) if len(active) else 0,
            "total_energy": trace.policy.sum(),
            "file": path.name,
        }
        rows.append([key, *(cells[c] for c in header.split(",")[1:])])
        files.append(path)
        results.append((key, trace))
    files.append(_write_csv(out / "index.csv", header, rows))
    return {"results": results, "files": files}


def run_optimize(cfg: ExperimentConfig) -> dict:
    """Optimize the configured scenario; writes policy.csv and trace.csv."""
    out = Path(cfg.output_dir)
    trace = optimize_policy(cfg.sys, cfg.ch, cfg.opt)
    return {"trace": trace, "files": [
        _write_policy(out / "policy.csv", trace),
        _write_csv(out / "trace.csv", "iteration,cost", enumerate(trace.cost_history)),
    ]}


def run_simulate(cfg: ExperimentConfig) -> dict:
    """run_optimize, then Monte Carlo-evaluate the optimized policy.

    Adds a summary report (mean cost, standard error, sample count) and the
    per-slot cost breakdown.
    """
    out = Path(cfg.output_dir)
    res = run_optimize(cfg)
    report = monte_carlo_cost(cfg.sys, cfg.ch, res["trace"].policy, cfg.sim)
    return {**res, "report": report, "files": [
        *res["files"],
        _write_csv(out / "report.csv", "mean_cost,std_err,n_samples",
                   [(report.mean_cost, report.std_err, report.n_samples)]),
        _write_csv(out / "per_slot.csv", "t,state_cost,input_cost,power",
                   [(t, *row) for t, row in enumerate(report.per_slot, 1)]),
    ]}


def run_compare(cfg: ExperimentConfig, horizons) -> dict:
    """Optimize and Monte Carlo-evaluate proposed vs full-power vs open-loop.

    Every policy of every horizon shares one Monte Carlo rollout and one set
    of draws (common random numbers), so the comparison is deterministic
    given the config and each policy's statistics are those it gets alone.
    The first failure in horizon order is raised, whether the descent or
    the Monte Carlo of its horizon failed.  Writes comparison.csv, which
    prints each policy's mean cost and standard error only, so the rollout
    keeps no per-slot sums and the reports carry no per_slot.
    """
    horizons = list(horizons)
    if not horizons:
        raise ConfigError("no horizons to compare")
    for T in horizons:
        if not _is_integer(T):
            raise ConfigError(f"horizon values must be integers (got {T!r})")
        if T < 1:
            raise ConfigError(f"horizon values must be >= 1 (got {_shown(T)})")
    # the horizons before a failure still simulate, and fail first
    done, error = _until_failure(_optimize_each(cfg, [{"T": T} for T in horizons]))
    runs = [(sys_T, ch, [trace.policy, baseline_policy("full_power", ch, sys_T.T),
                         baseline_policy("open_loop", ch, sys_T.T)])
            for sys_T, ch, trace in done]
    rows, results = [], []
    batch = monte_carlo_batch(runs, cfg.sim, per_slot=False)
    for T, (_, _, trace), reports in zip(horizons, done, batch):
        reports = dict(zip(("proposed", "full", "open"), reports))
        rows.append([T, *(x for rep in reports.values()
                          for x in (rep.mean_cost, rep.std_err))])
        results.append((T, trace, reports))
    if error is not None:
        raise error
    path = _write_csv(
        Path(cfg.output_dir) / "comparison.csv",
        "T,cost_proposed,se_proposed,cost_full,se_full,cost_open,se_open",
        rows)
    return {"results": results, "files": [path]}


def run_sweep(cfg: ExperimentConfig, parameter: str, values) -> dict:
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
    values = list(values)
    for value in values:
        if not _is_real(value):
            raise ConfigError(f"sweep values must be real numbers (got {value!r})")
    scenarios = [(v, f"{parameter}_{v:g}", {parameter: v}) for v in map(_float, values)]
    seen = {}
    for value, label, _ in scenarios:
        if label in seen and seen[label] != value:
            raise ConfigError(
                f"sweep values {seen[label]!r} and {value!r} would both write "
                f"policy_{label}.csv")
        seen[label] = value
    return _optimize_indexed(
        cfg, f"{parameter},cost,active_slots,total_energy,file", scenarios)


def run_figure(cfg: ExperimentConfig, which: str) -> dict:
    """Reproduce the data behind one of the three reference figures."""
    if which == "fig2":
        return _optimize_indexed(
            cfg, "variant,cost,active_slots,last_active_slot,total_energy,file",
            [(name, name, override) for name, override in FIG2_VARIANTS.items()])
    if which == "fig3":
        return run_sweep(cfg, "sigma_d2", FIG3_SIGMA_D2_VALUES)
    if which == "fig4":
        return run_compare(cfg, FIG4_HORIZONS)
    raise ConfigError(f"unknown figure {which!r} (valid: fig2, fig3, fig4)")


# ----------------------------------------------------------------------------
# Plot scripts
# ----------------------------------------------------------------------------

def emit_plot_script(files, out_dir: str | Path, name: str | None = None) -> Path:
    """Write a self-contained gnuplot script rendering the CSVs a run wrote.

    files are the run's files.  If comparison.csv is among them, the script
    draws its three cost-vs-horizon series on a log y axis, since the costs
    span orders of magnitude; otherwise it draws every policy*.csv as a
    power-vs-slot stem plot (one impulse series per file, columns t and p).
    The script is out_dir/<name>.gp, and name defaults to "comparison" or
    "policy", after the plot.
    """
    files = [Path(p) for p in files]
    comparison = [p for p in files if p.name == "comparison.csv"]
    csv_paths = comparison or [p for p in files if p.match("policy*.csv")]
    if not csv_paths:
        raise ValueError("no comparison.csv or policy*.csv to plot")
    for p in csv_paths:
        if not p.exists():
            raise FileNotFoundError(f"missing CSV: {p}")
    name = name or ("comparison" if comparison else "policy")
    lines = [
        "# gnuplot script; run:  gnuplot <this file>",
        "set datafile separator ','",
        "set terminal pngcairo size 960,640",
        f"set output '{name}.png'",
        "set grid",
    ]
    if comparison:
        src = comparison[0].name
        lines += [
            "set logscale y",
            "set xlabel 'T'",
            "set ylabel 'average cost'",
            f"plot '{src}' skip 1 using 1:2 with linespoints title 'proposed', \\",
            f"     '{src}' skip 1 using 1:4 with linespoints title 'full power', \\",
            f"     '{src}' skip 1 using 1:6 with linespoints title 'open loop'",
        ]
    else:
        lines += ["set xlabel 't'", "set ylabel 'p_t'"]
        series = [f"'{p.name}' skip 1 using 1:2 with impulses lw 2 title '{p.stem}'"
                  for p in csv_paths]
        lines.append("plot " + ", \\\n     ".join(series))
    return _write_lines(Path(out_dir) / f"{name}.gp", lines)
