import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lqpower import experiments, optimizer
from lqpower.cli import _parse_horizons, build_parser, main
from lqpower.experiments import (
    FIG4_HORIZONS,
    SWEEP_PARAMETERS,
    ConfigError,
    PRESETS,
    _fmt,
    emit_plot_script,
    load_config,
    run_compare,
    run_sweep,
)
from lqpower.simulator import baseline_policy
from oracles import reference_monte_carlo

DATA = Path(__file__).parent / "data"


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConfigLoading:
    def test_defaults(self):
        cfg = load_config()
        assert cfg.sys.T == 30 and cfg.ch.p_max == 3.0
        assert cfg.opt.k_max is None and cfg.sim.n_samples == 10000

    def test_k_max_null_or_integer(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"opt": {"k_max": None}}))
        assert load_config(path=path).opt.k_max is None
        path.write_text(json.dumps({"opt": {"k_max": 50}}))
        assert load_config(path=path).opt.k_max == 50
        # the bisection tolerance is gone with the bisection
        path.write_text(json.dumps({"opt": {"root_tol": 1e-12}}))
        with pytest.raises(ConfigError, match="unknown key opt.root_tol"):
            load_config(path=path)

    @pytest.mark.parametrize("section,key", [
        ("sys", "_coeffs"), ("sys", "closed_loop_coeff"), ("ch", "theta"), ("ch", "pi_max")])
    def test_derived_constants_are_not_keys(self, tmp_path, section, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({section: {key: 1.0}}))
        with pytest.raises(ConfigError, match=rf"unknown key {section}\.{key}"):
            load_config(path=path)

    @pytest.mark.parametrize("section,key,value", [
        ("sys", "T", 30.7), ("opt", "k_max", 2.5), ("sim", "seed", 1.9)])
    def test_integer_fields_refuse_to_truncate(self, tmp_path, section, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({section: {key: value}}))
        with pytest.raises(ConfigError, match=rf"{section}\.{key}"):
            load_config(path=path)
        # an integral float is still an integer
        doc = {"sim": {"n_samples": 1e6}}
        doc.setdefault(section, {})[key] = 12.0
        path.write_text(json.dumps(doc))
        cfg = load_config(path=path)
        assert getattr(getattr(cfg, section), key) == 12
        assert cfg.sim.n_samples == 1_000_000

    @pytest.mark.parametrize("section,key,value", [
        ("sys", "T", True), ("sys", "a", True), ("sim", "seed", True),
        ("ch", "p_max", "2.5")])
    def test_numeric_fields_refuse_booleans_and_strings(
            self, tmp_path, section, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({section: {key: value}}))
        match = rf"bad value for {section}\.{key}: .*\(expected "
        with pytest.raises(ConfigError, match=match):
            load_config(path=path)

    def test_readme_shows_the_defaults(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme[readme.index("### Config file"):]
        block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        assert json.loads(block) == asdict(load_config())
        # every key of the block loads, and loads to the defaults
        path = tmp_path / "cfg.json"
        path.write_text(block)
        assert load_config(path=path) == load_config()

    def test_presets_hold_only_changes(self):
        defaults = asdict(load_config())
        for preset in PRESETS.values():
            for section, values in preset.items():
                for key, value in values.items():
                    assert defaults[section][key] != value, (section, key)

    def test_preset_equals_explicit_parameters(self, tmp_path):
        explicit = tmp_path / "explicit.json"
        explicit.write_text(json.dumps({k: v for k, v in PRESETS["fig4"].items()}))
        assert load_config(preset="fig4").sys == load_config(path=explicit).sys
        assert load_config(preset="fig4").ch == load_config(path=explicit).ch
        assert load_config(preset="fig4").opt == load_config(path=explicit).opt
        assert load_config(preset="fig4").sim == load_config(path=explicit).sim

    def test_file_overrides_preset(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "fig2", "sys": {"T": 12}}))
        cfg = load_config(path=path)
        assert cfg.sys.T == 12
        assert cfg.sys.k == 1.0  # rest of the preset kept

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sim": {"seed": 1, "n_samples": 5}}))
        cfg = load_config(path=path, seed=9, samples=77)
        assert cfg.sim.seed == 9 and cfg.sim.n_samples == 77

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sys": {"alpha": 1.0}}))
        with pytest.raises(ConfigError, match="sys.alpha"):
            load_config(path=path)

    def test_unknown_preset_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="preset"):
            load_config(preset="fig9")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": ["fig2"]}))
        with pytest.raises(ConfigError, match="preset"):
            load_config(path=path)

    def test_invariant_violation_names_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sys": {"q": -2.0}}))
        with pytest.raises(ConfigError, match="sys.q"):
            load_config(path=path)

    @pytest.mark.parametrize("seed", [-1, 2**64, 3 + 2**64])
    def test_seed_must_be_a_u64(self, tmp_path, capsys, seed):
        # a seed past 2**64 - 1 used to wrap onto another seed's draws
        message = f"sim.seed must be an integer in [0, 2**64 - 1] (got {seed})"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sim": {"seed": seed}}))
        with pytest.raises(ConfigError) as exc:
            load_config(path=path)
        assert str(exc.value) == message
        assert main(["simulate", "--seed", str(seed), "--out",
                     str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "out").exists()
        assert load_config(seed=2**64 - 1).sim.seed == 2**64 - 1

    def test_eps_cost_must_be_finite(self, tmp_path):
        # an infinite quantum would stop the descent at once, "converged"
        path = tmp_path / "cfg.json"
        path.write_text('{"opt": {"eps_cost": Infinity}}')
        with pytest.raises(ConfigError, match=r"opt\.eps_cost must be a finite number"):
            load_config(path=path)

    @pytest.mark.parametrize("value", [{"a": 1}, 7, ""])
    def test_output_dir_must_be_a_nonempty_string(self, tmp_path, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"output_dir": value}))
        with pytest.raises(ConfigError, match="output_dir"):
            load_config(path=path)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config(path="/nonexistent/cfg.json")

    @pytest.mark.parametrize("text,message", [
        ('{"sys": [1.1]}', "config section 'sys' must be an object"),
        ('{"sys": ', "config file is not valid JSON: Expecting value: line 1 column 9"),
        ("[1, 2]", "config root must be a JSON object"),
        ('{"plant": {}, "sys": {}, "extra": 1}', "unknown config section(s): extra, plant"),
    ])
    def test_malformed_file_is_named(self, tmp_path, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError) as exc:
            load_config(path=path)
        assert str(exc.value).startswith(message)

    def test_empty_out_flag_is_refused(self, tmp_path, capsys, monkeypatch):
        # as "output_dir": "" in a file is; it used to fall back to ./out
        monkeypatch.chdir(tmp_path)
        message = "bad value for output_dir: '' (expected a non-empty string)"
        with pytest.raises(ConfigError) as exc:
            load_config(output_dir="")
        assert str(exc.value) == message
        assert main(["optimize", "--preset", "fig2", "--out", ""]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not any(tmp_path.iterdir())
        # the flag overrides a file's output_dir, which is still checked
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"output_dir": "from_file"}))
        assert load_config(path=path, output_dir="flag").output_dir == "flag"
        path.write_text(json.dumps({"output_dir": 7}))
        with pytest.raises(ConfigError, match="bad value for output_dir: 7"):
            load_config(path=path, output_dir="flag")

    def test_int_too_long_to_read_names_the_file(self, tmp_path, capsys):
        # the JSON parser itself refuses an int of more than 4300 digits,
        # with Python's ValueError, before any key is known
        path = tmp_path / "c.json"
        path.write_text('{"sys": {"q": 1' + "0" * 5000 + "}}")
        with pytest.raises(ConfigError, match=rf"^cannot read config file {re.escape(str(path))}: "):
            load_config(path=path)
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot read config file {path}: ")
        assert not out.exists()


class TestOptimizeCommand:
    def test_writes_policy_and_trace(self, tmp_path, capsys):
        rc = main(["optimize", "--preset", "fig2", "--out", str(tmp_path)])
        assert rc == 0
        header, rows = _read_csv(tmp_path / "policy.csv")
        assert header == ["t", "p", "pi"]
        assert len(rows) == 30
        assert [r[0] for r in rows] == [str(t) for t in range(1, 31)]
        powers = np.array([float(r[1]) for r in rows])
        nz = np.nonzero(powers)[0]
        assert np.array_equal(nz, np.arange(len(nz)))  # prefix support
        assert 7 <= len(nz) + 1 <= 9

        header, rows = _read_csv(tmp_path / "trace.csv")
        assert header == ["iteration", "cost"]
        costs = np.array([float(r[1]) for r in rows])
        assert np.all(np.diff(costs) <= 0)

    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sys": {"q": 0.0}}))
        rc = main(["optimize", "--config", str(bad), "--out", str(tmp_path)])
        assert rc != 0
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert "sys.q" in err
        # a channel whose pi_max underflows fails on load, not in the descent
        bad.write_text(json.dumps({"ch": {"gamma": 3000.0}}))
        assert main(["optimize", "--config", str(bad), "--out", str(tmp_path)]) != 0
        err = capsys.readouterr().err
        assert err.startswith("error: ch: theta/p_max = 1000.0 ")
        assert len(err.strip().splitlines()) == 1

    def test_allocation_failure_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # a horizon of 1e10 slots asks numpy for 74.5 GiB per table; the
        # workflow's MemoryError is stood in for, not provoked
        def failing(cfg):
            raise MemoryError("Unable to allocate 74.5 GiB for an array with "
                              "shape (10000000000,) and data type float64")

        monkeypatch.setattr(experiments, "run_optimize", failing)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"sys": {"T": 10**10}}))
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: Unable to allocate 74.5 GiB for an array with shape "
            "(10000000000,) and data type float64\n")
        assert not out.exists()

    def test_iteration_cap_warns_on_stderr(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "fig2", "opt": {"k_max": 3}}))
        for out in ("a", "b"):
            rc = main(["sweep", "--config", str(cfg), "--param", "q",
                       "--values", "1,2", "--out", str(tmp_path / out)])
            assert rc == 0
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 2  # one line per run that stopped short
            for line in err:
                assert line.startswith("warning: ")
                assert "k_max = 3" in line and "T = 30" in line
        # nothing about it lands in the output dir, which stays reproducible
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == ["index.csv", "policy_q_1.csv", "policy_q_2.csv"]
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_subnormal_initial_variance_prints_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sys": {"sigma_x2": 1e-310, "T": 3}}))
        rc = main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert capsys.readouterr().err == ""

    def test_csv_round_trip_precision(self, tmp_path):
        from lqpower import optimize_policy
        cfg = load_config(preset="fig2")
        trace = optimize_policy(cfg.sys, cfg.ch, cfg.opt)
        rc = main(["optimize", "--preset", "fig2", "--out", str(tmp_path)])
        assert rc == 0
        _, rows = _read_csv(tmp_path / "policy.csv")
        assert np.array_equal(np.array([float(r[1]) for r in rows]), trace.policy)
        assert np.array_equal(np.array([float(r[2]) for r in rows]), trace.success)
        _, rows = _read_csv(tmp_path / "trace.csv")
        assert np.array_equal(np.array([float(r[1]) for r in rows]),
                              trace.cost_history)


class TestSimulateCommand:
    def test_writes_report_and_breakdown(self, tmp_path):
        rc = main(["simulate", "--preset", "fig2", "--samples", "2000",
                   "--seed", "17", "--out", str(tmp_path)])
        assert rc == 0
        header, rows = _read_csv(tmp_path / "report.csv")
        assert header == ["mean_cost", "std_err", "n_samples"]
        mean, se, n = float(rows[0][0]), float(rows[0][1]), int(rows[0][2])
        assert n == 2000
        # sampled mean tracks the optimized policy's exact cost
        _, trows = _read_csv(tmp_path / "trace.csv")
        assert abs(mean - float(trows[-1][1])) <= 4 * se
        header, prow = _read_csv(tmp_path / "per_slot.csv")
        assert header == ["t", "state_cost", "input_cost", "power"]
        assert len(prow) == 30
        total = sum(float(r[1]) + float(r[2]) + float(r[3]) for r in prow)
        assert mean == pytest.approx(total, rel=1e-9)


class TestCompareCommand:
    def test_schema_and_single_horizon(self, tmp_path):
        cfg = load_config(preset="fig4", seed=13, samples=4000, output_dir=str(tmp_path))
        run_compare(cfg, [1])
        header, rows = _read_csv(tmp_path / "comparison.csv")
        assert header == ["T", "cost_proposed", "se_proposed", "cost_full",
                          "se_full", "cost_open", "se_open"]
        (T, cp, sp, cf, sf, co, so) = [float(v) for v in rows[0]]
        assert T == 1
        # one slot: proposed = open loop = q E[x1^2]; full power also pays
        # the cap plus the input penalty on reception
        assert cp == co and sp == so
        assert abs(cp - 1.0) <= 4 * sp
        rk2pi = cfg.sys.r * cfg.sys.k**2 * cfg.ch.pi_max
        assert abs(cf - (1.0 * (1 + rk2pi) + cfg.ch.p_max)) <= 4 * sf

    def test_matches_committed_bytes(self, tmp_path):
        # comparison_fig4.csv was written by the one-policy-per-call
        # rollout; 70,001 replications cross two chunk boundaries
        rc = main(["compare", "--preset", "fig4", "--horizons", "2:8", "--seed", "5",
                   "--samples", "70001", "--out", str(tmp_path)])
        assert rc == 0
        assert ((tmp_path / "comparison.csv").read_bytes()
                == (DATA / "comparison_fig4.csv").read_bytes())

    def test_rows_match_separate_reference_runs(self, tmp_path):
        cfg = load_config(preset="fig4", seed=21, samples=3001, output_dir=str(tmp_path))
        res = run_compare(cfg, [1, 4, 9])
        _, rows = _read_csv(tmp_path / "comparison.csv")
        for row, (T, trace, _) in zip(rows, res["results"]):
            sys_T = replace(cfg.sys, T=T)
            want = [str(T)]
            for pol in (trace.policy, baseline_policy("full_power", cfg.ch, T),
                        baseline_policy("open_loop", cfg.ch, T)):
                rep = reference_monte_carlo(sys_T, cfg.ch, pol, cfg.sim)
                want += [_fmt(rep.mean_cost), _fmt(rep.std_err)]
            assert row == want

    def test_cli_horizon_spec(self, tmp_path):
        rc = main(["compare", "--preset", "fig4", "--horizons", "2,4:6",
                   "--samples", "500", "--seed", "3", "--out", str(tmp_path)])
        assert rc == 0
        _, rows = _read_csv(tmp_path / "comparison.csv")
        assert [int(r[0]) for r in rows] == [2, 4, 5, 6]

    def test_default_horizons_are_fig4s(self):
        args = build_parser().parse_args(["compare"])
        assert _parse_horizons(args.horizons) == list(FIG4_HORIZONS)

    def test_bad_horizon(self, tmp_path, capsys):
        rc = main(["compare", "--preset", "fig4", "--horizons", "0",
                   "--out", str(tmp_path)])
        assert rc != 0
        assert capsys.readouterr().err.startswith("error:")
        assert main(["compare", "--horizons", "0:2", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: horizon values must be >= 1 (got 0)"]
        assert not any(tmp_path.iterdir())

    def test_no_horizons(self):
        with pytest.raises(ConfigError) as exc:
            _parse_horizons(",")
        assert str(exc.value) == "no horizons in ','"
        assert _parse_horizons("2,,3") == [2, 3]   # a blank part is skipped

    def test_reversed_horizon_range(self, tmp_path, capsys):
        rc = main(["compare", "--preset", "fig4", "--horizons", "2,9:3",
                   "--out", str(tmp_path)])
        assert rc != 0
        err = capsys.readouterr().err
        assert err.startswith("error:") and "9:3" in err
        assert len(err.strip().splitlines()) == 1
        assert not tmp_path.joinpath("comparison.csv").exists()

    @pytest.mark.parametrize("spec,part", [("2:x", "2:x"), ("2,x,4", "x"),
                                           ("3:", "3:"), ("1:2:3", "1:2:3")])
    def test_unparsable_horizon_named(self, tmp_path, capsys, spec, part):
        rc = main(["compare", "--preset", "fig4", "--horizons", spec,
                   "--out", str(tmp_path)])
        assert rc != 0
        assert capsys.readouterr().err.splitlines() == [
            f"error: bad horizon {part!r} in {spec!r} (expected T or lo:hi)"]
        assert not any(tmp_path.iterdir())


class TestCompareFailures:
    """The horizons of a compare descend together and share one Monte Carlo
    rollout, but fail as one at a time would: the first failing horizon in
    input order ends the run, whether its descent or its Monte Carlo failed,
    and no comparison.csv is written.  Under this config every rollout past
    T = 10 overflows (x1^2 = 1e300; policy 0 is the first to), and the
    descent's second moments overflow at T = 400."""

    CONFIG = {"sys": {"a": 3.0},
              "sim": {"initial_state": "fixed", "x1": 1e150, "n_samples": 4}}
    MONTE_CARLO = ("error: Monte Carlo cost statistics are not finite (T = {}, "
                   "policy 0): a state or a cost overflowed")
    DESCENT = "error: second moment E[x_t^2] is not finite at slot t = 325 of T = 400"

    @pytest.mark.parametrize("horizons,error", [
        ("12,400", MONTE_CARLO.format(12)),
        ("400,12", DESCENT),
        ("13,12,400", MONTE_CARLO.format(13)),
    ])
    def test_first_failure_in_input_order(self, tmp_path, capsys, horizons, error):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIG))
        assert main(["compare", "--config", str(cfg), "--horizons", horizons,
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [error]
        assert not (tmp_path / "out").exists()


def _no_descent(*args, **kwargs):
    raise AssertionError("an input that is not valid reached the descent")


class TestWorkflowInputs:
    """run_compare and run_sweep refuse, before any descent, the values a
    config file refuses: a horizon that is not an integer, a swept value
    that is not a real number.  They used to cast them with int() and
    float()."""

    @pytest.mark.parametrize("horizons,shown", [
        ([2.7, True], "2.7"), ([True], "True"), (["3"], "'3'"), ([2, 3.0], "3.0")])
    def test_horizons_must_be_integers(self, tmp_path, monkeypatch, horizons, shown):
        monkeypatch.setattr(experiments, "optimize_policies", _no_descent)
        cfg = load_config(output_dir=str(tmp_path / "out"))
        with pytest.raises(ConfigError) as exc:
            run_compare(cfg, horizons)
        assert str(exc.value) == f"horizon values must be integers (got {shown})"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("values,shown", [
        ([True], "True"), (["0.1"], "'0.1'"), ([0.0, None], "None")])
    def test_sweep_values_must_be_real(self, tmp_path, monkeypatch, values, shown):
        monkeypatch.setattr(experiments, "optimize_policies", _no_descent)
        cfg = load_config(output_dir=str(tmp_path / "out"))
        with pytest.raises(ConfigError) as exc:
            run_sweep(cfg, "sigma_d2", values)
        assert str(exc.value) == f"sweep values must be real numbers (got {shown})"
        assert not (tmp_path / "out").exists()

    def test_numpy_numbers_are_taken(self, tmp_path):
        def files(run, *args):
            out = tmp_path / str(len(list(tmp_path.iterdir())))
            run(load_config(preset="fig4", samples=200, output_dir=str(out)), *args)
            return {p.name: p.read_bytes() for p in out.iterdir()}

        assert files(run_compare, [np.int64(2), np.uint8(3)]) == files(run_compare, [2, 3])
        assert files(run_sweep, "q", [np.float32(2.5), 1]) == \
            files(run_sweep, "q", [2.5, 1.0])

    def test_sweep_value_too_large_for_a_float(self, tmp_path):
        # float() raised OverflowError, which the CLI does not report
        cfg = load_config(output_dir=str(tmp_path))
        with pytest.raises(ValueError) as exc:
            run_sweep(cfg, "q", [10**400])
        assert str(exc.value) == "sys.q must be finite (got inf)"


class TestOverflowIsOneErrorLine:
    """A cost that overflows ends the run with one "error:" line on stderr:
    no traceback, and no numpy warning before it."""

    MONTE_CARLO = (r"error: Monte Carlo cost statistics are not finite "
                   r"\(T = \d+, policy \d+\)")

    @pytest.mark.parametrize("argv,config,error", [
        (["simulate"], {"sys": {"q": 1e200}}, MONTE_CARLO),
        (["simulate"], {"sys": {"sigma_x2": 1e300}}, MONTE_CARLO),
        (["compare", "--horizons", "5"],
         {"sys": {"a": 3.0}, "sim": {"initial_state": "fixed", "x1": 1e150}},
         MONTE_CARLO),
        (["optimize"], {"sys": {"q": 1e300, "a": 13407.8}, "opt": {"ex2_1": 1.0}},
         r"error: expected cost is not finite \(T = 30\)$"),
        (["optimize"], {"sys": {"r": 1e308, "k": 3.0, "T": 3}},
         r"error: sys: r k\^2 = 1e\+308 \* 3\.0\^2 is out of range"),
        (["optimize"], {"sys": {"b": 1e100, "k": 1e100, "T": 3}},
         r"error: sys: c = b\^2 k\^2 \+ 2abk is out of range"),
    ], ids=["simulate-q", "simulate-sigma_x2", "compare-x1", "optimize-q",
            "optimize-rk2", "optimize-c"])
    def test_one_error_line(self, tmp_path, capsys, argv, config, error):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert re.match(error, line)

    def test_compare_keeps_no_per_slot_sums(self, tmp_path, capsys):
        # q x1^2 = 3.969e303 in every slot of every replication: the per-slot
        # sums of two 32,768-replication chunks overflow, the means do not.
        # compare prints the means; simulate also writes the per-slot means
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "sys": {"k": 0.0, "T": 1},
            "sim": {"initial_state": "fixed", "x1": 6.3e151, "n_samples": 65_536}}))
        common = ["--config", str(cfg), "--out", str(tmp_path / "out")]
        assert main(["compare", "--horizons", "1", *common]) == 0
        _, [[T, *cells]] = _read_csv(tmp_path / "out" / "comparison.csv")
        assert T == "1" and all(float(c) < math.inf for c in cells)
        capsys.readouterr()
        assert main(["simulate", *common]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: Monte Carlo cost statistics are not finite (T = 1, policy 0): "
            "a state or a cost overflowed"]


class TestPathErrors:
    """A path the run cannot use ends it with one "error:" line naming the
    path, and no file is written."""

    @pytest.mark.parametrize("argv", [
        ["optimize", "--out", "taken"],        # a file where the directory goes
        ["optimize", "--out", "taken/sub"],    # below a file
        ["optimize", "--config", "folder"],    # a directory as the config
    ], ids=["out-is-a-file", "out-below-a-file", "config-is-a-directory"])
    def test_one_error_line(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").write_text("")
        (tmp_path / "folder").mkdir()
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("error: ") and argv[-1] in err[-1]
        assert "Traceback" not in "\n".join(err)
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["folder", "taken"]
        assert (tmp_path / "taken").read_text() == ""


class TestUsageErrors:
    """A command line that does not parse ends the run with one "error:" line
    on stderr and exit status 2, and writes nothing."""

    @pytest.mark.parametrize("argv,error", [
        ([], "error: the following arguments are required: command"),
        (["plot"], "error: argument command: invalid choice: 'plot'"),
        (["sweep", "--param", "q"],
         "error: the following arguments are required: --values"),
        (["sweep", "--param", "q", "--values"],
         "error: argument --values: expected one argument"),
        (["simulate", "--seed", "x"], "error: argument --seed: invalid int value: 'x'"),
        (["optimize", "--horizons", "2"], "error: unrecognized arguments: --horizons 2"),
    ])
    def test_one_error_line(self, tmp_path, capsys, monkeypatch, argv, error):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        [line] = err.splitlines()
        assert out == "" and line.startswith(error)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("values", ["-0.5,1", "-1e-3", "-.5", "-inf,1", "-nan"])
    def test_negative_value_as_its_own_token(self, tmp_path, capsys, values):
        # a value that starts with "-" is a value, not an unknown option: the
        # run is the one "--values=..." makes
        runs = []
        for name, tokens in (("sep", ["--values", values]), ("eq", [f"--values={values}"])):
            rc = main(["sweep", "--param", "a", "--out", str(tmp_path / name), *tokens])
            files = {p.name: p.read_bytes() for p in (tmp_path / name).glob("*")}
            runs.append((rc, capsys.readouterr().err, files))
        assert runs[0] == runs[1]
        rc, err, files = runs[0]
        if "n" in values:   # -inf and -nan make no valid plant
            assert rc == 1 and err.startswith("error: sys.a must be finite")
        else:
            assert rc == 0 and err == "" and "index.csv" in files


class TestSweepCommand:
    def test_per_value_files_and_index(self, tmp_path):
        cfg = load_config(preset="fig3", output_dir=str(tmp_path))
        res = run_sweep(cfg, "sigma_d2", [0.0, 0.05])
        header, rows = _read_csv(tmp_path / "index.csv")
        assert header == ["sigma_d2", "cost", "active_slots", "total_energy", "file"]
        assert len(rows) == 2
        for (value, cost, active, energy, fname), (val_in, trace) in zip(
                rows, res["results"]):
            assert float(value) == val_in
            assert float(cost) == trace.cost
            assert int(active) == np.count_nonzero(trace.policy)
            assert (tmp_path / fname).exists()

    def test_alias_p_max(self, tmp_path):
        run_sweep(load_config(preset="fig2", output_dir=str(tmp_path)), "P_max", [1.5])
        assert (tmp_path / "policy_p_max_1.5.csv").exists()

    def test_unknown_parameter_exits_nonzero(self, tmp_path, capsys):
        rc = main(["sweep", "--param", "bogus", "--values", "1",
                   "--out", str(tmp_path)])
        assert rc != 0
        assert "sweep parameter" in capsys.readouterr().err

    def test_colliding_file_names_rejected(self, tmp_path, capsys):
        rc = main(["sweep", "--preset", "fig2", "--param", "q",
                   "--values", "1.0000001,1.0000002", "--out", str(tmp_path)])
        assert rc != 0
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "1.0000001" in err and "1.0000002" in err
        assert not any(tmp_path.iterdir())
        # repeating a value writes the same policy twice, as before
        assert main(["sweep", "--preset", "fig2", "--param", "q",
                     "--values", "2,2", "--out", str(tmp_path)]) == 0

    def test_empty_values(self, tmp_path):
        rc = main(["sweep", "--param", "q", "--values", "",
                   "--out", str(tmp_path)])
        assert rc == 0
        header, rows = _read_csv(tmp_path / "index.csv")
        assert header[0] == "q"
        assert rows == []


class TestSweepFailures:
    """The values of a sweep descend together but report as one at a time:
    one k_max warning per value that stops short, in input order, up to the
    first value that fails, whose error ends the run; the values before it
    write their policy files, and no index.csv is written."""

    K_MAX_WARNING = ("warning: optimizer stopped after 3 iterations at k_max = 3 "
                     "without reaching a fixed point (T = 30)")

    def _sweep(self, tmp_path, param, values, out="out"):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "fig2", "opt": {"k_max": 3}}))
        return main(["sweep", "--config", str(cfg), "--param", param,
                     "--values", values, "--out", str(tmp_path / out)])

    def _files(self, out):
        return {p.name: p.read_bytes() for p in out.iterdir()}

    def test_overflow_at_the_start(self, tmp_path, capsys):
        assert self._sweep(tmp_path, "a", "1.1,1.05,1e10,1.2") == 1
        assert capsys.readouterr().err.splitlines() == [
            self.K_MAX_WARNING, self.K_MAX_WARNING,
            "error: second moment E[x_t^2] is not finite at slot t = 17 of T = 30"]
        assert self._sweep(tmp_path, "a", "1.1,1.05", out="ref") == 0
        ref = self._files(tmp_path / "ref")
        del ref["index.csv"]
        assert self._files(tmp_path / "out") == ref

    def test_overflow_mid_descent(self, tmp_path, capsys, monkeypatch):
        # q = 3 fails at its first move, before q = 2 fails at its second,
        # but q = 2 comes first in input order
        update, moves = optimizer._update_tables, {}

        def failing(sys, pi, fbar, ex2, t):
            moves[sys.q] = moves.get(sys.q, 0) + 1
            if (sys.q, moves[sys.q]) in ((2.0, 2), (3.0, 1)):
                raise ValueError(f"tail factor overflow at q = {sys.q:g}")
            update(sys, pi, fbar, ex2, t)

        monkeypatch.setattr(optimizer, "_update_tables", failing)
        assert self._sweep(tmp_path, "q", "1,2,3") == 1
        assert capsys.readouterr().err.splitlines() == [
            self.K_MAX_WARNING, "error: tail factor overflow at q = 2"]
        monkeypatch.undo()
        assert self._sweep(tmp_path, "q", "1", out="ref") == 0
        assert self._files(tmp_path / "out") == {
            "policy_q_1.csv": (tmp_path / "ref" / "policy_q_1.csv").read_bytes()}

    def test_invalid_value(self, tmp_path, capsys):
        assert self._sweep(tmp_path, "q", "1,-1,2") == 1
        assert capsys.readouterr().err.splitlines() == [
            self.K_MAX_WARNING, "error: sys.q must be > 0 (got -1.0)"]
        assert list(self._files(tmp_path / "out")) == ["policy_q_1.csv"]


class TestFigureCommand:
    def test_fig2_outputs(self, tmp_path):
        rc = main(["figure", "fig2", "--out", str(tmp_path)])
        assert rc == 0
        names = {"nominal", "low_p_max", "low_a", "high_k", "high_q", "high_r"}
        for name in names:
            assert (tmp_path / f"policy_{name}.csv").exists()
        header, rows = _read_csv(tmp_path / "index.csv")
        assert header[0] == "variant"
        assert {r[0] for r in rows} == names

    def test_fig4_comparison_with_plot(self, tmp_path):
        rc = main(["figure", "fig4", "--samples", "60", "--seed", "2",
                   "--plot", "--out", str(tmp_path)])
        assert rc == 0
        _, rows = _read_csv(tmp_path / "comparison.csv")
        assert [int(r[0]) for r in rows] == list(range(2, 31))
        text = (tmp_path / "fig4.gp").read_text()
        assert "set logscale y" in text and "comparison.csv" in text

    def test_fig3_reports_activity_and_energy(self, tmp_path):
        rc = main(["figure", "fig3", "--out", str(tmp_path)])
        assert rc == 0
        header, rows = _read_csv(tmp_path / "index.csv")
        idx_active = header.index("active_slots")
        idx_energy = header.index("total_energy")
        # larger perturbation variance calls for more communication
        actives = [int(r[idx_active]) for r in rows]
        energies = [float(r[idx_energy]) for r in rows]
        assert actives == sorted(actives)
        assert energies == sorted(energies)

    def test_unknown_figure(self):
        with pytest.raises(ConfigError) as exc:
            experiments.run_figure(load_config(), "fig9")
        assert str(exc.value) == "unknown figure 'fig9' (valid: fig2, fig3, fig4)"


class TestPlotScripts:
    def test_policy_script(self, tmp_path):
        path = tmp_path / "policy.csv"
        path.write_text("t,p,pi\n1,2.0,0.6\n2,0,0\n")
        script = emit_plot_script([path], tmp_path, "stem")
        text = script.read_text()
        assert "impulses" in text
        assert "using 1:2" in text
        assert "logscale" not in text

    def test_comparison_script_with_log_axis(self, tmp_path):
        path = tmp_path / "comparison.csv"
        path.write_text("T,cost_proposed,se_proposed,cost_full,se_full,"
                        "cost_open,se_open\n1,1,0,2,0,3,0\n")
        script = emit_plot_script([path], tmp_path, "cmp")
        text = script.read_text()
        for cols, title in (("1:2", "proposed"), ("1:4", "full"), ("1:6", "open")):
            assert f"using {cols}" in text and title in text
        assert "set logscale y" in text

    def test_missing_csv(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            emit_plot_script([tmp_path / "policy_nope.csv"], tmp_path)

    def test_picks_the_plot_from_the_files_of_a_run(self, tmp_path):
        for name in ("policy_a.csv", "policy_b.csv", "index.csv", "trace.csv"):
            (tmp_path / name).write_text("t,p,pi\n1,2.0,0.6\n")
        files = sorted(tmp_path.iterdir())
        script = emit_plot_script(files, tmp_path / "gp")
        text = script.read_text()
        assert script == tmp_path / "gp" / "policy.gp"
        assert "'policy_a.csv'" in text and "'policy_b.csv'" in text
        assert "index" not in text and "trace" not in text and "logscale" not in text
        (tmp_path / "comparison.csv").write_text("T,cost_proposed\n1,1\n")
        script = emit_plot_script([*files, tmp_path / "comparison.csv"], tmp_path)
        text = script.read_text()
        assert script == tmp_path / "comparison.gp"
        assert "set logscale y" in text and "policy_a" not in text

    def test_nothing_to_plot(self, tmp_path):
        (tmp_path / "trace.csv").write_text("iteration,cost\n0,1\n")
        with pytest.raises(ValueError, match=r"no comparison\.csv or policy\*\.csv"):
            emit_plot_script([tmp_path / "trace.csv"], tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv"]

    def test_cli_plot_flag(self, tmp_path):
        rc = main(["optimize", "--preset", "fig2", "--plot", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "policy.gp").exists()

    def test_module_entry_point_in_a_fresh_interpreter(self, tmp_path, capsys):
        # python -m lqpower runs __main__.py, which imports the package cold
        argv = ["optimize", "--preset", "fig2", "--plot", "--out"]
        assert main([*argv, str(tmp_path / "here")]) == 0
        here = capsys.readouterr().out
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-m", "lqpower", *argv,
                               str(tmp_path / "there")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == here.replace(str(tmp_path / "here"), str(tmp_path / "there"))
        files = [{p.name: p.read_bytes() for p in (tmp_path / d).iterdir()}
                 for d in ("here", "there")]
        assert files[0] == files[1] and sorted(files[0]) == [
            "policy.csv", "policy.gp", "trace.csv"]

    @pytest.mark.parametrize("argv", [
        ["simulate", "--preset", "fig2"],
        ["sweep", "--param", "q", "--values", "1"],
    ])
    def test_plot_flag_only_where_it_plots(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--plot", "--out", str(tmp_path)])
        assert exc.value.code != 0
        assert "--plot" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["compare", "--preset", "fig4", "--horizons", "2:4",
                "--samples", "1500", "--seed", "21"]
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        assert (a / "comparison.csv").read_bytes() == (b / "comparison.csv").read_bytes()


class TestGoldenOutputs:
    # tests/data/golden/<name>/ holds every file the command wrote before the
    # workflows shared one scenario loop and one CSV writer; fig4's (T = 2..30),
    # before its horizons shared one Monte Carlo rollout
    @pytest.mark.parametrize("name,argv", [
        ("fig2", ["figure", "fig2"]),
        ("fig3", ["figure", "fig3"]),
        ("fig4", ["figure", "fig4"]),
        ("simulate_fig4", ["simulate", "--preset", "fig4", "--seed", "7",
                           "--samples", "3001"]),
    ])
    def test_matches_committed_bytes(self, tmp_path, name, argv):
        assert main([*argv, "--out", str(tmp_path)]) == 0
        golden = DATA / "golden" / name
        names = sorted(p.name for p in golden.iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        for fname in names:
            assert (tmp_path / fname).read_bytes() == (golden / fname).read_bytes(), fname

    # tests/data/golden/plots/ holds the scripts --plot wrote before
    # emit_plot_script picked its own CSVs, axis and file name
    @pytest.mark.parametrize("script,argv", [
        ("fig2.gp", ["figure", "fig2"]),
        ("fig4.gp", ["figure", "fig4"]),
        ("policy.gp", ["optimize", "--preset", "fig2"]),
        ("comparison.gp", ["compare", "--preset", "fig4", "--horizons", "2:3",
                           "--samples", "100"]),
    ])
    def test_plot_script_matches_committed_bytes(self, tmp_path, script, argv):
        assert main([*argv, "--plot", "--out", str(tmp_path)]) == 0
        golden = DATA / "golden" / "plots" / script
        assert (tmp_path / script).read_bytes() == golden.read_bytes()


# Extreme finite inputs: subnormals, the smallest normal, the largest
# float and magnitudes whose squares or products overflow.
_EXTREMES = (5e-324, 2.2e-311, 2.2250738585072014e-308, 1e-300, 1e-150, 1e-8,
             1e8, 1e150, 1e200, 1e300, 1.7976931348623157e308)


def _magnitudes():
    # half of the draws moderate, so that most configs load and run
    return st.one_of(st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(0.5, 2.0),
                     st.sampled_from(_EXTREMES), st.floats(0.0, allow_infinity=False),
                     st.floats(1e-6, 1e6))


def _signed():
    return st.tuples(st.sampled_from([1.0, -1.0]), _magnitudes()).map(
        lambda sm: sm[0] * sm[1])


def _near_one():
    # theta = gamma sigma2 / gbar: most draws leave sigma2 and gbar at 1, so
    # that most channels load
    return st.one_of(st.just(1.0), st.just(1.0), _magnitudes())


# A swept value that makes no valid scenario for any sweep parameter: not
# finite, or a negative whose square overflows.
_INVALID_SWEEP_VALUES = ("nan", "-inf", "-1e308")


@st.composite
def _sweep_values(draw):
    """--values for a sweep: drawn values, and in half of the lists an
    invalid one between two of them."""
    values = [repr(v) for v in draw(st.lists(_signed(), min_size=1, max_size=3))]
    if draw(st.booleans()):
        values = [repr(draw(_signed())), *values]
        values.insert(draw(st.integers(1, len(values) - 1)),
                      draw(st.sampled_from(_INVALID_SWEEP_VALUES)))
    return ",".join(values)


@st.composite
def _runs(draw):
    """A command line and a config of extreme but finite floats, T <= 12
    (figure fig4 runs its own horizons, 2..30)."""
    T = draw(st.integers(1, 12))
    config = {
        "sys": {"q": draw(_magnitudes()), "r": draw(_magnitudes()),
                "a": draw(_signed()), "b": draw(_signed()), "k": draw(_signed()),
                "sigma_x2": draw(_magnitudes()), "sigma_d2": draw(_magnitudes()),
                "T": T},
        "ch": {"gamma": draw(_magnitudes()), "sigma2": draw(_near_one()),
               "gbar": draw(_near_one()), "p_max": draw(_magnitudes())},
        "sim": {"n_samples": draw(st.integers(1, 32)),
                "channel_model": draw(st.sampled_from(["bernoulli", "gain_threshold"])),
                "initial_state": draw(st.sampled_from(["gaussian", "fixed"])),
                "x1": draw(_signed())},
    }
    if draw(st.booleans()):
        config["opt"] = {"k_max": 1}
    command = draw(st.sampled_from(["optimize", "simulate", "compare", "sweep", "figure"]))
    argv = [command]
    if command == "compare":
        argv += ["--horizons", f"1:{T}"]
    elif command == "sweep":
        argv += ["--param", draw(st.sampled_from(SWEEP_PARAMETERS)),
                 "--values", draw(_sweep_values())]
    elif command == "figure":
        argv.append(draw(st.sampled_from(["fig2", "fig3", "fig4"])))
        # a figure runs many scenarios, any of which can fail: keep sim and
        # some of the other drawn sections, the figure's preset filling in
        config = {name: part for name, part in config.items()
                  if name == "sim" or draw(st.booleans())}
    if command in ("optimize", "compare", "figure") and draw(st.booleans()):
        argv.append("--plot")
    return argv, config


# The files a failed run must not have written, by command or figure: each
# needs every result before it, as does a --plot script (*.gp).  A sweep's
# earlier values, fig2's earlier variants and a simulate's descent keep theirs.
_NOT_WRITTEN_ON_FAILURE = {
    "optimize": {"policy.csv", "trace.csv"},
    "simulate": {"report.csv", "per_slot.csv"},
    "compare": {"comparison.csv"},
    "sweep": {"index.csv"},
    "fig2": {"index.csv"},
    "fig3": {"index.csv"},
    "fig4": {"comparison.csv"},
}


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_runs())
def test_every_failure_is_one_error_line(run):
    # exit 0, or exit 1 with a last stderr line "error: ..." and none of the
    # files that need the failed result; no traceback, and no warning but
    # the optimizer's k_max one
    argv, config = run
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with redirect_stderr(err):
            rc = main([*argv, "--config", str(path), "--out", str(out)])
        written = {p.name for p in out.iterdir()} if out.exists() else set()
    lines = err.getvalue().splitlines()
    if rc == 1:
        assert lines and lines.pop().startswith("error: ")
        kind = argv[1] if argv[0] == "figure" else argv[0]
        assert not written & _NOT_WRITTEN_ON_FAILURE[kind], written
        assert not any(name.endswith(".gp") for name in written), written
    else:
        assert rc == 0
    for line in lines:
        assert line.startswith("warning: optimizer stopped after "), line
