import json
import re
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from lqpower.cli import main
from lqpower.experiments import (
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

    def test_bad_horizon(self, tmp_path, capsys):
        rc = main(["compare", "--preset", "fig4", "--horizons", "0",
                   "--out", str(tmp_path)])
        assert rc != 0
        assert capsys.readouterr().err.startswith("error:")

    def test_reversed_horizon_range(self, tmp_path, capsys):
        rc = main(["compare", "--preset", "fig4", "--horizons", "2,9:3",
                   "--out", str(tmp_path)])
        assert rc != 0
        err = capsys.readouterr().err
        assert err.startswith("error:") and "9:3" in err
        assert len(err.strip().splitlines()) == 1
        assert not tmp_path.joinpath("comparison.csv").exists()


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


class TestPlotScripts:
    def test_policy_script(self, tmp_path):
        path = tmp_path / "policy.csv"
        path.write_text("t,p,pi\n1,2.0,0.6\n2,0,0\n")
        script = emit_plot_script([path], "policy", tmp_path / "stem.gp")
        text = script.read_text()
        assert "impulses" in text
        assert "using 1:2" in text
        assert "logscale" not in text

    def test_comparison_script_with_log_axis(self, tmp_path):
        path = tmp_path / "comparison.csv"
        path.write_text("T,cost_proposed,se_proposed,cost_full,se_full,"
                        "cost_open,se_open\n1,1,0,2,0,3,0\n")
        script = emit_plot_script([path], "comparison", tmp_path / "cmp.gp",
                                  logy=True)
        text = script.read_text()
        for cols, title in (("1:2", "proposed"), ("1:4", "full"), ("1:6", "open")):
            assert f"using {cols}" in text and title in text
        assert "set logscale y" in text

    def test_missing_csv(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            emit_plot_script([tmp_path / "nope.csv"], "policy", tmp_path / "x.gp")

    def test_cli_plot_flag(self, tmp_path):
        rc = main(["optimize", "--preset", "fig2", "--plot", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "policy.gp").exists()

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
    # workflows shared one scenario loop and one CSV writer
    @pytest.mark.parametrize("name,argv", [
        ("fig2", ["figure", "fig2"]),
        ("fig3", ["figure", "fig3"]),
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
