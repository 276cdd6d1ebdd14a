import csv
import json
import re
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import relayprobe as rp
from relayprobe import sedist, simulator, solver
from relayprobe.cli import (SWEEP_COLUMNS, SweepSpec, main, parse_strategy,
                            run_sweep, sweep_rows)
from relayprobe.simulator import (MYOPIC, ExplicitThreshold, FixedBeta,
                                  OptimalThreshold, optimal_solution)

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def onoff_cfg_path(tmp_path):
    cfg = rp.default_scenario(p_avail=0.5, tau=0.01, bandwidth_W=1.0,
                              se_cap=2.0, channel_mode="onoff")
    path = tmp_path / "cfg.json"
    cfg.to_json(path)
    return str(path)


@pytest.fixture
def geo_cfg_path(tmp_path):
    path = tmp_path / "geo.json"
    rp.default_scenario(p_avail=0.5, tau=0.01).to_json(path)
    return str(path)


def read_rows(path):
    with open(path) as f:
        return list(csv.DictReader(f))


class TestParseStrategy:
    def test_known_names(self):
        assert isinstance(parse_strategy("optimal"), OptimalThreshold)
        assert parse_strategy("myopic") == MYOPIC
        assert parse_strategy("fixed:5") == FixedBeta(5)
        assert parse_strategy("threshold:1.2") == ExplicitThreshold(1.2)
        assert parse_strategy("threshold", 0.7) == ExplicitThreshold(0.7)

    def test_unknown_rejected(self):
        for name in ("wishful", "threshold:nan", "threshold:inf", "threshold:-1"):
            with pytest.raises(ValueError):
                parse_strategy(name)

    def test_bare_threshold_needs_value(self):
        with pytest.raises(ValueError):
            parse_strategy("threshold")


class TestSweepSpec:
    def test_from_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "variable": "p_avail", "grid": [0.3, 0.6], "strategies": ["myopic"],
            "n_periods": 100, "seed": 5}))
        spec = SweepSpec.from_json(path)
        assert spec.grid == (0.3, 0.6)
        assert spec.seed == 5

    @pytest.mark.parametrize("patch", [
        {"variable": "bogus"},
        {"grid": []},
        {"grid": [0.6, 0.3]},
        {"strategies": []},
        {"n_periods": 10},
        {"seed": -1},
        {"grid": (float("nan"),)},
        {"n_periods": 100.0},
        {"strategies": "myopic"},
        {"seed": True},
        # ints too large for a float
        {"n_periods": 10 ** 400},
        # past MAX_PERIODS: a float-range integer would never finish
        {"n_periods": 10 ** 7 + 1},
        {"n_periods": 10 ** 300},
        {"grid": (10 ** 400,)},
    ])
    def test_validation(self, patch):
        base = dict(variable="p_avail", grid=(0.3, 0.6), strategies=("myopic",),
                    n_periods=100, seed=0)
        base.update(patch)
        with pytest.raises(ValueError):
            SweepSpec(**base)

    def test_numpy_integers_stored_as_int(self):
        spec = SweepSpec("p_avail", (0.3,), ("myopic",), np.int64(100), np.int64(2))
        assert (spec.n_periods, spec.seed) == (100, 2)
        assert type(spec.n_periods) is int and type(spec.seed) is int


class TestSolveCommand:
    def test_onoff_closed_form(self, runner, onoff_cfg_path, tmp_path):
        out = tmp_path / "sol.json"
        res = runner.invoke(main, ["solve", onoff_cfg_path, "--out", str(out)])
        assert res.exit_code == 0, res.output
        sol = json.loads(out.read_text())
        assert sol["mu_star_bps"] == pytest.approx(0.5 / 0.265, rel=1e-9)
        assert res.output.splitlines()[0] == "rate law: onoff"
        assert "genie_ratio" in res.output

    def test_genie_ratio_is_closed_form_over_genie(self, runner, tmp_path):
        # on on/off links the printed ratio is the exact optimum over the
        # genie bound W*se_cap
        path = tmp_path / "cfg.json"
        for p in (0.1, 0.5, 0.77, 1.0):
            for tau in (0.001, 0.05):
                cfg = rp.default_scenario(p_avail=p, tau=tau, channel_mode="onoff")
                cfg.to_json(path)
                res = runner.invoke(main, ["solve", str(path)])
                assert res.exit_code == 0, res.output
                W, r = cfg.bandwidth_W, cfg.se_cap
                mu = solver.closed_form_onoff(p, r, W, cfg.T_data, tau).mu_star
                assert f"genie_ratio: {mu / (W * r):.6g}" in res.output.splitlines()

    def test_zero_overhead_unsupported_config(self, runner, tmp_path):
        # tau = 0 violates the config contract and must fail cleanly
        cfg = rp.default_scenario().to_dict()
        cfg["tau"] = 0.0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        res = runner.invoke(main, ["solve", str(path)])
        assert res.exit_code != 0

    def test_tiny_overhead_approaches_genie(self, runner, tmp_path):
        cfg = rp.default_scenario(tau=1e-12, bandwidth_W=1.0, se_cap=2.0,
                                  channel_mode="onoff")
        path = tmp_path / "cfg.json"
        cfg.to_json(path)
        out = tmp_path / "sol.json"
        res = runner.invoke(main, ["solve", str(path), "--out", str(out)])
        assert res.exit_code == 0
        assert json.loads(out.read_text())["mu_star_bps"] == pytest.approx(2.0, rel=1e-9)

    def test_empirical_mode_is_deterministic(self, runner, geo_cfg_path, tmp_path,
                                             monkeypatch):
        monkeypatch.setattr(sedist, "LAW_SAMPLES", 20000)
        outs = []
        for name in ("a.json", "b.json"):
            sedist._clear_law.cache_clear()
            out = tmp_path / name
            res = runner.invoke(main, ["solve", geo_cfg_path, "--seed", "3",
                                       "--out", str(out)])
            assert res.exit_code == 0, res.output
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_geometric_solve_equals_resolve(self, runner, geo_cfg_path, tmp_path,
                                            monkeypatch):
        # `solve` and the simulator's optimal threshold solve the same law
        monkeypatch.setattr(sedist, "LAW_SAMPLES", 20000)
        out = tmp_path / "sol.json"
        res = runner.invoke(main, ["solve", geo_cfg_path, "--seed", "3",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert res.output.splitlines()[0] == \
            "rate law: geometric, 20000 clear-link draws, seed 3"
        assert "genie_ratio" not in res.output
        cfg = rp.ScenarioConfig.from_json(geo_cfg_path)
        rho = optimal_solution(cfg, 3).threshold_se
        assert json.loads(out.read_text())["threshold_se"] == rho

    def test_malformed_config(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        res = runner.invoke(main, ["solve", str(path)])
        assert res.exit_code != 0

    def test_malformed_value_reported(self, runner, tmp_path):
        cfg = rp.default_scenario().to_dict()
        cfg["source_pos"] = 5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        res = runner.invoke(main, ["solve", str(path)])
        assert res.exit_code != 0
        assert "bad config" in res.output and "source_pos" in res.output


class TestSweepCommand:
    def write_spec(self, tmp_path, **kw):
        d = dict(variable="p_avail", grid=[0.3, 0.6], strategies=["optimal", "myopic"],
                 n_periods=600, seed=1)
        d.update(kw)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(d))
        return str(path)

    def test_rows_and_header(self, runner, onoff_cfg_path, tmp_path):
        spec = self.write_spec(tmp_path)
        out = tmp_path / "out.csv"
        res = runner.invoke(main, ["sweep", onoff_cfg_path, spec, "--out", str(out)])
        assert res.exit_code == 0, res.output
        with open(out) as f:
            header = f.readline().strip()
        assert header == ",".join(SWEEP_COLUMNS)
        rows = read_rows(out)
        assert len(rows) == 4
        assert [r["strategy"] for r in rows] == ["optimal", "myopic"] * 2

    def test_genie_bound(self, runner, onoff_cfg_path, tmp_path):
        spec = self.write_spec(tmp_path, strategies=["optimal", "myopic", "genie"])
        out = tmp_path / "out.csv"
        res = runner.invoke(main, ["sweep", onoff_cfg_path, spec, "--out", str(out)])
        assert res.exit_code == 0
        for row in read_rows(out):
            assert float(row["throughput_bps"]) <= 1.0 * 2.0 + 1e-9

    @pytest.mark.parametrize("scenario, text", [
        ({"channel_mode": "onoff", "bandwidth_W": 1.0, "se_cap": 2.0}, "2.0"),
        ({"T_data": 0.7}, "4000000000.0"),
    ], ids=["onoff", "geometric_T0.7"])
    def test_genie_row_is_exact(self, runner, tmp_path, scenario, text):
        # the genie bound is the constant W*se_cap with no error bar, at
        # any T_data and under any grid variable
        cfg_path = tmp_path / "cfg.json"
        rp.default_scenario(**scenario).to_json(cfg_path)
        spec = self.write_spec(tmp_path, variable="tau", grid=[0.01, 0.05],
                               strategies=["genie"], n_periods=1000)
        out = tmp_path / "out.csv"
        res = runner.invoke(main, ["sweep", str(cfg_path), spec, "--out", str(out)])
        assert res.exit_code == 0, res.output
        rows = read_rows(out)
        assert [r["tau"] for r in rows] == ["0.01", "0.05"]
        for row in rows:
            assert (row["throughput_bps"], row["stderr_bps"], row["error"]) == (text, "0.0", "")

    def test_bad_grid_value_is_an_error_row(self, runner, onoff_cfg_path, tmp_path):
        # p_avail = 1.5 is rejected by the config; that row records the
        # error and the swept value, and the sweep still writes its CSV
        spec = self.write_spec(tmp_path, grid=[0.5, 1.5], strategies=["myopic"],
                               n_periods=100)
        out = tmp_path / "out.csv"
        res = runner.invoke(main, ["sweep", onoff_cfg_path, spec, "--out", str(out)])
        assert res.exit_code == 0, res.output
        rows = read_rows(out)
        assert len(rows) == 2
        assert rows[0]["error"] == "" and rows[0]["throughput_bps"] != ""
        assert rows[1]["error"].startswith("ConfigError")
        assert (rows[1]["p"], rows[1]["throughput_bps"]) == ("1.5", "")

    @pytest.mark.parametrize("spec_text", [
        '[1, 2]',
        '{"variable": "p_avail", "grid": 5, "strategies": ["myopic"], "n_periods": 100}',
        '{"variable": "p_avail", "grid": [0.5, "x"], "strategies": ["myopic"], "n_periods": 100}',
        '{"variable": "p_avail", "grid": [0.5], "strategies": "myopic", "n_periods": 100}',
        '{"variable": "p_avail", "grid": [0.5], "strategies": [5], "n_periods": 100}',
        '{"variable": "p_avail", "grid": [0.5], "strategies": ["myopic"], "n_periods": null}',
        '{"variable": "p_avail", "grid": [0.5], "strategies": ["myopic"], "n_periods": 100, "seed": 1.5}',
        # within float range but past MAX_PERIODS
        '{"variable": "p_avail", "grid": [0.5], "strategies": ["myopic"], "n_periods": 1%s}'
        % ("0" * 300),
        # an int too large for a float
        '{"variable": "p_avail", "grid": [0.5, 1%s], "strategies": ["myopic"], "n_periods": 100}'
        % ("0" * 400),
        '{not json',
    ])
    def test_malformed_spec_reported(self, runner, onoff_cfg_path, tmp_path, spec_text):
        spec = tmp_path / "spec.json"
        spec.write_text(spec_text)
        res = runner.invoke(main, ["sweep", onoff_cfg_path, str(spec),
                                   "--out", str(tmp_path / "o.csv")])
        assert res.exit_code != 0
        assert "bad sweep spec" in res.output
        if spec_text == "{not json":
            assert "invalid JSON" in res.output
        assert res.exc_info[0] is SystemExit and "Traceback" not in res.output

    def test_empty_strategies_usage_error(self, runner, onoff_cfg_path, tmp_path):
        spec = self.write_spec(tmp_path, strategies=[])
        res = runner.invoke(main, ["sweep", onoff_cfg_path, spec,
                                   "--out", str(tmp_path / "o.csv")])
        assert res.exit_code != 0

    def test_per_point_error_recorded(self, runner, onoff_cfg_path, tmp_path):
        # threshold above the support never stops: error column, run continues
        spec = self.write_spec(tmp_path, variable="threshold", grid=[1.0, 5.0],
                               strategies=["threshold"])
        out = tmp_path / "out.csv"
        res = runner.invoke(main, ["sweep", onoff_cfg_path, spec, "--out", str(out)])
        assert res.exit_code == 0, res.output
        rows = read_rows(out)
        assert rows[0]["error"] == "" and rows[0]["throughput_bps"] != ""
        assert "RunawayPeriodError" in rows[1]["error"]
        assert rows[1]["throughput_bps"] == ""

    def test_unbounded_fixed_beta_is_an_error_row(self, runner, onoff_cfg_path, tmp_path):
        # a fixed count above MAX_PROBES is rejected before anything is drawn
        spec = self.write_spec(tmp_path, grid=[0.5],
                               strategies=["fixed:1000000000", "fixed:5"])
        out = tmp_path / "out.csv"
        res = runner.invoke(main, ["sweep", onoff_cfg_path, spec, "--out", str(out)])
        assert res.exit_code == 0, res.output
        rows = read_rows(out)
        assert rows[0]["error"].startswith("ValueError: beta")
        assert rows[0]["throughput_bps"] == ""
        assert rows[1]["error"] == "" and rows[1]["throughput_bps"] != ""

    def test_solver_nonconvergence_is_an_error_row(self, runner, onoff_cfg_path,
                                                   tmp_path, monkeypatch):
        # a Newton loop cut off before it converges fails only its own rows
        monkeypatch.setattr(solver, "MAX_ITER", 1)
        spec = self.write_spec(tmp_path)
        out = tmp_path / "out.csv"
        res = runner.invoke(main, ["sweep", onoff_cfg_path, spec, "--out", str(out)])
        assert res.exit_code == 0, res.output
        rows = read_rows(out)
        assert [r["strategy"] for r in rows] == ["optimal", "myopic"] * 2
        for row in rows:
            if row["strategy"] == "optimal":
                assert row["error"].startswith("ConvergenceError:")
                assert row["throughput_bps"] == ""
            else:
                assert row["error"] == "" and row["throughput_bps"] != ""

    def test_threshold_peak_near_optimal(self, runner, onoff_cfg_path, tmp_path):
        # on/off law: any threshold in (0, r_bar] behaves identically, while
        # threshold 0 accepts zero-rate relays; the peak row must not be at 0
        spec = self.write_spec(tmp_path, variable="threshold",
                               grid=[0.0, 1.0, 1.9], strategies=["threshold"],
                               n_periods=2000)
        out = tmp_path / "out.csv"
        res = runner.invoke(main, ["sweep", onoff_cfg_path, spec, "--out", str(out)])
        assert res.exit_code == 0
        rows = read_rows(out)
        best = max(rows, key=lambda r: float(r["throughput_bps"]))
        assert float(best["value"]) > 0.0


class TestFigureCommand:
    def test_strategy_vs_p_shape(self, runner, onoff_cfg_path, tmp_path):
        out = tmp_path / "fig.csv"
        res = runner.invoke(main, ["figure", onoff_cfg_path,
                                   "--figure-id", "strategy_vs_p",
                                   "--out", str(out), "--periods", "60"])
        assert res.exit_code == 0, res.output
        rows = read_rows(out)
        assert len(rows) == 40
        assert {r["strategy"] for r in rows} == {"optimal", "myopic", "fixed:5", "fixed:10"}

    def test_threshold_sweep_shape(self, runner, onoff_cfg_path, tmp_path):
        out = tmp_path / "fig.csv"
        res = runner.invoke(main, ["figure", onoff_cfg_path,
                                   "--figure-id", "threshold_sweep",
                                   "--out", str(out), "--periods", "60"])
        assert res.exit_code == 0, res.output
        rows = read_rows(out)
        assert len(rows) == 42
        assert {r["tau"] for r in rows} == {"0.01", "0.05"}

    def test_unknown_figure_id(self, runner, onoff_cfg_path, tmp_path):
        res = runner.invoke(main, ["figure", onoff_cfg_path,
                                   "--figure-id", "nope",
                                   "--out", str(tmp_path / "x.csv")])
        assert res.exit_code != 0


@pytest.mark.parametrize("args, option", [
    (["figure", "{cfg}", "--figure-id", "strategy_vs_p", "--out", "{out}",
      "--periods", "10"], "--periods"),
    (["figure", "{cfg}", "--figure-id", "strategy_vs_p", "--out", "{out}",
      "--periods", "10000001"], "--periods"),
    (["figure", "{cfg}", "--figure-id", "strategy_vs_p", "--out", "{out}",
      "--seed", "-1"], "--seed"),
    (["solve", "{cfg}", "--seed", "-1"], "--seed"),
    (["figure", "{cfg}", "--figure-id", "strategy_vs_p", "--out", "{out}",
      "--workers", "0"], "--workers"),
    (["sweep", "{cfg}", "{cfg}", "--out", "{out}", "--workers", "-2"], "--workers"),
], ids=["figure-periods", "figure-periods-max", "figure-seed", "solve-seed", "figure-workers",
        "sweep-workers"])
def test_integer_options_range_checked(runner, geo_cfg_path, tmp_path, args, option):
    out = str(tmp_path / "o.csv")
    res = runner.invoke(main, [a.format(cfg=geo_cfg_path, out=out) for a in args])
    assert res.exit_code != 0
    assert option in res.output
    assert res.exc_info[0] is SystemExit and "Traceback" not in res.output


def test_huge_config_integer_reported(runner, tmp_path):
    # json reads this as an int too large for a float
    cfg = rp.default_scenario().to_dict()
    cfg["tau"] = 10 ** 400
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    res = runner.invoke(main, ["solve", str(path)])
    assert res.exit_code != 0
    assert "bad config" in res.output and "tau must be a finite number" in res.output
    assert res.exc_info[0] is SystemExit and "Traceback" not in res.output


@pytest.mark.parametrize("out", ["nodir/o.csv", "x" * 300 + ".csv"],
                         ids=["missing-dir", "name-too-long"])
@pytest.mark.parametrize("args", [
    ["solve", "{cfg}", "--out", "{out}"],
    ["sweep", "{cfg}", "{spec}", "--out", "{out}"],
    ["figure", "{cfg}", "--figure-id", "strategy_vs_p", "--periods", "30", "--out", "{out}"],
], ids=["solve", "sweep", "figure"])
def test_unwritable_out_reported(runner, onoff_cfg_path, tmp_path, args, out):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"variable": "p_avail", "grid": [0.5],
                                "strategies": ["myopic"], "n_periods": 100}))
    path = str(tmp_path / out)
    res = runner.invoke(main, [a.format(cfg=onoff_cfg_path, spec=spec, out=path)
                               for a in args])
    # a missing directory is a usage error (exit 2), raised while the options
    # are parsed, before any work; any other failed write comes after it
    assert res.exit_code == (2 if out.startswith("nodir") else 1)
    assert "cannot write" in res.output
    assert res.exc_info[0] is SystemExit and "Traceback" not in res.output


@pytest.mark.parametrize("args", [
    ["solve", "{cfg}"],
    ["sweep", "{cfg}", "{cfg}", "--out", "{out}"],
    ["figure", "{cfg}", "--figure-id", "strategy_vs_p", "--out", "{out}"],
], ids=["solve", "sweep", "figure"])
def test_non_utf8_config_reported(runner, tmp_path, args):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{"tau": "\xff"}')
    out = str(tmp_path / "o.csv")
    res = runner.invoke(main, [a.format(cfg=path, out=out) for a in args])
    assert res.exit_code != 0
    assert "bad config" in res.output
    assert res.exc_info[0] is SystemExit and "Traceback" not in res.output


def readme_cli_lines():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    return [line.strip() for block in blocks for line in block.splitlines()
            if line.strip().startswith("relayprobe ")]


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_examples_parse(runner, line):
    # --help is eager, so this checks every option name in the README's
    # examples without running them
    res = runner.invoke(main, shlex.split(line)[1:] + ["--help"])
    assert res.exit_code == 0, res.output


def test_readme_python_examples_run():
    # an API the README uses but the package dropped fails here
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})


class TestRunSweepDeterminism:
    def test_worker_invariance(self, tmp_path):
        cfg = rp.default_scenario(p_avail=0.5, tau=0.01, bandwidth_W=1.0,
                                  se_cap=2.0, channel_mode="onoff")
        spec = SweepSpec("p_avail", (0.3, 0.7), ("optimal", "myopic"), 9000, 2)
        outs = []
        for i, workers in enumerate((1, 3)):
            out = tmp_path / f"o{i}.csv"
            run_sweep(cfg, spec, out, workers=workers)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestPlanThenRun:
    def test_law_released_before_any_row_runs(self, monkeypatch):
        # a cold geometric p sweep solves every optimal row on one law and
        # frees it before the first row is simulated, so the sweep's traced
        # peak is the law build's own: 256 KiB of slack is under half of
        # what these 2,000-period rows add on top of a held law (0.58 MB)
        sedist._clear_law.cache_clear()
        build_peaks, held = [], []
        build, simulate = sedist.build_empirical, simulator.simulate_periods

        def build_traced(*args):
            law = build(*args)
            build_peaks.append(tracemalloc.get_traced_memory()[1])
            return law

        def simulate_held(*args):
            held.append(sedist._clear_law.cache_info().currsize)
            return simulate(*args)

        monkeypatch.setattr(sedist, "build_empirical", build_traced)
        monkeypatch.setattr(simulator, "simulate_periods", simulate_held)
        spec = SweepSpec("p_avail", (0.2, 0.5, 0.8), ("optimal", "myopic", "fixed:5"), 2000, 1)
        tracemalloc.start()
        try:
            rows = sweep_rows([(rp.default_scenario(), spec)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r[-1] for r in rows] == [""] * 9
        assert len(build_peaks) == 1 and held == [0] * 9
        assert peak <= build_peaks[0] + 2 ** 18

    def test_figure_plans_every_series_before_running_a_row(self, runner, onoff_cfg_path,
                                                          tmp_path, monkeypatch):
        # the threshold figure's two overheads form one plan: all 42 rows are
        # resolved and the law is released once before any row is estimated
        calls = []

        def record(module, name):
            original = getattr(module, name)

            def recorded(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, recorded)

        for module, name in ((simulator, "resolve_policy"), (sedist, "release_law"),
                             (simulator, "estimate_throughput")):
            record(module, name)
        res = runner.invoke(main, ["figure", onoff_cfg_path, "--figure-id", "threshold_sweep",
                                   "--out", str(tmp_path / "fig.csv"), "--periods", "60"])
        assert res.exit_code == 0, res.output
        assert calls[:43] == ["resolve_policy"] * 42 + ["release_law"]
        assert calls.count("release_law") == 1 and calls.count("estimate_throughput") == 42

    def test_numpy_float_config_sweeps_as_builtin_floats(self, tmp_path):
        # a config stores the builtin floats its checks return, so no numpy
        # scalar's repr reaches a CSV cell
        fields = dict(p_avail=0.5, tau=0.01, T_data=1.0, bandwidth_W=1.0)
        spec = SweepSpec("threshold", (0.5, 1.5), ("threshold", "myopic"), 60, 1)
        outs = []
        for convert in (float, np.float64):
            cfg = rp.default_scenario(se_cap=2.0, channel_mode="onoff",
                                      **{k: convert(v) for k, v in fields.items()})
            assert all(type(getattr(cfg, k)) is float for k in fields)
            run_sweep(cfg, spec, tmp_path / "sweep.csv")
            outs.append((tmp_path / "sweep.csv").read_bytes())
        assert outs[0] == outs[1]
