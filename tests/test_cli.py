"""Config parsing and the sweep runner's CSV/figure/manifest outputs."""

import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from hotnet import analytic, cli, geometry, montecarlo
from hotnet.cli import ConfigError, main, parse_config
from hotnet.params import ScenarioKind, SystemParams, linear_to_db

BASE_CONFIG = """\
# small association sweep
scenario = a
sweep_variable = n_bs
sweep_grid = 2, 6
metrics = assoc_prob
bias2_db = 0
n_bs = 10
"""


def _write(tmp_path, text, name="sweep.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_config_roundtrip(tmp_path):
    cfg = parse_config(_write(tmp_path, BASE_CONFIG))
    assert cfg.sweep.variable == "n_bs"
    assert cfg.sweep.grid == [2, 6]
    assert cfg.sweep.metrics == ["assoc_prob"]
    assert cfg.params.n_bs == 10
    assert cfg.warnings == []


def test_parse_config_defaults_and_warning(tmp_path):
    cfg = parse_config(_write(tmp_path, "sweep_grid = 0\n"))
    assert cfg.sweep.variable == "tau_db"
    assert any("bias2_db" in w for w in cfg.warnings)


def test_unknown_key_reports_line_number(tmp_path):
    path = _write(tmp_path, "n_bs = 4\nbogus_knob = 1\n")
    with pytest.raises(ConfigError, match=r":2: unknown key 'bogus_knob'"):
        parse_config(path)


def test_duplicate_key_rejected(tmp_path):
    path = _write(tmp_path, "n_bs = 4\nn_bs = 5\n")
    with pytest.raises(ConfigError, match=r":2: duplicate key"):
        parse_config(path)


def test_missing_equals_rejected(tmp_path):
    path = _write(tmp_path, "n_bs 4\n")
    with pytest.raises(ConfigError, match=r":1: expected 'key = value'"):
        parse_config(path)


def test_invalid_parameter_value_rejected(tmp_path):
    path = _write(tmp_path, "p_los = 1.3\nsweep_grid = 0\n")
    with pytest.raises(ConfigError, match="p_los"):
        parse_config(path)


def test_empty_grid_rejected(tmp_path):
    path = _write(tmp_path, "metrics = coverage\n")
    with pytest.raises(ConfigError, match="sweep_grid"):
        parse_config(path)


def test_unknown_metric_rejected(tmp_path):
    path = _write(tmp_path, "sweep_grid = 0\nmetrics = beauty\n")
    with pytest.raises(ConfigError, match="unknown metrics: beauty"):
        parse_config(path)


def test_metric_named_twice_rejected(tmp_path, capsys):
    path = _write(tmp_path, "sweep_grid = 0\n"
                            "metrics = coverage, coverage, assoc_prob\n")
    with pytest.raises(ConfigError, match="metrics named twice: coverage"):
        parse_config(path)
    assert main(["validate", "--config", str(path)]) == 2
    assert main(["run", "--config", str(path), "--out",
                 str(tmp_path / "out"), "--no-figures"]) == 2
    assert "named twice" in capsys.readouterr().err


def test_unknown_scenario_rejected(tmp_path):
    path = _write(tmp_path, "sweep_grid = 0\nscenario = z\n")
    with pytest.raises(ConfigError, match="scenario"):
        parse_config(path)


def test_validate_command_echoes_parameters(tmp_path, capsys):
    path = _write(tmp_path, BASE_CONFIG)
    rc = main(["validate", "--config", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "sweep_variable = n_bs" in out
    assert "n_bs = 10" in out


def test_validate_command_rejects_bad_config(tmp_path, capsys):
    path = _write(tmp_path, "p_los = 1.3\nsweep_grid = 0\n")
    rc = main(["validate", "--config", str(path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("variable, grid, reason", [
    ("eta", "1, -1", "sweep_grid value -1 of eta: cluster spreads must be "
                     "positive"),
    ("n_bs", "-1", "sweep_grid value -1 of n_bs: n_bs must be nonnegative"),
    ("n_bs", "2.5, 6", "sweep_grid value 2.5 of n_bs: n_bs must be a whole "
                       "number"),
    ("v0", "50, -5", "sweep_grid value -5 of v0: v0 must be nonnegative"),
    ("v0", "50, nan", "sweep_grid value nan of v0: v0 must be finite"),
    ("tau_db", "0, nan", "sweep_grid value nan of tau_db: tau_db must be "
                         "finite"),
    ("eta", "1, inf", "sweep_grid value inf of eta: eta must be finite"),
], ids=["negative_eta", "negative_n_bs", "fractional_n_bs", "negative_v0",
        "nan_v0", "nan_tau_db", "infinite_eta"])
def test_invalid_grid_point_rejected_before_running(tmp_path, capsys,
                                                    command, variable, grid,
                                                    reason):
    path = _write(tmp_path, f"sweep_variable = {variable}\n"
                            f"sweep_grid = {grid}\nmetrics = assoc_prob\n")
    with pytest.raises(ConfigError, match=reason):
        parse_config(path)
    out = tmp_path / "out"
    args = ["--out", str(out), "--mode", "mc"] if command == "run" else []
    rc = main([command, "--config", str(path), *args])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:")
    assert reason in captured.err
    assert "Traceback" not in captured.err + captured.out
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("value, reason", [
    ("abc", "bad value for tau_db: could not convert string to float"),
    ("inf", "tau_db must be finite"),
    ("nan", "tau_db must be finite"),
], ids=["non_numeric", "infinite", "nan"])
def test_invalid_tau_db_rejected_before_running(tmp_path, capsys, command,
                                                value, reason):
    path = _write(tmp_path, f"tau_db = {value}\nsweep_variable = eta\n"
                            f"sweep_grid = 1\nmetrics = coverage\n")
    with pytest.raises(ConfigError, match=reason):
        parse_config(path)
    out = tmp_path / "out"
    args = ["--out", str(out), "--mode", "analytic"] if command == "run" \
        else []
    rc = main([command, "--config", str(path), *args])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:")
    assert reason in captured.err
    assert "Traceback" not in captured.err + captured.out
    assert not out.exists()


@pytest.mark.parametrize("args, reason", [
    (["--trials", "0"], "--trials must be >= 1"),
    (["--seed", "-1"], "--seed must be nonnegative"),
    # the config file itself, which cannot be the output directory
    (["--out", "sweep.cfg"], "File exists"),
], ids=["zero_trials", "negative_seed", "out_is_a_file"])
def test_invalid_run_arguments_rejected_before_running(tmp_path, capsys,
                                                       monkeypatch, args,
                                                       reason):
    monkeypatch.chdir(tmp_path)
    path = _write(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    rc = main(["run", "--config", str(path), "--mode", "mc",
               "--out", str(out), *args])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:")
    assert reason in captured.err
    assert "Traceback" not in captured.err + captured.out
    assert not out.exists()


def test_whole_number_fields_accept_float_spelling(tmp_path):
    whole = parse_config(_write(tmp_path, BASE_CONFIG))
    spelled = parse_config(_write(tmp_path, BASE_CONFIG.replace(
        "n_bs = 10", "n_bs = 10.0"), name="float.cfg"))
    assert spelled.params == whole.params
    assert isinstance(spelled.params.n_bs, int)
    path = _write(tmp_path, BASE_CONFIG.replace("n_bs = 10", "n_bs = 2.5"),
                  name="half.cfg")
    with pytest.raises(ConfigError, match="n_bs must be a whole number"):
        parse_config(path)
    assert main(["validate", "--config", str(path)]) == 2


def test_manifest_and_validate_echo_the_resolved_config(tmp_path, capsys):
    # a defaulted bias2_db warns on stderr; stdout stays a config
    for i, text in enumerate((BASE_CONFIG,
                              BASE_CONFIG.replace("bias2_db = 0\n", ""))):
        path = _write(tmp_path, text + "tau_db = 5\n", f"sweep{i}.cfg")
        assert main(["validate", "--config", str(path)]) == 0
        captured = capsys.readouterr()
        assert ("bias2_db not set" in captured.err) == (i == 1)
        echoed = captured.out.splitlines()
        out = tmp_path / f"out{i}"
        assert main(["run", "--config", str(path), "--mode", "mc",
                     "--out", str(out), "--trials", "200",
                     "--no-figures"]) == 0
        manifest = (out / "run_manifest.txt").read_text().splitlines()
        assert "tau_db = 5" in echoed
        assert "tau_db = 5" in manifest
        # the echo is itself a config of the same run
        cfg = parse_config(path)
        again = parse_config(_write(tmp_path, "\n".join(echoed),
                                    f"again{i}.cfg"))
        assert again.sweep == cfg.sweep
        assert again.params == cfg.params


def test_run_missing_config_fails_cleanly(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "nope.cfg"),
               "--out", str(tmp_path / "out")])
    assert rc == 2


def test_run_mc_produces_csv_and_manifest(tmp_path):
    path = _write(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    rc = main(["run", "--config", str(path), "--mode", "mc",
               "--out", str(out), "--seed", "3", "--trials", "2000",
               "--no-figures"])
    assert rc == 0
    csv = (out / "assoc_prob.csv").read_text()
    lines = csv.strip().split("\n")
    assert lines[0] == "n_bs,mc,mc_stderr"
    assert len(lines) == 3
    manifest = (out / "run_manifest.txt").read_text()
    assert "seed = 3" in manifest
    assert "trials = 2000" in manifest


def test_mc_manifest_states_the_truncation(tmp_path):
    # an mc or both run lists the expected interferer count K of every
    # exact-draw disk and each tier's radius sqrt(K / (pi density)) at
    # each grid point; an analytic run draws nothing and lists neither
    path = _write(tmp_path, BASE_CONFIG)
    p = parse_config(path).params
    k = geometry.EXACT_DRAW_COUNT
    macro = math.sqrt(k / (math.pi * p.lambda1_per_km2 * 1e-6))
    members = [math.sqrt(k / (math.pi * p.lambda_p_per_km2 * 1e-6 * n))
               for n in (2, 6)]
    for mode in ("mc", "both", "analytic"):
        out = tmp_path / mode
        assert main(["run", "--config", str(path), "--mode", mode,
                     "--out", str(out), "--trials", "200",
                     "--no-figures"]) == 0
        lines = (out / "run_manifest.txt").read_text().splitlines()
        fields = dict(line.split(" = ", 1) for line in lines)
        if mode == "analytic":
            assert not any(key.startswith("exact_draw") for key in fields)
            continue
        assert int(fields["exact_draw_count"]) == k
        got = [[float(x) for x in fields[f"exact_draw_radius_{t}_m"].split()]
               for t in ("macro", "members")]
        assert got[0] == pytest.approx([macro, macro], rel=1e-8)
        assert got[1] == pytest.approx(members, rel=1e-8)


def test_run_same_seed_byte_identical(tmp_path):
    path = _write(tmp_path, BASE_CONFIG)
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        rc = main(["run", "--config", str(path), "--mode", "mc",
                   "--out", str(out), "--seed", "3", "--trials", "2000",
                   "--no-figures"])
        assert rc == 0
        outs.append((out / "assoc_prob.csv").read_bytes())
    assert outs[0] == outs[1]


def test_run_both_mode_adds_analytic_and_diff(tmp_path):
    path = _write(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    rc = main(["run", "--config", str(path), "--mode", "both",
               "--out", str(out), "--seed", "3", "--trials", "4000",
               "--no-figures"])
    assert rc == 0
    data = np.genfromtxt(out / "assoc_prob.csv", delimiter=",", names=True)
    assert set(data.dtype.names) == {"n_bs", "mc", "mc_stderr", "analytic",
                                     "abs_diff"}
    # sampled and closed-form association agree at this trial count
    assert np.all(np.atleast_1d(data["abs_diff"]) < 0.05)


def test_run_renders_figures(tmp_path):
    pytest.importorskip("matplotlib")
    path = _write(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    rc = main(["run", "--config", str(path), "--mode", "mc",
               "--out", str(out), "--seed", "1", "--trials", "500"])
    assert rc == 0
    assert (out / "assoc_prob.png").exists()


def test_run_strict_flags_unobtainable_cells(tmp_path, capsys):
    # the rate percentiles have no closed form: analytic mode yields a NaN
    # cell, which --strict turns into a nonzero exit
    cfg = "scenario = d\nsweep_grid = 0\nmetrics = edge_rate\nbias2_db = 0\n"
    path = _write(tmp_path, cfg)
    out = tmp_path / "out"
    rc = main(["run", "--config", str(path), "--mode", "analytic",
               "--out", str(out), "--strict", "--no-figures"])
    assert rc == 1
    assert "could not be evaluated" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["b", "c", "d"])
def test_run_both_mode_assoc_prob_of_single_band_deployments(tmp_path,
                                                             scenario):
    # (b) has no small cells and (c) no macro BSs, in both paths; (d)
    # is the two-tier baseline
    cfg = (f"scenario = {scenario}\nsweep_grid = 0\nmetrics = assoc_prob\n"
           "bias2_db = 0\n")
    path = _write(tmp_path, cfg)
    out = tmp_path / "out"
    rc = main(["run", "--config", str(path), "--mode", "both",
               "--out", str(out), "--seed", "3", "--trials", "4000",
               "--no-figures"])
    assert rc == 0
    data = np.genfromtxt(out / "assoc_prob.csv", delimiter=",", names=True)
    if scenario == "b":
        assert data["analytic"] == 0.0
    assert data["abs_diff"] <= 4.0 * data["mc_stderr"] + 0.01


@pytest.mark.parametrize("target", [0.5, 0.95], ids=["median", "edge"])
def test_analytic_percentile_is_the_coverage_root(target):
    # the percentile cell solves coverage(tau) = target in dB, to 0.01 dB
    params, scenario = SystemParams(), ScenarioKind.INTEGRATED
    root = brentq(lambda t_db: analytic.coverage(
        10.0 ** (t_db / 10.0), params, spec=cli._SWEEP_SPEC,
        scenario=scenario) - target, -40.0, 60.0, xtol=1e-4)
    got = cli._analytic_percentile(params, scenario, target)
    assert abs(got - root) <= 0.01


@pytest.mark.parametrize("deployment", ["a", "d"])
def test_analytic_percentile_cell_holds_no_solver_digits(deployment,
                                                         monkeypatch):
    # the medians sit at 7.840 and -3.942 dB, at least 0.003 dB from a
    # rounding edge: a coverage that moves by far less than the cell's
    # 0.01 dB moves the solver's path, but not the cell
    params, scenario = SystemParams(), ScenarioKind(deployment)
    cell = cli._analytic_percentile(params, scenario, 0.5)
    assert cell == round(cell, 2)
    coverage = analytic.coverage
    for shift in (-1e-8, 1e-8):
        monkeypatch.setattr(analytic, "coverage",
                            lambda *args, **kwargs: coverage(*args, **kwargs)
                            + shift)
        assert cli._analytic_percentile(params, scenario, 0.5) == cell


def test_percentile_probe_at_60_db_keeps_its_coverage():
    # brentq probes the bracket's ends: the sweep's looser spec must not
    # lose the coverage mass there
    params = SystemParams()
    assert analytic.coverage(10.0 ** 6.0, params, spec=cli._SWEEP_SPEC) \
        == pytest.approx(analytic.coverage(10.0 ** 6.0, params), rel=0.01)


def test_unreachable_percentile_is_nan():
    # without macro BSs (c) a UE whose cluster has no LoS member is never
    # covered, so coverage stays below 0.95 at every threshold
    params, scenario = SystemParams(), ScenarioKind.MMWAVE_ONLY
    assert analytic.coverage(1e-4, params, spec=cli._SWEEP_SPEC,
                             scenario=scenario) < 0.95
    assert math.isnan(cli._analytic_percentile(params, scenario, 0.95))


def test_sweep_at_fixed_parameters_draws_one_table(tmp_path, monkeypatch):
    # every point of a tau_db sweep has the same parameters and seed, so
    # they all read one table
    calls, run_trials = [], montecarlo.run_trials

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return run_trials(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "run_trials", spy)
    path = _write(tmp_path, "sweep_grid = -5, 0, 5\nmetrics = coverage\n"
                            "bias2_db = 0\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--mode", "mc",
                 "--out", str(out), "--seed", "3", "--trials", "300",
                 "--no-figures"]) == 0
    assert len(calls) == 1
    data = np.genfromtxt(out / "coverage.csv", delimiter=",", names=True)
    assert len(data) == 3
    assert np.all(np.diff(data["mc"]) <= 0)


def test_equal_parameters_apart_in_the_grid_share_one_table(tmp_path,
                                                             monkeypatch):
    # the first and last points have the same parameters: they read one
    # table and one set of closed forms, and rows still follow the grid
    calls, run_trials = [], montecarlo.run_trials

    def spy(params, *args, **kwargs):
        calls.append(params.bias2_db)
        return run_trials(params, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "run_trials", spy)
    metrics = ("assoc_prob", "coverage", "mean_serving_distance")
    path = _write(tmp_path, "scenario = c\nsweep_variable = bias_ratio_db\n"
                            "sweep_grid = 0, 10, 0\n"
                            f"metrics = {', '.join(metrics)}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--mode", "both",
                 "--out", str(out), "--seed", "3", "--trials", "300",
                 "--no-figures"]) == 0
    assert calls == [0.0, 10.0]
    for metric in metrics:
        lines = (out / f"{metric}.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "10", "0"]
        assert lines[1] == lines[3]


@pytest.mark.parametrize("scenario", ["a", "c"])
def test_mc_percentile_cells_are_exact_quantiles(tmp_path, scenario):
    # each cell is the empirical quantile over all trials, unserved ones
    # read as 0; in (c) over 5% of the users have no LoS candidate, so
    # the 5% SINR quantile falls on an unserved trial and reads NaN
    path = _write(tmp_path, f"scenario = {scenario}\nsweep_grid = 0\n"
                            "metrics = median_sinr, edge_sinr, median_rate, "
                            "edge_rate\nbias2_db = 0\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--mode", "mc",
                 "--out", str(out), "--seed", "3", "--trials", "2000",
                 "--no-figures"]) == 0
    cfg = parse_config(path)
    table = montecarlo.run_trials(cfg.params, cfg.sweep.scenario, 2000, 3)
    for metric, column, q in (("median_sinr", "sinr", 0.5),
                              ("edge_sinr", "sinr", 0.05),
                              ("median_rate", "rate", 0.5),
                              ("edge_rate", "rate", 0.05)):
        want = montecarlo.estimate_quantile(table, column, q)
        if column == "sinr":
            want = 10.0 * np.log10(want) if want > 0 else np.nan
        got = np.genfromtxt(out / f"{metric}.csv", delimiter=",",
                            names=True)["mc"]
        np.testing.assert_allclose(got, want, rtol=1e-8, err_msg=metric)
    if scenario == "c":
        assert np.isnan(np.genfromtxt(out / "edge_sinr.csv", delimiter=",",
                                      names=True)["mc"])


def test_tau_sweep_evaluates_grid_free_closed_forms_once(tmp_path,
                                                         monkeypatch):
    # a tau_db sweep keeps the parameters: only coverage reads the grid
    # value, every other closed form is evaluated once for all points
    calls = []

    def spy(name, value):
        def fake(*args, **kwargs):
            calls.append(name)
            return value
        return fake

    for name, value in (("assoc_prob", 0.4), ("avg_rate", 2.5e9),
                        ("coverage", 0.6)):
        monkeypatch.setattr(analytic, name, spy(name, value))
    monkeypatch.setattr(cli, "_analytic_percentile", spy("percentile", 3.0))
    metrics = ("assoc_prob", "avg_rate", "median_sinr", "edge_sinr",
               "coverage")
    path = _write(tmp_path, "sweep_grid = -5, 0, 5\n"
                            f"metrics = {', '.join(metrics)}\n"
                            "bias2_db = 0\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--mode", "analytic",
                 "--out", str(out), "--no-figures"]) == 0
    assert Counter(calls) == {"assoc_prob": 1, "avg_rate": 1,
                              "percentile": 2, "coverage": 3}
    for metric in metrics:
        data = np.genfromtxt(out / f"{metric}.csv", delimiter=",",
                             names=True)
        assert len(data) == 3
        assert len(set(data["analytic"].tolist())) == 1, metric


ALL_METRICS = ("assoc_prob", "coverage", "snr_coverage", "edge_sinr",
               "median_sinr", "edge_rate", "median_rate",
               "mean_serving_distance", "avg_rate")


def engine_mc_cells(table, tau_db):
    """Each metric's (value, stderr) straight from the estimator layer."""
    def estimate(est):
        return est.value, est.stderr

    def coverage(which):
        curve = montecarlo.estimate_coverage(table, [tau_db], metric=which)
        return curve.probabilities[0], curve.stderr[0]

    def quantile(column, q):
        x = montecarlo.estimate_quantile(table, column, q)
        if column == "sinr":
            x = linear_to_db(x) if x > 0 else math.nan
        return x, math.nan

    return {"assoc_prob": estimate(montecarlo.estimate_assoc_prob(table, 2)),
            "coverage": coverage("sinr"), "snr_coverage": coverage("snr"),
            "edge_sinr": quantile("sinr", 0.05),
            "median_sinr": quantile("sinr", 0.5),
            "edge_rate": quantile("rate", 0.05),
            "median_rate": quantile("rate", 0.5),
            "mean_serving_distance": estimate(
                montecarlo.estimate_serving_distance(table)),
            "avg_rate": estimate(montecarlo.estimate_rate(table))}


def _text(x) -> str:
    return "nan" if math.isnan(x) else f"{x:.9g}"


def v0_bin(v0, value, sigma_ue):
    """The trials of a v0 sweep's bin at ``value``: below the Rayleigh
    mode, those whose Rayleigh CDF lies within 0.06 of the grid point's;
    at and beyond it, those within 0.1 sigma_UE of the point."""
    if value >= sigma_ue:
        return np.abs(v0 - value) < 0.1 * sigma_ue

    def cdf(v):
        return 1.0 - np.exp(-np.square(v) / (2.0 * sigma_ue ** 2))
    return np.abs(cdf(v0) - cdf(value)) <= 0.06


def v0_bin_mean(f, value, sigma_ue):
    """Mean of ``f(v0)`` over the Rayleigh offsets in the bin at ``value``
    (as ``v0_bin`` draws it), by adaptive quadrature: uniform in the
    Rayleigh CDF below the mode, density-weighted in v0 beyond it."""
    if value >= sigma_ue:
        lo, hi = value - 0.1 * sigma_ue, value + 0.1 * sigma_ue

        def density(v):
            return v * math.exp(-0.5 * (v / sigma_ue) ** 2)
        return (quad(lambda v: f(v) * density(v), lo, hi, epsrel=1e-10)[0]
                / quad(density, lo, hi, epsrel=1e-10)[0])
    mid = 1.0 - math.exp(-0.5 * (value / sigma_ue) ** 2)
    lo, hi = max(mid - 0.06, 0.0), mid + 0.06
    return quad(lambda t: f(sigma_ue * math.sqrt(-2.0 * math.log1p(-t))),
                lo, hi, epsrel=1e-10)[0] / (hi - lo)


def test_v0_sweep_bins_are_filled_near_zero_and_local_in_the_tail(
        tmp_path, monkeypatch):
    # the Rayleigh density vanishes at v0 = 0: a bin of fixed width in v0
    # held about 0.5% of the trials there, against 12% at 120 m; the CDF
    # bin holds 6% at 0 (one-sided) while beyond the mode each bin keeps
    # only the trials near its own point, so 400, 500 and 600 m do not
    # share trials
    picks, select = [], montecarlo.TrialTable.select

    def spy(self, mask):
        picked = select(self, mask)
        if len(self) == 2000:
            picks.append(picked.v0)
        return picked

    monkeypatch.setattr(montecarlo.TrialTable, "select", spy)
    grid = (0.0, 120.0, 400.0, 500.0, 600.0)
    path = _write(tmp_path, "scenario = d\nsweep_variable = v0\n"
                            f"sweep_grid = {', '.join(f'{g:g}' for g in grid)}"
                            "\nmetrics = assoc_prob\n")
    assert main(["run", "--config", str(path), "--mode", "mc",
                 "--out", str(tmp_path / "out"), "--seed", "3",
                 "--trials", "2000", "--no-figures"]) == 0
    assert len(picks) == len(grid)
    assert len(picks[0]) >= len(picks[1]) / 3, [len(p) for p in picks]
    sigma = parse_config(path).params.sigma_ue_m
    for value, v0 in zip(grid[2:], picks[2:]):
        assert np.all(np.abs(v0 - value) < 0.1 * sigma), value


@pytest.mark.parametrize("scenario, variable, grid", [
    ("a", "tau_db", (-5.0, 5.0)), ("d", "v0", (0.0, 120.0))],
    ids=["tau_db", "v0"])
def test_every_cell_is_its_engine_call(tmp_path, scenario, variable, grid):
    # each written cell is the MC estimator on the run's table (its v0 bin
    # in a v0 sweep) and the analytic entry point; an analytic cell is NaN
    # exactly for a metric without a closed form: snr_coverage, edge_rate,
    # median_rate, mean_serving_distance, and all but assoc_prob at a v0
    path = _write(tmp_path, f"scenario = {scenario}\n"
                            f"sweep_variable = {variable}\n"
                            f"sweep_grid = {grid[0]:g}, {grid[1]:g}\n"
                            f"metrics = {', '.join(ALL_METRICS)}\n"
                            "bias2_db = 0\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--mode", "both",
                 "--out", str(out), "--seed", "3", "--trials", "2000",
                 "--no-figures"]) == 0
    cfg = parse_config(path)
    params, sc = cfg.params, cfg.sweep.scenario
    table = montecarlo.run_trials(params, sc, 2000, 3)
    # the closed forms that do not read the threshold
    fixed = {} if variable == "v0" else {
        "assoc_prob": analytic.assoc_prob(2, params, scenario=sc),
        "edge_sinr": cli._analytic_percentile(params, sc, 0.95),
        "median_sinr": cli._analytic_percentile(params, sc, 0.5),
        "avg_rate": analytic.avg_rate(params, scenario=sc)}
    rows = {}
    for metric in ALL_METRICS:
        lines = (out / f"{metric}.csv").read_text().splitlines()
        rows[metric] = [dict(zip(lines[0].split(","), line.split(",")))
                        for line in lines[1:]]
    for i, value in enumerate(grid):
        if variable == "v0":
            sub = table.select(v0_bin(table.v0, value, params.sigma_ue_m))
            assert len(sub) > 0
            mc = engine_mc_cells(sub, cfg.sweep.tau_db)
            closed = {"assoc_prob": v0_bin_mean(
                lambda v: analytic.conditional_assoc_prob(2, v, params,
                                                          scenario=sc),
                value, params.sigma_ue_m)}
        else:
            mc = engine_mc_cells(table, value)
            closed = dict(fixed, coverage=analytic.coverage(
                10.0 ** (value / 10.0), params, spec=cli._SWEEP_SPEC,
                scenario=sc))
        assert all(math.isfinite(v) for v in closed.values())
        for metric in ALL_METRICS:
            (m, se), a = mc[metric], closed.get(metric, math.nan)
            diff = abs(a - m) if a == a and m == m else math.nan
            want = {"mc": _text(m), "mc_stderr": _text(se),
                    "analytic": _text(a), "abs_diff": _text(diff)}
            got = rows[metric][i]
            if variable == "v0" and metric == "assoc_prob":
                # the bin average: the CLI's 16-node rule against quad
                for key in ("analytic", "abs_diff"):
                    assert float(got.pop(key)) == pytest.approx(
                        float(want.pop(key)), rel=1e-7, abs=1e-9)
            assert {k: got[k] for k in want} == want, (metric, value)


def test_v0_sweep_analytic_cell_is_the_bin_average(tmp_path):
    # the analytic cell of a v0 sweep averages the closed form given v0
    # over the trials its MC cell reads, not the point value: (d) at
    # v0 = 0 reads about 0.516 where the point value is 0.533 (the bin
    # spans 0-53 m, where the conditional share falls steeply)
    grid = (0.0, 120.0, 300.0)
    path = _write(tmp_path, "scenario = d\nsweep_variable = v0\n"
                            f"sweep_grid = {', '.join(f'{g:g}' for g in grid)}"
                            "\nmetrics = assoc_prob\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--mode", "analytic",
                 "--out", str(out), "--no-figures"]) == 0
    cfg = parse_config(path)
    lines = (out / "assoc_prob.csv").read_text().splitlines()[1:]
    cells = [float(line.split(",")[1]) for line in lines]

    def share(v):
        return analytic.conditional_assoc_prob(2, v, cfg.params,
                                               scenario=cfg.sweep.scenario)
    for value, cell in zip(grid, cells, strict=True):
        assert cell == pytest.approx(
            v0_bin_mean(share, value, cfg.params.sigma_ue_m), rel=1e-7)
    assert cells[0] == pytest.approx(0.516, abs=1e-3)
    assert share(0.0) - cells[0] > 0.015


def test_bias_sweep_cells_are_their_engine_calls(tmp_path):
    # a bias_ratio_db point sets bias2_db, the one association bias, over
    # the configured value; each cell is the engine at that point
    grid = ("-10", "0", "15")
    path = _write(tmp_path, "sweep_variable = bias_ratio_db\n"
                            f"sweep_grid = {', '.join(grid)}\n"
                            "metrics = assoc_prob\nbias2_db = 5\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--mode", "both",
                 "--out", str(out), "--seed", "3", "--trials", "2000",
                 "--no-figures"]) == 0
    cfg = parse_config(path)
    lines = (out / "assoc_prob.csv").read_text().splitlines()
    assert lines[0] == "bias_ratio_db,mc,mc_stderr,analytic,abs_diff"
    for value, line in zip(grid, lines[1:], strict=True):
        p = cfg.params.replace(bias2_db=float(value))
        table = montecarlo.run_trials(p, cfg.sweep.scenario, 2000, 3,
                                      assoc_only=True)
        est = montecarlo.estimate_assoc_prob(table, 2)
        a = analytic.assoc_prob(2, p)
        assert line.split(",") == [value, _text(est.value),
                                   _text(est.stderr), _text(a),
                                   _text(abs(a - est.value))]


SHIPPED_CONFIGS = sorted(
    (Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
def test_shipped_configs_validate_and_run(tmp_path, path, capsys):
    assert main(["validate", "--config", str(path)]) == 0
    cfg = parse_config(path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--mode", "mc",
                 "--out", str(out), "--trials", "200",
                 "--no-figures"]) == 0
    assert sorted(p.stem for p in out.glob("*.csv")) == \
        sorted(cfg.sweep.metrics)
    for metric in cfg.sweep.metrics:
        data = np.genfromtxt(out / f"{metric}.csv", delimiter=",",
                             names=True)
        assert data.dtype.names[0] == cfg.sweep.variable
        assert data[cfg.sweep.variable].tolist() == cfg.sweep.grid
