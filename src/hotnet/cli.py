"""Scenario/sweep runner: flat key=value configs in, CSV tables out.

The config mirrors the parameter record field-for-field (``lambda1_per_km2
= 30``, ``sigma_bs_m = 100`` ...) plus a sweep block (``scenario``,
``sweep_variable``, ``sweep_grid``, ``metrics``, ``tau_db``).  Each
requested metric becomes one CSV with a row per grid point; ``both`` mode
adds an |mc - analytic| column.  Values are printed with 9 significant
digits and LF endings so fixture files can be compared byte-for-byte.
When matplotlib is importable, each CSV is also rendered to a PNG next to
it (disable with --no-figures).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import analytic, montecarlo
from .association import link_budgets
from .geometry import EXACT_DRAW_COUNT, exact_draw_radii
from .params import ScenarioKind, SystemParams, linear_to_db
from .quadrature import QuadSpec

SWEEP_VARIABLES = ("n_bs", "eta", "bias_ratio_db", "v0", "tau_db")
# analytic root-finds run on a loosened tolerance; sweeps stay tractable
_SWEEP_SPEC = QuadSpec(rel_tol=3e-3, abs_tol=1e-6)


class ConfigError(Exception):
    pass


@dataclass
class SweepSpec:
    scenario: ScenarioKind
    variable: str
    grid: list
    metrics: list
    tau_db: float = 0.0

    def __post_init__(self) -> None:
        if self.variable not in SWEEP_VARIABLES:
            raise ConfigError(f"unknown sweep_variable {self.variable!r}; "
                              f"choose from {', '.join(SWEEP_VARIABLES)}")
        if not self.grid:
            raise ConfigError("sweep_grid must not be empty")
        bad = [m for m in self.metrics if m not in METRICS]
        if bad:
            raise ConfigError(f"unknown metrics: {', '.join(bad)}")
        twice = sorted({m for m in self.metrics if self.metrics.count(m) > 1})
        if twice:
            raise ConfigError(f"metrics named twice: {', '.join(twice)}")
        if not self.metrics:
            raise ConfigError("metrics must not be empty")


@dataclass
class RunConfig:
    params: SystemParams
    sweep: SweepSpec
    warnings: list


_PARAM_FIELDS = tuple(f.name for f in dataclasses.fields(SystemParams))
_SWEEP_KEYS = ("scenario", "sweep_variable", "sweep_grid", "metrics",
               "tau_db")


def parse_config(path) -> RunConfig:
    """Parse and validate a flat key=value config file."""
    text = Path(path).read_text()
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', "
                              f"got {stripped!r}")
        key, value = (s.strip() for s in stripped.split("=", 1))
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        if key not in _PARAM_FIELDS and key not in _SWEEP_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        raw[key] = value

    warnings = []
    kwargs = {}
    # SystemParams stores whole-number fields as int and rejects others
    for name in _PARAM_FIELDS:
        if name not in raw:
            continue
        try:
            kwargs[name] = float(raw.pop(name))
        except ValueError as exc:
            raise ConfigError(f"{path}: bad value for {name}: {exc}") from None
    if "bias2_db" not in kwargs:
        warnings.append("bias2_db not set; defaulting to 0 dB")
    try:
        params = SystemParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None

    try:
        scenario = ScenarioKind(raw.pop("scenario", "a"))
    except ValueError:
        raise ConfigError(f"{path}: scenario must be one of a, b, c, d") from None
    variable = raw.pop("sweep_variable", "tau_db")
    grid_text = raw.pop("sweep_grid", "")
    try:
        grid = [float(tok) for tok in grid_text.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"{path}: bad sweep_grid: {exc}") from None
    metrics = [tok for tok in raw.pop("metrics", "coverage")
               .replace(",", " ").split()]
    try:
        tau_db = float(raw.pop("tau_db", "0"))
    except ValueError as exc:
        raise ConfigError(f"{path}: bad value for tau_db: {exc}") from None
    if not math.isfinite(tau_db):
        raise ConfigError(f"{path}: tau_db must be finite")
    sweep = SweepSpec(scenario, variable, grid, metrics, tau_db)
    for value in grid:
        try:
            _params_at(params, sweep, value)
        except ValueError as exc:
            raise ConfigError(f"{path}: sweep_grid value {value:g} of "
                              f"{variable}: {exc}") from None
    if variable == "n_bs":
        sweep.grid = [int(g) for g in grid]
    return RunConfig(params, sweep, warnings)


def _params_at(base: SystemParams, sweep: SweepSpec, value) -> SystemParams:
    if not math.isfinite(value):
        raise ValueError(f"{sweep.variable} must be finite")
    if sweep.variable == "v0" and value < 0:
        raise ValueError("v0 must be nonnegative")
    if sweep.variable == "n_bs":
        return base.replace(n_bs=value)
    if sweep.variable == "eta":
        return base.replace(sigma_bs_m=float(value) * base.sigma_ue_m)
    if sweep.variable == "bias_ratio_db":
        return base.replace(bias2_db=float(value))
    return base  # v0 / tau_db sweeps evaluate at fixed params


def _analytic_percentile(params: SystemParams, scenario: ScenarioKind,
                         target: float) -> float:
    """The SINR threshold in dB at which coverage falls to ``target``,
    solved to 1e-3 dB and rounded to the 0.01 dB its cell holds; NaN when
    coverage does not cross it in [-40, 60] dB."""
    # imported here: loading scipy.optimize costs about 0.2 s, which every
    # import of the CLI would pay, and only percentile cells need it
    from scipy.optimize import brentq
    try:
        root = brentq(
            lambda t_db: analytic.coverage(10.0 ** (t_db / 10.0), params,
                                           spec=_SWEEP_SPEC,
                                           scenario=scenario) - target,
            -40.0, 60.0, xtol=1e-3)
    except ValueError:
        return math.nan
    return round(root, 2)


def _pair(est) -> tuple:
    return est.value, est.stderr


def _coverage_cell(table, tau_db: float, which: str) -> tuple:
    curve = montecarlo.estimate_coverage(table, [tau_db], metric=which)
    return float(curve.probabilities[0]), float(curve.stderr[0])


def _quantile_cell(table, column: str, q: float) -> tuple:
    """The empirical quantile over all trials, unserved ones read as 0, in
    dB for the SINR; a SINR quantile on an unserved trial reads NaN."""
    x = montecarlo.estimate_quantile(table, column, q)
    if column == "sinr":
        x = linear_to_db(x) if x > 0 else math.nan
    return x, math.nan


class _Metric(NamedTuple):
    """One metric's cells: ``mc(table, tau_db) -> (value, stderr)`` on the
    trial table (binned already in a v0 sweep) and the closed form
    ``closed(params, scenario, tau)``, or ``at_v0(params, scenario, v0)`` in
    a v0 sweep, NaN where None.  Each looks its engine up when called."""
    mc: Callable
    closed: Callable | None = None
    at_v0: Callable | None = None
    grid_free: bool = False     # closed reads only the parameters
    assoc_only: bool = False    # mc reads only the association columns


_METRICS = {
    "assoc_prob": _Metric(
        lambda t, _: _pair(montecarlo.estimate_assoc_prob(t, 2)),
        lambda p, sc, _: analytic.assoc_prob(2, p, scenario=sc),
        lambda p, sc, v0: analytic.conditional_assoc_prob(2, v0, p,
                                                          scenario=sc),
        grid_free=True, assoc_only=True),
    "coverage": _Metric(
        lambda t, db: _coverage_cell(t, db, "sinr"),
        lambda p, sc, tau: analytic.coverage(tau, p, spec=_SWEEP_SPEC,
                                             scenario=sc)),
    "snr_coverage": _Metric(lambda t, db: _coverage_cell(t, db, "snr")),
    "edge_sinr": _Metric(lambda t, _: _quantile_cell(t, "sinr", 0.05),
                         lambda p, sc, _: _analytic_percentile(p, sc, 0.95),
                         grid_free=True),
    "median_sinr": _Metric(lambda t, _: _quantile_cell(t, "sinr", 0.5),
                           lambda p, sc, _: _analytic_percentile(p, sc, 0.5),
                           grid_free=True),
    "edge_rate": _Metric(lambda t, _: _quantile_cell(t, "rate", 0.05)),
    "median_rate": _Metric(lambda t, _: _quantile_cell(t, "rate", 0.5)),
    "mean_serving_distance": _Metric(
        lambda t, _: (_pair(montecarlo.estimate_serving_distance(t))
                      if t.served.any() else (math.nan, math.nan)),
        assoc_only=True),
    "avg_rate": _Metric(
        lambda t, _: _pair(montecarlo.estimate_rate(t)),
        lambda p, sc, _: analytic.avg_rate(p, scenario=sc),
        grid_free=True),
}
METRICS = tuple(_METRICS)


# the rule of a v0 bin's analytic average: 16 Gauss-Legendre nodes
_BIN_RULE = np.polynomial.legendre.leggauss(16)


def _v0_bin(v: float, sigma: float):
    """The bin of a v0 sweep's grid point ``v``, which its MC cell reads
    and its analytic cell averages over: the bin's edges in v0, and nodes
    in v0 with weights summing to 1 for the mean of a function of v0 over
    the trials in the bin.

    Below the Rayleigh mode ``sigma`` (sigma_UE), where the density
    vanishes towards v0 = 0, the bin is 0.12 wide in the Rayleigh CDF of
    v0 (the variable the analytic offset average integrates over), and
    the rule is Gauss in that CDF.  At and beyond the mode the bin is
    +-0.1 sigma, which holds the same share at the mode, and the rule is
    Gauss in v0 weighted by the Rayleigh density.  Each bin is centred on
    its grid point."""
    x, w = _BIN_RULE
    if v < sigma:
        mid = -math.expm1(-0.5 * (v / sigma) ** 2)
        lo, hi = max(mid - 0.06, 0.0), mid + 0.06
        t = np.array([lo, hi, *(lo + 0.5 * (hi - lo) * (x + 1.0))])
        lo, hi, *nodes = sigma * np.sqrt(-2.0 * np.log1p(-t))
        return lo, hi, np.array(nodes), 0.5 * w
    lo, hi = v - 0.1 * sigma, v + 0.1 * sigma
    nodes = lo + 0.5 * (hi - lo) * (x + 1.0)
    density = w * nodes * np.exp(-0.5 * (nodes / sigma) ** 2)
    return lo, hi, nodes, density / density.sum()


def _sweep(cfg: RunConfig, mode: str, seed: int, trials: int) -> dict:
    """Each metric's cells in ``sweep_grid`` order, each a dict by column.
    Grid points with equal parameters read one trial table wherever they
    sit, and share the closed forms that do not read the grid value; one
    table is alive at a time."""
    sweep, scenario = cfg.sweep, cfg.sweep.scenario
    v0_sweep = sweep.variable == "v0"
    groups: dict[SystemParams, list] = {}
    for i, value in enumerate(sweep.grid):
        groups.setdefault(_params_at(cfg.params, sweep, value), []).append(i)
    cells = {metric: [None] * len(sweep.grid) for metric in sweep.metrics}
    for params, points in groups.items():
        table = (montecarlo.run_trials(
            params, scenario, trials, seed,
            assoc_only=all(_METRICS[m].assoc_only for m in sweep.metrics))
            if mode != "analytic" else None)
        closed: dict = {}   # analytic cells by metric and the grid value read
        for i in points:
            value, at = sweep.grid[i], table
            tau_db = float(value) if sweep.variable == "tau_db" \
                else sweep.tau_db
            if v0_sweep:
                lo, hi, nodes, weights = _v0_bin(float(value),
                                                 params.sigma_ue_m)
                if table is not None:
                    at = table.select((table.v0 >= lo) & (table.v0 <= hi))
            for metric in sweep.metrics:
                entry, cell = _METRICS[metric], {}
                if at is not None:
                    cell["mc"], cell["mc_stderr"] = (
                        entry.mc(at, tau_db) if len(at) else (math.nan,) * 2)
                if mode != "mc":
                    key = (metric, value if v0_sweep or not entry.grid_free
                           else None)
                    if key not in closed:   # a v0 cell averages its bin
                        form = entry.at_v0 if v0_sweep else entry.closed
                        if form is None:
                            closed[key] = math.nan
                        elif v0_sweep:
                            closed[key] = float(np.dot(weights, [
                                form(params, scenario, v) for v in nodes]))
                        else:
                            closed[key] = form(params, scenario,
                                               10.0 ** (tau_db / 10.0))
                    cell["analytic"] = closed[key]
                if mode == "both":
                    a, m = cell["analytic"], cell["mc"]
                    cell["abs_diff"] = (abs(a - m)
                                        if a == a and m == m else math.nan)
                cells[metric][i] = cell
    return cells


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return f"{x:.9g}"
    return str(x)


_COLUMNS = {"mc": ("mc", "mc_stderr"), "analytic": ("analytic",),
            "both": ("mc", "mc_stderr", "analytic", "abs_diff")}


def _write_csv(out_dir: Path, sweep: SweepSpec, mode: str,
               cells: dict) -> list[Path]:
    paths = []
    columns = _COLUMNS[mode]
    for metric, column in cells.items():
        path = out_dir / f"{metric}.csv"
        lines = [",".join((sweep.variable, *columns))]
        lines += [",".join(map(_fmt, (value, *(cell[c] for c in columns))))
                  for value, cell in zip(sweep.grid, column)]
        path.write_text("\n".join(lines) + "\n", newline="\n")
        paths.append(path)
    return paths


def _render_figures(paths: list[Path], sweep: SweepSpec) -> None:
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return
    for path in paths:
        data = np.genfromtxt(path, delimiter=",", names=True)
        if data.size == 0:
            continue
        names = data.dtype.names
        fig, ax = plt.subplots(figsize=(5, 3.5))
        x = np.atleast_1d(data[names[0]])
        if "mc" in names:
            err = np.atleast_1d(data["mc_stderr"]) if "mc_stderr" in names else None
            ax.errorbar(x, np.atleast_1d(data["mc"]), yerr=err, fmt="o",
                        ms=3, label="simulation")
        if "analytic" in names:
            ax.plot(x, np.atleast_1d(data["analytic"]), "-", label="analysis")
        ax.set_xlabel(sweep.variable)
        ax.set_ylabel(path.stem)
        ax.legend()
        fig.tight_layout()
        fig.savefig(path.with_suffix(".png"), dpi=150)
        plt.close(fig)


def _resolved(cfg: RunConfig) -> list[str]:
    """The resolved sweep and parameters as ``key = value`` lines, in
    config syntax."""
    sweep = cfg.sweep
    return ([f"scenario = {sweep.scenario.value}",
             f"sweep_variable = {sweep.variable}",
             f"sweep_grid = {' '.join(_fmt(g) for g in sweep.grid)}",
             f"metrics = {' '.join(sweep.metrics)}",
             f"tau_db = {_fmt(sweep.tau_db)}"]
            + [f"{key} = {_fmt(val)}"
               for key, val in cfg.params.as_dict().items()])


def _draw_radii(cfg: RunConfig) -> list[str]:
    """The Monte Carlo truncation: the expected interferer count of each
    tier's exact-draw disk, and the disks' radii at each grid point, in
    ``sweep_grid`` order (0 for a tier without BSs)."""
    radii = [exact_draw_radii(link_budgets(
                 _params_at(cfg.params, cfg.sweep, value), cfg.sweep.scenario))
             for value in cfg.sweep.grid]
    return [f"exact_draw_count = {EXACT_DRAW_COUNT}",
            *(f"exact_draw_radius_{tier}_m = "
              f"{' '.join(_fmt(r[k]) for r in radii)}"
              for k, tier in enumerate(("macro", "members")))]


def _write_manifest(out_dir: Path, cfg: RunConfig, mode: str, seed: int,
                    trials: int) -> None:
    import scipy

    from . import __version__
    lines = [f"mode = {mode}", f"seed = {seed}", f"trials = {trials}",
             f"hotnet_version = {__version__}",
             f"numpy_version = {np.__version__}",
             f"scipy_version = {scipy.__version__}",
             *(_draw_radii(cfg) if mode != "analytic" else []),
             *_resolved(cfg)]
    (out_dir / "run_manifest.txt").write_text("\n".join(lines) + "\n",
                                              newline="\n")


def cmd_run(args) -> int:
    try:
        if args.trials < 1:
            raise ConfigError("--trials must be >= 1")
        if args.seed < 0:
            raise ConfigError("--seed must be nonnegative")
        cfg = parse_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for w in cfg.warnings:
        print(f"warning: {w}", file=sys.stderr)

    cells = _sweep(cfg, args.mode, args.seed, args.trials)
    paths = _write_csv(out_dir, cfg.sweep, args.mode, cells)
    _write_manifest(out_dir, cfg, args.mode, args.seed, args.trials)
    if not args.no_figures:
        _render_figures(paths, cfg.sweep)

    nan_cells = sum(math.isnan(cell[key]) for column in cells.values()
                    for cell in column for key in ("mc", "analytic")
                    if key in cell)
    if nan_cells:
        print(f"warning: {nan_cells} metric cells could not be evaluated",
              file=sys.stderr)
        if args.strict:
            return 1
    return 0


def cmd_validate(args) -> int:
    try:
        cfg = parse_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for w in cfg.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print("\n".join(_resolved(cfg)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hotnet",
        description="Coverage/association/rate evaluation of a clustered "
                    "Sub-6GHz/mmWave network, by simulation and by "
                    "closed-form evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a sweep and emit CSV")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--mode", choices=("mc", "analytic", "both"),
                       default="both")
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--trials", type=int, default=100_000)
    p_run.add_argument("--strict", action="store_true",
                       help="nonzero exit when any metric cell fails")
    p_run.add_argument("--no-figures", action="store_true",
                       help="skip PNG rendering next to the CSVs")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="parse a config and echo the "
                                            "resolved parameters")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=cmd_validate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
