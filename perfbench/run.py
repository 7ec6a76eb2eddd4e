"""hotnet benchmark: Monte Carlo throughput, analytic latency, CLI sweep.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload mc_full --seed 1 --seconds 20 --trace 0

Workloads (see README.md in this directory for why each exists):

- ``mc_full``: full trials of deployments (a) and (d) plus a large
  ``assoc_only`` batch, in rounds with fresh seed-derived streams.
- ``analytic_fixed``: the analytic (a) and (d) coverage curves over
  -10..20 dB and ``avg_rate``, at the defaults, in repeated passes.
- ``eta_sweep``: ``hotnet.cli.main`` run in-process on a generated eta
  sweep config whose grid is jittered from the seed.

With ``--trace 0`` the run repeats rounds of the workload for ``--seconds``
(three at least), times each operation of a round, and reports the
end-to-end metrics of ``BENCHMARK.json``: ``work_s`` is the sum over a
round's operations of each one's median time over the rounds.  With
``--trace 1`` it runs one fixed round with every library layer wrapped,
then the same amount of work untraced, and reports the per-layer metrics.
Every output is checked; the last stdout line is the result object.
"""

from __future__ import annotations

import os
import sys

# The BLAS thread cap has to be in the environment before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# The CLI would otherwise fan grid points out to worker processes.
os.environ.pop("HOTNET_WORKERS", None)

import argparse  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import zlib  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from layertrace import END, START, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("mc_full", "analytic_fixed", "eta_sweep")
MIN_ROUNDS = 3          # fewest rounds a median is taken over
SETUP_REPEATS = 3       # fresh interpreters per run for setup_s

MC_TRIALS = 1000        # full trials per deployment per round
ASSOC_TRIALS = 500_000  # assoc_only trials per round
TARGET_STDERR = 0.005   # coverage accuracy of mc_a_s_to_target

ETA_BASE = (0.4, 0.7, 1.0, 1.3)
ETA_JITTER = 0.05
SWEEP_TRIALS = 1000

REF_KERNEL_S = 0.01     # nominal seconds of one reference_kernel() call
KERNEL_REPEATS = 3      # kernel calls before and after each timed operation

SETUP_CODE = ("import sys; sys.path.insert(0, {src!r})\n"
              "import hotnet.analytic, hotnet.montecarlo, hotnet.cli\n"
              "from hotnet.params import SystemParams\n"
              "SystemParams()\n")


def import_program():
    """Import hotnet from this checkout's ``src``; exit 2 if it is absent."""
    if not (SRC / "hotnet" / "__init__.py").is_file():
        print(f"error: no hotnet sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import hotnet
    if Path(hotnet.__file__).resolve().parent != SRC / "hotnet":
        print(f"error: imported hotnet from {hotnet.__file__}",
              file=sys.stderr)
        raise SystemExit(2)


def derive_seed(seed: int, *keys: int) -> int:
    """Seed handed to the program: a hash of the benchmark seed and keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def workload_key(name: str) -> int:
    return zlib.crc32(name.encode())


class Checks:
    """Counts checked outputs ("ops") and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


def within(value: float, ref: float, stderr: float) -> bool:
    """Monte Carlo value within 4 standard errors + 0.01 of the reference."""
    return abs(value - ref) <= 4.0 * stderr + 0.01


_KERNEL_SMALL = np.linspace(0.01, 1.0, 15)
_KERNEL_LARGE = np.linspace(0.01, 1.0, 20_000)


def reference_kernel() -> float:
    """Seconds for a fixed computation that never touches hotnet: scalar
    Python arithmetic, many 15-element numpy calls (one quadrature panel)
    and a few 20k-element ones, the mix the workloads run."""
    t0 = perf_counter()
    s = 0.0
    for i in range(6000):
        s += math.exp(-i * 1e-4) * math.sqrt(i + 1.0)
    for _ in range(800):
        s += float(np.sum(np.exp(-_KERNEL_SMALL) * _KERNEL_SMALL ** 1.5))
    for _ in range(20):
        s += float(np.sum(np.sin(_KERNEL_LARGE) * np.exp(-_KERNEL_LARGE)))
    return perf_counter() - t0


def timed(fn, *args, **kwargs):
    """Returns ``fn(*args, **kwargs)`` and ``(seconds, reference seconds)``.

    The speed of a shared host drifts by 10-20% within seconds, so the
    reference kernel is timed just before and just after the call, and the
    call's time is also given scaled by ``REF_KERNEL_S`` over the median
    kernel time: the time the call would take on a host where the kernel
    takes ``REF_KERNEL_S``.
    """
    kernel = [reference_kernel() for _ in range(KERNEL_REPEATS)]
    t0 = perf_counter()
    result = fn(*args, **kwargs)
    seconds = perf_counter() - t0
    kernel += [reference_kernel() for _ in range(KERNEL_REPEATS)]
    ref_seconds = seconds * REF_KERNEL_S / statistics.median(kernel)
    return result, (seconds, ref_seconds)


# ---------------------------------------------------------------------------
# workloads: ``round(r)`` does one fixed unit of work, checks it, and
# returns the time of each of its operations
# ---------------------------------------------------------------------------

class McFull:
    # traced run: a warm-up round on another stream, then the traced round
    # 0, then round 0 again untraced
    WARMUP_ROUND, UNTRACED_ROUND = 1, 0

    def __init__(self, seed: int, ref: dict, checks: Checks) -> None:
        from hotnet.params import ScenarioKind, SystemParams
        self.params = SystemParams()
        self.seed = seed
        self.ref = ref
        self.checks = checks
        self.tau_db = ref["tau_db"]
        self.cases = (("a", ScenarioKind.INTEGRATED, ref["coverage_a"]),
                      ("d", ScenarioKind.TWO_TIER_SUB6, ref["coverage_d"]))
        self.integrated = ScenarioKind.INTEGRATED

    def round(self, r: int) -> dict:
        from hotnet import montecarlo
        stream = derive_seed(self.seed, workload_key("mc_full"), r)
        times = {}

        def batch(scenario):
            table = montecarlo.run_trials(self.params, scenario, MC_TRIALS,
                                          stream)
            return montecarlo.estimate_coverage(table, self.tau_db)

        for key, scenario, ref in self.cases:
            curve, times[key] = timed(batch, scenario)
            bad = [t for t, p, e, q in zip(self.tau_db, curve.probabilities,
                                           curve.stderr, ref)
                   if not within(p, q, e)]
            self.checks.check(not bad, f"mc ({key}) seed {stream}: coverage "
                                       f"off the reference at {bad} dB")
            if key == "a":
                stderr0 = float(curve.stderr[self.tau_db.index(0.0)])

        def assoc_batch():
            table = montecarlo.run_trials(self.params, self.integrated,
                                          ASSOC_TRIALS, stream,
                                          assoc_only=True)
            return montecarlo.estimate_assoc_prob(table, 2)

        est, times["assoc"] = timed(assoc_batch)
        self.checks.check(
            within(est.value, self.ref["assoc_prob_mm"], est.stderr),
            f"assoc_only seed {stream}: mmWave share {est.value}")
        return {"times": times, "a_stderr0": stderr0}

    @staticmethod
    def detail(op_s: dict, rounds: list[dict]) -> dict:
        stderr0 = statistics.median(r["a_stderr0"] for r in rounds)
        return {
            "mc_a_trials_per_s": (MC_TRIALS / op_s["a"], "1/s"),
            "mc_d_trials_per_s": (MC_TRIALS / op_s["d"], "1/s"),
            "mc_assoc_trials_per_s": (ASSOC_TRIALS / op_s["assoc"], "1/s"),
            "mc_a_s_to_target": (
                op_s["a"] * (stderr0 / TARGET_STDERR) ** 2, "s"),
        }


class AnalyticFixed:
    # no warm-up: the traced pass must make the first call on the
    # parameters; the untraced pass then reuses the Laplace splines
    WARMUP_ROUND, UNTRACED_ROUND = None, 0

    def __init__(self, seed: int, ref: dict, checks: Checks) -> None:
        from hotnet.params import SystemParams
        self.params = SystemParams()   # the seed changes nothing here
        self.ref = ref
        self.checks = checks

    def round(self, r: int) -> dict:
        from hotnet import analytic
        times = {}
        for key, fn in (("a", analytic.coverage),
                        ("d", analytic.coverage_two_tier_sub6)):
            for tau_db, ref in zip(self.ref["tau_db"],
                                   self.ref[f"coverage_{key}"]):
                value, times[f"{key}@{tau_db:g}"] = timed(
                    fn, 10.0 ** (tau_db / 10.0), self.params)
                self.checks.check(abs(value - ref) <= 2e-5,
                                  f"analytic ({key}) at {tau_db} dB: {value}")
        rate, times["rate"] = timed(analytic.avg_rate, self.params)
        ref = self.ref["avg_rate_bps"]
        self.checks.check(abs(rate - ref) <= 2e-3 * ref,
                          f"analytic avg_rate: {rate}")
        return {"times": times}

    @staticmethod
    def detail(op_s: dict, rounds: list[dict]) -> dict:
        def curve(key):
            return sum(v for k, v in op_s.items() if k.startswith(key + "@"))
        return {"analytic_curve_a_s": (curve("a"), "s"),
                "analytic_curve_d_s": (curve("d"), "s"),
                "analytic_rate_s": (op_s["rate"], "s")}


class EtaSweep:
    # every round has its own grid, so each one misses the analytic cache
    WARMUP_ROUND, UNTRACED_ROUND = 1, 2

    def __init__(self, seed: int, ref: dict, checks: Checks) -> None:
        self.seed = seed
        self.checks = checks

    def grid(self, r: int) -> list[float]:
        rng = np.random.default_rng([self.seed, workload_key("eta_sweep"), r])
        return [round(b + rng.uniform(-ETA_JITTER, ETA_JITTER), 4)
                for b in ETA_BASE]

    def round(self, r: int) -> dict:
        from hotnet import cli
        grid = self.grid(r)
        cli_seed = derive_seed(self.seed, workload_key("eta_sweep"), r)
        csv_bytes = 0
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            cfg = Path(tmp) / "eta.cfg"
            cfg.write_text("scenario = a\n"
                           "sweep_variable = eta\n"
                           f"sweep_grid = {', '.join(map(str, grid))}\n"
                           "metrics = assoc_prob, coverage\n"
                           "tau_db = 0\n"
                           "bias2_db = 0\n")
            argv = ["run", "--config", str(cfg), "--mode", "both",
                    "--out", tmp, "--seed", str(cli_seed),
                    "--trials", str(SWEEP_TRIALS), "--no-figures"]
            code, elapsed = timed(cli.main, argv)
            self.checks.check(code == 0, f"cli exit code {code}")
            for metric in ("assoc_prob", "coverage"):
                path = Path(tmp) / f"{metric}.csv"
                csv_bytes += path.stat().st_size
                self.check_csv(path, grid, f"{metric} seed {cli_seed}")
        return {"times": {"sweep": elapsed}, "csv_bytes": csv_bytes}

    def check_csv(self, path: Path, grid: list[float], what: str) -> None:
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        self.checks.check(
            header == ["eta", "mc", "mc_stderr", "analytic", "abs_diff"]
            and len(lines) == len(grid) + 1, f"{what}: table shape")
        for eta, line in zip(grid, lines[1:]):
            row = dict(zip(header, map(float, line.split(","))))
            for col, value in row.items():
                ok = math.isfinite(value)
                if col == "eta":
                    ok = ok and abs(value - eta) <= 1e-9
                elif col == "abs_diff":
                    ok = ok and value <= 4.0 * row["mc_stderr"] + 0.01
                self.checks.check(ok, f"{what}: eta {eta} {col} = {value}")

    @staticmethod
    def detail(op_s: dict, rounds: list[dict]) -> dict:
        return {"sweep_s": (op_s["sweep"], "s")}


WORKLOAD_CLASSES = {"mc_full": McFull, "analytic_fixed": AnalyticFixed,
                    "eta_sweep": EtaSweep}


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------

def measure_setup() -> float:
    """Median wall time of a fresh interpreter that imports the library
    and builds a parameter record."""
    code = SETUP_CODE.format(src=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       timeout=120, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run_end_to_end(work, seconds: float) -> tuple[dict, dict, dict]:
    setup_s = measure_setup()
    rounds = []
    t_end = perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or perf_counter() < t_end:
        rounds.append(work.round(len(rounds)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = {op: [r["times"][op] for r in rounds]
               for op in rounds[0]["times"]}
    op_s = {op: statistics.median(s for s, _ in v)
            for op, v in samples.items()}
    op_ref_s = {op: statistics.median(ref for _, ref in v)
                for op, v in samples.items()}
    metrics = {"work_ref_s": sum(op_ref_s.values()), "setup_s": setup_s,
               "peak_rss_mb": peak_rss_mb}
    detail = {"rounds": (len(rounds), "count"),
              "work_s": (sum(op_s.values()), "s"), "setup_s": (setup_s, "s"),
              "peak_rss_mb": (peak_rss_mb, "MB"),
              **work.detail(op_s, rounds)}
    return metrics, detail, samples


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def install_layers(tracer: Tracer) -> dict:
    """Wrap the public functions of each layer; returns shared state the
    counters fill in."""
    from hotnet import (analytic, association, channel, cli, geometry,
                        montecarlo, quadrature)
    state = {"seen_params": set(), "first_spans": []}

    def on_trials(t, i, args, kwargs, table):
        t.counters["montecarlo.run_trials.trials"] += len(table)
        t.counters["montecarlo.unserved"] += int(np.sum(~table.served))

    def points(name):
        def on_points(t, i, args, kwargs, result):
            n = result.count if hasattr(result, "count") else len(result)
            t.counters[f"{name}.points"] += n
        return on_points

    def on_integration(t, i, args, kwargs, res):
        t.counters["quadrature.integrate_adaptive.evaluations"] += \
            res.evaluations
        t.counters["quadrature.integrate_adaptive.unconverged"] += \
            not res.converged

    def on_coverage(t, i, args, kwargs, value):
        params = args[1] if len(args) > 1 else kwargs["params"]
        if params not in state["seen_params"]:
            state["seen_params"].add(params)
            state["first_spans"].append(i)

    tracer.install("montecarlo.run_trials", montecarlo.run_trials, on_trials)
    tracer.install("montecarlo.estimate_coverage",
                   montecarlo.estimate_coverage)
    for name in ("sample_ppp", "sample_thomas_cluster"):
        tracer.install(f"geometry.{name}", getattr(geometry, name),
                       points(f"geometry.{name}"))
    for name in ("sample_typical_offset", "sample_network"):
        tracer.install(f"geometry.{name}", getattr(geometry, name))
    for name in ("biased_metric", "associate"):
        tracer.install(f"association.{name}", getattr(association, name))
    tracer.install("quadrature.integrate_adaptive",
                   quadrature.integrate_adaptive, on_integration)
    tracer.install("quadrature.integrate_semi_infinite",
                   quadrature.integrate_semi_infinite)
    tracer.install("analytic.coverage", analytic.coverage, on_coverage)
    for name in ("coverage_two_tier_sub6", "avg_rate", "assoc_prob",
                 "conditional_assoc_prob"):
        tracer.install(f"analytic.{name}", getattr(analytic, name))
    tracer.install("cli.main", cli.main)
    for name, fn in vars(channel).copy().items():
        if inspect.isfunction(fn) and fn.__module__ == channel.__name__:
            tracer.install(f"channel.{name}", fn)
    return state


def run_traced(work, workload: str, seed: int) -> dict:
    if work.WARMUP_ROUND is not None:
        work.round(work.WARMUP_ROUND)
    tracer = Tracer()
    state = install_layers(tracer)
    try:
        t0 = perf_counter()
        traced = work.round(0)
        traced_s = perf_counter() - t0
    finally:
        tracer.uninstall()
    values = tracer.summary()
    t0 = perf_counter()
    work.round(work.UNTRACED_ROUND)
    untraced_s = perf_counter() - t0

    spans = tracer.spans
    firsts = [spans[i][END] - spans[i][START] for i in state["first_spans"]]
    values["analytic.coverage.first_s"] = (statistics.mean(firsts)
                                           if firsts else 0.0)
    values["channel.calls"] = sum(v for k, v in values.items()
                                  if k.startswith("channel.")
                                  and k.endswith(".calls"))
    values["cli.csv_bytes"] = traced.get("csv_bytes", 0)
    values["trace.spans"] = len(spans)
    values["trace.traced_s"] = traced_s
    values["trace.untraced_s"] = untraced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.json")
    return values


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def machine_context() -> dict:
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": BLAS_THREADS,
            "hotnet_workers": os.environ.get("HOTNET_WORKERS", "unset")}


def result_metrics(values: dict, specs: list[dict], default=None) -> dict:
    """Metric objects in ``BENCHMARK.json`` order; a metric without a value
    is an error unless a ``default`` (an idle layer's zero) is given."""
    return {s["name"]: {"value": float(values[s["name"]] if default is None
                                       else values.get(s["name"], default)),
                        "unit": s["unit"]} for s in specs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=str(HERE / "reference.json"),
                        help="pinned reference values to check against")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ref = json.loads(Path(args.reference).read_text())
    import_program()
    checks = Checks()
    work = WORKLOAD_CLASSES[args.workload](args.seed, ref, checks)
    context = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, **machine_context()}
    print("context " + json.dumps(context), flush=True)

    if args.trace:
        values = run_traced(work, args.workload, args.seed)
        metrics = result_metrics(values, spec["per_layer"], default=0.0)
    else:
        values, detail, samples = run_end_to_end(work, args.seconds)
        print("samples " + json.dumps(samples), flush=True)
        print("detail " + json.dumps(
            {k: {"value": v, "unit": u} for k, (v, u) in detail.items()}),
            flush=True)
        metrics = result_metrics(values, spec["end_to_end"])

    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"correct": checks.failed == 0 and checks.attempted > 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
