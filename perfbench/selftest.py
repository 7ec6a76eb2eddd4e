"""Self-tests of the benchmark harness (about two minutes on two cores).

    python3 perfbench/selftest.py

They run ``perfbench/run.py`` as a subprocess, as the benchmark is meant
to be run, and check what it reports rather than how fast anything is.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# counts the program produces; deterministic for a given seed
COUNT_SUFFIXES = (".calls", ".points", ".evaluations", ".unconverged",
                  ".trials", "montecarlo.unserved", "cli.csv_bytes")

_traced: dict[tuple[str, int], dict] = {}


def run(workload: str, seed: int, trace: int, *extra: str,
        cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         *extra], cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced(workload: str, seed: int) -> dict:
    if (workload, seed) not in _traced:
        _traced[workload, seed] = result(run(workload, seed, 1))
    return _traced[workload, seed]


def counts(res: dict) -> dict:
    return {k: v["value"] for k, v in res["metrics"].items()
            if k.endswith(COUNT_SUFFIXES)}


class TracedCounts(unittest.TestCase):
    def test_same_seed_same_counts(self):
        first = traced("eta_sweep", 1)
        again = result(run("eta_sweep", 1, 1))
        self.assertTrue(first["correct"])
        self.assertEqual(counts(first), counts(again))
        c = counts(first)
        self.assertGreater(c["quadrature.integrate_adaptive.evaluations"], 0)
        self.assertGreater(c["geometry.sample_ppp.points"], 0)
        self.assertGreater(c["cli.csv_bytes"], 0)

    def test_seed_moves_mc_counts_only(self):
        mc1, mc2 = traced("mc_full", 1), traced("mc_full", 2)
        self.assertNotEqual(counts(mc1)["geometry.sample_ppp.points"],
                            counts(mc2)["geometry.sample_ppp.points"])
        an1, an2 = traced("analytic_fixed", 1), traced("analytic_fixed", 2)
        self.assertEqual(counts(an1), counts(an2))
        self.assertGreater(
            counts(an1)["quadrature.integrate_adaptive.evaluations"], 0)

    def test_idle_layers_report_zero_calls(self):
        c = counts(traced("mc_full", 1))
        for name in ("channel.calls", "geometry.sample_network.calls",
                     "association.associate.calls",
                     "quadrature.integrate_adaptive.calls"):
            self.assertEqual(c[name], 0, name)
        self.assertEqual(c["montecarlo.run_trials.calls"], 3)


class Checks(unittest.TestCase):
    def test_wrong_reference_is_a_failed_op(self):
        ref = json.loads((HERE / "reference.json").read_text())
        ref["coverage_a"][2] += 0.2
        OUT.mkdir(exist_ok=True)
        with tempfile.NamedTemporaryFile("w", suffix=".json", dir=OUT,
                                         delete=False) as fh:
            json.dump(ref, fh)
        try:
            res = result(run("mc_full", 1, 1, "--reference", fh.name))
        finally:
            Path(fh.name).unlink()
        self.assertFalse(res["correct"])
        # warm-up, traced and untraced round: one (a) batch each
        self.assertEqual(res["failed"], 3)
        self.assertGreater(res["attempted"], res["failed"])

    def test_metrics_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in spec["per_layer"]]
        self.assertEqual(list(traced("mc_full", 1)["metrics"]), names)
        self.assertIn("setup_s", [m["name"] for m in spec["end_to_end"]])

    def test_fails_without_the_program(self):
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
            proc = run("mc_full", 1, 0, cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
