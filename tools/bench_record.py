"""Record a parent/change benchmark comparison as ``BENCH_<PR>.json``.

Usage, from the root of a source checkout:

    python3 tools/bench_record.py --parent <rev> --out BENCH_<PR>.json \
        [--pairs 10] [--seconds 6] [--seed 801] [--workload mc_full ...]

The change is this checkout's working tree; the parent is ``<rev>``,
exported with ``git archive`` into a temporary directory.  Each tree runs
its own ``perfbench/run.py`` (the script records whether the two
harnesses are identical).  For every workload, pair ``i`` runs both trees
at seed ``--seed + i`` with ``--seconds`` and ``--trace 0``, the parent
first in even pairs and the change first in odd ones.

The JSON holds, for each workload and end-to-end metric of
``BENCHMARK.json``, each tree's median and quartiles, every pair's
values and the pairs the change won; every run's ``correct`` flag, failed
ops and failed checks; the CPU count and the Python, numpy and scipy
versions; and the command line.  A run that reads ``correct: false`` or
prints no result is recorded as it is and never run again.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mc_full", "analytic_fixed", "eta_sweep")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> str:
    """Writes the files of commit ``rev`` under ``dest``; returns its hash."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {sha} failed")
    return sha


def harness(tree: Path) -> dict[str, bytes]:
    """The benchmark's files of a tree, by their path inside it."""
    files = sorted((tree / "perfbench").glob("*.py"))
    files += [tree / "perfbench" / "reference.json", tree / "BENCHMARK.json"]
    return {str(f.relative_to(tree)): f.read_bytes() for f in files}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run of ``tree``: its result object, with the
    failed checks it printed, or the exit code and stderr of a run that
    printed none."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": 0, "failed": None,
                "metrics": {}, "returncode": proc.returncode,
                "stderr": proc.stderr[-2000:]}
    result["checks_failed"] = [line for line in proc.stderr.splitlines()
                               if line.startswith("check failed")]
    return result


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of ``values``."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], specs: list[dict]) -> dict:
    """Per end-to-end metric: both trees' spreads, each pair's values and
    the pairs the change won (ties count for neither side)."""
    out = {}
    for spec in specs:
        name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        pairs = [(p["metrics"].get(name, {}).get("value"),
                  c["metrics"].get(name, {}).get("value"))
                 for p, c in zip(runs[0::2], runs[1::2])]
        pairs = [pair for pair in pairs if None not in pair]
        if not pairs:
            out[name] = {"unit": spec["unit"], "pairs": []}
            continue
        parent, change = zip(*pairs)
        out[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "parent": spread(list(parent)), "change": spread(list(change)),
            "pairs": [{"parent": p, "change": c} for p, c in pairs],
            "change_won": sum(sign * (p - c) > 0 for p, c in pairs),
            "parent_won": sum(sign * (c - p) > 0 for p, c in pairs),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="commit to compare the working tree against")
    parser.add_argument("--out", required=True, type=Path,
                        help="JSON file to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--seed", type=int, default=801,
                        help="seed of the first pair; pair i runs at seed+i")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    import numpy
    import scipy
    record = {
        "command": [Path(sys.executable).name, *sys.argv],
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__},
        "pairs": args.pairs, "seconds": args.seconds,
        "seeds": [args.seed + i for i in range(args.pairs)],
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent = Path(tmp)
        record["trees"] = {
            "parent": {"rev": args.parent, "commit": export(args.parent,
                                                            parent)},
            "change": {"rev": "working tree", "commit": git("rev-parse",
                                                            "HEAD"),
                       "uncommitted": bool(git("status", "--porcelain"))},
        }
        record["harness_identical"] = harness(parent) == harness(ROOT)
        trees = {"parent": parent, "change": ROOT}
        for workload in args.workload or WORKLOADS:
            runs = []   # parent, change, parent, change, ...
            for i, seed in enumerate(record["seeds"]):
                order = ("parent", "change") if i % 2 == 0 else ("change",
                                                                 "parent")
                pair = {}
                for side in order:
                    pair[side] = run_once(trees[side], workload, seed,
                                          args.seconds)
                    pair[side].update(tree=side, seed=seed,
                                      first=side == order[0])
                    print(f"{workload} seed {seed} {side}: correct "
                          f"{pair[side]['correct']}", file=sys.stderr,
                          flush=True)
                runs += [pair["parent"], pair["change"]]
            record["workloads"][workload] = {
                "metrics": summarize(runs, specs),
                "incorrect_runs": {side: sum(not r["correct"] for r in runs
                                             if r["tree"] == side)
                                   for side in trees},
                "runs": runs,
            }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
