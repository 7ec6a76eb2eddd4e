"""Print one JSON line that maps each family of results to a sha256, so
that a change which claims to leave every number bit for bit unchanged
can be checked against its parent.

Usage, from anywhere:

    python3 tools/identity.py

It imports the ``hotnet`` package of the tree it sits in (the ``src/``
beside this ``tools/``), so to compare a change with its parent, run it
in both trees and compare the two lines:

    mkdir parent && git archive <rev> | tar -x -C parent
    python3 parent/tools/identity.py > parent.json
    python3 tools/identity.py > change.json
    cmp parent.json change.json

A parent older than this script gets a copy of it in its ``tools/``.

The analytic families hash the ``repr`` of each value or
``AnalyticReport`` (exact for floats), in one fixed order from a fresh
process, so warm and cold Laplace caches fall the same way in both trees.
The Monte Carlo families hash every column of ``run_trials`` tables of
deployments (a)-(d) at two seeds, full and ``assoc_only``.  The whole run
takes a few seconds.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hotnet import analytic, montecarlo  # noqa: E402
from hotnet.params import (ScenarioKind, SystemParams,  # noqa: E402
                           db_to_linear)

P = SystemParams()
TAUS_DB = (-10.0, 0.0, 10.0, 20.0, 40.0)
# parameter points away from the defaults, where other integration and
# drawing paths run: a wide cluster, a LoS ball that holds the cluster,
# one BS per hotspot, no BS per hotspot and all-LoS or all-NLoS links
VARIANTS = {"sigma_bs_225m": P.replace(sigma_bs_m=225.0),
            "ball_1500m": P.replace(r_los_ball_m=1500.0),
            "n_bs_1": P.replace(n_bs=1),
            "p_los_1": P.replace(p_los=1.0)}
MC_SETTINGS = {"defaults": P,
               "p_los_0": P.replace(p_los=0.0),
               "p_los_1": VARIANTS["p_los_1"],
               "n_bs_0": P.replace(n_bs=0),
               "n_bs_1": VARIANTS["n_bs_1"],
               "ball_1500m": VARIANTS["ball_1500m"]}
MC_TRIALS = 3000
MC_SEEDS = (7, 8)


def _coverages(params: SystemParams, scenario=ScenarioKind.INTEGRATED):
    return [((scenario.value, db), analytic.coverage(
        db_to_linear(db), params, with_report=True, scenario=scenario))
        for db in TAUS_DB]


def _tables(params: SystemParams, assoc_only: bool):
    for scenario in ScenarioKind:
        for seed in MC_SEEDS:
            table = montecarlo.run_trials(params, scenario, MC_TRIALS, seed,
                                          assoc_only=assoc_only)
            for column in fields(table):
                yield ((scenario.value, seed, column.name),
                       getattr(table, column.name))


def _bounds():
    for db in TAUS_DB:
        tau = db_to_linear(db)
        yield ("no_nlos", db), analytic.coverage_no_nlos(tau, P)
        yield ("two_tier_sub6", db), analytic.coverage_two_tier_sub6(tau, P)


# family name -> the (label, value) items it hashes, computed on demand
FAMILIES = {
    "analytic.coverage": lambda: [item for scenario in ScenarioKind
                                  for item in _coverages(P, scenario)],
    "analytic.avg_rate": lambda: [
        (scenario.value, analytic.avg_rate(P, scenario=scenario))
        for scenario in ScenarioKind],
    "analytic.assoc": lambda: [
        ("assoc_prob", analytic.assoc_prob(2, P, with_report=True)),
        ("conditional_120m", analytic.conditional_assoc_prob(2, 120.0, P))],
    "analytic.bounds": _bounds,
    "analytic.variants": lambda: [((name, db), report)
                                  for name, params in VARIANTS.items()
                                  for (_, db), report in _coverages(params)],
    **{f"mc.{name}.{mode}": partial(_tables, params, mode == "assoc_only")
       for name, params in MC_SETTINGS.items()
       for mode in ("full", "assoc_only")},
}


def digest(items) -> str:
    """sha256 of (label, value) items: arrays by dtype and bytes, every
    other value by its ``repr``."""
    h = hashlib.sha256()
    for label, value in items:
        h.update(repr(label).encode())
        if isinstance(value, np.ndarray):
            h.update(value.dtype.str.encode() + value.tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def main() -> int:
    print(json.dumps({name: digest(items())
                      for name, items in FAMILIES.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
