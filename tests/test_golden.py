"""The CLI outputs of the shipped configs against their committed copies.

``tests/golden/<config>/`` holds the CSVs and ``run_manifest.txt`` that
``hotnet run --mode both --seed 3 --trials 2000`` writes for
``configs/<config>.cfg``.  Only a program change that moves a number may
re-pin them, in the same change, from the repository root:

    for c in configs/*.cfg; do PYTHONPATH=src python3 -m hotnet.cli run \\
        --config "$c" --mode both --seed 3 --trials 2000 --no-figures \\
        --out "tests/golden/$(basename "$c" .cfg)"; done
"""

import math
from pathlib import Path

import pytest

from hotnet.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))
# a closed-form cell may move in its last printed digit (9 significant
# digits) on rounding alone; the MC cells and the manifest are exact
CLOSED_FORM = ("analytic", "abs_diff")
VERSIONS = ("hotnet_version", "numpy_version", "scipy_version")


def _rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()]


def _manifest(path: Path) -> list[str]:
    return [line for line in path.read_text().splitlines()
            if not line.startswith(VERSIONS)]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_cli_outputs_match_golden(tmp_path, config):
    want = GOLDEN / config.stem
    assert main(["run", "--config", str(config), "--mode", "both",
                 "--seed", "3", "--trials", "2000", "--no-figures",
                 "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted(p.name for p in want.iterdir())
    assert _manifest(tmp_path / "run_manifest.txt") == \
        _manifest(want / "run_manifest.txt")
    for csv in want.glob("*.csv"):
        got, pinned = _rows(tmp_path / csv.name), _rows(csv)
        assert got[0] == pinned[0] and len(got) == len(pinned), csv.name
        for row, pinned_row in zip(got[1:], pinned[1:]):
            for column, cell, pin in zip(pinned[0], row, pinned_row,
                                         strict=True):
                assert cell == pin or (
                    column in CLOSED_FORM
                    and math.isclose(float(cell), float(pin), rel_tol=1e-8)
                ), (csv.name, column, row[0], cell, pin)
