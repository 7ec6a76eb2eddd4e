"""Tier-1 gate: the full suite, no worse than the known state.

Runs the Tier-1 command (the whole suite, collection errors reported, not
fatal) with a JUnit report and a list of its 15 slowest tests, and exits 0
only if the tests that fail are exactly the three acceptance tests that
fail by design and no test errors.
A by-design failure that starts to pass also fails the gate, so that the
list here is mended with it.  Nothing is skipped, deselected or xfailed
beyond what the suite itself marks.

    python3 tests/tier1_gate.py

The name keeps pytest from collecting this file.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# model gaps at the defaults, not bugs: both engines agree on the values
BY_DESIGN = {
    "tests.test_acceptance::test_integrated_coverage_level_at_zero_db",
    "tests.test_acceptance::test_two_tier_coverage_level_at_zero_db",
    "tests.test_acceptance::test_mm_share_saturation_at_high_bias",
}


def outcomes(report: Path) -> tuple[set[str], set[str], int]:
    """The failed and the errored test ids of a JUnit report, and the
    number of test cases in it."""
    failed, errored, cases = set(), set(), 0
    for case in ET.parse(report).iter("testcase"):
        cases += 1
        name = f"{case.get('classname')}::{case.get('name')}"
        if case.find("failure") is not None:
            failed.add(name)
        if case.find("error") is not None:
            errored.add(name)
    return failed, errored, cases


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        code = subprocess.call(
            [sys.executable, "-m", "pytest", "-q", "--durations=15",
             "--continue-on-collection-errors", f"--junitxml={report}"],
            cwd=ROOT, env=env)
        if code not in (0, 1) or not report.exists():
            print(f"tier1 gate: pytest exited {code} without a full run")
            return 1
        failed, errored, cases = outcomes(report)
    problems = [f"unexpected failure: {name}"
                for name in sorted(failed - BY_DESIGN)]
    problems += [f"by-design failure now passes: {name}"
                 for name in sorted(BY_DESIGN - failed)]
    problems += [f"error: {name}" for name in sorted(errored)]
    for line in problems:
        print(f"tier1 gate: {line}")
    print(f"tier1 gate: {cases} test cases, {len(failed)} failed, "
          f"{len(errored)} errored: {'FAIL' if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
