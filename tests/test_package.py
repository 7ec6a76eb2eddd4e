"""The package carries no code that only the tests call."""

import ast
from pathlib import Path

import hotnet

PACKAGE = Path(hotnet.__file__).resolve().parent

# Public definitions that nothing in the package references, each kept
# for a caller outside it.
UNREFERENCED = {
    "analytic.conditional_distance_pdf": "acceptance API",
    "analytic.coverage_no_nlos": "acceptance API",
    "analytic.j_factor": "acceptance API",
    "analytic.laplace_I1": "acceptance API",
    "analytic.laplace_I2_inter": "acceptance API",
    "analytic.laplace_I2_intra": "acceptance API",
    "association.associate": "perfbench traces it",
    "geometry.sample_network": "perfbench traces it",
    "montecarlo.conditional_metrics": "acceptance API",
}


def _unreferenced() -> set[str]:
    """Public module-level functions and classes of the package whose name
    no expression in the package reads (an import alone does not count)."""
    defined, read = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined |= {f"{path.stem}.{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return {name for name in defined if name.split(".")[1] not in read}


def test_every_public_definition_is_used_or_allowlisted():
    found = _unreferenced()
    unused = sorted(found - UNREFERENCED.keys())
    stale = sorted(UNREFERENCED.keys() - found)
    assert not unused, f"nothing in the package uses {unused}: use them " \
        f"in the engine or delete them"
    assert not stale, f"allowlisted but now used or gone: {stale}"
