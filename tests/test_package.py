"""The package carries no code that only the tests call."""

import ast
import dataclasses
from pathlib import Path

import hotnet
from hotnet.params import SystemParams

PACKAGE = Path(hotnet.__file__).resolve().parent

# Public definitions that nothing in the package references, each kept
# for a caller outside it.
UNREFERENCED = {
    "analytic.conditional_distance_pdf": "acceptance API",
    "analytic.coverage_no_nlos": "acceptance API",
    "analytic.coverage_two_tier_sub6": "perfbench calls it",
    "association.associate": "perfbench traces it",
    "geometry.sample_network": "perfbench traces it",
    "quadrature.integrate_semi_infinite": "perfbench traces it; public API",
}


def _public(body) -> list:
    return [node for node in body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _assigned(body) -> list[str]:
    """Public names that the assignments of ``body`` bind."""
    targets = [target for node in body if isinstance(node, ast.Assign)
               for target in node.targets]
    targets += [node.target for node in body
                if isinstance(node, ast.AnnAssign)]
    return [target.id for target in targets
            if isinstance(target, ast.Name) and not target.id.startswith("_")]


def _unreferenced() -> set[str]:
    """Public module-level functions, classes and assigned names of the
    package, and the public methods and properties of its classes, private
    ones included, whose name no expression in the package reads (an
    import or an assignment alone does not count)."""
    defined, read = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined |= {f"{path.stem}.{name}" for name in _assigned(tree.body)}
        defined |= {f"{path.stem}.{node.name}" for node in _public(tree.body)}
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defined |= {f"{path.stem}.{node.name}.{member.name}"
                            for member in _public(node.body)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return {name for name in defined if name.rsplit(".", 1)[1] not in read}


def test_every_public_definition_is_used_or_allowlisted():
    found = _unreferenced()
    unused = sorted(found - UNREFERENCED.keys())
    stale = sorted(UNREFERENCED.keys() - found)
    assert not unused, f"nothing in the package uses {unused}: use them " \
        f"in the engine or delete them"
    assert not stale, f"allowlisted but now used or gone: {stale}"


# The only definitions that may name a deployment other than (a); all other
# code reads the records ``association.link_budgets`` returns.
DEPLOYMENT_NAMES = {"SUB6_ONLY", "MMWAVE_ONLY", "TWO_TIER_SUB6"}
DEPLOYMENT_READERS = {
    "params.ScenarioKind": "defines the deployments",
    "association.link_budgets": "maps each deployment to its records",
    "analytic.coverage_two_tier_sub6": "perfbench calls it",
}


def _deployment_readers() -> set[str]:
    """Top-level statements of the package that name a deployment other
    than (a), as ``module.definition`` (``module:line`` for a statement
    that defines nothing)."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(top)
                     if isinstance(node, (ast.Name, ast.Attribute))}
            if names & DEPLOYMENT_NAMES:
                found.add(f"{path.stem}.{top.name}" if hasattr(top, "name")
                          else f"{path.stem}:{top.lineno}")
    return found


def test_only_link_budgets_reads_the_deployment():
    found = _deployment_readers()
    forked = sorted(found - DEPLOYMENT_READERS.keys())
    stale = sorted(DEPLOYMENT_READERS.keys() - found)
    assert not forked, f"{forked} branch on the deployment: read the " \
        f"association.link_budgets records instead"
    assert not stale, f"allowlisted but no longer naming a deployment: {stale}"


# Only the public analytic entry points resolve a deployment's records, and
# every kernel below them takes the records it is given; these private
# definitions may call link_budgets too.
RECORD_READERS: dict[str, str] = {}


def test_only_analytic_entry_points_read_the_records():
    tree = ast.parse((PACKAGE / "analytic.py").read_text())
    readers = {top.name for top in tree.body if hasattr(top, "name")
               for node in ast.walk(top)
               if isinstance(node, ast.Name) and node.id == "link_budgets"}
    kernels = sorted(name for name in readers
                     if name.startswith("_") and name not in RECORD_READERS)
    assert not kernels, f"{kernels} call link_budgets: take the records " \
        f"from the entry point instead"
    assert {"coverage", "coverage_no_nlos", "avg_rate"} <= readers


# Each interference transform has one copy: the kernel behind it is read
# only by the transform it makes up (the inter-cluster transform integrates
# the per-member exponent over the cluster centers).
TRANSFORM_KERNELS = {
    "_cluster_exponent": {"analytic.laplace_I2_intra",
                          "analytic._InterLaplace"},
    "_ppp_tail_integral": {"analytic.laplace_I1"},
}


def test_each_interference_transform_has_one_copy():
    readers = {kernel: set() for kernel in TRANSFORM_KERNELS}
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else getattr(node, "attr", None))
                if name in readers and not isinstance(
                        getattr(node, "ctx", None), ast.Store):
                    readers[name].add(
                        f"{path.stem}.{getattr(top, 'name', top.lineno)}")
    assert readers == TRANSFORM_KERNELS, \
        f"{readers}: evaluate the transforms laplace_I1, laplace_I2_intra " \
        f"and laplace_I2_inter instead of a copy of them"


def test_interferers_are_built_only_in_the_records():
    # every interference kernel is record data: only link_budgets builds
    # a KernelSegment, and both engines read the ones it returns
    builders = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "KernelSegment" in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    builders.add(f"{path.stem}.{getattr(top, 'name', '?')}")
    assert builders == {"association.link_budgets"}, \
        f"{sorted(builders)} build kernel segments: read the records instead"


def test_package_root_re_exports_nothing():
    # the root holds its docstring and version only: callers import the
    # submodules, and a re-export is a second name that no caller needs
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [ast.unparse(node) for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not imports, f"hotnet/__init__.py imports {imports}: import " \
        f"the submodule where it is used instead"


def test_no_module_reads_the_environment():
    # a run is set by its config and its arguments alone: an environment
    # variable would be an option that neither the config nor the run
    # manifest records
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
            else:
                continue
            if names & {"environ", "getenv"}:
                readers.append(f"{path.name}:{node.lineno}")
    assert not readers, f"{readers} read the environment: take the " \
        f"setting from the config instead"


def test_only_association_reads_the_biased_metric():
    # the tier rule has one home: both simulators call association.choose,
    # and no other module compares biased metrics of its own
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ({alias.name for alias in node.names}
                     if isinstance(node, ast.ImportFrom)
                     else {getattr(node, "id", None),
                           getattr(node, "attr", None)})
            if "biased_metric" in names:
                readers.add(path.stem)
    assert readers == {"association"}, \
        f"{sorted(readers)} read biased_metric: call association.choose"


# SystemParams names that no link-budget record holds: the UE offset spread
# and the sampling radius
PARAMS_READ_OUTSIDE_RECORDS = {"sigma_ue_m", "truncation_radius_m"}


def test_only_link_budgets_reads_the_link_constants():
    # every other link constant reaches the engines and the sampler through
    # the association.link_budgets records
    names = ({f.name for f in dataclasses.fields(SystemParams)}
             | {name for name, value in vars(SystemParams).items()
                if isinstance(value, property)})
    names -= PARAMS_READ_OUTSIDE_RECORDS
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "params.py":
            continue
        for top in ast.parse(path.read_text()).body:
            if f"{path.stem}.{getattr(top, 'name', '')}" == \
                    "association.link_budgets":
                continue
            reads += [f"{path.name}:{node.lineno} {node.attr}"
                      for node in ast.walk(top)
                      if isinstance(node, ast.Attribute)
                      and node.attr in names]
    assert not reads, f"{reads} read SystemParams: read the " \
        f"association.link_budgets records instead"
