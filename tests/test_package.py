import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import boltzgas

SRC = str(Path(boltzgas.__file__).resolve().parents[1])

# The closed forms and the model's domain, which the enumeration oracle checks.
ORACLE_FREE = ("combinatorics", "system", "moments", "distributions")
# Imported inside the commands of cli, so that the exact paths start without
# them; figures and montecarlo also load NumPy.
DEFERRED = ("figures", "fluctuations", "montecarlo")


def _functools_caches():
    for info in pkgutil.iter_modules(boltzgas.__path__):
        module = importlib.import_module(f"boltzgas.{info.name}")
        for name, obj in vars(module).items():
            members = vars(obj).items() if isinstance(obj, type) else [(name, obj)]
            for member_name, member in members:
                if callable(getattr(member, "cache_parameters", None)):
                    yield module.__name__, member_name, member


def _fresh_modules(code: str) -> set:
    """Names of the package and NumPy modules loaded after ``code`` runs in a fresh interpreter."""
    probe = (
        f"{code}\nimport sys\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] in ('boltzgas', 'numpy')))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    return set(result.stdout.splitlines()[-1].split())


def _sibling_imports(module: str) -> list:
    """(sibling, imported inside a function?) for each relative import of a package module."""
    tree = ast.parse((Path(boltzgas.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))
    nested = {
        id(node)
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
    }
    imports = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module] if node.module else [alias.name for alias in node.names]
            imports.extend((name.split(".")[0], id(node) in nested) for name in names)
    return imports


def _lgamma_owners() -> set:
    """(module, innermost enclosing function) of every mention of lgamma in the package."""
    owners = set()
    for path in sorted(Path(boltzgas.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        enclosing = {}
        # ast.walk is breadth-first, so an inner function overwrites its outer one
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(function):
                    enclosing[id(node)] = function.name
        for node in ast.walk(tree):
            name = getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)
            if name == "lgamma":
                owners.add((path.stem, enclosing.get(id(node))))
    return owners


def test_log_factorials_live_in_one_log_law():
    # The large-system laws share one multinomial log-pmf; no law writes its own.
    assert _lgamma_owners() == {("distributions", "_multinomial_log_pmf")}


def test_import_graph_runs_one_way():
    modules = [info.name for info in pkgutil.iter_modules(boltzgas.__path__)]
    assert set(ORACLE_FREE) | set(DEFERRED) <= set(modules)
    graph = {module: _sibling_imports(module) for module in modules}
    oracle_users = [m for m in ORACLE_FREE if any(s == "enumeration" for s, _ in graph[m])]
    late = [(m, s) for m, imports in graph.items() for s, nested in imports if nested and s not in DEFERRED]
    assert oracle_users == []
    assert late == []


def test_oracle_imports_no_closed_form():
    # The enumeration oracle shares only the model's domain with the laws it witnesses.
    assert {sibling for sibling, _ in _sibling_imports("enumeration")} == {"combinatorics", "system"}


def test_law_type_lives_with_the_domain():
    assert boltzgas.DistributionTable is boltzgas.distributions.DistributionTable
    assert boltzgas.DistributionTable.__module__ == "boltzgas.system"
    assert not hasattr(boltzgas, "CovarianceMatrix")


def test_every_cache_is_bounded():
    caches = {f"{module}.{name}": cache for module, name, cache in _functools_caches()}
    assert caches
    unbounded = [name for name, cache in caches.items() if cache.cache_parameters()["maxsize"] is None]
    assert unbounded == []


@pytest.mark.parametrize(
    "argv",
    [
        "",  # the imports alone
        "microstates --n 12 --m 16",
        "moments --n 8 --m 10 --check-oracle",
        "pdf --n 12 --m 16 --level 0 --compare-limit --check-oracle",
        "jointpdf --n 5 --m 7 --levels 0,1,2 --check-oracle",
        "covariance --n 100 --m 20 --t 1.0",
        "covariance --n 10 --m 3 --format json",
        "fluctuation --n 10,30 --t-grid log:0.01:10000:181",
        "fluctuation --n 10 --t-grid lin:0.5:20:40",
    ],
)
def test_commands_other_than_mc_and_figures_leave_numpy_unloaded(argv):
    code = "import boltzgas\nimport boltzgas.cli"
    if argv:
        code += f"\nassert boltzgas.cli.main({argv.split()!r}) == 0"
    loaded = _fresh_modules(code)
    assert "boltzgas.cli" in loaded and "numpy" not in loaded


def test_lazy_name_loads_its_module():
    loaded = _fresh_modules("import boltzgas\nboltzgas.covariance_matrix")
    assert "boltzgas.fluctuations" in loaded and "numpy" not in loaded
    loaded = _fresh_modules("import boltzgas\nboltzgas.empirical_stats")
    assert {"boltzgas.montecarlo", "numpy"} <= loaded


def test_lazy_module_loads_on_access():
    code = "import sys\nimport boltzgas\nassert boltzgas.montecarlo is sys.modules['boltzgas.montecarlo']"
    assert {"boltzgas.montecarlo", "numpy"} <= _fresh_modules(code)


def test_import_loads_every_cached_module():
    # A benchmark that empties the caches between passes finds them among
    # the modules loaded by the import.
    cached = {module for module, _, _ in _functools_caches()}
    assert cached <= _fresh_modules("import boltzgas")


def test_public_names_resolve():
    namespace = {}
    exec("from boltzgas import *", namespace)
    listing = dir(boltzgas)
    for name in boltzgas.__all__:
        assert namespace[name] is getattr(boltzgas, name)
        assert name in listing
    assert boltzgas.figures is importlib.import_module("boltzgas.figures")


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        boltzgas.no_such_name
