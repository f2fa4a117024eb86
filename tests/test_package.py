import ast
import importlib
import importlib.util
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
# them; figures and montecarlo also load NumPy, identities the battery.
DEFERRED = ("figures", "fluctuations", "identities", "montecarlo")


def _functools_caches():
    for info in pkgutil.iter_modules(boltzgas.__path__):
        module = importlib.import_module(f"boltzgas.{info.name}")
        for name, obj in vars(module).items():
            members = vars(obj).items() if isinstance(obj, type) else [(name, obj)]
            for member_name, member in members:
                if callable(getattr(member, "cache_parameters", None)):
                    yield module.__name__, member_name, member


def _fresh_modules(code: str) -> set:
    """Names of all modules loaded after ``code`` runs in a fresh ``python -S``.

    Without site, no .pth file preloads modules. The package comes from
    PYTHONPATH, and NumPy's directory is searched after the standard library.
    """
    numpy_home = str(Path(importlib.util.find_spec("numpy").origin).parents[1])
    probe = f"import sys\nsys.path.append({numpy_home!r})\n{code}\nprint(*sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, check=True
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


# Loaded only by the calls that use them: the identity battery and the
# standard-library modules for JSON and for writing files.
ON_DEMAND = {"boltzgas.identities", "statistics", "json", "tempfile", "pathlib"}


def _cli_call(argv: str) -> str:
    """Code that imports what ``python -m boltzgas`` does, then runs ``argv`` unless it is empty."""
    code = "import boltzgas.cli"
    if argv:
        code += f"\nassert boltzgas.cli.main({argv.split()!r}) == 0"
    return code


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
    loaded = _fresh_modules(_cli_call(argv))
    assert "boltzgas.cli" in loaded and "numpy" not in loaded


def test_lazy_name_loads_its_module():
    loaded = _fresh_modules("import boltzgas\nboltzgas.covariance_matrix")
    assert "boltzgas.fluctuations" in loaded and "numpy" not in loaded
    loaded = _fresh_modules("import boltzgas\nboltzgas.empirical_stats")
    assert {"boltzgas.montecarlo", "numpy"} <= loaded
    loaded = _fresh_modules("from boltzgas import run_standard_battery")
    assert {"boltzgas.identities", "statistics"} <= loaded and "numpy" not in loaded


def test_lazy_module_loads_on_access():
    code = "import sys\nimport boltzgas\nassert boltzgas.montecarlo is sys.modules['boltzgas.montecarlo']"
    assert {"boltzgas.montecarlo", "numpy"} <= _fresh_modules(code)


@pytest.mark.parametrize(
    "argv",
    [
        None,  # `import boltzgas` alone
        "",  # the CLI's imports
        "microstates --n 100 --m 1000",
        "moments --n 12 --m 16 --levels 0,1,2 --check-oracle",
        "pdf --n 12 --m 16 --level 0 --check-oracle",
        "pdf --n 50 --m 100 --level 1 --compare-limit",
        "jointpdf --n 5 --m 7 --levels 0,1,2 --check-oracle",
        "covariance --n 100 --m 20 --t 2.5",
        "fluctuation --n 10,30,90 --t-grid log:0.1:100:31",
        "fluctuation --n 100 --t-grid lin:0.5:5:10",
    ],
)
def test_calls_load_no_module_they_do_not_use(argv):
    code = "import boltzgas" if argv is None else _cli_call(argv)
    assert _fresh_modules(code) & ON_DEMAND == set()


@pytest.mark.parametrize(
    "argv, needed",
    [
        ("identities --name sum-of-powers", {"boltzgas.identities", "statistics", "json"}),
        ("pdf --n 30 --m 60 --level 2 --format json", {"json"}),
        ("covariance --n 50 --m 10 --format json", {"json"}),
        ("pdf --n 4 --m 6 --level 1 --out {tmp}/pdf.csv", {"tempfile", "pathlib"}),
        ("figures --figure 7 --out-dir {tmp}/figs", {"json", "tempfile", "pathlib", "numpy"}),
    ],
)
def test_calls_load_what_they_use(tmp_path, argv, needed):
    loaded = _fresh_modules(_cli_call(argv.format(tmp=tmp_path)))
    assert needed <= loaded
    assert loaded & ON_DEMAND == needed & ON_DEMAND


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
