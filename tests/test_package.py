import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import boltzgas

SRC = str(Path(boltzgas.__file__).resolve().parents[1])


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
    ],
)
def test_exact_paths_leave_numpy_unloaded(argv):
    code = "import boltzgas\nimport boltzgas.cli"
    if argv:
        code += f"\nassert boltzgas.cli.main({argv.split()!r}) == 0"
    loaded = _fresh_modules(code)
    assert "boltzgas.cli" in loaded and "numpy" not in loaded


def test_lazy_name_loads_its_module():
    loaded = _fresh_modules("import boltzgas\nboltzgas.covariance_matrix")
    assert {"boltzgas.fluctuations", "numpy"} <= loaded


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
