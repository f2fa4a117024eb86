import importlib
import pkgutil

import boltzgas


def _functools_caches():
    for info in pkgutil.iter_modules(boltzgas.__path__):
        module = importlib.import_module(f"boltzgas.{info.name}")
        for name, obj in vars(module).items():
            members = vars(obj).items() if isinstance(obj, type) else [(name, obj)]
            for member_name, member in members:
                if callable(getattr(member, "cache_parameters", None)):
                    yield f"{module.__name__}.{member_name}", member


def test_every_cache_is_bounded():
    caches = dict(_functools_caches())
    assert caches
    unbounded = [name for name, cache in caches.items() if cache.cache_parameters()["maxsize"] is None]
    assert unbounded == []
