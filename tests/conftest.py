import os
import sys

import pytest

#: the checkout holding these tests, and its ``tools/`` (the plain-Python
#: references the tests compare against)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))
sys.path.insert(0, ROOT)


def _register_package_by_value() -> None:
    """Mirror __ray_entry__: ship the package to workers by VALUE, so
    tests behave the same from any cwd (module-level UDFs referenced
    from closures pickle by reference otherwise and workers can't
    import the repo)."""
    import importlib
    import pkgutil

    import logstash_filter_elastic_integration_ray as _pkg

    for info in pkgutil.walk_packages(_pkg.__path__, _pkg.__name__ + "."):
        if info.name.endswith("__main__"):
            continue
        try:
            importlib.import_module(info.name)
        except ImportError:  # pragma: no cover
            pass
    try:
        from ray import cloudpickle as _cp
    except ImportError:  # pragma: no cover
        return
    for name, mod in list(sys.modules.items()):
        if name == _pkg.__name__ or name.startswith(_pkg.__name__ + "."):
            try:
                _cp.register_pickle_by_value(mod)
            except Exception:  # pragma: no cover
                pass


_register_package_by_value()


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver instruction)."""
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    yield
    ray.shutdown()
