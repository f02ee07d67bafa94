"""Every name a ``repro`` module exports in ``__all__`` must resolve.

A deleted function whose name stays in some ``__all__`` breaks
``from repro.x import *`` while every direct import keeps working, so
this walks every module of the package and checks each export.
"""

import importlib
import pkgutil

import pytest

import repro


def _module_names() -> list[str]:
    names = [repro.__name__]
    for info in pkgutil.walk_packages(repro.__path__, prefix=f"{repro.__name__}."):
        names.append(info.name)
    return sorted(names)


MODULES = _module_names()


def test_walk_finds_the_subpackages() -> None:
    for package in ("repro.sat", "repro.networks", "repro.cuts", "repro.simulation", "repro.partition"):
        assert package in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name: str) -> None:
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", None)
    if exports is None:
        return
    assert len(exports) == len(set(exports)), f"{name}.__all__ lists a name twice"
    missing = [export for export in exports if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    namespace: dict[str, object] = {}
    exec(f"from {name} import *", namespace)
    assert set(exports) <= set(namespace)
