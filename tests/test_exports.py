"""The export contract: each module's ``__all__`` resolves, and the package's
top level re-exports only names from those lists."""

import importlib
import types

import pytest

import hybriddet

MODULES = ("model", "detection", "design", "allocation", "experiments", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"hybriddet.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, f"hybriddet.{name}.__all__ names {missing}, which the module lacks"


def test_top_level_names_come_from_the_module_exports():
    owners = {}
    for name in MODULES:
        module = importlib.import_module(f"hybriddet.{name}")
        for export in module.__all__:
            owners.setdefault(export, []).append(getattr(module, export))
    public = {
        name: value
        for name, value in vars(hybriddet).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public
    stray = [name for name, value in public.items() if not any(value is owned for owned in owners.get(name, ()))]
    assert not stray, f"hybriddet re-exports {stray}, which no module's __all__ lists"
