import importlib
import inspect
import pkgutil

import pytest

import sdtdl

# every submodule that declares its exports
MODULES = [
    module
    for module in (
        importlib.import_module(f"sdtdl.{info.name}")
        for info in pkgutil.iter_modules(sdtdl.__path__)
    )
    if hasattr(module, "__all__")
]


def test_library_modules_declare_exports():
    assert {m.__name__ for m in MODULES} >= {
        "sdtdl.tensor", "sdtdl.hooi", "sdtdl.solver", "sdtdl.pseudolabel", "sdtdl.dataio",
    }


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_matches_public_definitions(module):
    unresolved = [name for name in module.__all__ if not hasattr(module, name)]
    assert unresolved == []
    defined = {
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }
    assert sorted(defined - set(module.__all__)) == []
