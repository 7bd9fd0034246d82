import ast
import importlib
import inspect
import pathlib
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


def test_every_export_has_a_use_in_the_package():
    # an export counts as used when package code loads it as a name or as an
    # attribute of a submodule (``dataio.load_model``), or when the package
    # namespace imports it; a mention in a docstring or a test does not count
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in pathlib.Path(sdtdl.__file__).parent.glob("*.py")
    }
    submodules = set(trees) - {"__init__"}
    used = {
        alias.name
        for node in ast.walk(trees["__init__"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in submodules
            ):
                used.add(node.attr)
    unused = [f"{m.__name__}.{name}" for m in MODULES for name in m.__all__ if name not in used]
    assert unused == []


def test_every_import_is_used():
    # a name a module imports is loaded in it or exported through __all__;
    # solver binds mode_product and eig_sym_topk for perfbench's binding
    # test, which wraps them
    exempt = {("solver", "mode_product"), ("solver", "eig_sym_topk")}
    unused = []
    for path in pathlib.Path(sdtdl.__file__).parent.glob("*.py"):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        exported = set(getattr(importlib.import_module(f"sdtdl.{path.stem}"), "__all__", ()))
        unused += [
            f"{path.stem}.{name}"
            for name in sorted(imported - loaded - exported)
            if (path.stem, name) not in exempt
        ]
    assert unused == []
