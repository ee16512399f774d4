"""Package-level hygiene: imports, __all__ integrity, version, docstrings."""

import importlib
import pkgutil

import pytest

import repro

SUBPACKAGES = [
    "repro",
    "repro.core",
    "repro.sync",
    "repro.sync.algorithms",
    "repro.shm",
    "repro.amp",
    "repro.amp.consensus",
    "repro.explore",
    "repro.analyze",
    "repro.trace",
    "repro.harness",
    "repro.workload",
]


def iter_all_modules():
    for package_name in SUBPACKAGES:
        package = importlib.import_module(package_name)
        yield package
        if hasattr(package, "__path__"):
            for info in pkgutil.iter_modules(package.__path__):
                # Importing a __main__ runs its command line.
                if info.name != "__main__":
                    yield importlib.import_module(f"{package_name}.{info.name}")


@pytest.mark.parametrize("package_name", SUBPACKAGES)
def test_subpackage_imports(package_name):
    module = importlib.import_module(package_name)
    assert module is not None


@pytest.mark.parametrize("package_name", SUBPACKAGES)
def test_all_names_resolve(package_name):
    module = importlib.import_module(package_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{package_name}.__all__ lists missing {name}"


def test_version():
    assert repro.__version__ == "1.0.0"


def test_every_module_has_a_docstring():
    undocumented = [
        module.__name__
        for module in iter_all_modules()
        if not (module.__doc__ or "").strip()
    ]
    assert not undocumented, undocumented


def test_every_public_class_and_function_documented():
    import inspect

    missing = []
    for module in iter_all_modules():
        for name, member in vars(module).items():
            if name.startswith("_"):
                continue
            if getattr(member, "__module__", None) != module.__name__:
                continue  # re-export: documented at its home module
            if inspect.isclass(member) or inspect.isfunction(member):
                if not (member.__doc__ or "").strip():
                    missing.append(f"{module.__name__}.{name}")
    assert not missing, missing


@pytest.mark.parametrize(
    "leaf",
    [
        "repro.shm.universal",
        "repro.amp.smr",
        "repro.sync.equivalence",
        "repro.core.linearizability",
    ],
)
def test_leaf_modules_import_standalone(leaf):
    """Leaf modules must be importable in a fresh interpreter (catches
    circular-import regressions without reloading shared state)."""
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-c", f"import {leaf}"], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
