"""Packaging and public-API sanity checks."""

import compileall
import importlib
import inspect
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

PUBLIC_PACKAGES = [
    "repro",
    "repro.core",
    "repro.network",
    "repro.network.schedulers",
    "repro.join",
    "repro.workloads",
    "repro.analytics",
    "repro.experiments",
    "repro.service",
    "repro.obs",
]


class TestPackaging:
    def test_everything_compiles(self):
        assert compileall.compile_dir(str(SRC), quiet=2, force=True)

    def test_py_typed_marker_present(self):
        assert (SRC / "py.typed").exists()

    def test_version_exposed(self):
        import repro

        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize("pkg", PUBLIC_PACKAGES)
    def test_all_exports_resolve(self, pkg):
        mod = importlib.import_module(pkg)
        listed = dir(mod)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{pkg}.__all__ lists missing {name}"
            obj = getattr(mod, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                home = sys.modules[obj.__module__]
                assert getattr(home, name) is obj, (
                    f"{pkg}.{name} is not {obj.__module__}.{name}"
                )
            assert name in listed, f"dir({pkg}) omits {name}"
        with pytest.raises(AttributeError):
            getattr(mod, "no_such_export")

    def test_no_private_leaks_in_top_level_all(self):
        import repro

        for name in repro.__all__:
            assert not name.startswith("_") or name == "__version__"

    def test_cli_entry_point_importable(self):
        from repro.cli import main

        assert callable(main)

    def test_docstrings_on_public_modules(self):
        for pkg in PUBLIC_PACKAGES:
            mod = importlib.import_module(pkg)
            assert mod.__doc__, f"{pkg} lacks a module docstring"


class TestDoctests:
    @pytest.mark.parametrize(
        "module",
        [
            "repro",
            "repro.analytics.catalog",
            "repro.network.simulator",
            "repro.core.framework",
            "repro.core.online",
        ],
    )
    def test_module_doctests_pass(self, module):
        import doctest

        mod = importlib.import_module(module)
        result = doctest.testmod(mod, verbose=False)
        assert result.failed == 0, f"{module}: {result.failed} doctest failures"
