"""Public API integrity: every exported name exists and imports cleanly."""

import importlib
import pkgutil

import pytest

import repro

#: Every package of the distribution; each exports its names lazily
#: through a name -> submodule table (``repro._lazy``).
PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), package
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_lists_every_export(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name


@pytest.mark.parametrize("package", PACKAGES)
def test_package_docstrings(package):
    module = importlib.import_module(package)
    assert module.__doc__, f"{package} lacks a docstring"


def test_top_level_quickstart_names():
    import repro
    for name in ("NPUTandem", "build_model", "compile_model",
                 "FunctionalRunner", "ReferenceExecutor", "RunResult"):
        assert name in repro.__all__


def test_version():
    import repro
    assert repro.__version__.count(".") == 2


def test_public_entry_points_are_callable():
    import repro
    npu = repro.NPUTandem()
    assert callable(npu.evaluate)
    assert callable(repro.compile_model)
    assert callable(repro.build_model)


def test_exports_are_read_from_the_defining_module(monkeypatch):
    # A wrapper installed on the defining module after the package was
    # imported (a profiler's, say) is what the package hands out.
    import repro.simulator
    import repro.simulator.analytic as analytic

    marker = object()
    monkeypatch.setattr(analytic, "estimate", marker)
    assert repro.simulator.estimate is marker
    from repro.simulator import estimate
    assert estimate is marker
