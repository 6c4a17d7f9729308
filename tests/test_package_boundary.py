"""The shipped package stands alone: test oracles live under ``tests/``.

The reference engines the equivalence suites compare against (the
copy-per-candidate OS-DPOS search, the seed step simulator, the
linear-scan DPOS) are test code.  The package must not import them,
export them, or keep a mode or shim that selects them.  Nor does it
keep removed surface: the wall-clock tracer is gone (spans ride the
event bus).
"""

import ast
import pathlib

import pytest

import repro
import repro.core
import repro.sim

PACKAGE = pathlib.Path(repro.__file__).resolve().parent
SOURCES = sorted(PACKAGE.rglob("*.py"))


def _imported_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module or ""


def test_sources_found():
    assert PACKAGE / "core" / "os_dpos.py" in SOURCES


def test_package_never_imports_tests():
    offenders = [
        f"{path.relative_to(PACKAGE)}: {module}"
        for path in SOURCES
        for module in _imported_modules(path)
        if module == "tests" or module.startswith("tests.")
    ]
    assert offenders == []


@pytest.mark.parametrize("module", [repro, repro.core, repro.sim])
def test_no_reference_engine_exported(module):
    exported = set(dir(module)) | set(getattr(module, "__all__", ()))
    assert not {
        name for name in exported
        if "reference" in name.lower() or "naive" in name.lower()
    }


@pytest.mark.parametrize(
    "needle",
    [
        "naive=", "ReferenceSimulator", "DeprecationWarning",
        # The event bus is the one emission channel: no second tracer.
        "tracer.span", "tracer.instant", "NULL_TRACER",
    ],
)
def test_no_removed_surface_in_sources(needle):
    offenders = [
        str(path.relative_to(PACKAGE))
        for path in SOURCES
        if needle in path.read_text()
    ]
    assert offenders == []


def test_obs_exports_no_tracer():
    import repro.obs

    exported = set(dir(repro.obs)) | set(repro.obs.__all__)
    assert not exported & {
        "Tracer", "NullTracer", "NULL_TRACER", "export_tracer", "tracer",
    }
