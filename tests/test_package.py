import importlib.util
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import doubled_spectral

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_every_export_resolves():
    for name in doubled_spectral.__all__:
        assert getattr(doubled_spectral, name) is not None, name
    assert sorted(doubled_spectral.__all__) == doubled_spectral.__all__
    assert set(doubled_spectral.__all__) <= set(dir(doubled_spectral))


def test_star_import():
    namespace = {}
    exec("from doubled_spectral import *", namespace)
    assert set(doubled_spectral.__all__) <= set(namespace)
    assert namespace["potential_elliptic"].__module__ == "doubled_spectral.carlson"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        doubled_spectral.no_such_name


def test_package_import_loads_no_numpy():
    code = (
        "import sys, doubled_spectral\n"
        "doubled_spectral.potential_closed, doubled_spectral.pattern_census\n"
        "assert 'numpy' not in sys.modules\n"
        "doubled_spectral.build_rule\n"
        "assert 'numpy' in sys.modules\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_benchmark_tracer_targets_resolve(monkeypatch):
    # the benchmark's layer tracer looks each (module, function) target up
    # with no default, so a deleted binding breaks every traced run; targets
    # in modules the package no longer has never load, and it skips them
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO_ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    checked = []
    for module, func, _ in tracing.TARGETS:
        name = f"{doubled_spectral.__name__}.{module}"
        if importlib.util.find_spec(name) is None:
            continue
        assert hasattr(import_module(name), func), (module, func)
        checked.append((module, func))
    # bindings no subcommand calls, which a cleanup could otherwise drop
    assert ("s3quad", "kinetic_term") in checked
    assert ("matchings", "series_exact") in checked
