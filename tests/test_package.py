import subprocess
import sys

import pytest

import doubled_spectral


def test_every_export_resolves():
    for name in doubled_spectral.__all__:
        assert getattr(doubled_spectral, name) is not None, name
    assert sorted(doubled_spectral.__all__) == doubled_spectral.__all__
    assert set(doubled_spectral.__all__) <= set(dir(doubled_spectral))


def test_star_import():
    namespace = {}
    exec("from doubled_spectral import *", namespace)
    assert set(doubled_spectral.__all__) <= set(namespace)
    assert namespace["potential_1d"].__module__ == "doubled_spectral.feynman"


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
