import ast
import importlib.util
import pkgutil
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


def test_no_module_imports_numpy_random():
    # numpy.random adds about 6 MB of RSS; importing __main__ would run the CLI
    code = (
        "import pkgutil, sys\n"
        "from importlib import import_module\n"
        "import doubled_spectral\n"
        "names = [m.name for m in pkgutil.iter_modules(doubled_spectral.__path__)\n"
        "         if m.name != '__main__']\n"
        "for name in names:\n"
        "    import_module('doubled_spectral.' + name)\n"
        "assert 's3quad' in names and 'numpy' in sys.modules, names\n"
        "assert 'numpy.random' not in sys.modules, names\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def _numpy_random_uses(tree):
    """Lines of `tree` that import numpy.random or read np.random: numpy
    loads the submodule on first attribute access, so an import alone does
    not show a function that uses it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(a.name.startswith("numpy.random") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").startswith("numpy.random") or (
                node.module == "numpy" and any(a.name == "random" for a in node.names))
        else:
            hit = (isinstance(node, ast.Attribute) and node.attr == "random"
                   and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
        if hit:
            yield node.lineno


def test_no_module_uses_numpy_random():
    modules = list(pkgutil.iter_modules(doubled_spectral.__path__))
    assert len(modules) > 5
    for info in modules:
        path = Path(info.module_finder.path) / f"{info.name}.py"
        uses = list(_numpy_random_uses(ast.parse(path.read_text(encoding="utf-8"))))
        assert not uses, f"{path.name} uses numpy.random on lines {uses}"


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
    assert ("s3quad", "rational_integral") in checked
    assert ("matchings", "series_exact") in checked


VALUE_TYPES = {
    "DiagonalMetric": (("scales",), ((1.0, 2.0, 3.0, 4.0),)),
    "UnitVector4": (("xi",), ((0.0, 0.6, 0.0, 0.8),)),
    "DoubledGeometry": (
        ("g1", "g2", "coupling", "kappa", "cutoff", "moment_coeff"),
        (doubled_spectral.DiagonalMetric((1, 1, 1, 1)),
         doubled_spectral.DiagonalMetric((2, 2, 1, 1)), 0.5, -1, 2.0, 0.7),
    ),
    "EffectiveParams": (("lambda_e_sq", "alpha"), (12.0, -3.0)),
    "HopfMetric": (("a", "b"), (1.5, 0.25)),
    "CheckFailure": (
        ("g1", "g2", "transformation", "discrepancy"),
        ((1.0, 2.0, 3.0, 4.0), (0.5, 1.0, 1.5, 2.0), "exchange", 3e-16),
    ),
    "HypothesisReport": (
        ("trials", "seed", "level", "tol", "rng", "max_violation", "failures"),
        (2, 3, 8, 0.0, "numpy.random.Generator(PCG64)", 3e-16, ()),
    ),
    "SeriesComparison": (
        ("omega", "spectral_radius", "order", "terms_exact",
         "terms_single_trace", "ratios_single_trace_vs_exact", "value_exact",
         "value_single_trace", "value_quadrature"),
        (1.5, 0.1, 2, (1.0, 0.0, 0.5), (1.0, 0.0, 0.25), (1.0, None, 0.5),
         1.5, 1.25, 1.5),
    ),
}


# a field value that the type's __new__ rejects
REJECTED_FIELDS = {
    "DiagonalMetric": {"scales": (0.0, -1.0, 2.0, 3.0)},
    "UnitVector4": {"xi": (0.6, 0.6, 0.0, 0.8)},
    "DoubledGeometry": {"kappa": 2},
    "HopfMetric": {"a": -5.0},
}


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_types_are_immutable_values(name):
    # the types of the numpy-free paths are namedtuples, not dataclasses:
    # positional and keyword construction, value equality and hashing,
    # immutability and the Type(field=value, ...) repr
    # CheckFailure is no export; HypothesisReport.failures holds it
    cls = getattr(doubled_spectral, name, None) or getattr(
        import_module("doubled_spectral.conjecture"), name
    )
    fields, args = VALUE_TYPES[name]
    value = cls(*args)
    assert value == cls(**dict(zip(fields, args)))
    assert hash(value) == hash(cls(*args))
    assert [getattr(value, f) for f in fields] == list(args)
    assert repr(value) == f"{name}(" + ", ".join(f"{f}={a!r}" for f, a in zip(fields, args)) + ")"
    with pytest.raises(AttributeError):
        setattr(value, fields[0], args[0])
    if name == "SeriesComparison":
        assert value.to_dict() == dict(zip(fields, args))
        assert list(value.to_dict()) == list(fields)
    # namedtuple's _make, which _replace calls, is tuple.__new__ unless the
    # type rebinds it to go through __new__'s checks
    assert value._replace() == value == cls._make(args)
    if name in REJECTED_FIELDS:
        with pytest.raises(ValueError):
            value._replace(**REJECTED_FIELDS[name])


def test_perturbed_form_keeps_its_spectral_radius_through_copies():
    import copy
    import pickle

    import numpy as np

    eps = np.diag([0.3, -0.1, -0.1, -0.1])
    pf = doubled_spectral.PerturbedForm(omega=1.5, eps=eps)
    assert pf.spectral_radius == pytest.approx(0.3, rel=1e-15)
    assert isinstance(pf.eps, tuple) and len(pf.eps) == 4
    assert all(isinstance(row, tuple) and len(row) == 4 for row in pf.eps)
    with pytest.raises(TypeError):
        pf.eps[0] = (1.0, 0.0, 0.0, 0.0)
    with pytest.raises(TypeError):
        pf.eps[0][0] = 1.0
    with pytest.raises(TypeError):
        doubled_spectral.PerturbedForm(1.5, eps, 0.3)
    # _replace solves for the radius of the new eps
    assert pf._replace(eps=np.diag([0.99, -0.99, 0.0, 0.0])).spectral_radius == 0.99
    with pytest.raises(ValueError, match="spectral radius"):
        pf._replace(eps=np.diag([1.0, -1.0, 0.0, 0.0]))
    for clone in (copy.copy(pf), pf._replace(), pickle.loads(pickle.dumps(pf))):
        assert clone.omega == pf.omega
        assert clone.spectral_radius == pf.spectral_radius
        assert np.array_equal(clone.eps, pf.eps)
