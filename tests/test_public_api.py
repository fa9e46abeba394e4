"""The fits run one stopping policy: no public function or study setting
takes a tolerance, and the package does not export one."""

import dataclasses
import inspect

import pytest

import simplexstats
from simplexstats import dirichlet, inference, nested, numerics, simulate, treesearch


def _public_callables(module):
    """The module's exported functions and dataclasses (whose signature is
    their fields)."""
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj) or (isinstance(obj, type) and dataclasses.is_dataclass(obj)):
            yield f"{module.__name__}.{name}", obj


@pytest.mark.parametrize(
    "module", [dirichlet, nested, inference, treesearch, simulate, numerics, simplexstats]
)
def test_no_public_function_takes_a_tolerance(module):
    for name, obj in _public_callables(module):
        assert "tol" not in inspect.signature(obj).parameters, name


def test_study_configuration_has_no_tolerance_and_the_package_exports_none():
    assert "tol" not in {f.name for f in dataclasses.fields(simulate.SimSpec)}
    assert "Tolerance" not in simplexstats.__all__
    assert not hasattr(simplexstats, "Tolerance")
    assert "Tolerance" not in numerics.__all__
