"""The fits run one stopping policy: no function of the package, private
ones included, and no study setting takes a tolerance, and the package
defines none."""

import dataclasses
import importlib
import inspect
import pkgutil
import types

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
    assert not hasattr(numerics, "Tolerance")


def _code_objects(code):
    """A code object and every code object nested in it (closures, lambdas,
    comprehensions)."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def test_no_function_of_the_package_takes_a_tolerance():
    # Every function defined in a module of the package, methods and nested
    # functions included: the stopping policy is the constants of dirichlet.
    checked = 0
    for info in pkgutil.iter_modules(simplexstats.__path__):
        module = importlib.import_module(f"simplexstats.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if isinstance(obj, type) else (obj,)
            for member in members:
                member = getattr(member, "__func__", member)
                if not inspect.isfunction(member):
                    continue
                for code in _code_objects(member.__code__):
                    params = code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]
                    assert "tol" not in params, (member.__qualname__, code.co_name)
                    checked += 1
    assert checked > 100
