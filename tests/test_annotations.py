"""Every annotation in the package resolves.

``typing.get_type_hints`` evaluates a function's annotations in its
module's namespace, so a name an annotation uses but the module never binds
raises ``NameError`` there, for any tool that reads the annotations.
"""

import importlib
import pkgutil
import typing
from fractions import Fraction

import pytest

import cybundle
from cybundle.discriminant import WitnessRecord
from cybundle.invariants import euler_characteristic_rank2_p3
from cybundle.kahler import CubicForm
from cybundle.ratpoly import MultiPoly, value_and_gradient


def package_functions():
    """(qualified name, function) of each function and method the package's
    modules define, wrappers such as functools.cache unwrapped."""
    for info in pkgutil.iter_modules(cybundle.__path__, "cybundle."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if isinstance(obj, type) else [obj]
            for member in members:
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                member = getattr(member, "__wrapped__", member)
                if callable(member) and hasattr(member, "__code__"):
                    yield f"{module.__name__}.{member.__qualname__}", member


FUNCTIONS = dict(package_functions())


def test_the_package_has_functions_to_check():
    assert len(FUNCTIONS) > 100
    assert "cybundle.cli._write" in FUNCTIONS
    assert "cybundle.chow.BundleSpec.__init__" in FUNCTIONS


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_hints_resolve(name):
    typing.get_type_hints(FUNCTIONS[name])


@pytest.mark.parametrize("function,parameter", [
    (euler_characteristic_rank2_p3, "return"),
    (CubicForm.__init__, "w30"),
    (MultiPoly.__init__, "terms"),
    (MultiPoly.evaluate, "return"),
    (value_and_gradient, "return"),
    (WitnessRecord.__init__, "s00"),
])
def test_fraction_names_the_class(function, parameter):
    def names_fraction(hint) -> bool:
        return hint is Fraction or any(map(names_fraction, typing.get_args(hint)))

    assert names_fraction(typing.get_type_hints(function)[parameter])
