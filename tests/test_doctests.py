"""Every module's doctests, one parametrized case per module."""

import doctest
import importlib
import pkgutil

import pytest

import toruscheck

MODULES = ["toruscheck"] + sorted(
    "toruscheck." + m.name for m in pkgutil.iter_modules(toruscheck.__path__))

#: Modules whose docstrings hold examples; a case for one of them that runs
#: no example means the examples were lost.
WITH_EXAMPLES = {"toruscheck.characters", "toruscheck.cohomology",
                 "toruscheck.groups", "toruscheck.lattice", "toruscheck.qz"}


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
    assert result.attempted > 0 or name not in WITH_EXAMPLES
