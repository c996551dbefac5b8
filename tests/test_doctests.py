import doctest
import importlib
import pkgutil

import pytest

import sofic
from sofic import graphs

MODULES = sorted(info.name for info in pkgutil.iter_modules(sofic.__path__, "sofic."))


@pytest.mark.parametrize("name", MODULES)
def test_doctests(name):
    module = importlib.import_module(name)
    failures, _ = doctest.testmod(
        module, extraglobs={"LabeledGraph": graphs.LabeledGraph}, verbose=False
    )
    assert failures == 0
