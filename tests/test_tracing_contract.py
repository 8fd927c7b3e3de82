"""The names the benchmark's tracer wraps still exist in the package.

``perfbench/tracing.py`` wraps each function of its ``FUNCTIONS`` table where
the package looks it up, and each method of its ``METHODS`` table on the class
that defines it.  The module is loaded read-only from its path; no wrapper is
installed.
"""

import importlib
import importlib.util
import os
import sys

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


tracing = _tracing()


@pytest.mark.parametrize("name", sorted(tracing.FUNCTIONS))
def test_traced_function_resolves(name):
    module, attr = tracing.FUNCTIONS[name]
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("name", sorted(tracing.METHODS))
def test_traced_method_is_defined_on_its_class(name):
    for module, cls_name, attr in tracing.METHODS[name]:
        cls = getattr(importlib.import_module(module), cls_name)
        assert callable(cls.__dict__.get(attr)), (cls_name, attr)
