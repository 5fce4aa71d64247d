"""Every method hook of the benchmark tracer names a method that its class
defines itself.

``perfbench/tracer.py`` wraps each ``(module, class, method)`` entry of its
``METHODS`` list through ``cls.__dict__``, so a method that moves to a base
class, or is renamed or removed, breaks the traced benchmark run.  This
test reads the list and checks it against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _methods():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.PACKAGE, tracer.METHODS


PACKAGE, METHODS = _methods()


@pytest.mark.parametrize("module, cls, method, span", METHODS,
                         ids=[f"{m}.{c}.{f}" for m, c, f, _ in METHODS])
def test_tracer_hook_names_a_method_of_its_own_class(module, cls, method, span):
    owner = getattr(importlib.import_module(f"{PACKAGE}.{module}"), cls)
    assert method in owner.__dict__, f"{cls}.{method} is not defined in {cls} itself"
