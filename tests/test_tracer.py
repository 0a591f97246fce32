"""The benchmark tracer's wrapped names still exist in the program."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


_TRACED = _traced()


@pytest.mark.parametrize("module, function", _TRACED, ids=[f"{m}.{f}" for m, f in _TRACED])
def test_traced_function_resolves(module, function):
    """A renamed or removed function would leave the traced run a layer short."""
    assert callable(getattr(importlib.import_module(module), function, None))
