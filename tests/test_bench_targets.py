"""The benchmark tracer wraps eigm functions by name; a deleted or renamed
target would only show as ``trace.absent`` in a traced benchmark run.
This test resolves every target the way the tracer does."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


def test_target_list_size():
    assert sum(len(attrs) for attrs in TARGETS.values()) == 52


@pytest.mark.parametrize(
    "layer, attr", [(layer, attr) for layer, attrs in TARGETS.items() for attr in attrs]
)
def test_target_resolves(layer, attr):
    module = importlib.import_module(f"eigm.{layer}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr, None))
