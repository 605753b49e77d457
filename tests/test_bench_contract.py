"""The benchmark's tracer wraps package functions by name; every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_tracer_targets_resolve():
    targets = load_targets()
    assert targets
    for module_name, attr, span, _ in targets:
        module = importlib.import_module(f"tsproject.{module_name}")
        owner, _, method = attr.rpartition(".")
        if owner:
            assert method in vars(getattr(module, owner)), span
        else:
            assert callable(getattr(module, attr, None)), span
