"""The benchmark tracer (bench/tracer.py) wraps package functions by name.

Its SPAN_TARGETS are read with `ast`, without importing the module, so no
bytecode is written under bench/. A target the tracer cannot find is
skipped silently there, so a renamed function would read 0 calls; these
tests make the rename fail here instead.
"""
import ast
import importlib
import inspect
from pathlib import Path

from mmwave_tdoa import channel, harness

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
# Listed by the tracer, but gone from the package before these tests.
REMOVED = {
    ("detector", "ctma_output"),
    ("detector", "sampling_toa"),
    ("harness", "sweep_report"),
    ("harness", "write_trials_csv"),
}


def _span_targets() -> tuple:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPAN_TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPAN_TARGETS assignment in {TRACER}")


def test_every_span_target_is_a_package_callable():
    targets = _span_targets()
    assert targets
    missing = [
        f"{module}.{name}"
        for module, name in targets
        if (module, name) not in REMOVED
        and not callable(getattr(importlib.import_module(f"mmwave_tdoa.{module}"), name, None))
    ]
    assert missing == []


def test_propagate_keeps_the_arguments_the_tracer_binds_by_name():
    assert harness.propagate is channel.propagate
    assert {"seed", "spec"} <= set(inspect.signature(channel.propagate).parameters)
