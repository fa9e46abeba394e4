"""The benchmark tracer's targets name functions that exist.

perfbench/tracing.py wraps library functions by "module.attribute" name,
private helpers among them. This reads its tables without installing
anything, so renaming or deleting a traced function fails here too.
"""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_to_a_callable():
    tracing = _tracing()
    for target in tracing.TARGETS:
        mod_name, _, attr = target.partition(".")
        obj = importlib.import_module(f"simplexstats.{mod_name}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), target


def test_every_hook_belongs_to_a_target():
    tracing = _tracing()
    assert set(tracing._HOOKS) <= set(tracing.TARGETS)
    assert set(tracing.SPECIAL) <= set(tracing.TARGETS)
