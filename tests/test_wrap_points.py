"""Every attribute the benchmark's tracer wraps exists in the package.

A wrap point that a refactor removes or renames would otherwise show only as
`trace.missing_wraps` in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _wrap_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAP_POINTS


def test_every_wrap_point_resolves():
    points = _wrap_points()
    assert points
    missing = [f"{module}.{attr}" for module, attr, *_ in points
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert missing == []
