"""The benchmark's span tracer still finds every function it wraps."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_functions_exist():
    # `perfbench/run.py --trace 1` wraps each entry with a bare getattr, so a
    # renamed or deleted function would only surface in a traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    missing = [f"{module}.{function}" for module, function in tracing.WRAPPED
               if not callable(getattr(importlib.import_module(f"cyclocubic.{module}"),
                                       function, None))]
    assert missing == []
