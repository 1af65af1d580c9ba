"""The benchmark's span tracer still finds every function it wraps."""

import importlib
import importlib.util
from pathlib import Path

from cyclocubic import cli, fields

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_functions_exist():
    # `perfbench/run.py --trace 1` wraps each entry with a bare getattr, so a
    # renamed or deleted function would only surface in a traced benchmark run
    tracing = _load_tracing()
    assert tracing.WRAPPED
    missing = [f"{module}.{function}" for module, function in tracing.WRAPPED
               if not callable(getattr(importlib.import_module(f"cyclocubic.{module}"),
                                       function, None))]
    assert missing == []


def test_recorder_counts_the_enumerated_fields(monkeypatch, capsys):
    # the traced metric fields.enumerate_family.records takes len() of what
    # enumerate_family returns; it must equal the catalog's count, 67 at X = 1e6
    tracing = _load_tracing()
    recorder = tracing.Recorder()
    monkeypatch.setattr(cli, "enumerate_family",
                        recorder.observe("fields.enumerate_family", fields.enumerate_family))
    assert cli.main(["enumerate", "--x", "1000000"]) == cli.EXIT_OK
    assert "# count=67" in capsys.readouterr().out.splitlines()
    assert recorder.enumerated == 67
