"""The benchmark's span tracer still finds every function it wraps, the
package imports nothing past numpy that tests alone need, and the CLI starts
numpy with one BLAS thread."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cyclocubic import cli, fields, lfunctions, verify

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def _fresh_python(*argv: str, **env: str) -> str:
    """The standard output of `python *argv`, run to success as a process of its own.

    The package is on its path, `env` is laid over this process's environment,
    and OPENBLAS_NUM_THREADS is unset unless `env` names it: importing the CLI
    set it here, and a child that inherited it would not start as a user's does.
    """
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    inherited = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, *argv], env={**inherited, "PYTHONPATH": path, **env},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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


def test_character_functions_name_a_character_alike():
    # the table and the per-pair references it is checked against name a
    # character by the same two arguments, with the same defaults
    functions = (lfunctions.lambda_table, lfunctions.character_symbol,
                 lfunctions.splitting_type, lfunctions.lambda_coefficient)
    for name, default in (("element", lfunctions.KUMMER), ("conjugate_prime", False)):
        params = [inspect.signature(f).parameters.get(name) for f in functions]
        assert None not in params, name
        assert [p.default for p in params] == [default] * len(functions), name
    assert all(inspect.signature(f).parameters["conjugate_prime"].kind
               == inspect.Parameter.KEYWORD_ONLY for f in functions)


def test_traced_run_records_every_wrapped_function(tmp_path):
    # `perfbench/run.py --trace 1` runs the CLI under tracing.py in a child of
    # its own; a module the package does not list in sys.modules by the time
    # the CLI is imported would fail only there, at Recorder.install
    tracing = _load_tracing()
    argv = ["enumerate", "--x", "1000000", "--out"]
    spans, traced, plain = tmp_path / "spans.npz", tmp_path / "traced.txt", tmp_path / "plain.txt"
    _fresh_python(str(TRACING), str(spans), *argv, str(traced))
    _fresh_python("-m", "cyclocubic.cli", *argv, str(plain))
    assert traced.read_bytes() == plain.read_bytes()
    with np.load(spans) as data:
        names = json.loads(str(data["meta"]))["names"]
    assert sorted(names) == sorted(tracing.qualified(*entry) for entry in tracing.WRAPPED)


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


def test_probe_suite_calls_every_traced_verify_function(monkeypatch):
    # each verify.* layer metric of the audit workload reads the spans of one
    # function; one the suite stopped calling would read 0 without notice
    tracing = _load_tracing()
    names = [function for module, function, _ in tracing.SPAN_METRICS if module == "verify"]
    assert names
    called = set()

    def counted(name, func):
        def wrapper(*args, **kwargs):
            called.add(name)
            return func(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    verify.run_probe_suite()
    assert sorted(set(names) - called) == []


def test_package_imports_neither_scipy_nor_mpmath():
    # the runtime depends on numpy alone; scipy and mpmath are test oracles
    found = []
    for path in sorted((ROOT / "src" / "cyclocubic").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names
                      if name.split(".")[0] in ("scipy", "mpmath")]
    assert found == []


def test_cli_import_loads_no_quadrature():
    # numpy.polynomial (Gauss-Legendre nodes) serves the test oracles only;
    # a command that never integrates numerically must not pay its import
    code = "import sys, cyclocubic.cli; print('numpy.polynomial' in sys.modules)"
    out = _fresh_python("-c", code)
    assert out.strip() == "False"


def test_cli_import_runs_no_verify():
    # only the verify and charsum commands read cyclocubic.verify; importing the
    # CLI lists it in sys.modules (a lazy module, so tools that look it up there
    # still find it), bound on the package as the CLI's verify_mod, but compiles
    # and runs none of it until an attribute is read; importing it by name then
    # leaves the package's binding in place
    code = ("import sys, cyclocubic, cyclocubic.cli as cli; m = sys.modules['cyclocubic.verify']; "
            "print(m is cyclocubic.verify is cli.verify_mod, "
            "'run_probe_suite' in object.__getattribute__(m, '__dict__')); "
            "import cyclocubic.verify; print(cyclocubic.verify.run_probe_suite.__module__)")
    out = _fresh_python("-c", code)
    assert out.split() == ["True", "False", "cyclocubic.verify"]


def test_cli_import_runs_no_density_or_lfunctions():
    # density and lfunctions run only under the commands that read them; the
    # CLI lists both in sys.modules as lazy modules but runs neither on import
    code = ("import sys, cyclocubic.cli as cli; "
            "d, l = (sys.modules[f'cyclocubic.{n}'] for n in ('density', 'lfunctions')); "
            "print('family_average' in object.__getattribute__(d, '__dict__'), "
            "'lambda_table' in object.__getattribute__(l, '__dict__'), "
            "cli.density_mod.family_average.__module__, d.lambda_table.__module__)")
    out = _fresh_python("-c", code)
    assert out.split() == ["False", "False", "cyclocubic.density", "cyclocubic.lfunctions"]


def test_cli_runs_blas_on_one_thread():
    # numpy's OpenBLAS starts a worker for every further core at import, and
    # it spins through commands whose only BLAS calls are on a few tiny arrays:
    # the CLI asks for one thread before numpy loads, unless the user set a number
    code = ("import cyclocubic.cli, numpy, os; print(os.environ['OPENBLAS_NUM_THREADS'], "
            "len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else '-')")
    value, threads = _fresh_python("-c", code).split()
    assert value == "1"
    if Path("/proc/self/task").is_dir():
        assert threads == "1"
    assert _fresh_python("-c", code, OPENBLAS_NUM_THREADS="2").split()[0] == "2"


def test_package_names_are_their_submodules_objects():
    # the package resolves its names at first read (PEP 562); each is the very
    # object of the submodule that defines it, and each submodule is itself
    import cyclocubic

    submodules = {name: importlib.import_module(f"cyclocubic.{name}")
                  for name in ("eisenstein", "fields", "lfunctions", "density")}
    assert set(submodules) < set(cyclocubic.__all__)
    for name in cyclocubic.__all__:
        if name in submodules:
            assert getattr(cyclocubic, name) is submodules[name]
        else:
            owners = [m for m in submodules.values() if name in vars(m)]
            assert owners and all(getattr(cyclocubic, name) is getattr(m, name)
                                  for m in owners), name
    with pytest.raises(AttributeError):
        cyclocubic.no_such_name
