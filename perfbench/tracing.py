"""Span tracing for the benchmark's traced runs.

Run as a script, this is the traced child process:

    python3 perfbench/tracing.py SPANS_FILE CLI_ARG...

It wraps the functions listed in WRAPPED at every module of the cyclocubic
package that binds them by name (and in module-level dispatch tables such as
`cli._COMMANDS`), runs the CLI with the remaining arguments, and writes every
recorded span (function, parent span, start, end) to SPANS_FILE when the
command ends.  The package's source files are not touched.

Imported, it turns span files into the per-layer metrics (`layer_metrics`).
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# Per-layer metrics read straight off the spans: (module, function, kinds).
# Layers are the package modules; a metric is named "<layer>.<function>.<kind>",
# with the private module `_primes` reported as the layer "primes".
SPAN_METRICS = (
    ("density", "gamma_term", ("calls", "self_s")),
    ("density", "prime_sum", ("self_s",)),
    ("density", "reference_statistics", ("self_s",)),
    ("density", "family_average", ("self_s",)),
    ("lfunctions", "lambda_coefficient", ("calls", "self_s")),
    ("lfunctions", "splitting_type", ("calls", "self_s")),
    ("fields", "three_split_factorization", ("calls", "self_s")),
    ("fields", "enumerate_family", ("self_s",)),
    ("fields", "record_to_line", ("self_s",)),
    ("eisenstein", "cubic_residue_symbol", ("calls", "self_s")),
    ("eisenstein", "prime_above", ("calls", "self_s")),
    ("eisenstein", "euclidean_gcd", ("calls", "self_s")),
    ("_primes", "factorize", ("calls", "self_s")),
    ("_primes", "primes_up_to", ("calls", "self_s")),
    ("_primes", "smallest_factor_sieve", ("self_s",)),
    ("verify", "splitting_oracle_probe", ("self_s",)),
    ("verify", "choice_invariance_probe", ("self_s",)),
    ("verify", "ramification_audit_suite", ("self_s",)),
    ("verify", "ideal_count_crosscheck", ("self_s",)),
    ("verify", "genseries_compare", ("self_s",)),
    ("verify", "family_count_scaling", ("self_s",)),
    ("verify", "char_sum", ("calls", "self_s")),
    ("cli", "cmd_enumerate", ("self_s",)),
    ("cli", "cmd_density", ("self_s",)),
    ("cli", "cmd_verify", ("self_s",)),
    ("cli", "cmd_charsum", ("self_s",)),
)

# run_probe_suite is wrapped too, only to tell the char_sum calls of the
# charsum_conjugation probe (made directly by the suite) from the others.
WRAPPED = [(module, function) for module, function, _ in SPAN_METRICS] + [
    ("verify", "run_probe_suite")]

UNITS = {"calls": "count", "self_s": "s"}


def layer_name(module: str) -> str:
    return module.lstrip("_")


def qualified(module: str, function: str) -> str:
    return f"{module}.{function}"


# -- recording (child side) -------------------------------------------------------


class Recorder:
    """Spans kept in flat arrays: one entry per call, linked to its parent."""

    def __init__(self):
        self.names: list[str] = []
        self.fn = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.distinct_p: set[int] = set()
        self.enumerated = 0

    def wrap(self, name: str, func):
        fid = len(self.names)
        self.names.append(name)
        fn, parent, start, end, stack = self.fn, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def span(*args, **kwargs):
            idx = len(fn)
            fn.append(fid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return span

    def observe(self, name: str, func):
        """Extra counts: distinct p seen by the cached registry, records enumerated."""
        if name == "eisenstein.prime_above":
            seen = self.distinct_p

            @functools.wraps(func)
            def prime_above(p, *args, **kwargs):
                seen.add(p)
                return func(p, *args, **kwargs)

            return prime_above
        if name == "fields.enumerate_family":
            recorder = self

            @functools.wraps(func)
            def enumerate_family(*args, **kwargs):
                records = func(*args, **kwargs)
                recorder.enumerated += len(records)
                return records

            return enumerate_family
        return func

    def install(self) -> None:
        import cyclocubic.cli  # noqa: F401  (imports every layer)

        modules = [m for n, m in sys.modules.items()
                   if n == "cyclocubic" or n.startswith("cyclocubic.")]
        for module, function in WRAPPED:
            original = getattr(sys.modules[f"cyclocubic.{module}"], function)
            name = qualified(module, function)
            _rebind(modules, original, self.wrap(name, self.observe(name, original)))

    def save(self, path: str) -> None:
        import numpy as np

        meta = {"names": self.names, "distinct_p": len(self.distinct_p),
                "enumerated": self.enumerated}
        np.savez(path, fn=np.frombuffer(self.fn, dtype=np.uint16),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64),
                 meta=np.array(json.dumps(meta)))


def _rebind(modules, original, replacement) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if entry is original:
                        value[key] = replacement


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    from cyclocubic import cli

    try:
        return cli.main(cli_args)
    finally:
        recorder.save(spans_path)


# -- analysis (benchmark side) -------------------------------------------------------


class SpanTotals:
    """Calls, self time and inclusive time per wrapped function, summed over files."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, float] = {}
        self.total_ns: dict[str, float] = {}
        self.conjugation_ns = 0.0  # char_sum spans called by run_probe_suite
        self.distinct_p = 0
        self.enumerated = 0

    def add_file(self, path) -> None:
        import numpy as np

        with np.load(path) as data:
            fn = data["fn"].astype(np.int64)
            parent = data["parent"]
            dur = (data["end"] - data["start"]).astype(np.float64)
            meta = json.loads(str(data["meta"]))
        names = meta["names"]
        self.distinct_p += meta["distinct_p"]
        self.enumerated += meta["enumerated"]
        rooted = parent >= 0
        child_ns = np.bincount(parent[rooted], weights=dur[rooted], minlength=len(fn))
        self_ns = dur - child_ns
        calls = np.bincount(fn, minlength=len(names))
        self_sum = np.bincount(fn, weights=self_ns, minlength=len(names))
        total_sum = np.bincount(fn, weights=dur, minlength=len(names))
        for i, name in enumerate(names):
            self.calls[name] = self.calls.get(name, 0) + int(calls[i])
            self.self_ns[name] = self.self_ns.get(name, 0.0) + float(self_sum[i])
            self.total_ns[name] = self.total_ns.get(name, 0.0) + float(total_sum[i])
        char_sum = names.index("verify.char_sum")
        suite = names.index("verify.run_probe_suite")
        parent_fn = np.where(rooted, fn[np.maximum(parent, 0)], -1)
        under_suite = (fn == char_sum) & (parent_fn == suite)
        self.conjugation_ns += float(self_ns[under_suite].sum())


def layer_metrics(totals: SpanTotals, fields: int, output_bytes: int,
                  overhead_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    for module, function, kinds in SPAN_METRICS:
        name = qualified(module, function)
        for kind in kinds:
            value = (totals.calls.get(name, 0) if kind == "calls"
                     else totals.self_ns.get(name, 0.0) / 1e9)
            out[f"{layer_name(module)}.{function}.{kind}"] = (value, UNITS[kind])
    gamma_calls = totals.calls.get("density.gamma_term", 0)
    out["density.gamma_calls_per_field"] = (gamma_calls / fields if fields else 0.0, "calls/field")
    symbols = totals.calls.get("eisenstein.cubic_residue_symbol", 0)
    symbol_s = totals.total_ns.get("eisenstein.cubic_residue_symbol", 0.0) / 1e9
    out["eisenstein.symbols_per_s"] = (symbols / symbol_s if symbol_s else 0.0, "1/s")
    out["eisenstein.prime_above.distinct_p"] = (totals.distinct_p, "count")
    out["fields.enumerate_family.records"] = (totals.enumerated, "count")
    out["verify.charsum_conjugation.self_s"] = (totals.conjugation_ns / 1e9, "s")
    out["cli.output_bytes"] = (output_bytes, "bytes")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
