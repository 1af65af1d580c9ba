"""Self-test of the benchmark's output checks and result reporting.

    python3 perfbench/selftest.py

Runs a few small CLI commands from this checkout, then shows that:

* untampered outputs pass their checks, and tampered ones (a perturbed T, a
  moved conductor, a changed Z[w] value, a failed probe, a changed catalog
  byte) fail them;
* a command that exits non-zero is counted as failed and left out of the
  timings;
* the result printed for either mode lists every metric name in
  BENCHMARK.json, with its unit;
* the traced run reproduces the untraced outputs byte for byte;
* without the package sources the benchmark exits non-zero and prints no result.

Exits 0 when every case holds, 1 otherwise.  Takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

import run
from workloads import build_workload

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        FAILURES.append(what)


def tampered(sample_outputs: dict, name: str, old: str, new: str) -> dict:
    text = sample_outputs[name].decode()
    assert old in text, f"{old!r} not in {name}"
    return {**sample_outputs, name: text.replace(old, new, 1).encode()}


def problems(workload, outputs: dict, pins=None) -> list[str]:
    sample = run.Sample(outputs=outputs)
    run.check_sample(dataclasses.replace(workload, pins=pins), sample)
    return sample.problems


def density_cases(work, deadline) -> run.Sample:
    wl = build_workload("density-wide", {"x": 10**6, "beta": "0.4"}, None)
    sample = run.run_workload(wl, work / "density", deadline)
    expect(sample.ok and sample.records > 0, f"small density run passes ({sample.problems[:2]})")
    lines = sample.outputs["density.csv"].decode().splitlines()
    summary = dict(line[2:].split("=", 1) for line in lines if line.startswith("# ") and "=" in line)
    t = summary["T"]
    refs = {k: float(v) for k, v in (i.split(":") for i in summary["references"].split())}
    margin = summary["classification"].split()[1].removeprefix("margin=")
    pins = {"count": int(summary["count"]), "T": float(t), "references": refs,
            "classification": "U", "margin": float(margin)}
    expect(not problems(wl, sample.outputs, pins), "density output matches its own pins")
    bumped = repr(float(t) + 1e-9)
    expect(bool(problems(wl, tampered(sample.outputs, "density.csv", f"# T={t}", f"# T={bumped}"))),
           "density: T perturbed by 1e-9 fails")
    expect(bool(problems(wl, sample.outputs, {**pins, "T": float(t) + 1e-9})),
           "density: output differing from pinned T by 1e-9 fails")
    row = lines[3].split(",")
    moved = ",".join(row[:4] + [str(int(row[4]) + 1)] + row[5:])
    expect(bool(problems(wl, tampered(sample.outputs, "density.csv", lines[3], moved))),
           "density: a conductor that does not follow from its label fails")
    expect(bool(problems(wl, tampered(sample.outputs, "density.csv", "classification=U",
                                      "classification=Sp"))),
           "density: classification Sp fails")
    expect(bool(problems(wl, {"density.csv": b"garbage\n"})), "density: garbage output fails")
    return sample


def failing_exit_cases(work, deadline, good: run.Sample) -> None:
    wl = build_workload("density-deep", {"x": 10, "beta": "0.2"}, None)  # CLI rejects x < 1000
    bad = run.run_workload(wl, work / "exit", deadline)
    expect(not bad.ok and "exited 1" in bad.problems[0], "a non-zero exit fails the run")
    metrics = run.end_to_end([bad, good], [0.25])
    expect(metrics["wall_s"] == good.wall_s, "a failed run is left out of the timings")
    result = run.result_line(metrics, [bad, good], trace=False)
    expect(result["failed"] == 1 and result["attempted"] == 2 and not result["correct"],
           "a failed run is counted in failed and makes correct false")
    alone = run.result_line(run.end_to_end([bad], [0.25]), [bad], trace=False)
    expect(alone["metrics"]["wall_s"]["value"] is None,
           "with no passing run no time is reported")


def audit_cases(work, deadline) -> None:
    wl = build_workload("audit", {"ymax": 1000, "primes": (7, 13)}, None)
    charsum = wl.commands[1]
    child = run.run_child(run.command_argv([sys.executable, "-m", "cyclocubic.cli"],
                                           charsum, work), deadline, work / "logs")
    report = ("# cyclocubic verification report\n# p0=1000000 ymax=1000 s=2.0\n"
              "splitting_oracle: PASS labels=32 mismatches=0 pairs=2960\n"
              "    detail row\n"
              "genseries[p=13]: FINDING relative_gap=0.0095\n"
              "# probes=2 failed=0\n")
    outputs = {"verify.txt": report.encode(), "charsum.txt": (work / charsum.out).read_bytes()}
    expect(child.exit_code == 0 and not problems(wl, outputs), "small audit outputs pass")
    lines = outputs["charsum.txt"].decode().splitlines()
    pins = {"probes": 2, "grid": [int(y) for y in lines[1].split("grid=")[1].split(",")],
            "values": [[int(v) for v in r.split(",")[:4]] for r in lines[3:]]}
    expect(not problems(wl, outputs, pins), "audit outputs match their own pins")
    p, y, a, b, rest = lines[10].split(",", 4)
    changed = ",".join([p, y, str(-int(a) - 1), b, rest])
    expect(bool(problems(wl, tampered(outputs, "charsum.txt", lines[10], changed))),
           "audit: a changed Z[w] value fails")
    moved = [[p, y, a + 1, b] for p, y, a, b in pins["values"][:1]] + pins["values"][1:]
    expect(bool(problems(wl, outputs, {**pins, "values": moved})),
           "audit: a Z[w] value differing from the pinned one fails")
    expect(bool(problems(wl, tampered(outputs, "verify.txt", "failed=0", "failed=1"))),
           "audit: failed=1 fails")
    expect(bool(problems(wl, tampered(outputs, "verify.txt", ": PASS", ": FAIL"))),
           "audit: a FAIL probe line fails")
    expect(bool(problems(wl, outputs, {**pins, "probes": 18})),
           "audit: a probe count differing from the pinned one fails")


def catalog_cases(work, deadline) -> None:
    wl = build_workload("catalog", {"x": 10**7}, None)
    sample = run.run_workload(wl, work / "catalog", deadline)
    expect(sample.ok and sample.records > 0, f"small catalog run passes ({sample.problems[:2]})")
    data = sample.outputs["catalog.txt"]
    pins = {"sha256": hashlib.sha256(data).hexdigest()}
    expect(not problems(wl, sample.outputs, pins), "catalog matches its own sha256")
    line = data.decode().splitlines()[5]
    fields = dict(part.split("=") for part in line.split())
    bad_f = line.replace(f"conductor={fields['conductor']}",
                         f"conductor={int(fields['conductor']) + 9}")
    expect(bool(problems(wl, tampered(sample.outputs, "catalog.txt", line, bad_f))),
           "catalog: a conductor that does not follow from its label fails")
    bad_b = line.replace(f"polyB={fields['polyB']}", f"polyB={int(fields['polyB']) + 1}")
    expect(bool(problems(wl, tampered(sample.outputs, "catalog.txt", line, bad_b), pins)),
           "catalog: one changed byte fails the pinned sha256")
    wider = build_workload("catalog", {"x": 11 * 10**6}, None)
    expect(bool(problems(wider, tampered(sample.outputs, "catalog.txt", "# x=10000000",
                                         "# x=11000000"))),
           "catalog: records outside [X, 2X] fail")


def lists_every_metric(result: dict, key: str) -> None:
    printed = json.loads(json.dumps(result))["metrics"]
    specs = run.BENCHMARK[key]
    expect([m["name"] for m in specs] == list(printed)
           and all(printed[m["name"]]["unit"] == m["unit"] for m in specs)
           and all(isinstance(v["value"], (int, float)) for v in printed.values()),
           f"result lists every {key} metric of BENCHMARK.json with its unit")


def reporting_cases(work, deadline) -> None:
    wl = build_workload("density-wide", {"x": 10**6, "beta": "0.4"}, None)
    metrics, samples, _ = run.traced_runs(wl, work / "traced", deadline)
    expect(all(s.ok for s in samples), f"traced run reproduces the untraced outputs "
                                        f"({[p for s in samples for p in s.problems][:2]})")
    expect(metrics["density.gamma_term.calls"] > 0 and metrics["cli.output_bytes"] > 0,
           "traced run records spans")
    lists_every_metric(run.result_line(metrics, samples, trace=True), "per_layer")
    sample = run.Sample(wall_s=2.0, cpu_s=1.9, peak_rss_mb=30.0, records=10)
    lists_every_metric(run.result_line(run.end_to_end([sample], [0.2, 0.3]), [sample],
                                       trace=False), "end_to_end")


def bare_directory_case(work) -> None:
    bare = work / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "catalog",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           "without the sources the benchmark exits non-zero and prints no result")


def main() -> int:
    work = run.WORK / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    deadline = time.monotonic() + run.RUN_LIMIT_S
    try:
        good = density_cases(work, deadline)
        failing_exit_cases(work, deadline, good)
        audit_cases(work, deadline)
        catalog_cases(work, deadline)
        reporting_cases(work, deadline)
        bare_directory_case(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-test cases hold")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
