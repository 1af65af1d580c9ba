"""Benchmark of the cyclocubic CLI: one workload, timed end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every command of a workload runs the real
CLI (`python3 -m cyclocubic.cli`, with `src/` on PYTHONPATH) as a fresh
process, one at a time, so each run pays the cold caches a user pays.

--trace 0  measures set-up time (interpreter start plus `import cyclocubic.cli`,
           several times), then repeats the workload for about S seconds and
           reports the median of every end-to-end metric over the runs whose
           outputs passed the checks.
--trace 1  runs the workload once untraced and once under perfbench/tracing.py,
           requires byte-identical outputs, and reports the per-layer metrics.

Every run's outputs are checked (perfbench/workloads.py); a run that exits
non-zero or fails a check counts in `failed` and is left out of the timings.
The last line printed is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  The full record of a run, with the environment it ran
in, is also written to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0  # every child is killed past this point of the run

sys.path[:0] = [str(HERE), str(SRC)]  # the catalog check re-parses with the package
from workloads import WORKLOADS, Workload, make_workload  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark cannot run here at all; no result is printed."""


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    stdout: str
    stderr: str


@dataclass
class Sample:
    """One run of every command of a workload."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    records: int = 0
    problems: list[str] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], deadline: float, logs: Path) -> Child:
    """Run one process to completion; wall time, CPU time and peak RSS from wait4.

    Its standard output and error go to files under `logs`, so a chatty child
    cannot block on a full pipe.
    """
    logs.mkdir(parents=True, exist_ok=True)
    with open(logs / "stdout", "wb") as out, open(logs / "stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], max(0.0, deadline - time.monotonic()))
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = (logs / "stderr").read_text(errors="replace")
    if not ready:
        stderr += f"\nkilled after {wall:.1f} s: the run's time limit was reached"
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode, (logs / "stdout").read_text(errors="replace"), stderr)


def command_argv(prefix: list[str], cmd, out_dir: Path) -> list[str]:
    return [*prefix, *cmd.args, "--out", str(out_dir / cmd.out)]


def run_workload(workload: Workload, out_dir: Path, deadline: float) -> Sample:
    """Run the workload's commands in order, then check what they wrote."""
    out_dir.mkdir(parents=True, exist_ok=True)
    sample = Sample()
    for cmd in workload.commands:
        child = run_child(command_argv([sys.executable, "-m", "cyclocubic.cli"], cmd, out_dir),
                          deadline, out_dir / "logs")
        sample.wall_s += child.wall_s
        sample.cpu_s += child.cpu_s
        sample.peak_rss_mb = max(sample.peak_rss_mb, child.rss_mb)
        if child.exit_code != 0:
            tail = child.stderr.strip().splitlines()[-1:] or [""]
            sample.problems.append(f"`{' '.join(cmd.args)}` exited {child.exit_code}: {tail[0]}")
            return sample
        sample.outputs[cmd.out] = (out_dir / cmd.out).read_bytes()
    check_sample(workload, sample)
    return sample


def check_sample(workload: Workload, sample: Sample) -> None:
    try:
        sample.records, problems = workload.check(sample.outputs, workload.params, workload.pins)
    except Exception as exc:  # a malformed output is a failed run, not a crash
        sample.records, problems = 0, [f"unreadable output: {exc!r}"]
    sample.problems += problems


def measure_setup(work: Path, deadline: float) -> list[float]:
    """Interpreter start plus `import cyclocubic.cli`, each in a fresh process.

    A first, untimed import checks that the package comes from this checkout
    (and leaves its bytecode cached, as an installed package has it).
    """
    logs = work / "setup"
    first = run_child([sys.executable, "-c",
                       "import cyclocubic.cli as c; print(c.__file__, end='')"], deadline, logs)
    if first.exit_code != 0 or not Path(first.stdout).is_relative_to(SRC):
        raise BenchError(f"cannot import cyclocubic.cli from {SRC}: {first.stderr.strip()}")
    return [run_child([sys.executable, "-c", "import cyclocubic.cli"], deadline, logs).wall_s
            for _ in range(SETUP_REPEATS)]


def end_to_end(samples: list[Sample], setup: list[float]) -> dict[str, float | None]:
    """Median of every end-to-end metric over the samples that passed."""
    good = [s for s in samples if s.ok]

    def median(values):
        return statistics.median(values) if values else None

    return {
        "wall_s": median([s.wall_s for s in good]),
        "cpu_s": median([s.cpu_s for s in good]),
        "records_per_s": median([s.records / s.wall_s for s in good]),
        "peak_rss_mb": median([s.peak_rss_mb for s in good]),
        "setup_s": median(setup),
    }


def timed_runs(workload: Workload, seconds: float, work: Path, deadline: float):
    setup = measure_setup(work, deadline)
    samples: list[Sample] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        out_dir = work / f"run{len(samples)}"
        samples.append(run_workload(workload, out_dir, deadline))
        samples[-1].outputs.clear()
        shutil.rmtree(out_dir)
        lap = time.monotonic() - began
        # start another run only if it should end within the measuring time
        if time.monotonic() - start + lap > seconds or time.monotonic() + lap > deadline:
            break
    return end_to_end(samples, setup), samples, setup


def traced_runs(workload: Workload, work: Path, deadline: float):
    """One untraced run, then the same commands traced; outputs must match byte for byte."""
    from tracing import SpanTotals, layer_metrics

    plain = run_workload(workload, work / "plain", deadline)
    traced = Sample(records=plain.records)
    totals = SpanTotals()
    out_dir = work / "traced"
    out_dir.mkdir()
    if not plain.ok:
        traced.problems.append("the untraced run failed, so the traced run was skipped")
    for i, cmd in enumerate(workload.commands if plain.ok else ()):
        spans = work / f"spans{i}.npz"
        child = run_child(command_argv([sys.executable, str(HERE / "tracing.py"), str(spans)],
                                       cmd, out_dir), deadline, out_dir / "logs")
        traced.wall_s += child.wall_s
        traced.cpu_s += child.cpu_s
        traced.peak_rss_mb = max(traced.peak_rss_mb, child.rss_mb)
        if child.exit_code != 0:
            traced.problems.append(f"traced `{' '.join(cmd.args)}` exited {child.exit_code}")
            break
        traced.outputs[cmd.out] = (out_dir / cmd.out).read_bytes()
        if traced.outputs[cmd.out] != plain.outputs[cmd.out]:
            traced.problems.append(f"traced output {cmd.out} differs from the untraced one")
        totals.add_file(spans)
    metrics = layer_metrics(totals, fields=plain.records,
                            output_bytes=sum(map(len, traced.outputs.values())),
                            overhead_s=traced.wall_s - plain.wall_s)
    return {name: value for name, (value, _) in metrics.items()}, [plain, traced], []


def environment() -> dict:
    import numpy

    commit = None
    try:  # the ceiling keeps git from reading above the checkout
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "cyclocubic").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "loadavg": os.getloadavg()}


def result_line(metrics: dict, samples: list[Sample], trace: bool) -> dict:
    failed = sum(not s.ok for s in samples)
    return {"correct": failed == 0, "attempted": len(samples), "failed": failed,
            "metrics": {spec["name"]: {"value": metrics[spec["name"]], "unit": spec["unit"]}
                        for spec in BENCHMARK["per_layer" if trace else "end_to_end"]}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "cyclocubic" / "cli.py").is_file():
        print(f"error: no cyclocubic sources under {SRC}", file=sys.stderr)
        return 2
    workload = make_workload(args.workload, args.seed)
    env = environment()
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        if args.trace:
            metrics, samples, setup = traced_runs(workload, work, deadline)
        else:
            metrics, samples, setup = timed_runs(workload, args.seconds, work, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = result_line(metrics, samples, bool(args.trace))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "params": workload.params, "env": env,
              "samples": [{"wall_s": s.wall_s, "cpu_s": s.cpu_s, "peak_rss_mb": s.peak_rss_mb,
                           "records": s.records, "problems": s.problems} for s in samples],
              "setup_s": setup, **result}
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
     ).write_text(json.dumps(record, indent=1, default=list) + "\n")

    print(f"# {args.workload} seed={args.seed} params={json.dumps(workload.params)}")
    print(f"# env {json.dumps(env)}")
    for i, s in enumerate(samples):
        status = "ok" if s.ok else "FAILED: " + "; ".join(s.problems[:5])
        print(f"# run {i}: wall {s.wall_s:.3f} s, cpu {s.cpu_s:.3f} s, "
              f"rss {s.peak_rss_mb:.1f} MB, {s.records} records, {status}")
    print(f"# failed_frac {result['failed'] / result['attempted']:.3f} "
          f"({result['failed']} of {result['attempted']})")
    for name, m in result["metrics"].items():
        print(f"{name:45s} {m['value']!r:>24} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
