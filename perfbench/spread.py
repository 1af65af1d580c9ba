"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads density-deep,audit --seeds 1-10 [--out FILE]

Runs perfbench/run.py once per (workload, seed), one after another, and prints
for every end-to-end metric the median, the quartiles (statistics.quantiles,
n=4) and the spread: the distance between the quartiles as a share of the
median, next to the metric's bound in BENCHMARK.json.  With --out it also
writes every run's metrics and these summaries as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float], bound: float) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "bound": bound}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(args.seconds),
                                   "--trace", "0"], capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or [""]
            if proc.returncode != 0 or not last[0].startswith("{"):
                print(f"{workload} seed {seed}: no result\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(last[0])
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "correct": result["correct"], "metrics": metrics})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in metrics.items()), flush=True)
        summary = {m["name"]: summarize([r["metrics"][m["name"]] for r in runs], m["bound"])
                   for m in BENCHMARK["end_to_end"]}
        report[workload] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- above bound/3"
            print(f"  {workload:13s} {name:14s} median {s['median']:.5g}  "
                  f"spread {s['spread']:.4f}  bound {s['bound']}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
