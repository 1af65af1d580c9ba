"""The benchmark workloads: the CLI commands each one runs, made from a seed,
and the checks every run's outputs must pass.

The default seed (0) gives the nominal inputs, whose outputs are also compared
with the values pinned in reference.json.  Any other seed moves X by up to 3%
and draws the charsum primes from the primes below 100 other than 3; those
runs are checked against invariants that need no pinned value.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0
X_JITTER = 0.03
CHARSUM_PRIMES = tuple(p for p in range(2, 100)
                       if p != 3 and all(p % q for q in range(2, p)))
REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())

# A check takes the outputs (file name -> bytes), the workload parameters and
# the pinned values (None for a non-default seed) and returns the number of
# records the outputs hold plus every problem found.
Check = Callable[[dict, dict, dict | None], tuple[int, list[str]]]


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]  # CLI arguments; the run adds `--out <dir>/<out>`
    out: str


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    commands: tuple[Command, ...]
    check: Check
    pins: dict | None


def make_workload(name: str, seed: int) -> Workload:
    if name not in _NOMINAL:
        raise KeyError(f"unknown workload {name!r}; expected one of {sorted(_NOMINAL)}")
    params = dict(_NOMINAL[name])
    if seed == DEFAULT_SEED:
        return build_workload(name, params, REFERENCE[name])
    rng = random.Random(f"{name}/{seed}")
    if "x" in params:
        params["x"] = round(params["x"] * (1.0 + rng.uniform(-X_JITTER, X_JITTER)))
    if "primes" in params:
        params["primes"] = tuple(sorted(rng.sample(CHARSUM_PRIMES, len(params["primes"]))))
    return build_workload(name, params, None)


def build_workload(name: str, params: dict, pins: dict | None) -> Workload:
    """The commands and check of workload `name` for the given parameters."""
    if name.startswith("density-"):
        commands = (Command(("density", "--x", str(params["x"]), "--beta", params["beta"]),
                            "density.csv"),)
        check = check_density
    elif name == "audit":
        commands = (Command(("verify",), "verify.txt"),
                    Command(("charsum", "--ymax", str(params["ymax"]),
                             "--primes", ",".join(map(str, params["primes"]))), "charsum.txt"))
        check = check_audit
    else:
        commands = (Command(("enumerate", "--x", str(params["x"])), "catalog.txt"),)
        check = check_catalog
    return Workload(name, params, commands, check, pins)


_NOMINAL = {
    "density-deep": {"x": 10**9, "beta": "0.2"},
    "density-wide": {"x": 10**8, "beta": "0.4"},
    "audit": {"ymax": 10**5, "primes": (7, 13, 31)},
    "catalog": {"x": 10**12},
}

WORKLOADS = tuple(_NOMINAL)


# -- density ------------------------------------------------------------------------

DENSITY_COLUMNS = "D,e3,d1,d2,conductor,archimedean,gamma_term,prime_sum,total"
KERNELS = ("U", "Sp", "O", "SOeven", "SOodd")
TOL = 1e-12


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol


def check_density(outputs: dict, params: dict, pins: dict | None) -> tuple[int, list[str]]:
    lines = outputs["density.csv"].decode().splitlines()
    x, beta = params["x"], float(params["beta"])
    problems: list[str] = []
    if lines[:3] != ["# cyclocubic density table", f"# x={x} beta={beta} mode=kummer",
                     DENSITY_COLUMNS]:
        return 0, [f"unexpected density header {lines[:3]!r}"]
    try:
        cut = lines.index("# summary")
    except ValueError:
        return 0, ["density output has no summary"]
    rows = lines[3:cut]
    summary = dict(line[2:].split("=", 1) for line in lines[cut + 1:cut + 5])
    prime_sums = []
    previous = None
    for row in rows:
        cols = row.split(",")
        D, e3, d1, d2, f = map(int, cols[:5])
        arch, gam, ps, total = map(float, cols[5:])
        problems += _label_problems(x, D, e3, d1, d2, f)
        if not all(map(math.isfinite, (arch, gam, ps, total))):
            problems.append(f"non-finite value in row {row}")
        elif not _close(total, arch - ps + gam, 1e-9):
            problems.append(f"total != archimedean - prime_sum + gamma_term in row {row}")
        if previous is not None and (f, D) <= previous:
            problems.append(f"rows not in (conductor, D) order at D={D}")
        previous = (f, D)
        prime_sums.append(ps)
    count = int(summary.get("count", -1))
    if count != len(rows) or count == 0:
        problems.append(f"count={count} but {len(rows)} rows")
        return len(rows), problems
    t = float(summary["T"])
    if not _close(t, math.fsum(prime_sums) / count):
        problems.append(f"T={t!r} is not the mean of the prime_sum column")
    if not math.isfinite(float(summary["average"])):
        problems.append("non-finite average")
    refs = {k: float(v) for k, v in
            (item.split(":") for item in summary["references"].split())}
    square_sum = refs.get("Sp", 0.0)
    if (list(refs) != list(KERNELS) or refs["U"] != 0.0 or square_sum <= 0.0
            or any(refs[g] != -square_sum for g in KERNELS[2:])):
        problems.append(f"references break the U=0, Sp=-O=-SO symmetry: {refs}")
    cls = lines[cut + 5].split()
    if cls[:1] != ["#"] or len(cls) != 4:
        return len(rows), problems + [f"unexpected classification line {lines[cut + 5]!r}"]
    kernel = cls[1].removeprefix("classification=")
    margin = float(cls[2].removeprefix("margin="))
    if kernel != "U" or cls[3] != "ambiguous=False":
        problems.append(f"classification {kernel} {cls[3]}, expected an unambiguous U")
    if not _close(margin, min(abs(t - square_sum), abs(t + square_sum)) - abs(t)):
        problems.append(f"margin={margin!r} does not follow from T and the references")
    if pins is not None:
        if count != pins["count"]:
            problems.append(f"count={count}, pinned {pins['count']}")
        if not _close(t, pins["T"]):
            problems.append(f"T={t!r}, pinned {pins['T']!r}")
        for g in KERNELS:
            if not _close(refs.get(g, math.nan), pins["references"][g]):
                problems.append(f"reference {g}={refs.get(g)!r}, pinned {pins['references'][g]!r}")
        if kernel != pins["classification"] or not _close(margin, pins["margin"]):
            problems.append(f"classification {kernel} margin={margin!r}, pinned "
                            f"{pins['classification']} margin={pins['margin']!r}")
    return len(rows), problems


def _label_problems(x: int, D: int, e3: int, d1: int, d2: int, conductor: int) -> list[str]:
    """The label's own invariants, recomputed without the package."""
    problems = []
    if D != 3**e3 * d1 * d2 * d2 or e3 not in (0, 1, 2) or math.gcd(d1, d2) != 1:
        problems.append(f"D={D} is not 3^{e3} * {d1} * {d2}^2 with coprime parts")
    if conductor != (9 if e3 else 1) * d1 * d2:
        problems.append(f"conductor {conductor} of D={D} should be {(9 if e3 else 1) * d1 * d2}")
    if not x <= conductor * conductor <= 2 * x:
        problems.append(f"discriminant {conductor * conductor} of D={D} outside [{x}, {2 * x}]")
    if D >= 3 ** (2 * e3 % 3) * d2 * d1 * d1:
        problems.append(f"D={D} is not the canonical label of its field")
    return problems


# -- audit: verify, then charsum ---------------------------------------------------------


def check_audit(outputs: dict, params: dict, pins: dict | None) -> tuple[int, list[str]]:
    problems: list[str] = []
    report = outputs["verify.txt"].decode().splitlines()
    probes = [line for line in report if line and not line.startswith(("#", " "))]
    footer = report[-1] if report else ""
    if footer != f"# probes={len(probes)} failed=0":
        problems.append(f"verify footer {footer!r} for {len(probes)} probe lines")
    problems += [f"failed probe: {line}" for line in probes if ": FAIL" in line]
    if pins is not None and len(probes) != pins["probes"]:
        problems.append(f"{len(probes)} probes, pinned {pins['probes']}")

    lines = outputs["charsum.txt"].decode().splitlines()
    if len(lines) < 3 or lines[0] != "# cyclocubic character pair-sums" \
            or not lines[1].startswith(f"# ymax={params['ymax']} grid=") \
            or lines[2] != "p,Y,value_a,value_b,magnitude,fitted_exponent":
        return len(probes), problems + [f"unexpected charsum header {lines[:3]!r}"]
    grid = [int(y) for y in lines[1].split("grid=", 1)[1].split(",")]
    values = []
    exponents: dict[int, set] = {}
    for row in lines[3:]:
        p, y, a, b, magnitude, exponent = row.split(",")
        p, y, a, b = int(p), int(y), int(a), int(b)
        values.append([p, y, a, b])
        exponents.setdefault(p, set()).add(exponent)
        if not _close(float(magnitude), math.sqrt(a * a - a * b + b * b), 1e-9):
            problems.append(f"|{a}+{b}w| != {magnitude} at p={p} Y={y}")
    expected = [[p, y] for p in params["primes"] for y in grid]
    if [v[:2] for v in values] != expected:
        problems.append("charsum rows do not cover every (p, Y) of the grid once, in order")
    if any(len(e) != 1 or not math.isfinite(float(next(iter(e)))) for e in exponents.values()):
        problems.append("fitted exponent not one finite value per prime")
    if pins is not None and (grid != pins["grid"] or values != pins["values"]):
        problems.append("charsum Z[w] values differ from the pinned ones")
    return len(probes) + len(values), problems


# -- catalog ------------------------------------------------------------------------------


def check_catalog(outputs: dict, params: dict, pins: dict | None) -> tuple[int, list[str]]:
    from cyclocubic.fields import record_from_line

    data = outputs["catalog.txt"]
    x = params["x"]
    lines = data.decode().splitlines()
    problems: list[str] = []
    if lines[:2] != ["# cyclocubic catalog", f"# x={x}"] or not lines[2].startswith("# count="):
        return 0, [f"unexpected catalog header {lines[:3]!r}"]
    body = lines[3:]
    if int(lines[2].removeprefix("# count=")) != len(body) or not body:
        problems.append(f"{lines[2]} but {len(body)} records")
    previous = None
    for line in body:
        rec = record_from_line(line)
        label = rec.label
        found = _label_problems(x, rec.D, label.e3, label.d1, label.d2, rec.conductor)
        if rec.discriminant != rec.conductor ** 2 or rec.poly_a != rec.D:
            found.append(f"discriminant or polyA of D={rec.D} differs from its recomputed value")
        if previous is not None and (rec.conductor, rec.D) <= previous:
            found.append(f"records not in (conductor, D) order at D={rec.D}")
        previous = (rec.conductor, rec.D)
        problems += found
        if len(problems) > 20:
            break
    if pins is not None and hashlib.sha256(data).hexdigest() != pins["sha256"]:
        problems.append("catalog sha256 differs from the pinned one")
    return len(body), problems
