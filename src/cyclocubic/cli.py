"""Command-line orchestration: catalogs, density tables, verification reports.

Subcommands:

* enumerate  -- write the field catalog for discriminants in [X, 2X]
* density    -- per-field density table (CSV) plus the family summary
* verify     -- run the probe battery; exit 2 if an asserted probe fails
* charsum    -- character pair-sums over a log-spaced Y grid

All outputs are plain text with a config echo in the header, and every
command is deterministic: rerunning writes byte-identical files.  Exit
codes: 0 success, 1 usage, 2 assertion failure, 3 I/O.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from . import density as density_mod
from . import verify as verify_mod
from ._primes import is_prime
from .fields import (canonicalize, enumerate_family, make_record, parse_label,
                     record_from_line, record_to_line)
from .lfunctions import KUMMER, PAPER_LITERAL

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ASSERTION = 2
EXIT_IO = 3


@dataclass
class RunConfig:
    command: str
    x: int = 10**6
    beta: float = 0.2
    mode: str = KUMMER
    out: str | None = None
    catalog: str | None = None
    p0: int = 10**6
    ymax: int = 10**5
    s: float = 2.0
    primes: tuple[int, ...] = (7, 13, 31)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="cyclocubic",
                     description="Cyclic cubic fields and the one-level density of their zeros")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="output path (default: stdout)")

    sp = sub.add_parser("enumerate", help="catalog of fields with discriminant in [X, 2X]")
    sp.add_argument("--x", type=int, required=True)
    common(sp)

    sp = sub.add_parser("density", help="one-level density table and family summary")
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--beta", type=float, default=0.2)
    sp.add_argument("--mode", choices=[KUMMER, PAPER_LITERAL], default=KUMMER)
    sp.add_argument("--catalog", help="reuse a previous enumeration")
    common(sp)

    sp = sub.add_parser("verify", help="run the verification probe battery")
    sp.add_argument("--p0", type=int, default=10**6)
    sp.add_argument("--ymax", type=int, default=10**3)
    sp.add_argument("--s", type=float, default=2.0)
    common(sp)

    sp = sub.add_parser("charsum", help="character pair-sums over a log-spaced Y grid")
    sp.add_argument("--primes", default="7,13,31", help="comma-separated primes, none equal to 3")
    sp.add_argument("--ymax", type=int, default=10**5)
    common(sp)

    return parser


def _validate(cfg: RunConfig) -> str | None:
    if cfg.command in ("enumerate", "density") and cfg.x < 1000:
        return "--x must be at least 1000"
    if not 0.0 < cfg.beta < 1.0:
        return "--beta must lie strictly between 0 and 1"
    if cfg.command == "verify" and not cfg.s > 1.0:
        return "--s must exceed 1; the Euler products diverge at s <= 1"
    if cfg.command == "charsum":
        if 3 in cfg.primes:
            return "chi_p is undefined at p = 3; drop it from --primes"
        not_prime = [p for p in cfg.primes if not is_prime(p)]
        if not_prime:
            return f"--primes takes primes only; {not_prime[0]} is not prime"
        if cfg.ymax < 10:
            return "--ymax must be at least 10"
    return None


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_enumerate(cfg: RunConfig) -> int:
    records = enumerate_family(cfg.x)
    lines = [f"# cyclocubic catalog", f"# x={cfg.x}", f"# count={len(records)}"]
    lines += [record_to_line(r) for r in records]
    _write(cfg.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _load_records(cfg: RunConfig):
    """The family from --catalog, each line checked, or else enumerated afresh.

    A catalog record must equal the record rebuilt from its D, carry the
    canonical label, and have its discriminant in [X, 2X]; any other line
    raises ValueError naming the file and line number.
    """
    if not cfg.catalog:
        return enumerate_family(cfg.x)
    records = []
    with open(cfg.catalog) as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip() or line.startswith("#"):
                continue
            try:
                rec = record_from_line(line)
                if rec != make_record(parse_label(rec.D)):
                    raise ValueError(f"record for D={rec.D} differs from the one rebuilt from D")
                if not canonicalize(rec.label)[1]:
                    raise ValueError(f"D={rec.D} is not the canonical label of its field")
                if not cfg.x <= rec.discriminant <= 2 * cfg.x:
                    raise ValueError(f"discriminant {rec.discriminant} lies outside "
                                     f"[{cfg.x}, {2 * cfg.x}]")
            except ValueError as exc:
                raise ValueError(f"{cfg.catalog}:{number}: {exc}") from None
            records.append(rec)
    return records


def cmd_density(cfg: RunConfig) -> int:
    try:
        records = _load_records(cfg)
    except ValueError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_USAGE
    if not records:
        sys.stderr.write(f"no fields with discriminant in [{cfg.x}, {2 * cfg.x}]\n")
        return EXIT_USAGE
    tf = density_mod.fejer_pair(cfg.beta)
    summary = density_mod.family_average(cfg.x, tf, cfg.mode, records=records)
    refs = density_mod.reference_statistics(cfg.x, tf, records=records)
    cls = density_mod.classify_symmetry(summary.t_statistic, refs)

    lines = [f"# cyclocubic density table", f"# x={cfg.x} beta={cfg.beta} mode={cfg.mode}",
             "D,e3,d1,d2,conductor,archimedean,gamma_term,prime_sum,total"]
    for rec, row in zip(records, summary.breakdowns):
        lines.append(f"{rec.D},{rec.label.e3},{rec.label.d1},{rec.label.d2},"
                     f"{rec.conductor},{row.archimedean!r},{row.gamma_term!r},"
                     f"{row.prime_sum!r},{row.total!r}")
    lines += [
        "# summary",
        f"# count={summary.count}",
        f"# average={summary.average!r}",
        f"# T={summary.t_statistic!r}",
        f"# references=" + " ".join(f"{g}:{refs[g]!r}" for g in density_mod.KERNELS),
        f"# classification={cls.kernel} margin={cls.margin!r} ambiguous={cls.ambiguous}",
    ]
    _write(cfg.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    reports = verify_mod.run_probe_suite(charsum_y=cfg.ymax,
                                         genseries_p0=(cfg.p0 // 10, cfg.p0),
                                         genseries_primes=(5, 13), s=cfg.s)
    lines = [f"# cyclocubic verification report",
             f"# p0={cfg.p0} ymax={cfg.ymax} s={cfg.s}"]
    failed = 0
    for rep in reports:
        lines.append(rep.summary_line())
        for row in rep.details[:10]:
            lines.append(f"    {row}")
        if rep.status == verify_mod.FAIL:
            failed += 1
    lines.append(f"# probes={len(reports)} failed={failed}")
    _write(cfg.out, "\n".join(lines) + "\n")
    return EXIT_ASSERTION if failed else EXIT_OK


def cmd_charsum(cfg: RunConfig) -> int:
    grid = verify_mod.log_grid(cfg.ymax)
    lines = [f"# cyclocubic character pair-sums",
             f"# ymax={cfg.ymax} grid=" + ",".join(str(y) for y in grid),
             "p,Y,value_a,value_b,magnitude,fitted_exponent"]
    for p in cfg.primes:
        rows, exponent = verify_mod.char_sum_grid(p, grid)
        for y, cs in rows:
            lines.append(f"{p},{y},{cs.value.a},{cs.value.b},{cs.magnitude!r},{exponent!r}")
    _write(cfg.out, "\n".join(lines) + "\n")
    return EXIT_OK


_COMMANDS = {"enumerate": cmd_enumerate, "density": cmd_density,
             "verify": cmd_verify, "charsum": cmd_charsum}


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    kwargs = {k: v for k, v in vars(ns).items() if v is not None}
    if "primes" in kwargs and isinstance(kwargs["primes"], str):
        try:
            kwargs["primes"] = tuple(int(tok) for tok in kwargs["primes"].split(",") if tok)
        except ValueError:
            sys.stderr.write("--primes expects a comma-separated list of integers\n")
            return EXIT_USAGE
    cfg = RunConfig(**kwargs)
    problem = _validate(cfg)
    if problem:
        sys.stderr.write(problem + "\n")
        return EXIT_USAGE
    try:
        return _COMMANDS[cfg.command](cfg)
    except OSError as exc:
        target = getattr(exc, "filename", None) or cfg.out
        sys.stderr.write(f"I/O failure on {target}: {exc}\n")
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
