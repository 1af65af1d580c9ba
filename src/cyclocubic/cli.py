"""Command-line orchestration: catalogs, density tables, verification reports.

Subcommands:

* enumerate  -- write the field catalog for discriminants in [X, 2X], in blocks of lines
* density    -- per-field density table (CSV) plus the family summary
* verify     -- run the probe battery; exit 2 if an asserted probe fails
* charsum    -- character pair-sums over a log-spaced Y grid

All outputs are plain text with a config echo in the header, and every
command is deterministic: rerunning writes byte-identical files.  A command
compiles only the modules it runs (`_lazy`).  Exit codes: 0 success,
1 usage, 2 assertion failure, 3 I/O.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import math
import os
import sys
from collections.abc import Iterable

# set before numpy loads, so OpenBLAS starts no worker to spin on the other cores
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from ._primes import MR_PROOF_BOUND, is_prime
from .fields import _ROWS_PER_PASS, X_MAX, catalog_lines, enumerate_family, format_rows


def _lazy(name: str):
    """The submodule `name`: listed in sys.modules, where tools look, but run at first use."""
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[fullname])
    return sys.modules[fullname]


# only `density` runs density, only `verify` and `charsum` run verify; all three run lfunctions
_, density_mod, verify_mod = map(_lazy, ("lfunctions", "density", "verify"))

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ASSERTION = 2
EXIT_IO = 3

# --p0 and --ymax each size a sieve with that many entries, a terabyte at this
# bound; past 2**63 numpy could not even index one
SIEVE_MAX = 2**40
_LINE = "{}\n".format  # a line as _write takes it, with its newline


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


def _validate(cfg: argparse.Namespace) -> str | None:
    if cfg.command in ("enumerate", "density"):
        if cfg.x < 1000:
            return "--x must be at least 1000"
        if cfg.x > X_MAX:
            return "--x must be at most 2**79; beyond it the int64 enumeration could overflow"
    if cfg.command == "density" and not 0.0 < cfg.beta < 1.0:
        return "--beta must lie strictly between 0 and 1"
    if cfg.command == "verify":
        # the generating-series probes assert a 1e-8 Cauchy gap between the
        # cutoffs p0 // 10 and p0, which holds from s = 2 and p0 = 10**6 on
        if not cfg.s >= 2.0:
            return ("--s must be at least 2; below it the Euler products converge "
                    "too slowly for the 1e-8 Cauchy check")
        # the left side's factors are 1 + c * ell^-s with |c| <= 2 and ell >= 7, so
        # all are 1.0 once 1 + 2 * 7^-s rounds to 1.0: from s = 19.24 on, inf too
        if 1.0 + 2.0 * 7.0 ** -cfg.s == 1.0:
            return ("--s must be below 19.24; from there on every left-side Euler factor "
                    "rounds to 1.0, so the probes would check nothing")
        if cfg.p0 < 10**6:
            return ("--p0 must be at least 1000000; below it the Euler products are "
                    "not Cauchy to 1e-8 between p0 // 10 and p0")
        if cfg.p0 > SIEVE_MAX:
            return "--p0 must be at most 2**40; its sieve would need more than a terabyte"
    if cfg.command == "charsum":
        if not cfg.primes:
            return "--primes must name at least one prime"
        if 3 in cfg.primes:
            return "chi_p is undefined at p = 3; drop it from --primes"
        for p in cfg.primes:  # the bound first: is_prime refuses past it
            if p >= MR_PROOF_BOUND:
                return f"--primes takes primes below {MR_PROOF_BOUND}; {p} is too large"
            if not is_prime(p):
                return f"--primes takes primes only; {p} is not prime"
    if cfg.command in ("verify", "charsum"):
        if cfg.ymax < 10:
            return "--ymax must be at least 10"
        if cfg.ymax > SIEVE_MAX:
            return "--ymax must be at most 2**40; its sieve would need more than a terabyte"
    return None


def _write(path: str | None, pieces: Iterable[str]) -> None:
    """Write each piece, whole lines with their newlines, as it is (no output-size string)."""
    if path is None:
        sys.stdout.writelines(pieces)
    else:
        with open(path, "w") as fh:
            fh.writelines(pieces)


def cmd_enumerate(cfg: argparse.Namespace) -> int:
    family = enumerate_family(cfg.x)
    header = ["# cyclocubic catalog", f"# x={cfg.x}", f"# count={len(family)}"]
    _write(cfg.out, itertools.chain(map(_LINE, header), catalog_lines(family)))
    return EXIT_OK


def cmd_density(cfg: argparse.Namespace) -> int:
    family = enumerate_family(cfg.x)
    if not family:
        sys.stderr.write(f"no fields with discriminant in [{cfg.x}, {2 * cfg.x}]\n")
        return EXIT_USAGE
    tf = density_mod.fejer_pair(cfg.beta)
    try:
        summary = density_mod.family_average(family, tf)
    except OverflowError:  # math.fsum of finite rows past the float range
        summary = None
    refs = density_mod.reference_statistics(family, tf)
    # a row that is not finite makes the average inf or nan, so these cover the table
    if summary is None or not all(map(math.isfinite, [summary.average, summary.t_statistic,
                                                      *refs.values()])):
        sys.stderr.write(f"--beta {cfg.beta} is too small: the density table would hold "
                         f"values that are not finite\n")
        return EXIT_USAGE
    cls = density_mod.classify_symmetry(summary.t_statistic, refs)

    # mode=kummer names the one character the table reads; readers match the line verbatim
    header = [f"# cyclocubic density table", f"# x={cfg.x} beta={cfg.beta} mode=kummer",
              "D,e3,d1,d2,conductor,archimedean,gamma_term,prime_sum,total"]
    # _ROWS_PER_PASS rows a string, as catalog_lines
    line = f"%d,%d,%d,%d,%d,{tf.fhat_at_0!r},%r,%r,%r\n"
    columns = (family.D, family.e3, family.d1, family.d2, family.conductor,
               summary.gamma_term, summary.prime_sum, summary.total)
    blocks = ([column[lo:lo + _ROWS_PER_PASS].tolist() for column in columns]
              for lo in range(0, len(family), _ROWS_PER_PASS))
    rows = (format_rows(line, len(block[0]), block) for block in blocks)
    footer = [
        "# summary",
        f"# count={summary.count}",
        f"# average={summary.average!r}",
        f"# T={summary.t_statistic!r}",
        f"# references=" + " ".join(f"{g}:{refs[g]!r}" for g in density_mod.KERNELS),
        f"# classification={cls.kernel} margin={cls.margin!r} ambiguous={cls.ambiguous}",
    ]
    _write(cfg.out, itertools.chain(map(_LINE, header), rows, map(_LINE, footer)))
    return EXIT_OK


def cmd_verify(cfg: argparse.Namespace) -> int:
    reports = verify_mod.run_probe_suite(charsum_y=cfg.ymax,
                                         genseries_p0=(cfg.p0 // 10, cfg.p0), s=cfg.s)
    lines = [f"# cyclocubic verification report",
             f"# p0={cfg.p0} ymax={cfg.ymax} s={cfg.s}"]
    for rep in reports:
        lines += [rep.summary_line(), *(f"    {row}" for row in rep.details[:10])]
    failed = sum(rep.status == verify_mod.FAIL for rep in reports)
    lines.append(f"# probes={len(reports)} failed={failed}")
    _write(cfg.out, map(_LINE, lines))
    return EXIT_ASSERTION if failed else EXIT_OK


def cmd_charsum(cfg: argparse.Namespace) -> int:
    grid = verify_mod.log_grid(cfg.ymax)
    lines = [f"# cyclocubic character pair-sums",
             f"# ymax={cfg.ymax} grid=" + ",".join(str(y) for y in grid),
             "p,Y,value_a,value_b,magnitude,fitted_exponent"]
    for p in cfg.primes:
        rows, exponent = verify_mod.char_sum_grid(p, grid)
        for y, cs in rows:
            lines.append(f"{p},{y},{cs.value.a},{cs.value.b},{cs.magnitude!r},{exponent!r}")
    _write(cfg.out, map(_LINE, lines))
    return EXIT_OK


_COMMANDS = {"enumerate": cmd_enumerate, "density": cmd_density,
             "verify": cmd_verify, "charsum": cmd_charsum}


def main(argv=None) -> int:
    parser = build_parser()
    cfg = parser.parse_args(argv)
    if cfg.command == "charsum":
        try:
            cfg.primes = tuple(int(tok) for tok in cfg.primes.split(",") if tok)
        except ValueError:
            sys.stderr.write("--primes expects a comma-separated list of integers\n")
            return EXIT_USAGE
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
    except MemoryError:
        sys.stderr.write(f"{cfg.command} needs more memory than this machine has; "
                         f"try smaller arguments\n")
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
