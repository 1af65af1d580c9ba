"""Command-line orchestration: catalogs, density tables, verification reports.

Subcommands:

* enumerate  -- write the field catalog for discriminants in [X, 2X], in blocks of lines
* density    -- per-field density table (CSV) plus the family summary
* verify     -- run the probe battery; exit 2 if an asserted probe fails
* charsum    -- character pair-sums over a log-spaced Y grid

All outputs are plain text with a config echo in the header, and every
command is deterministic: rerunning writes byte-identical files.  A command
runs only the modules it reads (`density_mod` and `verify_mod` are the
package's lazy modules) and runs the library's checks of its inputs before any
work (`_check`).  Exit codes: 0 success, 1 usage, 2 assertion failure, 3 I/O.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from collections.abc import Iterable

# set before numpy loads, so OpenBLAS starts no worker to spin on the other cores
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import density as density_mod, verify as verify_mod  # lazy modules: see the package notes
from .fields import _ROWS_PER_PASS, catalog_lines, check_x, enumerate_family, format_rows

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ASSERTION = 2
EXIT_IO = 3

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


def _check(cfg: argparse.Namespace) -> None:
    """Every check of cfg's inputs, each run by the library: a ValueError with its usage text."""
    if cfg.command in ("enumerate", "density"):
        check_x(cfg.x)
    if cfg.command == "density":
        density_mod.fejer_pair(cfg.beta)
    if cfg.command == "verify":
        verify_mod.check_probe_suite(cfg.ymax, cfg.p0, cfg.s)
    if cfg.command == "charsum":
        try:
            cfg.primes = tuple(int(tok) for tok in cfg.primes.split(",") if tok)
        except ValueError:
            raise ValueError("--primes expects a comma-separated list of integers") from None
        if not cfg.primes:
            raise ValueError("--primes must name at least one prime")
        for p in cfg.primes:
            verify_mod.chi_prime(p)
        verify_mod.check_ymax(cfg.ymax)


def _usage_error(message) -> int:
    sys.stderr.write(f"{message}\n")
    return EXIT_USAGE


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
        return _usage_error(f"no fields with discriminant in [{cfg.x}, {2 * cfg.x}]")
    tf = density_mod.fejer_pair(cfg.beta)
    summary = density_mod.family_average(family, tf)
    refs = density_mod.reference_statistics(family, tf)
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
    reports = verify_mod.run_probe_suite(charsum_y=cfg.ymax, p0=cfg.p0, s=cfg.s)
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
    cfg = build_parser().parse_args(argv)
    try:  # before any work, so past it a ValueError is a fault of the run, and propagates
        _check(cfg)
    except ValueError as refusal:
        return _usage_error(refusal)
    try:
        return _COMMANDS[cfg.command](cfg)
    except OSError as exc:
        target = getattr(exc, "filename", None) or cfg.out
        sys.stderr.write(f"I/O failure on {target}: {exc}\n")
        return EXIT_IO
    except MemoryError:
        return _usage_error(f"{cfg.command} needs more memory than this machine has; "
                            f"try smaller arguments")
    except density_mod.NotFiniteTable as refusal:  # family_average's, from inside the run
        return _usage_error(refusal)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
