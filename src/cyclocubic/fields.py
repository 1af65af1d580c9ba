"""Cyclic cubic fields parametrized by cube-free 3-split integers.

A positive integer D is 3-split when every prime divisor is 0 or 1 mod 3.
Writing D = 3^e3 * d1 * d2^2 with d1, d2 squarefree, coprime, and coprime
to 3, the triple (e3, d1, d2) labels a cyclic cubic field: factor D over
Z[omega] as D = D1 * D2 with D2 the conjugate of D1, and take the real
subfield of Q(omega, cbrt(D1 * D2^2)).  Exactly two labels give the same
field (exponent doubling mod cubes), the conductor is 9^delta * d1 * d2
with delta = 1 iff 3 | D, and the discriminant is the conductor squared.

`enumerate_family(X)` gives one canonical representative per field with
discriminant in [X, 2X] as a `Family`: int64 columns (e3, d1, d2, D,
conductor, trace(D1)) plus each row's primes in CSR form, sorted by
(conductor, D).  It sieves by conductor rather than by D: one
smallest-prime-factor sieve finds the squarefree 3-split n of each
conductor scale (n and 9n) with their primes, every splitting n = d1 * d2
is one bit mask over those primes, and D1 is multiplied out one prime
position at a time from the registry generators.  The catalog, a string
per block of rows, and the density statistics are read off the columns, so
no label is factored and no record object is built.  `family_of` turns a
list of labels into a Family, checking each by `label_primes`.  `make_record`,
`defining_polynomial` and `three_split_factorization` build the same
values one label at a time and are the reference the columns are tested
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import NamedTuple

import numpy as np

from ._primes import factorize, smallest_factor_sieve
from .eisenstein import LAMBDA, EisensteinInteger, prime_above, registry_table


class Not3SplitError(ValueError):
    """D has a prime factor congruent to 2 mod 3."""


class NotCubeFreeError(ValueError):
    """Some prime cubed divides D."""


class FieldLabel(NamedTuple):
    e3: int
    d1: int
    d2: int

    @property
    def D(self) -> int:
        return 3**self.e3 * self.d1 * self.d2**2


class ThreeSplitFactorization(NamedTuple):
    """D = d1 * d2 over Z[omega], d2 the conjugate of d1."""

    d1: EisensteinInteger
    d2: EisensteinInteger


@dataclass(frozen=True)
class FieldRecord:
    label: FieldLabel
    D: int
    conductor: int
    discriminant: int
    poly_a: int
    poly_b: int


def parse_label(D: int) -> FieldLabel:
    """Factor D = 3^e3 * d1 * d2^2; reject non-3-split or non-cube-free input."""
    if D <= 1:
        raise ValueError(f"labels require D > 1, got {D}")
    e3, d1, d2 = 0, 1, 1
    for p, e in sorted(factorize(D).items()):
        if e >= 3:
            raise NotCubeFreeError(f"{p}^{e} divides {D}")
        if p == 3:
            e3 = e
        elif p % 3 == 2:
            raise Not3SplitError(f"{D} has the factor {p} = 2 (mod 3)")
        elif e == 1:
            d1 *= p
        else:
            d2 *= p
    return FieldLabel(e3, d1, d2)


def partner(label: FieldLabel) -> FieldLabel:
    """The unique other label of the same field: exponents doubled mod 3."""
    return FieldLabel((2 * label.e3) % 3, label.d2, label.d1)


def canonicalize(label: FieldLabel) -> tuple[FieldLabel, bool]:
    """The representative with smaller D, plus whether the input was it."""
    other = partner(label)
    if label.D < other.D:
        return label, True
    return other, False


def conductor_discriminant(label: FieldLabel) -> tuple[int, int]:
    delta = 1 if label.e3 > 0 else 0
    f = 9**delta * label.d1 * label.d2
    return f, f * f


def label_primes(label: FieldLabel) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The primes dividing d1 and those dividing d2, ascending, with the label checked.

    The check uses the factorizations of d1 and d2, so no caller has to
    factor D: raises ValueError unless e3 is 0, 1 or 2 and d1, d2 are
    coprime, squarefree, and made of primes = 1 (mod 3).
    """
    e3, d1, d2 = label
    if e3 not in (0, 1, 2):
        raise ValueError(f"e3 must be 0, 1 or 2, got {e3}")
    if math.gcd(d1, d2) != 1:
        raise NotCubeFreeError(f"d1={d1} and d2={d2} share a factor, so its cube divides D")
    out = []
    for power, part in ((1, d1), (2, d2)):
        factors = factorize(part)
        for q, e in factors.items():
            if q % 3 == 2:
                raise Not3SplitError(f"d{power}={part} has the factor {q} = 2 (mod 3)")
            if q == 3 or e > 1:
                raise ValueError(f"d{power}={part} is not squarefree and prime to 3")
        out.append(tuple(factors))
    return out[0], out[1]


def three_split_factorization(label: FieldLabel) -> ThreeSplitFactorization:
    """Conjugate factorization of D built from registry prime generators.

    label_primes checks the label on the way.
    """
    q1, q2 = label_primes(label)
    d1_part = LAMBDA**label.e3
    for power, qs in ((1, q1), (2, q2)):
        for q in qs:
            g = prime_above(q).generator
            for _ in range(power):
                d1_part = d1_part * g
    if d1_part.norm() != label.D:
        raise RuntimeError(f"N(D1) != D for {label}; the registry generators are corrupt")
    return ThreeSplitFactorization(d1_part, d1_part.conjugate())


def defining_polynomial(label: FieldLabel) -> tuple[int, int]:
    """(A, B) with the field generated by a root of x^3 - 3*A*x - B.

    The generator u + v, u^3 = D1*D2^2 and v^3 = D1^2*D2, has u*v = D and
    u^3 + v^3 = D * trace(D1), so A = D and B = D * trace(D1).
    """
    fact = three_split_factorization(label)
    return label.D, label.D * fact.d1.trace()


def make_record(label: FieldLabel) -> FieldRecord:
    """The record of one label, checked by label_primes first."""
    f, disc = conductor_discriminant(label)
    a, b = defining_polynomial(label)
    return FieldRecord(label, label.D, f, disc, a, b)


# -- the family as columns ---------------------------------------------------------

_BLOCK = 1 << 16  # numbers factored per sieve pass; bounds the window's working set
X_MAX = 2**79  # conductors up to isqrt(2 * X_MAX) = 2^40 keep the int64 columns below 2^62
_ROWS_PER_PASS = 1 << 12  # rows per conversion to Python ints (catalog_lines, the density CSV)
_LAMBDA_POWERS = ((1, 0), (1, -1), (0, -3))  # (1 - omega)^e3 as (a, b)


def squarefree_3split_columns(lo: int, hi: int,
                              spf: np.ndarray) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """{k: (n, primes)} for the squarefree n in [lo, hi] made of k primes = 1 (mod 3).

    n ascends and primes[i] holds the k primes of n[i], ascending; n = 1 is
    the k = 0 entry.  spf is smallest_factor_sieve(m) for some m >= hi.  The
    window is read in blocks of _BLOCK numbers, keeping those whose smallest
    prime is 1 (mod 3), and each is divided by its smallest prime until it
    reaches 1; a number leaves as soon as a prime is not 1 (mod 3) or
    divides it twice.
    """
    parts: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    if lo <= 1 <= hi:
        parts[0] = [(np.ones(1, dtype=np.int64), np.zeros((1, 0), dtype=np.int64))]
    for start in range(max(lo, 2), hi + 1, _BLOCK):
        n = start + np.flatnonzero(spf[start:min(start + _BLOCK, hi + 1)] % 3 == 1)
        rest, primes = n, np.zeros((n.size, 0), dtype=np.int64)
        while n.size:
            p = spf[rest]
            rest = rest // p
            ok = (p % 3 == 1) & (rest % p != 0)
            n, rest, primes = n[ok], rest[ok], np.column_stack((primes[ok], p[ok]))
            done = rest == 1
            if done.any():
                parts.setdefault(primes.shape[1], []).append((n[done], primes[done]))
                n, rest, primes = n[~done], rest[~done], primes[~done]
    return {k: (np.concatenate([n for n, _ in found]), np.concatenate([p for _, p in found]))
            for k, found in sorted(parts.items())}


class _LabelColumns(NamedTuple):
    """Canonical labels sharing e3 and the prime count k of d1 * d2."""

    e3: int
    d1: np.ndarray
    d2: np.ndarray
    primes: np.ndarray  # (rows, k): the primes of d1 * d2, ascending
    in_d1: np.ndarray  # (rows, k): whether each of them divides d1


def _canonical_label_columns(f_lo: int, f_hi: int) -> list[_LabelColumns]:
    """The canonical labels with conductor in [f_lo, f_hi], unsorted.

    A conductor is n or 9n with n squarefree 3-split; each of the 2^k bit
    masks over the k primes of n is one splitting n = d1 * d2, with both
    3-exponents of D at the 9n scale.  D < partner(D) keeps one label per
    field; divided through by d1 * d2 * 3^min(e3, partner's e3), it reads
    d2 < d1 (e3 = 0), d2 < 3 * d1 (e3 = 1) and 3 * d2 < d1 (e3 = 2), so no
    partner's D is multiplied out.
    """
    spf = smallest_factor_sieve(f_hi)
    out = []
    for scale in (1, 9):
        window = squarefree_3split_columns(-(-f_lo // scale), f_hi // scale, spf)
        for k, (n, primes) in window.items():
            # row i * 2^k + m splits n[i] by the mask m: bit j puts prime j into d1
            rows = np.repeat(np.arange(n.size), 1 << k)
            primes = primes[rows]
            in_d1 = np.tile((np.arange(1 << k)[:, None] >> np.arange(k) & 1) == 1, (n.size, 1))
            d1 = np.where(in_d1, primes, 1).prod(axis=1)
            d2 = n[rows] // d1
            kept = [(0, d2 < d1)] if scale == 1 else [(1, d2 < 3 * d1), (2, 3 * d2 < d1)]
            for e3, keep in kept:
                out.append(_LabelColumns(e3, d1[keep], d2[keep], primes[keep], in_d1[keep]))
    return out


def _conductor_order(groups: list[_LabelColumns]) -> tuple[np.ndarray, ...]:
    """(e3, d1, d2, offsets, primes, in_d1) over all groups, sorted by (conductor, D).

    The primes of each row, with their in_d1 flags, move with the row into
    the CSR layout of Family.
    """
    e3 = np.concatenate([np.full(g.d1.size, g.e3, dtype=np.int64) for g in groups])
    d1 = np.concatenate([g.d1 for g in groups])
    d2 = np.concatenate([g.d2 for g in groups])
    counts = np.concatenate([np.full(g.d1.size, g.primes.shape[1], dtype=np.int64)
                             for g in groups])
    primes = np.concatenate([g.primes.ravel() for g in groups])
    in_d1 = np.concatenate([g.in_d1.ravel() for g in groups])
    # (conductor, D) is unique
    order = np.lexsort((3**e3 * d1 * d2 * d2, np.where(e3 > 0, 9, 1) * d1 * d2))
    firsts = np.cumsum(counts) - counts  # each row's first prime before the sort
    counts = counts[order]
    offsets = np.concatenate(([0], np.cumsum(counts)))
    take = np.repeat(firsts[order] - offsets[:-1], counts) + np.arange(offsets[-1])
    return e3[order], d1[order], d2[order], offsets, primes[take], in_d1[take]


@dataclass(frozen=True, eq=False)
class Family:
    """Fields as int64 columns, one row per field.

    Row i is the label (e3[i], d1[i], d2[i]) with its D, its conductor and
    trace(D1), D1 the factor of three_split_factorization.  The primes of
    d1 * d2 form a CSR pair: those of row i are primes[offsets[i]:offsets[i + 1]],
    ascending, and in_d1 flags the ones that divide d1 (the rest divide d2).
    gens[j] = (a, b) is the registry generator pi_q = a + b omega above
    q = primes[j].  len() counts the rows, so an empty family is falsy.
    labels() and records() give the rows as objects, for callers that want
    one field at a time.
    """

    e3: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    D: np.ndarray
    conductor: np.ndarray
    trace: np.ndarray
    offsets: np.ndarray
    primes: np.ndarray
    in_d1: np.ndarray
    gens: np.ndarray

    def __len__(self) -> int:
        return self.D.size

    def labels(self) -> list[FieldLabel]:
        return list(map(FieldLabel, self.e3.tolist(), self.d1.tolist(), self.d2.tolist()))

    def records(self) -> list[FieldRecord]:
        """The record of every row, equal to make_record of its label.

        The discriminant f^2 and B = D * trace(D1) are Python ints: near
        X_MAX they pass the int64 range.
        """
        columns = (self.e3, self.d1, self.d2, self.D, self.conductor, self.trace)
        return [FieldRecord(FieldLabel(e3, d1, d2), D, f, f * f, D, D * t)
                for e3, d1, d2, D, f, t in zip(*(column.tolist() for column in columns))]


def _family(e3: np.ndarray, d1: np.ndarray, d2: np.ndarray, offsets: np.ndarray,
            primes: np.ndarray, in_d1: np.ndarray, gens: np.ndarray) -> Family:
    """The Family of these columns; gens[j] = (a, b) is the generator pi_q, q = primes[j].

    trace(D1) comes from D1 = lambda^e3 * prod_{q|d1} pi_q * prod_{q|d2} pi_q^2,
    one Z[omega] product per prime position over the rows that have one
    there, in int64; raises RuntimeError unless N(D1) = D on every row.
    """
    D = 3**e3 * d1 * d2 * d2
    c, d = gens[:, 0], gens[:, 1]
    c, d = np.where(in_d1, c, c * c - d * d), np.where(in_d1, d, 2 * c * d - d * d)
    a, b = np.array(_LAMBDA_POWERS, dtype=np.int64)[e3].T
    counts = np.diff(offsets)
    for j in range(counts.max(initial=0)):  # omega^2 = -1 - omega
        rows = np.flatnonzero(counts > j)
        cj, dj = c[offsets[rows] + j], d[offsets[rows] + j]
        aj, bj = a[rows], b[rows]
        a[rows], b[rows] = aj * cj - bj * dj, aj * dj + bj * cj - bj * dj
    bad = np.flatnonzero(a * a - a * b + b * b != D)
    if bad.size:
        i = int(bad[0])
        label = FieldLabel(int(e3[i]), int(d1[i]), int(d2[i]))
        raise RuntimeError(f"N(D1) != D for {label}; the registry generators are corrupt")
    conductor = np.where(e3 > 0, 9, 1) * d1 * d2
    return Family(e3, d1, d2, D, conductor, 2 * a - b, offsets, primes, in_d1, gens)


# a label's D up to this keeps every value of the int64 product of D1 below 4 * D < 2^63
_D_MAX = 2**61


def family_of(labels: list[FieldLabel]) -> Family:
    """The Family of `labels`, one row each in their order, each checked by label_primes.

    This is how a list of labels reaches the column code: d1 and d2 of each
    label are factored once, and the generators of the distinct q come from
    prime_above.  Raises ValueError for a label with D above 2^61, where the
    int64 product of D1 could overflow.
    """
    for label in labels:
        if label.D > _D_MAX:
            raise ValueError(f"{label} has D above 2^61, beyond the int64 columns")
    rows = [sorted([(q, True) for q in q1] + [(q, False) for q in q2])
            for q1, q2 in map(label_primes, labels)]
    pairs = [pair for row in rows for pair in row]
    primes = np.array([q for q, _ in pairs], dtype=np.int64)
    in_d1 = np.array([flag for _, flag in pairs], dtype=bool)
    qs = np.array(sorted({q for q, _ in pairs}), dtype=np.int64)
    gens = np.array([prime_above(q).generator for q in qs.tolist()], dtype=np.int64)
    e3, d1, d2 = (np.array([label[i] for label in labels], dtype=np.int64) for i in range(3))
    return _family(e3, d1, d2, np.cumsum([0] + [len(row) for row in rows]), primes, in_d1,
                   gens.reshape(-1, 2)[np.searchsorted(qs, primes)])


def check_x(X: int) -> None:
    """enumerate_family's refusal, a ValueError, of an X below 1000 or above X_MAX."""
    if X < 1000:
        raise ValueError("--x must be at least 1000")
    if X > X_MAX:
        raise ValueError("--x must be at most 2**79; "
                         "beyond it the int64 enumeration could overflow")


def enumerate_family(X: int) -> Family:
    """The canonical fields with discriminant in [X, 2X], as a Family.

    Sieves the conductor window [sqrt(X), sqrt(2X)] rather than D.  Rows
    are sorted by (conductor, D); output is deterministic down to the byte.
    The family is built as numpy columns (module docstring): nothing is
    factored, no Z[omega] value and no record object is built per field,
    and the generator above every q | d1 * d2 (q <= sqrt(2X)) is read off
    one registry table.

    The columns are int64.  A canonical D lies below the geometric mean of
    D and its partner's D, which is at most f^1.5 for conductor f, and every
    value computed (d1, d2, D, the coefficients of D1 and the terms of
    N(D1)) is at most 4 * D < 4 * f^1.5.  Conductors up to 2^40 keep that
    below 2^62, so X above X_MAX = 2^79 raises ValueError (check_x, which
    also refuses X below 1000) before anything is allocated; the sieve to
    2^40 alone would need 8 TiB.  The discriminant and B = D * trace(D1)
    are left to Python ints (Family.records, catalog_lines).
    """
    check_x(X)
    f_hi = math.isqrt(2 * X)
    groups = _canonical_label_columns(math.isqrt(X - 1) + 1, f_hi)
    if not groups:
        return family_of([])
    e3, d1, d2, offsets, primes, in_d1 = _conductor_order(groups)
    reg_primes, reg_gens = registry_table(f_hi)
    return _family(e3, d1, d2, offsets, primes, in_d1,
                   reg_gens[np.searchsorted(reg_primes, primes)])


def labels_up_to_conductor(f_max: int) -> list[FieldLabel]:
    """Canonical labels with conductor <= f_max, sorted by (conductor, D)."""
    groups = _canonical_label_columns(1, f_max)
    if not groups:
        return []
    e3, d1, d2, *_ = _conductor_order(groups)
    return list(map(FieldLabel, e3.tolist(), d1.tolist(), d2.tolist()))


# -- catalog serialization ------------------------------------------------------

_FIELDS = ("D", "e3", "d1", "d2", "conductor", "discriminant", "polyA", "polyB")
_CATALOG_LINE = " ".join(f"{name}=%s" for name in _FIELDS)


def record_to_line(rec: FieldRecord) -> str:
    label = rec.label
    return _CATALOG_LINE % (rec.D, label.e3, label.d1, label.d2, rec.conductor,
                            rec.discriminant, rec.poly_a, rec.poly_b)


def catalog_lines(family: Family):
    """record_to_line of every row of `family`, newline included, _ROWS_PER_PASS rows a string.

    Each block is one format_rows, filled straight from the columns: tolist()
    gives Python ints, so the discriminant f * f and B = D * trace(D1) are
    exact past the int64 range.
    """
    for lo in range(0, len(family), _ROWS_PER_PASS):
        e3, d1, d2, D, f, t = (column[lo:lo + _ROWS_PER_PASS].tolist() for column in (
            family.e3, family.d1, family.d2, family.D, family.conductor, family.trace))
        yield format_rows(f"{_CATALOG_LINE}\n", len(D),
                          (D, e3, d1, d2, f, map(mul, f, f), D, map(mul, D, t)))


def format_rows(line: str, rows: int, columns) -> str:
    """`line` % (row i of every column), for i < rows, as one string from one %.

    Each column is an iterable of `rows` values, a list from tolist() or a map
    over such lists, so %d, %s and %r print Python ints and floats as str and
    repr do.
    """
    values = [None] * (len(columns) * rows)
    for i, column in enumerate(columns):
        values[i::len(columns)] = column
    return line * rows % tuple(values)


def record_from_line(line: str) -> FieldRecord:
    """The record of one catalog line: exactly one key=value part per field, in any order."""
    parts = line.split()
    kv = dict(part.split("=", 1) for part in parts)
    if len(parts) != len(kv) or set(kv) != set(_FIELDS):
        raise ValueError(f"malformed catalog line: {line!r}")
    label = FieldLabel(int(kv["e3"]), int(kv["d1"]), int(kv["d2"]))
    return FieldRecord(label, int(kv["D"]), int(kv["conductor"]),
                       int(kv["discriminant"]), int(kv["polyA"]), int(kv["polyB"]))
