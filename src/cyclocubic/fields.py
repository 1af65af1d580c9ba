"""Cyclic cubic fields parametrized by cube-free 3-split integers.

A positive integer D is 3-split when every prime divisor is 0 or 1 mod 3.
Writing D = 3^e3 * d1 * d2^2 with d1, d2 squarefree, coprime, and coprime
to 3, the triple (e3, d1, d2) labels a cyclic cubic field: factor D over
Z[omega] as D = D1 * D2 with D2 the conjugate of D1, and take the real
subfield of Q(omega, cbrt(D1 * D2^2)).  Exactly two labels give the same
field (exponent doubling mod cubes), the conductor is 9^delta * d1 * d2
with delta = 1 iff 3 | D, and the discriminant is the conductor squared.

`enumerate_family(X)` lists one canonical representative per field with
discriminant in [X, 2X], sieving by conductor rather than by D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from ._primes import factorize, primes_up_to
from .eisenstein import LAMBDA, EisensteinInteger, prime_above


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
    canonical: bool = True


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


def three_split_factorization(label: FieldLabel) -> ThreeSplitFactorization:
    """Conjugate factorization of D built from registry prime generators."""
    d1_part = LAMBDA**label.e3
    for q in factorize(label.d1):
        d1_part = d1_part * prime_above(q).generator
    for q in factorize(label.d2):
        g = prime_above(q).generator
        d1_part = d1_part * g * g
    d2_part = d1_part.conjugate()
    assert d1_part * d2_part == EisensteinInteger(label.D)
    return ThreeSplitFactorization(d1_part, d2_part)


def defining_polynomial(label: FieldLabel) -> tuple[int, int]:
    """(A, B) with the field generated by a root of x^3 - 3*A*x - B.

    The generator u + v, u^3 = D1*D2^2 and v^3 = D1^2*D2, has u*v = D and
    u^3 + v^3 = D * trace(D1), so A = D and B = D * trace(D1).
    """
    fact = three_split_factorization(label)
    return label.D, label.D * fact.d1.trace()


def squarefree_3split_with_factors(lo: int, hi: int) -> list[tuple[int, tuple[int, ...]]]:
    """(n, prime factors) for squarefree n in [lo, hi] with all factors = 1 mod 3.

    Includes n = 1 when lo <= 1.  Ascending in n.
    """
    qs = [p for p in primes_up_to(hi) if p % 3 == 1]
    out: list[tuple[int, tuple[int, ...]]] = []
    if lo <= 1:
        out.append((1, ()))
    stack = [(1, (), 0)]
    while stack:
        n, fac, i = stack.pop()
        for j in range(i, len(qs)):
            q = qs[j]
            m = n * q
            if m > hi:
                break
            mf = fac + (q,)
            if m >= lo:
                out.append((m, mf))
            stack.append((m, mf, j + 1))
    out.sort()
    return out


def _canonical_labels(f_lo: int, f_hi: int) -> list[FieldLabel]:
    """Canonical labels with conductor in [f_lo, f_hi], sorted by (conductor, D).

    A conductor is n or 9n with n squarefree 3-split; each ordered splitting
    n = d1 * d2 gives a label, with both 3-exponents of D at the 9n scale,
    and the partner test keeps one label per field.
    """
    out: list[tuple[int, int, FieldLabel]] = []
    for scale, exponents in ((1, (0,)), (9, (1, 2))):
        for n, fac in squarefree_3split_with_factors(-(-f_lo // scale), f_hi // scale):
            divisors = [1]
            for q in fac:
                divisors += [d * q for d in divisors]
            for d1 in divisors:
                for e3 in exponents:
                    label = FieldLabel(e3, d1, n // d1)
                    D = label.D
                    if D < partner(label).D:
                        out.append((scale * n, D, label))
    out.sort()
    return [label for _, _, label in out]


def make_record(label: FieldLabel) -> FieldRecord:
    f, disc = conductor_discriminant(label)
    a, b = defining_polynomial(label)
    return FieldRecord(label, label.D, f, disc, a, b)


def enumerate_family(X: int) -> list[FieldRecord]:
    """Canonical records of all fields with discriminant in [X, 2X].

    Sieves the conductor window [sqrt(X), sqrt(2X)] rather than D.  Sorted
    by (conductor, D); output is deterministic down to the byte.
    """
    if X < 2:
        raise ValueError("X must be at least 2")
    return [make_record(label)
            for label in _canonical_labels(math.isqrt(X - 1) + 1, math.isqrt(2 * X))]


def labels_up_to_conductor(f_max: int) -> list[FieldLabel]:
    """Canonical labels with conductor <= f_max, sorted by (conductor, D)."""
    return _canonical_labels(1, f_max)


# -- catalog serialization ------------------------------------------------------

_FIELDS = ("D", "e3", "d1", "d2", "conductor", "discriminant", "polyA", "polyB")


def record_to_line(rec: FieldRecord) -> str:
    vals = (rec.D, rec.label.e3, rec.label.d1, rec.label.d2, rec.conductor,
            rec.discriminant, rec.poly_a, rec.poly_b)
    return " ".join(f"{k}={v}" for k, v in zip(_FIELDS, vals))


def record_from_line(line: str) -> FieldRecord:
    kv = dict(part.split("=", 1) for part in line.split())
    if set(kv) != set(_FIELDS):
        raise ValueError(f"malformed catalog line: {line!r}")
    label = FieldLabel(int(kv["e3"]), int(kv["d1"]), int(kv["d2"]))
    return FieldRecord(label, int(kv["D"]), int(kv["conductor"]),
                       int(kv["discriminant"]), int(kv["polyA"]), int(kv["polyB"]))
