"""Splitting data and logarithmic-derivative coefficients of L_D.

A character of the cyclic cubic field labeled by D is named by an element
(g, c): at a prime p != 3 it is the cubic residue symbol of D1^g * D2^c at
the registry prime P above p (or at its conjugate).  The Kummer element
KUMMER = (1, 2), D1 * D2^2, is the Kummer criterion for the degree-3
extension: its symbol decides how p splits, agrees with counting roots of
the defining cubic mod p, and is invariant under every registry choice
(D2 in place of D1 reverses it to (2, 1)), so it carries an L-function.

The paper's literal chi_p = (D1 / P)_3 is PAPER_LITERAL = (1, 0), or (0, 1)
with D2 in place of D1.  It matches the Kummer symbol through
(D2/P) = (D1/P)^2 whenever P is fixed by conjugation (p = 2 mod 3), but can
differ at split p, where it also depends on which conjugate generates P: it
is no character of any L-function.  It survives only as a registry finding
of `verify`.

At p = 3 the symbol degenerates and the splitting is decided by the local
cube test, for every element: with c = D1 * D2^2 coprime to 1-omega, c is a
cube in the 3-adic completion iff c = +-1 mod (1-omega)^4 = (9), which is
exactly "3 splits".
The registry generators are primary, pi_q = a + b omega with a = 2 and
b = 0 (mod 3), so -pi_q = 1 + 3 x_q with x_q = -(a + 1)/3 - (b/3) omega, and
such factors multiply mod 9 by adding their x mod 3.  With e3 = 0, c is up
to sign the product of pi_q conj(pi_q)^2 over q | d1 and of its square over
q | d2, and x + 2 conj(x) = -(b/3)(1 - omega) (mod 3), so

    c = +-(1 + 3 beta (1 - omega))  (mod 9),
    beta = -(sum_{q | d1} b_q/3 + 2 sum_{q | d2} b_q/3).

As 3 (1 - omega) is (1-omega)^3 times a unit, 3 never ramifies when 3 does
not divide D, and it splits exactly when beta = 0 (mod 3).  The verification
probes re-derive this criterion independently.

lambda_D(p^m) are the Dirichlet coefficients of -L_D'/L_D against
Lambda(n) n^-s: 2 at split primes for every m, -1 at inert primes unless
3 | m (then 2), and 0 at ramified primes.

`lambda_table` gives lambda(p) for a whole family at once from one exact
exponent table, for one element (g, c): the Kummer element by default, the
only one `density` reads; `verify`'s registry findings read the others.
The symbol is multiplicative and D1 = lambda^e3 * prod_{q | d1} pi_q *
prod_{q | d2} pi_q^2, with pi_q the registry generator above q and
lambda = 1 - omega, while D2 is its conjugate.  So with e = e(pi_q / P)
and e' = e(conj(pi_q) / P), P's symbol is omega^s with
s = sum_{q | d1} k_q + 2 sum_{q | d2} k_q + e3 k_lambda (mod 3), where a
row r (a prime q, or lambda) has k_r = g e + c e'.

A Kummer element has c = -g (mod 3), so k_q = g (e - e') needs one index
per (q, p), ind_q(p) = (p / pi_q)_3: the k with p^((q-1)/3) = omega_q^k
(mod q), omega_q = -a_q/b_q.  Cubic reciprocity swaps primary primes of
different norms, and conjugation squares a symbol.  At a split p,
e = (pi_p / pi_q) and e' = -(conj(pi_p) / pi_q), so k_q = g ind_q(p).  At
an inert p, P = conj(P) gives e' = -e = -(p / pi_q), so
k_q = (g - c) ind_q(p).  At p = q the index is a zero, as is e or e'.

A zero symbol makes k_r _ZERO_ENTRY when it enters with a positive weight,
so the field's symbol is zero exactly when a zero entry enters its sum with
a positive weight; for the Kummer element, exactly when p | D.  The table
holds one int16 row per distinct q of the family and one for lambda, and
one column per prime p.  The column for p = 3 holds k_q = b_q/3 (mod 3), so
that s = -beta, for every (g, c), and _ZERO_ENTRY at lambda, which the
weight e3 turns on exactly when 3 | D.  The q rows of a Kummer table are one
eisenstein.registry_indices table.  Those of another element are g e + c e',
with e and e' from eisenstein.generator_exponents, which alone chooses
between the kernel (split p) and reciprocity (inert p).  The lambda row of
every element takes no power: eisenstein.lambda_exponents reads e and e'
off P's primary generator by the supplementary law, and a corrupt
generator raises.

Every table is taken at the registry prime P: as (x / conj(P))_3 is
(conj(x) / P)_3 squared and conj(D1) = D2, `conjugate_prime` is the element
map (g, c) -> (2c, 2g).  It is left unreduced: mod 3 it would take (0, 3) to
(0, 0) and lose the zero entries of D2^3, while (2c, 2g) keeps which weight
is positive, at most 4 for g, c <= 2 (see _ZERO_ENTRY).

`density` and the `verify` probes read lambda off this table, and the
probes check it against oracles that share none of its arithmetic
(root counts of the defining cubic, ideal counts, the registry variants).
`character_symbol`, `splitting_at_three` (which tests c itself),
`splitting_type` and `lambda_coefficient` take the table's arguments and
compute the same values one (label, p) pair at a time from a Z[omega]
product; they are the reference the tests compare the table against.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple, Sequence

import numpy as np

from .eisenstein import (
    EXPONENT_ZERO,
    EisensteinInteger,
    cubic_residue_symbol,
    generator_exponents,
    lambda_exponents,
    lambda_valuation,
    prime_above,
    registry_indices,
    registry_table,
)
from .fields import Family, FieldLabel, family_of, three_split_factorization

# (g, c) of the element D1^g * D2^c whose symbol names a character: the
# Kummer element D1 * D2^2, and D1 alone, the paper-literal chi_p
KUMMER = (1, 2)
PAPER_LITERAL = (1, 0)


class SplittingType(NamedTuple):
    """(e, f, g) with e*f*g = 3; prints as the bare tuple, e.g. (1, 1, 3)."""

    e: int
    f: int
    g: int

    __repr__ = tuple.__repr__


SPLIT = SplittingType(1, 1, 3)
INERT = SplittingType(1, 3, 1)
RAMIFIED = SplittingType(3, 1, 1)


def character_symbol(p: int, label: FieldLabel, element: tuple[int, int] = KUMMER, *,
                     conjugate_prime: bool = False) -> int:
    """(D1^g * D2^c / P)_3 for element = (g, c), at the registry prime P above p.

    The value is cubic_residue_symbol's: the exponent k of omega^k, or
    EXPONENT_ZERO where P divides the element.  `conjugate_prime` takes it
    at the conjugate of P.  For the Kummer element it is EXPONENT_ZERO
    exactly when p | D, and the splitting it induces is the same
    under either prime and with (g, c) reversed, which the verification
    probes exercise.
    """
    if p == 3:
        raise ValueError("p = 3 is handled by the local cube test, not the symbol")
    P = prime_above(p)
    if conjugate_prime:
        P = P.conjugate()
    d1, d2 = three_split_factorization(label)
    g, c = element
    return cubic_residue_symbol(d1**g * d2**c, P)


def splitting_at_three(label: FieldLabel) -> SplittingType:
    """Splitting of 3: ramified iff 3 | D, else decided by the local cube test."""
    if label.e3 > 0:
        return RAMIFIED
    c = kummer_argument(label)
    v = max(lambda_valuation(c - EisensteinInteger(1)),
            lambda_valuation(c + EisensteinInteger(1)))
    if v < 3:
        # cannot happen for primary registry generators; a ramified literal
        # field here would contradict the conductor formula
        raise AssertionError(f"field for {label} is wildly ramified at 3")
    return SPLIT if v >= 4 else INERT


def kummer_argument(label: FieldLabel) -> EisensteinInteger:
    """c = D1 * D2^2; the field is the real subfield of Q(omega, c^(1/3))."""
    d1, d2 = three_split_factorization(label)
    return d1 * d2 * d2


def splitting_type(p: int, label: FieldLabel, element: tuple[int, int] = KUMMER, *,
                   conjugate_prime: bool = False) -> SplittingType:
    if p == 3:
        return splitting_at_three(label)
    s = character_symbol(p, label, element, conjugate_prime=conjugate_prime)
    if s == EXPONENT_ZERO:
        return RAMIFIED
    return SPLIT if s == 0 else INERT


def lambda_coefficient(p: int, m: int, label: FieldLabel, element: tuple[int, int] = KUMMER, *,
                       conjugate_prime: bool = False) -> int:
    """lambda_D(p^m) in {-1, 0, 2}; lambda(p) = lambda(p^2) always."""
    if m < 1:
        raise ValueError("prime-power exponent must be >= 1")
    st = splitting_type(p, label, element, conjugate_prime=conjugate_prime)
    return lambda_from_splitting(st, m)


def lambda_from_splitting(st: SplittingType, m: int) -> int:
    """lambda(p^m) for a prime p of splitting type `st`."""
    if st == RAMIFIED:
        return 0
    if st == SPLIT:
        return 2
    return 2 if m % 3 == 0 else -1


# a zero symbol's entry in the exponent table: any sum holding it reaches this
# bound, while a field's other entries (g e + c e' <= 16 with e, e' <= 2 and
# g, c <= 4, as the conjugate-prime map leaves them) sum to at most
# 2*16 + 11*2*16 = 384 over lambda and its at most 11 primes (D <= 2^61),
# with weights up to 2; and it fits the int16 table
_ZERO_ENTRY = 1 << 12


def _exponent_tables(gens: np.ndarray, primes: Sequence[int],
                     elements: Sequence[tuple[int, int]]) -> list[np.ndarray]:
    """k[r, j] of the module docstring, int16, at the registry prime, for each of `elements`.

    Row 0 is for lambda, row i + 1 for pi_q = gens[i], column j for primes[j],
    and element = (g, c) names D1^g * D2^c.  The elements share their symbols:
    one registry_indices table serves every Kummer element, one
    generator_exponents pair every other element, and one lambda_exponents
    pair the lambda rows.  The registry table is read up to the largest
    column, so no split column solves a norm equation; ValueError from 2**31
    on, where its sieve would take gigabytes.
    """
    top = max(primes, default=0)
    if top >= 2**31:
        raise ValueError(f"the registry is read to the largest column, so p < 2**31; got {top}")
    registry_table(top)
    columns = [j for j, p in enumerate(primes) if p != 3]
    at_three = [j for j, p in enumerate(primes) if p == 3]
    p = np.array([primes[j] for j in columns], dtype=np.int64)
    split = p % 3 == 1
    registry = [prime_above(primes[j]) for j in columns]
    lam, lam_conj = lambda_exponents(registry)
    # ind_q(p): times g at a split p, g - c at an inert p
    indices = cache(lambda: registry_indices(gens, p))
    symbols = cache(lambda: generator_exponents(gens, registry))
    tables = []
    for g, c in elements:
        table = np.empty((len(gens) + 1, len(primes)), dtype=np.int16)
        table[0, columns] = g * lam + c * lam_conj
        if (g + c) % 3 == 0:  # a Kummer element
            ind = indices()
            k = ind * np.where(split, g, (g - c) % 3).astype(np.int16)
            table[1:, columns] = np.where(ind == EXPONENT_ZERO, _ZERO_ENTRY, k)
        else:
            e, e_conj = symbols()
            k = e.astype(np.int16)  # widened first: an int8 cannot hold _ZERO_ENTRY
            k *= g
            k += c * e_conj
            k[(g > 0) & (e == EXPONENT_ZERO) | (c > 0) & (e_conj == EXPONENT_ZERO)] = _ZERO_ENTRY
            table[1:, columns] = k
        table[1:, at_three] = (gens[:, 1] // 3 % 3)[:, None]
        table[0, at_three] = _ZERO_ENTRY
        tables.append(table)
    return tables


# (label, prime) exponent sums per numpy pass of lambda_table: its int64
# arrays stay near 32 kB (the gather a few times that), so past the int8
# result a family's peak memory does not grow with its size
_ENTRIES_PER_PASS = 1 << 12


def lambda_table(family: Family | Sequence[FieldLabel], primes: Sequence[int],
                 element: tuple[int, int] = KUMMER, *,
                 conjugate_prime: bool = False) -> np.ndarray:
    """lambda(p) for every row of the family (rows) and every prime in `primes` (columns).

    `element` = (g, c) reads the symbol of D1^g * D2^c, the Kummer (1, 2) by
    default.  Entry by entry this is lambda_coefficient(p, 1, label, element,
    conjugate_prime=...), read off one exponent table (module docstring)
    whose rows are the distinct q of the Family's CSR primes, generators off
    Family.gens, so nothing is factored; a list of labels becomes a Family
    first (fields.family_of).  One gather of those rows per CSR position,
    weighted 1 (q | d1) or 2 (q | d2) and summed cumulatively, gives each
    field's sum as a difference of two cumulative rows, plus e3 times the
    lambda row: as many fields per pass as fit in _ENTRIES_PER_PASS sums.
    """
    return _lambda_tables(family, primes, [(element, conjugate_prime)])[0]


def _lambda_tables(family: Family | Sequence[FieldLabel], primes: Sequence[int],
                   variants: Sequence[tuple[tuple[int, int], bool]]) -> list[np.ndarray]:
    """lambda_table(family, primes, element, conjugate_prime=...) of each pair of `variants`."""
    if not isinstance(family, Family):
        family = family_of(family)
    order = np.argsort(family.primes)
    # a position of each distinct q, ascending; np.unique would import numpy.ma, 0.8 MB
    first = order[np.diff(family.primes[order], prepend=0) != 0]
    # conjugate_prime as the element map at P of the module docstring
    elements = [(2 * c, 2 * g) if conjugate_prime else (g, c)
                for (g, c), conjugate_prime in variants]
    tables = _exponent_tables(family.gens[first], primes, elements)
    rows = np.searchsorted(family.primes[first], family.primes) + 1
    weights = np.where(family.in_d1, 1, 2)
    n, ends = len(family), family.offsets
    step = max(1, _ENTRIES_PER_PASS // max(1, len(primes)))
    outs = []
    for table in tables:
        out = np.empty((n, len(primes)), dtype=np.int8)
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            part = slice(ends[lo], ends[hi])
            cums = np.zeros((ends[hi] - ends[lo] + 1, len(primes)), dtype=np.int64)
            np.cumsum(table[rows[part]] * weights[part, None], axis=0, out=cums[1:])
            bounds = ends[lo:hi + 1] - ends[lo]
            s = cums[bounds[1:]] - cums[bounds[:-1]] + family.e3[lo:hi, None] * table[0]
            out[lo:hi] = np.where(s >= _ZERO_ENTRY, 0, np.where(s % 3 == 0, 2, -1))
        outs.append(out)
    return outs
