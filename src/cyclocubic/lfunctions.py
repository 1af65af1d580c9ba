"""Splitting data and logarithmic-derivative coefficients of L_D.

For the cyclic cubic field labeled by D and a prime p != 3, the splitting of
p is read off a cubic residue symbol at the registry prime P above p.  Two
character conventions are supported:

* "kummer" (default): the symbol of D1 * D2^2, the honest Kummer criterion
  for the degree-3 extension; it agrees with counting roots of the defining
  cubic mod p and is invariant under every registry choice.
* "paper": the symbol of D1 alone.  This matches the Kummer value through
  the identity (D2/P) = (D1/P)^2 whenever P is fixed by conjugation
  (p = 2 mod 3) but can differ at split p, where it also depends on which
  conjugate generates P.  It is kept because the character-sum experiments
  are built out of exactly this object.

At p = 3 the symbol degenerates and the splitting is decided by the local
cube test: with c = D1 * D2^2 coprime to 1-omega, c is a cube in the 3-adic
completion iff c = +-1 mod (1-omega)^4, which is exactly "3 splits"; with
registry (primary) generators c is always +-1 mod (1-omega)^3, so 3 never
ramifies when 3 does not divide D.  The verification probes re-derive this
criterion independently.

lambda_D(p^m) are the Dirichlet coefficients of -L_D'/L_D against
Lambda(n) n^-s: 2 at split primes for every m, -1 at inert primes unless
3 | m (then 2), and 0 at ramified primes.
"""

from __future__ import annotations

from typing import NamedTuple

from .eisenstein import (
    CubicSymbol,
    EisensteinInteger,
    PrimeAbove,
    cubic_residue_symbol,
    lambda_valuation,
    prime_above,
)
from .fields import FieldLabel, three_split_factorization
from ._primes import primes_up_to

KUMMER = "kummer"
PAPER_LITERAL = "paper"
_MODES = (KUMMER, PAPER_LITERAL)


class SplittingType(NamedTuple):
    """(e, f, g) with e*f*g = 3; prints as the bare tuple, e.g. (1, 1, 3)."""

    e: int
    f: int
    g: int

    __repr__ = tuple.__repr__


SPLIT = SplittingType(1, 1, 3)
INERT = SplittingType(1, 3, 1)
RAMIFIED = SplittingType(3, 1, 1)


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {_MODES}")


def _prime_and_factor(p: int, label: FieldLabel, conjugate_prime: bool,
                      swap_factors: bool) -> tuple[PrimeAbove, EisensteinInteger]:
    """The registry prime P above p and the factor (D1, or D2 when swapped) to symbolize."""
    if p == 3:
        raise ValueError("p = 3 is handled by the local cube test, not the symbol")
    P = prime_above(p)
    if conjugate_prime:
        P = P.conjugate()
    fact = three_split_factorization(label)
    return P, fact.d2 if swap_factors else fact.d1


def kummer_symbol(p: int, label: FieldLabel, *, conjugate_prime: bool = False,
                  swap_factors: bool = False) -> CubicSymbol:
    """(D1 * D2^2 / P)_3; zero exactly when p | D.

    The keyword variants recompute under the conjugate prime above p or with
    the roles of D1 and D2 exchanged; the splitting they induce is provably
    identical, which the verification probes exercise.
    """
    P, d1 = _prime_and_factor(p, label, conjugate_prime, swap_factors)
    return cubic_residue_symbol(d1, P) * cubic_residue_symbol(d1.conjugate(), P) ** 2


def paper_chi(p: int, label: FieldLabel, *, conjugate_prime: bool = False,
              swap_factors: bool = False) -> CubicSymbol:
    """chi_p(D) = (D1 / P)_3, completely multiplicative in 3-split arguments."""
    P, d1 = _prime_and_factor(p, label, conjugate_prime, swap_factors)
    return cubic_residue_symbol(d1, P)


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


def splitting_type(p: int, label: FieldLabel, mode: str = KUMMER, *,
                   conjugate_prime: bool = False, swap_factors: bool = False) -> SplittingType:
    _check_mode(mode)
    if p == 3:
        return splitting_at_three(label)
    symbol_fn = kummer_symbol if mode == KUMMER else paper_chi
    s = symbol_fn(p, label, conjugate_prime=conjugate_prime, swap_factors=swap_factors)
    if s.is_zero:
        return RAMIFIED
    return SPLIT if s.is_one else INERT


def lambda_coefficient(p: int, m: int, label: FieldLabel, mode: str = KUMMER, *,
                       conjugate_prime: bool = False, swap_factors: bool = False) -> int:
    """lambda_D(p^m) in {-1, 0, 2}; lambda(p) = lambda(p^2) always."""
    if m < 1:
        raise ValueError("prime-power exponent must be >= 1")
    st = splitting_type(p, label, mode,
                        conjugate_prime=conjugate_prime, swap_factors=swap_factors)
    return lambda_from_splitting(st, m)


def lambda_from_splitting(st: SplittingType, m: int) -> int:
    """lambda(p^m) for a prime p of splitting type `st`."""
    if st == RAMIFIED:
        return 0
    if st == SPLIT:
        return 2
    return 2 if m % 3 == 0 else -1


def local_factor(p: int, s: float, label: FieldLabel, mode: str = KUMMER) -> float:
    """Euler factor of L_D at p, evaluated at real s."""
    st = splitting_type(p, label, mode)
    x = p ** (-s)
    if st == RAMIFIED:
        return 1.0
    if st == SPLIT:
        return (1.0 - x) ** -2
    return 1.0 / (1.0 + x + x * x)


def euler_value(s: float, label: FieldLabel, p0: int, mode: str = KUMMER) -> float:
    """Truncated Euler product of L_D(s) over p <= p0.

    Absolutely convergent for s > 1; successive truncations differ by at
    most about sum_{p > p0} 2 p^-s.
    """
    if s < 1.2:
        raise ValueError("stay at s >= 1.2 for a safe convergence margin")
    value = 1.0
    for p in primes_up_to(p0):
        value *= local_factor(p, s, label, mode)
    return value

