"""Exact arithmetic in the Eisenstein integers Z[omega].

omega is a fixed primitive cube root of unity, omega^2 + omega + 1 = 0, and
elements are stored as coefficient pairs a + b*omega.  The ring is Euclidean
(so a PID), its six units are +-1, +-omega, +-omega^2, and rational primes
behave as follows:

* q = 1 (mod 3) splits, q = pi * sigma(pi), where sigma is the conjugation
  omega -> omega^2;
* q = 2 (mod 3) stays inert;
* 3 ramifies: 3 = -omega^2 * (1 - omega)^2.

`prime_above` keeps a deterministic registry of one chosen prime generator
above every rational prime: the primary associate (== 2 mod 3 with the omega
coefficient divisible by 3), and for split primes the one of the two
conjugates whose primary generator has positive omega coefficient.

For split p that generator has a closed description: it is the only
a + b*omega with a^2 - ab + b^2 = p, a = 2 (mod 3), b = 0 (mod 3) and b > 0.
Each of the two primes above p has exactly one primary generator, the
conjugate of a primary element is primary, and conjugation sends
a + b*omega to (a - b) - b*omega, flipping the sign of b (b != 0, since p is
not a square).  So the two primary elements of norm p are conjugate and
exactly one has b > 0.  `registry_table(n)` finds all of them up to n in one
numpy pass over the lattice rows b = 3, 6, ... inside the ellipse
a^2 - ab + b^2 <= n, keeping the points of prime norm; `prime_above` reads
that table for p up to its bound and solves the norm equation beyond it.

A cubic residue symbol (a / P)_3 = omega^k is given by its exponent k in
{0, 1, 2}, or EXPONENT_ZERO when P divides a.  `cubic_residue_symbol` takes
one element by the definition, a power mod P (Z/p with omega -> omega_mod(P)
at a split p, F_{p^2} at an inert p), in Python ints, and never uses
reciprocity.  The numpy int8 tables take one power in Z/q per entry, a row
per prime of norm q: `registry_indices` gives ind_q(n), the symbol of a
rational n at a registry prime above q, which is chi_q(n), and so by cubic
reciprocity (pi_q / p)_3 at an inert p; `cubic_residue_exponents` gives the
definition's at a split p only, for any p (Python ints from 2**31 on), and
`generator_exponents` alone chooses between the two for a registry generator
and its conjugate at any P != 3.  `lambda_exponents` gives lambda = 1 - omega
and its conjugate at any P != 3 by the supplementary law, with no power.

All values are immutable after construction, and the registry table is only
ever replaced whole by a larger read-only one, so every operation is safe
for concurrent callers.  The value types are NamedTuples and coefficients
are unbounded Python ints.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from ._primes import is_prime, prime_sieve, sqrt_mod


class EisensteinInteger(NamedTuple):
    """a + b*omega with exact integer coefficients."""

    a: int
    b: int = 0

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "EisensteinInteger") -> "EisensteinInteger":
        return EisensteinInteger(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "EisensteinInteger") -> "EisensteinInteger":
        return EisensteinInteger(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "EisensteinInteger":
        return EisensteinInteger(-self.a, -self.b)

    def __mul__(self, other: "EisensteinInteger | int") -> "EisensteinInteger":
        try:
            c, d = other.a, other.b
        except AttributeError:  # an int n is n + 0*omega; the hot path stays check-free
            if not isinstance(other, int):
                return NotImplemented
            c, d = other, 0
        # omega^2 = -1 - omega
        a, b = self.a, self.b
        return EisensteinInteger(a * c - b * d, a * d + b * c - b * d)

    __rmul__ = __mul__  # else int * z would repeat the tuple

    def __pow__(self, n: int) -> "EisensteinInteger":
        if n < 0:
            raise ValueError("negative powers are not Eisenstein integers")
        return _power(self, n, ONE, EisensteinInteger.__mul__)

    def conjugate(self) -> "EisensteinInteger":
        """Galois conjugate: omega -> omega^2, i.e. a + b*omega -> (a-b) - b*omega."""
        return EisensteinInteger(self.a - self.b, -self.b)

    def norm(self) -> int:
        """a^2 - ab + b^2 = z * conjugate(z), always >= 0."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def trace(self) -> int:
        """z + conjugate(z) = 2a - b."""
        return 2 * self.a - self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    # -- Euclidean structure -------------------------------------------------

    def __divmod__(self, other: "EisensteinInteger"):
        """Nearest-lattice-point division: the remainder norm is < norm(other)."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Z[omega]")
        n = other.norm()
        num = self * other.conjugate()
        q = EisensteinInteger(_round_div(num.a, n), _round_div(num.b, n))
        return q, self - q * other

    def __mod__(self, other: "EisensteinInteger") -> "EisensteinInteger":
        return divmod(self, other)[1]

    # -- plumbing -------------------------------------------------------------

    def _unordered(self, other):
        raise TypeError("Eisenstein integers are not ordered")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __repr__(self) -> str:
        return f"EisensteinInteger({self.a}, {self.b})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}w"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a}{sign}{abs(self.b)}w"

    def complex_value(self) -> complex:
        """Image under omega -> exp(2*pi*i/3)."""
        return complex(self.a - self.b / 2.0, self.b * 0.8660254037844386)


def _power(x, n: int, one, mul):
    """x^n by square-and-multiply under `mul` with identity `one`."""
    out, base = one, x
    while n:
        if n & 1:
            out = mul(out, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return out


def conjugate_coefficients(coeffs: np.ndarray) -> np.ndarray:
    """EisensteinInteger.conjugate on every row (a, b) of a coefficient array."""
    return np.column_stack((coeffs[:, 0] - coeffs[:, 1], -coeffs[:, 1]))


def _round_div(u: int, v: int) -> int:
    # round(u / v) with half-up tie break; v > 0 here (a norm)
    return (2 * u + v) // (2 * v)


ZERO = EisensteinInteger(0, 0)
ONE = EisensteinInteger(1, 0)
LAMBDA = EisensteinInteger(1, -1)  # 1 - omega, the ramified prime above 3
UNITS = (
    EisensteinInteger(1, 0),
    EisensteinInteger(-1, 0),
    EisensteinInteger(0, 1),
    EisensteinInteger(0, -1),
    EisensteinInteger(1, 1),   # -omega^2
    EisensteinInteger(-1, -1),  # omega^2
)


def canonical_associate(z: EisensteinInteger) -> EisensteinInteger:
    """The associate with argument in [0, pi/3): b >= 0 and a > b.

    Exactly one of the six associates qualifies; for a positive rational
    integer it is the integer itself, and for a unit it is 1.
    """
    if z.is_zero():
        return z
    for u in UNITS:
        w = u * z
        if w.b >= 0 and w.a > w.b:
            return w
    raise AssertionError(f"no canonical associate for {z!r}")  # unreachable


def primary_associate(z: EisensteinInteger) -> tuple[EisensteinInteger, EisensteinInteger]:
    """(unit, primary) with unit*primary == z and primary == 2 (mod 3).

    "primary" means the coefficient pair satisfies a = 2, b = 0 (mod 3);
    exactly one associate does whenever z is coprime to 1 - omega.
    """
    if z.is_zero() or z.norm() % 3 == 0:
        raise ValueError(f"{z} is divisible by 1-omega; no primary associate exists")
    for u in UNITS:
        w = u * z
        if w.a % 3 == 2 and w.b % 3 == 0:
            inv = next(v for v in UNITS if (u * v) == ONE)
            return inv, w
    raise AssertionError(f"no primary associate for {z!r}")  # unreachable


def euclidean_gcd(x: EisensteinInteger, y: EisensteinInteger) -> EisensteinInteger:
    """Greatest common divisor, returned as the canonical associate."""
    if x.is_zero() and y.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not y.is_zero():
        x, y = y, x % y
    return canonical_associate(x)


def lambda_valuation(z: EisensteinInteger) -> int:
    """Exponent of 1-omega in z (z nonzero)."""
    if z.is_zero():
        raise ValueError("the zero element has infinite valuation")
    v = 0
    a, b = z.a, z.b
    while (a + b) % 3 == 0:
        a, b = (2 * a - b) // 3, (a + b) // 3  # divide by 1-omega
        v += 1
    return v


# -- the prime registry -------------------------------------------------------


class PrimeAbove(NamedTuple):
    """The chosen prime of Z[omega] above a rational prime p."""

    p: int
    generator: EisensteinInteger
    kind: str  # "split" | "inert" | "ramified"

    @property
    def residue_degree(self) -> int:  # set by the kind: 2 at an inert p, else 1
        return 2 if self.kind == "inert" else 1

    def conjugate(self) -> "PrimeAbove":
        """The conjugate prime (same prime for inert p and for p = 3 as an ideal)."""
        return PrimeAbove(self.p, self.generator.conjugate(), self.kind)


class _SplitTable(NamedTuple):
    """Every split p <= bound, ascending, with its registry generator (read-only arrays)."""

    bound: int
    primes: np.ndarray  # int64, shape (m,)
    gens: np.ndarray  # int64 coefficient pairs (a, b), shape (m, 2)


def _lattice_pass(n: int) -> _SplitTable:
    """The table up to n, from the lattice points of the module docstring.

    Row b holds the a = 2 (mod 3) with |2a - b| <= isqrt(4n - 3b^2), which is
    exactly a^2 - ab + b^2 <= n; a boolean sieve keeps the prime norms, and
    each row writes its points into the slots of their norms among the split
    primes: a slot left at a = 0, or a point count other than the slot count, raises.
    """
    sieve = prime_sieve(n)
    primes = 3 * np.flatnonzero(sieve[1::3]) + 1  # every split p <= n, ascending
    gens = np.zeros((primes.size, 2), dtype=np.int64)
    written, b = 0, 3
    while 3 * b * b <= 4 * n:
        r = math.isqrt(4 * n - 3 * b * b)
        lo = (b - r + 1) // 2
        a = np.arange(lo + (2 - lo) % 3, (b + r) // 2 + 1, 3, dtype=np.int64)
        norm = a * a - a * b + b * b
        keep = sieve[norm]
        slots = np.searchsorted(primes, norm[keep])  # a kept norm is 1 (mod 3), so listed
        gens[slots, 0], gens[slots, 1] = a[keep], b
        written += slots.size
        b += 3
    # one point per split prime, or the uniqueness argument is broken
    if written != primes.size or not gens[:, 0].all():
        raise AssertionError(f"the lattice pass up to {n} missed or repeated a split prime")
    primes.flags.writeable = gens.flags.writeable = False
    return _SplitTable(n, primes, gens)


_TABLE = _SplitTable(0, np.zeros(0, dtype=np.int64), np.zeros((0, 2), dtype=np.int64))
_TABLE_LOCK = threading.Lock()  # so a concurrent rebuild never swaps in a smaller table


def registry_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(primes, gens): every split p <= n, ascending, and its registry generator.

    gens[i] = (a, b) is prime_above(primes[i]).generator.  The table is
    built on the first call that needs it and rebuilt larger when a call
    asks for more; every later prime_above(p) with p <= n reads it.  Both
    arrays are read-only views.
    """
    global _TABLE
    table = _TABLE
    if table.bound < n:
        with _TABLE_LOCK:
            table = _TABLE
            if table.bound < n:
                table = _TABLE = _lattice_pass(n)
    k = int(np.searchsorted(table.primes, n, side="right"))
    return table.primes[:k], table.gens[:k]


def registry_bound() -> int:
    """The largest n the table covers today: prime_above(p) for p <= n reads it."""
    return _TABLE.bound


def solve_split_generator(p: int) -> EisensteinInteger:
    """The registry generator above a split prime p, by a norm-equation solve.

    omega maps to a root r of x^2 + x + 1 mod p; gcd(p, r - omega) is a prime
    above p, normalized to its primary associate with positive omega
    coefficient.  prime_above takes this route beyond the table bound; it is
    also the reference the table is tested against.
    """
    s = sqrt_mod(p - 3, p)
    r = (p - 1 + s) * pow(2, -1, p) % p
    g = euclidean_gcd(EisensteinInteger(p, 0), EisensteinInteger(r, -1))
    if g.norm() != p:
        raise AssertionError(f"norm-equation solve failed for {p}")
    _, prim = primary_associate(g)
    if prim.b < 0:
        prim = prim.conjugate()  # the conjugate of a primary element is primary
    return prim


@lru_cache(maxsize=None)
def prime_above(p: int) -> PrimeAbove:
    """Deterministic choice of a prime above p; identical on every run.

    p = 3 -> 1 - omega; p = 2 (mod 3) -> p itself; p = 1 (mod 3) -> the
    primary generator with positive omega coefficient among the two
    conjugate primes, which is unique (module docstring).  Two routes give
    that generator: for p up to registry_bound() it is read off the lattice
    table, and beyond it comes from solve_split_generator.
    """
    table = _TABLE
    if p % 3 == 1 and p <= table.bound:
        i = int(np.searchsorted(table.primes, p))
        if i == table.primes.size or table.primes[i] != p:
            raise ValueError(f"{p} is not prime")
        a, b = table.gens[i].tolist()
        return PrimeAbove(p, EisensteinInteger(a, b), "split")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 3:
        return PrimeAbove(3, LAMBDA, "ramified")
    if p % 3 == 2:
        return PrimeAbove(p, EisensteinInteger(p, 0), "inert")
    return PrimeAbove(p, solve_split_generator(p), "split")


# -- cubic residue symbols ------------------------------------------------------


def omega_mod(P: PrimeAbove) -> int:
    """The image -a/b mod p of omega in Z[omega]/P = Z/p, for P = (a + b omega) of degree 1.

    It is the root of x^2 + x + 1 mod p that the generator picks; ValueError
    if p divides b, where no generator of a degree-1 prime can sit.
    """
    g = P.generator
    if g.b % P.p == 0:
        raise ValueError(f"invalid degree-1 generator {g}")
    return (-g.a) * pow(g.b, -1, P.p) % P.p


EXPONENT_ZERO = -1  # the exponent that marks a zero symbol, P | a


def cubic_residue_symbol(a: EisensteinInteger, P: PrimeAbove) -> int:
    """The exponent k of (a / P)_3 = omega^k, k in {0, 1, 2}, or EXPONENT_ZERO if P | a.

    omega^k is a^((N(P)-1)/3) mod P, by Python int arithmetic, exact at any
    size.  At a split p, Z[omega]/P is Z/p with omega -> omega_mod(P); at an
    inert p it holds the pairs x + y*omega mod p with omega^2 = -1 - omega.
    Not defined at the ramified prime above 3 (every unit class there is a
    cube only up to a finer filtration; callers handle 3 explicitly).  A
    power that is no cube root of unity raises RuntimeError: the generator
    is corrupt.
    """
    if P.kind == "ramified":
        raise ValueError("the cubic symbol is not defined at the prime above 3")
    p = P.p
    if P.residue_degree == 1:
        w = omega_mod(P)
        x = (a.a + a.b * w) % p
        if x == 0:
            return EXPONENT_ZERO
        t, roots = pow(x, (p - 1) // 3, p), (1, w, w * w % p)
    else:
        x = (a.a % p, a.b % p)
        if x == (0, 0):
            return EXPONENT_ZERO
        # (a + b w)(c + d w) = (ac - bd) + (ad + bc - bd) w, as EisensteinInteger.__mul__
        t = _power(x, (p * p - 1) // 3, (1, 0),
                   lambda u, v: ((u[0] * v[0] - u[1] * v[1]) % p,
                                 (u[0] * v[1] + u[1] * v[0] - u[1] * v[1]) % p))
        roots = ((1, 0), (0, 1), (p - 1, p - 1))
    if t not in roots:
        raise RuntimeError(f"{t} is not a cube root of unity mod the prime above {p}; "
                           "the registry generator is corrupt")
    return roots.index(t)


_INT64_PRIME_BOUND = 2**31  # p below it keeps every product of residues under 2**63
_NOT_A_ROOT = -2  # a pass's mark for a power that is no cube root of unity

# symbols per numpy pass of _symbol_table, whose int64 arrays stay near 256 kB
_SYMBOLS_PER_PASS = 1 << 15


def cubic_residue_exponents(coeffs: np.ndarray, primes: Sequence[PrimeAbove]) -> np.ndarray:
    """The int8 table of cubic_residue_symbol of every row of `coeffs` at every split P in `primes`.

    Entry [i, j] is the exponent of ((a_i + b_i omega) / P_j)_3 by the
    definition, EXPONENT_ZERO where P_j divides it.  ValueError at an inert
    or ramified P, before any row is read: at an inert P a registry
    generator's symbol is its registry_indices entry, by cubic reciprocity,
    and lambda's comes from lambda_exponents.  A power that is no cube root
    of unity raises the scalar's RuntimeError, else AssertionError.
    """
    for P in primes:
        if P.kind != "split":
            raise ValueError(f"the kernel takes split primes only, not the {P.kind} {P.p}")
    gens = _int_array([P.generator for P in primes]).reshape(-1, 2)
    return _symbol_table(gens, [P.p for P in primes], np.asarray(coeffs, dtype=np.int64)).T


def lambda_exponents(primes: Sequence[PrimeAbove]) -> tuple[np.ndarray, np.ndarray]:
    """The exponents of (lambda / P)_3 and (conj(lambda) / P)_3 at each P of `primes`, no power.

    By the supplementary law (Ireland-Rosen ch. 9), a primary generator
    a + b omega of P, m = (a + 1)/3 and n = b/3 give (lambda / P)_3 = omega^(2m)
    and (omega / P)_3 = omega^(m + n); as conj(lambda) = -omega^2 lambda and -1
    is a cube, (conj(lambda) / P)_3 = omega^(m + 2n).  Exact at any size: a
    norm past int64 takes Python ints.  A generator that is no primary element
    of norm N(P) raises: the scalar symbol's RuntimeError where the generator
    is corrupt, else ValueError.
    """
    gens = _int_array([P.generator for P in primes]).reshape(-1, 2)
    norms = _int_array([P.p ** P.residue_degree for P in primes])
    a, b = gens.T.astype(object) if norms.dtype == object else gens.T
    wrong = np.flatnonzero((a % 3 != 2) | (b % 3 != 0) | (a * a - a * b + b * b != norms))
    if wrong.size:
        P = primes[wrong[0]]
        cubic_residue_symbol(LAMBDA, P)
        raise ValueError(f"{P.generator} above {P.p} is no primary element of norm N(P)")
    m, n = ((a + 1) // 3 % 3).astype(np.int64), (b // 3 % 3).astype(np.int64)
    return 2 * m % 3, (m + 2 * n) % 3


def registry_indices(gens: np.ndarray, n: Sequence[int]) -> np.ndarray:
    """ind_q(n): the int8 k with n^((q - 1)/3) = omega_q^k (mod q), for each row of gens and n.

    A row (a, b) is a primary prime pi = a + b omega of norm q, as every registry
    generator is, and omega_q = -a/b.  So entry [i, j] is cubic_residue_symbol(n_j,
    (pi_i)), EXPONENT_ZERO where q | n_j, and (pi_i / n_j)_3 at an inert prime n_j.
    """
    gens, n = np.asarray(gens, dtype=np.int64), _int_array(n)
    return _symbol_table(gens, None, np.column_stack((n, np.zeros_like(n))))


def generator_exponents(gens: np.ndarray,
                        primes: Sequence[PrimeAbove]) -> tuple[np.ndarray, np.ndarray]:
    """(e, e'): the int8 tables of (pi / P)_3 and (conj(pi) / P)_3, pi a row of gens, P of primes.

    A row (a, b) is a registry generator, a primary prime pi = a + b omega of
    split norm q.  At a split P both come from cubic_residue_exponents; at an
    inert P, by cubic reciprocity, e = ind_q(p) from registry_indices and
    e' = -e, as conjugation squares a symbol (q != p: no zero).  ValueError at
    the prime above 3, before any row is read.
    """
    if any(P.kind == "ramified" for P in primes):
        raise ValueError("the cubic symbol is not defined at the prime above 3")
    split = np.array([P.kind == "split" for P in primes], dtype=bool)
    at = [P for P, s in zip(primes, split) if s]
    e, e_conj = np.empty((2, len(gens), len(primes)), dtype=np.int8)
    e[:, ~split] = registry_indices(gens, [P.p for P, s in zip(primes, split) if not s])
    e_conj[:, ~split] = -e[:, ~split] % 3
    e[:, split] = cubic_residue_exponents(gens, at)
    e_conj[:, split] = cubic_residue_exponents(conjugate_coefficients(gens), at)
    return e, e_conj


def _symbol_table(gens: np.ndarray, q: Sequence[int] | None, coeffs: np.ndarray) -> np.ndarray:
    """(x / (pi))_3 for each prime pi = a + b omega (gens) of norm q and x = c + d omega (coeffs).

    Z[omega]/(pi) is Z/q with omega -> omega_q = -a/b, so entry [i, j] is the
    int8 k with x^((q - 1)/3) = omega_q^k (mod q), or EXPONENT_ZERO where q | x:
    one power per entry, on Python ints from a modulus of 2**31 up.  q None
    takes each row's norm.  A power that is no cube root of unity raises the
    scalar's RuntimeError, else AssertionError.
    """
    out = np.empty((len(gens), len(coeffs)), dtype=np.int8)
    if not out.size:  # else an empty half would still make omega_q for every row
        return out
    step = max(1, _SYMBOLS_PER_PASS // max(1, len(coeffs)))
    chunk = step * (_SYMBOLS_PER_PASS // step)  # rows whose a, b, q and omega_q are made at once
    if len(gens) > chunk:
        for lo in range(0, len(gens), chunk):
            rows = slice(lo, lo + chunk)
            out[rows] = _symbol_table(gens[rows], None if q is None else q[rows], coeffs)
        return out
    if q is None:  # exact norms: Python ints from a coefficient of 2**16 up
        a, b = gens.T.astype(object if np.abs(gens).max(initial=0) >= 1 << 16 else np.int64)
        q = a * a - a * b + b * b
    q = _int_array(q)[:, None]
    wide = object if q.max(initial=0) >= _INT64_PRIME_BOUND else np.int64
    a, b, q = gens[:, :1].astype(wide), gens[:, 1:].astype(wide), q.astype(wide)
    omega = -a * _power_mod(b % q, q - 2, q) % q  # 1/b = b^(q - 2)
    c, d = coeffs[:, 0], coeffs[:, 1]
    for lo in range(0, len(gens), step):
        rows = slice(lo, lo + step)
        m, w = q[rows], omega[rows]
        x = (c % m + d % m * w) % m if d.any() else c % m  # d = 0: a rational column
        if m.dtype != object and m.max() < 1 << 16:  # squares fit uint32, with a faster %
            x, m = x.astype(np.uint32), m.astype(np.uint32)
        t = _power_mod(x, (m - 1) // 3, m)
        k = np.full(x.shape, _NOT_A_ROOT, dtype=np.int8)
        for e, root in enumerate((1, w, w * w % m)):
            k[t == root] = e
        k[x == 0] = EXPONENT_ZERO
        bad = np.argwhere(k == _NOT_A_ROOT)
        if bad.size:
            i, j = bad[0].tolist()
            cubic_residue_symbol(EisensteinInteger(*coeffs[j].tolist()), PrimeAbove(
                int(m[i, 0]), EisensteinInteger(int(a[lo + i, 0]), int(b[lo + i, 0])), "split"))
            raise AssertionError("the vectorized and the scalar cubic symbol disagree")
        out[rows] = k
    return out


def _int_array(values) -> np.ndarray:
    """values as int64, or as Python ints (dtype object) where one is past int64."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:  # numpy would take float64 or uint64 for these
        return np.array(values, dtype=object)


def _power_mod(x: np.ndarray, n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x^n mod m by square-and-multiply, n and m broadcast; int64 is exact while m < 2**31."""
    out, base = np.ones_like(x), x
    for i in range(int(n.max(initial=0)).bit_length()):
        if i:
            base = base * base % m
        bit = (n >> i) & 1 == 1  # one bit at a time: n may have a row per element
        if bit.all():
            out = out * base % m
        elif bit.any():
            np.remainder(out * base, m, out=out, where=bit)
    return out
