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
conjugates whose primary generator has positive omega coefficient.  Cubic
residue symbols are evaluated by modular exponentiation in the residue field
of the chosen prime.

All values are immutable after construction and the registry is append-only,
so every operation is safe for concurrent callers.  The value types are
NamedTuples and coefficients are unbounded Python ints.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from ._primes import is_prime, sqrt_mod


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

    def __mul__(self, other: "EisensteinInteger") -> "EisensteinInteger":
        # omega^2 = -1 - omega
        a, b, c, d = self.a, self.b, other.a, other.b
        return EisensteinInteger(a * c - b * d, a * d + b * c - b * d)

    def __pow__(self, n: int) -> "EisensteinInteger":
        if n < 0:
            raise ValueError("negative powers are not Eisenstein integers")
        out, base = ONE, self
        while n:
            if n & 1:
                out = out * base
            base_needed = n > 1
            n >>= 1
            if base_needed:
                base = base * base
        return out

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


def _round_div(u: int, v: int) -> int:
    # round(u / v) with half-up tie break; v > 0 here (a norm)
    return (2 * u + v) // (2 * v)


ZERO = EisensteinInteger(0, 0)
ONE = EisensteinInteger(1, 0)
OMEGA = EisensteinInteger(0, 1)
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
    residue_degree: int  # 1 or 2
    kind: str  # "split" | "inert" | "ramified"

    def residue_norm(self) -> int:
        return self.p if self.residue_degree == 1 else self.p * self.p

    def conjugate(self) -> "PrimeAbove":
        """The conjugate prime (same prime for inert p and for p = 3 as an ideal)."""
        return PrimeAbove(self.p, self.generator.conjugate(), self.residue_degree, self.kind)


@lru_cache(maxsize=None)
def prime_above(p: int) -> PrimeAbove:
    """Deterministic choice of a prime above p; identical on every run.

    p = 3 -> 1 - omega; p = 2 (mod 3) -> p itself; p = 1 (mod 3) -> the
    primary generator with positive omega coefficient among the two
    conjugate primes (found through a norm-equation solve, then normalized).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 3:
        return PrimeAbove(3, LAMBDA, 1, "ramified")
    if p % 3 == 2:
        return PrimeAbove(p, EisensteinInteger(p, 0), 2, "inert")
    # split: omega maps to a root of x^2 + x + 1 mod p
    s = sqrt_mod(p - 3, p)
    r = (p - 1 + s) * pow(2, -1, p) % p
    g = euclidean_gcd(EisensteinInteger(p, 0), EisensteinInteger(r, -1))
    if g.norm() != p:
        raise AssertionError(f"norm-equation solve failed for {p}")
    _, prim = primary_associate(g)
    if prim.b < 0:
        prim = prim.conjugate()  # the conjugate of a primary element is primary
    return PrimeAbove(p, prim, 1, "split")


# -- residue fields and cubic symbols ------------------------------------------


class ResidueField:
    """O_K / P presented concretely, with a ring-homomorphism reduction map.

    residue_degree 1: integers mod p, omega mapped to the root of x^2+x+1
    determined by the generator (for p = 3 the root is 1).
    residue_degree 2: pairs (x, y) = x + y*omega mod p with omega^2 = -1-omega.
    """

    __slots__ = ("p", "degree", "omega", "_roots")

    def __init__(self, P: PrimeAbove):
        self.p = P.p
        self.degree = P.residue_degree
        if self.degree == 1:
            g = P.generator
            if g.b % self.p == 0:
                raise ValueError(f"invalid degree-1 generator {g}")
            self.omega = (-g.a) * pow(g.b, -1, self.p) % self.p
            self._roots = {1: 0, self.omega: 1, self.omega * self.omega % self.p: 2}
        else:
            self.omega = (0, 1)
            self._roots = {(1, 0): 0, (0, 1): 1, (self.p - 1, self.p - 1): 2}

    def reduce(self, z: EisensteinInteger):
        if self.degree == 1:
            return (z.a + z.b * self.omega) % self.p
        return (z.a % self.p, z.b % self.p)

    def is_zero(self, x) -> bool:
        return x == 0 if self.degree == 1 else x == (0, 0)

    def mul(self, x, y):
        if self.degree == 1:
            return x * y % self.p
        a, b = x
        c, d = y
        return ((a * c - b * d) % self.p, (a * d + b * c - b * d) % self.p)

    def power(self, x, n: int):
        if self.degree == 1:
            return pow(x, n, self.p)
        out, base = (1, 0), x
        while n:
            if n & 1:
                out = self.mul(out, base)
            n >>= 1
            if n:
                base = self.mul(base, base)
        return out

    def cube_root_index(self, x) -> int:
        """k with x = omega^k in the residue field; raises if x is not one."""
        try:
            return self._roots[x]
        except KeyError:
            raise RuntimeError(
                f"{x} is not a cube root of unity mod the prime above {self.p}; "
                "the registry generator is corrupt"
            ) from None


@lru_cache(maxsize=None)
def residue_map(P: PrimeAbove) -> ResidueField:
    """The residue field of P with its reduction homomorphism."""
    return ResidueField(P)


class CubicSymbol(NamedTuple):
    """Value of a cubic residue symbol: 0 or omega^k, k in {0, 1, 2}."""

    exponent: int | None  # None encodes 0

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    @property
    def is_one(self) -> bool:
        return self.exponent == 0

    def __mul__(self, other: "CubicSymbol") -> "CubicSymbol":
        if self.is_zero or other.is_zero:
            return SYMBOL_ZERO
        return _SYMBOLS[(self.exponent + other.exponent) % 3]

    def __pow__(self, n: int) -> "CubicSymbol":
        if self.is_zero:
            return SYMBOL_ZERO
        return _SYMBOLS[self.exponent * n % 3]

    def conjugate(self) -> "CubicSymbol":
        return self**2

    def real_double(self) -> int:
        """value + conjugate: 2 for omega^0, -1 otherwise, 0 for the zero symbol."""
        if self.is_zero:
            return 0
        return 2 if self.exponent == 0 else -1

    def complex_value(self) -> complex:
        if self.is_zero:
            return 0j
        return (1, -0.5 + 0.8660254037844386j, -0.5 - 0.8660254037844386j)[self.exponent]

    def __repr__(self) -> str:
        return "CubicSymbol(0)" if self.is_zero else f"CubicSymbol(w^{self.exponent})"


_SYMBOLS = (CubicSymbol(0), CubicSymbol(1), CubicSymbol(2))
SYMBOL_ZERO = CubicSymbol(None)
SYMBOL_ONE, SYMBOL_OMEGA, SYMBOL_OMEGA2 = _SYMBOLS


def cubic_residue_symbol(a: EisensteinInteger, P: PrimeAbove) -> CubicSymbol:
    """(a / P)_3: zero if P | a, else the omega-power a^((N(P)-1)/3) mod P.

    Not defined at the ramified prime above 3 (every unit class there is a
    cube only up to a finer filtration; callers handle 3 explicitly).
    """
    if P.kind == "ramified":
        raise ValueError("the cubic symbol is not defined at the prime above 3")
    field = residue_map(P)
    x = field.reduce(a)
    if field.is_zero(x):
        return SYMBOL_ZERO
    t = field.power(x, (P.residue_norm() - 1) // 3)
    return _SYMBOLS[field.cube_root_index(t)]
