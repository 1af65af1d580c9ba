#!/usr/bin/env python3
"""Tour of the Eisenstein integers: units, primes, and cubic residue symbols.

Z[w] with w^2 + w + 1 = 0 is the ring of integers of Q(w).  Rational primes
fall into three camps, and the cubic residue symbol at a chosen prime P
detects cube classes in the residue field.  Everything below is exact.
"""

from cyclocubic.eisenstein import (
    LAMBDA,
    UNITS,
    EisensteinInteger,
    cubic_residue_symbol,
    euclidean_gcd,
    omega_mod,
    primary_associate,
    prime_above,
)

E = EisensteinInteger

print("The six units:", ", ".join(str(u) for u in UNITS))
print("lambda = 1 - w has norm", LAMBDA.norm(), "and lambda^2 =", LAMBDA**2)
print()

print("How rational primes decompose:")
for p in (2, 3, 5, 7, 13, 31, 61):
    P = prime_above(p)
    print(f"  p = {p:>2}: {P.kind:<8} generator {str(P.generator):>7}  "
          f"norm {P.generator.norm()}")
print()

z = E(3, 1)  # 3 + w, a prime of norm 7
unit, prim = primary_associate(z)
print(f"3+w has primary associate {prim} (unit factor {unit});")
print(f"the registry stores {prime_above(7).generator} for p = 7.")
print(f"gcd(3+w, 7) = {euclidean_gcd(z, E(7))}")
print()

print("Cubic residue symbols at the prime above 7 (omega maps to "
      f"{omega_mod(prime_above(7))} mod 7):")
for a in (2, 3, 4, 8):
    k = cubic_residue_symbol(E(a), prime_above(7))
    print(f"  ({a} / P7)_3 = w^{k}")
print("Note 8 = 2^3 lands on the trivial symbol, as every cube must.")
