#!/usr/bin/env python3
"""The cyclic cubic family: labels, partners, conductors, and counting.

Each cube-free integer D whose prime factors are 0 or 1 mod 3 labels a
cyclic cubic field; D and its exponent-doubled partner label the same field.
The conductor is 9^delta * d1 * d2 and the discriminant its square, so the
family with discriminant in [X, 2X] is enumerated through a conductor
window of width ~ sqrt(X), and its size grows like sqrt(X).
"""

import math

from cyclocubic.fields import (
    FieldLabel,
    defining_polynomial,
    enumerate_family,
    parse_label,
    partner,
)

def poly_str(a, b):
    sign = "-" if b >= 0 else "+"
    return f"x^3 - {3*a}x {sign} {abs(b)}"


print("A label and its partner describe one field:")
for D in (7, 21, 63, 91):
    label = parse_label(D)
    other = partner(label)
    a, b = defining_polynomial(label)
    print(f"  D = {D:>3} ~ {other.D:>4}   {poly_str(a, b)}")
print()

print("The family with discriminant in [2000, 4000]:")
for rec in enumerate_family(2000).records():
    print(f"  D = {rec.D:>3}  conductor {rec.conductor:>3}  "
          f"discriminant {rec.discriminant}  {poly_str(rec.poly_a, rec.poly_b)}")
print()

print("Counts double when X quadruples (square-root growth):")
for x in (10**5, 10**6, 10**7, 10**8):
    n = len(enumerate_family(x))
    print(f"  |F({x:>9})| = {n:>4}   n / sqrt(X) = {n / math.sqrt(x):.4f}")
