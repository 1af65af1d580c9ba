#!/usr/bin/env python3
"""Cancellation in the character pair-sums behind the density theorem.

S_p(Y) sums chi_p(d1 * d2^2) over coprime squarefree 3-split pairs with
d1 * d2 <= Y.  The splittings of one n = d1 * d2 sum to the product of
chi_p(q) + chi_p(q)^2 (2, -1 or 0) over its primes q, so S_p(Y) is the
partial sum of a multiplicative function and a rational integer.  Squared,
its Dirichlet series is (up to a tame correction) a product of two Hecke
L-functions, which is why S_p(Y) grows much slower than the ~Y log Y terms
it contains.  The decade envelope of |S| Y^(-3/4) shrinking is the
numerical face of that cancellation.
"""

from cyclocubic.verify import char_sum_grid, genseries_compare, log_grid

for p in (7, 13, 31):
    rows, exponent = char_sum_grid(p, log_grid(10**5, per_decade=3))
    print(f"p = {p}: fitted growth exponent {exponent:.2f}")
    for y, cs in rows:
        bar = "#" * min(60, int(cs.magnitude))
        print(f"  Y = {y:>6}  S = {str(cs.value):>10}  |S| = {cs.magnitude:8.1f} {bar}")
    print()

print("Generating-series comparison at s = 2 (truncations 1e5 vs 1e6):")
for p in (5, 13):
    rep = genseries_compare(p, 2.0)
    n = rep.numbers
    kind = "inert" if p % 3 == 2 else "split"
    print(f"  p = {p} ({kind}): lhs {n['lhs']:.9f} rhs {n['rhs']:.9f} "
          f"relative gap {n['relative_gap']:.2e} [{rep.status}]")
print("The inert case matches to rounding; split base primes keep a genuine")
print("registry-dependent gap, which the verification suite records.")
