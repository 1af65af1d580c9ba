#!/usr/bin/env python3
"""The main experiment: one-level density of low-lying zeros is unitary.

For each field the explicit formula turns the zero statistic into
archimedean - prime_sum + gamma_term.  Averaged over the family, the prime
sum T is the discriminating piece: a unitary family leaves it near zero
while symplectic or orthogonal symmetry would push it toward +-0.22 at this
scale.  Run time is a few seconds at X = 1e8; lower X for a quicker look.
"""

import sys

from cyclocubic.density import (
    classify_symmetry,
    family_average,
    fejer_pair,
    kernel_integral,
    reference_statistics,
)
from cyclocubic.fields import enumerate_family

X = int(sys.argv[1]) if len(sys.argv) > 1 else 10**8
BETA = 0.2

tf = fejer_pair(BETA)
print(f"Test function: Fejer pair with support radius beta = {BETA}")
print("Kernel integrals f against the five symmetry densities:")
for g in ("U", "Sp", "O", "SOeven", "SOodd"):
    print(f"  {g:<7} {kernel_integral(g, tf):.4f}")
print()

family = enumerate_family(X)
summary = family_average(family, tf)
refs = reference_statistics(family, tf)
verdict = classify_symmetry(summary.t_statistic, refs)

print(f"Family: {summary.count} fields with discriminant in [{X}, {2*X}]")
print("First few per-field breakdowns (archimedean, gamma, prime sum, total):")
for D, gam, ps, total in zip(family.D[:5].tolist(), summary.gamma_term[:5].tolist(),
                             summary.prime_sum[:5].tolist(), summary.total[:5].tolist()):
    print(f"  D = {D:>6}: {tf.fhat_at_0:+.4f} {gam:+.4f} {ps:+.4f} -> {total:+.4f}")
print()
print(f"average density   = {summary.average:+.6f}")
print(f"T (avg prime sum) = {summary.t_statistic:+.6f}")
print(f"references        = U: 0, Sp: {refs['Sp']:+.4f}, "
      f"O/SO: {refs['SOeven']:+.4f}")
print(f"classification    = {verdict.kernel} (margin {verdict.margin:.4f})")
