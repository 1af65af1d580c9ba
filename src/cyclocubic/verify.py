"""Independent oracles and exploratory probes.

Four kinds of check live here:

* hard oracles that must agree with the character machinery exactly
  (polynomial splitting mod p, ideal-count coefficients, registry-choice
  invariance of the Kummer criterion);
* the 3-adic ramification audit, two independent probes of how 3 behaves
  in the literal Kummer construction;
* cancellation experiments (the character pair-sums S_p(Y));
* the generating-series comparison, which measures rather than asserts the
  square-root identity relating S_p's Dirichlet series to Hecke L-functions.

Probes return ProbeReports.  A report Fails only when an asserted invariant
breaks; exploratory discrepancies (character conventions that genuinely
depend on registry choices, series gaps at split base primes) are recorded
as Findings and never fail a run.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field

import numpy as np

from ._primes import factorize, primes_up_to, smallest_factor_sieve
from .eisenstein import (
    EisensteinInteger,
    LAMBDA,
    cubic_residue_symbol,
    lambda_valuation,
    prime_above,
)
from .fields import (
    FieldLabel,
    defining_polynomial,
    labels_up_to_conductor,
    squarefree_3split_with_factors,
)
from .lfunctions import (
    INERT,
    KUMMER,
    PAPER_LITERAL,
    RAMIFIED,
    SPLIT,
    SplittingType,
    kummer_argument,
    lambda_coefficient,
    lambda_from_splitting,
    splitting_at_three,
    splitting_type,
)

PASS = "pass"
FAIL = "fail"
FINDING = "finding"


@dataclass
class ProbeReport:
    subject: str
    status: str  # pass | fail | finding
    details: list[dict] = field(default_factory=list)
    numbers: dict = field(default_factory=dict)

    def summary_line(self) -> str:
        nums = " ".join(f"{k}={v}" for k, v in sorted(self.numbers.items()))
        return f"{self.subject}: {self.status.upper()} {nums}".rstrip()


# -- polynomial splitting oracle ----------------------------------------------------


def polynomial_splitting_oracle(p: int, label: FieldLabel) -> SplittingType | None:
    """Splitting of p read off root counts of x^3 - 3Ax - B mod p.

    Only applicable away from p | 3 * (4A^3 - B^2) (returns None otherwise,
    never a guess).  Inside the gate the cubic is separable mod p and its
    Galois group is cyclic, so the root count is 0 (inert) or 3 (split);
    anything else means corrupted arithmetic.
    """
    a_coef, b_coef = defining_polynomial(label)
    gate = 3 * (4 * a_coef**3 - b_coef**2)
    if gate % p == 0:
        return None
    x = np.arange(p, dtype=np.int64)
    vals = ((x * x % p) * x - (3 * a_coef % p) * x - b_coef % p) % p
    roots = int(np.count_nonzero(vals == 0))
    if roots == 3:
        return SPLIT
    if roots == 0:
        return INERT
    raise RuntimeError(
        f"cubic for {label} has {roots} roots mod {p} inside the gate; "
        "arithmetic is corrupt"
    )


def splitting_oracle_probe(max_conductor: int = 200, max_p: int = 500) -> ProbeReport:
    """Kummer splitting must equal the root-count oracle on every gated pair."""
    labels = labels_up_to_conductor(max_conductor)
    primes = primes_up_to(max_p)
    checked = mismatches = 0
    rows = []
    for label in labels:
        for p in primes:
            try:
                oracle = polynomial_splitting_oracle(p, label)
                if oracle is None:
                    continue
                checked += 1
                mine = splitting_type(p, label, KUMMER)
            except Exception as exc:  # corrupted registry surfaces here
                mismatches += 1
                rows.append({"label": label, "p": p, "error": repr(exc)})
                continue
            if mine != oracle:
                mismatches += 1
                rows.append({"label": label, "p": p, "kummer": mine, "oracle": oracle})
    status = PASS if mismatches == 0 else FAIL
    return ProbeReport("splitting_oracle", status, rows,
                       {"labels": len(labels), "pairs": checked, "mismatches": mismatches})


# -- registry-choice invariance -------------------------------------------------------

_VARIANTS = ((False, False), (True, False), (False, True), (True, True))


def probe_pairs(n_pairs: int, max_conductor: int = 400, max_p: int = 500,
                seed: int = 1183) -> list[tuple[FieldLabel, int]]:
    """Deterministic sample of (label, p != 3) pairs used by the probes."""
    labels = labels_up_to_conductor(max_conductor)
    primes = [p for p in primes_up_to(max_p) if p != 3]
    rng = random.Random(seed)
    return [(rng.choice(labels), rng.choice(primes)) for _ in range(n_pairs)]


def choice_invariance_probe(pairs: list[tuple[FieldLabel, int]]) -> ProbeReport:
    """Recompute lambda(p) under all four registry variants.

    Kummer values must coincide (a Fail otherwise).  Paper-literal values may
    legitimately differ at split p; each such case is recorded as a Finding
    with the four values.
    """
    kummer_bad = []
    findings = []
    for label, p in pairs:
        kv = [lambda_coefficient(p, 1, label, KUMMER, conjugate_prime=c, swap_factors=s)
              for c, s in _VARIANTS]
        if len(set(kv)) != 1:
            kummer_bad.append({"label": label, "p": p, "values": kv})
        pv = [lambda_coefficient(p, 1, label, PAPER_LITERAL, conjugate_prime=c, swap_factors=s)
              for c, s in _VARIANTS]
        if len(set(pv)) != 1:
            findings.append({"label": label, "p": p, "values": pv})
    if kummer_bad:
        return ProbeReport("choice_invariance", FAIL, kummer_bad,
                           {"pairs": len(pairs), "kummer_failures": len(kummer_bad)})
    status = FINDING if findings else PASS
    return ProbeReport("choice_invariance", status, findings,
                       {"pairs": len(pairs), "kummer_failures": 0,
                        "paper_findings": len(findings)})


def paper_literal_findings(label: FieldLabel, max_p: int) -> list[dict]:
    """Primes p <= max_p where the paper-literal lambda is registry-dependent."""
    out = []
    for p in primes_up_to(max_p):
        if p == 3:
            continue
        vals = [lambda_coefficient(p, 1, label, PAPER_LITERAL, conjugate_prime=c, swap_factors=s)
                for c, s in _VARIANTS]
        if len(set(vals)) != 1:
            oracle = polynomial_splitting_oracle(p, label)
            out.append({"p": p, "values": vals, "oracle": oracle})
    return out


# -- ramification audit at 3 ------------------------------------------------------------


def _lambda_power_residues(k: int):
    """Coefficient ranges covering Z[omega] / (1-omega)^k exactly once or more."""
    half = (k + 1) // 2
    return range(3**half), range(3**half)


def cube_solvable_mod_lambda(c: EisensteinInteger, k: int) -> bool:
    """Brute-force solvability of x^3 = c mod (1-omega)^k."""
    ra, rb = _lambda_power_residues(k)
    for a in ra:
        for b in rb:
            x = EisensteinInteger(a, b)
            diff = x * x * x - c
            if diff.is_zero() or lambda_valuation(diff) >= k:
                return True
    return False


def stable_root_count_mod_3k(a_coef: int, b_coef: int, k_max: int = 12) -> int | None:
    """Number of roots of x^3 - 3Ax - B mod 3^k once the count stabilizes.

    Counts solutions by lifting digit by digit; returns None if the count is
    still moving at k_max (not observed for any label in range).
    """
    sols = [x for x in range(3) if (x**3 - 3 * a_coef * x - b_coef) % 3 == 0]
    mod = 3
    history = [len(sols)]
    for _ in range(2, k_max + 1):
        step, mod = mod, mod * 3
        sols = [x + t * step for x in sols for t in range(3)
                if ((x + t * step) ** 3 - 3 * a_coef * (x + t * step) - b_coef) % mod == 0]
        history.append(len(sols))
    if history[-1] == history[-2] == history[-3]:
        return history[-1]
    return None


def ramification_audit_at_3(label: FieldLabel, k_star: int = 4) -> ProbeReport:
    """Two independent probes of how 3 behaves in the field of `label` (3 not dividing D).

    (i) brute-force cube solvability of D1*D2^2 mod (1-omega)^k_star, and
    (ii) the stabilized root count of the defining cubic mod 3^k: positive
    means 3 splits.  The probes must agree with one another; the verdict is
    then compared with the always-split convention some character arguments
    assume (a Finding when the field is in fact inert at 3, not a failure).
    """
    if label.e3 > 0:
        return ProbeReport(f"ramification_audit[D={label.D}]", PASS,
                           [{"skipped": "3 divides D; the field is ramified at 3"}],
                           {"skipped": 1})
    probe_i = cube_solvable_mod_lambda(kummer_argument(label), k_star)
    a_coef, b_coef = defining_polynomial(label)
    stable = stable_root_count_mod_3k(a_coef, b_coef)
    if stable is None:
        return ProbeReport(f"ramification_audit[D={label.D}]", FAIL,
                           [{"error": "root count did not stabilize"}], {})
    probe_ii = stable > 0
    numbers = {"cube_solvable": probe_i, "stable_roots": stable,
               "splitting": str(splitting_at_three(label))}
    if probe_i != probe_ii:
        return ProbeReport(f"ramification_audit[D={label.D}]", FAIL,
                           [{"probe_i": probe_i, "probe_ii": probe_ii}], numbers)
    if not probe_i:  # unramified but inert: the always-split shortcut is wrong here
        return ProbeReport(f"ramification_audit[D={label.D}]", FINDING,
                           [{"verdict": "inert at 3, not split"}], numbers)
    return ProbeReport(f"ramification_audit[D={label.D}]", PASS, [], numbers)


def calibrate_cube_exponent(labels: list[FieldLabel], candidates=range(3, 9)) -> int:
    """Smallest modulus exponent making probe (i) match probe (ii) on the corpus."""
    targets = {}
    for label in labels:
        a_coef, b_coef = defining_polynomial(label)
        stable = stable_root_count_mod_3k(a_coef, b_coef)
        targets[label] = stable is not None and stable > 0
    for k in candidates:
        ok = True
        for label in labels:
            if cube_solvable_mod_lambda(kummer_argument(label), k) != targets[label]:
                ok = False
                break
        if ok:
            return k
    raise RuntimeError("no exponent in range reconciles the two probes")


def audit_corpus(size: int = 50) -> list[FieldLabel]:
    """The `size` smallest canonical labels with D coprime to 3."""
    labels = [l for l in labels_up_to_conductor(2000) if l.e3 == 0]
    return labels[:size]


def ramification_audit_suite(size: int = 50) -> ProbeReport:
    corpus = audit_corpus(size)
    k_star = calibrate_cube_exponent(corpus)
    findings = []
    for label in corpus:
        rep = ramification_audit_at_3(label, k_star)
        if rep.status == FAIL:
            rep.numbers["k_star"] = k_star
            return rep
        if rep.status == FINDING:
            findings.extend({"D": label.D, **row} for row in rep.details)
    status = FINDING if findings else PASS
    return ProbeReport("ramification_audit", status, findings,
                       {"labels": len(corpus), "k_star": k_star,
                        "inert_at_3": len(findings)})


# -- ideal-count cross-check ---------------------------------------------------------


def _zeta_prime_power_coefficient(st: SplittingType, j: int) -> int:
    """Dirichlet coefficient of zeta_D at p^j from the splitting type."""
    if st == SPLIT:
        return (j + 1) * (j + 2) // 2
    if st == INERT:
        return 1 if j % 3 == 0 else 0
    return 1  # ramified


def _l_prime_power_coefficients(p: int, st: SplittingType, j_max: int) -> list[int]:
    """Coefficients of L_D at p^j, j <= j_max, by the Newton recurrence on lambda.

    j * b_j = sum_{i=1..j} lambda(p^i) b_{j-i}; the division must be exact.
    """
    lam = [lambda_from_splitting(st, i) for i in range(1, j_max + 1)]
    b = [1]
    for j in range(1, j_max + 1):
        s = sum(lam[i - 1] * b[j - i] for i in range(1, j + 1))
        if s % j:
            raise RuntimeError(f"non-integral L coefficient at {p}^{j} of type {st}")
        b.append(s // j)
    return b


def ideal_count_crosscheck(label: FieldLabel, n_max: int = 10**4) -> ProbeReport:
    """zeta_D coefficients two ways: ideal counts vs the zeta * L convolution.

    Route 1 fills a multiplicative array from per-prime ideal counts; route 2
    builds L_D coefficients out of the lambda recurrence and convolves with
    the all-ones zeta coefficients.  Exact integer equality is asserted.
    """
    spf = smallest_factor_sieve(n_max)
    splits = {p: splitting_type(p, label, KUMMER) for p in primes_up_to(n_max)}
    j_cap = max(1, int(math.log2(n_max)))

    zeta_pp = {p: [_zeta_prime_power_coefficient(st, j) for j in range(j_cap + 1)]
               for p, st in splits.items()}
    l_pp = {p: _l_prime_power_coefficients(p, st, j_cap) for p, st in splits.items()}

    a = [0, 1] + [0] * (n_max - 1)
    b = [0, 1] + [0] * (n_max - 1)
    for n in range(2, n_max + 1):
        p = int(spf[n])
        m, j = n, 0
        while m % p == 0:
            m //= p
            j += 1
        a[n] = a[m] * zeta_pp[p][j]
        b[n] = b[m] * l_pp[p][j]
    conv = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        if b[d]:
            for n in range(d, n_max + 1, d):
                conv[n] += b[d]
    bad = [{"n": n, "ideal_count": a[n], "convolution": conv[n]}
           for n in range(1, n_max + 1) if a[n] != conv[n]]
    status = PASS if not bad else FAIL
    return ProbeReport(f"ideal_count[D={label.D}]", status, bad[:20],
                       {"n_max": n_max, "mismatches": len(bad)})


# -- character pair-sums ---------------------------------------------------------------


@dataclass(frozen=True)
class CharSumValue:
    """Exact value in Z[omega] of a pair-sum, with its magnitude."""

    value: EisensteinInteger
    magnitude: float
    pairs: int


def char_sum(p: int, y: int, *, conjugate_prime: bool = False) -> CharSumValue:
    """S_p(Y): sum of chi_p(d1 * d2^2) over coprime squarefree 3-split pairs.

    Pairs (d1, d2) run over d1 * d2 <= Y with both parts coprime to 3 and to
    each other, the pair (1, 1) included.  The sum is assembled exactly in
    Z[omega] from symbol exponents.  `conjugate_prime` flips every registry
    choice at once (the prime above p together with the factor generators);
    since (sigma(x) / sigma(P)) is the square of (x / P), that conjugates
    each term and hence the exact value of the sum.
    """
    if p == 3:
        raise ValueError("chi_p is not defined at p = 3")
    P = prime_above(p)
    if conjugate_prime:
        P = P.conjugate()
    numbers = squarefree_3split_with_factors(1, y)
    exponents: dict[int, int | None] = {}
    for q in {q for _, fac in numbers for q in fac}:
        g = prime_above(q).generator
        if conjugate_prime:
            g = g.conjugate()
        s = cubic_residue_symbol(g, P)
        exponents[q] = s.exponent  # None exactly when q == p
    counts = [0, 0, 0]
    pairs = 0
    for d1, fac1 in numbers:
        e1 = 0
        for q in fac1:
            e = exponents[q]
            if e is None:
                e1 = None
                break
            e1 += e
        max_d2 = y // d1
        for d2, fac2 in numbers:
            if d2 > max_d2:
                break
            if math.gcd(d1, d2) != 1:
                continue
            pairs += 1
            if e1 is None:
                continue
            e2 = 0
            for q in fac2:
                e = exponents[q]
                if e is None:
                    e2 = None
                    break
                e2 += 2 * e
            if e2 is None:
                continue
            counts[(e1 + e2) % 3] += 1
    value = EisensteinInteger(counts[0] - counts[2], counts[1] - counts[2])
    return CharSumValue(value, math.sqrt(value.norm()), pairs)


def char_sum_grid(p: int, y_values: list[int], *, conjugate_prime: bool = False):
    """S_p over a grid of Y values plus the fitted growth exponent of |S_p|."""
    rows = [(y, char_sum(p, y, conjugate_prime=conjugate_prime)) for y in y_values]
    pts = [(math.log(y), math.log(cs.magnitude)) for y, cs in rows if cs.magnitude > 0]
    if len(pts) >= 2:
        xs, ys = zip(*pts)
        exponent = float(np.polyfit(xs, ys, 1)[0])
    else:
        exponent = 0.0
    return rows, exponent


def log_grid(y_max: int, per_decade: int = 10) -> list[int]:
    """Log-spaced integer grid from 10 to y_max, `per_decade` points per decade."""
    decades = int(round(math.log10(y_max)))
    pts = np.linspace(1, decades, per_decade * (decades - 1) + 1)
    return sorted(set(int(round(10.0**e)) for e in pts))


def charsum_decade_envelope(p: int, y_max: int = 10**5) -> dict[int, float]:
    """Per-decade supremum of |S_p(Y)| / Y^(3/4) over the standard log grid.

    Key d covers Y in (10^d, 10^(d+1)].  The individual values fluctuate like
    any character sum; the decade envelope is the stable object whose decay
    exhibits the square-root-barrier cancellation.
    """
    sup: dict[int, float] = {}
    for y in log_grid(y_max):
        if y <= 10:
            continue
        d = int(math.ceil(math.log10(y))) - 1
        cs = char_sum(p, y)
        sup[d] = max(sup.get(d, 0.0), cs.magnitude / y**0.75)
    return sup


# -- generating-series comparison --------------------------------------------------------


def _chi_complex(x: EisensteinInteger, P) -> complex:
    return cubic_residue_symbol(x, P).complex_value()


def genseries_sides(p: int, s: float, p0: int) -> tuple[float, float]:
    """Truncated values of the pair-sum Euler product and its L-function form.

    Left: product over ell = 1 (mod 3), ell <= p0, of 1 + (chi+chi^2)(ell)/ell^s
    with chi evaluated at the registry factor of ell.  Right:
    sqrt(L(chi, s) * L(chi^2, s) * H(s)) with both Hecke products truncated at
    norm <= p0 and H the per-prime correction that restores the left side
    when the symbol pair is conjugation-stable:

        h = (1 - chi x)(1 - chi^2 x)(1 + (chi + chi^2) x)   per prime of norm x^-s,
        an extra (1 - c3 x3 + x3^2) at the prime above 3, and
        (1 + c x)^(-1) per inert rational prime (its pairs never occur on the left).
    """
    P = prime_above(p)
    lhs = 1.0
    l_chi = complex(1.0)
    l_chi2 = complex(1.0)
    h = complex(1.0)

    x3 = 3.0 ** (-s)
    chi3 = _chi_complex(LAMBDA, P)
    l_chi /= 1.0 - chi3 * x3
    l_chi2 /= 1.0 - chi3**2 * x3
    h *= (1.0 - chi3 * x3) * (1.0 - chi3**2 * x3)

    for ell in primes_up_to(p0):
        if ell == 3:
            continue
        if ell % 3 == 1:
            x = ell ** (-s)
            gen = prime_above(ell).generator
            chi_reg = _chi_complex(gen, P)
            for chi in (chi_reg, _chi_complex(gen.conjugate(), P)):
                if chi != 0:
                    l_chi /= 1.0 - chi * x
                    l_chi2 /= 1.0 - chi**2 * x
                    c = (chi + chi**2).real
                    h *= (1.0 - chi * x) * (1.0 - chi**2 * x) * (1.0 + c * x)
            c_reg = (chi_reg + chi_reg**2).real if chi_reg != 0 else 0.0
            lhs *= 1.0 + c_reg * ell ** (-s)
        elif ell * ell <= p0:
            x = ell ** (-2.0 * s)
            chi = _chi_complex(EisensteinInteger(ell), P)
            l_chi /= 1.0 - chi * x
            l_chi2 /= 1.0 - chi**2 * x
            c = (chi + chi**2).real
            h *= (1.0 - chi * x) * (1.0 - chi**2 * x) * (1.0 + c * x)
            h /= 1.0 + c * x  # the inert pairs are absent from the left side
    rhs_sq = (l_chi * l_chi2 * h).real
    return lhs, math.sqrt(abs(rhs_sq))


def genseries_compare(p: int, s: float = 2.0, cutoffs: tuple[int, int] = (10**5, 10**6),
                      cauchy_tol: float = 1e-8) -> ProbeReport:
    """Convergence (asserted) and side agreement (measured) of the identity.

    Both truncations must be Cauchy to `cauchy_tol` between the two cutoffs;
    the relative gap between the sides is recorded.  For inert base primes
    the construction cancels exactly and the gap is floating-point noise; for
    split p a genuine registry-dependent gap remains and is a Finding.
    """
    lhs_a, rhs_a = genseries_sides(p, s, cutoffs[0])
    lhs_b, rhs_b = genseries_sides(p, s, cutoffs[1])
    d_lhs = abs(lhs_b - lhs_a)
    d_rhs = abs(rhs_b - rhs_a)
    gap = abs(rhs_b - lhs_b) / abs(lhs_b)
    numbers = {"p": p, "s": s, "lhs": lhs_b, "rhs": rhs_b,
               "cauchy_lhs": d_lhs, "cauchy_rhs": d_rhs, "relative_gap": gap}
    if d_lhs > cauchy_tol or d_rhs > cauchy_tol:
        return ProbeReport(f"genseries[p={p}]", FAIL,
                           [{"cauchy_lhs": d_lhs, "cauchy_rhs": d_rhs}], numbers)
    if p % 3 == 1 and gap > 1e-9:
        return ProbeReport(f"genseries[p={p}]", FINDING, [{"relative_gap": gap}], numbers)
    return ProbeReport(f"genseries[p={p}]", PASS, [], numbers)


# -- family count scaling ------------------------------------------------------------------


def family_count_scaling(x_grid: list[int]) -> ProbeReport:
    """log-log slope of |F(X)| against X; sqrt growth means slope near 1/2."""
    from .fields import enumerate_family

    counts = [len(enumerate_family(x)) for x in x_grid]
    slope = float(np.polyfit([math.log(x) for x in x_grid],
                             [math.log(c) for c in counts], 1)[0])
    numbers = {"grid": tuple(x_grid), "counts": tuple(counts), "slope": round(slope, 4)}
    status = PASS if 0.45 <= slope <= 0.55 else FAIL
    return ProbeReport("family_count_scaling", status, [], numbers)


# -- suite driver -----------------------------------------------------------------------


def run_probe_suite(pairs: int = 1000, audit_size: int = 50,
                    ideal_labels: int = 10, ideal_n: int = 10**4,
                    charsum_primes: tuple[int, ...] = (7, 13),
                    charsum_y: int = 10**3,
                    genseries_primes: tuple[int, ...] = (5, 13),
                    genseries_p0: tuple[int, int] = (10**5, 10**6),
                    s: float = 2.0,
                    scaling_grid: tuple[int, ...] = (10**6, 10**7, 10**8)) -> list[ProbeReport]:
    """The default verification battery, deterministic end to end.

    Both generating-series probes evaluate their Euler products at real `s`.
    """
    reports = [splitting_oracle_probe()]
    reports.append(choice_invariance_probe(probe_pairs(pairs)))
    reports.append(ramification_audit_suite(audit_size))
    for label in audit_corpus(ideal_labels):
        reports.append(ideal_count_crosscheck(label, ideal_n))
    for p in charsum_primes:
        plain = char_sum(p, charsum_y)
        conj = char_sum(p, charsum_y, conjugate_prime=True)
        ok = conj.value == plain.value.conjugate()
        reports.append(ProbeReport(
            f"charsum_conjugation[p={p}]", PASS if ok else FAIL, [],
            {"y": charsum_y, "value": str(plain.value), "magnitude": plain.magnitude}))
    for p in genseries_primes:
        reports.append(genseries_compare(p, s, genseries_p0))
    reports.append(family_count_scaling(list(scaling_grid)))
    return reports
