"""Independent oracles and exploratory probes.

Four kinds of check live here:

* hard oracles that must agree with the character machinery exactly
  (polynomial splitting mod p, ideal-count coefficients, registry-choice
  invariance of the Kummer criterion);
* the 3-adic ramification audit, two independent probes of how 3 behaves
  in the literal Kummer construction;
* cancellation experiments (the character pair-sums S_p(Y), partial sums
  of the multiplicative h(n) = prod_{q | n} (chi_p(q) + chi_p(q)^2), so
  rational integers by construction);
* the generating-series comparison, which measures rather than asserts the
  square-root identity relating S_p's Dirichlet series to Hecke L-functions.
  Its Euler products keep every bit of a CPython loop over the primes: numpy
  only scales a complex by a real and adds, which rounds as CPython does,
  FMA or not, and every complex product and quotient is CPython's own.

A character is named as in lfunctions, by the element (g, c) whose symbol
(D1^g * D2^c / P)_3 it is: KUMMER = (1, 2) is the one `density` uses, and
PAPER_LITERAL = (1, 0) is the paper's literal chi_p.  The four registry
variants of either take P above p or its conjugate, each with (g, c) or
with (g, c) reversed (D2 in the role of D1).

The hard oracles check the character data that `density` uses, the
exponent table of lfunctions.lambda_table, against computations that share
none of its arithmetic: each probe reads lambda for all its (label, p)
pairs off one table (per registry variant), so no Z[omega] product is
built per pair.

Probes return ProbeReports.  A report Fails only when an asserted invariant
breaks; exploratory discrepancies (the paper-literal lambda, which genuinely
depends on registry choices, and series gaps at split base primes) are
recorded as Findings and never fail a run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import mul, truediv
from typing import Sequence

import numpy as np

from ._primes import prime_sieve, primes_up_to, smallest_factor_sieve
from .eisenstein import (
    EXPONENT_ZERO,
    EisensteinInteger,
    PrimeAbove,
    generator_exponents,
    lambda_exponents,
    lambda_valuation,
    prime_above,
    registry_indices,
    registry_table,
)
from .fields import (
    Family,
    FieldLabel,
    defining_polynomial,
    family_of,
    labels_up_to_conductor,
    squarefree_3split_columns,
    three_split_factorization,
)
from .lfunctions import (
    INERT,
    KUMMER,
    PAPER_LITERAL,
    RAMIFIED,
    SPLIT,
    SplittingType,
    _lambda_tables,
    lambda_from_splitting,
    lambda_table,
    splitting_at_three,
)

PASS = "pass"
FAIL = "fail"
FINDING = "finding"

# --p0 and --ymax each size a sieve with that many entries, a terabyte at this
# bound; past 2**63 numpy could not even index one
SIEVE_MAX = 2**40


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
    return _root_count_splittings([p], label, *defining_polynomial(label))[0]


def _root_count_splittings(primes: Sequence[int], label: FieldLabel, a_coef: int, b_coef: int,
                           cubes: tuple[np.ndarray, ...] | None = None,
                           ) -> list[SplittingType | None]:
    """polynomial_splitting_oracle at every p of `primes`, for the cubic x^3 - 3 a_coef x - b_coef
    of `label`: one array pass evaluates it at every x mod every p.  `cubes` is
    _cubes_mod_primes(primes), which a caller with many cubics builds once."""
    mod, x, cubes, starts = _cubes_mod_primes(primes) if cubes is None else cubes
    a3, b = (np.repeat([v % q for q in primes], primes) for v in (3 * a_coef, b_coef))
    roots = np.add.reduceat((cubes - a3 * x - b) % mod == 0, starts, dtype=np.int64)
    gate = 3 * (4 * a_coef**3 - b_coef**2)
    out = []
    for q, count in zip(primes, roots.tolist()):
        if gate % q and count not in (0, 3):
            raise RuntimeError(f"cubic for {label} has {count} roots mod {q} inside the gate; "
                               "arithmetic is corrupt")
        out.append(None if gate % q == 0 else SPLIT if count == 3 else INERT)
    return out


def _cubes_mod_primes(primes: Sequence[int]) -> tuple[np.ndarray, ...]:
    """(mod, x, x^3 mod p, starts): every x mod every p of `primes`, laid end to end, with
    the start of each p's run; no label enters, so every cubic of a probe can share it."""
    p = np.array(primes, dtype=np.int64)
    starts = np.cumsum(p) - p
    mod = np.repeat(p, p)
    x = np.arange(mod.size) - np.repeat(starts, p)
    return mod, x, x * x % mod * x % mod, starts


# the splitting type of p read off lambda(p), the inverse of lambda_from_splitting(., 1)
_SPLITTING_OF_LAMBDA = {2: SPLIT, -1: INERT, 0: RAMIFIED}


def splitting_oracle_probe(max_conductor: int = 200, max_p: int = 500) -> ProbeReport:
    """Kummer splitting must equal the root-count oracle on every gated pair.

    The Kummer side is one lambda_table of every label and prime; the oracle
    counts the roots of each label's defining cubic at all primes in one pass.
    A table that cannot be built (a corrupt registry) counts as a mismatch.
    """
    labels = labels_up_to_conductor(max_conductor)
    primes = primes_up_to(max_p)
    try:
        table = lambda_table(labels, primes).tolist()
    except Exception as exc:  # corrupted registry surfaces here
        return ProbeReport("splitting_oracle", FAIL, [{"error": repr(exc)}],
                           {"labels": len(labels), "pairs": 0, "mismatches": 1})
    checked = mismatches = 0
    rows = []
    cubes = _cubes_mod_primes(primes)
    for label, lam in zip(labels, table):
        try:
            oracles = _root_count_splittings(primes, label, *defining_polynomial(label), cubes)
        except Exception as exc:  # corrupted arithmetic surfaces here
            mismatches += 1
            rows.append({"label": label, "error": repr(exc)})
            continue
        for p, value, oracle in zip(primes, lam, oracles):
            if oracle is None:
                continue
            checked += 1
            mine = _SPLITTING_OF_LAMBDA[value]
            if mine != oracle:
                mismatches += 1
                rows.append({"label": label, "p": p, "kummer": mine, "oracle": oracle})
    status = PASS if mismatches == 0 else FAIL
    return ProbeReport("splitting_oracle", status, rows,
                       {"labels": len(labels), "pairs": checked, "mismatches": mismatches})


# -- registry-choice invariance -------------------------------------------------------

def probe_pairs(n_pairs: int) -> list[tuple[FieldLabel, int]]:
    """Deterministic sample of (label with conductor <= 400, p != 3 below 500) pairs."""
    labels = labels_up_to_conductor(400)
    primes = [p for p in primes_up_to(500) if p != 3]
    rng = random.Random(1183)
    return [(rng.choice(labels), rng.choice(primes)) for _ in range(n_pairs)]


def _variant_tables(family: Family, primes: list[int], element: tuple[int, int]) -> np.ndarray:
    """lambda_table of `element` under the four registry variants, stacked along a first axis.

    In order: the registry prime above p, then its conjugate, each first with
    D1 and then with D2 in the role of D1, which reverses (g, c).  The four
    tables share their symbols (lfunctions._exponent_tables).
    """
    return np.stack(_lambda_tables(family, primes, [(el, conj) for el in (element, element[::-1])
                                                    for conj in (False, True)]))


def choice_invariance_probe(pairs: list[tuple[FieldLabel, int]]) -> ProbeReport:
    """Recompute lambda(p) under all four registry variants.

    Kummer values must coincide (a Fail otherwise).  Paper-literal values may
    legitimately differ at split p; each such case is recorded as a Finding
    with the four values.  Each variant is one lambda_table over the
    distinct labels and primes of `pairs`.
    """
    labels = list(dict.fromkeys(label for label, _ in pairs))
    primes = sorted({p for _, p in pairs})
    row_of = {label: i for i, label in enumerate(labels)}
    col_of = {p: j for j, p in enumerate(primes)}
    rows = [row_of[label] for label, _ in pairs]
    cols = [col_of[p] for _, p in pairs]
    family = family_of(labels)
    kummer, paper = (_variant_tables(family, primes, element)[:, rows, cols].T.tolist()
                     for element in (KUMMER, PAPER_LITERAL))
    kummer_bad = []
    findings = []
    for (label, p), kv, pv in zip(pairs, kummer, paper):
        if len(set(kv)) != 1:
            kummer_bad.append({"label": label, "p": p, "values": kv})
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
    primes = [p for p in primes_up_to(max_p) if p != 3]
    values = _variant_tables(family_of([label]), primes, PAPER_LITERAL)[:, 0].T.tolist()
    return [{"p": p, "values": vals, "oracle": polynomial_splitting_oracle(p, label)}
            for p, vals in zip(primes, values) if len(set(vals)) != 1]


# -- ramification audit at 3 ------------------------------------------------------------


def cube_solvable_mod_lambda(c: EisensteinInteger, k: int) -> bool:
    """Brute-force x^3 = c mod (1-omega)^k over x = a + b omega, a, b < 3^ceil(k/2)."""
    return any(diff.is_zero() or lambda_valuation(diff) >= k
               for diff in (cube - c for cube in _cubes_mod_lambda(k)))


@lru_cache(maxsize=None)
def _cubes_mod_lambda(k: int) -> tuple[EisensteinInteger, ...]:
    """x^3 for every x = a + b omega of cube_solvable_mod_lambda's box at k, shared by all c."""
    residues = range(3 ** ((k + 1) // 2))
    return tuple(x * x * x for x in (EisensteinInteger(a, b) for a in residues for b in residues))


_ROOT_LIFTS = 12  # stable_root_count_mod_3k lifts its roots up to 3^12


def stable_root_count_mod_3k(a_coef: int, b_coef: int) -> int | None:
    """Number of roots of x^3 - 3Ax - B mod 3^k once the count stabilizes.

    Counts solutions by lifting digit by digit; returns None if the count is
    still moving at k = 12 (not observed for any label in range).  3A and B
    are reduced mod 3^12 first, so the lifts are int64 arrays whose every
    product stays below 3^24.
    """
    top = 3**_ROOT_LIFTS
    a3, b = 3 * a_coef % top, b_coef % top
    sols, mod, history = np.zeros(1, dtype=np.int64), 1, []
    for _ in range(_ROOT_LIFTS):
        step, mod = mod, mod * 3
        x = (sols[:, None] + step * np.arange(3)).ravel()
        sols = x[(x * x % mod * x - a3 * x - b) % mod == 0]
        history.append(sols.size)
    if history[-1] == history[-2] == history[-3]:
        return history[-1]
    return None


@lru_cache(maxsize=None)
def _cube_data(label: FieldLabel) -> tuple[EisensteinInteger, int | None]:
    """What both ramification probes read of a label, from one factorization: c = D1 * D2^2
    and the stable root count of x^3 - 3Ax - B, with (A, B) as defining_polynomial."""
    d1, d2 = three_split_factorization(label)
    return d1 * d2 * d2, stable_root_count_mod_3k(label.D, label.D * d1.trace())


def ramification_audit_at_3(label: FieldLabel, k_star: int = 4) -> ProbeReport:
    """Two independent probes of how 3 behaves in the field of `label` (3 not dividing D).

    (i) brute-force cube solvability of D1*D2^2 mod (1-omega)^k_star, and
    (ii) the stabilized root count of the defining cubic mod 3^k: positive
    means 3 splits.  The probes must agree with one another and with
    splitting_at_three; the verdict is then compared with the always-split
    convention some character arguments assume (a Finding when the field is
    in fact inert at 3, not a failure).
    """
    if label.e3 > 0:
        return ProbeReport(f"ramification_audit[D={label.D}]", PASS,
                           [{"skipped": "3 divides D; the field is ramified at 3"}],
                           {"skipped": 1})
    c, stable = _cube_data(label)
    probe_i = cube_solvable_mod_lambda(c, k_star)
    if stable is None:
        return ProbeReport(f"ramification_audit[D={label.D}]", FAIL,
                           [{"error": "root count did not stabilize"}], {})
    probe_ii = stable > 0
    splitting = splitting_at_three(label)
    numbers = {"cube_solvable": probe_i, "stable_roots": stable, "splitting": str(splitting)}
    if probe_i != probe_ii or splitting != (SPLIT if probe_i else INERT):
        return ProbeReport(f"ramification_audit[D={label.D}]", FAIL,
                           [{"probe_i": probe_i, "probe_ii": probe_ii,
                             "splitting_at_three": splitting}], numbers)
    if not probe_i:  # unramified but inert: the always-split shortcut is wrong here
        return ProbeReport(f"ramification_audit[D={label.D}]", FINDING,
                           [{"verdict": "inert at 3, not split"}], numbers)
    return ProbeReport(f"ramification_audit[D={label.D}]", PASS, [], numbers)


def calibrate_cube_exponent(labels: list[FieldLabel]) -> int:
    """Smallest modulus exponent k in 3..8 making probe (i) match probe (ii) on the corpus."""
    corpus = [_cube_data(label) for label in labels]
    targets = [stable is not None and stable > 0 for _, stable in corpus]
    for k in range(3, 9):
        if all(cube_solvable_mod_lambda(c, k) == target
               for (c, _), target in zip(corpus, targets)):
            return k
    raise RuntimeError("no exponent in range reconciles the two probes")


def audit_corpus(size: int = 50) -> list[FieldLabel]:
    """The `size` smallest canonical labels with D coprime to 3."""
    labels = [l for l in labels_up_to_conductor(2000) if l.e3 == 0]
    return labels[:size]


def ramification_audit_suite(size: int = 50) -> ProbeReport:
    """ramification_audit_at_3 of every label of audit_corpus(size) at the calibrated k.

    Each label is factored once for both probes and the calibration (they
    share the cached _cube_data); only splitting_at_three, the reference,
    factors it again.
    """
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


def _l_prime_power_coefficients(st: SplittingType, j_max: int) -> list[int]:
    """Coefficients of L_D at p^j, j <= j_max, by the Newton recurrence on lambda.

    j * b_j = sum_{i=1..j} lambda(p^i) b_{j-i}; the division must be exact.
    """
    lam = [lambda_from_splitting(st, i) for i in range(1, j_max + 1)]
    b = [1]
    for j in range(1, j_max + 1):
        s = sum(lam[i - 1] * b[j - i] for i in range(1, j + 1))
        if s % j:
            raise RuntimeError(f"non-integral L coefficient at p^{j} of type {st}")
        b.append(s // j)
    return b


@lru_cache(maxsize=1)
def _prime_power_passes(n_max: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """(n, p, j), p^j exactly dividing n, with p the k-th smallest prime of n in pass k,
    for 2 <= n <= n_max off the smallest-factor sieve: no label enters, so it is shared."""
    spf, n = smallest_factor_sieve(n_max), np.arange(2, n_max + 1)
    rest, passes = n.copy(), []  # rest: the part of n not yet factored
    while n.size:
        p = spf[rest]
        j = np.zeros(n.size, dtype=np.intp)
        divisible = np.ones(n.size, dtype=bool)
        while divisible.any():
            rest = np.where(divisible, rest // p, rest)
            j += divisible
            divisible = rest % p == 0
        n.flags.writeable = p.flags.writeable = j.flags.writeable = False  # shared by every call
        passes.append((n, p, j))
        n, rest = n[rest > 1], rest[rest > 1]
    return tuple(passes)


def ideal_count_crosscheck(label: FieldLabel, n_max: int = 10**4, *,
                           row: np.ndarray | None = None) -> ProbeReport:
    """zeta_D coefficients two ways: ideal counts vs the zeta * L convolution.

    The splitting of every p <= n_max is one lambda_table row: `row` if given
    (the label's row of a table over the primes <= n_max, so many labels
    share one table), else the call builds it.  Route 1
    fills a multiplicative array from per-prime ideal counts; route 2 builds
    L_D coefficients out of the lambda recurrence and convolves with the
    all-ones zeta coefficients.  Both are exact int64
    array operations: the fill reads the prime powers of every n off
    _prime_power_passes, and the convolution adds b[d] at d * k for every
    d * k <= n_max in 2 sqrt(n_max) slices, one per k <= sqrt(n_max) and one
    per d <= sqrt(n_max) for the larger k.  Exact integer equality is asserted.
    A lambda(p) outside {2, -1, 0} names no splitting type, so it fails the
    check, with the primes that carry one.
    """
    primes = np.flatnonzero(prime_sieve(n_max))
    types = (SPLIT, INERT, RAMIFIED)
    j_cap = max(1, int(math.log2(n_max)))
    zeta_pp = np.array([[_zeta_prime_power_coefficient(st, j) for j in range(j_cap + 1)]
                        for st in types], dtype=np.int64)
    l_pp = np.array([_l_prime_power_coefficients(st, j_cap) for st in types], dtype=np.int64)
    lam = lambda_table([label], primes.tolist())[0] if row is None else row
    type_of = np.full(n_max + 1, -1, dtype=np.intp)  # index into `types` of each prime
    for value, st in _SPLITTING_OF_LAMBDA.items():
        type_of[primes[lam == value]] = types.index(st)
    stray = np.flatnonzero(type_of[primes] < 0)  # no splitting type gives their lambda
    if stray.size:
        bad = [{"p": p, "lambda": v} for p, v in zip(primes[stray].tolist(), lam[stray].tolist())]
        return ProbeReport(f"ideal_count[D={label.D}]", FAIL, bad[:20],
                           {"n_max": n_max, "stray_lambda": len(bad)})

    a, b = np.ones((2, n_max + 1), dtype=np.int64)
    a[0] = b[0] = 0
    for n, p, j in _prime_power_passes(n_max):
        a[n] *= zeta_pp[type_of[p], j]
        b[n] *= l_pp[type_of[p], j]
    s = math.isqrt(n_max)
    conv = np.zeros(n_max + 1, dtype=np.int64)
    for k in range(1, s + 1):  # b[d] at d * k for every d, k <= s
        conv[k::k] += b[1:n_max // k + 1]
    for d in range(1, s + 1):  # and for k > s, where d * k <= n_max forces d <= s
        conv[d * (s + 1)::d] += b[d]
    wrong = np.flatnonzero(a != conv)
    bad = [{"n": n, "ideal_count": a_n, "convolution": c_n}
           for n, a_n, c_n in zip(wrong.tolist(), a[wrong].tolist(), conv[wrong].tolist())]
    status = PASS if not bad else FAIL
    return ProbeReport(f"ideal_count[D={label.D}]", status, bad[:20],
                       {"n_max": n_max, "mismatches": len(bad)})


# -- character pair-sums ---------------------------------------------------------------


def chi_prime(p: int) -> PrimeAbove:
    """P above p, chi_p = (. / P)_3: ValueError at p = 3, and at a p prime_above refuses."""
    if p == 3:
        raise ValueError("chi_p is undefined at p = 3; drop it from --primes")
    return prime_above(p)


def check_ymax(y_max: int) -> None:
    """ValueError unless 10 <= y_max <= SIEVE_MAX: the top Y of run_probe_suite or a log_grid."""
    if y_max < 10:
        raise ValueError("--ymax must be at least 10")
    if y_max > SIEVE_MAX:
        raise ValueError("--ymax must be at most 2**40; its sieve would need more than a terabyte")


@dataclass(frozen=True)
class CharSumValue:
    """Exact value in Z[omega] of a pair-sum, with its magnitude."""

    value: EisensteinInteger
    magnitude: float
    pairs: int


def char_sums(p: int, y_values: Sequence[int], *,
              conjugate_prime: bool = False) -> list[CharSumValue]:
    """S_p(Y) for every Y in `y_values`, from the rows of _char_sum_rows up to the largest.

    The 2^k splittings n = d1 * d2 of a squarefree 3-split n with k primes
    multiply out: their terms sum to the product over q | n of
    chi_p(q) + chi_p(q)^2 = lambda_p(q), which is 2, -1 or 0 as chi_p(q) is
    1, a primitive cube root of unity or 0.  So S_p(Y) is the sum over
    n <= Y of the multiplicative h(n) = prod lambda_p(q), and the pair count
    the sum of 2^k; both are read off cumulative sums over n ascending.  Only
    lambda_p depends on p: the rows of n, and their pair counts, are built
    once per largest Y and shared by every p.  chi_prime refuses p before any work.
    """
    P = chi_prime(p)
    if conjugate_prime:
        P = P.conjugate()
    y_top = max([1, *y_values])  # n = 1 is always a row
    _, gens = registry_table(y_top)  # every q of every squarefree 3-split n <= y_top
    # the conjugate registry takes conj(pi_q) at conj(P)
    exponents = generator_exponents(gens, [P])[conjugate_prime][:, 0]
    lam = np.where(exponents == EXPONENT_ZERO, 0, np.where(exponents == 0, 2, -1))
    n, positions, order, pair_counts = _char_sum_rows(y_top)
    h = np.concatenate([lam[rows].prod(axis=1) for rows in positions])  # h(n), n as `order`
    h_sums = np.concatenate(([0], np.cumsum(h[order])))
    out = []
    for y in y_values:
        i = int(np.searchsorted(n, y, side="right"))
        value = EisensteinInteger(int(h_sums[i]), 0)
        out.append(CharSumValue(value, math.sqrt(value.norm()), int(pair_counts[i])))
    return out


@lru_cache(maxsize=1)
def _char_sum_rows(y_top: int) -> tuple[np.ndarray, list[np.ndarray], np.ndarray, np.ndarray]:
    """What char_sums reads of the squarefree 3-split n <= y_top, for every p alike.

    (n, positions, order, pair_counts): n ascending; for each k, the registry
    positions (in registry_table(y_top)) of the k primes of each n with k
    prime factors, the rows of one squarefree_3split_columns column; the
    order that takes those rows, laid end to end, to n ascending; and the
    cumulative pair counts, the sum of 2^k, 0 first.  Read-only, shared.
    """
    qs, _ = registry_table(y_top)
    columns = squarefree_3split_columns(1, y_top, smallest_factor_sieve(y_top))
    positions = [np.searchsorted(qs, primes) for _, primes in columns.values()]
    n = np.concatenate([ns for ns, _ in columns.values()])
    splittings = np.concatenate([np.full(ns.size, 1 << k) for k, (ns, _) in columns.items()])
    order = np.argsort(n)
    n = n[order]
    pair_counts = np.concatenate(([0], np.cumsum(splittings[order])))
    for array in (n, order, pair_counts, *positions):
        array.flags.writeable = False
    return n, positions, order, pair_counts


def char_sum(p: int, y: int, *, conjugate_prime: bool = False) -> CharSumValue:
    """S_p(Y): sum of chi_p(d1 * d2^2) over coprime squarefree 3-split pairs.

    Pairs (d1, d2) run over d1 * d2 <= Y with both parts coprime to 3 and to
    each other, the pair (1, 1) included.  The sum over the splittings of
    each n = d1 * d2 is the product of lambda_p(q) = chi_p(q) + chi_p(q)^2
    over q | n (see char_sums), so S_p(Y) is the sum of a multiplicative
    function with values 2, -1 and 0 at primes: a rational integer by
    construction.  `conjugate_prime` flips every registry choice at once
    (the prime above p together with the factor generators); since
    (sigma(x) / sigma(P)) is the square of (x / P), that conjugates each
    term, and lambda_p(q) = chi + chi^2 is the same for a symbol and its
    square.  So the `charsum_conjugation` probe holds by construction and
    cannot fail; the scalar pair loop of test_char_sum_matches_term_by_term_sum
    is the independent check of the conjugate registry.
    """
    return char_sums(p, [y], conjugate_prime=conjugate_prime)[0]


def char_sum_grid(p: int, y_values: list[int], *, conjugate_prime: bool = False):
    """S_p over a grid of Y values plus the fitted growth exponent of |S_p|."""
    rows = list(zip(y_values, char_sums(p, y_values, conjugate_prime=conjugate_prime)))
    pts = [(math.log(y), math.log(cs.magnitude)) for y, cs in rows if cs.magnitude > 0]
    if len(pts) >= 2:
        xs, ys = zip(*pts)
        exponent = float(np.polyfit(xs, ys, 1)[0])
    else:
        exponent = 0.0
    return rows, exponent


def log_grid(y_max: int, per_decade: int = 10) -> list[int]:
    """The integers round(10^(1 + k/per_decade)), k = 0, 1, ..., that are <= y_max."""
    decades = 1
    while 10**decades < y_max:
        decades += 1
    pts = np.linspace(1, decades, per_decade * (decades - 1) + 1)
    return sorted({y for y in (int(round(10.0**e)) for e in pts) if y <= y_max})


def charsum_decade_envelope(p: int, y_max: int = 10**5) -> dict[int, float]:
    """Per-decade supremum of |S_p(Y)| / Y^(3/4) over the standard log grid.

    Key d covers Y in (10^d, 10^(d+1)].  The individual values fluctuate like
    any character sum; the decade envelope is the stable object whose decay
    exhibits the square-root-barrier cancellation.
    """
    grid = [y for y in log_grid(y_max) if y > 10]
    sup: dict[int, float] = {}
    for y, cs in zip(grid, char_sums(p, grid)):
        d = int(math.ceil(math.log10(y))) - 1
        sup[d] = max(sup.get(d, 0.0), cs.magnitude / y**0.75)
    return sup


# -- generating-series comparison --------------------------------------------------------


# chi, chi^2 and (chi + chi^2).real as CPython computes them, at exponents 0, 1, 2 and -1 (zero)
_CHI = [1, -0.5 + 0.8660254037844386j, -0.5 - 0.8660254037844386j, 0j]
_CHI_POWERS = np.array([_CHI, [chi**2 for chi in _CHI]], dtype=complex)
_TRACE = np.array([(chi + chi**2).real for chi in _CHI])
_KERNEL_BLOCK = 1 << 14  # registry rows per symbol-kernel call of genseries_symbols
_WALK_BLOCK = 2048  # rows of primes whose factors are built, and folded, at once


@lru_cache(maxsize=1)
def _walk_order(p0: int) -> tuple[np.ndarray, np.ndarray]:
    """(inert, small): the rows of the walk, ascending, are the split ell <= p0 (the registry
    table's) and the inert ell <= sqrt(p0), those in small; inert marks the latter's rows."""
    split, small = registry_table(p0)[0], np.flatnonzero(prime_sieve(math.isqrt(p0)))
    small = small[small % 3 == 2]
    inert = np.zeros(split.size + small.size, bool)
    inert[np.searchsorted(split, small) + np.arange(small.size)] = True
    inert.flags.writeable = small.flags.writeable = False  # shared by every walk
    return inert, small


def genseries_symbols(p: int, p0: int) -> tuple[int, np.ndarray]:
    """(at_three, e): exponents of chi = (. / P)_3, each the one cubic_residue_symbol gives.

    at_three is chi(1 - omega)'s.  The int8 e has a row per ell of _walk_order(p0):
    chi(pi_ell) and chi(conj(pi_ell)) at a split ell, for its registry factor pi_ell,
    and chi(ell) and EXPONENT_ZERO at an inert ell.  Exponents, not values: the walk
    takes chi, chi^2 and chi + chi^2 as CPython computes them, and numpy only scales
    those by reals (see the module notes).

    The registry generators and their conjugates take generator_exponents,
    _KERNEL_BLOCK rows at a time.  A rational ell at a split P takes its index
    at P's generator, a power in Z/p; at an inert P it is a cube, or zero at
    ell = p.  lambda takes the supplementary law.  ValueError at p = 3
    (chi_prime), before any symbol.
    """
    P = chi_prime(p)
    inert, small = _walk_order(p0)
    gens = registry_table(p0)[1]
    split = np.empty((len(gens), 2), dtype=np.int8)
    for lo in range(0, len(gens), _KERNEL_BLOCK):
        rows = slice(lo, lo + _KERNEL_BLOCK)
        split[rows] = np.hstack(generator_exponents(gens[rows], [P]))
    e = np.full((inert.size, 2), EXPONENT_ZERO, dtype=np.int8)
    e[~inert] = split
    e[inert, 0] = (registry_indices([P.generator], small)[0] if P.kind == "split"
                   else np.where(small == p, EXPONENT_ZERO, 0))
    return int(lambda_exponents([P])[0][0]), e


@lru_cache(maxsize=1)
def _walk_rows(p0: int, s: float) -> np.ndarray:
    """x = ell^-s (ell^-2s if inert) by the builtin pow, over _walk_order(p0), a block at a time."""
    (inert, small), split = _walk_order(p0), registry_table(p0)[0]
    x = np.empty(inert.size)
    x[inert] = [pow(ell, -2.0 * s) for ell in small.tolist()]
    for lo in range(0, split.size, _WALK_BLOCK):
        ell = split[lo:lo + _WALK_BLOCK]  # its row: its index plus the inert ell below
        x[lo + np.arange(ell.size) + small.searchsorted(ell)] = [pow(n, -s) for n in ell.tolist()]
    x.flags.writeable = False  # shared by every walk
    return x


def genseries_sides(p: int, s: float, cutoffs: Sequence[int]) -> list[tuple[float, float]]:
    """Truncated values of the pair-sum Euler product and its L-function form, per cutoff p0.

    Left: product over ell = 1 (mod 3), ell <= p0, of 1 + (chi+chi^2)(ell)/ell^s
    with chi evaluated at the registry factor of ell.  Right:
    sqrt(L(chi, s) * L(chi^2, s) * H(s)) with both Hecke products truncated at
    norm <= p0 and H the per-prime correction that restores the left side
    when the symbol pair is conjugation-stable:

        h = (1 - chi x)(1 - chi^2 x)(1 + (chi + chi^2) x)   per prime of norm x^-s,
        an extra (1 - c3 x3 + x3^2) at the prime above 3, and
        (1 + c x)^(-1) per inert rational prime (its pairs never occur on the left).

    One walk over the ell of _walk_order(max(cutoffs)), in blocks, serves every
    cutoff, which keeps the rows before two counts (ell ascends): of the ell <= p0,
    and for an inert ell, of the ell <= sqrt(p0).  The bits are a CPython loop's
    over ell: numpy builds the factors 1 - chi x, 1 - chi^2 x and 1 + c x only by
    real scaling and addition, which round as in CPython, FMA or not, and every
    complex product and quotient is CPython's (math.prod, reduce with truediv),
    in the loop's order, chi_reg before chi_conj.
    """
    top = max(cutoffs)
    (at_three, symbols), walk_x = genseries_symbols(p, top), _walk_rows(top, s)
    (walk_inert, small), split = _walk_order(top), registry_table(top)[0]
    counts = [[split.searchsorted(n, "right") + small.searchsorted(n, "right")
               for n in (p0, math.isqrt(p0))] for p0 in cutoffs]
    x3, chi3 = 3.0 ** (-s), _CHI[at_three]
    a3, b3 = 1.0 - chi3 * x3, 1.0 - chi3**2 * x3
    states = [(1.0, complex(1.0) / a3, complex(1.0) / b3, complex(1.0) * (a3 * b3))] * len(cutoffs)
    for lo in range(0, walk_x.size, _WALK_BLOCK):
        block = slice(lo, lo + _WALK_BLOCK)
        inert, e, x = (column[block] for column in (walk_inert, symbols, walk_x))
        event = e != EXPONENT_ZERO  # a zero chi at a split ell drops out
        event[inert, 0] = True  # an inert ell has one factor, zero chi or not
        rows, cols = np.nonzero(event)
        exps, xs = e[rows, cols], x[rows]
        l_factors, l2_factors = 1.0 - _CHI_POWERS[:, exps] * xs
        c_factors = 1.0 + _TRACE[exps] * xs
        at_split, row = ~inert[rows], lo + rows
        lhs_event = (cols == 0) & at_split  # chi_reg at a split ell; 1.0 where it is zero
        for i, ((n1, n2), (lhs, l_chi, l_chi2, h)) in enumerate(zip(counts, states)):
            keep = (row < n1) & (at_split | (row < n2))
            a, b, c = (factors[keep].tolist() for factors in (l_factors, l2_factors, c_factors))
            terms = list(map(mul, map(mul, a, b), c))
            done = 0
            for j in np.flatnonzero(inert[rows[keep]]).tolist():
                h = math.prod(terms[done:j + 1], start=h) / c[j]  # no inert pair on the left
                done = j + 1
            states[i] = (math.prod(c_factors[keep & lhs_event].tolist(), start=lhs),
                         reduce(truediv, a, l_chi), reduce(truediv, b, l_chi2),
                         math.prod(terms[done:], start=h))
    return [(lhs, math.sqrt(abs((l_chi * l_chi2 * h).real))) for lhs, l_chi, l_chi2, h in states]


def genseries_compare(p: int, s: float = 2.0,
                      cutoffs: tuple[int, int] = (10**5, 10**6)) -> ProbeReport:
    """Convergence (asserted) and side agreement (measured) of the identity.

    Both truncations must be Cauchy to 1e-8 between the two cutoffs;
    the relative gap between the sides is recorded.  For inert base primes
    the construction cancels exactly and the gap is floating-point noise; for
    split p a genuine registry-dependent gap remains, a Finding only above a
    fixed 1e-9: at p = 13, p0 = 1e6 it is 1.3e-9 at s = 8 but 9.9e-11 (a PASS)
    at s = 9, still above the inert bases' rounding (<= 4.4e-16) until s ~ 12.
    """
    (lhs_a, rhs_a), (lhs_b, rhs_b) = genseries_sides(p, s, cutoffs)
    d_lhs = abs(lhs_b - lhs_a)
    d_rhs = abs(rhs_b - rhs_a)
    gap = abs(rhs_b - lhs_b) / abs(lhs_b)
    numbers = {"p": p, "s": s, "lhs": lhs_b, "rhs": rhs_b,
               "cauchy_lhs": d_lhs, "cauchy_rhs": d_rhs, "relative_gap": gap}
    if d_lhs > 1e-8 or d_rhs > 1e-8:
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


def check_probe_suite(charsum_y: int, p0: int, s: float) -> None:
    """run_probe_suite's refusal, a ValueError, of inputs its probes cannot check."""
    # the generating-series probes assert a 1e-8 Cauchy gap between the
    # cutoffs p0 // 10 and p0, which holds from s = 2 and p0 = 10**6 on
    if not s >= 2.0:
        raise ValueError("--s must be at least 2; below it the Euler products converge "
                         "too slowly for the 1e-8 Cauchy check")
    # the left side's factors are 1 + c * ell^-s with |c| <= 2 and ell >= 7, so
    # all are 1.0 once 1 + 2 * 7^-s rounds to 1.0: from s = 19.24 on, inf too
    if 1.0 + 2.0 * 7.0 ** -s == 1.0:
        raise ValueError("--s must be below 19.24; from there on every left-side Euler factor "
                         "rounds to 1.0, so the probes would check nothing")
    if p0 < 10**6:
        raise ValueError("--p0 must be at least 1000000; below it the Euler products are "
                         "not Cauchy to 1e-8 between p0 // 10 and p0")
    if p0 > SIEVE_MAX:
        raise ValueError("--p0 must be at most 2**40; its sieve would need more than a terabyte")
    check_ymax(charsum_y)


def run_probe_suite(charsum_y: int = 10**3, p0: int = 10**6,
                    s: float = 2.0) -> list[ProbeReport]:
    """The verification battery, deterministic end to end.

    The conjugation probes take S_7 and S_13 up to `charsum_y`; they hold by
    construction (char_sum), so only an exception would show there.  The
    generating-series probes at p = 5 and 13 truncate at the two cutoffs
    p0 // 10 and `p0` and evaluate their Euler products at real `s`; p = 13
    passes any gap up to 1e-9 (genseries_compare).  The rest is fixed: 1000
    choice-invariance pairs, a 50-label ramification audit, ideal counts to
    1e4 for 10 labels (rows of one lambda_table), and family counts at
    X = 1e6, 1e7, 1e8.  check_probe_suite refuses the inputs before any probe.
    """
    check_probe_suite(charsum_y, p0, s)
    # the generating-series probes need this table anyway; built first, it
    # serves the table probes too, which would otherwise solve a norm
    # equation for every split p they meet
    registry_table(p0)
    reports = [splitting_oracle_probe()]
    reports.append(choice_invariance_probe(probe_pairs(1000)))
    reports.append(ramification_audit_suite(50))
    corpus = audit_corpus(10)
    for label, row in zip(corpus, lambda_table(corpus, primes_up_to(10**4))):
        reports.append(ideal_count_crosscheck(label, 10**4, row=row))
    for p in (7, 13):
        plain = char_sum(p, charsum_y)
        conj = char_sum(p, charsum_y, conjugate_prime=True)
        ok = conj.value == plain.value.conjugate()
        reports.append(ProbeReport(
            f"charsum_conjugation[p={p}]", PASS if ok else FAIL, [],
            {"y": charsum_y, "value": str(plain.value), "magnitude": plain.magnitude}))
    for p in (5, 13):
        reports.append(genseries_compare(p, s, (p0 // 10, p0)))
    reports.append(family_count_scaling([10**6, 10**7, 10**8]))
    return reports
