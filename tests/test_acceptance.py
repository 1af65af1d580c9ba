"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the measured values.  Budgets are wall-clock bounds from the
statement of each criterion.
"""

import math
import time

import pytest

from cyclocubic.density import (
    KERNELS,
    classify_symmetry,
    digamma,
    family_average,
    fejer_pair,
    kernel_integral,
    kernel_integral_quadrature,
    reference_statistics,
)
from cyclocubic.fields import FieldLabel, enumerate_family
from cyclocubic.verify import (
    FAIL,
    audit_corpus,
    calibrate_cube_exponent,
    char_sum,
    charsum_decade_envelope,
    choice_invariance_probe,
    genseries_compare,
    ideal_count_crosscheck,
    paper_literal_findings,
    probe_pairs,
    ramification_audit_at_3,
    splitting_oracle_probe,
)

EULER_GAMMA = 0.5772156649015329


class _Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"runtime {self.elapsed:.1f}s exceeded the {self.seconds}s budget")
        return False


def test_criterion_01_enumeration_exactness():
    with _Budget(1.0) as budget:
        records = enumerate_family(2000).records()
    assert len(records) == 3
    assert sorted(r.discriminant for r in records) == [3721, 3969, 3969]
    print(f"\nACCEPTANCE 1 PASS: |F(2000)| = 3, discriminants (3721, 3969, 3969) "
          f"[{budget.elapsed:.2f}s]")


def test_criterion_02_count_scaling():
    with _Budget(30.0) as budget:
        grid = [10**6, 10**7, 10**8]
        counts = [len(enumerate_family(x)) for x in grid]
        num = math.log(counts[-1] / counts[0])
        den = math.log(grid[-1] / grid[0])
        slope = num / den
    assert 0.45 <= slope <= 0.55
    print(f"\nACCEPTANCE 2 PASS: counts {counts}, log-log slope {slope:.3f} "
          f"in [0.45, 0.55] [{budget.elapsed:.1f}s]")


def test_criterion_03_splitting_oracle_equivalence():
    with _Budget(30.0) as budget:
        report = splitting_oracle_probe(max_conductor=200, max_p=500)
    assert report.status != FAIL
    assert report.numbers["mismatches"] == 0
    print(f"\nACCEPTANCE 3 PASS: {report.numbers['pairs']} gated (label, p) pairs, "
          f"0 mismatches [{budget.elapsed:.1f}s]")


def test_criterion_04_choice_invariance():
    with _Budget(30.0) as budget:
        pairs = probe_pairs(1000)
        report = choice_invariance_probe(pairs)
        assert report.numbers["kummer_failures"] == 0
        inert_pairs = [(l, p) for l, p in probe_pairs(3000) if p % 3 == 2]
        inert_report = choice_invariance_probe(inert_pairs)
        assert inert_report.numbers["paper_findings"] == 0
    print(f"\nACCEPTANCE 4 PASS: Kummer invariant on {len(pairs)} pairs; "
          f"paper-literal agreement on {len(inert_pairs)} inert-base pairs "
          f"[{budget.elapsed:.1f}s]")


def test_criterion_05_symmetry_discrimination():
    with _Budget(300.0) as budget:
        x = 10**8
        tf = fejer_pair(0.2)
        records = enumerate_family(x)
        summary = family_average(records, tf)
        refs = reference_statistics(records, tf)
        verdict = classify_symmetry(summary.t_statistic, refs)
    assert abs(summary.t_statistic) <= 0.08
    assert refs["Sp"] == -refs["SOeven"]
    assert 0.15 <= refs["Sp"] <= 0.30  # recomputed hand sum gives 0.2219
    assert verdict.kernel == "U"
    assert verdict.margin > 0 and not verdict.ambiguous
    print(f"\nACCEPTANCE 5 PASS: T = {summary.t_statistic:+.5f} (|T| <= 0.08), "
          f"references +-{refs['Sp']:.4f}, classified U with margin "
          f"{verdict.margin:.4f} over {summary.count} fields [{budget.elapsed:.1f}s]")


def test_criterion_06_identity_bookkeeping():
    x = 10**6
    tf = fejer_pair(0.2)
    summary = family_average(enumerate_family(x), tf)
    worst = max(abs(total - (tf.fhat_at_0 - ps + gam)) for total, ps, gam
                in zip(summary.total.tolist(), summary.prime_sum.tolist(),
                       summary.gamma_term.tolist()))
    assert worst < 1e-12
    residual = summary.average - (tf.fhat_at_0 + summary.mean_gamma) + summary.t_statistic
    assert abs(residual) < 1e-12
    print(f"\nACCEPTANCE 6 PASS: per-field identity residual {worst:.1e}, "
          f"family identity residual {abs(residual):.1e} (both <= 1e-12)")


def test_criterion_07_kernel_integrals():
    tf02 = fejer_pair(0.2)
    assert kernel_integral("U", tf02) == pytest.approx(5.0, abs=1e-12)
    assert kernel_integral("Sp", tf02) == pytest.approx(4.5, abs=1e-12)
    for g in ("O", "SOeven", "SOodd"):
        assert kernel_integral(g, tf02) == pytest.approx(5.5, abs=1e-12)
    worst = 0.0
    for beta in (0.2, 0.5, 0.9):
        tf = fejer_pair(beta)
        for g in KERNELS:
            diff = abs(kernel_integral(g, tf) - kernel_integral_quadrature(g, tf))
            worst = max(worst, diff)
    assert worst < 1e-6
    print(f"\nACCEPTANCE 7 PASS: beta 0.2 values (5, 4.5, 5.5); quadrature "
          f"cross-check worst diff {worst:.1e} over 15 kernel/beta combinations")


def test_criterion_08_character_sums():
    with _Budget(60.0) as budget:
        s13 = char_sum(13, 10)
        assert s13.value.is_zero()
        for p in (7, 13, 31, 5, 11):
            assert char_sum(p, 1).value.norm() == 1
            assert char_sum(p, 1).value.a == 1
        envelopes = {}
        for p in (7, 13, 31):
            env = charsum_decade_envelope(p, 10**5)
            assert env[3] >= env[4], (p, env)
            envelopes[p] = (round(env[3], 4), round(env[4], 4))
    print(f"\nACCEPTANCE 8 PASS: S_13(10) = 0, S_p(1) = 1; decade envelopes of "
          f"|S| Y^(-3/4) non-increasing: {envelopes} [{budget.elapsed:.1f}s]")


def test_criterion_09_generating_series():
    with _Budget(60.0) as budget:
        inert = genseries_compare(5, 2.0, (10**5, 10**6))
        assert inert.status != FAIL
        assert inert.numbers["cauchy_lhs"] < 1e-8
        assert inert.numbers["cauchy_rhs"] < 1e-8
        assert inert.numbers["relative_gap"] < 1e-6
        split = genseries_compare(13, 2.0, (10**5, 10**6))
        assert split.status != FAIL
        assert split.numbers["cauchy_lhs"] < 1e-8
        assert split.numbers["cauchy_rhs"] < 1e-8
    print(f"\nACCEPTANCE 9 PASS: Cauchy to 1e-8 at both cutoffs; inert p=5 gap "
          f"{inert.numbers['relative_gap']:.1e} < 1e-6; split p=13 gap "
          f"{split.numbers['relative_gap']:.2e} recorded as {split.status} "
          f"[{budget.elapsed:.1f}s]")


def test_criterion_10_ideal_count_crosscheck():
    labels = audit_corpus(10)
    for label in labels:
        report = ideal_count_crosscheck(label, 10**4)
        assert report.status != FAIL
        assert report.numbers["mismatches"] == 0
    print(f"\nACCEPTANCE 10 PASS: zeta coefficients agree exactly for n <= 1e4 "
          f"on {len(labels)} labels (D = {[l.D for l in labels]})")


def test_criterion_11_digamma():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-10)
    assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2 * math.log(2), abs=1e-10)
    worst = 0.0
    for i in range(100):
        x = 0.05 + i * 9.87
        resid = abs(digamma(x + 1.0) - digamma(x) - 1.0 / x)
        worst = max(worst, resid)
    assert worst <= 1e-12
    print(f"\nACCEPTANCE 11 PASS: psi(1), psi(1/2) to 1e-10; recurrence residual "
          f"{worst:.1e} on the 100-point grid")


def test_criterion_12_audit_health():
    corpus = audit_corpus(50)
    k_star = calibrate_cube_exponent(corpus)
    disagreements = 0
    inert = 0
    for label in corpus:
        report = ramification_audit_at_3(label, k_star)
        assert report.status != FAIL
        if report.status == "finding":
            inert += 1
    rows = paper_literal_findings(FieldLabel(0, 7, 1), 100)
    assert isinstance(rows, list)  # emitted without failing; content is data
    print(f"\nACCEPTANCE 12 PASS: ramification probes agree on 50 labels "
          f"(k* = {k_star}, {inert} inert-at-3 findings); paper-literal probe "
          f"for D = 7 emitted {len(rows)} findings at p = "
          f"{sorted(r['p'] for r in rows)}")
