"""Test-function pairs, kernels, digamma, and the explicit-formula statistics."""

import math

import mpmath
import numpy as np
import pytest

from cyclocubic import density
from cyclocubic._primes import primes_up_to
from cyclocubic.density import (
    KERNELS,
    FejerPair,
    classify_symmetry,
    digamma,
    family_average,
    fejer_pair,
    gamma_term,
    gamma_term_quadrature,
    gamma_terms,
    kernel_integral,
    kernel_integral_quadrature,
    kernel_value,
    log_discriminants,
    panel_gauss,
    prime_sum,
    prime_sums,
    reference_statistics,
)
from cyclocubic.fields import (FieldLabel, conductor_discriminant, enumerate_family,
                               family_of, labels_up_to_conductor)
from cyclocubic.lfunctions import lambda_coefficient, lambda_table

EULER_GAMMA = 0.5772156649015329
QUARTER = mpmath.mpf(1) / 4


def lerch_d(u):
    """D(u) = sum over k >= 0 of (1 - e^-(k+1/4)u) / (k+1/4)^2, by mpmath.

    The sum is psi'(1/4) - e^-u/4 Phi(e^-u, 2, 1/4), Phi the Lerch transcendent.
    """
    u = mpmath.mpf(u)
    return mpmath.psi(1, QUARTER) - mpmath.exp(-QUARTER * u) * mpmath.lerchphi(
        mpmath.exp(-u), 2, QUARTER)


def test_fejer_pair_closed_forms():
    tf = fejer_pair(0.2)
    assert tf.fhat_at_0 == 5.0 and tf.f_at_0 == 1.0
    assert float(tf.fhat(0.0)) == 5.0
    assert float(tf.fhat(0.1)) == pytest.approx(2.5)
    assert float(tf.fhat(0.2)) == 0.0 and float(tf.fhat(0.5)) == 0.0
    assert float(tf.f(0.0)) == 1.0
    # integral of fhat over its support equals f(0) = 1 for every beta < 1
    for beta in (0.1, 0.2, 0.5, 0.9):
        tfb = fejer_pair(beta)
        val = panel_gauss(tfb.fhat, -beta, beta, 64)
        assert val == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        fejer_pair(1.0)
    # the pair is its beta alone, checked when it is built
    for beta in (1.0, 0.0):
        with pytest.raises(ValueError):
            FejerPair(beta)


def test_fejer_transform_convention():
    # quadrature oracle: integral f(x) cos(2 pi x u) dx at u = 0.1, beta = 0.2
    # must reproduce fhat(0.1) = (1/0.2)(1 - 0.5) = 2.5
    tf = fejer_pair(0.2)

    def integrand(x):
        return tf.f(x) * np.cos(2.0 * math.pi * 0.1 * x)

    half_width = 2.0e4
    val = panel_gauss(integrand, -half_width, half_width, int(half_width * 4))
    assert val == pytest.approx(2.5, abs=1e-4)


def test_kernel_values():
    assert kernel_value("U", 0.37) == (1.0, 0.0)
    smooth, mass = kernel_value("Sp", 0.0)
    assert smooth == pytest.approx(0.0) and mass == 0.0
    smooth, mass = kernel_value("SOodd", 0.0)
    assert smooth == pytest.approx(0.0) and mass == 1.0
    smooth, mass = kernel_value("O", 1.25)
    assert smooth == 1.0 and mass == 0.5
    # removable singularity handled smoothly
    smooth, _ = kernel_value("SOeven", 1e-12)
    assert smooth == pytest.approx(2.0)
    with pytest.raises(ValueError):
        kernel_value("SU", 0.0)
    # every kernel on a grid of t, against W(G) written out, S(t) = sin(2 pi t)/(2 pi t)
    grid = (0.0, 1e-12, 0.25, 0.5, 1.25, np.array([0.0, 0.1, 0.37, 2.5, -3.75]))
    for t in grid:
        s = np.sinc(2.0 * np.asarray(t, dtype=float))
        want = {"U": (1.0, 0.0), "Sp": (1.0 - s, 0.0), "O": (1.0, 0.5),
                "SOeven": (1.0 + s, 0.0), "SOodd": (1.0 - s, 1.0)}
        for g in KERNELS:
            smooth, mass = kernel_value(g, t)
            assert np.all(smooth == want[g][0]) and mass == want[g][1], (g, t)
            assert np.ndim(smooth) == np.ndim(t) and isinstance(mass, float), (g, t)


def test_kernel_integrals_beta_02():
    tf = fejer_pair(0.2)
    assert kernel_integral("U", tf) == pytest.approx(5.0, abs=1e-12)
    assert kernel_integral("Sp", tf) == pytest.approx(4.5, abs=1e-12)
    for g in ("O", "SOeven", "SOodd"):
        assert kernel_integral(g, tf) == pytest.approx(5.5, abs=1e-12)


def test_kernel_integrals_match_quadrature():
    for beta in (0.2, 0.5, 0.9):
        tf = fejer_pair(beta)
        for g in KERNELS:
            fourier = kernel_integral(g, tf)
            quad = kernel_integral_quadrature(g, tf)
            assert abs(fourier - quad) < 1e-6, (g, beta)


def test_digamma_classical_values():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-10)
    assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-10)
    for x in (0.3, 1.7, 9.1):
        assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-12)
    with pytest.raises(ValueError):
        digamma(0.0)
    with pytest.raises(ValueError):
        digamma(-3.0)


def test_digamma_recurrence_grid():
    xs = np.linspace(0.05, 990.0, 100)
    for x in xs:
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) < 1e-12 * max(1.0, 1.0 / x)


def test_digamma_against_scipy():
    sp = pytest.importorskip("scipy.special")
    from cyclocubic.density import _digamma_array

    zs = np.array([0.25 + 0.05j, 0.75 + 3.2j, 0.25 - 40.0j, 12.0 + 0.0j, 999.0 + 1.0j])
    assert np.max(np.abs(_digamma_array(zs) - sp.digamma(zs))) < 1e-12
    xs = np.linspace(0.01, 1000.0, 500)
    mine = np.array([digamma(float(x)) for x in xs])
    rel = np.abs(mine - sp.digamma(xs)) / np.maximum(1.0, np.abs(sp.digamma(xs)))
    assert rel.max() < 1e-10


def test_gamma_term_sign_and_scaling():
    beta = 0.2
    tf = fejer_pair(beta)
    for label in labels_up_to_conductor(100):
        assert gamma_term(label, tf) < 0.0
    # the closed form splits the term into c / log(Delta), with the constant
    # c = 2 (psi(1/4) - log(pi)) / beta of the Gamma_R(s)^2 bracket, plus
    # D(U) / (beta log(Delta))^2, U = 2 beta log(Delta).  With the second part
    # taken off, the term scales exactly like 1 / log(Delta); conductors 91 and
    # 9841 = 13 * 757 have log-discriminant ratio near 2
    with mpmath.workdps(30):
        c = float(2 * (mpmath.psi(0, QUARTER) - mpmath.log(mpmath.pi)) / beta)
        rests = []
        for conductor in (91, 9841):
            log_disc = math.log(conductor**2)
            second = float(lerch_d(2 * beta * log_disc)) / (beta * log_disc) ** 2
            rests.append(gamma_term(FieldLabel(0, conductor, 1), tf) - second)
            assert rests[-1] * log_disc == pytest.approx(c, rel=1e-12), conductor
    assert 1.5 <= rests[0] / rests[1] <= 2.5


def test_gamma_term_matches_quadrature_oracle():
    # the closed form against y-space quadrature plus its analytic tail; the
    # first field at X = 1e9 has Delta = 1000267129
    first_1e9 = FieldLabel(0, 31627, 1)
    for beta in (0.05, 0.2, 0.4, 0.9):
        tf = fejer_pair(beta)
        for label in (FieldLabel(0, 91, 1), FieldLabel(0, 9841, 1), first_1e9):
            assert abs(gamma_term(label, tf) - gamma_term_quadrature(label, tf)) < 1e-9
    assert gamma_term(first_1e9, fejer_pair(0.2)) == pytest.approx(-1.7084732422380726,
                                                                  abs=1e-12)


def test_gamma_term_matches_lerch_oracle():
    # psi(1/4) and D(U) from mpmath, down to betas where the quadrature
    # oracle is slow: the term is (2/beta) [psi(1/4) + D(U)/U - log(pi)] / log(Delta)
    with mpmath.workdps(40):
        for conductor in (7, 91, 9841, 31627):
            log_disc = mpmath.log(conductor**2)
            for beta in (1e-6, 1e-3, 0.05, 0.2, 0.4, 0.9):
                u = 2 * mpmath.mpf(beta) * log_disc
                want = (2 * (mpmath.psi(0, QUARTER) + lerch_d(u) / u - mpmath.log(mpmath.pi))
                        / (beta * log_disc))
                got = gamma_term(FieldLabel(0, conductor, 1), fejer_pair(beta))
                assert abs(got - want) <= 1e-12 * abs(want), (conductor, beta)


def test_explicit_formula_is_non_negative():
    # under GRH fhat(0) + gamma - (the prime sum over every prime power) is
    # the sum of f(gamma L) over the zeros, >= 0 for the Fejer f >= 0.
    # lambda(p^m) is 2 at a split p, 0 at a ramified p, and at an inert p 2
    # when 3 | m and -1 otherwise
    labels = labels_up_to_conductor(400)
    log_discs = [math.log(conductor_discriminant(label)[1]) for label in labels]
    top = max(log_discs)
    primes = primes_up_to(int(math.exp(0.9 * top)) + 1)
    lam = lambda_table(family_of(labels), primes)
    pf = np.array(primes, dtype=float)
    logp = np.log(pf)
    for beta in (0.3, 0.6, 0.9):
        tf = fejer_pair(beta)
        for label, log_disc, row in zip(labels, log_discs, lam):
            terms = []
            for m in range(1, int(beta * top / math.log(2)) + 1):
                lam_m = row if m % 3 else np.where(row == -1, 2, row)
                keep = m * logp < beta * log_disc
                terms += (lam_m[keep] * logp[keep] / pf[keep] ** (m / 2)
                          * tf.fhat(m * logp[keep] / log_disc)).tolist()
            zero_sum = tf.fhat_at_0 + gamma_term(label, tf) - 2.0 / log_disc * math.fsum(terms)
            assert zero_sum >= 0.0, (label, beta, zero_sum)


def test_cubic_character_gamma_factor_is_gamma_r_of_s():
    # Lambda(s) = (7/pi)^((s+k)/2) Gamma((s+k)/2) L(s, chi), chi the cubic
    # character mod 7 (chi(3^j) = w^j).  The functional equation makes
    # |Lambda(s) / conj Lambda(1 - conj s)| = 1 for the right gamma factor:
    # k = 0 (Gamma_R(s), an even character), not k = 1 (Gamma_R(s+1)).
    with mpmath.workdps(30):
        w = mpmath.exp(2j * mpmath.pi / 3)
        chi = [0] * 7
        for j in range(6):
            chi[pow(3, j, 7)] = w**j

        def completed(s, k):
            return ((7 / mpmath.pi) ** ((s + k) / 2) * mpmath.gamma((s + k) / 2)
                    * mpmath.dirichlet(s, chi))

        s = mpmath.mpc(0.3, 1.7)
        ratio = [abs(completed(s, k) / mpmath.conj(completed(1 - mpmath.conj(s), k)))
                 for k in (0, 1)]
    assert abs(ratio[0] - 1) < 1e-10
    assert abs(ratio[1] - 1) > 1e-3


def test_gamma_terms_match_one_label_at_a_time():
    # the closed form acts elementwise on the log discriminants, so a batch
    # never moves a bit
    family = enumerate_family(10**8)
    log_discs = log_discriminants(family.conductor.tolist())
    for beta in (1e-6, 0.2, 0.4):
        tf = fejer_pair(beta)
        assert gamma_terms(log_discs, tf) == [gamma_term(label, tf) for label in family.labels()]
    assert gamma_terms(log_discriminants([]), fejer_pair(0.2)) == []


def test_family_average_rows_match_one_level_density():
    # the columns are the one-label values bit for bit, and total is the
    # explicit-formula identity exactly
    family = enumerate_family(10**6)
    labels = family.labels()
    for tf in (fejer_pair(0.2), fejer_pair(0.4)):
        summary = family_average(family, tf)
        for name in ("gamma_term", "prime_sum", "total"):
            column = getattr(summary, name)
            assert column.dtype == np.float64 and column.shape == (len(family),), name
        assert summary.prime_sum.tolist() == [prime_sum(label, tf) for label in labels]
        assert summary.gamma_term.tolist() == [gamma_term(label, tf) for label in labels]
        assert summary.total.tolist() == [tf.fhat_at_0 - ps + gam for ps, gam in
                                          zip(summary.prime_sum.tolist(),
                                              summary.gamma_term.tolist())]


def test_prime_sums_match_per_term_reference():
    # the table path reproduces the per-call reference formula bit for bit,
    # for a whole family at once and for one field at a time
    def reference(label, tf):
        log_disc = math.log(conductor_discriminant(label)[1])
        cut = tf.beta * log_disc
        terms = []
        for p in primes_up_to(int(math.exp(cut)) + 1):
            logp = math.log(p)
            lam = lambda_coefficient(p, 1, label) if logp < cut else 0
            for m in (1, 2):
                if lam and m * logp < cut:
                    fhat = float(tf.fhat(m * logp / log_disc))
                    terms.append(lam * logp / math.sqrt(p**m) * fhat)
        return 2.0 / log_disc * math.fsum(terms)

    labels = labels_up_to_conductor(200)
    for tf in (fejer_pair(0.2), fejer_pair(0.6)):
        want = [reference(label, tf) for label in labels]
        assert prime_sums(family_of(labels), tf) == want
        assert [prime_sum(label, tf) for label in labels[:5]] == want[:5]
    assert prime_sums(family_of([]), fejer_pair(0.2)) == []


def test_prefix_sums_agree_across_pass_sizes(monkeypatch):
    # each field's kept terms are prefixes cut by np.searchsorted; a pass of
    # fields with different widths pads the shorter rows with 0.0, so no pass
    # size changes a bit, in either order of the fields
    family = enumerate_family(10**8)
    shuffled = family_of(list(reversed(labels_up_to_conductor(300))))
    tf = fejer_pair(0.4)
    want = [(prime_sums(fam, tf), reference_statistics(fam, tf)) for fam in (family, shuffled)]
    for terms in (1, 97, 1 << 20):
        monkeypatch.setattr("cyclocubic.density._TERMS_PER_PASS", terms)
        got = [(prime_sums(fam, tf), reference_statistics(fam, tf)) for fam in (family, shuffled)]
        assert got == want, terms


def test_prime_sum_support():
    label = FieldLabel(0, 7, 1)
    assert prime_sum(label, fejer_pair(0.01)) == 0.0  # 49^0.01 < 2
    # widening the support never drops terms: values move monotonically in
    # the count of included prime powers
    tf_small = fejer_pair(0.2)
    tf_large = fejer_pair(0.4)
    _, disc = conductor_discriminant(label)
    count = lambda beta: sum(1 for p in primes_up_to(100) for m in (1, 2)
                             if m * math.log(p) < beta * math.log(disc))
    assert count(0.4) >= count(0.2)
    assert prime_sum(label, tf_small) != prime_sum(label, tf_large)


def test_prime_sum_hand_oracle_d61():
    # only p^m <= 3721^0.2 ~ 5.2 contribute: the powers 2, 3, 4, 5
    label = FieldLabel(0, 61, 1)
    tf = fejer_pair(0.2)
    log_disc = math.log(3721)
    terms = []
    for p, m in ((2, 1), (3, 1), (2, 2), (5, 1)):
        lam = lambda_coefficient(p, m, label)
        u = m * math.log(p) / log_disc
        terms.append(lam * math.log(p) / math.sqrt(p**m) * float(tf.fhat(u)))
    expected = 2.0 / log_disc * math.fsum(sorted(terms, key=abs))
    assert prime_sum(label, tf) == pytest.approx(expected, abs=1e-14)


def test_one_level_density_identity():
    tf = fejer_pair(0.2)
    assert tf.fhat_at_0 == 5.0
    for label in (FieldLabel(0, 61, 1), FieldLabel(1, 7, 1), FieldLabel(0, 13, 7)):
        bd = family_average(family_of([label]), tf)
        assert bd.total[0] == pytest.approx(5.0 - bd.prime_sum[0] + bd.gamma_term[0],
                                            abs=1e-12)


def test_family_average_small():
    tf = fejer_pair(0.2)
    family = enumerate_family(2000)
    fam = family_average(family, tf)
    assert fam.count == 3
    # bookkeeping identity: average - (fhat(0) + mean gamma) + T = 0
    assert fam.average - (5.0 + fam.mean_gamma) + fam.t_statistic == pytest.approx(
        0.0, abs=1e-12)
    # order-independence of the reduction
    fam2 = family_average(family_of(family.labels()[::-1]), tf)
    assert fam2.average == fam.average or abs(fam2.average - fam.average) < 1e-15


def test_family_average_empty():
    with pytest.raises(ValueError):
        family_average([], fejer_pair(0.2))


def test_reference_statistics_structure():
    tf = fejer_pair(0.2)
    refs = reference_statistics(enumerate_family(10**6), tf)
    assert refs["U"] == 0.0
    assert refs["Sp"] > 0.0
    assert refs["Sp"] == -refs["SOeven"] == -refs["SOodd"] == -refs["O"]


def test_reference_statistics_trend_toward_half():
    # the square-prime sum creeps up toward integral(fhat)/2 = 0.5
    tf = fejer_pair(0.2)
    vals = [reference_statistics(enumerate_family(x), tf)["Sp"] for x in (10**6, 10**8, 10**10)]
    assert vals[0] < vals[1] < vals[2] < 0.5


def test_classify_symmetry():
    refs = {"U": 0.0, "Sp": 0.22, "O": -0.22, "SOeven": -0.22, "SOodd": -0.22}
    c = classify_symmetry(0.01, refs)
    assert c.kernel == "U" and c.margin > 0 and not c.ambiguous
    assert classify_symmetry(0.21, refs).kernel == "Sp"
    tied = classify_symmetry(-0.22, refs)
    assert tied.ambiguous and tied.margin < 1e-12
    # exact midpoint between U and Sp is ambiguous and breaks toward U
    mid = classify_symmetry(0.11, refs)
    assert mid.ambiguous and mid.kernel == "U"
