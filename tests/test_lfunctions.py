"""Splitting data and lambda coefficients of L_D."""

import math
import random

import numpy as np
import pytest

from cyclocubic import eisenstein, lfunctions
from cyclocubic._primes import is_prime, primes_up_to
from cyclocubic.eisenstein import EXPONENT_ZERO, EisensteinInteger, PrimeAbove
from cyclocubic.fields import (
    FieldLabel,
    defining_polynomial,
    enumerate_family,
    family_of,
    labels_up_to_conductor,
)
from cyclocubic.lfunctions import (
    INERT,
    KUMMER,
    PAPER_LITERAL,
    RAMIFIED,
    SPLIT,
    character_symbol,
    lambda_coefficient,
    lambda_from_splitting,
    lambda_table,
    splitting_at_three,
    splitting_type,
)
from cyclocubic.verify import audit_corpus

D7 = FieldLabel(0, 7, 1)
D3 = FieldLabel(1, 1, 1)

# (g, c) of each element D1^g * D2^c that names a character: Kummer and
# paper-literal, each also with D2 = conj(D1) in the role of D1
ELEMENTS = (KUMMER, KUMMER[::-1], PAPER_LITERAL, PAPER_LITERAL[::-1])


def _root_count(p, label):
    a_coef, b_coef = defining_polynomial(label)
    return sum(1 for x in range(p) if (x**3 - 3 * a_coef * x - b_coef) % p == 0)


def test_kummer_symbol_values():
    # registry reduction omega -> 9 mod 13 sends D1*D2^2 = -7 - 21w to -1,
    # whose fourth power is 1: 13 splits; the cubic indeed has roots mod 13
    assert character_symbol(13, D7, KUMMER) == 0
    assert _root_count(13, D7) == 3
    assert character_symbol(7, D7, KUMMER) == EXPONENT_ZERO  # 7 | D
    # x^3 - 9x - 9 has the root 1 mod 17; a Galois cubic then splits
    assert character_symbol(17, D3, KUMMER) == 0
    assert _root_count(17, D3) == 3
    with pytest.raises(ValueError, match="local cube test"):
        character_symbol(3, D7, KUMMER)


def test_paper_chi_values():
    # (D1 / P13): D1 = 2 + 3w maps to 3, and 3^4 = 81 = 3 = omega^2 mod 13
    assert character_symbol(13, D7, PAPER_LITERAL) == 2
    # D = 49 carries the squared factorization, so the symbol squares
    assert character_symbol(13, FieldLabel(0, 1, 7), PAPER_LITERAL) == 1
    for p in (7, 13):
        assert character_symbol(p, FieldLabel(0, p, 1), PAPER_LITERAL) == EXPONENT_ZERO


def test_paper_chi_multiplicative():
    # chi_p(D * D') = chi_p(D) chi_p(D') on coprime 3-split labels
    for p in (13, 31, 5, 11):
        a = character_symbol(p, FieldLabel(0, 7, 1), PAPER_LITERAL)
        b = character_symbol(p, FieldLabel(0, 19, 1), PAPER_LITERAL)
        ab = character_symbol(p, FieldLabel(0, 7 * 19, 1), PAPER_LITERAL)
        assert ab == (EXPONENT_ZERO if EXPONENT_ZERO in (a, b) else (a + b) % 3)


def test_splitting_type_examples():
    assert splitting_type(13, D7, KUMMER) == SPLIT
    assert splitting_type(17, D3, KUMMER) == SPLIT
    assert splitting_type(7, D7, KUMMER) == RAMIFIED
    # inert witness, cross-checked against the root count
    assert splitting_type(5, D7, KUMMER) == INERT
    assert _root_count(5, D7) == 0


def test_splitting_at_three():
    # 3 | D: ramified, for either element
    assert splitting_type(3, FieldLabel(1, 7, 1), KUMMER) == RAMIFIED
    assert splitting_type(3, FieldLabel(1, 7, 1), PAPER_LITERAL) == RAMIFIED
    # 3 coprime to D: the local cube test decides; for D = 7 the Kummer
    # element is -1 mod lambda^3 but not mod lambda^4, so 3 is inert
    assert splitting_type(3, D7, KUMMER) == INERT
    # D = 61 is a genuine split witness: 3^20 = 1 mod 61 puts 3 in the cube
    # subgroup of the conductor-61 ray class group
    assert pow(3, 20, 61) == 1
    assert splitting_type(3, FieldLabel(0, 61, 1), KUMMER) == SPLIT
    # and D = 7 is a genuine inert witness by the same classical criterion
    assert pow(3, 2, 7) != 1


def test_splitting_at_three_matches_class_field_theory():
    # for prime conductor f, 3 splits iff 3 is a cube mod f
    for label in labels_up_to_conductor(400):
        if label.e3 or label.d2 != 1:
            continue
        f = label.d1
        if not all(f % q for q in range(2, int(f**0.5) + 1)):
            continue
        classical = pow(3, (f - 1) // 3, f) == 1
        assert (splitting_at_three(label) == SPLIT) == classical


def test_lambda_values():
    assert lambda_coefficient(13, 1, D7, KUMMER) == 2  # split at 13
    assert lambda_coefficient(13, 3, D7, KUMMER) == 2
    assert lambda_coefficient(5, 1, D7, KUMMER) == -1  # inert
    assert lambda_coefficient(5, 2, D7, KUMMER) == -1
    assert lambda_coefficient(5, 3, D7, KUMMER) == 2
    assert lambda_coefficient(7, 5, D7, KUMMER) == 0  # ramified
    with pytest.raises(ValueError, match="prime-power exponent"):
        lambda_coefficient(5, 0, D7)


def test_lambda_value_set_and_square_identity():
    labels = labels_up_to_conductor(150)
    for label in labels:
        for p in primes_up_to(60):
            for element in (KUMMER, PAPER_LITERAL):
                v1 = lambda_coefficient(p, 1, label, element)
                v2 = lambda_coefficient(p, 2, label, element)
                assert v1 == v2
                assert v1 in (-1, 0, 2)


def test_mode_agreement_at_inert_base_primes():
    # sigma-stable primes make (D2/P) = (D1/P)^2 a theorem, so the elements
    # always agree for p = 2 mod 3
    labels = labels_up_to_conductor(300)[:50]
    inert_ps = [p for p in primes_up_to(500) if p % 3 == 2]
    for label in labels:
        for p in inert_ps:
            assert (lambda_coefficient(p, 1, label, KUMMER)
                    == lambda_coefficient(p, 1, label, PAPER_LITERAL))


def test_kummer_registry_invariance():
    rng = random.Random(555)
    labels = labels_up_to_conductor(300)
    primes = [p for p in primes_up_to(300) if p != 3]
    for _ in range(1000):
        label, p = rng.choice(labels), rng.choice(primes)
        base = splitting_type(p, label, KUMMER)
        for conj in (False, True):
            for element in (KUMMER, KUMMER[::-1]):
                assert splitting_type(p, label, element, conjugate_prime=conj) == base


def test_kummer_matches_root_counts():
    for label in labels_up_to_conductor(100):
        a_coef, b_coef = defining_polynomial(label)
        gate = 3 * (4 * a_coef**3 - b_coef**2)
        for p in primes_up_to(200):
            if gate % p == 0:
                continue
            expected = SPLIT if _root_count(p, label) == 3 else INERT
            assert splitting_type(p, label, KUMMER) == expected


def test_euler_value_consistency():
    # -d/ds log of each local Euler factor equals the lambda series
    s = 2.0
    for p in (2, 5, 13):
        st = splitting_type(p, D7, KUMMER)
        # numerical series sum_m lambda(p^m) log(p) p^(-ms)
        series = sum(lambda_coefficient(p, m, D7, KUMMER) * math.log(p) * p ** (-m * s)
                     for m in range(1, 200))
        x = p**-s
        if st == SPLIT:
            closed = 2 * math.log(p) * x / (1 - x)
        elif st == INERT:
            closed = math.log(p) * (-x / (1 - x) + 3 * x**3 / (1 - x**3))
        else:
            closed = 0.0
        assert abs(series - closed) < 1e-10


def test_lambda_table_matches_reference():
    # every canonical label with conductor <= 400, plus one past the old 64-bit
    # envelope, for the Kummer and the paper-literal element, each also with
    # D2 = conj(D1) in the role of D1, and at the conjugate prime above p
    labels = labels_up_to_conductor(400) + [FieldLabel(0, 1, 4471123)]
    primes = primes_up_to(500)
    assert 3 in primes
    family = family_of(labels)
    for element in ELEMENTS:
        for conj in (False, True):
            table = lambda_table(family, primes, element, conjugate_prime=conj)
            assert table.shape == (len(labels), len(primes))
            for label, row in zip(labels, table):
                want = [lambda_coefficient(p, 1, label, element, conjugate_prime=conj)
                        for p in primes]
                assert row.tolist() == want, (label, element, conj)


def test_lambda_table_blocks_match_one_column_passes(monkeypatch):
    # a pass of one column is the unblocked kernel; every block size must agree
    # with it, including blocks that do not divide the column count
    odd = [p for p in primes_up_to(500) if p != 3]
    cases = [
        (audit_corpus(10), primes_up_to(10**4)),  # narrow: blocks of many columns
        (enumerate_family(10**8), primes_up_to(1585)),  # the X = 1e8 family
        (labels_up_to_conductor(400), odd[:40] + [3] + odd[40:]),  # p = 3 mid-list
    ]
    for element in (KUMMER, PAPER_LITERAL):
        for family, primes in cases:
            monkeypatch.setattr(eisenstein, "_SYMBOLS_PER_PASS", 1)
            want = lambda_table(family, primes, element)
            for cap in (97, 1000, 4096, 1 << 16):
                monkeypatch.setattr(eisenstein, "_SYMBOLS_PER_PASS", cap)
                assert np.array_equal(lambda_table(family, primes, element), want), (element, cap)


def test_lambda_table_pass_sizes_agree_around_fields_without_q(monkeypatch):
    # D = 3 and D = 9 have no q | d1 d2: their segments of the cumulative sums
    # are empty, and here they open, close or sit inside a pass of fields
    bare = (FieldLabel(1, 1, 1), FieldLabel(2, 1, 1))
    rest = [label for label in labels_up_to_conductor(200) if label.d1 * label.d2 > 1]
    labels = [bare[1], *rest[:2], bare[0], rest[2], bare[1], *rest[3:8], bare[0], bare[0],
              *rest[8:], bare[1]]
    family = family_of(labels)
    for primes in ([3, 7], primes_up_to(100)):
        want = [[lambda_coefficient(p, 1, label) for p in primes] for label in labels]
        for entries in (1, 2, 7, 4096):
            monkeypatch.setattr("cyclocubic.lfunctions._ENTRIES_PER_PASS", entries)
            assert lambda_table(family, primes).tolist() == want, (primes, entries)


def test_lambda_table_at_eleven_primes():
    # the most q a label with D <= 2^61 can have: its sums, with the weights
    # up to 4 of the conjugate-prime map, stay below the zero entry, which
    # fits the int16 table
    assert 2 * 16 + 11 * 2 * 16 < lfunctions._ZERO_ENTRY < 2**15
    qs = [q for q in primes_up_to(97) if q % 3 == 1]
    label = FieldLabel(0, math.prod(qs), 1)
    assert len(qs) == 11 and label.D < 2**61
    primes = primes_up_to(200)
    for element in ELEMENTS:
        for conj in (False, True):
            want = [lambda_coefficient(p, 1, label, element, conjugate_prime=conj)
                    for p in primes]
            assert lambda_table([label], primes, element, conjugate_prime=conj)[0].tolist() \
                == want, (element, conj)


def test_lambda_table_at_a_prime_past_int64_squares():
    # q near 2^33: at an inert p the rows of norm q raise p to (q - 1)/3 mod q,
    # whose products pass 2^63, so those rows go on Python ints
    q = next(n for n in range(2**33 + 2, 2**34, 3) if is_prime(n))
    label, primes = FieldLabel(0, q, 1), [2, 5, 7, 11, 13]
    for element in (KUMMER, PAPER_LITERAL):
        for conj in (False, True):
            want = [lambda_coefficient(p, 1, label, element, conjugate_prime=conj)
                    for p in primes]
            assert lambda_table([label], primes, element, conjugate_prime=conj)[0].tolist() \
                == want, (element, conj)


def test_lambda_table_at_three_matches_local_cube_test():
    # the p = 3 column is read off the generators' omega coefficients; the
    # reference tests c = D1 * D2^2 mod (1 - omega)^4 for every field
    labels = labels_up_to_conductor(20000)
    want = [lambda_from_splitting(splitting_at_three(label), 1) for label in labels]
    assert set(want) == {2, -1, 0}
    for element in ELEMENTS:
        assert lambda_table(labels, [3], element)[:, 0].tolist() == want, element


def test_lambda_table_builds_no_product_per_field(monkeypatch):
    labels = labels_up_to_conductor(400)
    primes = primes_up_to(50)
    want = {element: lambda_table(labels, primes, element) for element in ELEMENTS}

    def refuse(*args, **kwargs):
        raise AssertionError("lambda_table built a Z[omega] product for one field")

    monkeypatch.setattr("cyclocubic.lfunctions.splitting_at_three", refuse)
    monkeypatch.setattr("cyclocubic.lfunctions.three_split_factorization", refuse)
    for element, table in want.items():
        assert (lambda_table(labels, primes, element) == table).all(), element


def _spy_kernels(monkeypatch, calls, names):
    """Record (name, len of each argument) of every call to the kernels `names` = (module, name)."""
    for module, name in names:
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, name=name, real=real:
                            calls.append((name, *map(len, args))) or real(*args))


# every symbol kernel _exponent_tables reaches, directly or through generator_exponents
KERNELS = ((lfunctions, "registry_indices"), (lfunctions, "generator_exponents"),
           (lfunctions, "lambda_exponents"), (eisenstein, "registry_indices"),
           (eisenstein, "cubic_residue_exponents"))


def test_kummer_table_is_one_index_per_q_and_p(monkeypatch):
    # the q rows of a Kummer table come from one registry_indices call of
    # len(q) x len(columns) entries, with no conjugate rows and no
    # generator_exponents pair; the lambda row takes one lambda_exponents call
    # (the supplementary law, no power), and it is g e + c e' of the scalar
    # symbols at P, or at its conjugate, which the table takes as the element
    # (2c, 2g) at P
    family = family_of(labels_up_to_conductor(400))
    qs = sorted(set(family.primes.tolist()))
    registry = eisenstein.registry_table(max(qs))
    gens = registry[1][np.searchsorted(registry[0], qs)]
    primes = primes_up_to(300)
    columns = [p for p in primes if p != 3]
    calls = []
    _spy_kernels(monkeypatch, calls, KERNELS)
    kernels = [("lambda_exponents", len(columns)), ("registry_indices", len(qs), len(columns))]
    variants = [(element, conj) for element in (KUMMER, KUMMER[::-1]) for conj in (False, True)]
    elements = [(2 * c, 2 * g) if conj else (g, c) for (g, c), conj in variants]
    for element in elements:
        calls.clear()
        lfunctions._exponent_tables(gens, primes, [element])
        assert calls == kernels
    calls.clear()
    tables = lfunctions._exponent_tables(gens, primes, elements)  # all four share those calls
    assert calls == kernels
    for ((g, c), conj), table in zip(variants, tables):
        for j, p in enumerate(primes):
            if p == 3:
                continue
            P = eisenstein.prime_above(p)
            P = P.conjugate() if conj else P
            e = eisenstein.cubic_residue_symbol(eisenstein.LAMBDA, P)
            e_conj = eisenstein.cubic_residue_symbol(eisenstein.LAMBDA.conjugate(), P)
            assert table[0, j] % 3 == (g * e + c * e_conj) % 3, (p, g, c, conj)


def test_registry_variants_share_their_symbols(monkeypatch):
    # the four registry variants of an element, as verify's choice-invariance
    # probe reads them, come from one _lambda_tables call, with one
    # lambda_exponents call for every lambda row: the Kummer ones off one
    # registry_indices table; the paper-literal ones off one generator_exponents
    # pair at P, which is one registry_indices table of the inert columns alone
    # (reciprocity) and two cubic_residue_exponents tables of the split columns
    # (the generators, and their conjugates); each equals its own lambda_table
    family = family_of(labels_up_to_conductor(400))
    primes = primes_up_to(300)
    split, inert = (len([p for p in primes if p % 3 == r]) for r in (1, 2))
    calls = []
    _spy_kernels(monkeypatch, calls, [(module, name) for module, name in KERNELS
                                      if name != "generator_exponents"])
    for element, kernels in ((KUMMER, [("registry_indices", split + inert)]),
                             (PAPER_LITERAL, [("registry_indices", inert)]
                              + [("cubic_residue_exponents", split)] * 2)):
        variants = [(el, conj) for el in (element, element[::-1]) for conj in (False, True)]
        want = [lambda_table(family, primes, el, conjugate_prime=conj).tolist()
                for el, conj in variants]
        calls.clear()
        assert [t.tolist() for t in lfunctions._lambda_tables(family, primes, variants)] == want
        assert [(name, call[-1]) for name, *call in calls] == \
            [("lambda_exponents", split + inert)] + kernels, element


def test_lambda_table_reads_the_registry_before_any_column(monkeypatch):
    # the split column primes come off one registry table up to the largest,
    # not from a norm-equation solve each; a p past 2**31 is refused before
    # any table is sized by it
    def refuse(*args):
        raise AssertionError("lambda_table asked for a norm-equation solve or a table")

    empty = eisenstein._SplitTable(0, np.zeros(0, dtype=np.int64), np.zeros((0, 2), dtype=np.int64))
    monkeypatch.setattr(eisenstein, "_TABLE", empty)
    monkeypatch.setattr(eisenstein, "solve_split_generator", refuse)
    primes = [p for p in range(2 * 10**6 + 1, 2 * 10**6 + 3000, 2) if is_prime(p)]
    table = lambda_table([D7], primes)
    assert table.tolist() == [[lambda_coefficient(p, 1, D7) for p in primes]]
    big = next(n for n in range(2**31, 2**31 + 200) if n % 3 == 1 and is_prime(n))
    monkeypatch.setattr("cyclocubic.lfunctions.registry_table", refuse)
    with pytest.raises(ValueError, match="2\\*\\*31"):
        lambda_table([D7], [7, big])


def test_lambda_row_is_the_supplementary_law():
    # (lambda / P)_3 and (conj(lambda) / P)_3 read off P's primary generator
    # with no power equal the scalar symbols, at P and at its conjugate, for
    # every split p <= 2e5 (and every inert p <= 1e4)
    eisenstein.registry_table(2 * 10**5)
    above = [eisenstein.prime_above(p) for p in primes_up_to(2 * 10**5)
             if p % 3 == 1 or p % 3 == 2 and p <= 10**4]
    lam, lam_conj = eisenstein.LAMBDA, eisenstein.LAMBDA.conjugate()
    for conj in (False, True):
        at = [P.conjugate() for P in above] if conj else above
        e, e_conj = eisenstein.lambda_exponents(at)
        assert e.tolist() == [eisenstein.cubic_residue_symbol(lam, P) for P in at], conj
        assert e_conj.tolist() == [eisenstein.cubic_residue_symbol(lam_conj, P) for P in at], conj
    # the law holds for primary generators only: another one of the same prime is refused
    P = eisenstein.prime_above(7)
    with pytest.raises(ValueError, match="no primary element"):
        eisenstein.lambda_exponents([P._replace(generator=-P.generator)])


def test_lambda_table_corrupt_registry_raises(monkeypatch):
    # a corrupted registry generator must stop the table, not yield a guess
    true_prime_above = eisenstein.prime_above.__wrapped__

    def corrupted(p):
        if p == 13:
            return PrimeAbove(13, EisensteinInteger(5, 1), "split")
        return true_prime_above(p)

    monkeypatch.setattr("cyclocubic.lfunctions.prime_above", corrupted)
    # wide, and narrow, where p = 13 sits inside a block of many columns
    for labels in (labels_up_to_conductor(200), [D7]):
        with pytest.raises(RuntimeError, match="cube root of unity"):
            lambda_table(labels, primes_up_to(50))
