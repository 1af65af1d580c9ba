"""Field labels, conductors, defining cubics, and the family enumeration."""

import math
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

from cyclocubic._primes import factorize, smallest_factor_sieve
from cyclocubic.eisenstein import EisensteinInteger, PrimeAbove, prime_above, registry_table
from cyclocubic.fields import (
    X_MAX,
    FieldLabel,
    Not3SplitError,
    NotCubeFreeError,
    canonicalize,
    catalog_lines,
    conductor_discriminant,
    defining_polynomial,
    enumerate_family,
    family_of,
    label_primes,
    labels_up_to_conductor,
    make_record,
    parse_label,
    partner,
    record_from_line,
    record_to_line,
    squarefree_3split_columns,
    three_split_factorization,
)


def test_parse_label():
    assert parse_label(7) == FieldLabel(0, 7, 1)
    assert parse_label(441) == FieldLabel(2, 1, 7)  # 3^2 * 7^2
    assert parse_label(3 * 7 * 13**2) == FieldLabel(1, 7, 13)
    with pytest.raises(Not3SplitError):
        parse_label(10)  # 5 = 2 mod 3
    with pytest.raises(NotCubeFreeError):
        parse_label(27 * 7)
    with pytest.raises(ValueError):
        parse_label(1)


def test_three_split_factorization():
    fact = three_split_factorization(FieldLabel(0, 7, 1))
    assert fact.d1 * fact.d2 == EisensteinInteger(7)
    assert fact.d2 == fact.d1.conjugate()

    fact3 = three_split_factorization(FieldLabel(1, 1, 1))
    assert fact3.d1 == EisensteinInteger(1, -1)  # 1 - omega
    assert fact3.d1 * fact3.d2 == EisensteinInteger(3)

    # norm multiplicativity across a composite label: N(D1) = 7 * 13^2
    fact713 = three_split_factorization(FieldLabel(0, 7, 13))
    assert fact713.d1.norm() == 7 * 13**2 == 1183
    assert fact713.d1 * fact713.d2 == EisensteinInteger(FieldLabel(0, 7, 13).D)


@pytest.mark.parametrize("label", [
    FieldLabel(3, 7, 1),    # e3 outside 0..2
    FieldLabel(0, 7, 7),    # d1, d2 share 7, so 7^3 | D
    FieldLabel(0, 49, 1),   # d1 not squarefree
    FieldLabel(0, 21, 1),   # 3 belongs to e3, not d1
    FieldLabel(0, 1, 35),   # 5 = 2 (mod 3)
    FieldLabel(0, 0, 7),    # not positive
])
def test_three_split_factorization_rejects_bad_labels(label):
    # catalog loading relies on this check instead of factoring D
    with pytest.raises(ValueError):
        three_split_factorization(label)


def test_partner_and_canonicalize():
    assert partner(FieldLabel(0, 7, 1)) == FieldLabel(0, 1, 7)  # 7 <-> 49
    assert partner(FieldLabel(1, 7, 1)) == FieldLabel(2, 1, 7)  # 21 <-> 441
    assert canonicalize(parse_label(49)) == (FieldLabel(0, 7, 1), False)
    assert canonicalize(parse_label(21)) == (FieldLabel(1, 7, 1), True)
    # partner of 63 = (2,7,1) is (1,1,7) = 147, so 63 is canonical
    assert partner(parse_label(63)).D == 147
    assert canonicalize(parse_label(63))[1] is True


def test_partner_is_involution():
    for label in labels_up_to_conductor(1000):
        assert partner(partner(label)) == label
        assert partner(label) != label


def test_conductor_discriminant():
    assert conductor_discriminant(FieldLabel(0, 7, 1)) == (7, 49)
    assert conductor_discriminant(FieldLabel(1, 1, 1)) == (9, 81)
    assert conductor_discriminant(FieldLabel(0, 7, 13)) == (91, 8281)
    for label in labels_up_to_conductor(1000):
        assert conductor_discriminant(label) == conductor_discriminant(partner(label))


def test_defining_polynomial_examples():
    # registry generator above 7 is 2 + 3w with trace 1, so B = 7
    assert defining_polynomial(FieldLabel(0, 7, 1)) == (7, 7)
    # trace(1 - omega) = 3
    assert defining_polynomial(FieldLabel(1, 1, 1)) == (3, 9)


def test_defining_polynomial_generator_identity():
    # u + D/u is a root of x^3 - 3Dx - B for each complex cube root u of D1*D2^2
    for label in (FieldLabel(0, 7, 1), FieldLabel(1, 1, 1), FieldLabel(0, 13, 7),
                  FieldLabel(2, 7, 1)):
        a_coef, b_coef = defining_polynomial(label)
        fact = three_split_factorization(label)
        c = (fact.d1 * fact.d2 * fact.d2).complex_value()
        u = c ** (1.0 / 3.0)
        gamma = (u + label.D / u).real
        residual = abs(gamma**3 - 3 * a_coef * gamma - b_coef)
        assert residual < 1e-10 * max(1.0, abs(gamma) ** 3)


def test_defining_polynomial_trace_bound():
    # |trace| <= 2 sqrt(norm) gives B^2 <= 4 D^3
    for label in labels_up_to_conductor(1000):
        a_coef, b_coef = defining_polynomial(label)
        assert a_coef == label.D
        assert b_coef**2 <= 4 * label.D**3


def _brute_force_conductor_counts(X):
    """{f: number of fields of conductor f} for f^2 in [X, 2X], by factoring f."""
    found = {}
    for f in range(math.isqrt(X - 1) + 1, math.isqrt(2 * X) + 1):
        fac = factorize(f)
        e3 = fac.pop(3, 0)
        if e3 not in (0, 2):
            continue
        if any(q % 3 != 1 or e != 1 for q, e in fac.items()):
            continue
        n_fields = 2 ** len(fac) if e3 == 2 else 2 ** len(fac) // 2
        if n_fields:
            found[f] = n_fields
    return found


def test_enumerate_family_2000():
    # independent brute-force conductor scan: valid conductors f with
    # f^2 in [X, 2X] and the field count each carries
    records = enumerate_family(2000).records()
    assert [(r.D, r.discriminant) for r in records] == [
        (61, 3721), (21, 3969), (63, 3969)]
    assert all(canonicalize(r.label)[1] for r in records)
    found = _brute_force_conductor_counts(2000)
    assert found == {61: 1, 63: 2}
    assert sum(found.values()) == len(records)

    records = enumerate_family(10**6).records()
    assert Counter(r.conductor for r in records) == _brute_force_conductor_counts(10**6)


def test_enumerate_family_window_and_order():
    records = enumerate_family(50_000).records()
    assert records == sorted(records, key=lambda r: (r.conductor, r.D))
    assert len({r.D for r in records}) == len(records)
    for r in records:
        assert 50_000 <= r.discriminant <= 100_000
        assert r.conductor**2 == r.discriminant
        f, disc = conductor_discriminant(r.label)
        assert (f, disc) == (r.conductor, r.discriminant)
        assert r.label.D < partner(r.label).D


def test_catalog_blocks_split_at_rows_per_pass(monkeypatch):
    # 3 rows a block over a family whose length is no multiple of 3: every
    # block but the last holds 3 whole lines, and the blocks join to the catalog
    family = enumerate_family(10**6)
    assert len(family) % 3 != 0
    monkeypatch.setattr("cyclocubic.fields._ROWS_PER_PASS", 3)
    blocks = list(catalog_lines(family))
    assert len(blocks) == -(-len(family) // 3)
    assert [block.count("\n") for block in blocks] == [3] * (len(blocks) - 1) + [len(family) % 3]
    assert all(block.endswith("\n") for block in blocks)
    assert "".join(blocks) == "".join(record_to_line(r) + "\n" for r in family.records())
    assert list(catalog_lines(family_of([]))) == []


def test_enumeration_carries_primes_instead_of_factoring(monkeypatch):
    def no_factoring(n):
        raise AssertionError(f"the enumeration factored {n}")

    monkeypatch.setattr("cyclocubic.fields.factorize", no_factoring)
    records = enumerate_family(10**9).records()
    assert len(records) == 2088
    monkeypatch.undo()
    # the same records as those rebuilt from each label, checked by label_primes
    assert records == [make_record(r.label) for r in records]


@pytest.mark.parametrize("x", [10**6, 10**9])
def test_family_rows_match_the_per_label_reference(x):
    family = enumerate_family(x)
    labels = family.labels()
    assert len(family) == len(labels) == len(family.records())
    assert family.records() == [make_record(label) for label in labels]
    assert "".join(catalog_lines(family)) == "".join(record_to_line(r) + "\n"
                                                    for r in family.records())
    # each row's CSR primes, split by in_d1, are the primes of d1 and of d2
    for i, label in enumerate(labels):
        primes = family.primes[family.offsets[i]:family.offsets[i + 1]]
        in_d1 = family.in_d1[family.offsets[i]:family.offsets[i + 1]]
        assert (tuple(primes[in_d1].tolist()), tuple(primes[~in_d1].tolist())) == \
            label_primes(label)
    # a list of labels reaches the same columns through family_of
    rebuilt = family_of(labels)
    for name in ("e3", "d1", "d2", "D", "conductor", "trace", "offsets", "primes", "in_d1",
                 "gens"):
        assert np.array_equal(getattr(rebuilt, name), getattr(family, name)), name


def test_family_gens_are_the_registry_generators():
    # both builders keep the generator above q at every CSR position, the
    # enumeration from the registry table and family_of from prime_above,
    # here also past the table for the prime 4471123
    for family in (enumerate_family(10**8),
                   family_of(labels_up_to_conductor(400) + [FieldLabel(0, 1, 4471123)])):
        assert family.gens.shape == (family.primes.size, 2) and family.gens.dtype == np.int64
        assert family.gens.tolist() == [list(prime_above(q).generator)
                                        for q in family.primes.tolist()]
    assert family.primes[-1] == 4471123
    assert family_of([]).gens.shape == (0, 2)


def test_family_of_checks_labels():
    assert len(family_of([])) == 0 and not family_of([])
    assert family_of([FieldLabel(1, 1, 1)]).records() == [make_record(FieldLabel(1, 1, 1))]
    with pytest.raises(Not3SplitError):
        family_of([FieldLabel(0, 7, 1), FieldLabel(0, 5, 1)])
    with pytest.raises(NotCubeFreeError):
        family_of([FieldLabel(0, 7, 7)])
    # past 2^61 the int64 product of D1 could wrap, so the label is refused
    with pytest.raises(ValueError, match="2\\^61"):
        family_of([FieldLabel(0, 1, 2**31 + 11)])


@lru_cache(maxsize=None)
def _brute_force_labels(f_max):
    """Canonical labels with conductor <= f_max, by parse_label and canonicalize over every D.

    A canonical D lies below the geometric mean of D and its partner's D,
    3^(3/2) * n^(3/2) or n^(3/2) for n = d1 * d2, and so below f^(3/2).
    """
    found = []
    for D in range(2, math.isqrt(f_max**3) + 1):
        try:
            label = parse_label(D)
        except ValueError:
            continue
        f, _ = conductor_discriminant(label)
        if canonicalize(label)[1] and f <= f_max:
            found.append((f, D, label))
    return [label for _, _, label in sorted(found)]


def test_labels_up_to_conductor_match_brute_force():
    expected = _brute_force_labels(3000)
    assert len(expected) == 476
    assert labels_up_to_conductor(3000) == expected
    assert labels_up_to_conductor(9) == [FieldLabel(0, 7, 1), FieldLabel(1, 1, 1)]
    assert labels_up_to_conductor(6) == []


# f = 7 * 13 * 19 on the n scale and 9 * 7 * 31 on the 9n scale; for each,
# the window's lower edge f^2 - 1, f^2, f^2 + 1 and its upper edge at 2X = f^2 +- 1
@pytest.mark.parametrize("f", [1729, 1953])
@pytest.mark.parametrize("edge, inside", [
    (lambda f: f * f - 1, True), (lambda f: f * f, True), (lambda f: f * f + 1, False),
    (lambda f: (f * f + 1) // 2, True), (lambda f: (f * f - 1) // 2, False),
])
def test_enumerate_family_window_edges_match_brute_force(f, edge, inside):
    X = edge(f)
    expected = [label for label in _brute_force_labels(3000)
                if X <= conductor_discriminant(label)[1] <= 2 * X]
    records = enumerate_family(X).records()
    assert [r.label for r in records] == expected
    assert (f in {r.conductor for r in records}) is inside
    assert records == [make_record(label) for label in expected]


def test_squarefree_3split_columns_match_factorize():
    def brute_force(lo, hi):
        out = []
        for n in range(max(lo, 1), hi + 1):
            fac = factorize(n)
            if all(q % 3 == 1 and e == 1 for q, e in fac.items()):
                out.append((n, tuple(sorted(fac))))
        return out

    for lo, hi in ((1, 10**5), (0, 1), (2, 1), (2, 100), (90_000, 100_000), (91, 91)):
        columns = squarefree_3split_columns(lo, hi, smallest_factor_sieve(hi))
        found = []
        for k, (ns, primes) in columns.items():  # k primes per row, n ascending
            assert primes.shape == (ns.size, k) and np.all(np.diff(ns) > 0)
            found += zip(ns.tolist(), map(tuple, primes.tolist()))
        assert sorted(found) == brute_force(lo, hi)


def test_smallest_factor_sieve_matches_trial_division():
    spf = smallest_factor_sieve(10**5)
    assert spf.tolist() == [0, 0] + [min(factorize(k)) for k in range(2, 10**5 + 1)]
    for n in (0, 1, 2, 3, 4, 25, 97):
        assert np.array_equal(smallest_factor_sieve(n), spf[:n + 1])


def test_enumerate_family_refuses_x_beyond_int64_range(monkeypatch):
    def no_sieve(n):
        raise AssertionError(f"a sieve to {n} was started")

    monkeypatch.setattr("cyclocubic.fields.smallest_factor_sieve", no_sieve)
    with pytest.raises(ValueError, match="2\\^79"):
        enumerate_family(X_MAX + 1)
    with pytest.raises(ValueError, match="2\\^79"):
        enumerate_family(10**30)
    assert math.isqrt(2 * X_MAX) == 2**40  # 4 * f^1.5 <= 2^62 at the largest conductor


def test_enumeration_checks_the_norm_of_every_d1(monkeypatch):
    # a corrupted generator above 13 must stop both routes, not yield a polynomial
    primes, gens = registry_table(200)
    corrupt = gens.copy()
    corrupt[primes == 13] = (5, 1)
    monkeypatch.setattr("cyclocubic.fields.registry_table", lambda n: (primes, corrupt))
    with pytest.raises(RuntimeError, match="registry generators are corrupt"):
        enumerate_family(10**4)  # conductor 117 = 9 * 13
    monkeypatch.setattr("cyclocubic.fields.prime_above",
                        lambda q: PrimeAbove(13, EisensteinInteger(5, 1), "split"))
    with pytest.raises(RuntimeError, match="registry generators are corrupt"):
        three_split_factorization(FieldLabel(0, 13, 1))


def test_two_to_one_correspondence():
    labels = labels_up_to_conductor(1000)
    # every canonical label has a non-canonical partner; together they pair
    # up the full label set two-to-one
    all_labels = set()
    for label in labels:
        all_labels.add(label)
        all_labels.add(partner(label))
    assert len(all_labels) == 2 * len(labels)
    for label in labels:
        inside, canonical = canonicalize(partner(label))
        assert inside == label and canonical is False


def test_family_growth_ratio():
    # |F(4X)| / |F(X)| near 2 under sqrt growth; measured ratios are
    # 2.000, 1.978, 1.951 on this grid
    for x in (10**6, 4 * 10**6, 16 * 10**6):
        ratio = len(enumerate_family(4 * x)) / len(enumerate_family(x))
        assert abs(ratio - 2.0) <= 0.2


def test_enumeration_is_stable():
    a = [record_to_line(r) for r in enumerate_family(10**5).records()]
    b = [record_to_line(r) for r in enumerate_family(10**5).records()]
    assert a == b


def test_record_round_trip():
    for rec in enumerate_family(3000).records():
        assert record_from_line(record_to_line(rec)) == rec
    good = "D=7 e3=0 d1=7 d2=1 conductor=7 discriminant=49 polyA=7 polyB=7"
    assert record_from_line(good) == record_from_line(" ".join(reversed(good.split())))
    # a repeated key is refused, wherever it sits, not resolved last-wins
    for line in ("D=7 e3=0", "D=7 D=13 e3=0 d1=7 d2=1 conductor=7 discriminant=49 polyA=7 polyB=7",
                 good + " D=7"):
        with pytest.raises(ValueError):
            record_from_line(line)
