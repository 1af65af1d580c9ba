"""Exact arithmetic, the prime registry, and cubic residue symbols."""

import math
import random

import pytest

from cyclocubic._primes import primes_up_to
from cyclocubic.density import fejer_pair, prime_sum
from cyclocubic.eisenstein import (
    LAMBDA,
    ONE,
    SYMBOL_OMEGA,
    SYMBOL_ONE,
    SYMBOL_ZERO,
    UNITS,
    EisensteinInteger,
    PrimeAbove,
    canonical_associate,
    cubic_residue_symbol,
    euclidean_gcd,
    lambda_valuation,
    primary_associate,
    prime_above,
    residue_map,
)
from cyclocubic.fields import FieldLabel
from cyclocubic.lfunctions import INERT, SPLIT, kummer_argument, splitting_at_three, splitting_type
from cyclocubic.verify import polynomial_splitting_oracle

E = EisensteinInteger


def _random_nonzero(rng, span=10**6):
    while True:
        z = E(rng.randint(-span, span), rng.randint(-span, span))
        if not z.is_zero():
            return z


def test_ring_identities():
    # (1 - w)(1 - w^2) expands to 3 via w + w^2 = -1
    assert LAMBDA * LAMBDA.conjugate() == E(3)
    # conjugation sends 3 + w to 3 + w^2 = 2 - w
    assert E(3, 1).conjugate() == E(2, -1)
    # norm through an explicit product: (3 + w)(2 - w) = 7 = 9 - 3 + 1
    assert E(3, 1) * E(2, -1) == E(7)
    assert E(3, 1).norm() == 7
    assert LAMBDA**2 == E(0, -3)  # lambda^2 = -3w


def test_units_and_norms():
    assert len(set(UNITS)) == 6
    for u in UNITS:
        assert u.norm() == 1
    assert E(5, 0).norm() == 25 and E(0, 5).norm() == 25


def test_norm_multiplicativity_bulk():
    rng = random.Random(101)
    for _ in range(10_000):
        x = E(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        y = E(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        assert (x * y).norm() == x.norm() * y.norm()


def test_large_label_beyond_64_bits():
    # D = 4471123^2, discriminant ~2.0e13: the Kummer argument D1*D2^2 has
    # coefficients far past 2^63, which Python ints carry exactly
    label = FieldLabel(0, 1, 4471123)
    c = kummer_argument(label)
    assert max(abs(c.a), abs(c.b)) > 2**63
    assert splitting_at_three(label) in (SPLIT, INERT)
    assert math.isfinite(prime_sum(label, fejer_pair(0.2)))
    gated = 0
    for p in primes_up_to(200):
        oracle = polynomial_splitting_oracle(p, label)
        if oracle is not None:
            gated += 1
            assert splitting_type(p, label) == oracle
    assert gated == 43


def test_euclidean_division_shrinks():
    rng = random.Random(77)
    for _ in range(2000):
        x = _random_nonzero(rng)
        y = _random_nonzero(rng, span=10**4)
        q, r = divmod(x, y)
        assert q * y + r == x
        assert r.norm() < y.norm()


def test_gcd_examples():
    # 7 = (3+w)(3+w^2), so gcd(3+w, 7) is an associate of 3+w;
    # the canonical one has argument in [0, pi/3)
    g = euclidean_gcd(E(3, 1), E(7))
    assert g == E(3, 1)
    assert g.norm() == 7
    assert euclidean_gcd(E(2), E(5)) == ONE  # distinct inert primes
    z = E(14, 5)
    assert euclidean_gcd(z, E(0)) == canonical_associate(z)
    with pytest.raises(ValueError):
        euclidean_gcd(E(0), E(0))


def test_gcd_divides_both():
    rng = random.Random(3)
    for _ in range(300):
        x, y = _random_nonzero(rng, 10**4), _random_nonzero(rng, 10**4)
        g = euclidean_gcd(x, y)
        assert (x % g).is_zero() and (y % g).is_zero()


def test_canonical_associate_unique():
    rng = random.Random(9)
    for _ in range(500):
        z = _random_nonzero(rng, 10**3)
        reps = {canonical_associate(u * z) for u in UNITS}
        assert len(reps) == 1
        w = reps.pop()
        assert w.b >= 0 and w.a > w.b
    assert canonical_associate(E(-5)) == E(5)
    assert canonical_associate(E(0, 1)) == ONE


def test_primary_associate():
    # scan of the six associates of 3 + w leaves only 2 + 3w
    unit, prim = primary_associate(E(3, 1))
    assert prim == E(2, 3)
    assert unit * prim == E(3, 1)
    assert prim.a % 3 == 2 and prim.b % 3 == 0
    assert primary_associate(E(2)) == (ONE, E(2))
    with pytest.raises(ValueError):
        primary_associate(LAMBDA)  # divides 3
    rng = random.Random(31)
    count = 0
    while count < 300:
        z = _random_nonzero(rng, 10**4)
        if z.norm() % 3 == 0:
            continue
        count += 1
        matches = [u * z for u in UNITS if (u * z).a % 3 == 2 and (u * z).b % 3 == 0]
        assert len(matches) == 1
        assert primary_associate(z)[1] == matches[0]


def test_prime_above_registry():
    p7 = prime_above(7)
    assert p7.kind == "split" and p7.residue_degree == 1
    # primary associate of 3 + w, with positive omega coefficient
    assert p7.generator == E(2, 3)
    assert p7.generator.norm() == 7

    p5 = prime_above(5)
    assert p5.kind == "inert" and p5.residue_degree == 2
    assert p5.generator == E(5) and p5.generator.norm() == 25

    p3 = prime_above(3)
    assert p3.kind == "ramified" and p3.generator == LAMBDA

    assert prime_above(13).generator == E(-1, 3)

    with pytest.raises(ValueError):
        prime_above(15)

    # registry determinism, and generator norms by residue class
    for p in (7, 13, 19, 31, 61, 103):
        P = prime_above(p)
        assert P.generator.norm() == p
        assert P.generator.b > 0
        assert P == prime_above(p)
    for p in (2, 5, 11, 17, 23):
        assert prime_above(p).generator.norm() == p * p


def test_residue_map():
    # a non-registry generator pins the other root of x^2 + x + 1 mod 13
    custom = PrimeAbove(13, E(4, 3), 1, "split")
    assert residue_map(custom).omega == 3
    assert (3 * 3 + 3 + 1) % 13 == 0
    assert residue_map(prime_above(13)).omega == 9
    assert residue_map(prime_above(7)).omega == 4  # 3 + 4 = 0 mod 7

    # reduction is a ring homomorphism
    rng = random.Random(5)
    for P in (prime_above(7), prime_above(13), prime_above(5), prime_above(11)):
        field = residue_map(P)
        for _ in range(200):
            x, y = _random_nonzero(rng, 500), _random_nonzero(rng, 500)
            assert field.reduce(x * y) == field.mul(field.reduce(x), field.reduce(y))
        # the image of (1-w)(1-w^2) is 3 mod p
        assert field.reduce(LAMBDA * LAMBDA.conjugate()) == field.reduce(E(3))


def test_cubic_symbol_values():
    p7 = prime_above(7)
    # 2^((7-1)/3) = 4, and omega maps to 4 mod the registry prime
    assert cubic_residue_symbol(E(2), p7) == SYMBOL_OMEGA
    # 3 + w generates the same ideal as the registry generator
    assert cubic_residue_symbol(E(3, 1), p7) == SYMBOL_ZERO
    # cubes land on the trivial symbol at any prime coprime to 2
    for p in (5, 7, 13, 31):
        assert cubic_residue_symbol(E(8), prime_above(p)) == SYMBOL_ONE
    with pytest.raises(ValueError):
        cubic_residue_symbol(E(2), prime_above(3))


def test_symbol_multiplicativity():
    rng = random.Random(17)
    primes = [prime_above(p) for p in (7, 13, 5, 11, 31)]
    done = 0
    while done < 1000:
        P = rng.choice(primes)
        x, y = _random_nonzero(rng, 10**3), _random_nonzero(rng, 10**3)
        s = cubic_residue_symbol(x * y, P)
        assert s == cubic_residue_symbol(x, P) * cubic_residue_symbol(y, P)
        done += 1


def test_symbol_conjugation_law():
    rng = random.Random(23)
    for p in (7, 13, 19, 31):
        P = prime_above(p)
        Pc = P.conjugate()
        for _ in range(100):
            a = _random_nonzero(rng, 10**3)
            assert cubic_residue_symbol(a.conjugate(), Pc) == cubic_residue_symbol(a, P) ** 2
    # sigma-stable primes collapse the law onto a single prime
    for p in (2, 5, 11, 17):
        P = prime_above(p)
        for _ in range(100):
            a = _random_nonzero(rng, 10**3)
            assert cubic_residue_symbol(a.conjugate(), P) == cubic_residue_symbol(a, P) ** 2


def test_symbol_algebra():
    assert SYMBOL_ZERO * SYMBOL_OMEGA == SYMBOL_ZERO
    assert SYMBOL_OMEGA**3 == SYMBOL_ONE
    assert (SYMBOL_OMEGA**2).conjugate() == SYMBOL_OMEGA
    assert SYMBOL_ONE.real_double() == 2
    assert SYMBOL_OMEGA.real_double() == -1
    assert SYMBOL_ZERO.real_double() == 0


def test_lambda_valuation():
    assert lambda_valuation(LAMBDA) == 1
    assert lambda_valuation(E(3)) == 2
    assert lambda_valuation(E(9)) == 4
    assert lambda_valuation(E(7)) == 0
    assert lambda_valuation(LAMBDA**5 * E(4, 1)) == 5
