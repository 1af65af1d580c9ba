"""Property tests: Z[w] laws on coefficients far past 64 bits, Kummer
registry invariance on large labels."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cyclocubic._primes import primes_up_to
from cyclocubic.eisenstein import (
    ONE,
    SYMBOL_OMEGA,
    ZERO,
    EisensteinInteger,
    euclidean_gcd,
    prime_above,
)
from cyclocubic.fields import FieldLabel
from cyclocubic.lfunctions import SPLIT, kummer_argument, kummer_symbol, splitting_type
from cyclocubic.verify import polynomial_splitting_oracle

E = EisensteinInteger
BIG = 2**200

coeffs = st.integers(-BIG, BIG)
elements = st.builds(E, coeffs, coeffs)
nonzero = elements.filter(lambda z: not z.is_zero())

laws = settings(derandomize=True, max_examples=60, deadline=None)


@laws
@given(elements, elements, elements)
def test_ring_laws(x, y, z):
    assert (x + y) + z == x + (y + z) and x + y == y + x
    assert (x * y) * z == x * (y * z) and x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x and x * ONE == x and x - x == ZERO
    assert -(-x) == x and x * ZERO == ZERO
    assert x**3 == x * x * x


@laws
@given(elements, elements)
def test_conjugation_is_ring_automorphism(x, y):
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert x.conjugate().conjugate() == x
    assert x * x.conjugate() == E(x.norm())
    assert x + x.conjugate() == E(x.trace())


@laws
@given(elements, elements)
def test_norm_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()
    assert x.norm() >= 0


@laws
@given(elements, nonzero)
def test_divmod_remainder_shrinks(x, y):
    q, r = divmod(x, y)
    assert x == q * y + r
    assert r.norm() < y.norm()
    assert x % y == r


@laws
@given(elements, elements, nonzero)
def test_gcd_divides_both(x, y, common):
    assume(not (x.is_zero() and y.is_zero()))
    a, b = common * x, common * y
    g = euclidean_gcd(a, b)
    assert (a % g).is_zero() and (b % g).is_zero()
    assert (g % common).is_zero()  # every common divisor divides the gcd


@laws
@given(elements, elements)
def test_values_hash_by_value_and_stay_immutable(x, y):
    twin = (x + y) - y  # equal to x, built independently
    assert twin == x and hash(twin) == hash(x)
    with pytest.raises(AttributeError):
        x.a = 0
    with pytest.raises(AttributeError):
        x.b = 0
    with pytest.raises(AttributeError):
        SYMBOL_OMEGA.exponent = 0
    with pytest.raises(AttributeError):
        SPLIT.g = 1
    with pytest.raises(AttributeError):
        prime_above(7).generator = ONE


# -- Kummer registry invariance on labels past the old 64-bit envelope ----------

SPLIT_PRIMES = [q for q in primes_up_to(10**5) if q % 3 == 1 and q > 3 * 10**4]
SMALL_PRIMES = [p for p in primes_up_to(1000) if p != 3]


@st.composite
def large_labels(draw):
    qs = draw(st.lists(st.sampled_from(SPLIT_PRIMES), min_size=2, max_size=3, unique=True))
    cut = draw(st.integers(0, len(qs) - 1))
    d1, d2 = 1, 1
    for q in qs[:cut]:
        d1 *= q
    for q in qs[cut:]:
        d2 *= q
    return FieldLabel(draw(st.integers(0, 2)), d1, d2)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(large_labels(), st.sampled_from(SMALL_PRIMES))
def test_kummer_variants_agree_on_large_labels(label, p):
    c = kummer_argument(label)
    assert max(abs(c.a), abs(c.b)) > 2**63
    base = kummer_symbol(p, label)
    for conj in (False, True):
        for swap in (False, True):
            # swapping D1 and D2 squares the symbol; the splitting never moves
            s = kummer_symbol(p, label, conjugate_prime=conj, swap_factors=swap)
            assert s in (base, base.conjugate())
    oracle = polynomial_splitting_oracle(p, label)
    if oracle is not None:
        assert splitting_type(p, label) == oracle
