"""Property tests: Z[w] laws on coefficients far past 64 bits, Kummer
registry invariance on large labels, catalog round trips, and a CLI that
answers every argument with an exit code."""

import contextlib
import io
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cyclocubic._primes import primes_up_to
from cyclocubic.eisenstein import (
    EXPONENT_ZERO,
    ONE,
    ZERO,
    EisensteinInteger,
    euclidean_gcd,
    prime_above,
)
from cyclocubic import cli
from cyclocubic.fields import FieldLabel, make_record, record_from_line, record_to_line
from cyclocubic.lfunctions import KUMMER, SPLIT, character_symbol, kummer_argument, splitting_type
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
        SPLIT.g = 1
    with pytest.raises(AttributeError):
        prime_above(7).generator = ONE


@laws
@given(elements, coeffs)
def test_integer_scaling_and_no_order(x, n):
    # a NamedTuple would repeat itself under int * x and compare lexicographically
    assert n * x == x * n == x * E(n) == E(x.a * n, x.b * n)
    for compare in (x.__lt__, x.__le__, x.__gt__, x.__ge__):
        with pytest.raises(TypeError):
            compare(E(n))
    with pytest.raises(TypeError):
        sorted([x, E(n)])


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
    base = character_symbol(p, label, KUMMER)
    square = EXPONENT_ZERO if base == EXPONENT_ZERO else 2 * base % 3
    for conj in (False, True):
        for element in (KUMMER, KUMMER[::-1]):
            # swapping D1 and D2 squares the symbol; the splitting never moves
            s = character_symbol(p, label, element, conjugate_prime=conj)
            assert s in (base, square)
    oracle = polynomial_splitting_oracle(p, label)
    if oracle is not None:
        assert splitting_type(p, label) == oracle


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.sampled_from(SMALL_PRIMES[:40]))
def test_conjugate_prime_is_an_element_map(g, c, p):
    # (x / conj(P))_3 = (conj(x) / P)_3^2 and conj(D1) = D2, so the symbol of
    # D1^g D2^c at conj(P) is that of D1^2c D2^2g at P, which lambda_table
    # takes in place of a second table; the scalar uses neither, zeros included
    assume((g, c) != (0, 0))
    for label in (FieldLabel(0, 7 * 13, 31), FieldLabel(1, 1, 19 * 37), FieldLabel(2, 61, 1)):
        assert character_symbol(p, label, (g, c), conjugate_prime=True) \
            == character_symbol(p, label, (2 * c, 2 * g)), label


# -- catalog lines and the command line ----------------------------------------

@st.composite
def valid_labels(draw):
    qs = draw(st.lists(st.sampled_from(SPLIT_PRIMES[:50] + [7, 13, 19, 31, 37]),
                       max_size=4, unique=True))
    cut = draw(st.integers(0, len(qs)))
    d1 = d2 = 1
    for q in qs[:cut]:
        d1 *= q
    for q in qs[cut:]:
        d2 *= q
    return FieldLabel(draw(st.integers(0, 2)), d1, d2)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(valid_labels())
def test_catalog_line_round_trip(label):
    rec = make_record(label)
    assert record_from_line(record_to_line(rec)) == rec


# tokens that have broken argument handling before, or might: non-numbers,
# negatives, empty strings, a prime past 2**31, psi_12 (a composite that
# fooled Miller-Rabin to the bases 2..37), psi_13 (from which primality is
# not proven), and a few valid values
TOKENS = ("nan", "inf", "-1", "", "abc", "0", "1", "2", "7", "0.3", "1e3", "3,7", "2147483659",
          "318665857834031151167461", "3317044064679887385961981")
# --x and --ymax only take small values, so no drawn run is long
SMALL = ("nan", "-1", "", "abc", "10", "50", "1000", "2000")
OPTIONS = {
    "enumerate": {"--x": SMALL},
    "density": {"--x": SMALL, "--beta": TOKENS},
    "verify": {"--p0": TOKENS, "--ymax": SMALL, "--s": TOKENS},
    "charsum": {"--primes": TOKENS, "--ymax": SMALL},
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    for flag, tokens in OPTIONS[command].items():
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(tokens))]
    return argv


@settings(derandomize=True, max_examples=80, deadline=None)
@given(command_lines())
def test_cli_answers_every_argument_with_an_exit_code(argv):
    # verify's battery is stubbed: the property is about argument handling,
    # and a drawn --p0 of 2**31 would make the real battery run for hours
    def stub_suite(**kwargs):
        return []

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli.verify_mod, "run_probe_suite", stub_suite), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own exit, with the usage code
            code = exc.code
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_ASSERTION, cli.EXIT_IO), argv
    assert "Traceback" not in err.getvalue()
