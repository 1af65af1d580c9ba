"""Exact arithmetic, the prime registry, and cubic residue symbols."""

import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import cyclocubic.eisenstein as eisenstein
from cyclocubic._primes import primes_up_to
from cyclocubic.density import fejer_pair, prime_sum
from cyclocubic._primes import MR_PROOF_BOUND, is_prime, prime_sieve
from cyclocubic.eisenstein import (
    EXPONENT_ZERO,
    LAMBDA,
    ONE,
    UNITS,
    EisensteinInteger,
    PrimeAbove,
    canonical_associate,
    conjugate_coefficients,
    cubic_residue_exponents,
    cubic_residue_symbol,
    euclidean_gcd,
    generator_exponents,
    lambda_exponents,
    lambda_valuation,
    omega_mod,
    primary_associate,
    prime_above,
    registry_bound,
    registry_indices,
    registry_table,
    solve_split_generator,
)
from cyclocubic.fields import FieldLabel
from cyclocubic.lfunctions import INERT, SPLIT, kummer_argument, splitting_at_three, splitting_type
from cyclocubic.verify import polynomial_splitting_oracle

E = EisensteinInteger


def _times(*exponents):
    """The exponent of a product of cubic symbols given by their exponents."""
    return EXPONENT_ZERO if EXPONENT_ZERO in exponents else sum(exponents) % 3


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


def test_registry_table_equals_norm_equation_solve():
    primes, gens = registry_table(10**5)
    assert primes.tolist() == [p for p in primes_up_to(10**5) if p % 3 == 1]
    for p, (a, b) in zip(primes.tolist(), gens.tolist()):
        assert E(a, b) == solve_split_generator(p), p
    # the closed description: primary, positive omega coefficient, norm p
    a, b = gens[:, 0], gens[:, 1]
    assert np.all(a % 3 == 2) and np.all(b % 3 == 0) and np.all(b > 0)
    assert np.array_equal(a * a - a * b + b * b, primes)
    with pytest.raises(ValueError):
        gens[0, 0] = 5  # the registry hands out read-only views
    small_primes, small_gens = registry_table(100)
    assert small_primes.tolist() == [7, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97]
    assert np.array_equal(small_gens, gens[:len(small_primes)])


def test_solve_split_generator_past_int64_meets_the_closed_description():
    # 2^61 - 1, the first split prime past 2^63 and the last below psi_13
    first, last = 9223372036854775837, 3317044064679887385961813
    assert not any(q % 3 == 1 and is_prime(q) for q in range(2**63, first))
    assert not any(q % 3 == 1 and is_prime(q) for q in range(last + 1, MR_PROOF_BOUND))
    for p in (2**61 - 1, first, last):
        assert is_prime(p) and p % 3 == 1
        # primary, positive omega coefficient and norm p fix it (module docstring)
        a, b = solve_split_generator(p)
        assert a % 3 == 2 and b % 3 == 0 and b > 0 and a * a - a * b + b * b == p, p


def test_prime_above_reads_table_then_solves(monkeypatch):
    registry_table(1000)
    bound = registry_bound()
    beyond = next(q for q in range(bound + 1, 2 * bound + 100) if q % 3 == 1 and is_prime(q))
    solved = []

    def recording_solve(p):
        solved.append(p)
        return solve_split_generator(p)

    monkeypatch.setattr(eisenstein, "solve_split_generator", recording_solve)
    fresh = prime_above.__wrapped__  # past the cache, so every call takes its route
    assert fresh(7).generator == E(2, 3) and fresh(997).generator == prime_above(997).generator
    assert solved == []
    P = fresh(beyond)
    assert solved == [beyond]
    assert P == PrimeAbove(beyond, solve_split_generator(beyond), "split")
    assert registry_bound() == bound  # a lookup never grows the table
    for composite in (1, 25, 7 * 13):
        with pytest.raises(ValueError, match="not prime"):
            fresh(composite)
    with pytest.raises(ValueError, match="not prime"):
        fresh(next(q for q in range(bound + 1, 2 * bound + 100, 3) if not is_prime(q)))


def test_is_prime_is_a_proof_or_refuses():
    # psi_12 = 399165290221 * 798330580441 is a strong probable prime to every
    # base 2..37, so base 41 is what rejects it; psi_13 passes 2..41 as well
    psi12, psi13 = 318665857834031151167461, 3317044064679887385961981
    assert psi12 == 399165290221 * 798330580441 and psi13 == 1287836182261 * 2575672364521
    assert not is_prime(psi12) and MR_PROOF_BOUND == psi13
    assert is_prime(2**61 - 1) and is_prime(41) and not is_prime(41 * 43)
    for n in (psi13, psi13 + 2, 2**127 - 1):
        with pytest.raises(ValueError, match=str(psi13)):
            is_prime(n)
    with pytest.raises(ValueError, match="not prime"):
        prime_above(psi12)


def test_is_prime_rejects_every_psi_and_agrees_with_the_sieve():
    # psi_k passes the first k bases, so is_prime must reach base k + 1 there:
    # a base prefix cut one entry short of its proof accepts that composite
    for psi in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                341550071728321, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(psi), psi
    sieve = prime_sieve(2 * 10**6)
    assert [is_prime(n) for n in range(sieve.size)] == sieve.tolist()


def test_registry_table_grows_under_concurrent_callers(monkeypatch):
    monkeypatch.setattr(eisenstein, "_TABLE", eisenstein._lattice_pass(0))
    sizes = [3000 * (k + 1) for k in range(8)]  # more threads than cores
    results = {}

    def fill(n):
        results[n] = registry_table(n)

    threads = [threading.Thread(target=fill, args=(n,)) for n in reversed(sizes)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert registry_bound() == max(sizes)  # a smaller rebuild never replaced a larger table
    reference_primes, reference_gens = eisenstein._lattice_pass(max(sizes))[1:]
    for n, (primes, gens) in results.items():
        assert np.array_equal(primes, reference_primes[reference_primes <= n])
        assert np.array_equal(gens, reference_gens[:len(primes)])


def test_lattice_pass_raises_on_a_repeated_or_a_missed_slot(monkeypatch):
    # each row writes its points straight into their slots.  A sieve that calls
    # 91 = 7 * 13 prime lists 91 with two primary points (11 + 6w, -1 + 9w), a
    # repeated slot; one that calls 25 = 5^2 prime lists 25 with none, a missed
    # slot; one that calls both prime has as many points as slots.  The pass
    # must refuse all three
    real = prime_sieve
    assert eisenstein._lattice_pass(1000).primes.tolist() == [
        p for p in primes_up_to(1000) if p % 3 == 1]
    for composite, points in ((91, 2), (25, 0)):
        assert sum(a * a - a * b + b * b == composite
                   for b in range(3, 40, 3) for a in range(-40, 41) if a % 3 == 2) == points
    for composites in ([91], [25], [25, 91]):

        def sieve(n, composites=composites):
            out = real(n)
            out[composites] = True
            return out

        monkeypatch.setattr(eisenstein, "prime_sieve", sieve)
        with pytest.raises(AssertionError, match="missed or repeated a split prime"):
            eisenstein._lattice_pass(1000)


def test_omega_mod():
    # a non-registry generator pins the other root of x^2 + x + 1 mod 13
    custom = PrimeAbove(13, E(4, 3), "split")
    assert omega_mod(custom) == 3
    assert (3 * 3 + 3 + 1) % 13 == 0
    assert omega_mod(prime_above(13)) == 9
    assert omega_mod(prime_above(7)) == 4  # 3 + 4 = 0 mod 7


def test_cubic_symbol_values():
    p7 = prime_above(7)
    # 2^((7-1)/3) = 4, and omega maps to 4 mod the registry prime
    assert cubic_residue_symbol(E(2), p7) == 1
    # 3 + w generates the same ideal as the registry generator
    assert cubic_residue_symbol(E(3, 1), p7) == EXPONENT_ZERO
    # cubes land on the trivial symbol at any prime coprime to 2
    for p in (5, 7, 13, 31):
        assert cubic_residue_symbol(E(8), prime_above(p)) == 0
    with pytest.raises(ValueError):
        cubic_residue_symbol(E(2), prime_above(3))
    # omega -> 8 mod 13 is no cube root of unity, and 2^4 = 3 is no power of 8
    with pytest.raises(RuntimeError, match="cube root of unity"):
        cubic_residue_symbol(E(2), PrimeAbove(13, E(5, 1), "split"))


def test_symbol_multiplicativity():
    rng = random.Random(17)
    primes = [prime_above(p) for p in (7, 13, 5, 11, 31)]
    done = 0
    while done < 1000:
        P = rng.choice(primes)
        x, y = _random_nonzero(rng, 10**3), _random_nonzero(rng, 10**3)
        s = cubic_residue_symbol(x * y, P)
        assert s == _times(cubic_residue_symbol(x, P), cubic_residue_symbol(y, P))
        done += 1


def test_symbol_conjugation_law():
    rng = random.Random(23)
    for p in (7, 13, 19, 31):
        P = prime_above(p)
        Pc = P.conjugate()
        for _ in range(100):
            a = _random_nonzero(rng, 10**3)
            s = cubic_residue_symbol(a, P)
            assert cubic_residue_symbol(a.conjugate(), Pc) == _times(s, s)
    # sigma-stable primes collapse the law onto a single prime
    for p in (2, 5, 11, 17):
        P = prime_above(p)
        for _ in range(100):
            a = _random_nonzero(rng, 10**3)
            s = cubic_residue_symbol(a, P)
            assert cubic_residue_symbol(a.conjugate(), P) == _times(s, s)


def test_lambda_valuation():
    assert lambda_valuation(LAMBDA) == 1
    assert lambda_valuation(E(3)) == 2
    assert lambda_valuation(E(9)) == 4
    assert lambda_valuation(E(7)) == 0
    assert lambda_valuation(LAMBDA**5 * E(4, 1)) == 5


def test_cubic_residue_exponents_match_scalar():
    # split P: coefficients far past 2^63 enter reduced mod p; each column
    # of one table is the scalar symbol at its prime, and so is a one-column table
    rng = random.Random(77)
    elems = [E(rng.randint(-10**30, 10**30), rng.randint(-10**30, 10**30)) for _ in range(40)]
    split = [q for q in primes_up_to(200) if q % 3 == 1]
    primes = [P for q in split for P in (prime_above(q), prime_above(q).conjugate())]
    # past 2^31 and 2^63 the powers take Python ints; past 2^63 a residue
    # passes int64, so those rows enter reduced mod 10^18 instead
    big = [next(n for n in range(2**e, 2**e + 10**4) if n % 3 == 1 and is_prime(n))
           for e in (31, 62, 63)]
    for p in split + [2**31 - 1] + big:  # 2^31 - 1 is prime, = 1 (mod 3)
        m = min(p, 10**18)
        for P in (prime_above(p), prime_above(p).conjugate()):
            batch = [E(z.a % m, z.b % m) for z in
                     elems + [P.generator, P.generator * elems[0], E(0), E(p)]]
            table = cubic_residue_exponents(np.array(batch, dtype=np.int64), [P])
            assert table.dtype == np.int8 and table.shape == (len(batch), 1)
            assert table[:, 0].tolist() == [cubic_residue_symbol(z, P) for z in batch], p
    primes += [prime_above(p) for p in big]  # one table of moduli on both sides of int64
    batch = [E(z.a % 10**18, z.b % 10**18) for z in elems] + [P.generator for P in primes]
    table = cubic_residue_exponents(np.array(batch, dtype=np.int64), primes)
    assert table.shape == (len(batch), len(primes))
    assert table.tolist() == [[cubic_residue_symbol(z, P) for P in primes] for z in batch]


def test_cubic_residue_exponents_at_inert_primes_match_scalar():
    # the kernel refuses an inert P (..._rejects_3_before_reading_rows); the inert
    # columns of its old rows come from registry_indices by reciprocity (a
    # generator's symbol is its index, its conjugate's minus that) and from
    # lambda_exponents by the supplementary law, against the scalar's power in
    # F_{p^2}, at every inert column up to one past 2^63.  A rational ell's
    # inert symbols are genseries_symbols' (test_verify)
    top = next(n for n in range(2**31 - 3, 0, -3) if is_prime(n))  # the largest inert p < 2^31
    big = [next(n for n in range(2**e, 2**e + 10**4) if n % 3 == 2 and is_prime(n))
           for e in (31, 63)]
    inert = [q for q in primes_up_to(200) if q % 3 == 2] + [top] + big
    above = [prime_above(p) for p in inert]
    assert all(P.kind == "inert" for P in above)
    _, gens = registry_table(3000)
    ind = registry_indices(gens, inert)
    lam, lam_conj = lambda_exponents(above)
    rows = np.concatenate((gens, conjugate_coefficients(gens), [LAMBDA, LAMBDA.conjugate()]))
    table = np.concatenate((ind, -ind % 3, [lam, lam_conj]))
    assert table.tolist() == [[cubic_residue_symbol(E(a, b), P) for P in above]
                              for a, b in rows.tolist()]


def test_generator_exponents_match_scalar():
    # (pi / P)_3 and (conj(pi) / P)_3 of every registry generator up to 3000, by
    # the definition, at P and at conj(P): p = 2, every 5 <= p < 200 (so the
    # diagonal q = p, a zero), and the split and inert p past 2^31 and 2^63
    # where the kernel and reciprocity take Python ints
    big = [next(n for n in range(2**e, 2**e + 10**4) if n % 3 == r and is_prime(n))
           for e, r in ((31, 1), (62, 1), (63, 1), (31, 2), (63, 2))]
    top = next(n for n in range(2**31 - 3, 0, -3) if is_prime(n))  # the largest inert p < 2^31
    columns = [2] + [p for p in primes_up_to(199) if p >= 5] + [2**31 - 1, top] + big
    primes = [P for p in columns for P in (prime_above(p), prime_above(p).conjugate())]
    _, gens = registry_table(3000)
    e, e_conj = generator_exponents(gens, primes)
    assert e.dtype == e_conj.dtype == np.int8
    assert e.shape == e_conj.shape == (len(gens), len(primes))
    pis = [E(a, b) for a, b in gens.tolist()]
    assert e.tolist() == [[cubic_residue_symbol(pi, P) for P in primes] for pi in pis]
    assert e_conj.tolist() == [[cubic_residue_symbol(pi.conjugate(), P) for P in primes]
                               for pi in pis]
    assert (e == EXPONENT_ZERO).sum() == (e_conj == EXPONENT_ZERO).sum() > 0


def test_generator_exponents_reject_3_before_reading_rows():
    class Untouched:
        def __len__(self):
            raise AssertionError("the rows were read before p was checked")

        def __array__(self, *args, **kwargs):
            raise AssertionError("the rows were read before p was checked")

    with pytest.raises(ValueError, match="prime above 3"):
        generator_exponents(Untouched(), [prime_above(7), prime_above(5), prime_above(3)])


def test_empty_symbol_tables_take_no_power(monkeypatch):
    # a table with no rows or no columns is returned as it is: no omega_q is made
    def refuse(*args):
        raise AssertionError("an empty table took a power")

    _, gens = registry_table(100)
    none = np.zeros((0, 2), dtype=np.int64)
    monkeypatch.setattr(eisenstein, "_power_mod", refuse)
    assert registry_indices(gens, []).shape == (len(gens), 0)
    assert registry_indices(none, [2, 5, 7]).shape == (0, 3)
    assert cubic_residue_exponents(gens, []).shape == (len(gens), 0)
    assert cubic_residue_exponents(none, [prime_above(7)]).shape == (0, 1)


def test_lambda_exponents_match_scalar_past_int64():
    # lambda and its conjugate by the supplementary law at split primes past 2^33
    # and 2^63, whose norms pass int64, under either conjugate
    split = [next(n for n in range(2**e, 2**e + 10**4) if n % 3 == 1 and is_prime(n))
             for e in (33, 63)]
    above = [prime_above(p) for p in split]
    for at in (above, [P.conjugate() for P in above]):
        e, e_conj = lambda_exponents(at)
        assert e.tolist() == [cubic_residue_symbol(LAMBDA, P) for P in at]
        assert e_conj.tolist() == [cubic_residue_symbol(LAMBDA.conjugate(), P) for P in at]


def test_cubic_residue_exponents_take_coefficient_arrays():
    _, gens = registry_table(3000)
    conj = conjugate_coefficients(gens)
    assert conj.tolist() == [list(E(a, b).conjugate()) for a, b in gens.tolist()]
    primes = [prime_above(p) for p in (7, 13, 1999)]
    for coeffs in (gens, conj, conj.astype(np.int32)):
        want = [[cubic_residue_symbol(E(a, b), P) for P in primes] for a, b in coeffs.tolist()]
        assert cubic_residue_exponents(coeffs, primes).tolist() == want
    corrupt = PrimeAbove(13, E(5, 1), "split")
    with pytest.raises(RuntimeError, match="cube root of unity"):
        cubic_residue_exponents(gens, [prime_above(7), corrupt])


def test_registry_indices_match_scalar_and_reciprocity(monkeypatch):
    # ind_q(p) is (p / pi_q)_3 by definition, a power mod q.  By cubic
    # reciprocity the scalar, which never uses it, gives the same index as
    # (pi_q / p)_3 at an inert p and as (pi_q / P) / (conj(pi_q) / P) at a
    # split p != q; on the diagonal q = p it is a zero
    qs, gens = registry_table(3000)
    primes = [2] + [p for p in primes_up_to(199) if p >= 5]
    table = registry_indices(gens, primes)
    assert table.dtype == np.int8 and table.shape == (len(gens), len(primes))
    for q, (a, b), row in zip(qs.tolist(), gens.tolist(), table.tolist()):
        pi = E(a, b)
        assert row == [cubic_residue_symbol(E(p), PrimeAbove(q, pi, "split")) for p in primes]
        for p, k in zip(primes, row):
            P = prime_above(p)
            if p == q:
                assert k == EXPONENT_ZERO
            elif P.kind == "inert":
                assert k == cubic_residue_symbol(pi, P)
            else:
                assert k == (cubic_residue_symbol(pi, P)
                             - cubic_residue_symbol(pi.conjugate(), P)) % 3, (q, p)
    assert np.diagonal(registry_indices(gens, qs)).tolist() == [EXPONENT_ZERO] * len(qs)
    # passes of one row, or of a few that do not divide the row count, agree
    for entries in (1, 7 * len(primes) + 3):
        monkeypatch.setattr(eisenstein, "_SYMBOLS_PER_PASS", entries)
        assert np.array_equal(registry_indices(gens, primes), table), entries


def test_registry_indices_peak_memory_is_flat_in_rows():
    # the rows' a, b, norms and omega_q, like every pass's arrays, live one chunk
    # of _SYMBOLS_PER_PASS rows at a time, so past a chunk only the int8 table grows
    _, gens = registry_table(10**6)
    registry_indices(gens[:100], [5])
    peaks = []
    for rows in (gens, np.tile(gens, (4, 1))):  # 39,231 rows, then four times as many
        tracemalloc.start()
        try:
            table = registry_indices(rows, [5])
            peaks.append(tracemalloc.get_traced_memory()[1] - table.nbytes)
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0], peaks


def test_registry_indices_past_int64_squares_and_corrupt_rows():
    # a norm past 2**31 takes Python ints, as does every row of its table
    big = next(n for n in range(2**31 + 2, 2**31 + 300, 3) if is_prime(n))
    pi = prime_above(big).generator
    columns = [2, 5, 7, 11, 13, big, 3 * big]
    rows = np.array([list(pi), [2, 3]], dtype=np.int64)
    want = [[cubic_residue_symbol(E(n), PrimeAbove(z.norm(), z, "split")) for n in columns]
            for z in (pi, E(2, 3))]
    assert registry_indices(rows, columns).tolist() == want
    assert want[0][-2:] == [EXPONENT_ZERO, EXPONENT_ZERO]
    # 8 + 3 omega is primary of norm 49, no prime: its power is no cube root of unity
    corrupt = np.concatenate((registry_table(100)[1], [[8, 3]]))
    with pytest.raises(RuntimeError, match="cube root of unity"):
        registry_indices(corrupt, [2, 5, 7, 11])


def test_cubic_residue_exponents_rejects_3_before_reading_rows():
    class Untouched:
        def __len__(self):
            raise AssertionError("the rows were read before p was checked")

        def __array__(self, *args, **kwargs):
            raise AssertionError("the rows were read before p was checked")

    # the kernel takes split primes only: the ramified 3 and an inert P are refused
    for p in (3, 5):
        with pytest.raises(ValueError, match="split primes only"):
            cubic_residue_exponents(Untouched(), [prime_above(7), prime_above(p)])
