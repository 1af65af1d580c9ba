"""Oracles, audits, and cancellation experiments."""

import math
import tracemalloc

import numpy as np
import pytest

import cyclocubic.eisenstein as eisenstein
from cyclocubic._primes import factorize, is_prime, primes_up_to
from cyclocubic.eisenstein import (
    EXPONENT_ZERO,
    LAMBDA,
    EisensteinInteger,
    PrimeAbove,
    cubic_residue_symbol,
    prime_above,
)
from cyclocubic.fields import FieldLabel
from cyclocubic.lfunctions import INERT, SPLIT, splitting_type
from cyclocubic.verify import (
    FAIL,
    FINDING,
    PASS,
    _walk_order,
    _walk_rows,
    audit_corpus,
    calibrate_cube_exponent,
    char_sum,
    char_sum_grid,
    char_sums,
    charsum_decade_envelope,
    choice_invariance_probe,
    cube_solvable_mod_lambda,
    family_count_scaling,
    genseries_compare,
    genseries_sides,
    genseries_symbols,
    ideal_count_crosscheck,
    log_grid,
    paper_literal_findings,
    polynomial_splitting_oracle,
    probe_pairs,
    ramification_audit_at_3,
    ramification_audit_suite,
    run_probe_suite,
    splitting_oracle_probe,
    stable_root_count_mod_3k,
)

D7 = FieldLabel(0, 7, 1)


def test_polynomial_oracle_values():
    # x^3 - 21x - 7 has the roots 5, 9, 12 mod 13
    assert polynomial_splitting_oracle(13, D7) == SPLIT
    assert polynomial_splitting_oracle(17, FieldLabel(1, 1, 1)) == SPLIT
    assert polynomial_splitting_oracle(5, D7) == INERT
    # gate: p divides the polynomial discriminant
    assert polynomial_splitting_oracle(7, D7) is None
    assert polynomial_splitting_oracle(3, D7) is None


def test_root_counts_in_one_pass_match_brute_force():
    # one array pass over every x mod every p gives each p's count by brute force
    from cyclocubic.fields import defining_polynomial, labels_up_to_conductor
    from cyclocubic.verify import _root_count_splittings

    primes = primes_up_to(200)
    for label in labels_up_to_conductor(100):
        a, b = defining_polynomial(label)
        counts = [sum((x**3 - 3 * a * x - b) % p == 0 for x in range(p)) for p in primes]
        want = [None if 3 * (4 * a**3 - b * b) % p == 0 else {3: SPLIT, 0: INERT}[n]
                for p, n in zip(primes, counts)]
        assert _root_count_splittings(primes, label, a, b) == want, label
    # x^3 - 2 has no root mod 7 but exactly one mod 5, inside the gate 3 * -4
    with pytest.raises(RuntimeError, match="1 roots mod 5 inside the gate"):
        _root_count_splittings([7, 5], D7, 0, 2)


def test_splitting_oracle_probe_clean():
    report = splitting_oracle_probe(max_conductor=200, max_p=500)
    assert report.status == PASS
    assert report.numbers["mismatches"] == 0
    assert report.numbers["pairs"] > 1000


def test_splitting_oracle_probe_detects_corruption(monkeypatch):
    # a corrupted registry generator must surface as a failure, not a guess
    true_prime_above = eisenstein.prime_above.__wrapped__

    def corrupted(p):
        if p == 13:
            return PrimeAbove(13, EisensteinInteger(5, 1), "split")
        return true_prime_above(p)

    monkeypatch.setattr("cyclocubic.lfunctions.prime_above", corrupted)
    report = splitting_oracle_probe(max_conductor=100, max_p=50)
    assert report.status == FAIL
    assert report.numbers["mismatches"] > 0


def test_choice_invariance():
    report = choice_invariance_probe(probe_pairs(1000))
    assert report.status in (PASS, FINDING)
    assert report.numbers["kummer_failures"] == 0
    # differences can only come from split base primes
    for row in report.details:
        assert row["p"] % 3 == 1


def test_probe_suite_factors_no_label_per_pair(monkeypatch):
    # the probes read lambda off exponent tables: labels are factored once per
    # table or oracle, where a Z[w] product per (label, p) pair made 53,082 calls
    import cyclocubic.fields as fields_mod

    calls = []
    real = fields_mod.factorize
    monkeypatch.setattr(fields_mod, "factorize", lambda n: calls.append(n) or real(n))
    reports = run_probe_suite()
    assert [r.status for r in reports if r.status == FAIL] == []
    assert 0 < len(calls) <= 1000


def test_choice_invariance_inert_subset():
    pairs = [(label, p) for label, p in probe_pairs(3000) if p % 3 == 2]
    report = choice_invariance_probe(pairs)
    assert report.status == PASS
    assert report.numbers["paper_findings"] == 0


def test_paper_literal_findings_d7():
    rows = paper_literal_findings(D7, 100)
    assert len(rows) >= 1
    # measured witnesses under the registry normalization
    assert {row["p"] for row in rows} == {7, 31, 37, 61, 67, 79}


def test_ramification_audit():
    rep = ramification_audit_at_3(D7)
    assert rep.status in (PASS, FINDING)
    assert rep.numbers["cube_solvable"] == (splitting_type(3, D7) == SPLIT)
    skip = ramification_audit_at_3(FieldLabel(1, 1, 1))
    assert skip.numbers.get("skipped") == 1


def test_cube_solvability_witnesses():
    from cyclocubic.fields import three_split_factorization

    # D = 61 splits at 3, D = 7 does not
    for label, expected in ((FieldLabel(0, 61, 1), True), (D7, False)):
        fact = three_split_factorization(label)
        c = fact.d1 * fact.d2 * fact.d2
        assert cube_solvable_mod_lambda(c, 4) is expected
        # one level coarser, every registry element is congruent to a cube
        assert cube_solvable_mod_lambda(c, 3) is True


def test_ramification_audit_suite_and_calibration():
    corpus = audit_corpus(50)
    assert len(corpus) == 50
    k_star = calibrate_cube_exponent(corpus)
    assert k_star == 4
    report = ramification_audit_suite(50)
    assert report.status in (PASS, FINDING)  # findings: fields inert at 3
    assert report.numbers["k_star"] == 4
    assert report.numbers["labels"] == 50


def test_ramification_audit_fails_on_wrong_splitting_at_three(monkeypatch):
    # the corpus holds fields inert at 3, which an always-split answer contradicts
    monkeypatch.setattr("cyclocubic.verify.splitting_at_three", lambda label: SPLIT)
    report = ramification_audit_suite(50)
    assert report.status == FAIL
    assert report.details == [{"probe_i": False, "probe_ii": False,
                               "splitting_at_three": SPLIT}]


def test_ramification_audit_suite_factors_each_label_twice(monkeypatch):
    # one factorization per label gives both probes and the calibration their
    # Kummer argument and cubic, and splitting_at_three, the reference, makes
    # its own; rebuilt per probe and per tried k they took 502 calls
    import cyclocubic.fields as fields_mod
    from cyclocubic.fields import defining_polynomial
    from cyclocubic.lfunctions import kummer_argument
    from cyclocubic.verify import _cube_data

    for label in audit_corpus(50):
        c, stable = _cube_data(label)
        assert c == kummer_argument(label)
        assert stable == stable_root_count_mod_3k(*defining_polynomial(label))
    calls = []
    real = fields_mod.factorize
    monkeypatch.setattr(fields_mod, "factorize", lambda n: calls.append(n) or real(n))
    report = ramification_audit_suite(50)
    assert report.numbers["k_star"] == 4
    assert 0 < len(calls) <= 200


def test_stable_root_count():
    # split at 3 with index contribution: count stabilizes above zero
    from cyclocubic.fields import defining_polynomial

    a61, b61 = defining_polynomial(FieldLabel(0, 61, 1))
    assert stable_root_count_mod_3k(a61, b61) > 0
    a7, b7 = defining_polynomial(D7)
    assert stable_root_count_mod_3k(a7, b7) == 0


def test_ideal_count_crosscheck():
    rep = ideal_count_crosscheck(FieldLabel(1, 1, 1), 10**4)
    assert rep.status == PASS and rep.numbers["mismatches"] == 0


def test_ideal_count_crosscheck_catches_bad_lambda(monkeypatch):
    # drop the 3 | m rule, so inert lambda(p^3) = -1 instead of 2; 2 is inert
    # for D = 3, so the coefficient at n = 8 must mismatch
    import cyclocubic.verify as verify_mod

    real = verify_mod.lambda_from_splitting

    def corrupt(st, m):
        return -1 if st == INERT else real(st, m)

    monkeypatch.setattr(verify_mod, "lambda_from_splitting", corrupt)
    rep = ideal_count_crosscheck(FieldLabel(1, 1, 1))
    assert rep.status == FAIL
    assert rep.details[0]["n"] == 8
    # the factorization shared between calls carries no label's coefficients:
    # once the rule is mended, the same label and the corpus pass again
    monkeypatch.undo()
    corpus = audit_corpus(10)
    labels = [FieldLabel(1, 1, 1), *corpus]
    assert [ideal_count_crosscheck(label).status for label in labels] == [PASS] * 11


def test_ideal_count_crosscheck_fails_a_lambda_no_splitting_gives(monkeypatch):
    # lambda = 1 at every inert p of D = 7 names no splitting type; read as a
    # split prime it would leave both routes equal and the check passing
    import cyclocubic.verify as verify_mod

    real = verify_mod.lambda_table

    def corrupt(labels, primes, *args, **kwargs):
        lam = real(labels, primes, *args, **kwargs)
        lam[lam == -1] = 1
        return lam

    monkeypatch.setattr(verify_mod, "lambda_table", corrupt)
    rep = ideal_count_crosscheck(D7, 1000)
    inert = [p for p in primes_up_to(1000) if splitting_type(p, D7) == INERT]
    assert rep.status == FAIL
    assert rep.numbers == {"n_max": 1000, "stray_lambda": len(inert)}
    assert rep.details == [{"p": p, "lambda": 1} for p in inert[:20]]


def test_probe_suite_ideal_counts_equal_standalone_checks():
    # the suite's calls share the factorization of 2..1e4 and one lambda_table
    # of the ten labels, while a standalone call builds its own row: the same
    # reports either way
    corpus = audit_corpus(10)
    reports = {r.subject: r for r in run_probe_suite() if r.subject.startswith("ideal_count")}
    standalone = [ideal_count_crosscheck(label, 10**4) for label in corpus]
    assert [reports.pop(r.subject) for r in standalone] == standalone
    assert reports == {}


def test_ideal_count_coefficient_values():
    # n = 17 for D = 3: split prime, three ideals of norm 17
    label = FieldLabel(1, 1, 1)
    assert splitting_type(17, label) == SPLIT
    from cyclocubic.verify import _zeta_prime_power_coefficient

    assert _zeta_prime_power_coefficient(SPLIT, 1) == 3
    assert _zeta_prime_power_coefficient(INERT, 1) == 0
    assert _zeta_prime_power_coefficient(INERT, 3) == 1


def test_char_sum_values():
    # three-term enumeration: chi(1) + chi(7) + chi(49) = 1 + w^2 + w = 0
    cs = char_sum(13, 10)
    assert cs.value == EisensteinInteger(0, 0)
    assert cs.pairs == 3
    for p in (7, 13, 31, 5):
        assert char_sum(p, 1).value == EisensteinInteger(1, 0)
    with pytest.raises(ValueError):
        char_sum(3, 10)
    assert char_sums(7, []) == []  # no Y, no sums


def test_char_sum_conjugation():
    for p in (7, 13):
        for y in (10, 100, 1000):
            plain = char_sum(p, y)
            conj = char_sum(p, y, conjugate_prime=True)
            assert conj.value == plain.value.conjugate()
            assert conj.magnitude == plain.magnitude


def test_char_sum_envelope_trend():
    # the decade envelope of |S|/Y^(3/4) shrinks across the top two decades
    for p in (7, 13, 31):
        env = charsum_decade_envelope(p, 10**5)
        assert env[3] >= env[4]
    assert charsum_decade_envelope(7, 10) == {}  # an empty grid: no decade


def test_char_sum_exponent_bound():
    grid = [10, 32, 100, 316, 1000, 3162, 10000]
    for p in (7, 13, 31):
        _, exponent = char_sum_grid(p, grid)
        assert exponent <= 1.1


def _char_sum_term_by_term(p: int, y: int,
                           conjugate_prime: bool = False) -> tuple[EisensteinInteger, int]:
    """S_p(y) and its pair count, one scalar symbol of the Z[w] product D1 * D2^2 per pair.

    The squarefree 3-split n <= y come from factorize, and every pair
    (d1, d2) of them with d1 * d2 <= y and gcd 1 is visited; with
    `conjugate_prime`, P and every generator are conjugated.
    """
    def generator(q):
        g = prime_above(q).generator
        return g.conjugate() if conjugate_prime else g

    P = prime_above(p)
    if conjugate_prime:
        P = P.conjugate()
    numbers = []
    for n in range(1, y + 1):
        fac = factorize(n)
        if all(q % 3 == 1 and e == 1 for q, e in fac.items()):
            numbers.append((n, sorted(fac)))
    counts = [0, 0, 0]
    pairs = 0
    for d1, fac1 in numbers:
        for d2, fac2 in numbers:
            if d1 * d2 > y:
                break
            if math.gcd(d1, d2) != 1:
                continue
            pairs += 1
            z = EisensteinInteger(1)
            for q in fac1 + fac2 + fac2:
                z = z * generator(q)
            k = cubic_residue_symbol(z, P)
            if k != EXPONENT_ZERO:
                counts[k] += 1
    return EisensteinInteger(counts[0] - counts[2], counts[1] - counts[2]), pairs


def test_char_sum_matches_term_by_term_sum():
    for p in (2, 7, 13):
        for conj in (False, True):
            for y in (0, 1, 10, 49, 300, 2000):
                cs = char_sum(p, y, conjugate_prime=conj)
                assert (cs.value, cs.pairs) == _char_sum_term_by_term(p, y, conj), (p, conj, y)
                # (d1, d2) and (d2, d1) have conjugate terms: S_p(Y) is rational
                assert cs.value.b == 0, (p, conj, y)


def test_char_sum_grid_equals_per_y_char_sum():
    grid = log_grid(3000)
    for p in (2, 7, 13):
        for conj in (False, True):
            rows, _ = char_sum_grid(p, grid, conjugate_prime=conj)
            assert [y for y, _ in rows] == grid
            assert [cs for _, cs in rows] == [char_sum(p, y, conjugate_prime=conj) for y in grid]
    envelope = {}
    for y in grid[1:]:
        d = math.ceil(math.log10(y)) - 1
        envelope[d] = max(envelope.get(d, 0.0), char_sum(13, y).magnitude / y**0.75)
    assert charsum_decade_envelope(13, 3000) == envelope
    assert log_grid(5) == [] and char_sum_grid(7, log_grid(5)) == ([], 0.0)


def test_char_sums_shared_rows_equal_a_cold_cache():
    # the rows of n are built once per top Y and shared by every p; calls that
    # interleave primes, tops and registry variants must read what a cold
    # cache gives
    import cyclocubic.verify as verify_mod

    warm = [(p, grid, conj, char_sums(p, grid, conjugate_prime=conj))
            for grid in (log_grid(10**3), log_grid(10**5), log_grid(10**3))
            for p in (7, 13, 2) for conj in (False, True)]
    for p, grid, conj, values in warm:
        verify_mod._char_sum_rows.cache_clear()
        assert char_sums(p, grid, conjugate_prime=conj) == values, (p, grid[-1], conj)


def test_log_grid_stays_within_ymax():
    full = log_grid(10**6)
    assert full[:3] == [10, 13, 16] and full[-1] == 10**6 and len(full) == 51
    # the pinned grids at powers of ten are prefixes of one another
    for d in range(1, 6):
        assert log_grid(10**d) == [y for y in full if y <= 10**d]
        assert log_grid(10**d)[-1] == 10**d
    assert log_grid(50000)[-1] == 39811  # not 63096, 79433 and 100000 beyond --ymax
    assert log_grid(30000)[-1] == 25119  # not cut short at 10000
    for y_max in (10, 11, 99, 30000, 50000, 10**4 + 1, 123456):
        assert log_grid(y_max) == [y for y in full if y <= y_max]


# omega^k at k = 0, 1, 2, and 0 at EXPONENT_ZERO = -1, as the scalar code writes them
_CHI_VALUES = [1, -0.5 + 0.8660254037844386j, -0.5 - 0.8660254037844386j, 0j]


def _genseries_sides_per_ell(p: int, s: float, p0: int) -> tuple[float, float]:
    """genseries_sides with one registry prime and one scalar symbol per ell."""
    P = prime_above(p)

    def chi_of(x):
        return _CHI_VALUES[cubic_residue_symbol(x, P)]

    lhs, l_chi, l_chi2, h = 1.0, complex(1.0), complex(1.0), complex(1.0)
    x3 = 3.0 ** (-s)
    chi3 = chi_of(LAMBDA)
    l_chi /= 1.0 - chi3 * x3
    l_chi2 /= 1.0 - chi3**2 * x3
    h *= (1.0 - chi3 * x3) * (1.0 - chi3**2 * x3)
    for ell in primes_up_to(p0):
        if ell == 3:
            continue
        if ell % 3 == 1:
            x = ell ** (-s)
            gen = prime_above(ell).generator
            chi_reg = chi_of(gen)
            for chi in (chi_reg, chi_of(gen.conjugate())):
                if chi != 0:
                    l_chi /= 1.0 - chi * x
                    l_chi2 /= 1.0 - chi**2 * x
                    c = (chi + chi**2).real
                    h *= (1.0 - chi * x) * (1.0 - chi**2 * x) * (1.0 + c * x)
            c_reg = (chi_reg + chi_reg**2).real if chi_reg != 0 else 0.0
            lhs *= 1.0 + c_reg * ell ** (-s)
        elif ell * ell <= p0:
            x = ell ** (-2.0 * s)
            chi = chi_of(EisensteinInteger(ell))
            l_chi /= 1.0 - chi * x
            l_chi2 /= 1.0 - chi**2 * x
            c = (chi + chi**2).real
            h *= (1.0 - chi * x) * (1.0 - chi**2 * x) * (1.0 + c * x)
            h /= 1.0 + c * x
    return lhs, math.sqrt(abs((l_chi * l_chi2 * h).real))


def _bits(sides):
    return [value.hex() for value in sides]


@pytest.mark.parametrize("p", [2, 5, 7, 13, 31])
def test_genseries_sides_match_per_ell_reference_bit_for_bit(p):
    # 841 = 29^2 brings in the inert ell = 29, which 840 leaves out
    cutoffs = (840, 841, 10**4)
    for s in (2.0, 3.5):
        want = [_bits(_genseries_sides_per_ell(p, s, p0)) for p0 in cutoffs]
        assert [_bits(sides) for sides in genseries_sides(p, s, cutoffs)] == want
        assert [_bits(genseries_sides(p, s, (p0,))[0]) for p0 in cutoffs] == want


@pytest.mark.parametrize("p, s", [(5, 2.0), (13, 3.5)])
def test_genseries_sides_across_blocks_bit_for_bit(p, s, monkeypatch):
    # the about 4,800 primes a product to 1e5 uses fill three blocks; at 2000
    # and 7 primes a block, the inert ell <= 44 and their divisions straddle
    # block edges
    assert _bits(genseries_sides(p, s, (10**5,))[0]) == _bits(_genseries_sides_per_ell(p, s, 10**5))
    import cyclocubic.verify as verify_mod

    monkeypatch.setattr(verify_mod, "_WALK_BLOCK", 7)
    assert _bits(genseries_sides(p, s, (2000,))[0]) == _bits(_genseries_sides_per_ell(p, s, 2000))
    # a walk to 101,000 takes the inert 317, which the cutoff 1e5 leaves out.
    # Kernel blocks cut the split rows and walk blocks the rows of every ell.
    # At each size pair, each kind of block starts at some inert ell and holds
    # others inside, and one block holds the last ell <= 1e5 and the next
    cutoffs = (10**5, 101_000)
    want = [_bits(_genseries_sides_per_ell(p, s, p0)) for p0 in cutoffs]
    split = eisenstein.registry_table(10**5)[0]
    inert = [ell for ell in primes_up_to(317) if ell % 3 == 2]
    after = np.searchsorted(split, inert)  # the split row after each inert ell
    for kernel, walk in ((5, 7), (9, 4)):
        for edge, size, last in ((after, kernel, split.size),
                                 (after + np.arange(len(inert)), walk, split.size + len(inert))):
            assert 0 < np.count_nonzero(edge % size == 0) < len(inert) and last % size
        monkeypatch.setattr(verify_mod, "_KERNEL_BLOCK", kernel)
        monkeypatch.setattr(verify_mod, "_WALK_BLOCK", walk)
        verify_mod._walk_rows.cache_clear()  # x too is filled a walk block at a time
        assert [_bits(sides) for sides in genseries_sides(p, s, cutoffs)] == want


def test_genseries_sides_peak_memory_is_flat_in_p0():
    # the int8 symbols are all that grows with p0 (2 bytes per split ell): the
    # kernel's arrays and the walk's factors and lists live a block at a time.
    # The cached x = ell^-s and the registry table are made before the count
    import cyclocubic.verify as verify_mod

    peaks = []
    for p0 in (250_000, 10**6):
        eisenstein.registry_table(p0)
        verify_mod._walk_rows(p0, 2.0)
        tracemalloc.start()
        try:
            genseries_sides(5, 2.0, (p0 // 10, p0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 3 * 2**20 and peaks[1] - peaks[0] < 2**20, peaks


@pytest.mark.parametrize("p", [5, 13])
def test_genseries_sides_one_walk_equals_separate_walks(p):
    # one walk serves both cutoffs of genseries_compare, though the larger
    # takes in inert ell (317 <= ell <= 1000) that the smaller leaves out
    cutoffs = (10**5, 10**6)
    walk = genseries_sides(p, 2.0, cutoffs)
    assert [_bits(sides) for sides in walk] == [_bits(genseries_sides(p, 2.0, (p0,))[0])
                                                for p0 in cutoffs]


def _genseries_symbols_by_the_definition(p, p0):
    """(at_three, split rows, inert entries) of genseries_symbols(p, p0), by cubic_residue_symbol."""
    P = prime_above(p)
    pis = [EisensteinInteger(a, b) for a, b in eisenstein.registry_table(p0)[1].tolist()]
    ells = [ell for ell in primes_up_to(math.isqrt(p0)) if ell % 3 == 2]
    return (cubic_residue_symbol(LAMBDA, P),
            [[cubic_residue_symbol(pi, P), cubic_residue_symbol(pi.conjugate(), P)] for pi in pis],
            [cubic_residue_symbol(EisensteinInteger(ell), P) for ell in ells])


def _listed(symbols, p0):
    """genseries_symbols' (at_three, e) as the definition's triple; an inert row's second entry
    is a zero."""
    at_three, e = symbols
    inert = _walk_order(p0)[0]
    assert np.all(e[inert, 1] == EXPONENT_ZERO)
    return at_three, e[~inert].tolist(), e[inert, 0].tolist()


@pytest.mark.parametrize("p0", [840, 841, 10**4, 10**5])
def test_walk_order_is_the_split_and_inert_ell_ascending(p0):
    # the split ell <= p0 are the registry table's, the inert ell those <= sqrt(p0):
    # put in the rows inert marks, in their order, they ascend strictly
    inert, small = _walk_order(p0)
    split = eisenstein.registry_table(p0)[0].tolist()
    assert small.tolist() == [n for n in primes_up_to(math.isqrt(p0)) if n % 3 == 2]
    assert inert.size == len(split) + small.size and np.count_nonzero(inert) == small.size
    ell = np.empty(inert.size, dtype=np.int64)
    ell[~inert], ell[inert] = split, small
    assert np.all(np.diff(ell) > 0)
    assert ell.tolist() == sorted(split + small.tolist())
    # and the walk's x is the builtin pow over that order
    x = [pow(n, -4.0 if at_inert else -2.0) for n, at_inert in zip(ell.tolist(), inert.tolist())]
    assert _walk_rows(p0, 2.0).tolist() == x


@pytest.mark.parametrize("p", [2, 5, 11, 17])
def test_inert_genseries_symbols_match_the_two_row_kernel(p):
    # at an inert P no symbol takes the kernel: lambda comes from the supplementary
    # law, both rows of a generator (it and its conjugate) from its index by
    # reciprocity, and an inert ell is a cube, or a zero at ell = p; the scalar
    # definition of every entry is the reference
    listed = _listed(genseries_symbols(p, 10**4), 10**4)
    assert listed == _genseries_symbols_by_the_definition(p, 10**4)
    ells = [ell for ell in primes_up_to(100) if ell % 3 == 2]
    assert listed[2][ells.index(p)] == EXPONENT_ZERO


@pytest.mark.parametrize("p", [8589934609, 8589934631, 9223372036854775837, 9223372036854775907])
def test_genseries_symbols_past_int64_match_the_definition(p):
    # the first split and inert p past 2^33, where an inert norm p^2 passes
    # int64, and past 2^63, where p itself does
    assert is_prime(p) and p > 2**33
    assert (_listed(genseries_symbols(p, 10**4), 10**4)
            == _genseries_symbols_by_the_definition(p, 10**4))


def test_genseries_symbols_refuse_3_first(monkeypatch):
    def refuse(*args):
        raise AssertionError("a symbol was computed before p = 3 was refused")

    for name in ("registry_table", "registry_indices", "generator_exponents"):
        monkeypatch.setattr(f"cyclocubic.verify.{name}", refuse)
    with pytest.raises(ValueError, match="p = 3"):
        genseries_symbols(3, 10**4)


def test_genseries_inert_base():
    rep = genseries_compare(5, 2.0, (10**5, 10**6))
    assert rep.status == PASS
    assert rep.numbers["relative_gap"] < 1e-6
    assert rep.numbers["cauchy_lhs"] < 1e-8
    assert rep.numbers["cauchy_rhs"] < 1e-8


def test_genseries_split_base_gap_recorded():
    rep = genseries_compare(13, 2.0, (10**5, 10**6))
    assert rep.status == FINDING
    assert rep.numbers["cauchy_lhs"] < 1e-8
    assert rep.numbers["relative_gap"] > 1e-6  # genuine ell-by-ell asymmetry


def test_family_count_scaling():
    rep = family_count_scaling([10**6, 10**7, 10**8])
    assert rep.status == PASS
    assert 0.45 <= rep.numbers["slope"] <= 0.55
    assert rep.numbers["counts"] == (67, 209, 644)
