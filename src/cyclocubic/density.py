"""One-level density of low-lying zeros via the explicit formula.

For the field labeled by D, the density statistic against an even test
function f with compactly supported transform is

    total = integral(f)  -  prime_sum  +  gamma_term,

where the prime sum carries lambda_D(p^m) log(p) / sqrt(p^m) weighted by
fhat(log p^m / log Delta) and the gamma term is the archimedean digamma
integral rescaled by L = log(Delta) / (2 pi), for the gamma factor
Gamma_R(s)^2 of L(chi) L(chi-bar) with chi even.  For a Fejer pair it has a
closed form (`gamma_term`), a digamma value plus a sum with an Euler-Maclaurin
tail; `gamma_term_quadrature` is the y-space oracle.

The prime sum here keeps the m = 1, 2 terms, the ones whose family average
discriminates the symmetry type; p^m with m >= 3 lie below the square-root
barrier and contribute a deterministic drift of order 1/log(Delta) that
carries no character information (dropping them changes `total` by less
than 2 * sum_{p^m < Delta^beta, m >= 3} 2 log p / sqrt(p^m) / log Delta).

Family averages over discriminants in [X, 2X] are compared against the
Katz-Sarnak kernels W(G) = 1 + a S(t) + mass delta_0 (`_KERNEL_TABLE`),
S(t) = sin(2 pi t) / (2 pi t), through the T statistic (average prime sum):
a unitary family leaves T near 0, symplectic/orthogonal ones push it to
+-sum over p^2 terms.

Everything is deterministic: fixed summation orders, compensated sums and
closed forms; quadrature serves only the oracles.

A family is a `fields.Family` of numpy columns, computed in batches, never
one field at a time: `prime_sums` gives each field one math.fsum of its kept
terms, prefixes of the primes, and what depends on the discriminant alone
is computed once per run of rows sharing one (`reference_statistics`, and
`gamma_terms` over the runs' `log_discriminants` in `family_average`).  Each
batched value is bit for bit its one-field value (`prime_sum`, `gamma_term`),
because every term sees the same floating-point operations and math.fsum
rounds the exact sum once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from ._primes import primes_up_to
from .fields import Family, FieldLabel, conductor_discriminant, family_of
from .lfunctions import lambda_table

TWO_PI = 2.0 * math.pi


# -- the Fejer test function ----------------------------------------------------


@dataclass(frozen=True)
class TestFunctionPair:
    """The Fejer pair of support beta, 0 < beta < 1, checked when it is built.

    f(x) = (sin(pi beta x) / (pi beta x))^2 has the triangular transform
    fhat(u) = (1/beta) max(0, 1 - |u|/beta), so f(0) = 1 and fhat(0) = 1/beta.
    Convention: fhat(u) = integral f(x) exp(-2 pi i x u) dx, so the prime-sum
    arguments log(p^m)/log(Delta) carry no stray 2 pi.  f and fhat take arrays.
    """

    beta: float
    f_at_0 = 1.0  # a class constant, not a field: f(0) = 1 for every beta

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")

    def f(self, x):
        return np.sinc(self.beta * np.asarray(x)) ** 2

    def fhat(self, u):
        return np.maximum(0.0, 1.0 - np.abs(np.asarray(u)) / self.beta) / self.beta

    @property
    def fhat_at_0(self) -> float:
        return 1.0 / self.beta


fejer_pair = TestFunctionPair  # the constructor callers use: fejer_pair(beta)


# -- quadrature helpers ---------------------------------------------------------

def panel_gauss(func: Callable, a: float, b: float, panels: int) -> float:
    """Composite 20-point Gauss-Legendre over equal panels of [a, b].

    Only the test oracles integrate numerically, so the nodes are computed
    (and numpy.polynomial loaded) per call, not at import.
    """
    nodes, weights = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    return float(half * np.sum(func(mid[:, None] + half * nodes) @ weights))


def refine_panels(func: Callable, a: float, b: float, tol: float, start_panels: int) -> float:
    """Double the panels of panel_gauss, at most 10 times, until two agree to `tol`."""
    panels = start_panels
    prev = panel_gauss(func, a, b, panels)
    for _ in range(10):
        panels *= 2
        cur = panel_gauss(func, a, b, panels)
        if abs(cur - prev) < tol:
            return cur
        prev = cur
    raise RuntimeError(f"quadrature did not converge to {tol} on [{a}, {b}]")


# -- Katz-Sarnak kernels ---------------------------------------------------------

# (a, mass) of each kernel W(G)(t) = 1 + a S(t) + mass delta_0, in the order
# that breaks classify_symmetry's ties and prints the CSV footer
_KERNEL_TABLE = {"U": (0.0, 0.0), "Sp": (-1.0, 0.0), "O": (0.0, 0.5),
                 "SOeven": (1.0, 0.0), "SOodd": (-1.0, 1.0)}
KERNELS = tuple(_KERNEL_TABLE)


def _kernel(G: str) -> tuple[float, float]:
    if G not in _KERNEL_TABLE:
        raise ValueError(f"unknown kernel {G!r}")
    return _KERNEL_TABLE[G]


def _f0_weight(G: str) -> float:  # c of kernel_integral: exactly 0 or +-1/2
    a, mass = _kernel(G)
    return a / 2.0 + mass


def kernel_value(G: str, t) -> tuple[float, float]:
    """(smooth part at t, point-mass coefficient at 0) for the kernel W(G).

    The removable singularity of S(t) = sin(2 pi t)/(2 pi t) at t = 0 evaluates to 1.
    """
    a, mass = _kernel(G)
    smooth = 1.0 + a * np.sinc(2.0 * np.asarray(t, dtype=float))
    if np.ndim(t) == 0:
        return float(smooth), mass
    return smooth, mass


def kernel_integral(G: str, tf: TestFunctionPair) -> float:
    """integral f(t) W(G)(t) dt on the transform side: fhat(0) + c f(0), c = a/2 + mass.

    As supp(fhat) lies inside (-1, 1), integral f S = (1/2) integral of fhat
    over [-1, 1] = f(0)/2 by Fourier inversion, and W = 1 + a S + mass delta_0.
    """
    return tf.fhat_at_0 + _f0_weight(G) * tf.f_at_0


def kernel_integral_quadrature(G: str, tf: TestFunctionPair) -> float:
    """Direct-quadrature oracle for kernel_integral.

    Integrates f * W over [-T, T], T = 2e4, by composite Gauss-Legendre and
    adds the analytic tail of the slowly-decaying f * 1 part, 2/(pi^2 beta^2 T)
    per pair of tails; the oscillatory remainder is O(T^-2).
    """

    def integrand(t):
        smooth, _ = kernel_value(G, t)
        return tf.f(t) * smooth

    half_width = 2.0e4
    panels = int(2 * half_width / 0.5)
    body = panel_gauss(integrand, -half_width, half_width, panels)
    tail = 1.0 / (math.pi**2 * tf.beta**2 * half_width)
    _, mass = kernel_value(G, 0.0)
    return body + tail + mass * tf.f_at_0


# -- digamma ---------------------------------------------------------------------

# asymptotic series coefficients: B_{2n} / (2n)
_PSI_COEFFS = (
    1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0,
    1.0 / 132.0, -691.0 / 32760.0, 1.0 / 12.0,
)
_PSI_SHIFT = 16.0


def _digamma_array(z: np.ndarray) -> np.ndarray:
    """psi on complex arrays: recurrence up to Re >= 16, then the log series."""
    z = np.array(z, dtype=complex)
    acc = np.zeros_like(z)
    for _ in range(int(_PSI_SHIFT) + 1):
        mask = z.real < _PSI_SHIFT
        if not mask.any():
            break
        acc[mask] -= 1.0 / z[mask]
        z[mask] += 1.0
    w = 1.0 / (z * z)
    series = np.zeros_like(z)
    for c in reversed(_PSI_COEFFS):
        series = (series + c) * w
    return acc + np.log(z) - 0.5 / z - series


def digamma(x: float) -> float:
    """psi(x) for real x, relative accuracy ~1e-14 away from the poles.

    Non-positive integers are poles and rejected; negative non-integers go
    through the reflection psi(x) = psi(1 - x) - pi / tan(pi x).
    """
    if x <= 0.0:
        if x == math.floor(x):
            raise ValueError(f"digamma pole at {x}")
        return digamma(1.0 - x) - math.pi / math.tan(math.pi * x)
    return float(_digamma_array(np.array([x], dtype=complex))[0].real)


# psi(1/4): the archimedean bracket is 2 Re psi(1/4 + ix/2) less 2 log(pi)
_PSI_QUARTER = -np.euler_gamma - math.pi / 2.0 - 3.0 * math.log(2.0)


def _archimedean_bracket(x: np.ndarray) -> np.ndarray:
    """2 G(1/2+ix) + 2 G(1/2-ix), G = Gamma_R'/Gamma_R.

    L_D = L(chi) L(chi-bar) carries Gamma_R(s)^2: cubic characters are even
    (chi(-1) = chi(-1)^3 = 1), so each factor's gamma factor is Gamma_R(s)
    (mpmath checks the functional equation for the cubic character mod 7 in
    test_cubic_character_gamma_factor_is_gamma_r_of_s).  Gamma_R(s) =
    pi^(-s/2) Gamma(s/2) gives G(s) = -log(pi)/2 + psi(s/2)/2, and conjugate
    pairing makes the sum real: the bracket is 2 Re psi(1/4 + ix/2) - 2 log(pi).
    """
    half_ix = 0.5j * np.asarray(x, dtype=float)
    return 2.0 * _digamma_array(0.25 + half_ix).real - 2.0 * math.log(math.pi)


# terms of D_a(U) summed one by one before its Euler-Maclaurin tail
_HEAD_TERMS = 32
# (B_2j / (2j)!, 2j - 1) of each Euler-Maclaurin correction to the tail
_EM_CORRECTIONS = ((1.0 / 12.0, 1), (-1.0 / 720.0, 3), (1.0 / 30240.0, 5))
# levels of the continued fraction of E1 above z = 2
_E1_LEVELS = 60


def _exp_integral(z: np.ndarray) -> np.ndarray:
    """E1(z) for z > 0, elementwise, to about 1e-15 relative.

    Up to z = 2 the power series -gamma_E - log z - sum_k (-z)^k / (k k!);
    above, the continued fraction e^-z / (z + 1 - 1/(z + 3 - 4/(z + 5 - ...))).
    """
    out = np.empty_like(z)
    small = z <= 2.0
    zs, zl = z[small], z[~small]
    term, series = np.ones_like(zs), np.zeros_like(zs)
    for k in range(1, 31):
        term = term * -zs / k
        series = series + term / k
    out[small] = -np.euler_gamma - np.log(zs) - series
    frac = zl + (2 * _E1_LEVELS + 1)
    for n in range(_E1_LEVELS, 0, -1):
        frac = zl + (2 * n - 1) - n * n / frac
    out[~small] = np.exp(-zl) / frac
    return out


def _lerch_sum(u: np.ndarray, a: float) -> np.ndarray:
    """D_a(u) = sum over k >= 0 of g(k + a), g(x) = (1 - e^-ux) / x^2, for u > 0.

    The terms k < _HEAD_TERMS are added one by one, smallest first, onto the
    Euler-Maclaurin tail from A = _HEAD_TERMS + a: the integral of g from A,
    (1 - e^-uA)/A + u E1(uA), plus g(A)/2 and the B2, B4 and B6 corrections.
    Every 1 - e^-x goes through expm1, so a small u loses nothing to
    cancellation; the error is about 1e-15 relative for every u.
    """
    big_a = _HEAD_TERMS + a
    t = 1.0 / big_a
    m = -np.expm1(-u * big_a)
    e = np.exp(-u * big_a)
    tail = m * t + u * _exp_integral(u * big_a) + 0.5 * m * t * t
    for coef, n in _EM_CORRECTIONS:
        # -g^(n)(A) for odd n, by Leibniz' rule on x^-2 (1 - e^-ux)
        rest = sum(math.comb(n, j) * math.factorial(j + 1) * t**j * u**(n - j)
                   for j in range(n))
        tail = tail + coef * t * t * (math.factorial(n + 1) * t**n * m - e * rest)
    for k in range(_HEAD_TERMS - 1, -1, -1):
        x = k + a
        tail = tail - np.expm1(-x * u) / (x * x)
    return tail


def log_discriminants(conductors: Iterable[int]) -> np.ndarray:
    """log Delta = math.log(f * f) of every conductor f, squared exactly as a Python int."""
    return np.array([math.log(f * f) for f in conductors])


def gamma_terms(log_discs: np.ndarray, tf: TestFunctionPair) -> list[float]:
    """gamma_term at every log discriminant, computed as one numpy column.

    Every operation acts elementwise, so each value is bit for bit the
    one-label value.  A beta so small that the term overflows gives inf,
    without a warning.
    """
    with np.errstate(over="ignore"):
        u = 2.0 * tf.beta * log_discs  # U = 4 pi L beta
        pair = 2.0 * (_PSI_QUARTER + _lerch_sum(u, 0.25) / u)
        return ((pair - 2.0 * math.log(math.pi)) / (tf.beta * log_discs)).tolist()


def gamma_term(label: FieldLabel, tf: TestFunctionPair) -> float:
    """Rescaled archimedean term (1/2pi) integral f(L x) bracket(x) dx, in closed form.

    With L = log(Delta)/(2 pi), Re psi(a + it) = -gamma_E + integral_0^inf
    (e^-u - e^-au cos tu) / (1 - e^-u) du and Parseval turn the a = 1/4 term into an
    integral of fhat(u/(4 pi L)).  For the Fejer pair of support beta, with
    U = 4 pi L beta, expanding 1/(1 - e^-u) = sum_k e^-ku integrates it term
    by term:

        integral f(y) Re psi(a + iy/(2L)) dy = (1/beta) [psi(a) + D_a(U)/U],
        D_a(U) = sum_{k >= 0} (1 - e^-(k+a)U) / (k+a)^2.

    Twice that, less 2 log(pi)/beta, is divided by 2 pi L = log Delta.
    _lerch_sum gives D_a to about 1e-15 relative for every U > 0, so no beta
    needs a tolerance.  This is gamma_terms for one label.
    """
    return gamma_terms(log_discriminants([conductor_discriminant(label)[0]]), tf)[0]


# beta * W for the oracle's window [0, W]: a whole number, so sin(2 pi beta W) = 0
_ORACLE_PERIODS = 100


def gamma_term_quadrature(label: FieldLabel, tf: TestFunctionPair) -> float:
    """Direct-quadrature oracle for gamma_term.

    Integrates (1/pi L) f(y) bracket(y/L) over [0, W], W = _ORACLE_PERIODS/beta,
    and adds the analytic tail over y > W.  There f = (1 - cos wy) h0(y) with
    w = 2 pi beta, h0 = 1/(2 pi^2 beta^2 y^2), and the bracket is
    2 (log(y/(2 pi L)) + 2 B2(a) L^2/y^2) + O(y^-4), B2(a) = a^2 - a + 1/6, a = 1/4.
    The mean h0 * bracket integrates in closed form; the oscillating part
    keeps its first non-vanishing integration-by-parts term, h'(W)/w^2 with
    h = h0 * bracket, since sin(wW) = 0 (the remainder is O(W^-5 log W)).
    """
    _, disc = conductor_discriminant(label)
    big_l = math.log(disc) / TWO_PI
    beta = tf.beta
    width = _ORACLE_PERIODS / beta
    omega = TWO_PI * beta
    h0 = 1.0 / (2.0 * math.pi**2 * beta**2)

    def integrand(y):
        return tf.f(y) * _archimedean_bracket(y / big_l)

    scale = 1.0 / (math.pi * big_l)  # 2/(2 pi L): doubled for the even half
    body = refine_panels(integrand, 0.0, width, 1e-12 / scale, start_panels=2 * _ORACLE_PERIODS)
    log_w = math.log(width / (TWO_PI * big_l))
    a = 0.25
    mean = h0 * (2.0 * ((log_w + 1.0) / width
                        + 2.0 * (a * a - a + 1.0 / 6.0) * big_l**2 / (3.0 * width**3)))
    # h'(W) = h0 (bracket'(W) W - 2 bracket(W)) / W^3, bracket'(y) ~ 2 / y
    bracket_w = float(_archimedean_bracket(width / big_l))
    slope = h0 * (2.0 - 2.0 * bracket_w) / width**3
    return scale * (body + mean + slope / omega**2)


# -- the explicit-formula statistics ----------------------------------------------


def _primes_and_logs(bound: float) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The primes p <= bound, as floats, and math.log(p) for each."""
    primes = primes_up_to(int(bound))
    return primes, np.array(primes, dtype=float), np.array([math.log(p) for p in primes])


# terms per numpy pass of prime_sums and reference_statistics: their arrays
# stay near 128 kB, so a family's peak memory does not grow with its size
_TERMS_PER_PASS = 1 << 14


def prime_sums(family: Family, tf: TestFunctionPair) -> list[float]:
    """prime_sum of every row of `family`, from one sieve and one lambda_table.

    m log p ascends, so a field's kept p^m < Delta^beta are a prefix of the
    primes for each m, cut by np.searchsorted.  Many fields' terms are one
    numpy pass, with prime_sum's floating-point operations per term; a
    field's row, 0.0 past each prefix (no change to the exact sum), is one math.fsum.
    """
    if not family:
        return []
    log_discs = log_discriminants(family.conductor.tolist())
    cuts = tf.beta * log_discs
    primes, pf, logp = _primes_and_logs(math.exp(cuts.max()) + 1)
    lam = lambda_table(family, primes)
    ends = [np.searchsorted(m * logp, cuts) for m in (1, 2)]
    sums, step = [], max(1, _TERMS_PER_PASS // max(1, int(ends[0].max())))
    for rows in (slice(lo, lo + step) for lo in range(0, len(family), step)):
        kept = []
        for m, end in zip((1, 2), ends):
            w = int(end[rows].max())
            terms = (lam[rows, :w] * logp[:w] / np.sqrt(pf[:w] ** m)
                     * tf.fhat(m * logp[:w] / log_discs[rows, None]))
            kept.append(np.where(np.arange(w) < end[rows, None], terms, 0.0))
        sums += map(math.fsum, np.hstack(kept).tolist())
    return [2.0 / log_disc * s for log_disc, s in zip(log_discs.tolist(), sums)]


def prime_sum(label: FieldLabel, tf: TestFunctionPair) -> float:
    """(2/log Delta) sum over p^m < Delta^beta, m <= 2, of the lambda terms.

    Each term is lambda(p) log(p) / sqrt(p^m) * fhat(log(p^m) / log Delta).
    The terms are summed with math.fsum, which rounds the exact sum once, so
    the value is reproducible bit for bit whatever the order of the terms.
    This is prime_sums for one field, whose Family comes from
    fields.family_of: a label with D above 2^61 raises ValueError there.
    """
    return prime_sums(family_of([label]), tf)[0]


@dataclass(frozen=True)
class FamilySummary:
    """Averages over a family, with the per-field columns they reduce.

    gamma_term, prime_sum and total are float64 columns aligned with the
    family's rows; total = fhat(0) - prime_sum + gamma_term, elementwise.
    """

    count: int
    average: float
    t_statistic: float
    mean_gamma: float
    gamma_term: np.ndarray
    prime_sum: np.ndarray
    total: np.ndarray


def _discriminant_runs(family: Family) -> tuple[np.ndarray, np.ndarray]:
    """(first row, length) of every run of adjacent rows that share a discriminant.

    enumerate_family sorts its rows by conductor, so there every
    discriminant is one run.
    """
    f = family.conductor
    firsts = np.flatnonzero(np.concatenate(([True], f[1:] != f[:-1])))
    return firsts, np.diff(np.append(firsts, f.size))


def family_average(family: Family, tf: TestFunctionPair) -> FamilySummary:
    """Averages over `family`, such as enumerate_family(X).

    T, the average prime sum, is the symmetry-discriminating statistic.  The
    gamma term depends on nothing but the discriminant, so one gamma_terms
    batch computes it once per run of rows sharing a discriminant.  The
    per-field values stay numpy columns, so no object is built per field,
    and each is bit for bit its one-label value (gamma_term, prime_sum).
    The averages are compensated sums, so repeated runs are byte-identical.
    An empty family raises ValueError.
    """
    if not family:
        raise ValueError("the family is empty")
    firsts, lengths = _discriminant_runs(family)
    gammas = np.repeat(gamma_terms(log_discriminants(family.conductor[firsts].tolist()), tf),
                       lengths)
    sums = np.array(prime_sums(family, tf))
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats: inf or nan, silently
        totals = tf.fhat_at_0 - sums + gammas
    n = len(family)
    return FamilySummary(n, math.fsum(totals.tolist()) / n, math.fsum(sums.tolist()) / n,
                         math.fsum(gammas.tolist()) / n, gammas, sums, totals)


def reference_statistics(family: Family, tf: TestFunctionPair) -> dict[str, float]:
    """Model T for each symmetry type over `family`, truncated as prime_sum is.

    Substitutes the model means of lambda, which vanish at the odd powers, so
    only the p^2 < Delta^beta terms survive.  Their sum tends to f(0)/2 and T
    to -c f(0), c = _f0_weight(G), so each prediction is -2c times the square
    sum: 0 for U, the sum itself for Sp, its negative for O, SOeven and SOodd.
    A field's square sum depends on its discriminant alone, so it is summed
    once per run of rows sharing one, and repeated per row for the mean.
    An empty family raises ValueError.
    """
    if not family:
        raise ValueError("the family is empty")
    firsts, lengths = _discriminant_runs(family)
    log_discs = log_discriminants(family.conductor[firsts].tolist())
    _, pf, logp = _primes_and_logs(math.exp(tf.beta * log_discs.max() / 2) + 1)
    arg = 2.0 * logp
    ends = np.searchsorted(arg, tf.beta * log_discs)  # the squares p^2 < Delta^beta
    per_run, step = [], max(1, _TERMS_PER_PASS // max(1, int(ends.max())))
    for rows in (slice(lo, lo + step) for lo in range(0, len(firsts), step)):
        w = int(ends[rows].max())
        terms = (2.0 * logp[:w] / (pf[:w] * log_discs[rows, None])
                 * tf.fhat(arg[:w] / log_discs[rows, None]))
        per_run += map(math.fsum, np.where(np.arange(w) < ends[rows, None], terms, 0.0).tolist())
    square_sum = math.fsum(np.repeat(per_run, lengths).tolist()) / len(family)
    # 0.0 + prints 0.0, not -0.0, for U (-2c = -0.0) and for an empty sum
    return {G: 0.0 + -2.0 * _f0_weight(G) * square_sum for G in KERNELS}


@dataclass(frozen=True)
class Classification:
    kernel: str
    margin: float  # distance(second best) - distance(best), >= 0
    ambiguous: bool


def classify_symmetry(t_statistic: float, refs: dict[str, float]) -> Classification:
    """Nearest-prediction classifier over the reference map.

    Ties within 1e-12 are broken toward U when U is among the tied leaders,
    and flagged ambiguous.
    """
    dists = sorted((abs(t_statistic - refs[g]), i, g) for i, g in enumerate(KERNELS) if g in refs)
    best, second = dists[0], dists[1]
    margin = second[0] - best[0]
    ambiguous = margin < 1e-12
    kernel = best[2]
    if ambiguous:
        tied = {g for d, _, g in dists if d - best[0] < 1e-12}
        if "U" in tied:
            kernel = "U"
    return Classification(kernel, margin, ambiguous)
