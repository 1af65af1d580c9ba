"""One-level density of low-lying zeros via the explicit formula.

For the field labeled by D, the density statistic against an even test
function f with compactly supported transform is

    total = integral(f)  -  prime_sum  +  gamma_term,

where the prime sum carries lambda_D(p^m) log(p) / sqrt(p^m) weighted by
fhat(log p^m / log Delta) and the gamma term is the archimedean digamma
integral rescaled by L = log(Delta) / (2 pi).  The prime sum here keeps the
m = 1, 2 terms, the ones whose family average discriminates the symmetry
type; p^m with m >= 3 lie below the square-root barrier and contribute a
deterministic drift of order 1/log(Delta) that carries no character
information (dropping them changes `total` by less than
2 * sum_{p^m < Delta^beta, m >= 3} 2 log p / sqrt(p^m) / log Delta).

Family averages over discriminants in [X, 2X] are compared against the
Katz-Sarnak kernels

    U: 1    Sp: 1 - S(t)    O: 1 + delta_0/2    SO(even): 1 + S(t)
    SO(odd): 1 + delta_0 - S(t),      S(t) = sin(2 pi t) / (2 pi t),

through the T statistic (average prime sum): a unitary family leaves T
near 0, symplectic/orthogonal ones push it to +-sum over p^2 terms.

Everything is deterministic: fixed summation orders, compensated sums, and
panel Gauss-Legendre quadrature with explicit refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ._primes import primes_up_to
from .fields import FieldLabel, FieldRecord, conductor_discriminant, enumerate_family
from .lfunctions import KUMMER, lambda_coefficient

TWO_PI = 2.0 * math.pi
KERNELS = ("U", "Sp", "O", "SOeven", "SOodd")


# -- test-function pairs --------------------------------------------------------


@dataclass(frozen=True)
class TestFunctionPair:
    """Even f and its transform fhat, supported in [-beta, beta].

    Convention: fhat(u) = integral f(x) exp(-2 pi i x u) dx, so the prime-sum
    arguments log(p^m)/log(Delta) carry no stray 2 pi.  Callables must accept
    numpy arrays.
    """

    beta: float
    f: Callable
    fhat: Callable
    f_at_0: float
    fhat_at_0: float


def fejer_pair(beta: float) -> TestFunctionPair:
    """f(x) = (sin(pi beta x) / (pi beta x))^2 with triangular transform.

    f(0) = 1, fhat(0) = 1/beta, and fhat(u) = (1/beta) max(0, 1 - |u|/beta).
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")

    def f(x):
        return np.sinc(beta * np.asarray(x)) ** 2

    def fhat(u):
        return np.maximum(0.0, 1.0 - np.abs(np.asarray(u)) / beta) / beta

    return TestFunctionPair(beta, f, fhat, 1.0, 1.0 / beta)


def combine_pairs(coeffs: Sequence[float], pairs: Sequence[TestFunctionPair]) -> TestFunctionPair:
    """Pointwise linear combination sum(c_i * pair_i); beta is the largest."""

    def f(x):
        return sum(c * p.f(x) for c, p in zip(coeffs, pairs))

    def fhat(u):
        return sum(c * p.fhat(u) for c, p in zip(coeffs, pairs))

    beta = max(p.beta for p in pairs)
    f0 = sum(c * p.f_at_0 for c, p in zip(coeffs, pairs))
    fh0 = sum(c * p.fhat_at_0 for c, p in zip(coeffs, pairs))
    return TestFunctionPair(beta, f, fhat, f0, fh0)


# -- quadrature helpers ---------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def panel_gauss(func: Callable, a: float, b: float, panels: int) -> float:
    """Composite 20-point Gauss-Legendre over equal panels of [a, b]."""
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1] - edges[0])
    x = mid + half * _GL_NODES[None, :]
    vals = func(x.ravel()).reshape(x.shape)
    return float(half * np.sum(vals @ _GL_WEIGHTS))


def refine_panels(func: Callable, a: float, b: float, tol: float,
                  start_panels: int, max_doublings: int = 10) -> float:
    prev = panel_gauss(func, a, b, start_panels)
    panels = start_panels
    for _ in range(max_doublings):
        panels *= 2
        cur = panel_gauss(func, a, b, panels)
        if abs(cur - prev) < tol:
            return cur
        prev = cur
    raise RuntimeError(f"quadrature did not converge to {tol} on [{a}, {b}]")


# -- Katz-Sarnak kernels ---------------------------------------------------------


def kernel_value(G: str, t) -> tuple[float, float]:
    """(smooth part at t, point-mass coefficient at 0) for the kernel W(G).

    The removable singularity of sin(2 pi t)/(2 pi t) at t = 0 evaluates to 1.
    """
    s = np.sinc(2.0 * np.asarray(t, dtype=float))
    if G == "U":
        smooth, mass = np.ones_like(s), 0.0
    elif G == "Sp":
        smooth, mass = 1.0 - s, 0.0
    elif G == "O":
        smooth, mass = np.ones_like(s), 0.5
    elif G == "SOeven":
        smooth, mass = 1.0 + s, 0.0
    elif G == "SOodd":
        smooth, mass = 1.0 - s, 1.0
    else:
        raise ValueError(f"unknown kernel {G!r}")
    if np.ndim(t) == 0:
        return float(smooth), mass
    return smooth, mass


def _integral_fhat_window(tf: TestFunctionPair) -> float:
    """integral of fhat over [-1, 1]; exact for support inside the window."""
    b = min(tf.beta, 1.0)
    return panel_gauss(tf.fhat, -b, 0.0, 64) + panel_gauss(tf.fhat, 0.0, b, 64)


def kernel_integral(G: str, tf: TestFunctionPair) -> float:
    """integral f(t) W(G)(t) dt computed on the transform side.

    For supp(fhat) inside (-1, 1): U -> fhat(0); Sp -> fhat(0) - I/2;
    SO(even) -> fhat(0) + I/2; O -> fhat(0) + f(0)/2;
    SO(odd) -> fhat(0) + f(0) - I/2, with I the fhat integral over [-1, 1].
    """
    if not tf.beta < 1.0:
        raise ValueError("transform side needs supp(fhat) inside (-1, 1)")
    i0 = tf.fhat_at_0
    ihat = _integral_fhat_window(tf)
    if G == "U":
        return i0
    if G == "Sp":
        return i0 - 0.5 * ihat
    if G == "SOeven":
        return i0 + 0.5 * ihat
    if G == "O":
        return i0 + 0.5 * tf.f_at_0
    if G == "SOodd":
        return i0 + tf.f_at_0 - 0.5 * ihat
    raise ValueError(f"unknown kernel {G!r}")


def kernel_integral_quadrature(G: str, tf: TestFunctionPair,
                               half_width: float = 2.0e4) -> float:
    """Direct-quadrature oracle for kernel_integral.

    Integrates f * W over [-T, T] by composite Gauss-Legendre and adds the
    analytic tail of the slowly-decaying f * 1 part, 2/(pi^2 beta^2 T) per
    pair of tails; the oscillatory remainder is O(T^-2).
    """

    def integrand(t):
        smooth, _ = kernel_value(G, t)
        return tf.f(t) * smooth

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


def _archimedean_bracket(x: np.ndarray) -> np.ndarray:
    """2 G(1/2+ix) + 2 G(1/2-ix) + G(3/2+ix) + G(3/2-ix), G = Gamma_R'/Gamma_R.

    Gamma_R(s) = pi^(-s/2) Gamma(s/2) gives G(s) = -log(pi)/2 + psi(s/2)/2;
    conjugate pairing makes the sum real.
    """
    x = np.asarray(x, dtype=float)
    half_ix = 0.5j * x
    val = 2.0 * _digamma_array(0.25 + half_ix).real + _digamma_array(0.75 + half_ix).real
    return val - 3.0 * math.log(math.pi)


def gamma_term(label: FieldLabel, tf: TestFunctionPair, tol: float = 1e-10) -> float:
    """Rescaled archimedean term: (1/2pi) integral f(L x) * bracket(x) dx.

    Substituting y = L x with L = log(Delta)/(2 pi), integrates over the
    window |y| <= 50/beta where the Fejer-type tail is negligible; the
    integrand is even, so only y >= 0 is computed.  Raises if the panel
    refinement does not stabilize to `tol`.
    """
    _, disc = conductor_discriminant(label)
    big_l = math.log(disc) / TWO_PI
    window = 50.0 / tf.beta

    def integrand(y):
        return tf.f(y) * _archimedean_bracket(y / big_l)

    scale = 1.0 / (math.pi * big_l)  # 2/(2 pi L): doubled for the even half
    body = refine_panels(integrand, 0.0, window, tol / scale,
                         start_panels=max(64, int(window)))
    return scale * body


# -- the explicit-formula statistics ----------------------------------------------


def prime_sum(label: FieldLabel, tf: TestFunctionPair, mode: str = KUMMER) -> float:
    """(2/log Delta) sum over p^m < Delta^beta, m <= 2, of the lambda terms.

    The terms are summed with math.fsum, which rounds the exact sum once, so
    the value is reproducible bit for bit whatever the order of the terms.
    """
    _, disc = conductor_discriminant(label)
    log_disc = math.log(disc)
    cut = tf.beta * log_disc
    terms: list[float] = []
    for p in primes_up_to(int(math.exp(cut)) + 1):
        logp = math.log(p)
        if logp >= cut:
            continue
        lam = lambda_coefficient(p, 1, label, mode)  # lambda(p) = lambda(p^2)
        if lam:
            for m in (1, 2):
                arg = m * logp
                if arg >= cut:
                    break
                terms.append(lam * logp / math.sqrt(p**m) * float(tf.fhat(arg / log_disc)))
    return 2.0 / log_disc * math.fsum(terms)


@dataclass(frozen=True)
class DensityBreakdown:
    label: FieldLabel
    archimedean: float
    gamma_term: float
    prime_sum: float
    total: float


def one_level_density(label: FieldLabel, tf: TestFunctionPair,
                      mode: str = KUMMER) -> DensityBreakdown:
    """Per-field breakdown; total = archimedean - prime_sum + gamma_term."""
    arch = tf.fhat_at_0
    gam = gamma_term(label, tf)
    ps = prime_sum(label, tf, mode)
    return DensityBreakdown(label, arch, gam, ps, arch - ps + gam)


@dataclass(frozen=True)
class FamilySummary:
    count: int
    average: float
    t_statistic: float
    mean_gamma: float
    breakdowns: tuple[DensityBreakdown, ...]


def family_average(X: int, tf: TestFunctionPair, mode: str = KUMMER,
                   records: Sequence[FieldRecord] | None = None) -> FamilySummary:
    """Averages over the family with discriminant in [X, 2X].

    T, the average prime sum, is the symmetry-discriminating statistic; the
    gamma terms are cached per discriminant (they depend on nothing else).
    The reduction runs in (conductor, D) order, so repeated runs are
    byte-identical.
    """
    if records is None:
        records = enumerate_family(X)
    if not records:
        raise ValueError(f"no fields with discriminant in [{X}, {2 * X}]")
    gamma_cache: dict[int, float] = {}
    rows = []
    for rec in records:
        gam = gamma_cache.get(rec.discriminant)
        if gam is None:
            gam = gamma_cache[rec.discriminant] = gamma_term(rec.label, tf)
        ps = prime_sum(rec.label, tf, mode)
        arch = tf.fhat_at_0
        rows.append(DensityBreakdown(rec.label, arch, gam, ps, arch - ps + gam))
    n = len(rows)
    avg = math.fsum(r.total for r in rows) / n
    t_stat = math.fsum(r.prime_sum for r in rows) / n
    mean_gamma = math.fsum(r.gamma_term for r in rows) / n
    return FamilySummary(n, avg, t_stat, mean_gamma, tuple(rows))


def reference_statistics(X: int, tf: TestFunctionPair,
                         records: Sequence[FieldRecord] | None = None) -> dict[str, float]:
    """Model T for each symmetry type under the same truncation as prime_sum.

    Substitutes the model means of lambda: U gives 0 at every prime power;
    Sp gives +1 at the squares (odd powers 0); SO(even), SO(odd), and O give
    -1 at the squares.  Only the p^2 < Delta^beta terms survive, so the
    U prediction is exactly 0 and the others are +-(the same square sum).
    """
    if records is None:
        records = enumerate_family(X)
    if not records:
        raise ValueError(f"no fields with discriminant in [{X}, {2 * X}]")
    per_field = []
    for rec in records:
        log_disc = math.log(rec.discriminant)
        cut = tf.beta * log_disc
        acc = []
        for p in primes_up_to(int(math.exp(cut / 2)) + 1):
            arg = 2.0 * math.log(p)
            if arg >= cut:
                continue
            acc.append(2.0 * math.log(p) / (p * log_disc) * float(tf.fhat(arg / log_disc)))
        per_field.append(math.fsum(acc))
    square_sum = math.fsum(per_field) / len(per_field)
    return {"U": 0.0, "Sp": square_sum, "O": -square_sum,
            "SOeven": -square_sum, "SOodd": -square_sum}


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
