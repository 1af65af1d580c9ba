"""Rational-prime utilities: sieves, deterministic primality, factorization.

Everything here is deterministic; no randomized primality.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_k, the least composite that is a strong probable prime to each of the
# first k bases, for k = 1..12 (Sorenson, Webster, Math. Comp. 86 (2017), and
# the earlier values they cite): below psi_k the first k bases are a proof.
# psi_8 = psi_7 and psi_11 = psi_10 = psi_9.
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
        3825123056546413051, 318665857834031151167461)
MR_PROOF_BOUND = 3317044064679887385961981  # psi_13, which passes every base


def prime_sieve(n: int) -> np.ndarray:
    """Boolean array s of length n + 1 (at least 0) with s[k] true exactly for prime k."""
    sieve = np.ones(max(n + 1, 0), dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(max(n, 0)) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return sieve


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, ascending."""
    return np.flatnonzero(prime_sieve(n)).tolist()


def smallest_factor_sieve(n: int) -> np.ndarray:
    """spf[k] = smallest prime factor of k, for 0 <= k <= n (spf[0] = spf[1] = 0)."""
    spf = np.zeros(max(n + 1, 0), dtype=np.int64)
    # descending, so the smallest prime dividing k is the last to write spf[k]
    for p in np.flatnonzero(prime_sieve(math.isqrt(max(n, 0))))[::-1].tolist():
        spf[p * p :: p] = p
    unmarked = np.flatnonzero(spf == 0)[2:]  # the primes, after 0 and 1
    spf[unmarked] = unmarked
    return spf


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first k bases 2, 3, ..., 41, with psi_(k-1) <= n < psi_k.

    That shortest proven prefix (_PSI) makes the answer exact at the least
    cost: n < 2047 takes base 2 alone, n < 1373653 bases 2 and 3.  ValueError
    from MR_PROOF_BOUND = psi_13 on, where no prefix of the 13 bases proves.
    """
    if n >= MR_PROOF_BOUND:
        raise ValueError(f"--primes takes primes below {MR_PROOF_BOUND}; {n} is too large")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[:bisect_right(_PSI, n) + 1]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine for the desk-scale inputs here."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out

