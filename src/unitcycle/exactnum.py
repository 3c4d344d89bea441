"""Exact integer helpers: primality, next-prime, factoring over fixed prime sets.

Everything here runs on Python's unbounded integers. No floating point is
used anywhere; comparisons that look analytic elsewhere in the package are
reduced to the integer predicates implemented in this module.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

# Below this bound the fixed witness set is a proven deterministic test.
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Above the bound: 64 strong-pseudoprime rounds, error probability < 2**-128.
_RANDOM_ROUNDS = 64

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _strong_round(n: int, d: int, s: int, a: int) -> bool:
    """One Miller-Rabin round with base a; True means n is still possibly prime."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int) -> bool:
    """Primality test, deterministic for n below 3.3e24.

    Larger inputs get 64 rounds with bases drawn from an RNG seeded by n,
    so repeated calls agree.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    if n < _DETERMINISTIC_BOUND:
        witnesses: Sequence[int] = _DETERMINISTIC_WITNESSES
    else:
        rng = random.Random(n)
        witnesses = [rng.randrange(2, n - 1) for _ in range(_RANDOM_ROUNDS)]
    return all(_strong_round(n, d, s, a) for a in witnesses)


def require_prime(*candidates: int) -> None:
    """Raise ValueError naming the first candidate that is not prime."""
    for p in candidates:
        if not is_probable_prime(p):
            raise ValueError(f"{p} is not prime")


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n.  Requires n >= 1."""
    if n < 1:
        raise ValueError("next_prime requires n >= 1")
    if n == 1:
        return 2
    c = n + 1 + (n & 1)  # first odd candidate above n
    while not is_probable_prime(c):
        c += 2
    return c


def first_primes(count: int) -> tuple[int, ...]:
    """The first `count` primes, in increasing order."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    out: list[int] = []
    p = 1
    while len(out) < count:
        p = next_prime(p)
        out.append(p)
    return tuple(out)


def factor_over(n: int, primes: Sequence[int]) -> tuple[list[int], int]:
    """Split n as sign * prod(primes[i]**e[i]) * cofactor.

    The cofactor is coprime to every listed prime; the sign is dropped.
    The primes must be distinct. n == 0 is rejected.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    m = abs(n)
    exps: list[int] = []
    for p in primes:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        exps.append(e)
    return exps, m


def cofactor_over(n: int, primes: Sequence[int]) -> int:
    """The cofactor of factor_over(n, primes): |n| with the listed primes divided out.

    For hot loops, the primes are not checked: they must be distinct.
    n == 0 is rejected.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    m = abs(n)
    for p in primes:
        while m % p == 0:
            m //= p
    return m


def radical(values: Sequence[int], primes: Sequence[int]) -> int:
    """Product of the listed primes that divide at least one of the values.

    Every value must factor completely over `primes`: a nontrivial cofactor
    would need general-purpose factorization, which this package avoids.
    """
    used: set[int] = set()
    for v in values:
        exps, cof = factor_over(v, primes)
        if cof != 1:
            raise ValueError(
                f"{v} has a prime factor outside {list(primes)} (cofactor {cof})"
            )
        used.update(p for p, e in zip(primes, exps) if e > 0)
    out = 1
    for p in used:
        out *= p
    return out


# smallest_prime_factor trial-divides by every d below this bound.
_TRIAL_LIMIT = 1000


def _rho_divisor(n: int) -> int:
    """A divisor 1 < d < n of the odd composite n: Pollard's rho, Brent's variant.

    Deterministic: the polynomials x^2 + c are tried for c = 1, 2, ... from
    the start x = 2 until one splits n.
    """
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # The batched product passed through 0 mod n; step one at a time.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def smallest_prime_factor(n: int) -> int:
    """Smallest prime factor of n >= 2: n itself when n is prime.

    Trial division finds a factor below _TRIAL_LIMIT.  Past it, Pollard's
    rho splits n and each part is searched the same way, so the smaller of
    the two answers is the smallest prime factor.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    for d in (2, *range(3, _TRIAL_LIMIT, 2)):
        if d * d > n:
            return n
        if n % d == 0:
            return d
    if is_probable_prime(n):
        return n
    d = _rho_divisor(n)
    return min(smallest_prime_factor(d), smallest_prime_factor(n // d))
