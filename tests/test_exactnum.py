import random

import pytest

from helpers import trial_is_prime
from unitcycle.exactnum import (
    cofactor_over,
    factor_over,
    first_primes,
    is_probable_prime,
    next_prime,
    radical,
    smallest_prime_factor,
)


class TestIsProbablePrime:
    def test_carmichael_number_rejected(self):
        assert is_probable_prime(561) is False

    def test_agrees_with_trial_division_small(self):
        for n in range(-3, 2000):
            assert is_probable_prime(n) == trial_is_prime(n), n

    def test_agrees_with_trial_division_random(self):
        rng = random.Random(1789)
        for _ in range(200):
            n = rng.randrange(2, 10**12)
            assert is_probable_prime(n) == trial_is_prime(n), n

    def test_large_mersenne_prime(self):
        # 2^89 - 1 is prime and sits above the deterministic-witness bound,
        # exercising the seeded-random witness path.
        assert is_probable_prime(2**89 - 1) is True

    def test_large_semiprime_rejected(self):
        p, q = 10000000000037, 10000000000051
        assert trial_is_prime(p) and trial_is_prime(q)
        assert is_probable_prime(p * q) is False

    def test_deterministic_above_bound(self):
        n = 2**89 - 1
        assert is_probable_prime(n) == is_probable_prime(n)


class TestNextPrime:
    def test_examples(self):
        assert next_prime(7) == 11
        assert next_prime(255) == 257
        assert next_prime(15) == 17
        assert next_prime(1) == 2
        assert next_prime(2) == 3

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            next_prime(0)

    def test_interval_is_prime_free(self):
        rng = random.Random(21)
        for _ in range(50):
            n = rng.randrange(1, 10**6)
            p = next_prime(n)
            assert trial_is_prime(p)
            assert all(not trial_is_prime(m) for m in range(n + 1, p))


def test_first_primes():
    assert first_primes(0) == ()
    assert first_primes(10) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    with pytest.raises(ValueError):
        first_primes(-1)


class TestFactorOver:
    def test_examples(self):
        assert factor_over(45, [3, 5]) == ([2, 1], 1)
        assert factor_over(35, [5]) == ([1], 7)
        assert factor_over(1, [2, 3]) == ([0, 0], 1)

    def test_sign_dropped(self):
        assert factor_over(-45, [3, 5]) == ([2, 1], 1)

    def test_empty_prime_list(self):
        assert factor_over(12, []) == ([], 12)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factor_over(0, [2])

    def test_rejects_duplicate_primes(self):
        with pytest.raises(ValueError):
            factor_over(8, [2, 2])

    def test_reconstruction_property(self):
        rng = random.Random(33)
        primes = (2, 3, 5, 7, 11)
        for _ in range(200):
            n = rng.randrange(1, 10**9) * rng.choice((1, -1))
            exps, cof = factor_over(n, primes)
            rebuilt = cof
            for p, e in zip(primes, exps):
                rebuilt *= p**e
            assert rebuilt == abs(n)
            for p in primes:
                assert cof % p != 0

    def test_cofactor_over_is_the_cofactor(self):
        rng = random.Random(34)
        for _ in range(200):
            primes = rng.sample((2, 3, 5, 7, 11, 13), rng.randrange(0, 4))
            n = rng.randrange(1, 10**9) * rng.choice((1, -1))
            assert cofactor_over(n, primes) == factor_over(n, primes)[1]
        with pytest.raises(ValueError, match="cannot factor 0"):
            cofactor_over(0, (2, 3))


class TestRadical:
    def test_examples(self):
        assert radical([1, 1, 1, -3], [3]) == 3
        assert radical([7, -1, -1, -5], [5, 7]) == 35
        assert radical([1, -1], [2]) == 1

    def test_unused_prime_excluded(self):
        assert radical([4, -8], [2, 3]) == 2

    def test_rejects_outside_factor(self):
        with pytest.raises(ValueError):
            radical([7, -1], [5])


def test_smallest_prime_factor():
    assert smallest_prime_factor(2) == 2
    assert smallest_prime_factor(35) == 5
    assert smallest_prime_factor(97) == 97
    assert smallest_prime_factor(2**31 - 1) == 2**31 - 1
    with pytest.raises(ValueError):
        smallest_prime_factor(1)


def test_smallest_prime_factor_without_a_small_factor():
    # Trial division up to the smaller factor would take about 5 * 10^11 steps.
    assert smallest_prime_factor(1000000000039 * 1000000000061) == 1000000000039
    assert smallest_prime_factor(1000000000061 * 1000000000039**2) == 1000000000039
    assert smallest_prime_factor(1009**3 * 1013) == 1009


def test_smallest_prime_factor_of_a_large_prime():
    # Trial division up to the square root would take about 5 * 10^14 steps.
    p = next_prime(10**30)
    assert smallest_prime_factor(p) == p
