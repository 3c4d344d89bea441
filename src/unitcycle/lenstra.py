"""Unit-difference cliques and the length-divisibility facts they control.

A clique of size k is a set of ring elements whose pairwise differences are
all units; translation and unit scaling let us pin x1 = 0, x2 = 1, after
which every further element must itself be a unit differing from 1 (and from
the other chosen elements) by a unit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .backends import SearchTooLarge, resolve_ceiling
from .exactnum import cofactor_over
from .sring import InversionSet, is_unit, json_array, scaled_unit_scan, unit_count


@dataclass(frozen=True)
class CliqueWitness:
    inversion_set: InversionSet
    elements: tuple[Fraction, ...]

    def verify(self) -> bool:
        """Recheck distinctness and every pairwise unit difference."""
        if len(set(self.elements)) != len(self.elements):
            return False
        return all(
            is_unit(b - a, self.inversion_set)
            for a, b in itertools.combinations(self.elements, 2)
        )

    def to_json_dict(self) -> dict:
        return {
            "inversion_set": list(self.inversion_set.primes),
            "elements": [str(x) for x in self.elements],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "CliqueWitness":
        return cls(
            InversionSet(json_array(d, "inversion_set")),
            tuple(Fraction(x) for x in json_array(d, "elements")),
        )


def unit_difference_clique(
    s: InversionSet, k: int, bound: int, *, ceiling: int | None = None
) -> CliqueWitness | None:
    """First unit-difference clique of size k with exponents within the bound.

    Normalizes x1 = 0, x2 = 1 and extends in deterministic scan order, so the
    returned witness is minimal for that order.  Returns None when the search
    space is exhausted.
    """
    if k < 2:
        raise ValueError("a clique needs k >= 2")
    if bound < 0:
        raise ValueError("exponent bound must be >= 0")
    base = (Fraction(0), Fraction(1))
    if k == 2:
        return CliqueWitness(s, base)
    # The scan holds 1 exactly once, and 1 is already x2.
    n_candidates = unit_count(s, bound) - 1
    if math.comb(n_candidates, k - 2) > resolve_ceiling(ceiling):
        raise SearchTooLarge(
            f"C({n_candidates}, {k - 2}) extensions exceed the configured ceiling"
        )
    # With D = prod(p**bound), each candidate c is the int D*c, and c - x is
    # a unit iff D*c - D*x has S-free cofactor 1.
    d, scaled = scaled_unit_scan(s, bound)
    primes = s.primes
    candidates = [c for c in scaled if c != d]

    def extend(chosen: list[int], start: int) -> list[int] | None:
        if len(chosen) == k:
            return chosen
        for idx in range(start, len(candidates)):
            c = candidates[idx]
            if all(c != x and cofactor_over(c - x, primes) == 1 for x in chosen):
                chosen.append(c)
                hit = extend(chosen, idx + 1)
                if hit is not None:
                    return hit
                chosen.pop()
        return None

    hit = extend([0, d], 0)
    if hit is None:
        return None
    return CliqueWitness(s, tuple(Fraction(x, d) for x in hit))


def z2_four_clique_obstruction(bound: int) -> bool:
    """Exhaustive check that Z[1/2] has no 4-clique with exponents in [-bound, bound].

    Order a hypothetical clique x1 > x2 > x3 > x4; the consecutive differences
    are then positive units 2^k1, 2^k2, 2^k3, so the remaining differences are

        x1-x3 = 2^k1 + 2^k2,   x2-x4 = 2^k2 + 2^k3,   x1-x4 = 2^k1 + 2^k2 + 2^k3.

    The obstruction holds when no exponent triple makes all three of those
    units (2^a + 2^b is a unit only for a = b, and then the three-term sum is
    3 * 2^a, never a unit).
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    # With D = 2**bound, each 2**k is the int 2**(k + bound); a sum of them
    # is a unit iff its odd part is 1.
    powers = [2**e for e in range(2 * bound + 1)]
    for a in powers:
        for b in powers:
            if cofactor_over(a + b, (2,)) != 1:
                continue
            for c in powers:
                if cofactor_over(b + c, (2,)) == 1 and cofactor_over(a + b + c, (2,)) == 1:
                    return False
    return True


def is_b_smooth(n: int, b: int) -> bool:
    """True iff every prime factor of n is <= b.  Requires n >= 1."""
    if n < 1:
        raise ValueError("smoothness is defined for n >= 1")
    if b < 1:
        raise ValueError("bound must be >= 1")
    m = n
    d = 2
    while d <= b and d * d <= m:
        while m % d == 0:
            m //= d
        d += 1 if d == 2 else 2
    if m == 1:
        return True
    if d * d > m:  # m is prime here
        return m <= b
    return False  # every remaining factor exceeds b


def z2_admissible_cycle_length(k: int) -> bool:
    """Cycle lengths possible over Z[1/2] are exactly the 3-smooth integers."""
    if k < 1:
        raise ValueError("cycle length must be >= 1")
    return is_b_smooth(k, 3)
