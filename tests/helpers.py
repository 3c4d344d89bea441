"""Independent oracles the tests check the package against.

Everything here is deliberately naive: trial division, exhaustive subset
enumeration, dictionary-completion quadruple search.  Nothing is shared with
the implementations under test beyond the canonical output ordering, which
is part of the public contract being checked.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def trial_is_prime(n: int) -> bool:
    """Primality by trial division; fine up to ~1e13 in a test."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def trial_factor(n: int) -> list[int]:
    """Prime factors of n >= 1 with multiplicity, ascending."""
    out: list[int] = []
    m = n
    d = 2
    while d * d <= m:
        while m % d == 0:
            out.append(d)
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return out


def exhaustive_zero_subsum(values) -> bool:
    """Any proper nonempty subset summing to zero, over all 2^n - 2 subsets."""
    n = len(values)
    for size in range(1, n):
        for combo in itertools.combinations(range(n), size):
            if sum(values[i] for i in combo) == 0:
                return True
    return False


def canonical_signed(values) -> list[int]:
    """The signed array (+v, -v for each v) in the output order: |w| desc, w desc."""
    return sorted(
        [v for v in values] + [-v for v in values],
        key=lambda w: (-abs(w), -w),
    )


def quadruples_by_completion(values) -> list[tuple[int, int, int, int]]:
    """All canonical subsum-free vanishing quadruples over +-values.

    Three nested index loops over the signed array plus a dictionary lookup
    for the forced fourth element (which must sit at an index >= the third,
    so each sorted quadruple appears exactly once).
    """
    w = canonical_signed(values)
    m = len(w)
    pos = {v: i for i, v in enumerate(w)}
    out = []
    for a in range(m):
        wa = w[a]
        if wa <= 0:
            continue
        for b in range(a, m):
            wab = wa + w[b]
            for c in range(b, m):
                need = -(wab + w[c])
                d = pos.get(need)
                if d is None or d < c:
                    continue
                quad = (wa, w[b], w[c], need)
                if exhaustive_zero_subsum(quad):
                    continue
                out.append(quad)
    out.sort()
    return out


def quadruples_by_enumeration(values) -> list[tuple[int, int, int, int]]:
    """Same result by literally walking every 4-multiset of signed values."""
    out = []
    for quad in itertools.combinations_with_replacement(canonical_signed(values), 4):
        if quad[0] <= 0 or sum(quad) != 0:
            continue
        if exhaustive_zero_subsum(quad):
            continue
        out.append(quad)
    out.sort()
    return out


def products_over(primes, bound: int) -> list[int]:
    """All products prod(p**e) with every exponent in 0..bound, ascending."""
    vals = [1]
    for p in primes:
        vals = [v * p**e for v in vals for e in range(bound + 1)]
    return sorted(vals)


def relation_count_oracle(primes, bound: int) -> int:
    """Number of canonical relations over the primes at this exponent bound."""
    return len(quadruples_by_completion(products_over(primes, bound)))


def relation_rejection(primes, terms, values) -> str | None:
    """The check that refuses four (sign, exponents) terms and their values.

    None when they form a Relation.  The constructor's checks written out
    naively, in its order: four of each; per term, exponents nonnegative,
    one per prime, and its value built as a Fraction one prime power at a
    time; a zero total; no vanishing proper subset over all 14 of them; a
    tuple in the canonical order (|v| descending, ties positive first) with
    a positive head; int values.  Returns a fragment of the message.
    """
    if len(terms) != 4 or len(values) != 4:
        return "exactly four terms"
    for (sign, exps), v in zip(terms, values):
        if any(e < 0 for e in exps):
            return "exponents must be nonnegative"
        if len(exps) != len(primes):
            return "exponent vector length does not match"
        x = Fraction(sign)
        for p, e in zip(primes, exps):
            x *= Fraction(p) ** e
        if x != v:
            return f"does not evaluate to {v}"
    if sum(values) != 0:
        return "must sum to zero"
    if exhaustive_zero_subsum(values):
        return "vanishing proper subsum"
    canonical = sorted(values, key=lambda w: (-abs(w), -w))
    if not isinstance(values, tuple) or list(values) != canonical or values[0] < 0:
        return "not in canonical form"
    if not all(isinstance(v, int) for v in values):
        return "must be ints"
    return None


def unit_scan_oracle(primes, bound: int) -> list[Fraction]:
    """Signed units with exponents in [-bound, bound], in the documented scan order.

    Exponents widen 0, 1, -1, 2, -2, ...; exponent vectors run
    lexicographically in that order, each magnitude before its negative.
    """
    order = [0] + [e for k in range(1, bound + 1) for e in (k, -k)]
    out = []
    for exps in itertools.product(order, repeat=len(primes)):
        mag = Fraction(1)
        for p, e in zip(primes, exps):
            mag *= Fraction(p) ** e
        out += [mag, -mag]
    return out


def is_unit_oracle(q: Fraction, primes) -> bool:
    """Nonzero q is a unit iff dividing the primes out of its numerator and
    of its denominator leaves 1 in each."""
    if q == 0:
        raise ValueError("0 is not a candidate unit")
    for n in (q.numerator, q.denominator):
        m = abs(n)
        for p in primes:
            while m % p == 0:
                m //= p
        if m != 1:
            return False
    return True


def zieve_oracle(primes, bound: int) -> tuple[Fraction, Fraction] | None:
    """The unit-pair scan in Fraction arithmetic: the first (u, v) in scan
    order with u + 1, u + v and 1 + u + v nonzero, (u + v) / (u + 1) a unit
    and 1 + u + v a unit."""
    units = unit_scan_oracle(primes, bound)
    for u in units:
        if u == -1:
            continue
        for v in units:
            if u + v == 0 or 1 + u + v == 0:
                continue
            if is_unit_oracle((u + v) / (u + 1), primes) and is_unit_oracle(1 + u + v, primes):
                return u, v
    return None


def clique_oracle(primes, k: int, bound: int) -> tuple[Fraction, ...] | None:
    """The first unit-difference clique 0, 1, c3, ..., ck over the scan's
    units other than 1, by depth-first search in scan order, in Fraction
    arithmetic."""
    candidates = [u for u in unit_scan_oracle(primes, bound) if u != 1]

    def extend(chosen, start):
        if len(chosen) == k:
            return tuple(chosen)
        for idx in range(start, len(candidates)):
            c = candidates[idx]
            if c not in chosen and all(is_unit_oracle(c - x, primes) for x in chosen):
                hit = extend(chosen + [c], idx + 1)
                if hit is not None:
                    return hit
        return None

    return extend([Fraction(0), Fraction(1)], 0)


def is_member_oracle(q: Fraction, primes) -> bool:
    """q lies in Z[1/p : p in primes] iff every prime factor of its reduced
    denominator, found by trial division, is one of the primes."""
    return set(trial_factor(q.denominator)) <= set(primes)


def z2_obstruction_oracle(bound: int) -> bool:
    """The Z[1/2] four-clique scan in Fraction arithmetic: True iff no
    exponent triple in [-bound, bound] makes 2^k1 + 2^k2, 2^k2 + 2^k3 and
    2^k1 + 2^k2 + 2^k3 all units."""
    rng = range(-bound, bound + 1)
    for k1, k2, k3 in itertools.product(rng, repeat=3):
        a, b, c = (Fraction(2) ** k for k in (k1, k2, k3))
        if all(is_unit_oracle(x, (2,)) for x in (a + b, b + c, a + b + c)):
            return False
    return True


def lagrange_cubic_oracle(xs) -> list[Fraction]:
    """Coefficients, lowest degree first, of the cubic through (x_i, x_{i+1 mod 4}).

    Lagrange's form: the sum over i of x_{i+1} * prod_{j != i} (x - x_j) / (x_i - x_j),
    each basis product expanded one linear factor at a time.
    """
    xs = [Fraction(x) for x in xs]
    coeffs = [Fraction(0)] * 4
    for i, xi in enumerate(xs):
        basis, denom = [Fraction(1)], Fraction(1)
        for j, xj in enumerate(xs):
            if j != i:
                # basis * (x - xj): new[d] = basis[d - 1] - xj * basis[d]
                basis = [lo - xj * hi for lo, hi in zip([0, *basis], [*basis, 0])]
                denom *= xi - xj
        for d, c in enumerate(basis):
            coeffs[d] += xs[(i + 1) % 4] * c / denom
    return coeffs


def horner_oracle(coefficients, x) -> Fraction:
    """p(x) by Horner's rule in Fraction arithmetic, coefficients lowest degree first."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(coefficients):
        acc = acc * x + Fraction(c)
    return acc


def orbit_oracle(coefficients, start, max_iter: int, bit_ceiling: int):
    """(outcome, preperiod, period, iterations) of x -> p(x) iterated from start.

    Every iterate is a Fraction, kept in a dict of first visits; an iterate
    whose numerator or denominator has more than bit_ceiling bits ends the
    run as "escaping".
    """
    x = Fraction(start)
    seen = {x: 0}
    for i in range(1, max_iter + 1):
        x = horner_oracle(coefficients, x)
        if max(x.numerator.bit_length(), x.denominator.bit_length()) > bit_ceiling:
            return "escaping", None, None, i
        if x in seen:
            return "periodic", seen[x], i - seen[x], i
        seen[x] = i
    return "no_cycle", None, None, max_iter
