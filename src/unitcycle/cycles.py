"""Cubic interpolation of 4-cycles, cycle verification, orbits, unit criteria.

All polynomial arithmetic is exact over Fraction coefficients.  A 4-cycle
witness couples a ring, four pairwise distinct points, and the unique cubic
mapping each point to the next (cyclically); witnesses built here are always
re-checkable with verify_cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from .backends import SearchTooLarge, resolve_ceiling
from .exactnum import cofactor_over, smallest_prime_factor
from .sring import InversionSet, is_member, json_array, scaled_unit_scan, unit_count

Rational = Union[int, Fraction]

BIT_CEILING = 4096


class RingMembershipError(ValueError):
    """A rational fell outside Z[1/p : p in S]; carries the smallest bad prime."""

    def __init__(self, value: Fraction, bad_prime: int, role: str):
        self.value = value
        self.bad_prime = bad_prime
        self.role = role
        super().__init__(
            f"{role} {value} is not in the ring (denominator has prime factor {bad_prime})"
        )


def _require_member(q: Fraction, s: InversionSet, role: str) -> None:
    cof = cofactor_over(q.denominator, s.primes)
    if cof != 1:
        raise RingMembershipError(q, smallest_prime_factor(cof), role)


@dataclass(frozen=True)
class RationalPolynomial:
    """Dense polynomial with exact rational coefficients, lowest degree first."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        cs = tuple(Fraction(c) for c in self.coefficients)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coefficients", cs)

    @classmethod
    def parse(cls, text: str) -> "RationalPolynomial":
        """Comma-separated coefficients, lowest degree first, e.g. '5,-19/3,4,-2/3'."""
        return cls(tuple(Fraction(part.strip()) for part in text.split(",")))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, x: Rational) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __call__(self, x: Rational) -> Fraction:
        return self.evaluate(x)

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            c = self.coefficients[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                xk = "x" if k == 1 else f"x^{k}"
                body = xk if mag == 1 else f"{mag}{xk}"
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(parts)

    def to_json_list(self) -> list[str]:
        return [str(c) for c in self.coefficients]


@dataclass(frozen=True)
class CycleWitness:
    """A ring, four points, and a polynomial claimed to cycle them in order."""

    inversion_set: InversionSet
    points: tuple[Fraction, ...]
    poly: RationalPolynomial

    def to_json_dict(self) -> dict:
        return {
            "inversion_set": list(self.inversion_set.primes),
            "points": [str(x) for x in self.points],
            "coefficients": self.poly.to_json_list(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "CycleWitness":
        return cls(
            InversionSet(json_array(d, "inversion_set")),
            tuple(Fraction(x) for x in json_array(d, "points")),
            RationalPolynomial(json_array(d, "coefficients")),
        )


def lagrange_cycle_poly(
    points: Sequence[Rational], s: InversionSet
) -> CycleWitness:
    """Unique cubic f with f(x_i) = x_{i+1 mod 4}, coefficients checked in the ring.

    Uses Newton's divided differences (denominators stay products of point
    differences, which keeps intermediate values small and exact).
    """
    xs = tuple(Fraction(x) for x in points)
    if len(xs) != 4:
        raise ValueError("exactly four points required")
    if len(set(xs)) != 4:
        raise ValueError("points must be pairwise distinct")
    for x in xs:
        _require_member(x, s, "point")
    ys = tuple(xs[(i + 1) % 4] for i in range(4))

    # Divided-difference table; level j holds f[x_i..x_{i+j}].
    table = [list(ys)]
    for j in range(1, 4):
        prev = table[-1]
        table.append(
            [
                (prev[i + 1] - prev[i]) / (xs[i + j] - xs[i])
                for i in range(4 - j)
            ]
        )
    newton = [table[j][0] for j in range(4)]

    # Expand b0 + b1(x-x0) + b2(x-x0)(x-x1) + b3(x-x0)(x-x1)(x-x2).
    coeffs = [Fraction(0)] * 4
    basis = [Fraction(1)]
    for j in range(4):
        for d, b in enumerate(basis):
            coeffs[d] += newton[j] * b
        if j < 3:
            # basis *= (x - xs[j])
            shifted = [Fraction(0)] + basis
            basis = [
                shifted[d] - (basis[d] if d < len(basis) else 0) * xs[j]
                for d in range(len(shifted))
            ]
    for i, c in enumerate(coeffs):
        _require_member(c, s, f"coefficient of x^{i}")
    return CycleWitness(s, xs, RationalPolynomial(tuple(coeffs)))


class VerifyResult(NamedTuple):
    ok: bool
    reason: str | None

    def __bool__(self) -> bool:
        return self.ok


def verify_cycle(w: CycleWitness) -> VerifyResult:
    """Re-check a witness from scratch; failures carry a reason code."""
    if len(w.points) != 4:
        raise ValueError("a 4-cycle witness needs exactly four points")
    if len(set(w.points)) != 4:
        return VerifyResult(False, "repeated_point")
    for x in w.points:
        if not is_member(x, w.inversion_set):
            return VerifyResult(False, "point_not_in_ring")
    for c in w.poly.coefficients:
        if not is_member(c, w.inversion_set):
            return VerifyResult(False, "coefficient_not_in_ring")
    for i, x in enumerate(w.points):
        if w.poly.evaluate(x) != w.points[(i + 1) % 4]:
            return VerifyResult(False, f"point_{i}_does_not_map_to_successor")
    return VerifyResult(True, None)


@dataclass(frozen=True)
class OrbitReport:
    outcome: str  # "periodic" | "no_cycle" | "escaping"
    preperiod: int | None
    period: int | None
    iterations: int

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "preperiod": self.preperiod,
            "period": self.period,
            "iterations": self.iterations,
        }


def orbit(poly: RationalPolynomial, start: Rational, max_iter: int) -> OrbitReport:
    """Iterate poly from start, detecting eventual periodicity exactly.

    Iterates whose numerator or denominator outgrow BIT_CEILING bits end the
    run with outcome "escaping" (a divergence guard, not an error).
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    x = Fraction(start)
    seen = {x: 0}
    for i in range(1, max_iter + 1):
        x = poly.evaluate(x)
        if (
            x.numerator.bit_length() > BIT_CEILING
            or x.denominator.bit_length() > BIT_CEILING
        ):
            return OrbitReport("escaping", None, None, i)
        if x in seen:
            first = seen[x]
            return OrbitReport("periodic", first, i - first, i)
        seen[x] = i
    return OrbitReport("no_cycle", None, None, max_iter)


def zieve_unit_search(
    s: InversionSet, exponent_bound: int, *, ceiling: int | None = None
) -> tuple[Fraction, Fraction] | None:
    """First pair of units (u, v) with u+v and u+1 associates and 1+u+v a unit.

    Existence of such a pair is equivalent to the ring admitting a 4-cycle.
    Scan order is fixed: lexicographic over (u exponents, u sign, v exponents,
    v sign) with exponents widening 0, 1, -1, ... and + before -.
    """
    if exponent_bound < 0:
        raise ValueError("exponent bound must be >= 0")
    count = unit_count(s, exponent_bound)
    if count * count > resolve_ceiling(ceiling):
        raise SearchTooLarge(f"{count}^2 candidate pairs exceed the configured ceiling")
    # With D = prod(p**B), each unit u is the int U = D*u, and the tests
    # become S-free cofactors of ints: 1 + u + v is a unit iff D + U + V has
    # cofactor 1, and u + v ~ u + 1 iff U + V and U + D have equal cofactors.
    d, scaled = scaled_unit_scan(s, exponent_bound)
    primes = s.primes
    for big_u in scaled:
        u_plus_1 = big_u + d
        if u_plus_1 == 0:
            continue  # u = -1: u + 1 must stay nonzero
        target = cofactor_over(u_plus_1, primes)
        for big_v in scaled:
            u_plus_v = big_u + big_v
            if u_plus_v == 0:
                continue
            w = u_plus_v + d
            if w == 0:
                continue
            if cofactor_over(u_plus_v, primes) == target and cofactor_over(w, primes) == 1:
                return Fraction(big_u, d), Fraction(big_v, d)
    return None


def relation_from_cycle(points: Sequence[Rational]) -> tuple[Fraction, ...]:
    """The four signed differences a cycle induces: x2-x1, x3-x2, x4-x3, x1-x4."""
    xs = tuple(Fraction(x) for x in points)
    if len(xs) != 4:
        raise ValueError("exactly four points required")
    if len(set(xs)) != 4:
        raise ValueError("points must be pairwise distinct")
    return (xs[1] - xs[0], xs[2] - xs[1], xs[3] - xs[2], xs[0] - xs[3])
