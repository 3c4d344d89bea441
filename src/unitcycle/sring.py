"""Rings Z[1/p1,...,1/pn]: inversion sets, membership, units, associates.

An inversion set S lists the primes whose reciprocals are adjoined to Z.
Members of the ring are rationals whose reduced denominator factors over S;
units are the rationals ±p1^e1 * ... * pn^en with integer exponents.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from .exactnum import cofactor_over, require_prime

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class InversionSet:
    """Strictly increasing tuple of primes; the empty tuple denotes Z itself."""

    primes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        ps = tuple(int(p) for p in self.primes)
        object.__setattr__(self, "primes", ps)
        if list(ps) != sorted(set(ps)):
            raise ValueError("primes must be strictly increasing with no repeats")
        require_prime(*ps)

    @classmethod
    def of(cls, *primes: int) -> "InversionSet":
        """Build from primes in any order; repeats are rejected."""
        return cls(tuple(sorted(int(p) for p in primes)))

    @classmethod
    def parse(cls, text: str) -> "InversionSet":
        """Parse a comma-separated prime list; '' or 'Z' means the empty set."""
        text = text.strip()
        if text in ("", "Z", "z"):
            return cls(())
        return cls.of(*(int(part) for part in text.split(",")))

    def __len__(self) -> int:
        return len(self.primes)

    def __iter__(self) -> Iterator[int]:
        return iter(self.primes)

    def __contains__(self, p: int) -> bool:
        return p in self.primes

    def ring_name(self) -> str:
        if not self.primes:
            return "Z"
        return "Z[" + ",".join(f"1/{p}" for p in self.primes) + "]"


@dataclass(frozen=True, slots=True)
class UnitTerm:
    """A signed prime-power product sign * prod(p_i ** e_i) over some inversion set."""

    sign: int
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise ValueError("sign must be -1 or +1")
        object.__setattr__(self, "exponents", tuple(map(int, self.exponents)))


def term_value(t: UnitTerm, s: InversionSet) -> Fraction:
    """Exact value of a term; negative exponents give honest fractions.

    Numerator and denominator are built as plain ints and wrapped in one
    Fraction, which is much cheaper than multiplying Fraction powers.
    """
    if len(t.exponents) != len(s):
        raise ValueError("exponent vector length does not match inversion set")
    num, den = t.sign, 1
    for p, e in zip(s.primes, t.exponents):
        if e >= 0:
            num *= p**e
        else:
            den *= p**-e
    return Fraction(num) if den == 1 else Fraction(num, den)


def unit_count(s: InversionSet, bound: int) -> int:
    """len(scaled_unit_scan(s, bound)[1]), known before any unit is built."""
    return 2 * (2 * bound + 1) ** len(s)


def scaled_unit_scan(s: InversionSet, bound: int) -> tuple[int, list[int]]:
    """(D, [D*u for u in the signed units with exponents in [-bound, bound]]).

    With D = prod(p**bound), each unit becomes the int D*u =
    ±prod(p**(bound + e)), so a search can test units with int arithmetic
    and turn only its answer back into Fractions, as Fraction(D*u, D).
    This defines the one scan order: exponents widen 0, 1, -1, 2, -2, ...
    so small units surface first; the exponent vectors run lexicographically
    in that order and each magnitude comes before its negative.
    """
    order = [0]
    for e in range(1, bound + 1):
        order += (e, -e)
    powers = [[p ** (bound + e) for e in order] for p in s.primes]
    out: list[int] = []
    for factors in itertools.product(*powers):
        mag = math.prod(factors)
        out.append(mag)
        out.append(-mag)
    return math.prod(p**bound for p in s.primes), out


def is_member(q: Rational, s: InversionSet) -> bool:
    """True iff q lies in Z[1/p : p in s], i.e. its reduced denominator is s-smooth."""
    return cofactor_over(Fraction(q).denominator, s.primes) == 1


def is_unit(q: Rational, s: InversionSet) -> bool:
    """True iff q is invertible in the ring: q = ±prod(p**e) over s. Rejects q == 0."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("0 is not a candidate unit")
    return (
        cofactor_over(q.numerator, s.primes) == 1
        and cofactor_over(q.denominator, s.primes) == 1
    )


def are_associates(a: Rational, b: Rational, s: InversionSet) -> bool:
    """True iff a = u*b for some unit u; defined for nonzero a, b."""
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("associates are defined for nonzero elements")
    return is_unit(a / b, s)


def term_to_json(t: UnitTerm, s: InversionSet) -> dict:
    """JSON form {"sign": ..., "exponents": [...], "value": "..."} with exact decimal/fraction value."""
    return {
        "sign": t.sign,
        "exponents": list(t.exponents),
        "value": str(term_value(t, s)),
    }


def json_exact(value, field: str, kind: type = int):
    """kind(value), refused unless value is an int that is not a bool, or a str.

    Integer and fraction fields take only these: int() would truncate a
    float, Fraction() would read its binary value, and a bool would pass as
    0 or 1.
    """
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"{field} must be a JSON integer or string, got {type(value).__name__}")
    return kind(value)


def json_string(d: dict, key: str) -> str:
    """d[key], refused unless it is a JSON string."""
    value = d[key]
    if not isinstance(value, str):
        raise TypeError(f"{key} must be a JSON string, got {type(value).__name__}")
    return value


def json_array(d: dict, key: str, kind: type | None = None) -> list:
    """d[key], refused unless it is a JSON array (a string would be read char by char).

    With kind, each element is read through json_exact(element, key, kind).
    """
    value = d[key]
    if not isinstance(value, list):
        raise TypeError(f"{key} must be a JSON array, got {type(value).__name__}")
    return value if kind is None else [json_exact(v, key, kind) for v in value]


def term_from_json(d: dict) -> UnitTerm:
    return UnitTerm(json_exact(d["sign"], "sign"), tuple(json_array(d, "exponents", int)))
