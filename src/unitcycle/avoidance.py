"""Certified avoidance: 3-separation certificates, avoiding sets, prime pairs.

The central sufficient condition: if every pair s < t of bounded-exponent
products over the inversion set satisfies 3s < t, then no 4-term vanishing
sum exists in that regime.  Certificates record every inequality as exact
integers so third parties can re-verify without trusting this code.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from .exactnum import is_probable_prime, next_prime
from .relsearch import SearchConfig, term_table
from .sring import InversionSet, json_array

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class InequalityCheck:
    """One exact integer comparison, stored with its operands."""

    name: str
    lhs: int
    rhs: int
    relation: str  # "<" or ">"
    passed: bool

    def __post_init__(self) -> None:
        if self.relation not in ("<", ">"):
            raise ValueError(f"unsupported relation {self.relation!r}")

    @classmethod
    def of(cls, name: str, lhs: int, relation: str, rhs: int) -> "InequalityCheck":
        passed = lhs < rhs if relation == "<" else lhs > rhs
        return cls(name, lhs, rhs, relation, passed)

    def verify(self) -> bool:
        """Recompute the comparison from the stored operands."""
        truth = self.lhs < self.rhs if self.relation == "<" else self.lhs > self.rhs
        return truth == self.passed

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "relation": self.relation,
            "pass": self.passed,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "InequalityCheck":
        passed = d["pass"]
        if not isinstance(passed, bool):
            raise TypeError(f"pass must be a JSON bool, got {type(passed).__name__}")
        return cls(d["name"], int(d["lhs"]), int(d["rhs"]), d["relation"], passed)


class SeparationCounterexample(NamedTuple):
    """Adjacent products violating 3s < t."""

    smaller: int
    larger: int


@dataclass(frozen=True)
class AvoidanceCertificate:
    """Sorted product list plus the verified chain of 3x < y steps."""

    inversion_set: InversionSet
    mode: SearchConfig
    products: tuple[int, ...]
    checks: tuple[InequalityCheck, ...]

    def verify(self) -> bool:
        """Rebuild the certificate from its ring and mode; compare the whole record."""
        n = len(self.products)  # the certificate's size, not the search ceiling, bounds the work
        if n != (self.mode.bound + 1) ** len(self.inversion_set):
            return False
        return separation_certificate(self.inversion_set, self.mode, ceiling=n) == self

    def to_json_dict(self) -> dict:
        return {
            "inversion_set": list(self.inversion_set.primes),
            "mode": self.mode.label,
            "products": [str(v) for v in self.products],
            "checks": [c.to_json_dict() for c in self.checks],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "AvoidanceCertificate":
        return cls(
            InversionSet(json_array(d, "inversion_set")),
            SearchConfig.parse(d["mode"]),
            tuple(int(v) for v in json_array(d, "products")),
            tuple(InequalityCheck.from_json_dict(c) for c in json_array(d, "checks")),
        )


def separation_certificate(
    s: InversionSet, mode: SearchConfig, *, ceiling: int | None = None
) -> AvoidanceCertificate | SeparationCounterexample:
    """Certify 3-separation of the product set, or return the violating pair.

    Success means every adjacent pair of the sorted products x_0 < x_1 < ...
    satisfies 3*x_{i-1} < x_i, which rules out any 4-term vanishing sum in
    the same exponent regime (the largest term would dominate the other
    three).
    """
    products = tuple(sorted(term_table(s, mode.bound, ceiling=ceiling)))
    checks = []
    for i in range(1, len(products)):
        prev, cur = products[i - 1], products[i]
        if 3 * prev >= cur:
            return SeparationCounterexample(prev, cur)
        checks.append(InequalityCheck.of(f"step_{i}", 3 * prev, "<", cur))
    return AvoidanceCertificate(s, mode, products, tuple(checks))


def construct_avoiding_set(k: int, n: int, start: int = 3) -> InversionSet:
    """k primes whose npower(n) products are 3-separated by construction.

    p_1 = next_prime(max(3, start)); each later p_j = next_prime(3 * prod of
    all previous p_i^n).  The result is certified before being returned.
    """
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    if start < 1:
        raise ValueError("start must be >= 1")
    primes = [next_prime(max(3, start))]
    while len(primes) < k:
        prod = 1
        for p in primes:
            prod *= p**n
        primes.append(next_prime(3 * prod))
    s = InversionSet(tuple(primes))
    cert = separation_certificate(s, SearchConfig.npower(n))
    if not isinstance(cert, AvoidanceCertificate):
        raise RuntimeError(f"construction failed its own certificate at {cert}")
    return s


def _ordering_checks(p1: int, p2: int, m: int) -> list[InequalityCheck]:
    """The 2(m-1) integer inequalities behind the exponent-key ordering."""
    checks = []
    for ell in range(1, m):
        checks.append(
            InequalityCheck.of(f"ordering_power_l{ell}", p1**ell, "<", p2**ell)
        )
        checks.append(
            InequalityCheck.of(
                f"ordering_window_l{ell}",
                3**m * p2 ** (ell * m),
                "<",
                p1 ** (ell * m + ell),
            )
        )
    return checks


def check_ordering_hypothesis(p1: int, p2: int, m: int) -> bool:
    """Does p1^l < p2^l < (1/3) p1^(l + l/m) hold for every 1 <= l < m?

    The right-hand side is tested as 3^m * p2^(l*m) < p1^(l*m + l), an exact
    integer form of the same inequality.
    """
    if m <= 7:
        raise ValueError("the ordering hypothesis needs m > 7")
    if not (p1 < p2):
        raise ValueError("need p1 < p2")
    for p in (p1, p2):
        if not is_probable_prime(p):
            raise ValueError(f"{p} is not prime")
    return all(c.passed for c in _ordering_checks(p1, p2, m))


def verify_ordering_conclusion(
    p1: int, p2: int, m: int, pairs: Sequence[tuple[int, int]]
) -> bool:
    """Check that the key l*(1+1/m) + k sorts the products p1^k * p2^l.

    Keys are compared exactly as integers m*l + l + m*k.  Wherever two listed
    exponent pairs have different keys, the actual product values must be
    ordered the same way.  Requires the ordering hypothesis; raises if it
    fails.
    """
    if not check_ordering_hypothesis(p1, p2, m):
        raise ValueError(
            f"ordering hypothesis fails for p1={p1}, p2={p2}, m={m}"
        )
    normalized = []
    for k, ell in pairs:
        if k < 0 or ell < 0 or ell >= m:
            raise ValueError(f"exponent pair ({k}, {ell}) out of range (need l < m)")
        normalized.append((int(k), int(ell)))
    for (k1, l1), (k2, l2) in itertools.combinations(normalized, 2):
        key1 = m * l1 + l1 + m * k1
        key2 = m * l2 + l2 + m * k2
        if key1 == key2:
            continue
        v1 = p1**k1 * p2**l1
        v2 = p1**k2 * p2**l2
        if (key1 < key2) != (v1 < v2):
            return False
    return True


@dataclass(frozen=True)
class AbcPairReport:
    """Primes p1 < p2 with every inequality needed for conditional avoidance."""

    c: Fraction
    m: int
    p1: int
    p2: int
    checks: tuple[InequalityCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def verify(self) -> bool:
        """Rebuild the report from C, m and the seed p1 - 1; compare the whole record."""
        # The report's 3m checks bound m; the window must follow from p1, p2, m alone.
        if len(self.checks) != 3 * self.m or not (
            self.p2 > 3 * self.p1 and (3 * self.p2) ** self.m < self.p1 ** (self.m + 1)
        ):
            return False
        try:
            return abc_pair(self.c, self.m, self.p1 - 1) == self
        except ValueError:  # a precondition of abc_pair fails
            return False

    def to_json_dict(self) -> dict:
        return {
            "C": str(self.c),
            "m": self.m,
            "p1": str(self.p1),
            "p2": str(self.p2),
            "all_pass": self.all_pass,
            "checks": [c.to_json_dict() for c in self.checks],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "AbcPairReport":
        return cls(
            Fraction(d["C"]),
            int(d["m"]),
            int(d["p1"]),
            int(d["p2"]),
            tuple(InequalityCheck.from_json_dict(c) for c in json_array(d, "checks")),
        )


def abc_pair(c: Rational, m: int, seed: int = 0) -> AbcPairReport:
    """Construct and fully check the prime pair p1 = next_prime(max(18^m, seed)),
    p2 = next_prime(3*p1).

    Checks recorded (all exact integer comparisons):
      window_lower      p2 > 3*p1
      window_upper      (3*p2)^m < p1^(m+1)
      abc_gap           p2^m > C * (p1*p2)^4
      separation_l*     3*p2^l < p1^(l+1) for 1 <= l < m
      ordering_*        the power-ordering hypotheses

    Preconditions: m >= 9 and 3^m > C.
    """
    c = Fraction(c)
    if c <= 0:
        raise ValueError("C must be positive")
    if m < 9:
        raise ValueError("need m >= 9")
    if 3**m * c.denominator <= c.numerator:
        raise ValueError("need 3^m > C")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    p1 = next_prime(max(18**m, seed))
    p2 = next_prime(3 * p1)
    checks = [
        InequalityCheck.of("window_lower", p2, ">", 3 * p1),
        InequalityCheck.of("window_upper", (3 * p2) ** m, "<", p1 ** (m + 1)),
        InequalityCheck.of(
            "abc_gap",
            c.denominator * p2**m,
            ">",
            c.numerator * (p1 * p2) ** 4,
        ),
    ]
    for ell in range(1, m):
        checks.append(
            InequalityCheck.of(f"separation_l{ell}", 3 * p2**ell, "<", p1 ** (ell + 1))
        )
    checks.extend(_ordering_checks(p1, p2, m))
    return AbcPairReport(c, m, p1, p2, tuple(checks))
