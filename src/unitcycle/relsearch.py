"""Search and classification of 4-term vanishing sums of signed prime powers.

A relation over an inversion set S is a quadruple of signed products
t_i = s_i * p_1^{a_i1} * ... * p_n^{a_in} (a_ij >= 0) with t_1+t_2+t_3+t_4 = 0
and no proper nonempty subset summing to zero.  Relations are kept in a
canonical form so that equality of relations is plain equality: terms sorted
by descending |value|, ties broken by descending value, and the global sign
chosen to make the first term positive.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .backends import CEILING_ENV  # noqa: F401  (read as relsearch.CEILING_ENV)
from .backends import SearchTooLarge, refuse_pair_sums, resolve_ceiling, zero_quadruples
from .exactnum import factor_over, is_probable_prime, radical
from .sring import InversionSet, UnitTerm, json_array, term_from_json, term_to_json, term_value

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class SearchConfig:
    """Exponent regime for a search: every a_ij ranges over {0, ..., bound}."""

    kind: str
    bound: int

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "npower", "general"):
            raise ValueError(f"unknown search kind {self.kind!r}")
        if self.bound < 0 or (self.kind != "general" and self.bound < 1):
            raise ValueError("exponent bound out of range")
        if self.kind == "linear" and self.bound != 1:
            raise ValueError("linear mode fixes the bound at 1")

    @classmethod
    def linear(cls) -> "SearchConfig":
        return cls("linear", 1)

    @classmethod
    def npower(cls, n: int) -> "SearchConfig":
        return cls("npower", n)

    @classmethod
    def general(cls, bound: int) -> "SearchConfig":
        return cls("general", bound)

    @classmethod
    def parse(cls, text: str) -> "SearchConfig":
        """Parse 'linear', 'npower:N', or 'general:B'."""
        text = text.strip()
        if text == "linear":
            return cls.linear()
        for kind in ("npower", "general"):
            if text.startswith(kind + ":"):
                return cls(kind, int(text[len(kind) + 1 :]))
        raise ValueError(f"cannot parse search mode {text!r}")

    @property
    def label(self) -> str:
        return "linear" if self.kind == "linear" else f"{self.kind}:{self.bound}"


def has_zero_proper_subsum(values: Sequence[int]) -> bool:
    """True iff some proper nonempty subset of the four values sums to zero.

    Singletons are excluded by the nonzero precondition.  When the total is
    zero, a vanishing triple forces its complementary singleton to vanish,
    so only the six pairs need checking; otherwise the four triples are
    checked as well.
    """
    if len(values) != 4:
        raise ValueError("exactly four values expected")
    if any(v == 0 for v in values):
        raise ValueError("values must be nonzero")
    a, b, c, d = values
    if a + b == 0 or a + c == 0 or a + d == 0 or b + c == 0 or b + d == 0 or c + d == 0:
        return True
    if a + b + c + d != 0:
        if a + b + c == 0 or a + b + d == 0 or a + c + d == 0 or b + c + d == 0:
            return True
    return False


def canonicalize_values(values: Sequence[int]) -> tuple[int, ...]:
    """Sort by (|v| desc, v desc) and flip the global sign if the head is negative."""
    key = lambda v: (-abs(v), -v)
    vs = sorted(values, key=key)
    if vs[0] < 0:
        vs = sorted((-v for v in vs), key=key)
    return tuple(vs)


def _check_term(primes: tuple[int, ...], t: UnitTerm, v: int) -> None:
    """Refuse a term with a negative exponent, the wrong exponent count, or
    a value other than v."""
    exps = t.exponents
    if exps and min(exps) < 0:
        raise ValueError("relation exponents must be nonnegative")
    if len(exps) != len(primes):
        raise ValueError("exponent vector length does not match inversion set")
    # With every exponent nonnegative, term_value(t, s) is this int
    # product: its denominator is 1.
    if t.sign * math.prod(map(pow, primes, exps)) != v:
        raise ValueError(f"term {t} does not evaluate to {v}")


def _check_values(values: Sequence[int]) -> None:
    """Refuse values that are not a canonical subsum-free zero-sum int 4-tuple."""
    if len(values) != 4:
        raise ValueError("a relation has exactly four terms")
    a, b, c, d = values
    if a + b + c + d != 0:
        raise ValueError("relation values must sum to zero")
    # With a zero total, has_zero_proper_subsum reduces to three pairs:
    # each pair vanishes exactly when its complement does.
    if a + b == 0 or a + c == 0 or a + d == 0:
        raise ValueError("relation has a vanishing proper subsum")
    # No pair vanishes, so equal magnitudes mean equal values and the
    # canonical order is |v| non-increasing from a positive head; a >= |b|
    # makes the head positive.  A list never equals the tuple
    # canonicalize_values returns.
    if not (isinstance(values, tuple) and a >= abs(b) >= abs(c) >= abs(d)):
        raise ValueError("relation is not in canonical form")
    # Exact arithmetic: a float or Fraction equal to the term is refused.
    if not (
        isinstance(a, int) and isinstance(b, int) and isinstance(c, int) and isinstance(d, int)
    ):
        raise ValueError("relation values must be ints")


@dataclass(frozen=True, slots=True)
class Relation:
    """A canonical subsum-free vanishing quadruple of signed prime-power terms.

    Every relation has passed every check, and its values are ints.  Direct
    construction (and so `from_signed_values`, `from_json_dict` and every
    certificate's `verify()`) checks each (term, value) pair with
    `_check_term`, then the values with `_check_values`.  `find_relations`
    runs the same checks on its own path: `_check_term`'s exponent and
    product checks once per distinct magnitude of the search, the value
    comparison once per distinct signed value, `_check_values` on every row.
    """

    inversion_set: InversionSet
    terms: tuple[UnitTerm, ...]
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        primes = self.inversion_set.primes
        values = self.values
        if len(self.terms) != 4 or len(values) != 4:
            raise ValueError("a relation has exactly four terms")
        for t, v in zip(self.terms, values):
            _check_term(primes, t, v)
        _check_values(values)

    @classmethod
    def from_signed_values(
        cls, s: InversionSet, values: Sequence[int]
    ) -> "Relation":
        """Canonicalize four signed S-smooth integers into a Relation."""
        vs = canonicalize_values(values)
        terms = []
        for v in vs:
            exps, cof = factor_over(v, s.primes)
            if cof != 1:
                raise ValueError(f"{v} does not factor over {s.ring_name()}")
            terms.append(UnitTerm(1 if v > 0 else -1, tuple(exps)))
        return cls(s, tuple(terms), vs)

    def pretty(self) -> str:
        """Render as 'positives = negated negatives', e.g. '3 = 1 + 1 + 1'."""
        pos = [str(v) for v in self.values if v > 0]
        neg = [str(-v) for v in self.values if v < 0]
        return " + ".join(pos) + " = " + " + ".join(neg)

    def to_json_dict(self) -> dict:
        return {
            "inversion_set": list(self.inversion_set.primes),
            "terms": [term_to_json(t, self.inversion_set) for t in self.terms],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Relation":
        s = InversionSet(json_array(d, "inversion_set"))
        raw = json_array(d, "terms")
        terms = tuple(term_from_json(t) for t in raw)
        values = tuple(int(term_value(t, s)) for t in terms)
        rel = cls(s, terms, values)
        # "value" is optional, but when given it must be the term's value.
        for t, v in zip(raw, values):
            if "value" in t and str(t["value"]) != str(v):
                raise ValueError(f"term value {t['value']} does not match its exponents ({v})")
        return rel


def term_table(
    s: InversionSet, bound: int, *, ceiling: int | None = None
) -> dict[int, tuple[int, ...]]:
    """value -> exponent vector for all products with exponents in {0..bound}."""
    n = len(s)
    count = (bound + 1) ** n
    limit = resolve_ceiling(ceiling)
    if count > limit:
        raise SearchTooLarge(
            f"{count} candidate terms exceed the ceiling {limit}"
        )
    # One product per entry: each prime extends every product so far by each
    # of its powers, last prime fastest, the order of
    # itertools.product(range(bound + 1), repeat=n).
    table: dict[int, tuple[int, ...]] = {1: ()}
    for p in s.primes:
        powers = [(p**e, e) for e in range(bound + 1)]
        table = {v * q: exps + (e,) for v, exps in table.items() for q, e in powers}
    return table


def find_relations(
    s: InversionSet, cfg: SearchConfig, *, ceiling: int | None = None
) -> list[Relation]:
    """Every canonical relation over s in the given exponent regime.

    Complete and duplicate-free; rows are ordered lexicographically by their
    canonical value quadruple, independent of the backend in use.

    Every returned relation has passed every check of `Relation`.  Each
    distinct term is checked before any row (its exponents and product once
    per magnitude, its value once per signed value), so a faulty kernel or
    term table reports a bad term before a bad row; the messages are those
    of direct construction.
    """
    if len(s) == 0:
        raise ValueError("relation search needs a nonempty inversion set")
    # The table will hold (bound+1)^n distinct terms.  Refuse their pair sums
    # before it is built; term_table names the terms first if they are over.
    limit = resolve_ceiling(ceiling)
    count = (cfg.bound + 1) ** len(s)
    if count <= limit:
        refuse_pair_sums(count, limit)
    table = term_table(s, cfg.bound, ceiling=limit)
    rows = zero_quadruples(table.keys(), ceiling=limit)
    # One shared (frozen) UnitTerm per signed value that occurs in a row, not
    # four new ones per row.  _check_term's exponent checks and product run
    # once per magnitude, inline because a call per term cost as much as the
    # checks.  The term of each sign that occurs is then filled in as
    # UnitTerm.__init__ would (term_table's exponents are already tuples of
    # ints, and the sign is +-1 by construction), and sign * product is
    # compared with its value.  Each row below takes its terms by its own
    # values, so every (term, value) pair of every relation is checked;
    # _check_values checks the rest.  Each Relation is then filled in as
    # Relation.__init__ would, without checking the same terms again.
    primes = s.primes
    signed = set(itertools.chain.from_iterable(rows))
    new, set_field = object.__new__, object.__setattr__
    terms = {}
    for m in {abs(v) for v in signed}:
        exps = table[m]
        if exps and min(exps) < 0:
            raise ValueError("relation exponents must be nonnegative")
        if len(exps) != len(primes):
            raise ValueError("exponent vector length does not match inversion set")
        product = math.prod(map(pow, primes, exps))
        for v in (m, -m):
            if v in signed:
                t = terms[v] = new(UnitTerm)
                set_field(t, "sign", 1 if v > 0 else -1)
                set_field(t, "exponents", exps)
                if t.sign * product != v:
                    raise ValueError(f"term {t} does not evaluate to {v}")
    out = []
    for row in rows:
        _check_values(row)
        a, b, c, d = row
        rel = new(Relation)
        set_field(rel, "inversion_set", s)
        set_field(rel, "terms", (terms[a], terms[b], terms[c], terms[d]))
        set_field(rel, "values", row)
        out.append(rel)
    return out


def admits_4cycle(
    s: InversionSet, cfg: SearchConfig, *, ceiling: int | None = None
) -> tuple[bool, Relation | None]:
    """Does s admit a relation in this regime?  Returns the first witness if so."""
    rels = find_relations(s, cfg, ceiling=ceiling)
    if rels:
        return True, rels[0]
    return False, None


def singleton_mod_obstruction(p: int) -> bool:
    """Mod-p impossibility of a relation over {p}, checked case by case.

    Normalize a hypothetical relation over {p} to 1 ± p^b1 ± p^b2 ± p^b3 = 0
    (divide by the smallest power; exponents nonnegative).  Mod p, each term
    with b = 0 contributes ±1 and the rest vanish, so the residue is decided
    by how many of the b_i are zero:

      none  -> residue 1
      one   -> residue 2 (the 1-1 combination is a vanishing pair, excluded)
      two   -> residue ±1 or ±3 (the zero residues need a vanishing pair)
      three -> the whole equation is an exact ±1 sum; every zero total
               contains a vanishing pair, so this case cannot occur at all

    Hence a relation forces p | 1, p | 2 or p | 3.  Returns True when none of
    those hold, i.e. the obstruction applies and {p} admits no relation for
    any exponent bound.
    """
    if not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    return all(r % p != 0 for r in (1, 2, 3))


def ap_relation(p1: int, p2: int, p3: int) -> Relation:
    """The relation p3 - p2 - p2 + p1 = 0 for primes in arithmetic progression."""
    for p in (p1, p2, p3):
        if not is_probable_prime(p):
            raise ValueError(f"{p} is not prime")
    if not (p1 < p2 < p3):
        raise ValueError("need p1 < p2 < p3")
    if p2 - p1 != p3 - p2:
        raise ValueError(f"{p1}, {p2}, {p3} is not an arithmetic progression")
    s = InversionSet.of(p1, p2, p3)
    return Relation.from_signed_values(s, (p3, -p2, -p2, p1))


TWIN = "twin"
PN_MINUS_2 = "pn_minus_2"
TWO_P_PLUS_1 = "two_p_plus_1"


def doubleton_family(p: int, family: str, n: int | None = None) -> Relation:
    """Explicit relation over {p, partner} for the three doubleton families.

    twin:          partner p+2,     p+2 - 1 - 1 - p = 0
    pn_minus_2:    partner p^n - 2, (p^n - 2) + 1 + 1 - p^n = 0
    two_p_plus_1:  partner 2p+1,    (2p+1) - p - p - 1 = 0

    Raises when p or the partner is not prime (family inapplicable).
    """
    if not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    if family == TWIN:
        partner = p + 2
        values = (partner, -1, -1, -p)
    elif family == PN_MINUS_2:
        if n is None or n < 1:
            raise ValueError("pn_minus_2 needs a power n >= 1")
        partner = p**n - 2
        values = (partner, 1, 1, -(p**n))
    elif family == TWO_P_PLUS_1:
        partner = 2 * p + 1
        values = (partner, -p, -p, -1)
    else:
        raise ValueError(f"unknown family {family!r}")
    if not is_probable_prime(partner):
        raise ValueError(f"family {family} inapplicable at p={p}: {partner} is not prime")
    if partner == p:
        raise ValueError(f"family {family} degenerates at p={p}")
    s = InversionSet.of(p, partner)
    return Relation.from_signed_values(s, values)


def check_bb_inequality(rel: Relation, c: Rational, epsilon: Rational) -> bool:
    """Exact test of max|a_i| <= C * rad(a1*a2*a3*a4)^(3+eps) for the relation.

    The four values are divided by their gcd first.  With eps = r/q the test
    becomes the integer comparison max^q * Cden^q <= Cnum^q * rad^(3q+r);
    no rounding anywhere.
    """
    c = Fraction(c)
    epsilon = Fraction(epsilon)
    if c <= 0:
        raise ValueError("C must be positive")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    g = math.gcd(*(abs(v) for v in rel.values))
    vals = [v // g for v in rel.values]
    rad = radical(vals, rel.inversion_set.primes)
    mx = max(abs(v) for v in vals)
    q = epsilon.denominator
    r = epsilon.numerator
    lhs = mx**q * c.denominator**q
    rhs = c.numerator**q * rad ** (3 * q + r)
    return lhs <= rhs
