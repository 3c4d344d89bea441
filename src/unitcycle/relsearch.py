"""Search and classification of 4-term vanishing sums of signed prime powers.

A relation over an inversion set S is a quadruple of signed products
t_i = s_i * p_1^{a_i1} * ... * p_n^{a_in} (a_ij >= 0) with t_1+t_2+t_3+t_4 = 0
and no proper nonempty subset summing to zero.  Relations are kept in a
canonical form so that equality of relations is plain equality: terms sorted
by descending |value|, ties broken by descending value, and the global sign
chosen to make the first term positive.
"""

from __future__ import annotations

import gc
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .backends import CEILING_ENV  # noqa: F401  (read as relsearch.CEILING_ENV)
from .backends import SearchTooLarge, refuse_pair_sums, resolve_ceiling, zero_quadruples
from .exactnum import factor_over, is_probable_prime, radical, require_prime
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
    """True iff some proper nonempty subset of the four nonzero values sums to zero."""
    if len(values) != 4:
        raise ValueError("exactly four values expected")
    if any(v == 0 for v in values):
        raise ValueError("values must be nonzero")
    return any(sum(c) == 0 for r in (2, 3) for c in itertools.combinations(values, r))


def canonicalize_values(values: Sequence[int]) -> tuple[int, ...]:
    """Sort by (|v| desc, v desc) and flip the global sign if the head is negative."""
    key = lambda v: (-abs(v), -v)
    vs = sorted(values, key=key)
    if vs[0] < 0:
        vs = sorted((-v for v in vs), key=key)
    return tuple(vs)


def _term_product(primes: tuple[int, ...], exps: tuple[int, ...]) -> int:
    """prod(p**e), after refusing a negative exponent or the wrong exponent count.

    With every exponent nonnegative this is the term's magnitude as an int.
    """
    if exps and min(exps) < 0:
        raise ValueError("relation exponents must be nonnegative")
    if len(exps) != len(primes):
        raise ValueError("exponent vector length does not match inversion set")
    return math.prod(map(pow, primes, exps))


def _check_term(t: UnitTerm, v: int, product: int) -> None:
    """Refuse a term whose value, t.sign * product, is not v."""
    if t.sign * product != v:
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
    `_term_product` and `_check_term`, then the values with `_check_values`.
    `find_relations` calls the same three functions on its own path.
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
            _check_term(t, v, _term_product(primes, t.exponents))
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
        s = InversionSet(json_array(d, "inversion_set", int))
        raw = json_array(d, "terms")
        terms = tuple(term_from_json(t) for t in raw)
        values = tuple(int(term_value(t, s)) for t in terms)
        rel = cls(s, terms, values)
        # "value" is optional, but when given it must be the term's value.
        for t, v in zip(raw, values):
            if "value" in t and str(t["value"]) != str(v):
                raise ValueError(f"term value {t['value']} does not match its exponents ({v})")
        return rel


def _refuse_terms(count: int, limit: int) -> None:
    if count > limit:
        raise SearchTooLarge(f"{count} candidate terms exceed the ceiling {limit}")


def refuse_search(n: int, bound: int, limit: int) -> int:
    """The term count (bound+1)^n of a search over n primes, checked before
    anything is built: SearchTooLarge names the terms when they exceed
    limit, else their pair sums when those do."""
    count = (bound + 1) ** n
    _refuse_terms(count, limit)
    refuse_pair_sums(limit, count)
    return count


def term_products(primes: Sequence[int], bound: int) -> list[int]:
    """The products of the primes with exponents in {0..bound}, in the order
    of itertools.product(range(bound + 1), repeat=len(primes)).

    Each prime extends every product so far by each of its powers, last
    prime fastest: one multiplication per product.
    """
    values = [1]
    for p in primes:
        powers = [p**e for e in range(bound + 1)]
        values = [v * q for v in values for q in powers]
    return values


def term_table(
    s: InversionSet, bound: int, *, ceiling: int | None = None
) -> dict[int, tuple[int, ...]]:
    """value -> exponent vector for all products with exponents in {0..bound}."""
    n = len(s)
    _refuse_terms((bound + 1) ** n, resolve_ceiling(ceiling))
    exponents = itertools.product(range(bound + 1), repeat=n)
    return dict(zip(term_products(s.primes, bound), exponents))


def find_relations(
    s: InversionSet, cfg: SearchConfig, *, ceiling: int | None = None
) -> list[Relation]:
    """Every canonical relation over s in the given exponent regime.

    Complete and duplicate-free; rows are ordered lexicographically by their
    canonical value quadruple, independent of the backend in use.

    Every returned relation has passed every check of `Relation`, through
    the same functions.  When the kernel returns a row, every term of the
    table is checked, -m before +m: `_term_product` once per magnitude and
    `_check_term` once per signed value, so a spoiled entry raises even when
    no row uses it.  Then `_check_values` runs on every row.  Terms are
    checked before any row, so a faulty kernel or term table reports a bad
    term before a bad row.

    The cyclic garbage collector is paused while the terms and relations
    are built, and restored as the caller had it.  None of them forms a
    cycle, and none can be freed while this call holds it, yet each full
    collection would rescan every one built so far: medium {2,3,5,7}
    general:4 spent about half its time in the collector.
    """
    if len(s) == 0:
        raise ValueError("relation search needs a nonempty inversion set")
    limit = resolve_ceiling(ceiling)
    refuse_search(len(s), cfg.bound, limit)
    table = term_table(s, cfg.bound, ceiling=limit)
    rows = zero_quadruples(table.keys(), ceiling=limit)
    if not rows:
        return []
    # One shared (frozen) UnitTerm per signed value of the table, filled in
    # through its slots as UnitTerm.__init__ would (term_table's exponents
    # are tuples of ints and the sign is +-1 by construction).  Each row
    # takes its terms by its own values, so every (term, value) pair of
    # every relation is checked, and each Relation is filled in as
    # Relation.__init__ would.
    primes = s.primes
    new = object.__new__
    set_sign, set_exponents = UnitTerm.sign.__set__, UnitTerm.exponents.__set__
    set_inversion_set, set_terms = Relation.inversion_set.__set__, Relation.terms.__set__
    set_values = Relation.values.__set__
    enabled = gc.isenabled()
    gc.disable()
    try:
        terms = {}
        for m, exps in table.items():
            product = _term_product(primes, exps)
            for v in (-m, m):
                t = terms[v] = new(UnitTerm)
                set_sign(t, 1 if v > 0 else -1)
                set_exponents(t, exps)
                _check_term(t, v, product)
        out = []
        for row in rows:
            _check_values(row)
            a, b, c, d = row
            rel = new(Relation)
            set_inversion_set(rel, s)
            set_terms(rel, (terms[a], terms[b], terms[c], terms[d]))
            set_values(rel, row)
            out.append(rel)
    finally:
        if enabled:
            gc.enable()
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
    require_prime(p)
    return all(r % p != 0 for r in (1, 2, 3))


def ap_relation(p1: int, p2: int, p3: int) -> Relation:
    """The relation p3 - p2 - p2 + p1 = 0 for primes in arithmetic progression."""
    require_prime(p1, p2, p3)
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
    require_prime(p)
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
