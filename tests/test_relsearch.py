import functools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    exhaustive_zero_subsum,
    products_over,
    quadruples_by_completion,
    relation_count_oracle,
    relation_rejection,
    trial_factor,
)
from unitcycle import relsearch
from unitcycle.backends import (
    BACKEND_ENV,
    CEILING_ENV,
    DEFAULT_CEILING,
    INT64_VALUE_LIMIT,
    SearchTooLarge,
    available_backends,
    resolve_ceiling,
)
from unitcycle.relsearch import (
    PN_MINUS_2,
    TWIN,
    TWO_P_PLUS_1,
    Relation,
    SearchConfig,
    admits_4cycle,
    ap_relation,
    canonicalize_values,
    check_bb_inequality,
    doubleton_family,
    find_relations,
    has_zero_proper_subsum,
    singleton_mod_obstruction,
    term_table,
)
from unitcycle.sring import InversionSet, UnitTerm


class TestSearchConfig:
    def test_constructors(self):
        assert SearchConfig.linear() == SearchConfig("linear", 1)
        assert SearchConfig.npower(3).bound == 3
        assert SearchConfig.general(0).bound == 0

    def test_parse(self):
        assert SearchConfig.parse("linear") == SearchConfig.linear()
        assert SearchConfig.parse("npower:3") == SearchConfig.npower(3)
        assert SearchConfig.parse("general:8") == SearchConfig.general(8)
        with pytest.raises(ValueError):
            SearchConfig.parse("cubic")
        with pytest.raises(ValueError):
            SearchConfig.parse("npower:x")

    def test_labels(self):
        assert SearchConfig.linear().label == "linear"
        assert SearchConfig.npower(2).label == "npower:2"
        assert SearchConfig.general(8).label == "general:8"

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig("linear", 2)
        with pytest.raises(ValueError):
            SearchConfig("npower", 0)
        with pytest.raises(ValueError):
            SearchConfig("general", -1)
        with pytest.raises(ValueError):
            SearchConfig("bogus", 1)


class TestSubsumFilter:
    def test_examples(self):
        assert has_zero_proper_subsum((1, -1, 1, -1)) is True
        assert has_zero_proper_subsum((7, -1, -1, -5)) is False
        assert has_zero_proper_subsum((5, -5, 1, -1)) is True

    def test_vanishing_triple_with_nonzero_total(self):
        assert has_zero_proper_subsum((3, -2, -1, 10)) is True

    def test_validation(self):
        with pytest.raises(ValueError):
            has_zero_proper_subsum((1, 2, 3))
        with pytest.raises(ValueError):
            has_zero_proper_subsum((1, 0, 2, -3))

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(404)
        checked_zero_total = 0
        for _ in range(3000):
            quad = [rng.choice([v for v in range(-9, 10) if v != 0]) for _ in range(4)]
            if rng.random() < 0.5:
                # steer towards zero totals to hit the triple shortcut
                quad[3] = -sum(quad[:3]) or quad[3]
            if any(v == 0 for v in quad):
                continue
            if sum(quad) == 0:
                checked_zero_total += 1
            assert has_zero_proper_subsum(quad) == exhaustive_zero_subsum(quad), quad
        assert checked_zero_total > 100


class TestCanonicalization:
    def test_ordering(self):
        assert canonicalize_values((-1, -1, -1, 3)) == (3, -1, -1, -1)
        assert canonicalize_values((1, 1, -25, 23)) == (25, -23, -1, -1)
        assert canonicalize_values((7, -1, -1, -5)) == (7, -5, -1, -1)

    def test_tie_break_puts_positive_first(self):
        # equal magnitudes: +v sorts before -v
        assert canonicalize_values((-5, 5, 1, -1)) == (5, -5, 1, -1)

    def test_idempotent_on_random_input(self):
        rng = random.Random(5150)
        for _ in range(500):
            vs = [rng.choice([v for v in range(-99, 100) if v != 0]) for _ in range(4)]
            once = canonicalize_values(vs)
            assert canonicalize_values(once) == once
            assert once[0] > 0


class TestRelation:
    def test_from_signed_values_canonicalizes(self):
        s = InversionSet.of(3)
        rel = Relation.from_signed_values(s, (-1, 3, -1, -1))
        assert rel.values == (3, -1, -1, -1)
        assert rel.pretty() == "3 = 1 + 1 + 1"

    def test_pretty_mixed_signs(self):
        s = InversionSet.of(5, 7)
        rel = Relation.from_signed_values(s, (7, -5, -1, -1))
        assert rel.pretty() == "7 = 5 + 1 + 1"

    def test_rejects_nonvanishing(self):
        with pytest.raises(ValueError):
            Relation.from_signed_values(InversionSet.of(3), (3, -1, -1, -2))

    def test_rejects_subsum(self):
        with pytest.raises(ValueError):
            Relation.from_signed_values(InversionSet.of(2), (2, -2, 4, -4))

    def test_rejects_values_outside_ring(self):
        with pytest.raises(ValueError):
            Relation.from_signed_values(InversionSet.of(3), (7, -5, -1, -1))

    def test_rejects_noncanonical_direct_construction(self):
        s = InversionSet.of(3)
        good = Relation.from_signed_values(s, (3, -1, -1, -1))
        with pytest.raises(ValueError):
            Relation(s, good.terms, (-1, 3, -1, -1))

    def test_json_round_trip(self):
        s = InversionSet.of(5, 23)
        rel = Relation.from_signed_values(s, (23, 1, 1, -25))
        assert Relation.from_json_dict(rel.to_json_dict()) == rel

    def test_json_term_value_is_checked_when_present(self):
        rel = Relation.from_signed_values(InversionSet.of(5, 7), (7, -5, -1, -1))
        d = rel.to_json_dict()
        del d["terms"][1]["value"]  # optional
        d["terms"][2]["value"] = -1  # a JSON number is read like the string
        assert Relation.from_json_dict(d) == rel
        d["terms"][3]["value"] = "-5"
        with pytest.raises(ValueError, match=r"^term value -5 does not match its exponents \(-1\)$"):
            Relation.from_json_dict(d)


# Direct construction over {5, 7}: the canonical relation 7 = 5 + 1 + 1 with
# one thing spoiled per case, and the message of the check that catches it.
_T7, _T5, _T1 = UnitTerm(1, (0, 1)), UnitTerm(-1, (1, 0)), UnitTerm(-1, (0, 0))
_GOOD = ((_T7, _T5, _T1, _T1), (7, -5, -1, -1))
_REJECTIONS = {
    "three terms": ((_T7, _T5, _T1), (7, -5, -2), "exactly four terms"),
    "negative exponent": (
        (UnitTerm(1, (-1, 1)), _T5, _T1, _T1), (7, -5, -1, -1), "exponents must be nonnegative"
    ),
    "exponent vector length": (
        (UnitTerm(1, (0, 1, 0)), _T5, _T1, _T1), (7, -5, -1, -1), "exponent vector length"
    ),
    "term value": ((_T7, _T1, _T5, _T1), (7, -5, -1, -1), r"does not evaluate to -5$"),
    "nonzero sum": (
        (_T7, _T5, _T1, UnitTerm(1, (0, 0))), (7, -5, -1, 1), "must sum to zero"
    ),
    "vanishing pair": (
        (_T7, UnitTerm(-1, (0, 1)), UnitTerm(1, (0, 0)), _T1), (7, -7, 1, -1),
        "vanishing proper subsum",
    ),
    "negative head": (
        (UnitTerm(-1, (0, 1)), UnitTerm(1, (1, 0)), UnitTerm(1, (0, 0)), UnitTerm(1, (0, 0))),
        (-7, 5, 1, 1),
        "not in canonical form",
    ),
    "out of order": ((_T7, _T1, _T5, _T1), (7, -1, -5, -1), "not in canonical form"),
    "values as a list": (_GOOD[0], list(_GOOD[1]), "not in canonical form"),
    "float values": (_GOOD[0], (7.0, -5.0, -1.0, -1.0), "must be ints"),
    "Fraction values": (_GOOD[0], tuple(map(Fraction, _GOOD[1])), "must be ints"),
}


class TestRelationRejections:
    """One spoiled direct construction per check, each with its own message."""

    def test_unspoiled_relation_is_accepted(self):
        rel = Relation(InversionSet.of(5, 7), *_GOOD)
        assert rel == Relation.from_signed_values(InversionSet.of(5, 7), (7, -5, -1, -1))

    @pytest.mark.parametrize("case", list(_REJECTIONS))
    def test_rejected_with_its_message(self, case):
        terms, values, message = _REJECTIONS[case]
        with pytest.raises(ValueError, match=message):
            Relation(InversionSet.of(5, 7), terms, values)

    def test_empty_inversion_set(self):
        # Over Z every term is +-1, so four of them summing to zero contain a
        # vanishing pair; the empty exponent vectors pass the earlier checks.
        one, minus_one = UnitTerm(1, ()), UnitTerm(-1, ())
        with pytest.raises(ValueError, match="vanishing proper subsum"):
            Relation(InversionSet(()), (one, one, minus_one, minus_one), (1, 1, -1, -1))


def _exponents(v, primes):
    factors = trial_factor(abs(v))
    return tuple(factors.count(p) for p in primes)


@functools.lru_cache(maxsize=None)
def _oracle_quads(primes):
    return quadruples_by_completion(products_over(primes, 2))


@st.composite
def relation_candidates(draw):
    """Primes, (sign, exponents) terms and values for a direct construction.

    The values are an oracle relation, a zero-sum quadruple with vanishing
    pairs, or four random S-smooth values.  Each of five spoilers, a
    shuffle, a global sign flip, a nudged exponent or sign, a wrong-length
    exponent vector and a non-tuple or non-int container, applies one time
    in four, so about one candidate in seven is a valid relation.
    """
    primes = tuple(
        sorted(draw(st.lists(st.sampled_from([2, 3, 5, 7]), min_size=1, max_size=2, unique=True)))
    )
    smooth = st.builds(
        lambda sign, exps: sign * math.prod(p**e for p, e in zip(primes, exps)),
        st.sampled_from([1, -1]),
        st.tuples(*[st.integers(0, 3)] * len(primes)),
    )
    kind = draw(st.sampled_from(["relation", "relation", "vanishing pairs", "random"]))
    quads = _oracle_quads(primes)
    if kind == "relation" and quads:
        values = list(draw(st.sampled_from(quads)))
    elif kind == "vanishing pairs":
        x, y = draw(smooth), draw(smooth)
        values = draw(st.permutations([x, -x, y, -y]))
    else:
        values = [draw(smooth) for _ in range(4)]
    spoil = lambda: draw(st.integers(0, 3)) == 0
    if spoil():
        values = [values[i] for i in draw(st.permutations(range(4)))]
    if spoil():
        values = [-v for v in values]
    terms = [(1 if v > 0 else -1, _exponents(v, primes)) for v in values]
    if spoil():
        i = draw(st.integers(0, 3))
        sign, exps = terms[i]
        j = draw(st.integers(0, len(primes) - 1))
        nudge = draw(st.sampled_from(["up", "down", "sign"]))
        if nudge == "sign":
            sign = -sign
        else:
            exps = exps[:j] + (exps[j] + (1 if nudge == "up" else -1),) + exps[j + 1 :]
        terms[i] = (sign, exps)
    if spoil():
        i = draw(st.integers(0, 3))
        terms[i] = (terms[i][0], terms[i][1] + (0,))
    container = tuple
    if spoil():
        container = draw(
            st.sampled_from([list, lambda vs: tuple(map(float, vs)), lambda vs: tuple(map(Fraction, vs))])
        )
    return primes, terms, container(values)


class TestRelationOracle:
    """Direct construction accepts what the naive checks accept, and refuses
    the rest with the message of the first check that fails."""

    @settings(max_examples=300, deadline=None)
    @given(candidate=relation_candidates())
    def test_matches_naive_checks(self, candidate):
        primes, terms, values = candidate
        s = InversionSet(primes)
        units = tuple(UnitTerm(sign, exps) for sign, exps in terms)
        reason = relation_rejection(primes, terms, values)
        if reason is None:
            rel = Relation(s, units, values)
            assert rel == Relation.from_signed_values(s, values)
        else:
            with pytest.raises(ValueError, match=re.escape(reason)):
                Relation(s, units, values)


# The search path over {5, 7} fed one spoiled term-table entry or kernel row
# at a time: (table entries replaced, the row after a good one, the message).
_TABLE_5_7 = {1: (0, 0), 5: (1, 0), 7: (0, 1), 35: (1, 1)}
_ROW = (7, -5, -1, -1)
_SEARCH_SPOILERS = {
    "negative exponent": ({7: (-1, 1)}, _ROW, "exponents must be nonnegative"),
    "exponent vector length": ({7: (0, 1, 0)}, _ROW, "exponent vector length"),
    "term value": ({5: (0, 1)}, _ROW, r"does not evaluate to -5$"),
    "row length": ({}, (7, -5, -1), "exactly four terms"),
    "nonzero sum": ({}, (7, -5, -1, 1), "must sum to zero"),
    "vanishing pair": ({}, (7, -7, 1, -1), "vanishing proper subsum"),
    "out of order": ({}, (7, -1, -5, -1), "not in canonical form"),
    "list row": ({}, list(_ROW), "not in canonical form"),
    "np.int64 values": ({}, tuple(map(np.int64, _ROW)), "must be ints"),
}


class TestFindRelationsChecks:
    """find_relations runs every check of direct construction on its rows."""

    def _search(self, monkeypatch, table, rows):
        monkeypatch.setattr(relsearch, "term_table", lambda *args, **kwargs: table)
        monkeypatch.setattr(relsearch, "zero_quadruples", lambda values, **kwargs: rows)
        return find_relations(InversionSet.of(5, 7), SearchConfig.linear())

    def test_unspoiled_rows_are_relations(self, monkeypatch):
        rels = self._search(monkeypatch, _TABLE_5_7, [_ROW])
        assert rels == [Relation.from_signed_values(InversionSet.of(5, 7), _ROW)]

    @pytest.mark.parametrize("case", list(_SEARCH_SPOILERS))
    def test_spoiled_search_raises_the_direct_message(self, monkeypatch, case):
        spoiled, row, message = _SEARCH_SPOILERS[case]
        table = {**_TABLE_5_7, **spoiled}
        terms = tuple(UnitTerm(1 if v > 0 else -1, table[abs(v)]) for v in row)
        with pytest.raises(ValueError, match=message) as direct:
            Relation(InversionSet.of(5, 7), terms, row)
        with pytest.raises(ValueError) as searched:
            self._search(monkeypatch, table, [_ROW, row])
        assert str(searched.value) == str(direct.value)


class TestTermTable:
    def test_contents(self):
        table = term_table(InversionSet.of(5, 7), 1)
        assert table == {1: (0, 0), 5: (1, 0), 7: (0, 1), 35: (1, 1)}

    def test_ceiling(self):
        with pytest.raises(SearchTooLarge):
            term_table(InversionSet.of(2, 3, 5), 100, ceiling=1000)

    def test_resolve_ceiling_precedence(self, monkeypatch):
        monkeypatch.delenv(CEILING_ENV, raising=False)
        assert resolve_ceiling() == DEFAULT_CEILING
        monkeypatch.setenv(CEILING_ENV, "123")
        assert resolve_ceiling() == 123
        assert resolve_ceiling(7) == 7  # explicit beats the environment

    @pytest.mark.parametrize("text", ["abc", "-5", "1e6", "2.5"])
    def test_resolve_ceiling_refuses_bad_environment(self, monkeypatch, text):
        monkeypatch.setenv(CEILING_ENV, text)
        with pytest.raises(ValueError, match=f"^{CEILING_ENV} must be a nonnegative integer"):
            resolve_ceiling()
        assert resolve_ceiling(7) == 7  # an explicit ceiling never reads it

    def test_resolve_ceiling_refuses_negative_argument(self, monkeypatch):
        monkeypatch.delenv(CEILING_ENV, raising=False)
        with pytest.raises(ValueError, match="^--ceiling must be a nonnegative integer, got -1$"):
            resolve_ceiling(-1)
        assert resolve_ceiling(0) == 0


class TestFindRelations:
    def test_singleton_three(self):
        rels = find_relations(InversionSet.of(3), SearchConfig.general(1))
        assert (3, -1, -1, -1) in [r.values for r in rels]

    def test_pair_sums_refused_before_the_term_table(self, monkeypatch):
        # 60,001 terms fit the default ceiling; their 1,800,090,001 pair sums
        # do not, and the table of 2^0..2^60000 is never built.
        def no_table(*args, **kwargs):
            raise AssertionError("the term table was built")

        monkeypatch.delenv(CEILING_ENV, raising=False)
        monkeypatch.setattr(relsearch, "term_table", no_table)
        with pytest.raises(SearchTooLarge, match="^1800090001 pair sums exceed the ceiling 2000000$"):
            find_relations(InversionSet.of(2), SearchConfig.general(60000))

    def test_singleton_five_empty(self):
        assert find_relations(InversionSet.of(5), SearchConfig.general(10)) == []

    def test_five_seven_linear(self):
        rels = find_relations(InversionSet.of(5, 7), SearchConfig.linear())
        assert (7, -5, -1, -1) in [r.values for r in rels]

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            find_relations(InversionSet(()), SearchConfig.linear())

    def test_rows_sorted_and_well_formed(self):
        s = InversionSet.of(2, 3, 5)
        rels = find_relations(s, SearchConfig.general(2))
        values = [r.values for r in rels]
        assert values == sorted(values)
        assert len(set(values)) == len(values)
        for r in rels:
            assert sum(r.values) == 0
            assert not exhaustive_zero_subsum(r.values)
            assert r.values == canonicalize_values(r.values)
            for t in r.terms:
                assert all(0 <= e <= 2 for e in t.exponents)

    def test_counts_match_oracle(self):
        for primes in [(2, 3), (3, 5), (2, 3, 5), (5, 7, 11), (2, 3, 5, 7)]:
            s = InversionSet(primes)
            got = len(find_relations(s, SearchConfig.linear()))
            assert got == relation_count_oracle(primes, 1), primes

    def test_mode_monotone_in_bound(self):
        s = InversionSet.of(2, 3)
        prev: set = set()
        for bound in range(4):
            cur = {r.values for r in find_relations(s, SearchConfig.general(bound))}
            assert prev <= cur
            prev = cur

    def test_linear_equals_general_one(self):
        for primes in [(3,), (5, 7), (2, 3, 5)]:
            s = InversionSet(primes)
            a = find_relations(s, SearchConfig.linear())
            b = find_relations(s, SearchConfig.general(1))
            assert [r.values for r in a] == [r.values for r in b]

    def test_npower_equals_general_same_bound(self):
        s = InversionSet.of(5, 23)
        a = find_relations(s, SearchConfig.npower(2))
        b = find_relations(s, SearchConfig.general(2))
        assert a == b


@st.composite
def small_searches(draw):
    """A sorted set of 1-3 primes and a bound giving at most 121 terms."""
    primes = draw(
        st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 89, 97]), min_size=1, max_size=3, unique=True)
    )
    bound = draw(st.integers(0, {1: 12, 2: 10, 3: 3}[len(primes)]))
    return sorted(primes), bound


class TestFindRelationsOracle:
    """find_relations row for row against Relation.from_signed_values on the oracle."""

    @settings(max_examples=40, deadline=None)
    @given(search=small_searches())
    @example(search=([3], 39))  # largest term 3^39 > 2^61: pair sums wrap mod P
    @example(search=([2, 89], 10))  # 2^10 * 89^10 > 2^61, 121 terms
    def test_matches_quadruple_oracle(self, search):
        primes, bound = search
        values = products_over(primes, bound)
        s = InversionSet(tuple(primes))
        expected = [
            Relation.from_signed_values(s, q) for q in quadruples_by_completion(values)
        ]
        for backend in available_backends():
            with pytest.MonkeyPatch.context() as mp:
                mp.setenv(BACKEND_ENV, backend)
                assert find_relations(s, SearchConfig.general(bound)) == expected, backend

    def test_examples_reach_the_big_int_engine(self):
        assert max(products_over([3], 39)) > INT64_VALUE_LIMIT
        assert max(products_over([2, 89], 10)) > INT64_VALUE_LIMIT


class TestAdmits:
    def test_examples(self):
        ok, witness = admits_4cycle(InversionSet.of(3), SearchConfig.general(3))
        assert ok and witness.values == (3, -1, -1, -1)
        ok, witness = admits_4cycle(InversionSet.of(5, 11), SearchConfig.linear())
        assert ok and witness.values == (11, -5, -5, -1)
        ok, witness = admits_4cycle(InversionSet.of(5, 17, 257), SearchConfig.linear())
        assert not ok and witness is None


class TestSingletonObstruction:
    def test_small_primes_not_obstructed(self):
        assert singleton_mod_obstruction(2) is False
        assert singleton_mod_obstruction(3) is False

    def test_larger_primes_obstructed(self):
        for p in (5, 7, 11, 13, 97):
            assert singleton_mod_obstruction(p) is True

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            singleton_mod_obstruction(9)


class TestApRelation:
    def test_examples(self):
        assert ap_relation(3, 5, 7).values == (7, -5, -5, 3)
        assert ap_relation(3, 7, 11).values == (11, -7, -7, 3)

    def test_rejects_non_progression(self):
        with pytest.raises(ValueError):
            ap_relation(3, 5, 11)

    def test_rejects_composites_and_disorder(self):
        with pytest.raises(ValueError):
            ap_relation(3, 6, 9)
        with pytest.raises(ValueError):
            ap_relation(7, 5, 3)


class TestDoubletonFamilies:
    def test_twin(self):
        rel = doubleton_family(5, TWIN)
        assert rel.inversion_set.primes == (5, 7)
        assert rel.values == (7, -5, -1, -1)

    def test_pn_minus_2(self):
        rel = doubleton_family(5, PN_MINUS_2, n=2)
        assert rel.inversion_set.primes == (5, 23)
        assert rel.values == (25, -23, -1, -1)

    def test_two_p_plus_1(self):
        rel = doubleton_family(5, TWO_P_PLUS_1)
        assert rel.inversion_set.primes == (5, 11)
        assert rel.values == (11, -5, -5, -1)

    def test_inapplicable_partner(self):
        with pytest.raises(ValueError):
            doubleton_family(7, TWIN)  # 9 is composite
        with pytest.raises(ValueError):
            doubleton_family(13, TWO_P_PLUS_1)  # 27 is composite

    def test_p_not_prime(self):
        with pytest.raises(ValueError, match="9 is not prime"):
            doubleton_family(9, TWIN)

    def test_pn_minus_2_degenerate_at_two(self):
        # 2^2 - 2 = 2 is prime but equals p.
        with pytest.raises(ValueError, match="family pn_minus_2 degenerates at p=2"):
            doubleton_family(2, PN_MINUS_2, n=2)

    def test_pn_minus_2_needs_power(self):
        with pytest.raises(ValueError):
            doubleton_family(5, PN_MINUS_2)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            doubleton_family(5, "cousin")

    def test_rediscovered_by_search(self):
        rel = doubleton_family(5, TWIN)
        assert rel in find_relations(rel.inversion_set, SearchConfig.linear())
        rel = doubleton_family(5, PN_MINUS_2, n=2)
        assert rel in find_relations(rel.inversion_set, SearchConfig.npower(2))


class TestBbInequality:
    def test_examples(self):
        r3 = Relation.from_signed_values(InversionSet.of(3), (3, -1, -1, -1))
        assert check_bb_inequality(r3, 1, 1) is True
        r57 = Relation.from_signed_values(InversionSet.of(5, 7), (7, -1, -1, -5))
        assert check_bb_inequality(r57, 1, 1) is True
        assert check_bb_inequality(r3, Fraction(1, 28), 0) is False

    def test_exact_boundary(self):
        # 3 <= C * 3^3 becomes an equality at C = 1/9: must count as holding
        r3 = Relation.from_signed_values(InversionSet.of(3), (3, -1, -1, -1))
        assert check_bb_inequality(r3, Fraction(1, 9), 0) is True
        assert check_bb_inequality(r3, Fraction(1, 10), 0) is False

    def test_fractional_epsilon(self):
        r3 = Relation.from_signed_values(InversionSet.of(3), (3, -1, -1, -1))
        assert check_bb_inequality(r3, Fraction(1, 9), Fraction(1, 2)) is True

    def test_common_factor_divided_out(self):
        # (6,-2,-2,-2) reduces to (3,-1,-1,-1): same verdicts as the reduced form
        r = Relation.from_signed_values(InversionSet.of(2, 3), (6, -2, -2, -2))
        assert check_bb_inequality(r, Fraction(1, 9), 0) is True
        assert check_bb_inequality(r, Fraction(1, 10), 0) is False

    def test_validation(self):
        r3 = Relation.from_signed_values(InversionSet.of(3), (3, -1, -1, -1))
        with pytest.raises(ValueError):
            check_bb_inequality(r3, 0, 1)
        with pytest.raises(ValueError):
            check_bb_inequality(r3, 1, -1)
