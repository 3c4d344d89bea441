import itertools
import math
import random
from fractions import Fraction

import pytest

from unitcycle.relsearch import Relation
from unitcycle.sring import (
    InversionSet,
    UnitTerm,
    are_associates,
    is_member,
    is_unit,
    term_from_json,
    term_to_json,
    term_value,
    scaled_unit_scan,
    unit_count,
    unit_scan,
)


class TestInversionSet:
    def test_of_sorts(self):
        assert InversionSet.of(7, 5).primes == (5, 7)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            InversionSet.of(4)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            InversionSet.of(5, 5)
        with pytest.raises(ValueError):
            InversionSet((5, 3))  # must come pre-sorted via the raw constructor

    def test_parse(self):
        assert InversionSet.parse("5,7").primes == (5, 7)
        assert InversionSet.parse("7, 5").primes == (5, 7)
        assert InversionSet.parse("").primes == ()
        assert InversionSet.parse("Z").primes == ()
        assert InversionSet.parse("z").primes == ()

    def test_container_protocol(self):
        s = InversionSet.of(5, 7)
        assert len(s) == 2
        assert list(s) == [5, 7]
        assert 5 in s and 11 not in s

    def test_ring_name(self):
        assert InversionSet(()).ring_name() == "Z"
        assert InversionSet.of(5, 7).ring_name() == "Z[1/5,1/7]"


class TestMembership:
    def test_examples(self):
        s = InversionSet.of(5, 7)
        assert is_member(Fraction(101, 7), s) is True
        assert is_member(Fraction(1, 3), s) is False

    def test_integers_always_members(self):
        assert is_member(42, InversionSet(()))
        assert is_member(0, InversionSet(()))
        assert is_member(-3, InversionSet.of(2))

    def test_z_rejects_fractions(self):
        assert is_member(Fraction(1, 2), InversionSet(())) is False


class TestUnits:
    def test_examples(self):
        s = InversionSet.of(5, 7)
        assert is_unit(35, s) is True
        assert is_unit(3, s) is False
        assert is_unit(1, InversionSet(())) is True

    def test_signs_and_fractions(self):
        s = InversionSet.of(5, 7)
        assert is_unit(-1, s)
        assert is_unit(Fraction(5, 7), s)
        assert is_unit(Fraction(-1, 35), s)
        assert not is_unit(Fraction(5, 3), s)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_unit(0, InversionSet.of(2))


class TestAssociates:
    def test_examples(self):
        assert are_associates(3, 3, InversionSet.of(2)) is True
        assert are_associates(10, 2, InversionSet.of(5)) is True
        assert are_associates(3, 1, InversionSet.of(2)) is False

    def test_symmetric(self):
        s = InversionSet.of(3)
        assert are_associates(2, 18, s) and are_associates(18, 2, s)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            are_associates(0, 1, InversionSet.of(2))


class TestUnitTerm:
    def test_values(self):
        s = InversionSet.of(5, 7)
        assert term_value(UnitTerm(1, (1, 1)), s) == 35
        assert term_value(UnitTerm(-1, (0, 0)), s) == -1
        assert term_value(UnitTerm(1, (-1, 0)), s) == Fraction(1, 5)

    def test_sign_validation(self):
        with pytest.raises(ValueError):
            UnitTerm(0, (1,))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            term_value(UnitTerm(1, (1,)), InversionSet.of(5, 7))

    def test_json_round_trip(self):
        s = InversionSet.of(5, 7)
        t = UnitTerm(-1, (2, 1))
        d = term_to_json(t, s)
        assert d == {"sign": -1, "exponents": [2, 1], "value": "-175"}
        assert term_from_json(d) == t

    def test_json_fractional_value(self):
        s = InversionSet.of(5)
        assert term_to_json(UnitTerm(1, (-2,)), s)["value"] == "1/25"


def fraction_loop_value(t: UnitTerm, s: InversionSet) -> Fraction:
    """Reference value: sign times Fraction prime powers, one factor at a time."""
    v = Fraction(t.sign)
    for p, e in zip(s.primes, t.exponents):
        v *= Fraction(p) ** e
    return v


class TestTermValue:
    def test_matches_fraction_loop_on_mixed_signs(self):
        rng = random.Random(7)
        s = InversionSet.of(2, 3, 5, 89)
        for _ in range(500):
            t = UnitTerm(rng.choice((-1, 1)), tuple(rng.randint(-6, 6) for _ in s.primes))
            v = term_value(t, s)
            assert type(v) is Fraction
            assert v == fraction_loop_value(t, s), t

    def test_json_values_unchanged(self):
        s = InversionSet.of(5, 7)
        assert term_to_json(UnitTerm(1, (1, 1)), s)["value"] == "35"
        assert term_to_json(UnitTerm(-1, (0, 0)), s)["value"] == "-1"
        assert term_to_json(UnitTerm(1, (-1, 0)), s)["value"] == "1/5"

    def test_relation_still_checks_term_values(self):
        s = InversionSet.of(3)
        rel = Relation.from_signed_values(s, (-1, 3, -1, -1))
        assert rel.values == (3, -1, -1, -1)
        wrong = (UnitTerm(1, (0,)),) + rel.terms[1:]
        with pytest.raises(ValueError, match="does not evaluate"):
            Relation(s, wrong, rel.values)


def fraction_power_scan(s: InversionSet, bound: int) -> list[Fraction]:
    """Reference scan: Fraction prime powers over exponents 0, 1, -1, ..."""
    order = [0]
    for e in range(1, bound + 1):
        order.append(e)
        order.append(-e)
    out = []
    for exps in itertools.product(order, repeat=len(s)):
        mag = Fraction(1)
        for p, e in zip(s.primes, exps):
            mag *= Fraction(p) ** e
        out.append(mag)
        out.append(-mag)
    return out


class TestUnitScan:
    @pytest.mark.parametrize(
        "primes,bound",
        [((), 0), ((), 3), ((2,), 0), ((2,), 6), ((7,), 5), ((2, 3), 4), ((2, 3, 5), 3)],
    )
    def test_matches_fraction_power_scan(self, primes, bound):
        s = InversionSet(primes)
        units = unit_scan(s, bound)
        assert units == fraction_power_scan(s, bound)
        assert all(type(u) is Fraction for u in units)
        assert len(units) == unit_count(s, bound) == 2 * (2 * bound + 1) ** len(primes)
        d, scaled = scaled_unit_scan(s, bound)
        assert d == math.prod(p**bound for p in primes)
        assert scaled == [d * u for u in units] and all(type(x) is int for x in scaled)

    def test_order_starts_small(self):
        assert unit_scan(InversionSet.of(3), 1) == [1, -1, 3, -3, Fraction(1, 3), Fraction(-1, 3)]
