import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import is_member_oracle, is_unit_oracle, unit_scan_oracle
from unitcycle.avoidance import AvoidanceCertificate, abc_pair, separation_certificate
from unitcycle.cycles import CycleWitness, lagrange_cycle_poly
from unitcycle.lenstra import CliqueWitness
from unitcycle.relsearch import Relation, SearchConfig
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


class TestUnitScan:
    @pytest.mark.parametrize(
        "primes,bound",
        [((), 0), ((), 3), ((2,), 0), ((2,), 6), ((7,), 5), ((2, 3), 4), ((2, 3, 5), 3)],
    )
    def test_matches_fraction_power_scan(self, primes, bound):
        s = InversionSet(primes)
        d, scaled = scaled_unit_scan(s, bound)
        units = [Fraction(x, d) for x in scaled]
        assert units == unit_scan_oracle(primes, bound)
        assert all(type(u) is Fraction for u in units)
        assert len(units) == unit_count(s, bound) == 2 * (2 * bound + 1) ** len(primes)
        assert d == math.prod(p**bound for p in primes)
        assert scaled == [d * u for u in units] and all(type(x) is int for x in scaled)

    def test_order_starts_small(self):
        d, scaled = scaled_unit_scan(InversionSet.of(3), 1)
        units = [Fraction(x, d) for x in scaled]
        assert units == [1, -1, 3, -3, Fraction(1, 3), Fraction(-1, 3)]


# Rationals over the first six primes; the ring takes some of them, so the
# numerator and the denominator mix primes in S with primes outside it.
POOL = (2, 3, 5, 7, 11, 13)
rings = st.lists(st.sampled_from(POOL), unique=True, max_size=4).map(lambda ps: tuple(sorted(ps)))
smooth = st.lists(st.tuples(st.sampled_from(POOL), st.integers(0, 3)), max_size=4).map(
    lambda pes: math.prod(p**e for p, e in pes)
)
nonzero = st.builds(lambda sign, n, d: Fraction(sign * n, d), st.sampled_from((1, -1)), smooth, smooth)
rationals = st.one_of(st.just(Fraction(0)), nonzero)


class TestPredicatesOracle:
    @settings(max_examples=300, deadline=None)
    @given(primes=rings, q=rationals)
    def test_is_member(self, primes, q):
        assert is_member(q, InversionSet(primes)) is is_member_oracle(q, primes)

    @settings(max_examples=300, deadline=None)
    @given(primes=rings, q=nonzero)
    def test_is_unit(self, primes, q):
        assert is_unit(q, InversionSet(primes)) is is_unit_oracle(q, primes)

    @settings(max_examples=300, deadline=None)
    @given(primes=rings, a=nonzero, b=nonzero)
    def test_are_associates(self, primes, a, b):
        assert are_associates(a, b, InversionSet(primes)) is is_unit_oracle(a / b, primes)


class TestJsonBoundary:
    """from_json_dict hands raw JSON to the constructors, which coerce it once."""

    WITNESSES = [
        Relation.from_signed_values(InversionSet.of(2, 3), (1, 1, 1, -3)),
        lagrange_cycle_poly((-10, -3, -4, -9), InversionSet.of(5, 7)),
        CliqueWitness(InversionSet.of(2), (Fraction(0), Fraction(1), Fraction(-1))),
        separation_certificate(InversionSet.of(5, 17, 257), SearchConfig.linear()),
    ]

    @pytest.mark.parametrize("w", WITNESSES, ids=lambda w: type(w).__name__)
    def test_string_primes_round_trip(self, w):
        d = w.to_json_dict()
        d["inversion_set"] = [str(p) for p in d["inversion_set"]]
        # Coefficients, points and elements are written as strings already.
        assert all(type(c) is str for c in d.get("coefficients", ()))
        assert type(w).from_json_dict(d) == w

    @pytest.mark.parametrize("w", WITNESSES, ids=lambda w: type(w).__name__)
    def test_non_list_inversion_set(self, w):
        d = w.to_json_dict()
        d["inversion_set"] = 5
        with pytest.raises(TypeError, match="inversion_set must be a JSON array, got int"):
            type(w).from_json_dict(d)

    ARRAY_FIELDS = [(w, "inversion_set") for w in WITNESSES] + [
        (WITNESSES[0], "terms"),
        (WITNESSES[1], "points"),
        (WITNESSES[1], "coefficients"),
        (WITNESSES[2], "elements"),
        (WITNESSES[3], "products"),
        (WITNESSES[3], "checks"),
        (abc_pair(1, 9), "checks"),
    ]

    @pytest.mark.parametrize(
        "w,field", ARRAY_FIELDS, ids=[f"{type(w).__name__}-{f}" for w, f in ARRAY_FIELDS]
    )
    def test_string_array_field_refused(self, w, field):
        # A JSON string is iterable, so it would otherwise be read char by char.
        d = w.to_json_dict()
        d[field] = "".join(str(x) for x in d[field])
        with pytest.raises(TypeError, match=f"{field} must be a JSON array, got str"):
            type(w).from_json_dict(d)

    def test_string_exponents_refused(self):
        d = self.WITNESSES[0].to_json_dict()
        d["terms"][0]["exponents"] = "10"
        with pytest.raises(TypeError, match="exponents must be a JSON array, got str"):
            Relation.from_json_dict(d)
        with pytest.raises(TypeError, match="exponents must be a JSON array, got str"):
            term_from_json({"sign": 1, "exponents": "10"})

    def test_string_points_cycle_refused(self):
        # Read char by char, "1234" would give the points 1, 2, 3, 4 of a real cycle.
        d = lagrange_cycle_poly((1, 2, 3, 4), InversionSet.of(3)).to_json_dict()
        d.update(inversion_set="3", points="1234")
        with pytest.raises(TypeError, match="inversion_set must be a JSON array, got str"):
            CycleWitness.from_json_dict(d)
        d["inversion_set"] = [3]
        with pytest.raises(TypeError, match="points must be a JSON array, got str"):
            CycleWitness.from_json_dict(d)
