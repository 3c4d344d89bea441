import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import trial_factor, zieve_oracle
from unitcycle.backends import SearchTooLarge
from unitcycle.cycles import (
    CycleWitness,
    RationalPolynomial,
    RingMembershipError,
    lagrange_cycle_poly,
    orbit,
    relation_from_cycle,
    verify_cycle,
    zieve_unit_search,
)
from unitcycle.relsearch import Relation, SearchConfig, find_relations
from unitcycle.sring import InversionSet

F = Fraction

# The four published cycles: (points, primes, coefficients lowest degree first).
GOLDEN = [
    ((1, 2, 3, 4), (3,), (5, F(-19, 3), 4, F(-2, 3))),
    ((-14, -15, 10, 9), (5, 23), (F(-16019, 115), F(3127, 575), F(112, 115), F(-2, 575))),
    ((-10, -5, -4, 1), (5, 11), (F(7, 11), F(-39, 5), F(-146, 55), F(-2, 11))),
    ((-10, -3, -4, -9), (5, 7), (F(101, 7), F(221, 35), F(-4, 35), F(-2, 35))),
]


class TestRationalPolynomial:
    def test_parse_and_str(self):
        p = RationalPolynomial.parse("5,-19/3,4,-2/3")
        assert p.coefficients == (5, F(-19, 3), 4, F(-2, 3))
        assert str(p) == "-2/3x^3 + 4x^2 - 19/3x + 5"

    def test_str_corner_cases(self):
        assert str(RationalPolynomial(())) == "0"
        assert str(RationalPolynomial((0, 1))) == "x"
        assert str(RationalPolynomial((0, -1))) == "-x"
        assert str(RationalPolynomial((2, 0, 1))) == "x^2 + 2"

    def test_trailing_zeros_trimmed(self):
        assert RationalPolynomial((1, 2, 0, 0)).degree == 1

    def test_evaluate_exact(self):
        p = RationalPolynomial((5, F(-19, 3), 4, F(-2, 3)))
        assert p(1) == 2 and p(2) == 3 and p(3) == 4 and p(4) == 1
        assert p(F(1, 2)) == F(11, 4)


class TestLagrange:
    def test_golden_coefficients(self):
        for points, primes, coeffs in GOLDEN:
            w = lagrange_cycle_poly(points, InversionSet(primes))
            assert w.poly.coefficients == coeffs, points

    def test_interpolation_exact(self):
        w = lagrange_cycle_poly((1, 2, 3, 4), InversionSet.of(3))
        for i, x in enumerate(w.points):
            assert w.poly(x) == w.points[(i + 1) % 4]

    def test_repeated_points_rejected(self):
        with pytest.raises(ValueError):
            lagrange_cycle_poly((1, 2, 2, 4), InversionSet.of(3))

    def test_point_outside_ring(self):
        with pytest.raises(RingMembershipError) as e:
            lagrange_cycle_poly((F(1, 2), 1, 2, 3), InversionSet.of(3))
        assert e.value.bad_prime == 2
        assert e.value.role == "point"

    def test_coefficient_outside_ring(self):
        # the interpolant for (1,2,3,4) needs 1/3, not available over {2}
        with pytest.raises(RingMembershipError) as e:
            lagrange_cycle_poly((1, 2, 3, 4), InversionSet.of(2))
        assert e.value.bad_prime == 3
        assert "coefficient" in e.value.role

    @settings(max_examples=200, deadline=None)
    @given(
        primes=st.lists(st.sampled_from((2, 3, 5, 7, 11)), unique=True, max_size=3),
        num=st.integers(-10**4, 10**4),
        den=st.integers(1, 10**4),
    )
    def test_bad_prime_is_smallest_outside_ring(self, primes, num, den):
        # Four points sharing one denominator: the first point is refused
        # exactly when that denominator has a prime factor outside the ring.
        x = F(num, den)
        outside = [p for p in trial_factor(x.denominator) if p not in primes]
        if not outside:
            return
        with pytest.raises(RingMembershipError) as e:
            lagrange_cycle_poly((x, x + 1, x + 2, x + 3), InversionSet.of(*primes))
        assert e.value.bad_prime == min(outside)
        assert e.value.role == "point" and e.value.value == x

    def test_witness_json_round_trip(self):
        w = lagrange_cycle_poly((-10, -3, -4, -9), InversionSet.of(5, 7))
        assert CycleWitness.from_json_dict(w.to_json_dict()) == w

    @pytest.mark.parametrize("points", [(1, 2, 3), (1, 2, 3, 4, 5)])
    def test_needs_four_points(self, points):
        with pytest.raises(ValueError, match="exactly four points required"):
            lagrange_cycle_poly(points, InversionSet.of(3))


class TestVerifyCycle:
    def test_golden_cycles_verify(self):
        for points, primes, coeffs in GOLDEN:
            w = CycleWitness(
                InversionSet(primes),
                tuple(F(x) for x in points),
                RationalPolynomial(coeffs),
            )
            res = verify_cycle(w)
            assert res.ok and res.reason is None, points

    def test_wrong_points(self):
        w = CycleWitness(
            InversionSet.of(3),
            (F(1), F(2), F(3), F(5)),
            RationalPolynomial((5, F(-19, 3), 4, F(-2, 3))),
        )
        res = verify_cycle(w)
        assert not res
        assert res.reason == "point_2_does_not_map_to_successor"

    def test_repeated_point(self):
        w = CycleWitness(
            InversionSet.of(3),
            (F(1), F(1), F(3), F(4)),
            RationalPolynomial((0, 1)),
        )
        assert verify_cycle(w).reason == "repeated_point"

    def test_point_not_in_ring(self):
        w = CycleWitness(
            InversionSet.of(3),
            (F(1, 2), F(1), F(3), F(4)),
            RationalPolynomial((0, 1)),
        )
        assert verify_cycle(w).reason == "point_not_in_ring"

    def test_coefficient_not_in_ring(self):
        w = CycleWitness(
            InversionSet(()),
            (F(1), F(2), F(3), F(4)),
            RationalPolynomial((5, F(-19, 3), 4, F(-2, 3))),
        )
        assert verify_cycle(w).reason == "coefficient_not_in_ring"

    @pytest.mark.parametrize("points", [(F(1), F(2), F(3)), (F(1), F(2), F(3), F(4), F(5))])
    def test_needs_four_points(self, points):
        w = CycleWitness(InversionSet.of(3), points, RationalPolynomial((0, 1)))
        with pytest.raises(ValueError, match="a 4-cycle witness needs exactly four points"):
            verify_cycle(w)


class TestOrbit:
    def test_golden_four_cycle(self):
        poly = RationalPolynomial((5, F(-19, 3), 4, F(-2, 3)))
        rep = orbit(poly, 1, 10)
        assert rep.outcome == "periodic"
        assert rep.preperiod == 0
        assert rep.period == 4

    def test_fixed_point(self):
        rep = orbit(RationalPolynomial((0, 1)), 0, 5)
        assert (rep.outcome, rep.preperiod, rep.period) == ("periodic", 0, 1)

    def test_two_cycle(self):
        rep = orbit(RationalPolynomial((0, -1)), 1, 5)
        assert (rep.outcome, rep.preperiod, rep.period) == ("periodic", 0, 2)

    def test_preperiod(self):
        # x -> x^2 from -1: -1, 1, 1, ...
        rep = orbit(RationalPolynomial((0, 0, 1)), -1, 5)
        assert (rep.outcome, rep.preperiod, rep.period) == ("periodic", 1, 1)

    def test_no_cycle(self):
        rep = orbit(RationalPolynomial((1, 1)), 0, 5)
        assert rep.outcome == "no_cycle"
        assert rep.iterations == 5

    def test_escaping(self):
        rep = orbit(RationalPolynomial((1, 0, 1)), 1, 10**6)
        assert rep.outcome == "escaping"
        assert rep.iterations < 20

    def test_validation(self):
        with pytest.raises(ValueError):
            orbit(RationalPolynomial((0, 1)), 0, 0)

    def test_json(self):
        rep = orbit(RationalPolynomial((0, 1)), 0, 5)
        assert rep.to_json_dict() == {
            "outcome": "periodic",
            "preperiod": 0,
            "period": 1,
            "iterations": 1,
        }


class TestZieve:
    def test_examples(self):
        assert zieve_unit_search(InversionSet.of(2), 2) == (2, 1)
        assert zieve_unit_search(InversionSet.of(3), 2) == (1, 1)
        assert zieve_unit_search(InversionSet.of(5), 6) is None

    def test_validation_and_ceiling(self):
        with pytest.raises(ValueError):
            zieve_unit_search(InversionSet.of(2), -1)
        with pytest.raises(SearchTooLarge):
            zieve_unit_search(InversionSet.of(2, 3, 5), 30, ceiling=100)

    # The grid the int scan was first checked on; the oracle's Fraction scan
    # takes about a second on {5,17,257} at bound 2, so bound 3 is pinned
    # by its answer instead.
    @pytest.mark.parametrize(
        "primes,bound",
        [((2,), 2), ((5,), 6), ((7,), 5), ((5, 7), 3), ((5, 13), 3), ((13, 17), 3),
         ((5, 79), 3), ((5, 17, 257), 2)],
        ids=str,
    )
    def test_grid_matches_fraction_oracle(self, primes, bound):
        assert zieve_unit_search(InversionSet(primes), bound) == zieve_oracle(primes, bound)

    def test_three_primes_bound_3_has_no_pair(self):
        assert zieve_unit_search(InversionSet.of(5, 17, 257), 3) is None

    @settings(max_examples=60, deadline=None)
    @given(
        primes=st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19]), max_size=2, unique=True),
        bound=st.integers(0, 3),
    )
    def test_matches_fraction_oracle(self, primes, bound):
        primes = tuple(sorted(primes))
        hit = zieve_unit_search(InversionSet(primes), bound)
        assert hit == zieve_oracle(primes, bound)
        if hit is not None:
            assert all(type(x) is Fraction for x in hit)

    def test_found_pair_satisfies_criterion(self):
        from unitcycle.sring import are_associates, is_unit

        for primes, bound in [((2,), 3), ((3,), 3), ((2, 3), 2), ((3, 5), 2)]:
            s = InversionSet(primes)
            hit = zieve_unit_search(s, bound)
            assert hit is not None, primes
            u, v = hit
            assert is_unit(u, s) and is_unit(v, s)
            assert are_associates(u + v, u + 1, s)
            assert is_unit(1 + u + v, s)

    def test_witness_implies_relation_exists(self):
        # from (u, v) the difference chain 1, u, v, -(1+u+v) clears to an
        # integer vanishing quadruple; when v = -1 fall back to the associate
        # equation (u+1) - w*(u-1) = 0 instead, which is always subsum-free
        from unitcycle.relsearch import admits_4cycle

        for primes, bound in [((2,), 3), ((3,), 3), ((2, 3), 2), ((3, 5), 2), ((2, 5), 3)]:
            s = InversionSet(primes)
            hit = zieve_unit_search(s, bound)
            if hit is None:
                continue
            u, v = hit
            if v != -1:
                raw = (F(1), u, v, -(1 + u + v))
            else:
                w = (u + 1) / (u - 1)
                raw = (u, F(1), -w * u, w)
            assert sum(raw) == 0
            lcm = math.lcm(*(q.denominator for q in raw))
            ints = [int(q * lcm) for q in raw]
            rel = Relation.from_signed_values(s, ints)  # validates subsum-freeness
            needed = max(max(t.exponents) for t in rel.terms)
            ok, _ = admits_4cycle(s, SearchConfig.general(max(needed, 1)))
            assert ok, primes


class TestRelationFromCycle:
    def test_examples(self):
        assert relation_from_cycle((1, 2, 3, 4)) == (1, 1, 1, -3)
        assert relation_from_cycle((-10, -3, -4, -9)) == (7, -1, -5, -1)

    def test_repeated_point(self):
        with pytest.raises(ValueError):
            relation_from_cycle((0, 1, 0, 2))

    @pytest.mark.parametrize("points", [(1, 2, 3), (1, 2, 3, 4, 5)])
    def test_needs_four_points(self, points):
        with pytest.raises(ValueError, match="exactly four points required"):
            relation_from_cycle(points)

    def test_sums_to_zero(self):
        assert sum(relation_from_cycle((F(1, 3), 5, -2, 7))) == 0


class TestRelationCycleRoundTrip:
    def _realize(self, rel, s):
        """First value ordering with distinct partial-sum points whose
        interpolant stays in the ring.

        The unit equation is necessary but not sufficient for an actual
        cycle, so some relations (or some orderings) have no realization.
        """
        for perm in itertools.permutations(rel.values):
            pts = [F(0)]
            for step in perm[:3]:
                pts.append(pts[-1] + step)
            if len(set(pts)) != 4:
                continue
            try:
                return lagrange_cycle_poly(tuple(pts), s), perm
            except RingMembershipError:
                continue
        return None, None

    def test_round_trip(self):
        searched = [
            (InversionSet.of(3), SearchConfig.general(2)),
            (InversionSet.of(5, 7), SearchConfig.linear()),
            (InversionSet.of(2, 3), SearchConfig.general(2)),
        ]
        seen = 0
        for s, cfg in searched:
            for rel in find_relations(s, cfg):
                w, perm = self._realize(rel, s)
                if w is None:
                    continue
                assert verify_cycle(w)
                diffs = relation_from_cycle(w.points)
                assert sorted(diffs) == sorted(F(v) for v in rel.values)
                assert diffs == tuple(F(v) for v in perm)
                seen += 1
        assert seen >= 5
