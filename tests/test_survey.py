import hashlib
import itertools
import re
import types
import xml.etree.ElementTree as ET

import pytest

from helpers import relation_count_oracle
from unitcycle import backends
from unitcycle.backends import SearchTooLarge
from unitcycle.exactnum import first_primes
from unitcycle.relsearch import SearchConfig, find_relations
import unitcycle.survey as survey_module
from unitcycle.sring import InversionSet
from unitcycle.survey import (
    CSV_HEADER,
    ScatterAggregate,
    SurveyRow,
    aggregate_rows,
    csv_bytes,
    emit_csv,
    emit_scatter_svg,
    min_gap,
    survey_run,
    svg_bytes,
)


class TestMinGap:
    def test_reference_list(self):
        assert min_gap(InversionSet.of(37, 73, 83, 127, 157)) == 10

    def test_small(self):
        assert min_gap((3, 5)) == 2
        assert min_gap([11, 2, 5]) == 3

    def test_needs_two(self):
        with pytest.raises(ValueError):
            min_gap(InversionSet.of(5))
        with pytest.raises(ValueError):
            min_gap([])


class TestSurveyRun:
    def test_six_choose_five(self):
        rows, agg = survey_run(6, 5)
        assert len(rows) == 6
        assert [r.primes for r in rows] == sorted(r.primes for r in rows)
        for r in rows:
            assert r.relation_count == relation_count_oracle(r.primes, 1), r.primes
            assert r.min_gap == min_gap(r.primes)
        assert agg.total == 6

    def test_single_subset(self):
        rows, _ = survey_run(5, 5)
        assert len(rows) == 1
        assert rows[0].primes == (2, 3, 5, 7, 11)
        assert rows[0].relation_count > 0
        assert rows[0].relation_count == relation_count_oracle((2, 3, 5, 7, 11), 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            survey_run(4, 5)
        with pytest.raises(ValueError):
            survey_run(5, 1)

    def test_subset_ceiling(self, monkeypatch):
        monkeypatch.setattr(survey_module, "SUBSET_CEILING", 3)
        with pytest.raises(SearchTooLarge) as e:
            survey_run(6, 5)
        assert "--full" in str(e.value) or "full=True" in str(e.value)

    def test_subset_ceiling_boundary(self, monkeypatch):
        # survey_run(6, 5) has 6 subsets: a ceiling of 6 runs every one, and
        # a ceiling of 5 refuses them.
        monkeypatch.setattr(survey_module, "SUBSET_CEILING", 6)
        rows, _ = survey_run(6, 5)
        assert len(rows) == 6
        monkeypatch.setattr(survey_module, "SUBSET_CEILING", 5)
        with pytest.raises(SearchTooLarge, match="^6 subsets exceed the ceiling 5; "):
            survey_run(6, 5)

    def test_full_overrides_ceiling(self, monkeypatch):
        monkeypatch.setattr(survey_module, "SUBSET_CEILING", 3)
        rows, _ = survey_run(6, 5, full=True)
        assert len(rows) == 6

    def test_search_ceiling_reaches_each_subset(self):
        # Each 5-prime subset in linear mode has 32 terms and 528 pair sums.
        with pytest.raises(SearchTooLarge, match="^528 pair sums exceed the ceiling 100$"):
            survey_run(6, 5, ceiling=100)
        rows, _ = survey_run(6, 5, ceiling=528)
        assert len(rows) == 6

    def test_search_ceiling_checked_before_any_count(self, monkeypatch):
        # find_relations' messages, in its order (terms, then pair sums),
        # raised once before any subset's terms are built.
        def no_terms(*args):
            raise AssertionError("a subset's terms were built")

        monkeypatch.setattr(survey_module, "term_products", no_terms)
        with pytest.raises(SearchTooLarge, match="^32 candidate terms exceed the ceiling 20$"):
            survey_run(6, 5, ceiling=20)
        with pytest.raises(SearchTooLarge, match="^528 pair sums exceed the ceiling 100$"):
            survey_run(6, 5, ceiling=100)
        for size, ceiling in ((3, 7), (3, 35), (5, 527)):
            with pytest.raises(SearchTooLarge) as raised:
                survey_run(8, size, ceiling=ceiling)
            with pytest.raises(SearchTooLarge) as direct:
                find_relations(InversionSet(first_primes(size)), SearchConfig.linear(), ceiling=ceiling)
            assert str(raised.value) == str(direct.value)

    @pytest.mark.parametrize(
        "ceiling, per_batch", [(None, 2**17 // 528), (1000, 1), (528, 1), (528 * 7, 7)]
    )
    def test_batches_fit_the_ceiling(self, monkeypatch, ceiling, per_batch):
        # One join per batch, of at most min(ceiling, 2^17) pair sums: 528
        # for each 5-prime subset in linear mode.
        batches = []
        real = survey_module.count_zero_quadruples

        def spy(segments, *, ceiling):
            batches.append(len(segments))
            return real(segments, ceiling=ceiling)

        monkeypatch.setattr(survey_module, "count_zero_quadruples", spy)
        rows, _ = survey_run(12, 5, ceiling=ceiling)
        assert len(rows) == 792
        assert batches[:-1] == [per_batch] * (len(batches) - 1)
        assert 0 < batches[-1] <= per_batch and sum(batches) == 792

    @pytest.mark.parametrize(
        "pool, size, mode",
        [(12, 5, SearchConfig.linear()), (9, 3, SearchConfig.general(2)),
         (10, 2, SearchConfig.general(4)), (8, 2, SearchConfig.npower(3))],
        ids=["linear", "general:2", "general:4", "npower:3"],
    )
    def test_counts_equal_find_relations(self, pool, size, mode):
        # Every subset of a batch has its own count, which a join that let
        # one subset's sums match another's would inflate.
        rows, _ = survey_run(pool, size, mode)
        assert [r.primes for r in rows] == list(itertools.combinations(first_primes(pool), size))
        for r in rows:
            assert r.relation_count == len(find_relations(InversionSet(r.primes), mode)), r.primes

    def test_same_rows_on_each_backend(self, monkeypatch):
        runs = {}
        for name in backends.available_backends():
            monkeypatch.setenv(backends.BACKEND_ENV, name)
            runs[name] = survey_run(9, 3, SearchConfig.general(2)), survey_run(10, 4, sample=5, seed=6)
        assert runs["numpy"] == runs["python"]

    def test_default_ceiling_blocks_large_pool(self):
        with pytest.raises(SearchTooLarge):
            survey_run(50, 5)

    def test_sampling_deterministic(self):
        a_rows, a_agg = survey_run(10, 3, sample=30)
        b_rows, b_agg = survey_run(10, 3, sample=30)
        assert a_rows == b_rows and a_agg == b_agg
        assert len(a_rows) == 30
        assert [r.primes for r in a_rows] == sorted(r.primes for r in a_rows)

    def test_sampling_seed_changes_selection(self):
        a_rows, _ = survey_run(10, 3, sample=10, seed=1)
        b_rows, _ = survey_run(10, 3, sample=10, seed=2)
        assert [r.primes for r in a_rows] != [r.primes for r in b_rows]

    def test_sample_at_least_total_returns_every_subset(self, monkeypatch):
        every = list(itertools.combinations((2, 3, 5, 7, 11, 13), 5))
        full_rows, full_agg = survey_run(6, 5)
        monkeypatch.setattr(survey_module, "SUBSET_CEILING", 3)
        for n in (6, 7, 100):
            rows, agg = survey_run(6, 5, sample=n)
            assert [r.primes for r in rows] == every
            assert rows == full_rows and agg == full_agg

    def test_sampling_shortfall_raises(self, monkeypatch):
        class OneSubset:
            def __init__(self, seed):
                pass

            def sample(self, pool, k):
                return list(pool[:k])

        monkeypatch.setattr(survey_module, "random", types.SimpleNamespace(Random=OneSubset))
        with pytest.raises(SearchTooLarge, match="only 1 distinct subsets of the 5"):
            survey_run(10, 3, sample=5)
        # No draws are needed when the sample covers every subset.
        rows, _ = survey_run(5, 4, sample=5)
        assert len(rows) == 5

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            survey_run(10, 3, sample=0)

    def test_modes(self):
        rows_lin, _ = survey_run(5, 5, SearchConfig.linear())
        rows_gen, _ = survey_run(5, 5, SearchConfig.general(2))
        assert rows_gen[0].relation_count >= rows_lin[0].relation_count


class TestAggregate:
    def test_frequency_conservation(self):
        rows, agg = survey_run(7, 5)
        assert agg.total == len(rows)
        assert list(agg.points) == sorted(agg.points)

    def test_grouping(self):
        rows = [
            SurveyRow((3, 5), 2, 1),
            SurveyRow((5, 7), 2, 1),
            SurveyRow((3, 7), 4, 0),
        ]
        agg = aggregate_rows(rows)
        assert agg.points == ((2, 1, 2), (4, 0, 1))


class TestCsv:
    def test_header_only(self):
        assert csv_bytes([]) == b"primes;min_gap;relation_count\n"

    def test_row_format(self):
        primes = (37, 73, 83, 127, 157)
        s = InversionSet(primes)
        count = len(find_relations(s, SearchConfig.linear()))
        assert count == relation_count_oracle(primes, 1)
        row = SurveyRow(primes, min_gap(s), count)
        data = csv_bytes([row])
        lines = data.decode("utf-8").split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[1] == f"37,73,83,127,157;10;{count}"
        assert data.endswith(b"\n") and b"\r" not in data

    def test_emit_matches_bytes(self, tmp_path):
        rows, _ = survey_run(6, 5)
        path = emit_csv(rows, tmp_path / "rows.csv")
        assert path.read_bytes() == csv_bytes(rows)


class TestSvg:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            svg_bytes(ScatterAggregate(()))

    def test_single_point(self):
        data = svg_bytes(ScatterAggregate(((10, 2, 1),)))
        text = data.decode("utf-8")
        assert text.count("<circle") == 1
        assert 'r="5.00"' in text

    def test_well_formed_xml_with_labels(self):
        data = svg_bytes(ScatterAggregate(((2, 1, 3), (4, 0, 1))))
        root = ET.fromstring(data.decode("utf-8"))
        assert root.tag.endswith("svg")
        text = data.decode("utf-8")
        assert ">min gap<" in text
        assert ">relation count<" in text

    def test_equal_frequencies_equal_radii(self):
        data = svg_bytes(ScatterAggregate(((2, 1, 3), (4, 2, 3)))).decode("utf-8")
        radii = re.findall(r'<circle[^>]* r="([0-9.]+)"', data)
        assert len(radii) == 2 and radii[0] == radii[1]

    def test_sqrt_scaling(self):
        data = svg_bytes(ScatterAggregate(((2, 1, 1), (4, 2, 4)))).decode("utf-8")
        radii = re.findall(r'<circle[^>]* r="([0-9.]+)"', data)
        assert radii == ["5.00", "10.00"]

    def test_byte_deterministic(self):
        agg = ScatterAggregate(((2, 1, 3), (4, 0, 1), (6, 2, 2)))
        assert svg_bytes(agg) == svg_bytes(agg)

    def test_emit_matches_bytes(self, tmp_path):
        _, agg = survey_run(6, 5)
        path = emit_scatter_svg(agg, tmp_path / "plot.svg")
        assert path.read_bytes() == svg_bytes(agg)


# sha256 of csv_bytes(rows) and svg_bytes(agg), recorded before the survey
# counted with one join per batch of subsets.
SURVEY_DIGESTS = [
    ((12, 5), {}, 792,
     "f38c934ff59b3113cc3555272d79637b17fb70bcd25000190c56329f99552f02",
     "7150ba3d48526a0c01e2994bb18650af3479a54aa3e828bdd1e30e3fae4731d1"),
    ((9, 3, SearchConfig.general(2)), {}, 84,
     "991143b503f110268cf2f65c4a05db14856a6deb474608b38463145ac65f2b47",
     "b6782decb4af07908b6e49729c012258d2db7eed7538c443cf5467db975022e7"),
    ((10, 4), {"sample": 5, "seed": 6}, 5,
     "d4f5a0253b7f80c8e4c566d9dae780bbcf770ec3bb3096fcff538c9e6371fdac",
     "a69dd5c1a56b742cad69f2c48e57a42f8eac1c7628682da9ba22b6f9a68bc3fb"),
]


@pytest.mark.parametrize(
    "args, kwargs, nrows, csv_sha, svg_sha", SURVEY_DIGESTS,
    ids=["12-5-linear", "9-3-general:2", "10-4-sample"],
)
def test_survey_bytes_pinned(args, kwargs, nrows, csv_sha, svg_sha):
    rows, agg = survey_run(*args, **kwargs)
    assert len(rows) == nrows
    assert hashlib.sha256(csv_bytes(rows)).hexdigest() == csv_sha
    assert hashlib.sha256(svg_bytes(agg)).hexdigest() == svg_sha
