import itertools
import re
import types
import xml.etree.ElementTree as ET

import pytest

from helpers import relation_count_oracle
from unitcycle.backends import SearchTooLarge
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
