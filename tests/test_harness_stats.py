"""Nearest-rank percentiles and the LatencyStats bundle."""

import pytest

from repro.amp import ScdNode, UniformDelay, run_processes
from repro.core.exceptions import ConfigurationError
from repro.harness import (
    DEFAULT_PERCENTILES,
    LatencyStats,
    decision_latency_stats,
    percentiles,
)


class TestPercentiles:
    def test_nearest_rank_returns_actual_samples(self):
        data = [5, 1, 3, 2, 4]
        marks = percentiles(data, ps=(50, 90, 99, 100))
        assert marks == {50: 3, 90: 5, 99: 5, 100: 5}
        assert all(value in data for value in marks.values())

    def test_single_sample_is_every_percentile(self):
        assert percentiles([7.5], ps=(0, 50, 100)) == {0: 7.5, 50: 7.5, 100: 7.5}

    def test_p0_is_minimum(self):
        assert percentiles([9, 2, 4], ps=(0,)) == {0: 2}

    def test_textbook_quartiles(self):
        # Classic nearest-rank example: ranks ceil(p/100 * 10).
        data = list(range(1, 11))
        marks = percentiles(data, ps=(25, 50, 75))
        assert marks == {25: 3, 50: 5, 75: 8}

    def test_fractional_percentiles_rank_exactly(self):
        # Rank ceil(p/100 * m) from p's decimal value: flooring p * m
        # first gives ranks 1 and 1; float p * m / 100 gives 162.
        assert percentiles([1, 2, 3], ps=(33.4,)) == {33.4: 2}
        assert percentiles(range(1, 202), ps=(0.5,)) == {0.5: 2}
        assert percentiles(range(1, 251), ps=(64.4,)) == {64.4: 161}

    def test_defaults_are_p50_p90_p99(self):
        assert DEFAULT_PERCENTILES == (50.0, 90.0, 99.0)
        assert set(percentiles([1.0, 2.0])) == {50.0, 90.0, 99.0}

    def test_empty_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            percentiles([])

    def test_out_of_range_percentile_rejected(self):
        with pytest.raises(ConfigurationError):
            percentiles([1], ps=(101,))
        with pytest.raises(ConfigurationError):
            percentiles([1], ps=(-1,))

    def test_unsorted_input_is_sorted_internally(self):
        assert percentiles([3, 1, 2], ps=(100,)) == percentiles(
            [1, 2, 3], ps=(100,)
        )


class TestLatencyStats:
    def test_from_samples(self):
        stats = LatencyStats.from_samples([4.0, 1.0, 3.0, 2.0])
        assert stats.count == 4
        assert stats.mean == 2.5
        assert stats.p50 == 2.0
        assert stats.max == 4.0
        assert stats.p50 <= stats.p90 <= stats.p99 <= stats.max

    def test_as_dict_round_trip(self):
        stats = LatencyStats.from_samples([1.0, 2.0])
        d = stats.as_dict()
        assert d["count"] == 2 and d["mean"] == 1.5
        assert set(d) == {"count", "mean", "p50", "p90", "p99", "max"}

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyStats.from_samples([])

    def test_frozen(self):
        stats = LatencyStats.from_samples([1.0])
        with pytest.raises(AttributeError):
            stats.mean = 0.0


class TestDecisionLatencyStats:
    def test_over_amp_runs(self):
        results = [
            run_processes(
                [
                    ScdNode(pid, 3, [f"p{pid}"], expected=3)
                    for pid in range(3)
                ],
                delay_model=UniformDelay(0.1, 1.0),
                seed=seed,
            )
            for seed in range(4)
        ]
        stats = decision_latency_stats(results)
        assert stats.count == 12  # 3 processes × 4 runs
        assert 0 < stats.p50 <= stats.max
