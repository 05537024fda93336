from __future__ import annotations

from stats import MIN_TAIL_SAMPLES, Outcomes, digest, percentile


class TestPercentile:
    def test_p95_withheld_when_fewer_than_ten_samples_lie_beyond(self) -> None:
        assert percentile(list(range(199)), 0.95) is None

    def test_p95_reported_with_ten_samples_beyond(self) -> None:
        values = list(range(200))
        p95 = percentile(values, 0.95)
        assert sum(1 for v in values if v > p95) == MIN_TAIL_SAMPLES

    def test_median_needs_no_tail(self) -> None:
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_empty_sample_reports_nothing(self) -> None:
        assert percentile([], 0.5) is None


class TestOutcomes:
    def test_refused_requests_count_in_the_denominator(self) -> None:
        outcomes = Outcomes()
        for ok in (True, True, False, False):  # two answered, two refused (429)
            outcomes.record(ok)
        assert outcomes.error_rate == 0.5

    def test_merge_adds_attempts_and_failures(self) -> None:
        first, second = Outcomes(3, 1), Outcomes(1, 1)
        first.merge(second)
        assert (first.attempted, first.failed) == (4, 2)

    def test_nothing_attempted_is_no_error(self) -> None:
        assert Outcomes().error_rate == 0.0


class TestDigest:
    def test_key_order_does_not_change_the_digest(self) -> None:
        assert digest({"a": 1, "b": [1, 2]}) == digest({"b": [1, 2], "a": 1})

    def test_a_changed_value_changes_the_digest(self) -> None:
        assert digest({"mu": 2}) != digest({"mu": 3})
