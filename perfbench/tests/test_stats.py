import pytest

from perfbench import stats


@pytest.mark.parametrize(
    "count, expected",
    [
        (0, None),
        (19, None),
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (999, 90.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
        (100000, 99.99),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.highest_reportable(count) == expected


def test_reportable_is_exact_at_the_boundary():
    assert stats.reportable(1000, 99.0)
    assert not stats.reportable(999, 99.0)
    assert stats.reportable(10000, 99.9)
    assert not stats.reportable(9999, 99.9)


def test_nearest_rank_percentile_returns_observed_samples():
    values = list(range(1, 101))
    assert stats.percentile(values, 50.0) == 50
    assert stats.percentile(values, 99.0) == 99
    assert stats.percentile(values, 100.0) == 100
    assert stats.percentile([7.5], 99.0) == 7.5
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)


@pytest.mark.parametrize(
    "attempted, failed, ratio",
    [(1, 0, 0.0), (10, 0, 0.0), (10, 3, 0.3), (4, 4, 1.0)],
)
def test_failure_ratio(attempted, failed, ratio):
    assert stats.failure_ratio(attempted, failed) == ratio


@pytest.mark.parametrize(
    "attempted, failed, error",
    [(0, 0, ValueError), (5, 6, ValueError), (5, -1, ValueError), (5.0, 1, TypeError)],
)
def test_failure_ratio_rejects_bad_counts(attempted, failed, error):
    with pytest.raises(error):
        stats.failure_ratio(attempted, failed)


def test_self_times_of_nested_spans():
    # outer [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    spans = [("outer", 0.0, 10.0), ("a", 1.0, 4.0), ("b", 2.0, 3.0), ("c", 5.0, 9.0)]
    result = stats.self_times(spans)
    assert result == pytest.approx({"outer": 3.0, "a": 2.0, "b": 1.0, "c": 4.0})
    assert sum(result.values()) == pytest.approx(10.0)


def test_jain():
    assert stats.jain([1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert stats.jain([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        stats.jain([0.0, 0.0])


def test_digest_is_canonical():
    assert stats.digest({"a": 1, "b": [0.1]}) == stats.digest({"b": [0.1], "a": 1})
    assert stats.digest({"a": 0.1}) != stats.digest({"a": 0.1 + 1e-16 * 2})
