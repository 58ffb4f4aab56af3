import pytest

from perfbench import stats


def test_nearest_rank_returns_observed_values():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.nearest_rank(values, 50) == 3.0
    assert stats.nearest_rank(values, 20) == 1.0
    assert stats.nearest_rank(values, 21) == 2.0
    assert stats.nearest_rank(values, 100) == 5.0
    assert stats.nearest_rank([7.0], 90) == 7.0


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50)
    with pytest.raises(ValueError):
        stats.nearest_rank([1.0], 0)


@pytest.mark.parametrize(
    "count, expected",
    [(9, 0), (10, 0), (11, 9), (20, 50), (100, 90), (101, 90), (200, 95), (1000, 99)],
)
def test_highest_percentile_keeps_ten_samples_beyond(count, expected):
    assert stats.highest_percentile(count) == expected
    if expected:
        assert stats.beyond(count, expected) >= 10
        assert stats.beyond(count, expected + 1) < 10 or expected == 99


def test_tail_refuses_a_percentile_with_too_few_samples_beyond():
    assert stats.tail(list(range(100)), 90) == 89
    with pytest.raises(ValueError, match="highest allowed: p89"):
        stats.tail(list(range(99)), 90)


def test_spread_uses_exclusive_quartiles():
    s = stats.spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert s["median"] == 5.5
    assert (s["q1"], s["q3"]) == (2.75, 8.25)
    assert s["iqr_over_median"] == pytest.approx(1.0)
