import pytest

from stats import balanced_median, percentile, reportable, tail


def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4, 5], 0.5) == 3
    assert percentile([0, 10], 0.25) == pytest.approx(2.5)
    assert percentile([7], 0.99) == 7


def test_ten_samples_beyond_rule():
    assert reportable(100, 0.9)  # exactly 10 beyond
    assert not reportable(99, 0.9)
    assert reportable(1000, 0.99)
    assert not reportable(999, 0.99)
    assert reportable(200, 0.95) and not reportable(199, 0.95)


def test_tail_refuses_an_unsupported_percentile():
    values = list(range(150))
    assert tail(values, 0.9) == pytest.approx(percentile(values, 0.9))
    assert tail(values, 0.95) is None


def test_balanced_median_weighs_every_group_the_same():
    # Three cheap samples and one costly: the plain median is cheap, the
    # balanced one sits halfway between the two groups' medians.
    samples = [("a", 1.0), ("a", 2.0), ("a", 3.0), ("b", 10.0)]
    assert balanced_median(samples) == pytest.approx((2.0 + 10.0) / 2)
    with pytest.raises(ValueError):
        balanced_median([])
