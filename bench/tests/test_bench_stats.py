"""Tail-sample rule and compare verdicts on synthetic runs."""

import pytest

from bench import stats


def test_p95_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(200, 95) == 10
    assert stats.samples_beyond(199, 95) == 9
    assert stats.samples_beyond(1000, 99) == 10
    assert stats.percentile(list(range(1, 201)), 95) == 190
    with pytest.raises(ValueError, match="p95 needs 10 samples"):
        stats.percentile(list(range(199)), 95)


def test_median_needs_no_tail():
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0


def _runs(center, spread=0.01, n=10):
    return [center * (1 + spread * ((i % 5) - 2) / 2) for i in range(n)]


def test_clear_gain_on_ten_pairs_is_improved():
    verdict, won, pairs = stats.verdict(_runs(100), _runs(120), "higher", 0.1)
    assert (verdict, won, pairs) == ("improved", 10, 10)


def test_gain_on_too_few_pairs_is_unresolved():
    verdict, _, _ = stats.verdict(_runs(100, n=5), _runs(120, n=5), "higher", 0.1)
    assert verdict == "unresolved"


def test_same_runs_are_unchanged():
    assert stats.verdict(_runs(100), _runs(100), "higher", 0.1)[0] == "unchanged"


def test_worse_beyond_bound_is_regressed_for_either_direction():
    assert stats.verdict(_runs(100), _runs(85), "higher", 0.1)[0] == "regressed"
    assert stats.verdict(_runs(10), _runs(11.5), "lower", 0.1)[0] == "regressed"


def test_consistent_slowdown_inside_the_bound_is_unresolved():
    parent = [90.0, 110.0, 95.0, 105.0, 100.0] * 2
    change = [x * 0.8 for x in parent]
    assert stats.verdict(parent, change, "higher", 0.24)[0] == "unresolved"
    assert stats.verdict(parent, change, "higher", 0.15)[0] == "regressed"


def test_spread_wider_than_bound_is_unresolved():
    noisy = _runs(100, spread=0.5)
    assert stats.verdict(noisy, _runs(98, spread=0.5), "higher", 0.1)[0] == "unresolved"


def test_wide_spread_with_every_run_better_is_improved():
    parent = [90.0, 110.0, 95.0, 105.0, 100.0] * 2
    change = [x + 30.0 for x in parent]
    assert stats.verdict(parent, change, "higher", 0.05)[0] == "improved"
