"""Fast checks of the percentile, spread and failure-count helpers.

Run with ``python3 -m pytest benchmarks/e2e -q``.
"""

import math
import statistics

import pytest

from summary import Tally, iqr_share, percentile, pooled_latency, supported_tail


def test_percentile_interpolates_between_closest_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    # rank 0.9 * 3 = 2.7 -> 3 + 0.7 * (4 - 3)
    assert percentile(values, 90) == pytest.approx(3.7)


def test_percentile_of_one_value_and_bad_input():
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_supported_tail_needs_ten_samples_beyond():
    assert supported_tail(19) == 50.0
    assert supported_tail(99) == 50.0
    assert supported_tail(100) == 90.0
    assert supported_tail(999) == 90.0
    assert supported_tail(1000) == 99.0
    assert supported_tail(10_000) == 99.9


def test_iqr_share_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 12.0, 8.0, 10.0, 10.2, 9.8]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert iqr_share(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert iqr_share([5.0]) == 0.0
    assert iqr_share([0.0, 0.0, 0.0]) == 0.0
    assert math.isinf(iqr_share([-1.0, 0.0, 1.0]))


def test_pooled_latency_weights_inputs_equally():
    # The slow input repeated many times must not outweigh the fast one.
    samples = {0: [1.0], 1: [3.0, 3.0, 3.0, 3.0, 100.0]}
    assert pooled_latency(samples) == pytest.approx((1.0 + 3.0) / 2)
    with pytest.raises(ValueError):
        pooled_latency({0: []})


def test_tally_counts_attempts_failures_and_reasons():
    tally = Tally()
    tally.ok()
    assert tally.check(True, "never recorded")
    assert not tally.check(False, "mismatch")
    tally.fail("mismatch")
    tally.fail("timeout")
    assert (tally.attempted, tally.failed) == (5, 3)
    assert tally.reasons == {"mismatch": 2, "timeout": 1}


def test_tally_keeps_a_bounded_set_of_reasons():
    tally = Tally()
    for index in range(Tally.KEEP + 5):
        tally.fail(f"reason {index}")
    assert tally.failed == Tally.KEEP + 5
    assert len(tally.reasons) == Tally.KEEP


def test_tally_merge_adds_counts():
    first, second = Tally(), Tally()
    first.ok()
    second.fail("crash")
    first.merge(second)
    assert first.to_dict() == {
        "attempted": 2, "failed": 1, "reasons": {"crash": 1},
    }
