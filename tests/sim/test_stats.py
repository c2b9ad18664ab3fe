"""Unit tests for output analysis (batch means and intervals)."""

import math
import sys

import pytest

from repro.sim.errors import MonitorError
from repro.sim.stats import (
    IntervalEstimate,
    batch_means,
    mean_and_ci,
    student_t_quantile,
)
from repro.sim.t_quantiles import T_QUANTILES


class TestBatchMeans:
    def test_constant_data_zero_half_width(self):
        estimate = batch_means([5.0] * 100, batches=10)
        assert estimate.mean == pytest.approx(5.0)
        assert estimate.half_width == pytest.approx(0.0)

    def test_mean_over_full_batches_only(self):
        # 7 observations, 3 batches of 2: the 7th is discarded.
        data = [1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 999.0]
        estimate = batch_means(data, batches=3)
        assert estimate.mean == pytest.approx(2.0)
        assert estimate.batches == 3

    def test_interval_contains_true_mean_for_iid_data(self):
        import random

        rng = random.Random(99)
        data = [rng.gauss(10.0, 2.0) for _ in range(2000)]
        estimate = batch_means(data, batches=20, confidence=0.99)
        assert estimate.low <= 10.0 <= estimate.high

    def test_more_data_narrows_interval(self):
        import random

        rng = random.Random(5)
        small = [rng.expovariate(1.0) for _ in range(200)]
        rng = random.Random(5)
        large = [rng.expovariate(1.0) for _ in range(20000)]
        assert (
            batch_means(large, batches=20).half_width
            < batch_means(small, batches=20).half_width
        )

    def test_too_few_observations_raises(self):
        with pytest.raises(MonitorError):
            batch_means([1.0, 2.0], batches=5)

    def test_bad_arguments_raise(self):
        with pytest.raises(MonitorError):
            batch_means([1.0] * 10, batches=1)
        with pytest.raises(MonitorError):
            batch_means([1.0] * 10, batches=2, confidence=1.5)


class TestMeanAndCI:
    def test_single_sample_infinite_interval(self):
        estimate = mean_and_ci([4.0])
        assert estimate.mean == 4.0
        assert math.isinf(estimate.half_width)

    def test_two_samples(self):
        estimate = mean_and_ci([1.0, 3.0], confidence=0.95)
        assert estimate.mean == pytest.approx(2.0)
        assert estimate.half_width > 0

    def test_empty_raises(self):
        with pytest.raises(MonitorError):
            mean_and_ci([])


class TestStudentTQuantile:
    def test_contract_entry_is_bit_exact(self):
        # Every golden digest's batch-means interval (k=20) rests on this.
        assert student_t_quantile(0.95, 19) == 2.0930240544083087
        assert T_QUANTILES[0.95][18] == 2.0930240544083087

    def test_table_shape(self):
        assert sorted(T_QUANTILES) == [0.9, 0.95, 0.99]
        for row in T_QUANTILES.values():
            assert len(row) == 200
            assert list(row) == sorted(row, reverse=True)

    def test_table_matches_scipy_within_4_ulps(self):
        stats = pytest.importorskip("scipy.stats")
        for confidence, row in T_QUANTILES.items():
            for df, recorded in enumerate(row, start=1):
                exact = float(stats.t.ppf(0.5 + confidence / 2.0, df=df))
                assert abs(recorded - exact) <= 4 * math.ulp(exact), (confidence, df)

    def test_outside_table_falls_back_to_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        samples = [float(i % 7) for i in range(257)]  # df = 256 > 200
        estimate = mean_and_ci(samples)
        n = len(samples)
        mean = math.fsum(samples) / n
        var = math.fsum((s - mean) ** 2 for s in samples) / (n - 1)
        t = float(stats.t.ppf(0.975, df=256))
        assert estimate.half_width == t * math.sqrt(var / n)
        assert student_t_quantile(0.8, 5) == float(stats.t.ppf(0.9, df=5))

    def test_outside_table_without_scipy_raises(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy", None)
        with pytest.raises(MonitorError, match="outside the recorded table"):
            student_t_quantile(0.95, 256)


class TestIntervalEstimate:
    def test_bounds(self):
        estimate = IntervalEstimate(mean=10.0, half_width=2.0, confidence=0.95, batches=20)
        assert estimate.low == 8.0
        assert estimate.high == 12.0
        assert estimate.relative_half_width == pytest.approx(0.2)

    def test_relative_half_width_zero_mean(self):
        estimate = IntervalEstimate(mean=0.0, half_width=1.0, confidence=0.95, batches=5)
        assert math.isinf(estimate.relative_half_width)

    def test_str_mentions_confidence(self):
        estimate = IntervalEstimate(mean=1.0, half_width=0.1, confidence=0.95, batches=20)
        assert "95%" in str(estimate)


class TestExactAccumulation:
    """Regression tests for the RL004 fix: fsum-based accumulation.

    ``sum()`` loses low-order bits in accumulation order; ``math.fsum`` is
    correctly rounded, so the estimators are exact on adversarial inputs
    and bit-identical under permutation of independent samples — the same
    guarantee the parallel runner's replication averaging relies on.
    """

    def test_mean_survives_catastrophic_cancellation(self):
        # Naive left-to-right sum() of these is 0.0 (the 1.0 is absorbed
        # into 1e16 and then cancelled); fsum recovers it exactly.
        samples = [1e16, 1.0, -1e16]
        estimate = mean_and_ci(samples)
        assert estimate.mean == 1.0 / 3.0

    def test_batch_means_survives_catastrophic_cancellation(self):
        data = [1e16, 1.0, -1e16, 3.0, 3.0, 3.0]
        estimate = batch_means(data, batches=2)
        # Batch 1 sums to exactly 1.0 -> mean 1/3; batch 2 mean 3.0.
        assert estimate.mean == (1.0 / 3.0 + 3.0) / 2.0

    def test_mean_and_ci_is_permutation_invariant(self):
        import random

        rng = random.Random(1234)
        samples = [
            rng.uniform(-1.0, 1.0) * (10.0 ** rng.randrange(-8, 9))
            for _ in range(257)
        ]
        baseline = mean_and_ci(samples)
        for shuffle_seed in range(5):
            shuffled = list(samples)
            random.Random(shuffle_seed).shuffle(shuffled)
            estimate = mean_and_ci(shuffled)
            # Bit-identical, not approximately equal.
            assert estimate.mean == baseline.mean
            assert estimate.half_width == baseline.half_width
