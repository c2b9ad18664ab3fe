"""Unit tests for the workload generator."""

import dataclasses

import pytest

from repro.model.config import paper_defaults
from repro.model.workload import WorkloadGenerator
from repro.sim.engine import Simulator


@pytest.fixture
def generator():
    return WorkloadGenerator(Simulator(seed=3), paper_defaults())


class TestQueryCreation:
    def test_class_mix_matches_probability(self, generator):
        classes = [
            generator.new_query(0, 0, serial)[0].class_index
            for serial in range(4000)
        ]
        io_fraction = classes.count(0) / len(classes)
        assert io_fraction == pytest.approx(0.5, abs=0.03)

    def test_skewed_class_mix(self):
        config = dataclasses.replace(paper_defaults(), class_probs=(0.8, 0.2))
        generator = WorkloadGenerator(Simulator(seed=4), config)
        classes = [
            generator.new_query(0, 0, serial)[0].class_index
            for serial in range(4000)
        ]
        assert classes.count(0) / len(classes) == pytest.approx(0.8, abs=0.03)

    def test_reads_mean_matches_spec(self, generator):
        reads = [
            generator.new_query(0, 0, serial)[0].estimated_reads
            for serial in range(4000)
        ]
        assert sum(reads) / len(reads) == pytest.approx(20.0, rel=0.06)

    def test_same_seed_same_workload(self):
        config = paper_defaults()
        a = WorkloadGenerator(Simulator(seed=9), config)
        b = WorkloadGenerator(Simulator(seed=9), config)
        for serial in range(50):
            qa, _ = a.new_query(2, 1, serial)
            qb, _ = b.new_query(2, 1, serial)
            assert qa.class_index == qb.class_index
            assert qa.estimated_reads == qb.estimated_reads

    def test_per_query_stream_is_deterministic(self):
        # The stream handed out with a query depends only on (site,
        # terminal, serial) and the master seed — not on consumption of
        # other streams.  This is the common-random-numbers guarantee.
        config = paper_defaults()
        a = WorkloadGenerator(Simulator(seed=9), config)
        b = WorkloadGenerator(Simulator(seed=9), config)
        _, rng_a = a.new_query(1, 2, 3)
        # b consumes unrelated queries first.
        for serial in range(10):
            b.new_query(0, 0, serial)
        _, rng_b = b.new_query(1, 2, 3)
        assert [rng_a.random() for _ in range(5)] == [
            rng_b.random() for _ in range(5)
        ]

    def test_home_site_recorded(self, generator):
        query, _ = generator.new_query(4, 0, 1)
        assert query.home_site == 4


class TestServiceDraws:
    def test_disk_time_within_band(self, generator):
        # The paper's U(1.0 ± 0.2): the draws themselves are pinned to
        # rng.uniform by tests/model/test_site.py.
        low, width = generator.disk_time_bounds()
        assert low == pytest.approx(0.8)
        assert low + width == pytest.approx(1.2)

    def test_disk_time_degenerate_without_deviation(self):
        config = paper_defaults().with_site(disk_time_dev=0.0)
        generator = WorkloadGenerator(Simulator(seed=1), config)
        assert generator.disk_time_bounds() == (1.0, None)

    def test_think_time_exponential_mean(self, generator):
        rng = generator.sim.rng.stream("think-test")
        samples = [generator.think_time(rng) for _ in range(20000)]
        assert sum(samples) / len(samples) == pytest.approx(350.0, rel=0.05)

    def test_zero_think_time(self):
        config = paper_defaults().with_site(think_time=0.0)
        generator = WorkloadGenerator(Simulator(seed=1), config)
        rng = generator.sim.rng.stream("t")
        assert generator.think_time(rng) == 0.0


class TestClassSampling:
    """Regression: no silent rounding absorption at ``cumulative[-1]``.

    ``SystemConfig`` rejects class probabilities whose sum is off by more
    than 1e-9, and ``_sample_class`` falls through to the last class for
    the (measure-zero) draws at or beyond the final threshold — so the
    generator never patches the cumulative vector back to exactly 1.0.
    """

    class _StubRng:
        """Returns a fixed sequence of uniform draws."""

        def __init__(self, values):
            self._values = iter(values)

        def random(self):
            return next(self._values)

    def test_cumulative_probs_are_the_true_partial_sums(self):
        # Three classes at 1/3 each sum to 0.999... within 1e-9; the
        # cumulative vector keeps the true partial sums (no patching).
        third = 1.0 / 3.0
        config = dataclasses.replace(
            paper_defaults(),
            classes=(
                paper_defaults().classes[0],
                paper_defaults().classes[1],
                dataclasses.replace(paper_defaults().classes[1], name="mid"),
            ),
            class_probs=(third, third, third),
        )
        generator = WorkloadGenerator(Simulator(seed=1), config)
        assert generator._cumulative_probs == (third, 2 * third, 3 * third)

    def test_draw_beyond_last_threshold_falls_through_to_last_class(self):
        third = 1.0 / 3.0
        config = dataclasses.replace(
            paper_defaults(),
            classes=(
                paper_defaults().classes[0],
                paper_defaults().classes[1],
                dataclasses.replace(paper_defaults().classes[1], name="mid"),
            ),
            class_probs=(third, third, third),
        )
        generator = WorkloadGenerator(Simulator(seed=1), config)
        # 3 * (1/3) < 1.0 in floats: a draw in the sliver between the
        # last threshold and 1.0 must land in the last class, not crash.
        assert 3 * third < 1.0 or 3 * third == 1.0
        sliver = self._StubRng([0.9999999999999999])
        assert generator._sample_class(sliver) == 2

    def test_draws_inside_bands_pick_the_matching_class(self):
        generator = WorkloadGenerator(Simulator(seed=1), paper_defaults())
        assert generator._sample_class(self._StubRng([0.25])) == 0
        assert generator._sample_class(self._StubRng([0.75])) == 1

    def test_bad_probability_sum_is_rejected_at_config_time(self):
        # The guard lives in SystemConfig now, not in the generator.
        from repro.model.config import ConfigError

        with pytest.raises(ConfigError, match="sum to 1"):
            dataclasses.replace(paper_defaults(), class_probs=(0.5, 0.501))
