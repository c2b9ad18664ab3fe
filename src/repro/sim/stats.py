"""Output analysis: batch means, confidence intervals, and summaries.

Steady-state simulation output is autocorrelated, so naive per-observation
confidence intervals are too narrow.  The standard remedy — and the one used
here for every simulation experiment — is the *method of batch means*: the
post-warmup observations are grouped into ``k`` contiguous batches, the batch
averages are treated as (approximately) independent samples, and a Student-t
interval is computed over them.

The Student-t quantiles come from :mod:`repro.sim.t_quantiles`, a table
recorded once from scipy, so a run imports no third-party code and its
intervals do not depend on the installed scipy version.  Only a
confidence level or degrees of freedom outside that table falls back to
scipy, imported on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.sim.errors import MonitorError
from repro.sim.t_quantiles import T_QUANTILES


@dataclass(frozen=True)
class IntervalEstimate:
    """A point estimate with a symmetric confidence interval."""

    mean: float
    half_width: float
    confidence: float
    batches: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    @property
    def relative_half_width(self) -> float:
        """Half-width as a fraction of the mean (inf when the mean is 0)."""
        if self.mean == 0:
            return math.inf
        return abs(self.half_width / self.mean)

    def __str__(self) -> str:
        pct = int(round(self.confidence * 100))
        return f"{self.mean:.4g} ± {self.half_width:.3g} ({pct}% CI, k={self.batches})"


def student_t_quantile(confidence: float, df: int) -> float:
    """Two-sided Student-t quantile ``t.ppf(0.5 + confidence / 2, df)``.

    Served from the recorded table for confidence 0.90/0.95/0.99 and
    df 1-200; anything else is computed by scipy (the optional ``stats``
    extra), imported only then.

    Raises:
        MonitorError: Outside the table when scipy is not installed.
    """
    row = T_QUANTILES.get(confidence)
    if row is not None and 1 <= df <= len(row):
        return row[df - 1]
    try:
        from scipy import stats as scipy_stats
    except ImportError as error:
        raise MonitorError(
            f"Student-t quantile for confidence={confidence}, df={df} is outside "
            "the recorded table; install scipy (pip install 'repro[stats]')"
        ) from error
    return float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=df))


def batch_means(
    observations: Sequence[float],
    batches: int = 20,
    confidence: float = 0.95,
) -> IntervalEstimate:
    """Batch-means interval estimate for a steady-state mean.

    All accumulation uses :func:`math.fsum` (correctly rounded), so the
    estimate is bit-identical no matter how the caller assembled the
    observation sequence's storage — the same discipline rule RL004
    enforces for replication averaging.

    Args:
        observations: Post-warmup observations, in collection order.
        batches: Number of contiguous batches (k >= 2).  Observations that do
            not fill a whole batch are discarded from the tail.
        confidence: Two-sided confidence level, e.g. 0.95.

    Raises:
        MonitorError: With fewer observations than batches, or bad arguments.
    """
    if batches < 2:
        raise MonitorError(f"need at least 2 batches, got {batches}")
    if not 0 < confidence < 1:
        raise MonitorError(f"confidence must be in (0,1), got {confidence}")
    n = len(observations)
    if n < batches:
        raise MonitorError(
            f"need at least {batches} observations for {batches} batches, got {n}"
        )
    batch_size = n // batches
    means: List[float] = []
    for b in range(batches):
        chunk = observations[b * batch_size : (b + 1) * batch_size]
        means.append(math.fsum(chunk) / batch_size)
    grand = math.fsum(means) / batches
    var = math.fsum((m - grand) ** 2 for m in means) / (batches - 1)
    t = student_t_quantile(confidence, batches - 1)
    half = t * math.sqrt(var / batches)
    return IntervalEstimate(grand, half, confidence, batches)


def mean_and_ci(
    samples: Sequence[float], confidence: float = 0.95
) -> IntervalEstimate:
    """Student-t interval over *independent* samples (e.g. replications)."""
    n = len(samples)
    if n == 0:
        raise MonitorError("mean_and_ci of an empty sample")
    mean = math.fsum(samples) / n
    if n == 1:
        return IntervalEstimate(mean, math.inf, confidence, 1)
    var = math.fsum((s - mean) ** 2 for s in samples) / (n - 1)
    t = student_t_quantile(confidence, n - 1)
    half = t * math.sqrt(var / n)
    return IntervalEstimate(mean, half, confidence, n)


__all__ = [
    "IntervalEstimate",
    "batch_means",
    "mean_and_ci",
    "student_t_quantile",
]
