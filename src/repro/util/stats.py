"""Statistics helpers used by the benchmark harnesses.

The paper reports means with 95% confidence intervals computed with the
t-distribution over 10 repetitions. :func:`mean_ci` reproduces exactly that
methodology for an arbitrary sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

# Two-sided 95 % (0.975 one-sided) t quantiles by degrees of freedom.
_T_975 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365,
    8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179, 13: 2.160,
    14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093,
    20: 2.086, 21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042, 40: 2.021,
    60: 2.000, 120: 1.980,
}


def _t_quantile(df: int) -> float:
    """Two-sided 95 % t quantile for ``df`` >= 1 degrees of freedom.

    A ``df`` between table keys rounds *down* to the nearest key: the
    quantile falls as ``df`` grows, so the value returned is never below
    the true one and the interval never narrower than the truth.
    """
    return _T_975[max(key for key in _T_975 if key <= df)]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A sample mean with a symmetric confidence half-width."""

    mean: float
    half_width: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.2f} ± {self.half_width:.2f} (n={self.n})"


def mean_ci(samples: Sequence[float]) -> ConfidenceInterval:
    """Mean and 95 % t-distribution confidence interval of ``samples``.

    A single sample yields a zero-width interval rather than an error so
    smoke-test benchmark runs with one repetition still produce output.
    """
    values = list(samples)
    if not values:
        raise ValueError("mean_ci requires at least one sample")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return ConfidenceInterval(mean=mean, half_width=0.0, n=1)
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    sem = math.sqrt(variance / n)
    half = _t_quantile(n - 1) * sem
    return ConfidenceInterval(mean=mean, half_width=half, n=n)


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    values = sorted(samples)
    if not values:
        raise ValueError("percentile requires at least one sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be within [0, 100]")
    if len(values) == 1:
        return values[0]
    rank = (q / 100.0) * (len(values) - 1)
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return values[lower]
    frac = rank - lower
    return values[lower] * (1.0 - frac) + values[upper] * frac


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Convenience bundle of common summary statistics."""
    ci = mean_ci(samples)
    return {
        "mean": ci.mean,
        "ci95": ci.half_width,
        "min": min(samples),
        "max": max(samples),
        "p50": percentile(samples, 50),
        "p99": percentile(samples, 99),
        "n": float(len(samples)),
    }
