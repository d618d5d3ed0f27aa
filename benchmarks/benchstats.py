"""The one run-to-run spread every benchmark record uses.

Each repeated timing in ``benchmarks/bench_*.py`` — a pipeline rate or
one layer's seconds — is summarized the same way: the median of its
runs and their interquartile range (``statistics.quantiles``, exclusive
method; for three runs that is max - min).  Rates are recorded as the
median with ``*_spread_pct`` = the IQR as a percentage of the median,
layers as the whole :func:`spread` dict.
"""

import statistics


def spread(samples):
    """Median, IQR, IQR as % of the median, and run count of
    ``samples`` (at least two runs)."""
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {
        "median": round(median, 6),
        "iqr": round(q3 - q1, 6),
        "spread_pct": round(100 * (q3 - q1) / median, 2),
        "repeats": len(samples),
    }
