"""The spike filter and classify as they were before the filter computed its neighborhood means in one
padded routine: the reference that mobitrace.congestion's _despike and classify must agree with exactly.
The filter recomputes each neighborhood mean by its own slice and fsum; classify is unchanged."""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Tuple

from mobitrace.congestion import CongestionAssessment, WindowStats, pool_of
from mobitrace.model import AnalysisConfig, SampleSeries

# Safety bound on spike replacements: 4 per sample, and never fewer than
# 1000. A replacement can push a neighbor over the threshold, so a series
# may need more replacements than it has spikes: up to about 1.7 per sample
# on dense adversarial series at spike_factor 2, more at factors near 1,
# where the filter need not settle at all. A fixed total alone would leave
# spikes in long series.
_REPLACEMENTS_PER_SAMPLE = 4
_MIN_REPLACEMENTS = 1000


def _neighborhood_mean(values, i: int, half_width: int) -> Optional[float]:
    """Mean of the up-to-2*half_width neighbors of i (truncated at edges),
    excluding i itself."""
    lo = max(0, i - half_width)
    hi = min(len(values), i + half_width + 1)
    neighbors = [values[j] for j in range(lo, hi) if j != i]
    if not neighbors:
        return None
    return math.fsum(neighbors) / len(neighbors)


def _spike_ratio(values, i: int, half_width: int) -> Optional[float]:
    """How far sample i lies from its neighborhood mean m, as a factor >= 1
    (inf for a zero sample), or None when m is missing or not positive."""
    m = _neighborhood_mean(values, i, half_width)
    if m is None or m <= 0:
        return None
    v = values[i]
    return v / m if v > m else (math.inf if v == 0 else m / v)


def despike(original, cfg: AnalysisConfig) -> Tuple[List[float], int]:
    """The spike filter on a sequence of at least 2 floats: returns the
    filtered values and the count of samples replaced."""
    values = list(original)
    n = len(values)
    h = cfg.smoothing_half_width
    factor = cfg.spike_factor
    fsum = math.fsum
    # First pass: every sample's ratio inline, as _spike_ratio computes it;
    # fsum is correctly rounded, so the neighbor order does not matter.
    ratios = [None] * n
    heap = []
    for i, v in enumerate(values):
        neighbors = values[i - h if i > h else 0 : i] + values[i + 1 : i + h + 1]
        m = fsum(neighbors) / len(neighbors)
        if m > 0:
            r = ratios[i] = v / m if v > m else (math.inf if v == 0 else m / v)
            if r > factor:
                heap.append((-r, i))
    if not heap:
        return values, 0
    heapq.heapify(heap)
    replacements = 0
    cap = max(_MIN_REPLACEMENTS, _REPLACEMENTS_PER_SAMPLE * n)
    while heap and replacements < cap:
        neg_ratio, i = heapq.heappop(heap)
        if -neg_ratio != ratios[i]:
            continue
        values[i] = _neighborhood_mean(values, i, h)
        replacements += 1
        for j in range(max(0, i - h), min(n, i + h + 1)):
            r = ratios[j] = _spike_ratio(values, j, h)
            if r is not None and r > factor:
                heapq.heappush(heap, (-r, j))
    return values, sum(1 for a, b in zip(original, values) if a != b)


def classify(series: SampleSeries, cfg: AnalysisConfig) -> CongestionAssessment:
    """Run the full congestion pipeline on one sample series.

    The spike-filtered samples fall into non-overlapping windows of
    window_size; a trailing remainder is dropped. Each window gets its mean
    and RAD (mean absolute deviation over the mean; 0 for a zero mean).

    Slow start: the first slow_start_min_excluded windows are always
    excluded; exclusion then continues through consecutive leading windows
    whose mean is below activation_fraction of the maximum window mean.

    Upper bound, the congestion-free rate: among the remaining windows with
    rad <= rad_stability_max, the highest mean (ties: lowest rad, then
    lowest index); if none is stable enough, the highest mean/(1+rad).

    MAPE: each remaining window's mean absolute percentage deviation from
    the upper bound (0 for a zero bound, which only an all-zero series
    has); their mean picks the pool.
    """
    w = cfg.window_size
    if len(series.values) < 2 * w:
        raise ValueError("insufficient samples")
    values, spikes_replaced = despike(series.values, cfg)
    fsum = math.fsum
    chunks = [values[k : k + w] for k in range(0, len(values) - w + 1, w)]
    means = []
    rads = []
    for chunk in chunks:
        mean = fsum(chunk) / w
        means.append(mean)
        rads.append(0.0 if mean == 0 else (fsum([abs(x - mean) for x in chunk]) / w) / mean)

    threshold = cfg.slow_start_activation_fraction * max(means)
    excluded = min(cfg.slow_start_min_excluded, len(chunks))
    while excluded < len(chunks) and means[excluded] < threshold:
        excluded += 1
    eligible = range(excluded, len(chunks))
    if not eligible:
        raise ValueError("no eligible window")
    stable = [(-means[k], rads[k], k) for k in eligible if rads[k] <= cfg.rad_stability_max]
    if stable:
        ub_index = min(stable)[2]
    else:
        ub_index = min((-means[k] / (1.0 + rads[k]), k) for k in eligible)[1]
    upper_bound = means[ub_index]

    windows = [WindowStats(k, means[k], rads[k], excluded_slow_start=True) for k in range(excluded)]
    mapes = []
    for k in eligible:
        if upper_bound == 0:
            mape = 0.0
        else:
            mape = (100.0 / w) * fsum([abs(upper_bound - x) / upper_bound for x in chunks[k]])
        mapes.append(mape)
        windows.append(WindowStats(k, means[k], rads[k], mape_pct=mape))
    overall = fsum(mapes) / len(mapes)
    return CongestionAssessment(
        windows=tuple(windows),
        upper_bound_kbps=upper_bound,
        upper_bound_window=ub_index,
        overall_mape_pct=overall,
        pool=pool_of(overall, cfg),
        spikes_replaced=spikes_replaced,
    )
