"""Congestion classification of one throughput sample series.

Pipeline: spike filtering by moving-average comparison, non-overlapping
windowed mean/RAD statistics, slow-start exclusion, upper-bound window
selection, per-window MAPE against the upper bound, and LOW/MEDIUM/HIGH
pool assignment.
"""

from __future__ import annotations

import heapq
import math
from functools import lru_cache
from operator import ne, truediv
from typing import List, NamedTuple, Optional, Tuple

from .model import AnalysisConfig, Pool, SampleSeries

# Safety bound on spike replacements: 4 per sample, and never fewer than
# 1000. A replacement can push a neighbor over the threshold, so a series
# may need more replacements than it has spikes: up to about 1.7 per sample
# on dense adversarial series at spike_factor 2, more at factors near 1,
# where the filter need not settle at all. A fixed total alone would leave
# spikes in long series.
_REPLACEMENTS_PER_SAMPLE = 4
_MIN_REPLACEMENTS = 1000


class WindowStats(NamedTuple):
    window_index: int
    mean_kbps: float
    rad: float
    mape_pct: Optional[float] = None
    excluded_slow_start: bool = False


class CongestionAssessment(NamedTuple):
    windows: Tuple[WindowStats, ...]
    upper_bound_kbps: float
    upper_bound_window: int
    overall_mape_pct: float
    pool: Pool
    spikes_replaced: int


@lru_cache(maxsize=64)
def _neighbor_counts(n: int, h: int) -> Tuple[int, ...]:
    """How many neighbors each of n samples has within half width h."""
    return tuple(min(i, h) + min(n - 1 - i, h) for i in range(n))


def _neighborhood_means(padded, h: int, lo: int, hi: int) -> List[float]:
    """The means of the up-to-2*h neighbors (the sample itself excluded) of samples lo..hi-1 of a series
    padded with h zeros at each end. fsum is correctly rounded, so neither the zeros nor the order of the
    neighbors changes a mean."""
    counts = _neighbor_counts(len(padded) - 2 * h, h)
    shifted = [padded[lo + s : hi + s] for s in range(2 * h + 1) if s != h]
    return list(map(truediv, map(math.fsum, zip(*shifted)), counts[lo:hi]))


def _spike_ratios(values, means) -> List[float]:
    """How far each sample v lies from its neighborhood mean m: a factor >= 1 (inf for v = 0), 0.0 if m <= 0."""
    return [(v / m if v > m else (math.inf if v == 0 else m / v)) if m > 0 else 0.0 for v, m in zip(values, means)]


def _despike(original, cfg: AnalysisConfig) -> Tuple[List[float], int]:
    """The spike filter on at least 2 floats: returns the filtered values and the count of samples replaced."""
    n = len(original)
    h = cfg.smoothing_half_width
    factor = cfg.spike_factor
    padded = [0.0] * h + list(original) + [0.0] * h  # sample i at padded[i + h]
    means = _neighborhood_means(padded, h, 0, n)
    ratios = _spike_ratios(original, means)
    heap = [(-r, i) for i, r in enumerate(ratios) if r > factor]
    heapq.heapify(heap)
    replacements, cap = 0, max(_MIN_REPLACEMENTS, _REPLACEMENTS_PER_SAMPLE * n)
    while heap and replacements < cap:
        neg_ratio, i = heapq.heappop(heap)
        if -neg_ratio != ratios[i]:
            continue
        padded[i + h] = means[i]  # current: each replacement within h of i recomputed it
        replacements += 1
        lo, hi = max(0, i - h), min(n, i + h + 1)
        means[lo:hi] = _neighborhood_means(padded, h, lo, hi)
        ratios[lo:hi] = changed = _spike_ratios(padded[lo + h : hi + h], means[lo:hi])
        for j, r in enumerate(changed, lo):
            if r > factor:
                heapq.heappush(heap, (-r, j))
    values = padded[h : h + n]
    return values, sum(map(ne, original, values))


def filter_spikes(series: SampleSeries, cfg: AnalysisConfig) -> Tuple[SampleSeries, int]:
    """Replace reordering spikes with their neighborhood mean.

    A sample is a spike when it lies outside [m/factor, factor*m] of the
    self-excluded neighborhood mean m. Spikes are corrected one at a time,
    most extreme first (ties: lowest index), recomputing neighborhoods after
    each replacement, so a single spike never drags its clean neighbors over
    the threshold. Where the filter settles, the output has no remaining
    spikes, which makes it idempotent. Near spike_factor 1 a series need not
    settle: the filter then stops at its cap of max(1000, 4*n) replacements
    and returns with spikes left. Returns the filtered series and the count
    of samples replaced.

    Cost: O(n*h + k*h*h) for n samples, half width h and k replacements,
    plus O(k*h*log(n + k*h)) for the heap. The config bounds h to 1..5 and
    the cap bounds k by max(1000, 4*n), so even a series that never
    settles costs time linear in n. One routine gives exact
    neighborhood means: it pads the series with h zeros at each end and
    fsums the tuples of 2h shifted slices. It runs once over all n samples,
    then once per replacement: replacing sample i by its mean changes the
    means and ratios of i-h..i+h only, so just those 2h+1 means, each over
    2h neighbors, are recomputed. Every spike sits in a max-heap keyed
    (-ratio, index), and a replacement pushes up to 2h+1 entries; an entry
    whose ratio has changed since its push is stale and skipped when popped
    (lazy invalidation).
    """
    values, replaced = _despike(series.values, cfg)
    return SampleSeries(interval_ms=series.interval_ms, values=values), replaced


def pool_of(overall_mape_pct: float, cfg: AnalysisConfig) -> Pool:
    if overall_mape_pct <= cfg.mape_low_max:
        return Pool.LOW
    if overall_mape_pct <= cfg.mape_medium_max:
        return Pool.MEDIUM
    return Pool.HIGH


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
    values, spikes_replaced = _despike(series.values, cfg)
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
