"""Congestion classification of one throughput sample series.

Pipeline: spike filtering by moving-average comparison, non-overlapping
windowed mean/RAD statistics, slow-start exclusion, upper-bound window
selection, per-window MAPE against the upper bound, and LOW/MEDIUM/HIGH
pool assignment.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

from .model import AnalysisConfig, SampleSeries

# Safety bound on spike replacements: 4 per sample, and never fewer than
# 1000. A replacement can push a neighbor over the threshold, so a series
# may need more replacements than it has spikes: up to about 1.7 per sample
# on dense adversarial series at spike_factor 2, more at factors near 1,
# where the filter need not settle at all. A fixed total alone would leave
# spikes in long series.
_REPLACEMENTS_PER_SAMPLE = 4
_MIN_REPLACEMENTS = 1000


class Pool(Enum):
    LOW = "LOW"
    MEDIUM = "MEDIUM"
    HIGH = "HIGH"


@dataclass(frozen=True)
class WindowStats:
    window_index: int
    mean_kbps: float
    rad: float
    mape_pct: Optional[float] = None
    excluded_slow_start: bool = False


@dataclass(frozen=True)
class CongestionAssessment:
    windows: Tuple[WindowStats, ...]
    upper_bound_kbps: float
    upper_bound_window: int
    overall_mape_pct: float
    pool: Pool
    spikes_replaced: int


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


def filter_spikes(series: SampleSeries, cfg: AnalysisConfig) -> Tuple[SampleSeries, int]:
    """Replace reordering spikes with their neighborhood mean.

    A sample is a spike when it lies outside [m/factor, factor*m] of the
    self-excluded neighborhood mean m. Spikes are corrected one at a time,
    most extreme first (ties: lowest index), recomputing neighborhoods after
    each replacement, so a single spike never drags its clean neighbors over
    the threshold. The output has no remaining spikes, which makes the
    filter idempotent. Returns the filtered series and the count of samples
    replaced.

    Cost: O(n*h + k*h*log n) for n samples, half width h and k
    replacements. Every spike sits in a max-heap keyed (-ratio, index);
    replacing sample i changes the ratios of i-h..i+h only, so just those
    are recomputed and pushed again. An entry whose ratio has changed since
    its push is stale and skipped when popped (lazy invalidation).
    """
    values = list(series.values)
    n = len(values)
    h = cfg.smoothing_half_width
    ratios = [_spike_ratio(values, i, h) for i in range(n)]
    heap = [(-r, i) for i, r in enumerate(ratios) if r is not None and r > cfg.spike_factor]
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
            if r is not None and r > cfg.spike_factor:
                heapq.heappush(heap, (-r, j))
    replaced = sum(1 for a, b in zip(series.values, values) if a != b)
    return SampleSeries(interval_ms=series.interval_ms, values=tuple(values)), replaced


def window_stats(series: SampleSeries, cfg: AnalysisConfig) -> List[WindowStats]:
    """Mean and RAD per non-overlapping window; trailing remainder dropped."""
    w = cfg.window_size
    if len(series.values) < w:
        raise ValueError("insufficient samples")
    stats = []
    for k in range(len(series.values) // w):
        chunk = series.values[k * w : (k + 1) * w]
        mean = math.fsum(chunk) / w
        if mean == 0:
            rad = 0.0
        else:
            rad = (math.fsum(abs(x - mean) for x in chunk) / w) / mean
        stats.append(WindowStats(window_index=k, mean_kbps=mean, rad=rad))
    return stats


def select_upper_bound(windows: List[WindowStats], cfg: AnalysisConfig) -> Tuple[float, int]:
    """Pick the stable high-mean window used as the congestion-free rate.

    Among eligible (non-slow-start) windows with rad <= rad_stability_max,
    take the highest mean (ties: lowest rad, then lowest index). If none
    is stable enough, fall back to maximizing mean/(1+rad).
    """
    eligible = [w for w in windows if not w.excluded_slow_start]
    if not eligible:
        raise ValueError("no eligible window")
    stable = [w for w in eligible if w.rad <= cfg.rad_stability_max]
    if stable:
        best = min(stable, key=lambda w: (-w.mean_kbps, w.rad, w.window_index))
    else:
        best = min(eligible, key=lambda w: (-w.mean_kbps / (1.0 + w.rad), w.window_index))
    return best.mean_kbps, best.window_index


def window_mape(upper_bound_kbps: float, samples) -> float:
    """Mean absolute percentage deviation from the upper bound, in percent.

    The upper bound is the denominator (the expected value); a zero bound
    only occurs for all-zero series and yields 0.
    """
    if upper_bound_kbps == 0:
        return 0.0
    n = len(samples)
    return (100.0 / n) * math.fsum(abs(upper_bound_kbps - x) / upper_bound_kbps for x in samples)


def pool_of(overall_mape_pct: float, cfg: AnalysisConfig) -> Pool:
    if overall_mape_pct <= cfg.mape_low_max:
        return Pool.LOW
    if overall_mape_pct <= cfg.mape_medium_max:
        return Pool.MEDIUM
    return Pool.HIGH


def _mark_slow_start(windows: List[WindowStats], cfg: AnalysisConfig) -> List[WindowStats]:
    """Exclude the leading TCP slow-start ramp.

    The first slow_start_min_excluded windows are always excluded;
    exclusion then continues through consecutive leading windows whose
    mean is below activation_fraction of the maximum window mean.
    """
    max_mean = max(w.mean_kbps for w in windows)
    threshold = cfg.slow_start_activation_fraction * max_mean
    marked = []
    excluding = True
    for w in windows:
        if excluding:
            if w.window_index < cfg.slow_start_min_excluded or w.mean_kbps < threshold:
                marked.append(
                    WindowStats(w.window_index, w.mean_kbps, w.rad, excluded_slow_start=True)
                )
                continue
            excluding = False
        marked.append(w)
    return marked


def classify(series: SampleSeries, cfg: AnalysisConfig) -> CongestionAssessment:
    """Run the full congestion pipeline on one sample series."""
    if len(series.values) < 2 * cfg.window_size:
        raise ValueError("insufficient samples")
    filtered, spikes_replaced = filter_spikes(series, cfg)
    windows = _mark_slow_start(window_stats(filtered, cfg), cfg)
    upper_bound, ub_index = select_upper_bound(windows, cfg)

    w = cfg.window_size
    finished = []
    mapes = []
    for stats in windows:
        if stats.excluded_slow_start:
            finished.append(stats)
            continue
        chunk = filtered.values[stats.window_index * w : (stats.window_index + 1) * w]
        mape = window_mape(upper_bound, chunk)
        mapes.append(mape)
        finished.append(WindowStats(stats.window_index, stats.mean_kbps, stats.rad, mape_pct=mape))
    overall = math.fsum(mapes) / len(mapes)
    return CongestionAssessment(
        windows=tuple(finished),
        upper_bound_kbps=upper_bound,
        upper_bound_window=ub_index,
        overall_mape_pct=overall,
        pool=pool_of(overall, cfg),
        spikes_replaced=spikes_replaced,
    )
