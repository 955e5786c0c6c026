"""Aggregate reports: distributions, hourly profiles, quarterly trends,
operator box-plot summaries, congestion-pool trends, and the
signal-vs-throughput correlation.

Every aggregation is permutation-invariant (means use exact summation)
and no record is dropped silently: exclusions are counted on the report.
Field names are the plot-ready JSON keys; row types are NamedTuples whose
fields are also the CSV columns.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from datetime import date
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple

from .model import AnalysisConfig, Pool, TechnologyGroup, group_of, mean


def quantile(values, q: float) -> float:
    """Inclusive linear-interpolation quantile over all data points.

    With sorted values x_0..x_{n-1}, the q-quantile sits at rank
    h = (n-1)*q and interpolates linearly between floor(h) and ceil(h).
    """
    if not 0 <= q <= 1:
        raise ValueError("quantile must be in [0, 1]")
    if not values:
        raise ValueError("quantile of empty data")
    ordered = sorted(values)
    h = (len(ordered) - 1) * q
    lo = math.floor(h)
    hi = math.ceil(h)
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])


def pearson_r(xs, ys) -> Optional[float]:
    """Pearson correlation; None when either variable has zero variance."""
    n = len(xs)
    if n < 2:
        return None
    mx = mean(xs)
    my = mean(ys)
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        return None
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    # the product underflows to 0 for tiny variances; the roots do not
    return sxy / (math.sqrt(sxx * syy) or math.sqrt(sxx) * math.sqrt(syy))


_DAY_MS = 86_400_000
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


@lru_cache(maxsize=4096)
def _day_labels(local_day: int) -> Tuple[str, str]:
    """The month and quarter labels of a local day, counted in days from 1970-01-01."""
    d = date.fromordinal(local_day + _EPOCH_ORDINAL)
    return f"{d.year}-{d.month:02d}", f"{d.year}-Q{(d.month - 1) // 3 + 1}"


def quarter_label(timestamp_ms: int, cfg: AnalysisConfig) -> str:
    return _day_labels(cfg.local_ms(timestamp_ms) // _DAY_MS)[1]


def month_label(timestamp_ms: int, cfg: AnalysisConfig) -> str:
    return _day_labels(cfg.local_ms(timestamp_ms) // _DAY_MS)[0]


# ---------------------------------------------------------------------------
# Throughput histogram


class HistogramBin(NamedTuple):
    lower_edge_kbps: float
    count: int


class Histogram(NamedTuple):
    bin_width_kbps: float
    bins: Tuple[HistogramBin, ...]  # consecutive from 0
    total: int
    fraction_below_1mbps: Optional[float]


def throughput_histogram(records, cfg: AnalysisConfig) -> Histogram:
    width = cfg.histogram_bin_kbps
    counts = Counter(int(r.download_kbps // width) for r in records)
    if not counts:
        return Histogram(width, (), 0, None)
    total = len(records)
    below = sum(1 for r in records if r.download_kbps < 1000.0)
    top = max(counts)
    bins = tuple(HistogramBin(k * width, counts[k]) for k in range(top + 1))
    return Histogram(width, bins, total, below / total)


# ---------------------------------------------------------------------------
# Hourly profile


class HourlyProfile(NamedTuple):
    key: str  # base-station id or operator name
    hour_means_kbps: Tuple[Optional[float], ...]  # 24 entries, local hours
    busy_mean_kbps: Optional[float]
    offpeak_mean_kbps: Optional[float]
    dip_fraction: Optional[float]  # 1 - busy/offpeak


def hourly_profile(records, key: str, cfg: AnalysisConfig) -> List[HourlyProfile]:
    """Per-key mean throughput by local hour; key is 'cell' or 'operator'.

    Records lacking the key field are skipped. dip_fraction is defined
    only when both the busy and off-peak means exist and off-peak is
    positive.
    """
    if key not in ("cell", "operator"):
        raise ValueError("key must be 'cell' or 'operator'")
    grouped: Dict[str, Dict[int, List[float]]] = {}
    for r in records:
        k = r.cell_id if key == "cell" else r.network_operator
        if k is None:
            continue
        grouped.setdefault(k, {}).setdefault(cfg.local_hour(r.timestamp), []).append(r.download_kbps)
    profiles = []
    for k in sorted(grouped):
        by_hour = grouped[k]
        hour_means = tuple(mean(by_hour.get(h, ())) for h in range(24))
        busy = [v for h, vs in by_hour.items() if cfg.is_busy_hour(h) for v in vs]
        offpeak = [v for h, vs in by_hour.items() if not cfg.is_busy_hour(h) for v in vs]
        busy_mean = mean(busy)
        offpeak_mean = mean(offpeak)
        dip = None
        if busy_mean is not None and offpeak_mean is not None and offpeak_mean > 0:
            dip = 1.0 - busy_mean / offpeak_mean
        profiles.append(HourlyProfile(k, hour_means, busy_mean, offpeak_mean, dip))
    return profiles


# ---------------------------------------------------------------------------
# Quarterly trend


class TrendPoint(NamedTuple):
    quarter: str
    mean_kbps: float
    max_kbps: float
    count: int


class TrendSeries(NamedTuple):
    technology_group: str
    region_tag: str
    network_type: str  # "wlan" or "cellular"
    points: Tuple[TrendPoint, ...]


class TrendReport(NamedTuple):
    series: Tuple[TrendSeries, ...]
    excluded_unknown: int


def quarterly_trend(records, cfg: AnalysisConfig) -> TrendReport:
    """Per (technology group, region, network type) quarterly mean/max/count."""
    grouped: Dict[Tuple[str, str, str], Dict[str, List[float]]] = {}
    excluded = 0
    for r in records:
        grp = group_of(r.technology)
        if grp is None:
            excluded += 1
            continue
        network_type = "wlan" if grp is TechnologyGroup.WLAN else "cellular"
        key = (grp.value, r.region_tag or "", network_type)
        grouped.setdefault(key, {}).setdefault(quarter_label(r.timestamp, cfg), []).append(
            r.download_kbps
        )
    series = []
    for key in sorted(grouped):
        points = tuple(
            TrendPoint(q, mean(vs), max(vs), len(vs)) for q, vs in sorted(grouped[key].items())
        )
        series.append(TrendSeries(key[0], key[1], key[2], points))
    return TrendReport(tuple(series), excluded)


# ---------------------------------------------------------------------------
# Operator summary


class OperatorSummary(NamedTuple):
    operator: str
    count: int
    min_kbps: float
    q1_kbps: float
    median_kbps: float
    q3_kbps: float
    max_kbps: float
    mean_kbps: float


def operator_summary(records) -> List[OperatorSummary]:
    """Five-number summary plus mean of download speed per network operator."""
    grouped: Dict[str, List[float]] = {}
    for r in records:
        grouped.setdefault(r.network_operator, []).append(r.download_kbps)
    summaries = []
    for op in sorted(grouped):
        vs = grouped[op]
        summaries.append(
            OperatorSummary(
                operator=op,
                count=len(vs),
                min_kbps=min(vs),
                q1_kbps=quantile(vs, 0.25),
                median_kbps=quantile(vs, 0.5),
                q3_kbps=quantile(vs, 0.75),
                max_kbps=max(vs),
                mean_kbps=mean(vs),
            )
        )
    return summaries


# ---------------------------------------------------------------------------
# Congestion pool trend


class PoolPoint(NamedTuple):
    month: str
    fraction_low: float
    fraction_medium: float
    fraction_high: float
    count: int


class UrbanShare(NamedTuple):
    month: str
    fraction: float  # MEDIUM+HIGH share of the month's urban records
    count: int


class PoolTrend(NamedTuple):
    points: Tuple[PoolPoint, ...]
    urban_medium_high: Tuple[UrbanShare, ...]


URBAN_TAG = "urban"


def pool_trend(assessed, cfg: AnalysisConfig) -> PoolTrend:
    """Monthly pool fractions over (record, Pool) pairs.

    Also reports the combined MEDIUM+HIGH fraction per month for records
    whose region_tag is URBAN_TAG.
    """
    by_month: Dict[str, Dict[Pool, int]] = defaultdict(lambda: dict.fromkeys(Pool, 0))
    urban: Dict[str, List[int]] = {}  # month -> [medium_high, total]
    for record, pool in assessed:
        month = month_label(record.timestamp, cfg)
        by_month[month][pool] += 1
        if record.region_tag == URBAN_TAG:
            acc = urban.setdefault(month, [0, 0])
            acc[0] += pool in (Pool.MEDIUM, Pool.HIGH)
            acc[1] += 1
    points = []
    for month in sorted(by_month):
        counts = by_month[month]
        total = sum(counts.values())
        points.append(
            PoolPoint(
                month=month,
                fraction_low=counts[Pool.LOW] / total,
                fraction_medium=counts[Pool.MEDIUM] / total,
                fraction_high=counts[Pool.HIGH] / total,
                count=total,
            )
        )
    urban_rows = tuple(UrbanShare(m, urban[m][0] / urban[m][1], urban[m][1]) for m in sorted(urban))
    return PoolTrend(tuple(points), urban_rows)


# ---------------------------------------------------------------------------
# Signal vs throughput


class SignalBin(NamedTuple):
    signal_lower_edge_dbm: float
    mean_kbps: float
    count: int


class SignalCorrelation(NamedTuple):
    bins: Tuple[SignalBin, ...]
    pearson_r: Optional[float]
    excluded_missing_signal: int


def signal_correlation(records, cfg: AnalysisConfig) -> SignalCorrelation:
    """Binned mean throughput by signal strength plus overall Pearson r."""
    width = cfg.signal_bin_dbm
    binned: Dict[float, List[float]] = {}
    xs = []
    ys = []
    excluded = 0
    for r in records:
        if r.signal_dbm is None:
            excluded += 1
            continue
        binned.setdefault(math.floor(r.signal_dbm / width) * width, []).append(r.download_kbps)
        xs.append(r.signal_dbm)
        ys.append(r.download_kbps)
    bins = tuple(SignalBin(edge, mean(binned[edge]), len(binned[edge])) for edge in sorted(binned))
    return SignalCorrelation(bins, pearson_r(xs, ys), excluded)
