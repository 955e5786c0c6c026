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
from array import array
from collections import Counter, defaultdict
from functools import lru_cache, partial
from typing import Dict, List, NamedTuple, Optional, Tuple

from .model import AnalysisConfig, Pool, TechnologyGroup, group_of, mean


def quantile(values, q: float) -> float:
    """Inclusive linear-interpolation quantile over all data points; values is non-empty, 0 <= q <= 1.

    With sorted values x_0..x_{n-1}, the q-quantile sits at rank
    h = (n-1)*q and interpolates linearly between floor(h) and ceil(h).
    """
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


class Columns(NamedTuple):
    """What the reports read of each analyzed row, one column a field, in row order: timestamps and
    downloads packed, the other fields as references to the record's own (interned) values."""

    timestamps: array  # 'q'
    downloads: array  # 'd'
    signals: list
    cells: list
    network_operators: list
    technologies: list
    regions: list
    users: list
    subscriber_operators: list
    pools: list  # None for a row without an assessment

    @classmethod
    def empty(cls) -> "Columns":
        return cls(array("q"), array("d"), *([] for _ in range(8)))

    def append(self, r, pool) -> None:
        for column, value in zip(self, (r.timestamp, r.download_kbps, r.signal_dbm, r.cell_id, r.network_operator,
                                        r.technology, r.region_tag, r.user_id, r.subscriber_operator, pool)):
            column.append(value)


_DAY_MS = 86_400_000


@lru_cache(maxsize=4096)
def _day_labels(local_day: int) -> Tuple[str, str]:
    """The month and quarter labels of a local day, counted in days from 1970-01-01. The Gregorian
    date comes by integer arithmetic (H. Hinnant's civil_from_days), in years counted from March 1st,
    so that the leap day ends a year."""
    era, day = divmod(local_day + 719_468, 146_097)  # 400-year eras from 0000-03-01; day 0..146 096
    year = (day - day // 1460 + day // 36_524 - day // 146_096) // 365  # 0..399 within the era
    day -= 365 * year + year // 4 - year // 100  # 0..365 within the year
    month = (5 * day + 2) // 153 + 3  # 3..14: 13 and 14 are January and February of the next year
    year += era * 400 + (month > 12)
    month -= 12 * (month > 12)
    return f"{year}-{month:02d}", f"{year}-Q{(month - 1) // 3 + 1}"


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


def throughput_histogram(rows: Columns, cfg: AnalysisConfig) -> Histogram:
    width = cfg.histogram_bin_kbps
    counts = Counter(int(v // width) for v in rows.downloads)
    if not counts:
        return Histogram(width, (), 0, None)
    total = len(rows.downloads)
    below = sum(1 for v in rows.downloads if v < 1000.0)
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


def hourly_profile(rows: Columns, key: str, cfg: AnalysisConfig) -> List[HourlyProfile]:
    """Per-key mean throughput by local hour; key is 'cell' or 'operator'.

    Rows lacking the key field are skipped. dip_fraction is defined
    only when both the busy and off-peak means exist and off-peak is
    positive.
    """
    grouped: Dict[str, Dict[int, array]] = defaultdict(lambda: defaultdict(partial(array, "d")))
    for k, t, v in zip(rows.cells if key == "cell" else rows.network_operators, rows.timestamps, rows.downloads):
        if k is not None:
            grouped[k][cfg.local_hour(t)].append(v)
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


def quarterly_trend(rows: Columns, cfg: AnalysisConfig) -> TrendReport:
    """Per (technology group, region, network type) quarterly mean/max/count."""
    grouped: Dict[Tuple[str, str, str], Dict[str, array]] = defaultdict(lambda: defaultdict(partial(array, "d")))
    excluded = 0
    for technology, region, timestamp, v in zip(rows.technologies, rows.regions, rows.timestamps, rows.downloads):
        grp = group_of(technology)
        if grp is None:
            excluded += 1
            continue
        network_type = "wlan" if grp is TechnologyGroup.WLAN else "cellular"
        key = (grp.value, region or "", network_type)
        grouped[key][quarter_label(timestamp, cfg)].append(v)
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


def operator_summary(rows: Columns) -> List[OperatorSummary]:
    """Five-number summary plus mean of download speed per network operator."""
    grouped: Dict[str, array] = defaultdict(partial(array, "d"))
    for operator, v in zip(rows.network_operators, rows.downloads):
        grouped[operator].append(v)
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


def pool_trend(rows: Columns, cfg: AnalysisConfig) -> PoolTrend:
    """Monthly pool fractions over the rows that have a pool.

    Also reports the combined MEDIUM+HIGH fraction per month for rows
    whose region_tag is URBAN_TAG.
    """
    by_month: Dict[str, Dict[Pool, int]] = defaultdict(lambda: dict.fromkeys(Pool, 0))
    urban: Dict[str, List[int]] = {}  # month -> [medium_high, total]
    for timestamp, region, pool in zip(rows.timestamps, rows.regions, rows.pools):
        if pool is None:
            continue
        month = month_label(timestamp, cfg)
        by_month[month][pool] += 1
        if region == URBAN_TAG:
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


def signal_correlation(rows: Columns, cfg: AnalysisConfig) -> SignalCorrelation:
    """Binned mean throughput by signal strength plus overall Pearson r."""
    width = cfg.signal_bin_dbm
    binned: Dict[float, array] = defaultdict(partial(array, "d"))
    xs, ys, excluded = array("d"), array("d"), 0
    for signal, v in zip(rows.signals, rows.downloads):
        if signal is None:
            excluded += 1
            continue
        binned[math.floor(signal / width) * width].append(v)
        xs.append(signal)
        ys.append(v)
    bins = tuple(SignalBin(edge, mean(binned[edge]), len(binned[edge])) for edge in sorted(binned))
    return SignalCorrelation(bins, pearson_r(xs, ys), excluded)
