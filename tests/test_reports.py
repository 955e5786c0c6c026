from datetime import date, datetime, timezone

import numpy as np
import pytest

from conftest import make_record
from mobitrace.congestion import Pool
from mobitrace.model import (
    TIMESTAMP_END_MS,
    UTC_OFFSET_MAX_MINUTES,
    UTC_OFFSET_MIN_MINUTES,
    AnalysisConfig,
    RadioTechnology,
)
from mobitrace.reports import (
    hourly_profile,
    month_label,
    operator_summary,
    pearson_r,
    pool_trend,
    quantile,
    quarter_label,
    quarterly_trend,
    signal_correlation,
    throughput_histogram,
)

CFG = AnalysisConfig()

# 2015-02-10 00:00 UTC
TS_2015_Q1 = 1_423_526_400_000
DAY_MS = 86_400_000


def at_local_hour(hour, cfg=CFG, day_ms=1_451_865_600_000):
    """Timestamp landing in the given local hour."""
    return day_ms - cfg.utc_offset_minutes * 60_000 + hour * 3_600_000


class TestHistogram:
    def test_direct_binning(self):
        records = [make_record(download_kbps=v) for v in (200.0, 700.0, 1500.0)]
        h = throughput_histogram(records, CFG)
        assert h.bins == ((0.0, 1), (500.0, 1), (1000.0, 0), (1500.0, 1))
        assert h.total == 3
        assert h.fraction_below_1mbps == pytest.approx(2 / 3)

    def test_empty_input(self):
        h = throughput_histogram([], CFG)
        assert h.bins == () and h.total == 0 and h.fraction_below_1mbps is None

    def test_counts_conserved(self):
        rng = np.random.default_rng(3)
        records = [make_record(download_kbps=float(v)) for v in rng.uniform(0, 8000, 200)]
        h = throughput_histogram(records, CFG)
        assert sum(c for _, c in h.bins) == h.total == 200

    def test_permutation_invariant(self):
        records = [make_record(download_kbps=float(v)) for v in (5, 900, 1700, 300, 2600)]
        assert throughput_histogram(records, CFG) == throughput_histogram(records[::-1], CFG)


class TestHourlyProfile:
    def test_planted_dip(self):
        records = []
        for hour in range(24):
            kbps = 2000.0 if CFG.is_busy_hour(hour) else 5000.0
            for _ in range(3):
                records.append(make_record(cell_id="c1", timestamp=at_local_hour(hour),
                                           download_kbps=kbps))
        (profile,) = hourly_profile(records, "cell", CFG)
        assert profile.busy_mean_kbps == pytest.approx(2000.0)
        assert profile.offpeak_mean_kbps == pytest.approx(5000.0)
        assert profile.dip_fraction == pytest.approx(0.6)

    def test_flat_trace_no_dip(self):
        records = [make_record(cell_id="c1", timestamp=at_local_hour(h)) for h in range(24)]
        (profile,) = hourly_profile(records, "cell", CFG)
        assert profile.dip_fraction == pytest.approx(0.0)

    def test_partial_data_has_absent_dip(self):
        records = [make_record(cell_id="c1", timestamp=at_local_hour(3))]
        (profile,) = hourly_profile(records, "cell", CFG)
        assert sum(1 for m in profile.hour_means_kbps if m is None) == 23
        assert profile.offpeak_mean_kbps is not None
        assert profile.busy_mean_kbps is None
        assert profile.dip_fraction is None

    def test_operator_key(self):
        records = [make_record(network_operator=op, timestamp=at_local_hour(2))
                   for op in ("OpA", "OpB")]
        profiles = hourly_profile(records, "operator", CFG)
        assert [p.key for p in profiles] == ["OpA", "OpB"]

    def test_bad_key_rejected(self):
        with pytest.raises(ValueError):
            hourly_profile([], "bogus", CFG)


class TestQuarterlyTrend:
    def test_quarter_arithmetic(self):
        records = [make_record(timestamp=TS_2015_Q1, download_kbps=v, region_tag="urban")
                   for v in (1000.0, 3000.0)]
        report = quarterly_trend(records, CFG)
        (series,) = report.series
        (point,) = series.points
        assert point.quarter == "2015-Q1"
        assert point.mean_kbps == 2000.0
        assert point.max_kbps == 3000.0
        assert point.count == 2

    def test_network_type_partition(self):
        records = [make_record(technology=RadioTechnology.WLAN, timestamp=TS_2015_Q1),
                   make_record(technology=RadioTechnology.LTE, timestamp=TS_2015_Q1)]
        report = quarterly_trend(records, CFG)
        assert sorted(s.network_type for s in report.series) == ["cellular", "wlan"]

    def test_unknown_excluded_and_counted(self):
        records = [make_record(technology=RadioTechnology.UNKNOWN, timestamp=TS_2015_Q1),
                   make_record(timestamp=TS_2015_Q1)]
        report = quarterly_trend(records, CFG)
        assert report.excluded_unknown == 1
        assert sum(p.count for s in report.series for p in s.points) == 1

    def test_quarters_increasing(self):
        ts_q3 = TS_2015_Q1 + 150 * 86_400_000
        records = [make_record(timestamp=ts, region_tag="r")
                   for ts in (ts_q3, TS_2015_Q1, TS_2015_Q1)]
        (series,) = quarterly_trend(records, CFG).series
        assert [p.quarter for p in series.points] == ["2015-Q1", "2015-Q3"]


class TestOperatorSummary:
    def test_odd_length_median(self):
        records = [make_record(network_operator="OpA", download_kbps=v * 1000.0)
                   for v in (1, 2, 3, 4, 5)]
        (summary,) = operator_summary(records)
        assert summary.median_kbps == 3000.0
        assert summary.q1_kbps == 2000.0
        assert summary.q3_kbps == 4000.0

    def test_single_record_degenerate(self):
        (summary,) = operator_summary([make_record(download_kbps=777.0)])
        assert (summary.min_kbps == summary.q1_kbps == summary.median_kbps
                == summary.q3_kbps == summary.max_kbps == 777.0)

    def test_quartiles_match_numpy_inclusive(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(0, 5000, 101)
        records = [make_record(download_kbps=float(v)) for v in values]
        (summary,) = operator_summary(records)
        assert summary.q1_kbps == pytest.approx(np.quantile(values, 0.25), rel=1e-9)
        assert summary.median_kbps == pytest.approx(np.quantile(values, 0.5), rel=1e-9)
        assert summary.q3_kbps == pytest.approx(np.quantile(values, 0.75), rel=1e-9)

    def test_order_statistics_ordered(self):
        rng = np.random.default_rng(12)
        records = [make_record(download_kbps=float(v)) for v in rng.uniform(0, 9000, 40)]
        (s,) = operator_summary(records)
        assert s.min_kbps <= s.q1_kbps <= s.median_kbps <= s.q3_kbps <= s.max_kbps


class TestPoolTrend:
    def test_fraction_counting(self):
        pools = [Pool.HIGH, Pool.HIGH, Pool.MEDIUM, Pool.LOW]
        assessed = [(make_record(timestamp=TS_2015_Q1, region_tag="urban"), p) for p in pools]
        trend = pool_trend(assessed, CFG)
        (point,) = trend.points
        assert (point.fraction_low, point.fraction_medium, point.fraction_high) == (0.25, 0.25, 0.5)
        ((month, frac, count),) = trend.urban_medium_high
        assert month == month_label(TS_2015_Q1, CFG)
        assert frac == 0.75 and count == 4

    def test_all_low(self):
        assessed = [(make_record(timestamp=TS_2015_Q1, region_tag="urban"), Pool.LOW)] * 3
        trend = pool_trend(assessed, CFG)
        assert trend.urban_medium_high[0][1] == 0.0

    def test_fractions_sum_to_one(self):
        rng = np.random.default_rng(5)
        pools = [list(Pool)[i] for i in rng.integers(0, 3, 60)]
        assessed = [(make_record(timestamp=TS_2015_Q1), p) for p in pools]
        for point in pool_trend(assessed, CFG).points:
            total = point.fraction_low + point.fraction_medium + point.fraction_high
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_rural_not_in_urban_series(self):
        assessed = [(make_record(timestamp=TS_2015_Q1, region_tag="rural"), Pool.HIGH)]
        assert pool_trend(assessed, CFG).urban_medium_high == ()


class TestSignalCorrelation:
    def test_constant_throughput_no_r(self):
        records = [make_record(signal_dbm=float(d), download_kbps=900.0)
                   for d in range(-100, -60, 5)]
        assert signal_correlation(records, CFG).pearson_r is None

    def test_perfect_colinearity(self):
        records = [make_record(signal_dbm=-80.0, download_kbps=1000.0),
                   make_record(signal_dbm=-60.0, download_kbps=2000.0)]
        assert signal_correlation(records, CFG).pearson_r == pytest.approx(1.0)

    def test_missing_signal_counted(self):
        records = [make_record(), make_record(signal_dbm=-70.0)]
        report = signal_correlation(records, CFG)
        assert report.excluded_missing_signal == 1
        assert sum(c for _, _, c in report.bins) == 1

    def test_pearson_matches_numpy(self):
        rng = np.random.default_rng(21)
        xs = rng.uniform(-110, -50, 300)
        ys = rng.uniform(10, 9000, 300)
        assert pearson_r(list(xs), list(ys)) == pytest.approx(np.corrcoef(xs, ys)[0, 1], rel=1e-9)

    def test_tiny_variances_do_not_underflow(self):
        records = [make_record(signal_dbm=0.0, download_kbps=0.0),
                   make_record(signal_dbm=1e-100, download_kbps=1e-100)]
        assert signal_correlation(records, CFG).pearson_r == 1.0


class TestQuantileOracle:
    def test_brute_force_interpolation(self):
        # independent re-derivation: rank h = (n-1) q, linear between floor/ceil
        rng = np.random.default_rng(31)
        for _ in range(50):
            values = list(rng.uniform(0, 1000, int(rng.integers(1, 40))))
            for q in (0.25, 0.5, 0.75):
                ordered = sorted(values)
                h = (len(ordered) - 1) * q
                lo, hi = int(np.floor(h)), int(np.ceil(h))
                expected = ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])
                assert quantile(values, q) == pytest.approx(expected, rel=1e-12)


class TestLabels:
    def test_quarter_and_month_labels(self):
        assert quarter_label(TS_2015_Q1, CFG) == "2015-Q1"
        assert month_label(TS_2015_Q1, CFG) == "2015-02"

    def test_offset_can_shift_quarter(self):
        # 2015-12-31 23:00 UTC is already 2016 in +5:30 local time
        ts = 1_451_602_800_000
        assert quarter_label(ts, CFG) == "2016-Q1"
        assert quarter_label(ts, AnalysisConfig(utc_offset_minutes=0)) == "2015-Q4"

    def test_labels_at_timestamp_and_offset_limits(self):
        # every timestamp ingest accepts is a local date at every allowed offset
        latest = AnalysisConfig(utc_offset_minutes=UTC_OFFSET_MAX_MINUTES)
        earliest = AnalysisConfig(utc_offset_minutes=UTC_OFFSET_MIN_MINUTES)
        assert quarter_label(TIMESTAMP_END_MS - 1, latest) == "9999-Q4"
        assert month_label(1, earliest) == "1969-12"

    def test_labels_by_local_day_match_datetime(self):
        # the labels are derived from the integer local day; the oracle is the datetime formula
        def oracle(ts, cfg):
            dt = datetime.fromtimestamp(cfg.local_ms(ts) / 1000.0, tz=timezone.utc)
            return f"{dt.year}-{dt.month:02d}", f"{dt.year}-Q{(dt.month - 1) // 3 + 1}"

        epoch = date(1970, 1, 1).toordinal()
        days = set(range(0, TIMESTAMP_END_MS // DAY_MS, 9973))  # every 9973rd local day
        days.update(date(y, m, 1).toordinal() - epoch for y in range(1969, 2101) for m in range(1, 13))
        checked = 0
        for offset in (-720, -1, 0, 330, 840):
            cfg = AnalysisConfig(utc_offset_minutes=offset)
            stamps = {1, TIMESTAMP_END_MS - 1}
            for day in days:
                start = day * DAY_MS - offset * 60_000  # UTC ms of the local midnight
                stamps.update((start - 1, start, start + 1, start + DAY_MS // 2))
            for ts in sorted(stamps):
                if 0 < ts < TIMESTAMP_END_MS:
                    assert (month_label(ts, cfg), quarter_label(ts, cfg)) == oracle(ts, cfg), (ts, offset)
                    checked += 1
        assert checked > 30_000


class TestPermutationInvariance:
    def test_all_reports_reorder_invariant(self):
        rng = np.random.default_rng(41)
        records = [
            make_record(
                download_kbps=float(rng.uniform(0, 6000)),
                signal_dbm=float(rng.uniform(-110, -50)),
                timestamp=TS_2015_Q1 + int(rng.integers(0, 90 * 86_400_000)),
                network_operator=f"Op{rng.integers(0, 3)}",
                cell_id=f"c{rng.integers(0, 3)}",
                region_tag="urban",
            )
            for _ in range(80)
        ]
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert throughput_histogram(records, CFG) == throughput_histogram(shuffled, CFG)
        assert hourly_profile(records, "cell", CFG) == hourly_profile(shuffled, "cell", CFG)
        assert quarterly_trend(records, CFG) == quarterly_trend(shuffled, CFG)
        assert operator_summary(records) == operator_summary(shuffled)
        assert signal_correlation(records, CFG) == signal_correlation(shuffled, CFG)
