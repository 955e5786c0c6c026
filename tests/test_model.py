import math
import pytest

from conftest import make_record, make_series
from mobitrace.model import (
    MAX_THROUGHPUT_KBPS,
    AnalysisConfig,
    CapabilityCatalog,
    MeasurementRecord,
    RadioTechnology,
    SampleSeries,
    TechnologyGroup,
    from_json,
    group_of,
)
from mobitrace.synth import ScenarioConfig


class TestGroupOf:
    def test_edge_is_2g(self):
        assert group_of(RadioTechnology.EDGE) is TechnologyGroup.G2

    def test_hspa_plus_is_3g(self):
        assert group_of(RadioTechnology.HSPA_PLUS) is TechnologyGroup.G3

    def test_unknown_has_no_group(self):
        assert group_of(RadioTechnology.UNKNOWN) is None

    def test_total_over_non_unknown(self):
        for tech in RadioTechnology:
            if tech is RadioTechnology.UNKNOWN:
                continue
            assert group_of(tech) is not None


class TestSampleSeries:
    def test_zero_interval_rejected(self):
        with pytest.raises(ValueError):
            SampleSeries(interval_ms=0, values=(1.0, 2.0))

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            SampleSeries(interval_ms=500, values=(1.0,))

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            SampleSeries(interval_ms=500, values=(1.0, -1.0))


class TestMeasurementRecord:
    def test_negative_throughput_rejected(self):
        with pytest.raises(ValueError, match="^download_kbps must be at least 0 and at most 10000000$"):
            make_record(download_kbps=-5.0)

    def test_zero_timestamp_rejected(self):
        with pytest.raises(ValueError):
            make_record(timestamp=0)

    def test_headline_must_match_sample_mean(self):
        series = make_series([1000.0, 3000.0])
        make_record(download_kbps=2000.0, samples=series)  # exact mean ok
        make_record(download_kbps=2010.0, samples=series)  # within 1%
        with pytest.raises(ValueError):
            make_record(download_kbps=2500.0, samples=series)

    def test_throughput_bound(self):
        make_record(download_kbps=MAX_THROUGHPUT_KBPS, upload_kbps=MAX_THROUGHPUT_KBPS)
        make_record(download_kbps=MAX_THROUGHPUT_KBPS,
                    samples=make_series([MAX_THROUGHPUT_KBPS, MAX_THROUGHPUT_KBPS]))
        for field in ("download_kbps", "upload_kbps"):
            with pytest.raises(ValueError, match=f"^{field} must be at least 0 and at most 10000000$"):
                make_record(**{field: MAX_THROUGHPUT_KBPS * (1 + 1e-15)})
        with pytest.raises(ValueError, match="^sample values must be at most 10000000 kbps$"):
            make_series([1.0, MAX_THROUGHPUT_KBPS + 1])

    def test_signal_bound(self):
        for dbm in (-1000, 1000.0):
            assert not make_record(signal_dbm=dbm).signal_in_range()
        for dbm in (-1000.001, 1e200, 10**400 // 10**300):
            with pytest.raises(ValueError, match="^signal_dbm must be at least -1000 and at most 1000$"):
                make_record(signal_dbm=dbm)

    def test_text_must_encode_as_utf8(self):
        make_record(manufacturer="Ünïcødé \U0001F4F6")
        with pytest.raises(ValueError, match="^manufacturer must be UTF-8 text$"):
            make_record(manufacturer="a\udc80")

    def test_signal_range_warns_not_raises(self):
        record = make_record(signal_dbm=-200.0)
        assert not record.signal_in_range()
        assert make_record(signal_dbm=-80.0).signal_in_range()


class TestCapabilityCatalog:
    def test_device_cap_cannot_exceed_standard(self):
        with pytest.raises(ValueError):
            CapabilityCatalog(
                device_caps={("A", "B", RadioTechnology.HSPA): 42000.0},
                tech_caps={RadioTechnology.HSPA: 21000.0},
                plan_caps={},
            )

    def test_nonpositive_cap_rejected(self):
        with pytest.raises(ValueError):
            CapabilityCatalog(device_caps={}, tech_caps={RadioTechnology.LTE: 0.0}, plan_caps={})

    @pytest.mark.parametrize("cap", [math.inf, math.nan])
    def test_non_finite_cap_rejected(self, cap):
        with pytest.raises(ValueError, match="finite and positive"):
            CapabilityCatalog(device_caps={}, tech_caps={}, plan_caps={("OpA", "p1"): cap})


class TestAnalysisConfig:
    def test_defaults_valid(self):
        cfg = AnalysisConfig()
        assert cfg.window_size == 10
        assert cfg.mape_low_max == 10.0
        assert cfg.mape_medium_max == 25.0

    def test_bad_thresholds(self):
        for bad in (
            dict(mape_low_max=30.0, mape_medium_max=25.0),
            dict(attribution_alpha=0.0),
            dict(window_size=1),
            dict(histogram_bin_kbps=0),
            dict(signal_bin_dbm=0.0),
            dict(signal_bin_dbm=-5.0),
            dict(signal_bin_dbm=5e-324),
            dict(handover_max_gap_ms=-5),
            dict(slow_start_activation_fraction=3),
            dict(slow_start_activation_fraction=0.0),
            dict(slow_start_min_excluded=-1),
            dict(rad_stability_max=-0.1),
            dict(window_size=10.0),
            dict(window_size=True),
            dict(utc_offset_minutes=330.5),
            dict(utc_offset_minutes=-721),
            dict(utc_offset_minutes=841),
            dict(busy_hour_start="7"),
            dict(spike_factor=True),
            dict(histogram_bin_kbps=float("nan")),
            dict(histogram_bin_kbps=float("inf")),
            dict(histogram_bin_kbps=MAX_THROUGHPUT_KBPS / 100_000 - 1),
        ):
            with pytest.raises(ValueError):
                AnalysisConfig(**bad)

    def test_local_hour_uses_offset(self):
        cfg = AnalysisConfig(utc_offset_minutes=330)
        # 2016-01-04 00:00 UTC is 05:30 local
        assert cfg.local_hour(1_451_865_600_000) == 5
        assert AnalysisConfig(utc_offset_minutes=0).local_hour(1_451_865_600_000) == 0

    def test_busy_hours_inclusive(self):
        cfg = AnalysisConfig()
        assert cfg.is_busy_hour(7)
        assert cfg.is_busy_hour(17)
        assert not cfg.is_busy_hour(6)
        assert not cfg.is_busy_hour(18)


class TestFromJson:
    @pytest.mark.parametrize("cls, obj, reason", [
        (ScenarioConfig, {"scenario": "commute"}, "missing required field 'seed'"),
        (ScenarioConfig, {}, "missing required field 'seed'"),
        (ScenarioConfig, {"seed": 1, "scenario": "x"}, "unknown scenario 'x'"),
        (ScenarioConfig, {"seed": 1, "scenario": "commute", "cells": [["a", "6G", 1.0]]}, "unknown cells '6G'"),
        (ScenarioConfig, {"seed": 1, "scenario": "commute", "cells": "ab"}, "cells must be a list"),
        (ScenarioConfig, {"seed": 1, "scenario": "commute", "cells": [["a", "LTE"]]},
         "cells must be a list of 3 values"),
        (AnalysisConfig, {"window_size": 5, "bogus": 1, "other": 2}, "unknown field 'bogus'"),
        (AnalysisConfig, [], "AnalysisConfig must be a JSON object"),
        (SampleSeries, {"interval_ms": 500, "values": {}}, "values must be a list"),
    ])
    def test_fault_reasons(self, cls, obj, reason):
        with pytest.raises(ValueError) as exc:
            from_json(cls, obj)
        assert str(exc.value) == reason

    def test_nested_and_optional_fields(self):
        obj = {"record_id": "r", "user_id": "u", "timestamp": 1, "download_kbps": 1000, "upload_kbps": 0.5,
               "manufacturer": "m", "model": "o", "os_name": "a", "os_version": "6", "network_operator": "A",
               "subscriber_operator": "A", "technology": "LTE", "signal_dbm": None,
               "samples": {"interval_ms": 500, "values": [900, 1100]}}
        record = from_json(MeasurementRecord, obj)
        assert record.technology is RadioTechnology.LTE and record.signal_dbm is None
        assert record.samples == SampleSeries(500, (900.0, 1100.0))
        assert record.download_kbps == 1000 and type(record.download_kbps) is int
