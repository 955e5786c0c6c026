import sys
import tracemalloc
from array import array
from dataclasses import fields
from datetime import datetime, timezone
from typing import Optional, get_type_hints

import pytest

from conftest import make_record, make_series
from mobitrace.model import (
    MAX_THROUGHPUT_KBPS,
    TIMESTAMP_END_MS,
    AnalysisConfig,
    MeasurementRecord,
    RadioTechnology,
    SampleSeries,
    TechnologyGroup,
    from_json,
    group_of,
)
from mobitrace.synth import ScenarioConfig


def test_timestamp_end_is_a_day_before_the_last_datetime():
    assert TIMESTAMP_END_MS == int(datetime(9999, 12, 31, tzinfo=timezone.utc).timestamp()) * 1000


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

    def test_tuple_of_floats_kept(self):
        values = (5e-324, -0.0, 0.1, float(MAX_THROUGHPUT_KBPS))
        assert repr(SampleSeries(interval_ms=500, values=values).values.tolist()) == repr(list(values))

    @pytest.mark.parametrize("values", [[1.0, 2.5], (1, 2.5), (type("Kbps", (float,), {})(1.0), 2.5)])
    def test_values_become_packed_floats(self, values):
        series = SampleSeries(interval_ms=500, values=values)
        assert type(series.values) is array and series.values.typecode == "d"
        assert series.values.tolist() == [1.0, 2.5]

    @pytest.mark.parametrize("values, packed", [
        (b"\x01\x02", [1.0, 2.0]),  # numbers, not the bytes of a double
        ((type("Odd", (float,), {"__float__": lambda self: 2.5})(7.0), 1.0), [2.5, 1.0]),
        (array("i", [3, 4]), [3.0, 4.0]),
    ])
    def test_each_value_packs_as_float_converts_it(self, values, packed):
        assert SampleSeries(interval_ms=500, values=values).values.tolist() == packed

    def test_decode_packs_the_values_once(self):
        obj = {"interval_ms": 500, "values": [float(i) for i in range(10_000)]}
        tracemalloc.start()
        try:
            series = from_json(SampleSeries, obj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert series.values.tolist() == obj["values"]
        # 10 000 packed values take 80 kB; the floats are the JSON list's, and no tuple of them is built
        assert peak < 120_000


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

    def test_every_text_field_but_record_id_is_interned(self):
        hints = get_type_hints(MeasurementRecord)
        text = [f.name for f in fields(MeasurementRecord) if hints[f.name] in (str, Optional[str])]
        assert len(text) == 12
        canonical = {name: sys.intern("".join(["text-", name])) for name in text}
        # equal to each canonical string, but other objects
        record = make_record(**{name: "".join(["text-", name]) for name in text})
        for name in text:
            assert (getattr(record, name) is canonical[name]) is (name != "record_id"), name


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
        (ScenarioConfig, {"seed": 1, "scenario": "stationary24h", "sample_interval_ms": 500},
         "unknown field 'sample_interval_ms'"),
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
