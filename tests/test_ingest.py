import json

import pytest

from conftest import make_record, make_series
from mobitrace.ingest import build_sessions, read_catalog, read_records, record_to_obj, write_records
from mobitrace.model import RadioTechnology


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def valid_line(**overrides):
    obj = record_to_obj(make_record(**overrides))
    return json.dumps(obj)


class TestReadRecords:
    def test_negative_throughput_rejected(self, tmp_path):
        path = tmp_path / "r.jsonl"
        obj = json.loads(valid_line())
        obj["download_kbps"] = -5
        write_lines(path, [json.dumps(obj)])
        records, report = read_records(path)
        assert records == []
        assert report.rejected == 1
        assert "negative throughput" in report.warnings[0][1]

    def test_optional_field_absent_ok(self, tmp_path):
        path = tmp_path / "r.jsonl"
        obj = json.loads(valid_line())
        obj.pop("signal_dbm", None)
        write_lines(path, [json.dumps(obj)])
        records, report = read_records(path)
        assert report.accepted == 1
        assert records[0].signal_dbm is None

    def test_mixed_file_counts(self, tmp_path):
        path = tmp_path / "r.jsonl"
        lines = [valid_line() for _ in range(100)]
        lines.insert(10, "{not json")
        lines.insert(50, json.dumps({"record_id": "x"}))  # missing fields
        lines.insert(70, valid_line().replace('"HSPA"', '"5G"'))  # bad technology
        write_lines(path, lines)
        records, report = read_records(path)
        assert report.accepted == 100
        assert report.rejected == 3
        assert len(records) == 100
        assert report.accepted + report.rejected == 103

    def test_unknown_field_warns(self, tmp_path):
        path = tmp_path / "r.jsonl"
        obj = json.loads(valid_line())
        obj["bogus"] = 1
        write_lines(path, [json.dumps(obj)])
        records, report = read_records(path)
        assert report.accepted == 1
        assert any("unknown field" in w for _, w in report.warnings)

    @pytest.mark.parametrize("field, value, reason", [
        ("signal_dbm", float("nan"), "signal_dbm must be finite"),
        ("latitude", float("inf"), "latitude must be finite"),
        ("user_id", 7, "user_id must be a string"),
        ("record_id", None, "record_id must be a string"),
        ("network_operator", ["OpA"], "network_operator must be a string"),
        ("manufacturer", 1, "manufacturer must be a string"),
        ("os_version", 6.0, "os_version must be a string"),
        ("cell_id", 3, "cell_id must be a string"),
        ("timestamp", True, "timestamp must be a positive integer"),
        ("timestamp", 1.4518656e12, "timestamp must be a positive integer"),
        ("transport_port", 80.5, "transport_port must be an integer"),
        ("download_kbps", float("inf"), "non-finite or negative throughput"),
        ("upload_kbps", float("nan"), "non-finite or negative throughput"),
        ("latency_ms", float("nan"), "non-finite or negative latency"),
        ("samples", {"interval_ms": 500, "values": [900.0, float("nan")]}, "non-finite or negative sample value"),
    ])
    def test_bad_value_rejected_with_reason(self, tmp_path, field, value, reason):
        path = tmp_path / "r.jsonl"
        obj = json.loads(valid_line(samples=make_series([900.0, 1100.0]), download_kbps=1000.0,
                                    signal_dbm=-70.0, cell_id="c1"))
        obj[field] = value
        write_lines(path, [valid_line(), json.dumps(obj)])
        records, report = read_records(path)
        assert (report.accepted, report.rejected) == (1, 1)
        assert report.warnings == [(2, reason)]

    def test_unreadable_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            read_records(tmp_path / "missing.jsonl")

    def test_round_trip(self, tmp_path):
        records = [
            make_record(),
            make_record(signal_dbm=-71.5, cell_id="c9", samples=make_series([900.0, 1100.0]),
                        download_kbps=1000.0, region_tag="rural", plan_id="p1"),
        ]
        path = tmp_path / "rt.jsonl"
        write_records(records, path)
        back, report = read_records(path)
        assert back == records
        assert report.rejected == 0


class TestReadCatalog:
    HEADER = "kind,manufacturer,model,technology,operator,plan_id,cap_kbps"

    def test_tech_row(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(self.HEADER + "\ntech,,,HSPA,,,21000\n")
        catalog, report = read_catalog(path)
        assert catalog.tech_caps[RadioTechnology.HSPA] == 21000.0
        assert report.rejected == 0

    def test_device_above_standard_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(self.HEADER + "\ntech,,,HSPA,,,21000\ndevice,X,Y,HSPA,,,42000\n")
        catalog, report = read_catalog(path)
        assert ("X", "Y", RadioTechnology.HSPA) not in catalog.device_caps
        assert report.rejected == 1
        assert "exceeds" in report.warnings[0][1]

    def test_device_rejection_is_order_independent(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(self.HEADER + "\ndevice,X,Y,HSPA,,,42000\ntech,,,HSPA,,,21000\n")
        catalog, report = read_catalog(path)
        assert catalog.device_caps == {}
        assert report.rejected == 1

    def test_empty_catalog(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(self.HEADER + "\n")
        catalog, report = read_catalog(path)
        assert catalog.tech_caps == {} and catalog.device_caps == {} and catalog.plan_caps == {}
        assert report.rejected == 0

    def test_duplicate_last_wins_with_warning(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(self.HEADER + "\ntech,,,LTE,,,100000\ntech,,,LTE,,,150000\n")
        catalog, report = read_catalog(path)
        assert catalog.tech_caps[RadioTechnology.LTE] == 150000.0
        assert any("last wins" in w for _, w in report.warnings)

    def test_nonpositive_cap_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(self.HEADER + "\nplan,,,,OpA,p1,0\n")
        _, report = read_catalog(path)
        assert report.rejected == 1


class TestBuildSessions:
    def test_partition_by_user(self):
        records = [make_record(user_id=u, timestamp=1_000_000 + i)
                   for u in ("a", "b") for i in range(3)]
        sessions = build_sessions(records)
        assert len(sessions) == 2
        assert all(len(s.records) == 3 for s in sessions)

    def test_dual_subscription_splits(self):
        records = [make_record(user_id="u", subscriber_operator=op) for op in ("Vodafone", "BSNL")]
        sessions = build_sessions(records)
        assert len(sessions) == 2

    def test_tie_broken_by_record_id(self):
        r1 = make_record(record_id="zz", timestamp=5_000)
        r2 = make_record(record_id="aa", timestamp=5_000)
        sessions = build_sessions([r1, r2])
        assert [r.record_id for r in sessions[0].records] == ["aa", "zz"]

    def test_bijection_on_records(self):
        records = [make_record(user_id=f"u{i % 7}", timestamp=1_000 + i) for i in range(50)]
        sessions = build_sessions(records)
        assert sum(len(s.records) for s in sessions) == len(records)
        ids = {r.record_id for s in sessions for r in s.records}
        assert ids == {r.record_id for r in records}

    def test_order_deterministic_regardless_of_input_order(self):
        records = [make_record(user_id=f"u{i % 3}", timestamp=1_000 + i) for i in range(20)]
        assert build_sessions(records) == build_sessions(list(reversed(records)))
