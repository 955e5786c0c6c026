import csv
import gc
import json
import tracemalloc

import pytest

from conftest import make_record, make_series
from mobitrace.cli import main
from mobitrace.ingest import build_sessions, read_catalog, read_records, replacing, write_json, write_records
from mobitrace.model import TIMESTAMP_END_MS, RadioTechnology, to_json


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def valid_line(**overrides):
    obj = to_json(make_record(**overrides))
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
        assert "download_kbps must be at least 0 and at most 10000000" in report.warnings[0][1]

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

    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    def test_carriage_return_inside_a_line_is_whitespace(self, tmp_path, ending):
        # JSON allows a bare CR between tokens; only a newline ends a line, and JSON's whitespace
        # around a line is stripped
        path = tmp_path / "r.jsonl"
        first = " \t" + valid_line().replace(", ", ",\r", 1) + "\t "
        path.write_bytes(ending.join([first, " \t", valid_line(), "{broken", ""]).encode())
        records, report = read_records(path)
        assert (report.accepted, report.rejected) == (2, 1)
        assert report.warnings == [(4, "invalid JSON")]

    @pytest.mark.parametrize("char", ["\x1c", "\x1f", "\x85", "\u2028", "\x0b", "\x0c", "\xa0"])
    def test_other_whitespace_around_a_line_rejected(self, tmp_path, char):
        # str.strip() would remove these, but JSON does not count them as whitespace
        path = tmp_path / "r.jsonl"
        path.write_bytes("\n".join([char + valid_line() + char, char, valid_line(), ""]).encode())
        records, report = read_records(path)
        assert (report.accepted, report.rejected) == (1, 2)
        assert report.warnings == [(1, "invalid JSON"), (2, "invalid JSON")]

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
        ("timestamp", True, "timestamp must be an integer"),
        ("timestamp", 1.4518656e12, "timestamp must be an integer"),
        ("transport_port", 80.5, "transport_port must be an integer"),
        ("download_kbps", float("inf"), "download_kbps must be finite"),
        ("upload_kbps", float("nan"), "upload_kbps must be finite"),
        ("latency_ms", float("nan"), "latency_ms must be finite"),
        ("samples", {"interval_ms": 500, "values": [900.0, float("nan")]}, "non-finite or negative sample value"),
        ("timestamp", 10**20, "timestamp must be above 0 and below 253402214400000"),
        ("timestamp", TIMESTAMP_END_MS, "timestamp must be above 0 and below 253402214400000"),
        ("download_kbps", "x", "download_kbps must be a number"),
        ("upload_kbps", None, "upload_kbps must be a number"),
        ("latitude", "12", "latitude must be a number"),
        ("latitude", True, "latitude must be a number"),
        ("latency_ms", "5", "latency_ms must be a number"),
        ("samples", {"interval_ms": 500, "values": ["900", "950"]}, "sample values must be numbers"),
        ("samples", {"interval_ms": 500, "values": [True, True]}, "sample values must be numbers"),
        ("samples", {"interval_ms": 500, "values": "ab"}, "sample values must be a list"),
        ("samples", {"interval_ms": 1.5, "values": [900.0, 1100.0]}, "interval_ms must be an integer"),
        ("samples", {"interval_ms": True, "values": [900.0, 1100.0]}, "interval_ms must be an integer"),
        ("samples", {"interval_ms": "500", "values": [900.0, 1100.0]}, "interval_ms must be an integer"),
        ("samples", {"interval_ms": 500, "values": [10**400, 900]}, "non-finite or negative sample value"),
        ("download_kbps", 10**400, "download_kbps must be finite"),
        ("latency_ms", 10**400, "latency_ms must be finite"),
        ("longitude", -10**400, "longitude must be finite"),
        ("samples", {"interval_ms": 500, "values": [1e308, 1e308]}, "sample values must be at most 10000000 kbps"),
        ("download_kbps", 1e308, "download_kbps must be at least 0 and at most 10000000"),
        ("upload_kbps", 10_000_001, "upload_kbps must be at least 0 and at most 10000000"),
        ("signal_dbm", 1e200, "signal_dbm must be at least -1000 and at most 1000"),
        ("signal_dbm", -1000.5, "signal_dbm must be at least -1000 and at most 1000"),
        ("network_operator", "Op\ud800", "network_operator must be UTF-8 text"),
        ("cell_id", "\udcff", "cell_id must be UTF-8 text"),
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

    def test_duplicate_record_id_kept_with_warning(self, tmp_path):
        path = tmp_path / "r.jsonl"
        # a rejected line does not count as the first of its id
        write_lines(path, [json.dumps({"record_id": "a"}), valid_line(record_id="a"),
                           valid_line(record_id="b"), valid_line(record_id="a")])
        records, report = read_records(path)
        assert [r.record_id for r in records] == ["a", "b", "a"]
        assert report.warnings == [(1, "missing required field 'user_id'"),
                                   (4, "duplicate record_id 'a' (first on line 2)")]

    def test_unparsable_json_rejected(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_lines(path, [valid_line(), valid_line()[:-1] + ', "transport_port": ' + "1" * 5000 + "}",
                           "[" * 100_000, '{"a": ' * 100_000])
        records, report = read_records(path)
        assert (report.accepted, report.rejected) == (1, 3)
        assert report.warnings == [(2, "invalid JSON"), (3, "invalid JSON"), (4, "invalid JSON")]

    def test_bytes_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "r.jsonl"
        operator = valid_line(network_operator="Op\xff").encode("ascii").replace(b"\\u00ff", b"\xff")
        path.write_bytes(valid_line().encode() + b"\n" + operator + b"\n\xff\n")
        records, report = read_records(path)
        assert (report.accepted, report.rejected) == (1, 2)
        assert report.warnings == [(2, "network_operator must be UTF-8 text"), (3, "invalid JSON")]

    def test_unreadable_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            read_records(tmp_path / "missing.jsonl")

    def test_records_share_repeated_text(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_lines(path, [valid_line(user_id="user-1042", cell_id="cell-7/3") for _ in range(2)])
        first, second = read_records(path)[0]
        assert first.user_id is second.user_id and first.cell_id is second.cell_id
        assert first.record_id != second.record_id

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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_write_json_refuses_non_finite(tmp_path, value):
    with pytest.raises(ValueError):
        write_json([{"a": 1.0}, {"b": [value]}], tmp_path / "out.jsonl")
    assert list(tmp_path.iterdir()) == []  # neither a cut-off target nor its temporary file


def test_replacing_block_that_raises_leaves_no_file(tmp_path):
    with pytest.raises(ValueError):
        with replacing(tmp_path / "out.csv") as fh:
            fh.write("kind,count\n")
            raise ValueError("cut off")
    assert list(tmp_path.iterdir()) == []  # neither out.csv nor .out.csv.tmp


# Bytes that the records read from a synth trace hold, per record: 1365 under
# Python 3.11 with interned text and slotted records (1963 without), plus 10%.
BYTES_PER_RECORD_MAX = 1500


def test_record_memory_stays_bounded(tmp_path):
    assert main(["synth", "--scenario", "stationary24h", "--seed", "7", "--records-per-hour", "21",
                 "--spike-rate", "0.05", "--out", str(tmp_path)]) == 0
    trace = tmp_path / "trace.jsonl"
    read_records(trace)  # fills the caches a first read fills
    gc.collect()
    tracemalloc.start()
    try:
        records, _ = read_records(trace)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(records) == 504
    assert held / len(records) <= BYTES_PER_RECORD_MAX


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

    @pytest.mark.parametrize("cap", ["inf", "nan", "1e999", "-inf"])
    def test_non_finite_cap_rejected(self, tmp_path, cap):
        path = tmp_path / "c.csv"
        path.write_text(self.HEADER + f"\ntech,,,HSPA,,,{cap}\ndevice,X,Y,LTE,,,{cap}\nplan,,,,OpA,p1,{cap}\n")
        catalog, report = read_catalog(path)
        assert catalog.tech_caps == {} and catalog.device_caps == {} and catalog.plan_caps == {}
        assert report.warnings == [(line, "cap must be finite and positive") for line in (2, 3, 4)]

    def test_bytes_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_bytes(self.HEADER.encode() + b"\ntech,,,HSPA,,,21000\n"
                         b"device,X\xff,Y,HSPA,,,3200\n"  # a manufacturer
                         b"tech,,,\xff,,,1000\n"  # a technology, quoted by its reason otherwise
                         b"plan,,,,OpA,p1,100,\xff\n")  # a cell beyond the header
        catalog, report = read_catalog(path)
        assert catalog.tech_caps == {RadioTechnology.HSPA: 21000.0}
        assert catalog.device_caps == {} and catalog.plan_caps == {}
        assert (report.accepted, report.rejected) == (1, 3)
        assert report.warnings == [(line, "row must be UTF-8 text") for line in (3, 4, 5)]

    @pytest.mark.parametrize("before", ['device,"Ac\nme",One,HSPA,,,3200\n', "device,Acme,One,HSPA,,,3200\n\n"])
    def test_line_numbers_are_physical_lines(self, tmp_path, before):
        path = tmp_path / "c.csv"
        path.write_text(self.HEADER + "\n" + before + "plan,,,,OpA,p1,-1\n")
        _, report = read_catalog(path)
        assert report.warnings == [(4, "cap must be finite and positive")]

    def test_padded_kind_read_as_its_kind(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(self.HEADER + "\ntech,,,HSPA,,,21000\n device,Acme,One,HSPA,,,42000\n"
                        "device ,Acme,Two,HSPA,,,3200\n")
        catalog, report = read_catalog(path)
        assert report.warnings == [(3, "device cap 42000 exceeds HSPA standard cap 21000")]
        assert catalog.device_caps == {("Acme", "Two", RadioTechnology.HSPA): 3200.0}
        assert catalog.plan_caps == {}

    @pytest.mark.parametrize("cell", ["{}", '"Ac\n{}"'])
    def test_cell_beyond_the_csv_field_limit_rejected(self, tmp_path, cell):
        limit = csv.field_size_limit()
        path = tmp_path / "c.csv"
        path.write_text(self.HEADER + "\ntech,,,HSPA,,,21000\n"
                        f"device,{cell.format('x' * (limit + 1))},One,HSPA,,,3200\nplan,,,,OpA,p1,100\n")
        catalog, report = read_catalog(path)
        assert report.warnings == [(3, f"cell longer than the csv field limit ({limit} characters)")]
        assert (report.accepted, report.rejected) == (2, 1)
        assert catalog.tech_caps == {RadioTechnology.HSPA: 21000.0}
        assert catalog.device_caps == {} and catalog.plan_caps == {("OpA", "p1"): 100.0}

    def test_header_beyond_the_csv_field_limit_reads_as_none(self, tmp_path):
        limit = csv.field_size_limit()
        path = tmp_path / "c.csv"
        path.write_text("x" * (limit + 1) + "\ntech,,,HSPA,,,21000\n")
        catalog, report = read_catalog(path)
        assert report.warnings == [(1, f"cell longer than the csv field limit ({limit} characters)"),
                                   (2, "unknown kind ''")]
        assert catalog.tech_caps == {}

    def test_header_not_utf8_reads_as_none(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_bytes(self.HEADER.replace("model", "mod\xffel").encode("latin-1")
                         + b"\ndevice,Acme,One,HSPA,,,3200\ndevice,Acme,Two,HSPA,,,4200\n")
        catalog, report = read_catalog(path)
        assert report.warnings == [(1, "row must be UTF-8 text"), (2, "unknown kind ''"), (3, "unknown kind ''")]
        assert (report.accepted, report.rejected) == (0, 3)
        assert catalog.device_caps == {}


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
