"""Any JSON value in any field of a trace line ends as an accepted record or
a rejected line with a reason, and analyze and report then run without a
traceback.

Each case puts one value into one field of one line of a small valid trace
(one user, handovers and a downgrade between two cells, sample series long
enough to classify, one line without samples) and runs analyze, then every
report, in-process.
"""

import contextlib
import csv
import io
import json
import shutil
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_record, make_series
from mobitrace.attribution import Factor, LimitingFactorVerdict
from mobitrace.cli import main
from mobitrace.congestion import Pool
from mobitrace.coverage import HandoverEvent
from mobitrace.ingest import record_to_obj
from mobitrace.model import (MAX_THROUGHPUT_KBPS, SIGNAL_DBM_LIMIT, TIMESTAMP_END_MS, AnalysisConfig,
                             MeasurementRecord, RadioTechnology, SampleSeries, from_json, to_json)
from mobitrace.synth import Scenario, ScenarioConfig


def _trace():
    lines = []
    for i, (cell, tech, level) in enumerate([("c1", RadioTechnology.LTE, 5000.0),
                                             ("c2", RadioTechnology.HSPA, 2000.0),
                                             ("c1", RadioTechnology.LTE, 4000.0)]):
        values = [level * (1 + 0.1 * ((k * 7) % 5 - 2)) for k in range(24)]
        series = make_series(values)
        record = make_record(record_id=f"r{i}", timestamp=1_451_865_600_000 + 60_000 * i,
                             download_kbps=series.mean(), samples=series, cell_id=cell,
                             technology=tech, signal_dbm=-70.0 - 10 * i, region_tag="urban",
                             latency_ms=40.0, transport_port=443)
        lines.append(record_to_obj(record))
    # without samples, so that its headline throughput may take any value
    lines.append(record_to_obj(make_record(record_id="r3", timestamp=1_451_865_780_000, cell_id="c2",
                                           signal_dbm=-60.0, download_kbps=3000.0)))
    return lines


TRACE = _trace()
# the record fields, plus the two fields of a sample series
FIELDS = tuple(f.name for f in fields(MeasurementRecord)) + ("samples.interval_ms", "samples.values")

_surrogates = st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)
_text = st.text(st.characters() | _surrogates, max_size=4)
_scalars = st.none() | st.booleans() | st.integers() | st.floats() | _text
# extremes, drawn as often as arbitrary JSON
_edges = st.sampled_from([10**400, -10**400, 2**63, 1e308, -1e308, 1.7976931348623157e308, 1e200,
                          -1e200, 5e-324, float("nan"), float("inf"), "\ud800", "", "LTE"])
_values = _edges | st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(_text, children, max_size=3),
    max_leaves=6,
)
# a sample series of one repeated extreme, or a short list of anything
_sample_values = _edges.map(lambda v: [v, v]) | st.lists(_edges | _scalars, min_size=2, max_size=4)


def _set(obj, field, value):
    obj = json.loads(json.dumps(obj))
    if field.startswith("samples."):
        obj["samples"][field[len("samples."):]] = value
    else:
        obj[field] = value
    return obj


@pytest.mark.parametrize("field", FIELDS)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_any_value_accepted_or_rejected_with_reason(field, data):
    value = data.draw(_sample_values if field == "samples.values" else _values, label="value")
    lines = [i for i, obj in enumerate(TRACE) if "samples" in obj or not field.startswith("samples.")]
    line = data.draw(st.sampled_from(lines), label="line")
    objs = list(TRACE)
    objs[line] = _set(objs[line], field, value)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        trace = root / "trace.jsonl"
        trace.write_text("".join(json.dumps(obj) + "\n" for obj in objs), encoding="utf-8")
        code = main(["analyze", "--in", str(trace), "--out", str(root / "an")])
        assert code in (0, 3)
        if code == 3:
            return
        report = json.loads((root / "an" / "ingest_report.json").read_text())["records"]
        assert report["accepted"] + report["rejected"] == len(objs)
        reasons = [reason for line_no, reason in report["warnings"] if line_no == line + 1]
        assert report["rejected"] in (0, 1)
        if report["rejected"]:
            assert reasons and all(isinstance(r, str) and r for r in reasons)
        assert main(["report", "--in", str(root / "an"), "--out", str(root / "rep"),
                     "--report", "all"]) == 0


# ---------------------------------------------------------------------------
# Every other input kind: --config files, catalog cells and the rows that
# report reads back. Each case runs the CLI in-process and asserts that no
# exception leaves main, that the exit code is 0, 2 or 3 with exactly one
# "error:" line when it is not 0, and that every output is strict JSON.


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def _exits_cleanly(argv, out: Path) -> int:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    for path in sorted(out.rglob("*.json*")) if out.exists() else ():
        text = path.read_text(encoding="utf-8")
        for doc in text.splitlines() if path.suffix == ".jsonl" else [text]:
            json.loads(doc, parse_constant=_refuse)
    return code


def _write_trace(path: Path) -> Path:
    path.write_text("".join(json.dumps(obj) + "\n" for obj in TRACE), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory):
    """A directory holding the trace and analyze's outputs for it."""
    root = tmp_path_factory.mktemp("analyzed")
    assert main(["analyze", "--in", str(_write_trace(root / "trace.jsonl")), "--out", str(root)]) == 0
    return root


# one stationary hour per cell keeps synth small; a commute has two cells
SCENARIO = {"seed": 1, "scenario": "stationary24h", "records_per_hour": 1, "samples_per_record": 24,
            "cells": [["c1", "LTE", 5000.0], ["c2", "HSPA", 2000.0]]}
# these two set how much synth writes, so an integer there stays small
_SIZE_FIELDS = ("records_per_hour", "samples_per_record")
_small = _values.filter(lambda v: type(v) is not int or v <= 48)
CONFIG_FIELDS = ([("synth", f.name) for f in fields(ScenarioConfig)]
                 + [(command, f.name) for command in ("analyze", "report") for f in fields(AnalysisConfig)])


@pytest.mark.parametrize("command, field", CONFIG_FIELDS)
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_any_config_value_exits_cleanly(analyzed, command, field, data):
    value = data.draw(_small if field in _SIZE_FIELDS else _values, label="value")
    config = {**SCENARIO, field: value} if command == "synth" else {field: value}
    source = {"synth": [], "analyze": ["--in", str(analyzed / "trace.jsonl")], "report": ["--in", str(analyzed)]}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
        _exits_cleanly([command, *source[command], "--config", str(root / "config.json"),
                        "--out", str(root / "out")], root / "out")


CATALOG = [["kind", "manufacturer", "model", "technology", "operator", "plan_id", "cap_kbps"],
           ["tech", "", "", "LTE", "", "", "100000"],
           ["device", "Acme", "One", "HSPA", "", "", "3200"],
           ["plan", "", "", "", "OpA", "basic", "50000"]]
_cell = _text | st.binary(max_size=6) | st.sampled_from(["inf", "nan", "1e999", "-1", "0", "5e-324", "LTE", ""])


def _catalog_bytes(row: int, column: int, cell) -> bytes:
    """CATALOG with one cell replaced: text goes through the csv writer,
    bytes go in as they are."""
    buf = io.StringIO()
    marker = "\x00cell\x00"
    rows = [list(r) for r in CATALOG]
    rows[row][column] = cell if isinstance(cell, str) else marker
    csv.writer(buf, lineterminator="\n").writerows(rows)
    data = buf.getvalue().encode("utf-8", errors="surrogatepass")
    return data if isinstance(cell, str) else data.replace(marker.encode(), cell)


@pytest.mark.parametrize("column", range(len(CATALOG[0])))
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_any_catalog_cell_exits_cleanly(analyzed, column, data):
    row = data.draw(st.integers(1, len(CATALOG) - 1), label="row")
    cell = data.draw(_cell, label="cell")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "caps.csv").write_bytes(_catalog_bytes(row, column, cell))
        an = root / "an"
        code = _exits_cleanly(["analyze", "--in", str(analyzed / "trace.jsonl"), "--out", str(an),
                               "--catalog", str(root / "caps.csv")], an)
        if code == 0:
            _exits_cleanly(["report", "--in", str(an), "--out", str(root / "rep")], root / "rep")


VERDICT_FIELDS = ("record_id", "factor", "artificial", "binding_upper_bound_kbps", "congestion_pool")
ASSESSMENT_FIELDS = ("upper_bound_kbps", "upper_bound_window", "overall_mape_pct", "pool", "spikes_replaced")
ROW_FIELDS = ([("analyzed.jsonl", "verdict", f) for f in VERDICT_FIELDS]
              + [("analyzed.jsonl", "assessment", f) for f in ASSESSMENT_FIELDS]
              + [("analyzed.jsonl", None, part) for part in ("verdict", "assessment")]
              + [("handovers.jsonl", None, f.name) for f in fields(HandoverEvent)])


@pytest.mark.parametrize("name, part, field", ROW_FIELDS)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_any_row_value_exits_cleanly(analyzed, name, part, field, data):
    rows = [json.loads(line) for line in (analyzed / name).read_text().splitlines()]
    candidates = [i for i, row in enumerate(rows) if part is None or row[part] is not None]
    i = data.draw(st.sampled_from(candidates), label="row")
    value = data.draw(_values, label="value")
    if part is None:
        rows[i][field] = value
    else:
        rows[i][part][field] = value
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(analyzed, root / "an")
        (root / "an" / name).write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        _exits_cleanly(["report", "--in", str(root / "an"), "--out", str(root / "rep")], root / "rep")


@pytest.mark.parametrize("name", ["analyzed.jsonl", "handovers.jsonl"])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_any_bytes_spliced_into_a_row_exit_cleanly(analyzed, name, data):
    """Raw bytes, which no JSON value above can hold: any bytes, UTF-8 or not, newlines included,
    replace a span of one row."""
    lines = (analyzed / name).read_bytes().splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1), label="row")
    start = data.draw(st.integers(0, len(lines[i])), label="start")
    end = data.draw(st.integers(start, min(start + 4, len(lines[i]))), label="end")
    lines[i] = lines[i][:start] + data.draw(st.binary(min_size=1, max_size=6), label="bytes") + lines[i][end:]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(analyzed, root / "an")
        (root / "an" / name).write_bytes(b"".join(lines))
        _exits_cleanly(["report", "--in", str(root / "an"), "--out", str(root / "rep")], root / "rep")


# ---------------------------------------------------------------------------
# from_json inverts to_json on every type that a JSON input decodes into.

_plain_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
_kbps = st.floats(0, MAX_THROUGHPUT_KBPS)
_dbm = st.none() | st.floats(-SIGNAL_DBM_LIMIT, SIGNAL_DBM_LIMIT)


@st.composite
def _records(draw):
    values = draw(st.none() | st.lists(_kbps, min_size=2, max_size=6))
    samples = None if values is None else SampleSeries(draw(st.integers(1, 10**6)), tuple(values))
    optional = st.none() | _plain_text
    return MeasurementRecord(
        **{name: draw(_plain_text) for name in ("record_id", "user_id", "manufacturer", "model", "os_name",
                                                "os_version", "network_operator", "subscriber_operator")},
        timestamp=draw(st.integers(1, TIMESTAMP_END_MS - 1)),
        download_kbps=draw(_kbps) if samples is None else samples.mean(),
        upload_kbps=draw(_kbps | st.integers(0, MAX_THROUGHPUT_KBPS)),
        technology=draw(st.sampled_from(RadioTechnology)),
        latitude=draw(st.none() | st.floats(-90, 90)),
        latency_ms=draw(st.none() | st.floats(0, 1e6)),
        signal_dbm=draw(_dbm),
        cell_id=draw(optional), ip_address=draw(optional), region_tag=draw(optional), plan_id=draw(optional),
        transport_port=draw(st.none() | st.integers(0, 65535)),
        samples=samples,
    )


_EXAMPLES = {
    MeasurementRecord: _records(),
    HandoverEvent: st.builds(HandoverEvent, user_id=_plain_text, at_ms=st.integers(), from_cell=_plain_text,
                             to_cell=_plain_text, from_tech=st.sampled_from(RadioTechnology),
                             to_tech=st.sampled_from(RadioTechnology), from_kbps=_kbps, to_kbps=_kbps,
                             downgrade=st.booleans(), gap_ms=st.integers(0, 10**9), from_dbm=_dbm, to_dbm=_dbm),
    LimitingFactorVerdict: st.builds(LimitingFactorVerdict, factor=st.sampled_from(Factor),
                                     artificial=st.booleans(), binding_upper_bound_kbps=st.none() | _kbps,
                                     congestion_pool=st.none() | st.sampled_from(Pool)),
    AnalysisConfig: st.builds(AnalysisConfig, window_size=st.integers(2, 100), spike_factor=st.floats(1.5, 10),
                              handover_max_gap_ms=st.integers(0, 10**9), histogram_bin_kbps=st.floats(100, 1e6),
                              utc_offset_minutes=st.integers(-720, 840)),
    ScenarioConfig: st.builds(
        ScenarioConfig, seed=st.integers(), scenario=st.just(Scenario.COMMUTE),
        cells=st.lists(st.tuples(_plain_text, st.sampled_from(RadioTechnology), st.floats(1, 1e6)),
                       min_size=2, max_size=4).map(tuple),
        planted_pool_mix=st.none() | st.just({"LOW": 0.25, "HIGH": 0.75}),
        technology=st.sampled_from(RadioTechnology), user_id=_plain_text, plan_id=st.none() | _plain_text),
}


@pytest.mark.parametrize("cls", list(_EXAMPLES), ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_from_json_inverts_to_json(cls, data):
    value = data.draw(_EXAMPLES[cls], label="value")
    assert from_json(cls, json.loads(json.dumps(to_json(value)))) == value
