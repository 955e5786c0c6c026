"""Any JSON value in any field of a trace line ends as an accepted record or
a rejected line with a reason, and analyze and report then run without a
traceback.

Each case puts one value into one field of one line of a small valid trace
(one user, handovers and a downgrade between two cells, sample series long
enough to classify, one line without samples) and runs analyze, then every
report, in-process.
"""

import json
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_record, make_series
from mobitrace.cli import main
from mobitrace.ingest import record_to_obj
from mobitrace.model import MeasurementRecord, RadioTechnology


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
