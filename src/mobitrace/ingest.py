"""File ingest: JSON Lines measurement records and CSV capability catalogs.

Malformed lines are rejected per line with a reason and never abort the
whole file; only an unreadable file is fatal.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import List, Optional, Tuple

from .model import CapabilityCatalog, MeasurementRecord, RadioTechnology, from_json, to_json

RECORD_FIELDS = frozenset(f.name for f in fields(MeasurementRecord))


@dataclass
class IngestReport:
    accepted: int = 0
    rejected: int = 0
    warnings: List[Tuple[int, str]] = field(default_factory=list)


@dataclass(frozen=True)
class Session:
    """Time-ordered records of one user on one subscription."""

    user_id: str
    subscriber_operator: str
    records: Tuple[MeasurementRecord, ...]


def record_to_obj(record: MeasurementRecord) -> dict:
    """The record as a JSON object, without its None fields."""
    return {name: value for name, value in to_json(record).items() if value is not None}


def record_from_obj(obj: dict) -> Tuple[MeasurementRecord, List[str]]:
    """Build a record from a parsed JSON object; returns (record, warnings).

    Its text fields are interned, so records that repeat a user, cell or
    operator share one string; record_id is unique and kept as it is."""
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    warnings = []
    if not obj.keys() <= RECORD_FIELDS:
        warnings = [f"unknown field '{name}' ignored" for name in obj if name not in RECORD_FIELDS]
    obj = {name: sys.intern(value) if type(value) is str and name != "record_id" else value
           for name, value in obj.items() if name in RECORD_FIELDS}
    if isinstance(samples := obj.get("samples"), dict) and not isinstance(samples.get("values", []), list):
        raise ValueError("sample values must be a list")
    record = from_json(MeasurementRecord, obj)
    if not record.signal_in_range():
        warnings.append(f"signal_dbm {record.signal_dbm} outside physical range")
    return record, warnings


def read_records(path) -> Tuple[List[MeasurementRecord], IngestReport]:
    """Parse a JSON Lines record file. Raises OSError if unreadable.

    A record whose record_id an earlier accepted record has is kept, with
    a warning that names the line of the first. Bytes that are not UTF-8
    are read as lone surrogates, which the record's text check rejects.
    """
    records = []
    report = IngestReport()
    first_line = {}  # record_id -> line of the first accepted record
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError):  # also too long an int, too deep a nesting
                report.rejected += 1
                report.warnings.append((line_no, "invalid JSON"))
                continue
            try:
                record, warns = record_from_obj(obj)
            except (ValueError, TypeError) as exc:
                report.rejected += 1
                report.warnings.append((line_no, str(exc)))
                continue
            report.accepted += 1
            for w in warns:
                report.warnings.append((line_no, w))
            first = first_line.setdefault(record.record_id, line_no)
            if first != line_no:
                report.warnings.append(
                    (line_no, f"duplicate record_id '{record.record_id}' (first on line {first})"))
            records.append(record)
    return records, report


def write_json(objs, path, indent=None) -> None:
    """Write each JSON-ready object of objs, keys sorted, then a newline:
    one object per line, or indented by indent. The JSON is strict (RFC
    8259): a NaN or an infinity raises ValueError instead of being written
    as text that no JSON parser accepts.

    The text goes to a temporary file beside path, which replaces path
    only when every object is written; on a failure it is deleted, so
    path is never left cut off."""
    encoder = json.JSONEncoder(sort_keys=True, indent=indent, allow_nan=False)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for obj in objs:
                if indent is None:  # the C encoder, which makes the line whole
                    fh.write(encoder.encode(obj))
                else:  # written as it is made, so the text is never held whole
                    fh.writelines(encoder.iterencode(obj))
                fh.write("\n")
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_records(records, path) -> None:
    write_json(map(record_to_obj, records), path)


def _is_utf8(row: dict) -> bool:
    """False when a cell of a catalog row, extra cells included, holds a
    byte that was not UTF-8 (read as a lone surrogate)."""
    cells = [v for v in row.values() if isinstance(v, str)]
    try:
        "".join(cells + row.get(None, [])).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def read_catalog(path) -> Tuple[CapabilityCatalog, IngestReport]:
    """Parse a capability catalog CSV (kinds: device, tech, plan).

    Duplicate keys take the last value with a warning; rows with text
    that is not UTF-8, caps that are not finite and positive, or device
    caps above the technology standard are rejected. Tech rows are
    resolved first so device validation does not depend on row order.
    Bytes that are not UTF-8 are read as lone surrogates, as in
    read_records.
    """
    report = IngestReport()
    # (line_no, row): line_no is the row's first line, as a quoted cell may hold a newline; a row
    # maps the header's names to its cells, and None to the cells beyond the header
    rows = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        line_no = reader.line_num + 1
        for cells in reader:
            if cells:  # else a blank line
                rows.append((line_no, {**dict(zip(header, cells)), None: cells[len(header):]}))
            line_no = reader.line_num + 1

    def parse_cap(row, line_no) -> Optional[float]:
        try:
            cap = float(row.get("cap_kbps") or "")
        except ValueError:
            report.rejected += 1
            report.warnings.append((line_no, "bad cap_kbps"))
            return None
        if not 0 < cap < math.inf:  # also false for NaN
            report.rejected += 1
            report.warnings.append((line_no, "cap must be finite and positive"))
            return None
        return cap

    def parse_tech(row, line_no) -> Optional[RadioTechnology]:
        try:
            return RadioTechnology(row.get("technology") or "")
        except ValueError:
            report.rejected += 1
            report.warnings.append((line_no, f"unknown technology '{row.get('technology')}'"))
            return None

    tech_caps = {}
    deferred = []  # (line_no, row) for device/plan kinds
    for line_no, row in rows:
        if not _is_utf8(row):  # before any reason quotes its text
            report.rejected += 1
            report.warnings.append((line_no, "row must be UTF-8 text"))
            continue
        kind = (row.get("kind") or "").strip()
        if kind == "tech":
            cap = parse_cap(row, line_no)
            tech = parse_tech(row, line_no) if cap is not None else None
            if cap is None or tech is None:
                continue
            if tech in tech_caps:
                report.warnings.append((line_no, f"duplicate tech cap for {tech.value}; last wins"))
            tech_caps[tech] = cap
            report.accepted += 1
        elif kind in ("device", "plan"):
            deferred.append((line_no, row))
        else:
            report.rejected += 1
            report.warnings.append((line_no, f"unknown kind '{kind}'"))

    device_caps = {}
    plan_caps = {}
    for line_no, row in deferred:
        cap = parse_cap(row, line_no)
        if cap is None:
            continue
        if row["kind"] == "device":
            tech = parse_tech(row, line_no)
            if tech is None:
                continue
            tech_cap = tech_caps.get(tech)
            if tech_cap is not None and cap > tech_cap:
                report.rejected += 1
                report.warnings.append(
                    (line_no, f"device cap {cap:g} exceeds {tech.value} standard cap {tech_cap:g}")
                )
                continue
            key = (row.get("manufacturer") or "", row.get("model") or "", tech)
            if key in device_caps:
                report.warnings.append((line_no, "duplicate device cap; last wins"))
            device_caps[key] = cap
        else:
            key = (row.get("operator") or "", row.get("plan_id") or "")
            if key in plan_caps:
                report.warnings.append((line_no, "duplicate plan cap; last wins"))
            plan_caps[key] = cap
        report.accepted += 1

    catalog = CapabilityCatalog(device_caps=device_caps, tech_caps=tech_caps, plan_caps=plan_caps)
    return catalog, report


def build_sessions(records) -> List[Session]:
    """Partition records by (user, subscriber operator), time-ordered.

    Ties on timestamp break by record_id so the result is deterministic
    regardless of input order.
    """
    by_key = {}
    for record in records:
        by_key.setdefault((record.user_id, record.subscriber_operator), []).append(record)
    sessions = []
    for key in sorted(by_key):
        ordered = sorted(by_key[key], key=lambda r: (r.timestamp, r.record_id))
        sessions.append(Session(user_id=key[0], subscriber_operator=key[1], records=tuple(ordered)))
    return sessions
