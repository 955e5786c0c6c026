"""File ingest: JSON Lines measurement records and CSV capability catalogs.

Malformed lines are rejected per line with a reason and never abort the
whole file; only an unreadable file is fatal.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import List, NamedTuple, Optional, Tuple

from .model import (CapabilityCatalog, MeasurementRecord, RadioTechnology, check_cap, check_device_cap,
                    from_json, to_json)

RECORD_FIELDS = frozenset(f.name for f in fields(MeasurementRecord))


@dataclass
class IngestReport:
    accepted: int = 0
    rejected: int = 0
    warnings: List[Tuple[int, str]] = field(default_factory=list)

    def reject(self, line_no: int, reason: str) -> None:
        self.rejected += 1
        self.warnings.append((line_no, reason))


class Session(NamedTuple):
    """Time-ordered records of one user on one subscription."""

    user_id: str
    subscriber_operator: str
    records: Tuple[MeasurementRecord, ...]


def record_from_obj(obj: dict) -> Tuple[MeasurementRecord, List[str]]:
    """Build a record from a parsed JSON object; returns (record, warnings). A field the record
    does not have is ignored with a warning."""
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    warnings = []
    if not obj.keys() <= RECORD_FIELDS:
        warnings = [f"unknown field '{name}' ignored" for name in obj if name not in RECORD_FIELDS]
        obj = {name: value for name, value in obj.items() if name in RECORD_FIELDS}
    if isinstance(samples := obj.get("samples"), dict) and not isinstance(samples.get("values", []), list):
        raise ValueError("sample values must be a list")
    record = from_json(MeasurementRecord, obj)
    if not record.signal_in_range():
        warnings.append(f"signal_dbm {record.signal_dbm} outside physical range")
    return record, warnings


def read_json_lines(path, parse):
    """Yield (line_no, parse(value), None) for the JSON value on each line of path, or (line_no, None,
    fault) for a line that does not parse. Blank lines are skipped. The fault reads "invalid JSON",
    "missing field 'x'" for a KeyError, or the text of the ValueError or TypeError that parse raised.
    Bytes that are not UTF-8 are read as lone surrogates, which JSON or a record's text check
    rejects. Only a newline ends a line: a bare carriage return is JSON whitespace, and the one of a
    CRLF ending is stripped with the rest. Only JSON's whitespace (space, tab, CR, LF) is stripped, so
    a line wrapped in another control or separator character does not parse. Raises OSError if the
    file is unreadable."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip(" \t\r\n")
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError):  # also too long an int, too deep a nesting
                yield line_no, None, "invalid JSON"
                continue
            try:
                value, fault = parse(obj), None
            except KeyError as exc:
                value, fault = None, f"missing field {exc}"
            except (ValueError, TypeError) as exc:
                value, fault = None, str(exc)
            yield line_no, value, fault


def read_records(path) -> Tuple[List[MeasurementRecord], IngestReport]:
    """Parse a JSON Lines record file, rejecting each line that does not parse. Raises OSError if
    unreadable.

    A record whose record_id an earlier accepted record has is kept, with
    a warning that names the line of the first.
    """
    records = []
    report = IngestReport()
    first_line = {}  # record_id -> line of the first accepted record
    for line_no, parsed, fault in read_json_lines(path, record_from_obj):
        if fault is not None:
            report.reject(line_no, fault)
            continue
        record, warns = parsed
        report.accepted += 1
        report.warnings.extend((line_no, w) for w in warns)
        first = first_line.setdefault(record.record_id, line_no)
        if first != line_no:
            report.warnings.append((line_no, f"duplicate record_id '{record.record_id}' (first on line {first})"))
        records.append(record)
    return records, report


@contextmanager
def replacing(path):
    """Open a temporary file beside path for writing UTF-8 text, newlines untranslated. It replaces
    path when the block ends; if the block raises it is deleted, so path is never left cut off."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(objs, path, indent=None) -> None:
    """Write each JSON-ready object of objs, keys sorted, then a newline:
    one object per line, or indented by indent, through replacing(path).
    The JSON is strict (RFC 8259): a NaN or an infinity raises ValueError
    instead of being written as text that no JSON parser accepts."""
    encoder = json.JSONEncoder(sort_keys=True, indent=indent, allow_nan=False)
    with replacing(path) as fh:
        for obj in objs:
            if indent is None:  # the C encoder, which makes the line whole
                fh.write(encoder.encode(obj))
            else:  # written as it is made, so the text is never held whole
                fh.writelines(encoder.iterencode(obj))
            fh.write("\n")


def write_records(records, path) -> None:
    write_json(map(to_json, records), path)


def _csv_rows(reader, report: IngestReport):
    """(line_no, cells) per row of a csv reader, line_no being the line it starts on (a quoted cell may
    hold a newline). A row with a cell beyond the csv module's field limit, or with a byte that is not
    UTF-8 (read as a lone surrogate, as in read_json_lines), is rejected with no cells."""
    line_no = 1
    while True:
        try:
            cells = next(reader)
            "".join(cells).encode("utf-8")  # before any reason quotes a cell
        except StopIteration:
            return
        except csv.Error:  # only that limit raises it here; the reader goes on at the next line
            report.reject(line_no, f"cell longer than the csv field limit ({csv.field_size_limit()} characters)")
            cells = []
        except UnicodeEncodeError:  # a lone surrogate
            report.reject(line_no, "row must be UTF-8 text")
            cells = []
        yield line_no, cells
        line_no = reader.line_num + 1


def _catalog_row(kind: str, row: dict, tech_caps: dict) -> Tuple[float, Optional[RadioTechnology], tuple]:
    """The cap, technology (None for a plan) and key of a catalog row of the given kind, a device's
    cap checked against tech_caps; a row to reject raises ValueError with the reason."""
    if kind not in ("tech", "device", "plan"):
        raise ValueError(f"unknown kind '{kind}'")
    try:
        cap = float(row.get("cap_kbps") or "")
    except ValueError:
        raise ValueError("bad cap_kbps") from None
    check_cap(cap)
    if kind == "plan":
        return cap, None, (row.get("operator") or "", row.get("plan_id") or "")
    try:
        tech = RadioTechnology(row.get("technology") or "")
    except ValueError:
        raise ValueError(f"unknown technology '{row.get('technology')}'") from None
    if kind == "tech":
        return cap, tech, tech
    check_device_cap(cap, tech, tech_caps)
    return cap, tech, (row.get("manufacturer") or "", row.get("model") or "", tech)


def read_catalog(path) -> Tuple[CapabilityCatalog, IngestReport]:
    """Parse a capability catalog CSV (kinds: device, tech, plan).

    Duplicate keys take the last value with a warning. A row is rejected for a cell beyond the csv
    module's field limit or a byte that is not UTF-8 (a header so rejected reads as none), a cap that
    is not finite and positive, or a device cap above its technology's. Device and plan rows are
    taken after every tech row, so row order does not matter."""
    report = IngestReport()
    caps = {"tech": {}, "device": {}, "plan": {}}

    def take(line_no: int, kind: str, row: dict) -> None:
        try:
            cap, tech, key = _catalog_row(kind, row, caps["tech"])
        except ValueError as exc:
            report.reject(line_no, str(exc))
            return
        if key in caps[kind]:
            where = f" for {tech.value}" if kind == "tech" else ""
            report.warnings.append((line_no, f"duplicate {kind} cap{where}; last wins"))
        caps[kind][key] = cap
        report.accepted += 1

    deferred = []  # (line_no, kind, row) of the device and plan rows
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        rows = _csv_rows(csv.reader(fh), report)
        _, header = next(rows, (1, []))
        for line_no, cells in rows:
            if not cells:  # a blank or rejected line
                continue
            row = dict(zip(header, cells))
            kind = (row.get("kind") or "").strip()
            if kind in ("device", "plan"):
                deferred.append((line_no, kind, row))
            else:
                take(line_no, kind, row)
    for line_no, kind, row in deferred:
        take(line_no, kind, row)
    return CapabilityCatalog(device_caps=caps["device"], tech_caps=caps["tech"], plan_caps=caps["plan"]), report


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
