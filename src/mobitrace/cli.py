"""Command-line surface: synth -> analyze -> report.

Exit codes: 0 success, 1 I/O failure, 2 usage or config error, 3 empty
result set. All outputs go to the caller-named run directory; inputs are
never mutated. For identical inputs and config every output is
byte-identical except manifest.json, which records wall time.
"""

from __future__ import annotations

import argparse
import bisect
import json
import sys
import time
from dataclasses import fields
from importlib import import_module
from pathlib import Path

from . import __version__
# record_from_obj is not called here; it stays bound because perfbench/tracer.py wraps it on this module.
from .ingest import (build_sessions, read_catalog, read_json_lines, read_records, record_from_obj, replacing,
                     write_json, write_records)
from .model import AnalysisConfig, CapabilityCatalog, Scenario, TechnologyGroup, from_json, to_json

# The names this module takes from each module that only some stages run. A stage binds them with
# _bind when it starts, so each stage imports only what it runs.
_STAGE_NAMES = {
    # generate is not called here; it stays bound because perfbench/tracer.py wraps it on this module.
    "synth": ("ScenarioConfig", "draw_records", "generate", "planted_truth"),
    "congestion": ("classify",),
    "attribution": ("AnalyzedRow", "AssessmentSummary", "attribute"),
    "coverage": ("HandoverEvent", "HandoverImpact", "camping_stats", "detect_handovers", "handover_impact"),
    "reports": ("Columns", "HistogramBin", "OperatorSummary", "PoolPoint", "SignalBin", "TrendPoint", "hourly_profile",
                "operator_summary", "pool_trend", "quarterly_trend", "signal_correlation", "throughput_histogram"),
}


def _bind(*modules) -> None:
    """Import the named modules and bind the names this module takes from each. A name already
    bound is kept, so a wrapper set on this module (perfbench/tracer.py sets one) sees every call."""
    for module in modules:
        imported = import_module(f".{module}", __package__)
        for name in _STAGE_NAMES[module]:
            globals().setdefault(name, getattr(imported, name))


def __getattr__(name):
    """A stage's name asked of this module before the stage ran: bind it first (PEP 562)."""
    module = next((m for m, names in _STAGE_NAMES.items() if name in names), None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(module)
    return globals()[name]


class UsageError(Exception):
    """Bad usage or config; main() reports it with exit code 2."""


class EmptyResult(Exception):
    """Nothing to analyze; main() reports it with exit code 3."""


def _sha256(path: Path) -> str:
    """The file's sha256, read 64 KiB at a time. It comes from CPython's own sha256 module, the one
    hashlib falls back to without OpenSSL: importing hashlib maps libcrypto, over 3 MB of peak RSS."""
    try:
        from _sha2 import sha256  # Python >= 3.12
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:  # a CPython built without its own hashes
            from hashlib import sha256

    h = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_csv(header, rows, path: Path) -> None:
    import csv

    with replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_manifest(out_dir: Path, command: str, config: dict, inputs, outputs, started: float, **extra) -> None:
    manifest = {
        "tool": "mobitrace",
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": sorted(outputs),
        "wall_time_s": time.monotonic() - started,
        **extra,
    }
    write_json([manifest], out_dir / "manifest.json", indent=2)


def _out_dir(args, command: str) -> Path:
    """args.out, made if missing; UsageError, before any write, if it holds another command's manifest.json."""
    out_dir = Path(args.out)
    try:
        written_by = json.loads((out_dir / "manifest.json").read_bytes())["command"]
    except FileNotFoundError:
        written_by = command
    except (ValueError, TypeError, KeyError, RecursionError):  # not a manifest this program writes
        written_by = None
    if written_by != command:
        raise UsageError(f"{out_dir} holds another command's manifest.json; give each stage its own --out")
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _load_config(args, cls):
    """The config dataclass cls: the --config JSON object ({} without --config), with each flag whose
    dest is a field of cls set over it. A bad value raises UsageError, an unreadable file OSError."""
    values = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                values = json.load(fh)
            except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
                raise UsageError(f"{args.config}: {exc}") from exc
        if not isinstance(values, dict):
            raise UsageError(f"{args.config}: config must be a JSON object")
    try:
        flags = {f.name: getattr(args, f.name, None) for f in fields(cls)}
        return from_json(cls, {**values, **{name: v for name, v in flags.items() if v is not None}})
    except (ValueError, TypeError) as exc:
        raise UsageError(exc) from exc


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> None:
    started = time.monotonic()
    _bind("synth")
    cfg = _load_config(args, ScenarioConfig)
    encode = json.JSONEncoder(sort_keys=True, allow_nan=False).encode  # write_json's one-line form
    # JSON escapes every quote inside a string, so this text can occur only as the key itself
    head, tail = encode(to_json(planted_truth(cfg))).split('"record_labels": []')
    out_dir = _out_dir(args, "synth")
    with replacing(out_dir / "ground_truth.json") as truth:
        truth.write(head + '"record_labels": [')

        def records():  # each record's label is written as it is handed over; both are dropped before the next
            sep = ""
            for record, label in draw_records(cfg):
                truth.write(sep + encode(to_json(label)))
                sep = ", "
                yield record
        try:
            write_records(records(), out_dir / "trace.jsonl")
        except ValueError as exc:  # a record out of the bounds ingest checks; both files are left as they were
            raise UsageError(f"scenario makes an invalid record: {exc}") from exc
        truth.write("]" + tail + "\n")
    _write_manifest(out_dir, "synth", to_json(cfg), [], ["trace.jsonl", "ground_truth.json"], started)


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> None:
    started = time.monotonic()
    _bind("congestion", "attribution", "coverage")
    cfg = _load_config(args, AnalysisConfig)
    inputs = [args.infile]
    records, ingest_report = read_records(args.infile)
    if args.catalog:
        catalog, catalog_report = read_catalog(args.catalog)
        inputs.append(args.catalog)
    else:
        catalog, catalog_report = CapabilityCatalog.empty(), None
    if not records:
        if n := ingest_report.rejected:  # no line was accepted, so each warning is a reject
            line_no, reason = ingest_report.warnings[0]
            raise EmptyResult(f"no analyzable records: {n} line{'s' * (n > 1)} rejected, "
                              f"the first on line {line_no}: {reason}")
        raise EmptyResult("no analyzable records")

    sessions = build_sessions(records)
    all_events = []
    event_times = {}  # session key -> sorted event timestamps
    for session in sessions:
        events = detect_handovers(session, cfg)
        all_events.extend(events)
        event_times[(session.user_id, session.subscriber_operator)] = sorted(e.at_ms for e in events)

    def handover_nearby(record) -> bool:
        times = event_times[record.user_id, record.subscriber_operator]
        t, gap = record.timestamp, cfg.handover_max_gap_ms
        return bisect.bisect_left(times, t - gap) < bisect.bisect_right(times, t + gap)

    def rows():
        for record in records:
            try:
                assessment = classify(record.samples, cfg) if record.samples is not None else None
            except ValueError:  # insufficient samples, or no eligible window
                assessment = None
            summary = None if assessment is None else AssessmentSummary(*assessment[1:])  # all but windows
            pool = None if summary is None else summary.pool
            verdict = attribute(record, catalog, pool, handover_nearby(record), cfg)
            yield to_json(AnalyzedRow(record, verdict, summary))

    out_dir = _out_dir(args, "analyze")
    (out_dir / "manifest.json").unlink(missing_ok=True)  # written last: a run cut short leaves none
    write_json(rows(), out_dir / "analyzed.jsonl")
    write_json(map(to_json, all_events), out_dir / "handovers.jsonl")
    ingest_obj = {"records": to_json(ingest_report)}
    if catalog_report is not None:
        ingest_obj["catalog"] = to_json(catalog_report)
    write_json([ingest_obj], out_dir / "ingest_report.json", indent=2)
    _write_manifest(out_dir, "analyze", to_json(cfg), inputs,
                    ["analyzed.jsonl", "handovers.jsonl", "ingest_report.json"], started)


# ---------------------------------------------------------------------------
# report


def _read_rows(path: Path, parse):
    """Yield parse(obj) for the JSON value on each line of path, as read_json_lines reads it. A line
    that does not parse raises UsageError naming the file, the line and the fault."""
    for line_no, row, fault in read_json_lines(path, parse):
        if fault is not None:
            raise UsageError(f"{path.name} line {line_no}: {fault}")
        yield row


# Each report maps (columns, events, cfg, args) to its JSON object, CSV header
# and CSV rows, columns being the reports.Columns of the rows it covers. They call
# the analysis functions through this module's globals when a report runs, so a
# wrapper set on this module (perfbench/tracer.py sets one per function) sees every call.


def _histogram(columns, events, cfg, args):
    h = throughput_histogram(columns, cfg)
    return to_json(h), HistogramBin._fields, h.bins


def _hourly(columns, events, cfg, args):
    profiles = hourly_profile(columns, args.key, cfg)
    rows = [(p.key, hour, mean) for p in profiles
            for hour, mean in enumerate(p.hour_means_kbps) if mean is not None]
    return to_json(profiles), ("key", "hour", "mean_kbps"), rows


def _trend(columns, events, cfg, args):
    t = quarterly_trend(columns, cfg)
    header = ("technology_group", "region_tag", "network_type", *TrendPoint._fields)
    rows = [(s.technology_group, s.region_tag, s.network_type, *p) for s in t.series for p in s.points]
    return to_json(t), header, rows


def _operators(columns, events, cfg, args):
    summaries = operator_summary(columns)
    return to_json(summaries), OperatorSummary._fields, summaries


def _pools(columns, events, cfg, args):
    t = pool_trend(columns, cfg)
    return to_json(t), PoolPoint._fields, t.points


def _signal(columns, events, cfg, args):
    s = signal_correlation(columns, cfg)
    return to_json(s), SignalBin._fields, s.bins


def _camping(columns, events, cfg, args):
    group = TechnologyGroup.G4 if args.subscription == "4g" else TechnologyGroup.G3
    technologies = {}  # (user, subscriber operator) -> the technology of each of its rows
    for user, operator, technology in zip(columns.users, columns.subscriber_operators, columns.technologies):
        technologies.setdefault((user, operator), []).append(technology)
    objs = [{"user_id": user, "subscriber_operator": operator, **to_json(camping_stats(techs, group))}
            for (user, operator), techs in sorted(technologies.items())]
    header = ("user_id", "subscriber_operator", "total", "on_subscribed", "on_lower", "fraction_lower")
    return objs, header, [[o[k] for k in header] for o in objs]


def _handovers(columns, events, cfg, args):
    impact = handover_impact(events)
    return to_json(impact), HandoverImpact._fields, [impact]


REPORTS = {
    "histogram": _histogram,
    "hourly": _hourly,
    "trend": _trend,
    "operators": _operators,
    "pools": _pools,
    "signal": _signal,
    "camping": _camping,
    "handovers": _handovers,
}


def cmd_report(args) -> None:
    started = time.monotonic()
    names = REPORTS if args.report == "all" else (args.report,)
    if any(n not in REPORTS for n in names):
        raise UsageError(f"unknown report {args.report!r}; valid: all, {', '.join(REPORTS)}")
    _bind("attribution", "coverage", "reports")
    cfg = _load_config(args, AnalysisConfig)
    in_dir = Path(args.indir)
    columns = Columns.empty()  # each row is checked whole, and only what the reports read is kept
    for row in _read_rows(in_dir / "analyzed.jsonl", lambda obj: from_json(AnalyzedRow, obj)):
        if args.include_artificial or not row.verdict.artificial:
            columns.append(row.record, None if row.assessment is None else row.assessment.pool)
    row = None  # nor is the last row held while the reports run
    events = list(_read_rows(in_dir / "handovers.jsonl", lambda obj: from_json(HandoverEvent, obj)))

    out_dir = _out_dir(args, "report")
    (out_dir / "manifest.json").unlink(missing_ok=True)  # written last: a run cut short leaves none
    outputs = []
    for name in names:
        json_obj, header, rows = REPORTS[name](columns, events, cfg, args)
        write_json([json_obj], out_dir / f"{name}.json", indent=2)
        _write_csv(header, rows, out_dir / f"{name}.csv")
        outputs.extend([f"{name}.json", f"{name}.csv"])
    options = {name: getattr(args, name) for name in ("report", "key", "subscription", "include_artificial")}
    _write_manifest(out_dir, "report", to_json(cfg), [in_dir / "analyzed.jsonl", in_dir / "handovers.jsonl"],
                    outputs, started, options=options)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mobitrace",
                                     description="Mobile-Internet measurement analytics toolkit")
    parser.add_argument("--version", action="version", version=f"mobitrace {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic trace with ground truth")
    p_synth.add_argument("--scenario", choices=[s.value for s in Scenario])
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--config", help="scenario config JSON; flags override")
    p_synth.add_argument("--base-capacity-kbps", dest="base_capacity_kbps", type=float)
    p_synth.add_argument("--diurnal-dip", dest="diurnal_dip", type=float)
    p_synth.add_argument("--records-per-hour", dest="records_per_hour", type=int)
    p_synth.add_argument("--noise-cv", dest="noise_cv", type=float)
    p_synth.add_argument("--spike-rate", dest="spike_rate", type=float)
    p_synth.add_argument("--boundary-gap-ms", dest="boundary_gap_ms", type=int)
    p_synth.add_argument("--utc-offset-minutes", dest="utc_offset_minutes", type=int)
    p_synth.set_defaults(func=cmd_synth)

    p_analyze = sub.add_parser("analyze", help="attribute and assess a trace")
    p_analyze.add_argument("--in", dest="infile", required=True)
    p_analyze.add_argument("--out", required=True)
    p_analyze.add_argument("--catalog")
    p_analyze.add_argument("--config", help="analysis config JSON; flags override")
    p_analyze.add_argument("--utc-offset-minutes", dest="utc_offset_minutes", type=int)
    p_analyze.set_defaults(func=cmd_analyze)

    p_report = sub.add_parser("report", help="emit aggregate reports from analyzed output")
    p_report.add_argument("--in", dest="indir", required=True)
    p_report.add_argument("--out", required=True)
    p_report.add_argument("--report", default="all")
    p_report.add_argument("--key", choices=["cell", "operator"], default="cell")
    p_report.add_argument("--subscription", choices=["3g", "4g"], default="4g")
    p_report.add_argument("--include-artificial", action="store_true")
    p_report.add_argument("--config", help="analysis config JSON; flags override")
    p_report.add_argument("--utc-offset-minutes", dest="utc_offset_minutes", type=int)
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except UsageError as exc:
        message, code = exc, 2
    except OSError as exc:
        message, code = exc, 1
    except EmptyResult as exc:
        message, code = exc, 3
    else:
        return 0
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
