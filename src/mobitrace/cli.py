"""Command-line surface: synth -> analyze -> report.

Exit codes: 0 success, 1 I/O failure, 2 usage or config error, 3 empty
result set. All outputs go to the caller-named run directory; inputs are
never mutated. For identical inputs and config every output is
byte-identical except manifest.json, which records wall time.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

from . import __version__
from .attribution import Factor, LimitingFactorVerdict, attribute
from .congestion import Pool, classify
from .coverage import HandoverEvent, camping_stats, detect_handovers, handover_impact
from .ingest import build_sessions, read_catalog, read_records, record_from_obj, record_to_obj, write_records
from .model import AnalysisConfig, CapabilityCatalog, RadioTechnology, TechnologyGroup, to_json
from .reports import (
    HistogramBin,
    OperatorSummary,
    PoolPoint,
    SignalBin,
    TrendPoint,
    hourly_profile,
    operator_summary,
    pool_trend,
    quarterly_trend,
    signal_correlation,
    throughput_histogram,
)
from .synth import Scenario, ScenarioConfig, generate


class UsageError(Exception):
    """Bad usage or config; main() reports it with exit code 2."""


class EmptyResult(Exception):
    """Nothing to analyze; main() reports it with exit code 3."""


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(obj, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(header, rows, path: Path) -> None:
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_manifest(out_dir: Path, command: str, config_obj: dict, inputs, outputs, started: float) -> None:
    manifest = {
        "tool": "mobitrace",
        "version": __version__,
        "command": command,
        "config": config_obj,
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": sorted(outputs),
        "wall_time_s": time.monotonic() - started,
    }
    _write_json(manifest, out_dir / "manifest.json")


def _load_config(args, build):
    """Return build(values, args), where values is the --config JSON object
    ({} without --config) and build applies the flags over it. A bad value
    raises UsageError; an unreadable file raises OSError."""
    values = {}
    try:
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                values = json.load(fh)
            if not isinstance(values, dict):
                raise ValueError("config must be a JSON object")
        return build(values, args)
    except (ValueError, TypeError) as exc:
        raise UsageError(exc) from exc


def _analysis_config(values: dict, args) -> AnalysisConfig:
    unknown = set(values) - {f.name for f in fields(AnalysisConfig)}
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    if args.utc_offset_minutes is not None:
        values["utc_offset_minutes"] = args.utc_offset_minutes
    return AnalysisConfig(**values)


# ---------------------------------------------------------------------------
# synth


def _scenario_config(values: dict, args) -> ScenarioConfig:
    for flag in ("scenario", "seed", "base_capacity_kbps", "diurnal_dip", "records_per_hour",
                 "noise_cv", "spike_rate", "utc_offset_minutes", "boundary_gap_ms"):
        value = getattr(args, flag)
        if value is not None:
            values[flag] = value
    if "seed" not in values:
        raise ValueError("a seed is required")
    if "scenario" not in values:
        raise ValueError("a scenario is required")
    values["scenario"] = Scenario(values["scenario"])
    if "technology" in values:
        values["technology"] = RadioTechnology(values["technology"])
    if "cells" in values:
        values["cells"] = tuple(
            (cell_id, RadioTechnology(tech), float(cap)) for cell_id, tech, cap in values["cells"]
        )
    return ScenarioConfig(**values)


def cmd_synth(args) -> None:
    started = time.monotonic()
    cfg = _load_config(args, _scenario_config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    records, truth = generate(cfg)
    write_records(records, out_dir / "trace.jsonl")
    _write_json(to_json(truth), out_dir / "ground_truth.json")
    _write_manifest(out_dir, "synth", to_json(cfg), [], ["trace.jsonl", "ground_truth.json"], started)


# ---------------------------------------------------------------------------
# analyze


def _event_from_obj(obj: dict) -> HandoverEvent:
    return HandoverEvent(**{**obj, "from_tech": RadioTechnology(obj["from_tech"]),
                            "to_tech": RadioTechnology(obj["to_tech"])})


def cmd_analyze(args) -> None:
    started = time.monotonic()
    cfg = _load_config(args, _analysis_config)
    inputs = [args.infile]
    records, ingest_report = read_records(args.infile)
    if args.catalog:
        catalog, catalog_report = read_catalog(args.catalog)
        inputs.append(args.catalog)
    else:
        catalog, catalog_report = CapabilityCatalog.empty(), None
    if not records:
        raise EmptyResult("no analyzable records")

    sessions = build_sessions(records)
    all_events = []
    event_times = {}  # session key -> sorted event timestamps
    for session in sessions:
        events = detect_handovers(session, cfg)
        all_events.extend(events)
        event_times[(session.user_id, session.subscriber_operator)] = sorted(e.at_ms for e in events)

    def handover_nearby(record) -> bool:
        times = event_times.get((record.user_id, record.subscriber_operator), [])
        i = bisect.bisect_left(times, record.timestamp)
        for j in (i - 1, i):
            if 0 <= j < len(times) and abs(times[j] - record.timestamp) <= cfg.handover_max_gap_ms:
                return True
        return False

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "analyzed.jsonl", "w", encoding="utf-8") as fh:
        for record in records:
            assessment = None
            if record.samples is not None and len(record.samples.values) >= 2 * cfg.window_size:
                try:
                    assessment = classify(record.samples, cfg)
                except ValueError:
                    assessment = None
            verdict = attribute(record, catalog, assessment, handover_nearby(record), cfg)
            line = {
                "record": record_to_obj(record),
                "verdict": {"record_id": record.record_id, **to_json(verdict)},
                "assessment": to_json(assessment),
            }
            fh.write(json.dumps(line, sort_keys=True))
            fh.write("\n")
    with open(out_dir / "handovers.jsonl", "w", encoding="utf-8") as fh:
        for event in all_events:
            fh.write(json.dumps(to_json(event), sort_keys=True))
            fh.write("\n")
    ingest_obj = {"records": to_json(ingest_report)}
    if catalog_report is not None:
        ingest_obj["catalog"] = to_json(catalog_report)
    _write_json(ingest_obj, out_dir / "ingest_report.json")
    _write_manifest(out_dir, "analyze", to_json(cfg), inputs,
                    ["analyzed.jsonl", "handovers.jsonl", "ingest_report.json"], started)


# ---------------------------------------------------------------------------
# report


def _read_analyzed(in_dir: Path):
    records, verdicts, pools = [], [], []
    with open(in_dir / "analyzed.jsonl", "r", encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            record, _ = record_from_obj(obj["record"])
            records.append(record)
            v = obj["verdict"]
            verdicts.append(
                LimitingFactorVerdict(
                    factor=Factor(v["factor"]),
                    artificial=v["artificial"],
                    binding_upper_bound_kbps=v.get("binding_upper_bound_kbps"),
                    congestion_pool=Pool(v["congestion_pool"]) if v.get("congestion_pool") else None,
                )
            )
            a = obj.get("assessment")
            pools.append(Pool(a["pool"]) if a else None)
    return records, verdicts, pools


def _read_events(in_dir: Path):
    path = in_dir / "handovers.jsonl"
    if not path.exists():
        return []
    with open(path, "r", encoding="utf-8") as fh:
        return [_event_from_obj(json.loads(line)) for line in fh]


# Each report maps (records, pools, events, cfg, args) to its JSON object,
# CSV header and CSV rows. They call the analysis functions through this
# module's globals when a report runs, so a wrapper set on this module
# after import (perfbench/tracer.py sets one per function) sees every call.


def _histogram(records, pools, events, cfg, args):
    h = throughput_histogram(records, cfg)
    return to_json(h), HistogramBin._fields, h.bins


def _hourly(records, pools, events, cfg, args):
    profiles = hourly_profile(records, args.key, cfg)
    rows = [(p.key, hour, mean) for p in profiles
            for hour, mean in enumerate(p.hour_means_kbps) if mean is not None]
    return to_json(profiles), ("key", "hour", "mean_kbps"), rows


def _trend(records, pools, events, cfg, args):
    t = quarterly_trend(records, cfg)
    header = ("technology_group", "region_tag", "network_type", *TrendPoint._fields)
    rows = [(s.technology_group, s.region_tag, s.network_type, *p) for s in t.series for p in s.points]
    return to_json(t), header, rows


def _operators(records, pools, events, cfg, args):
    summaries = operator_summary(records)
    return to_json(summaries), OperatorSummary._fields, summaries


def _pools(records, pools, events, cfg, args):
    t = pool_trend([(r, p) for r, p in zip(records, pools) if p is not None], cfg)
    return to_json(t), PoolPoint._fields, t.points


def _signal(records, pools, events, cfg, args):
    s = signal_correlation(records, cfg)
    return to_json(s), SignalBin._fields, s.bins


def _camping(records, pools, events, cfg, args):
    group = TechnologyGroup.G4 if args.subscription == "4g" else TechnologyGroup.G3
    objs = [{"user_id": session.user_id, "subscriber_operator": session.subscriber_operator,
             **to_json(camping_stats(session, group))}
            for session in build_sessions(records)]
    header = ("user_id", "subscriber_operator", "total", "on_subscribed", "on_lower", "fraction_lower")
    return objs, header, [[o[k] for k in header] for o in objs]


def _handovers(records, pools, events, cfg, args):
    obj = {**to_json(handover_impact(events)), "downgrades": sum(1 for e in events if e.downgrade)}
    header = ("count", "downgrades", "mean_throughput_ratio", "throughput_excluded",
              "mean_signal_ratio", "signal_excluded")
    return obj, header, [[obj[k] for k in header]]


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
REPORT_NAMES = tuple(REPORTS)


def cmd_report(args) -> None:
    started = time.monotonic()
    names = REPORT_NAMES if args.report == "all" else (args.report,)
    if any(n not in REPORTS for n in names):
        raise UsageError(f"unknown report '{args.report}'; valid: all, {', '.join(REPORT_NAMES)}")
    cfg = _load_config(args, _analysis_config)
    in_dir = Path(args.indir)
    records, verdicts, pools = _read_analyzed(in_dir)
    events = _read_events(in_dir)

    if not args.include_artificial:
        kept = [(r, p) for r, v, p in zip(records, verdicts, pools) if not v.artificial]
        records, pools = [r for r, _ in kept], [p for _, p in kept]

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for name in names:
        json_obj, header, rows = REPORTS[name](records, pools, events, cfg, args)
        _write_json(json_obj, out_dir / f"{name}.json")
        _write_csv(header, rows, out_dir / f"{name}.csv")
        outputs.extend([f"{name}.json", f"{name}.csv"])
    _write_manifest(out_dir, "report", to_json(cfg), [in_dir / "analyzed.jsonl"], outputs, started)


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
