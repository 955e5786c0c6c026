import gc
import hashlib
import json
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from conftest import make_record
from mobitrace import cli
from mobitrace.attribution import AnalyzedRow, LimitingFactorVerdict
from mobitrace.cli import main
from mobitrace.congestion import classify
from mobitrace.ingest import write_records
from mobitrace.model import AnalysisConfig, MeasurementRecord, SampleSeries, from_json, to_json
from mobitrace.synth import ScenarioConfig, generate


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


SRC = str(Path(__file__).resolve().parent.parent / "src")


# Bytes synth's peak may grow by for each record it writes; about 1 under Python 3.11, against about 500
# while every label was held until the last record was drawn.
SYNTH_BYTES_PER_RECORD_MAX = 50


def run_synth(tmp_path, name="s", *extra):
    out = tmp_path / name
    code = main(["synth", "--scenario", "stationary24h", "--seed", "7",
                 "--records-per-hour", "4", "--out", str(out), *extra])
    return code, out


class TestSynthCommand:
    def test_happy_path_writes_three_files(self, tmp_path):
        code, out = run_synth(tmp_path)
        assert code == 0
        assert {p.name for p in out.iterdir()} == {"trace.jsonl", "ground_truth.json", "manifest.json"}

    def test_invalid_dip_exits_2(self, tmp_path, capsys):
        code = main(["synth", "--scenario", "stationary24h", "--seed", "1",
                     "--diurnal-dip", "1.5", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "diurnal_dip must be at least 0 and below 1" in capsys.readouterr().err

    def test_missing_seed_exits_2(self, tmp_path, capsys):
        code = main(["synth", "--scenario", "stationary24h", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_same_flags_identical_digests(self, tmp_path):
        _, out1 = run_synth(tmp_path, "a")
        _, out2 = run_synth(tmp_path, "b")
        assert sha(out1 / "trace.jsonl") == sha(out2 / "trace.jsonl")
        assert sha(out1 / "ground_truth.json") == sha(out2 / "ground_truth.json")

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"scenario": "stationary24h", "seed": 3, "records_per_hour": 2}))
        code = main(["synth", "--config", str(cfg), "--seed", "9", "--out", str(tmp_path / "o")])
        assert code == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 9
        assert manifest["config"]["records_per_hour"] == 2

    def test_records_per_hour_above_one_per_ms_exits_2(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "draw_records", calls.append)
        code = main(["synth", "--scenario", "stationary24h", "--seed", "1",
                     "--records-per-hour", "3600001", "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err == "error: records_per_hour must be at least 1 and at most 3600000\n"
        assert calls == [] and not (tmp_path / "x").exists()

    def test_invalid_record_leaves_the_out_dir_as_it_was(self, tmp_path, capsys):
        _, out = run_synth(tmp_path)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(before) == {"trace.jsonl", "ground_truth.json", "manifest.json"}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"base_capacity_kbps": 2e7}))
        capsys.readouterr()
        assert main(["synth", "--scenario", "stationary24h", "--seed", "1", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: scenario makes an invalid record: ")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before  # no .trace.jsonl.tmp either

    def test_peak_memory_per_record_excludes_the_records(self, tmp_path):
        # each record and its label are written and dropped before the next is drawn, so nothing grows
        # with the count. Records of 5 samples, since CPython 3.11 keeps up to 2000 freed 20-item tuples
        # on a free list it never takes them back from: about 400 KB more peak once, for any count.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples_per_record": 5}))

        def synth_peak(records_per_hour):
            gc.collect()
            tracemalloc.start()
            try:
                assert run_synth(tmp_path, "s", "--records-per-hour", str(records_per_hour),
                                 "--config", str(cfg))[0] == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        synth_peak(10)  # fills the caches a first synth fills
        grown = synth_peak(100) - synth_peak(10)
        assert grown / (24 * 90) < SYNTH_BYTES_PER_RECORD_MAX

    @pytest.mark.parametrize("scenario", [
        {"scenario": "stationary24h", "seed": 5, "records_per_hour": 3, "spike_rate": 0.1},
        {"scenario": "stationary24h", "seed": 6, "records_per_hour": 2,
         "planted_pool_mix": {"LOW": 0.3, "MEDIUM": 0.3, "HIGH": 0.4}},
        {"scenario": "commute", "seed": 7, "records_per_hour": 5, "boundary_gap_ms": 90_001,
         "utc_offset_minutes": -345, "cells": [["a", "LTE", 8000.0], ["b", "EDGE", 200.0], ["c", "HSPA", 3000.0]]},
    ], ids=["stationary", "pool-mix", "commute"])
    def test_streamed_ground_truth_is_the_truths_json_line(self, tmp_path, scenario):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
        _, truth = generate(from_json(ScenarioConfig, scenario))
        expected = json.dumps(to_json(truth), sort_keys=True, allow_nan=False) + "\n"
        assert (tmp_path / "s" / "ground_truth.json").read_text(encoding="utf-8") == expected


class TestAnalyzeCommand:
    def test_verdict_per_record(self, tmp_path):
        _, synth_out = run_synth(tmp_path)
        an = tmp_path / "an"
        code = main(["analyze", "--in", str(synth_out / "trace.jsonl"), "--out", str(an)])
        assert code == 0
        trace_lines = (synth_out / "trace.jsonl").read_text().splitlines()
        analyzed = (an / "analyzed.jsonl").read_text().splitlines()
        assert len(analyzed) == len(trace_lines) == 96
        assert all(set(json.loads(line)["verdict"]) == {"factor", "binding_upper_bound_kbps"} for line in analyzed)

    def test_no_samples_means_no_pool(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        write_records([make_record(), make_record()], trace)
        an = tmp_path / "an"
        assert main(["analyze", "--in", str(trace), "--out", str(an)]) == 0
        for line in (an / "analyzed.jsonl").read_text().splitlines():
            obj = json.loads(line)
            assert obj["assessment"] is None
            assert obj["verdict"]["factor"] == "UNDETERMINED"

    def test_no_catalog_means_no_artificial(self, tmp_path):
        _, synth_out = run_synth(tmp_path)
        an = tmp_path / "an"
        main(["analyze", "--in", str(synth_out / "trace.jsonl"), "--out", str(an)])
        for line in (an / "analyzed.jsonl").read_text().splitlines():
            assert not from_json(LimitingFactorVerdict, json.loads(line)["verdict"]).artificial

    def test_assessment_is_the_summary_classify_returns(self, tmp_path):
        _, synth_out = run_synth(tmp_path)
        an = tmp_path / "an"
        assert main(["analyze", "--in", str(synth_out / "trace.jsonl"), "--out", str(an)]) == 0
        rows = [json.loads(line) for line in (an / "analyzed.jsonl").read_text().splitlines()]
        assessed = [row for row in rows if row["assessment"] is not None]
        assert assessed
        for row in assessed:
            samples = row["record"]["samples"]
            a = classify(SampleSeries(samples["interval_ms"], tuple(samples["values"])), AnalysisConfig())
            assert row["assessment"] == {
                "upper_bound_kbps": a.upper_bound_kbps, "upper_bound_window": a.upper_bound_window,
                "overall_mape_pct": a.overall_mape_pct, "pool": a.pool.value,
                "spikes_replaced": a.spikes_replaced,
            }

    def test_bad_catalog_rows_rejected_with_reason(self, tmp_path):
        _, synth_out = run_synth(tmp_path)
        catalog = tmp_path / "caps.csv"
        catalog.write_bytes(b"kind,manufacturer,model,technology,operator,plan_id,cap_kbps\n"
                            b"tech,,,HSPA,,,inf\n"
                            b"device,Acme\xff,One,HSPA,,,3200\n"
                            b"plan,,,,SynthTel,basic,nan\n")
        an = tmp_path / "an"
        assert main(["analyze", "--in", str(synth_out / "trace.jsonl"), "--out", str(an),
                     "--catalog", str(catalog)]) == 0
        report = json.loads((an / "ingest_report.json").read_text())["catalog"]
        assert report == {"accepted": 0, "rejected": 3, "warnings": [
            [2, "cap must be finite and positive"], [3, "row must be UTF-8 text"],
            [4, "cap must be finite and positive"]]}
        for line in (an / "analyzed.jsonl").read_text().splitlines():
            assert json.loads(line)["verdict"]["binding_upper_bound_kbps"] is None

    def test_unreadable_input_exits_1(self, tmp_path):
        assert main(["analyze", "--in", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "an")]) == 1

    def test_empty_input_exits_3(self, tmp_path, capsys):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        code = main(["analyze", "--in", str(trace), "--out", str(tmp_path / "an")])
        assert code == 3
        assert "no analyzable records" in capsys.readouterr().err

    def test_all_lines_rejected_exits_3_with_the_first_reason(self, tmp_path, capsys):
        trace = tmp_path / "bad.jsonl"
        trace.write_text('\n{"record_id": "x"}\nnot json\n')
        an = tmp_path / "an"
        assert main(["analyze", "--in", str(trace), "--out", str(an)]) == 3
        assert capsys.readouterr().err == ("error: no analyzable records: 2 lines rejected, "
                                           "the first on line 2: missing required field 'user_id'\n")
        assert not an.exists()

    def test_bad_config_exits_2(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        write_records([make_record()], trace)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_field": 1}))
        assert main(["analyze", "--in", str(trace), "--out", str(tmp_path / "an"),
                     "--config", str(cfg)]) == 2

    def test_config_nested_too_deep_exits_2(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        write_records([make_record()], trace)
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[" * 100_000)
        assert main(["analyze", "--in", str(trace), "--out", str(tmp_path / "an"),
                     "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_manifest_hashes_inputs_whole(self, tmp_path):
        # the trace spans several 64 KiB reads and ends inside one; the catalog is empty
        _, synth_out = run_synth(tmp_path, "s", "--records-per-hour", "20")
        trace, catalog = synth_out / "trace.jsonl", tmp_path / "caps.csv"
        catalog.write_bytes(b"")
        assert trace.stat().st_size > 4 * 65536 and trace.stat().st_size % 65536
        an = tmp_path / "an"
        assert main(["analyze", "--in", str(trace), "--out", str(an), "--catalog", str(catalog)]) == 0
        inputs = json.loads((an / "manifest.json").read_text())["inputs"]
        assert inputs == {str(trace): sha(trace), str(catalog): hashlib.sha256(b"").hexdigest()}


def test_no_stage_loads_openssl(tmp_path):
    s, a, r, caps = (str(tmp_path / name) for name in ("s", "a", "r", "caps.csv"))
    trace = str(tmp_path / "s" / "trace.jsonl")
    script = (f"import sys; sys.path.insert(0, {SRC!r}); from mobitrace.cli import main\n"
              "def run(*argv):\n"
              "    assert main(list(argv)) == 0\n"
              "    print('_hashlib' in sys.modules, '_ssl' in sys.modules)\n"
              f"run('synth', '--scenario', 'stationary24h', '--seed', '7', '--records-per-hour', '2', '--out', {s!r})\n"
              f"open({caps!r}, 'w').close()\n"
              f"run('analyze', '--in', {trace!r}, '--out', {a!r}, '--catalog', {caps!r})\n"
              f"run('report', '--in', {a!r}, '--out', {r!r})\n")
    out = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"] * 6


@pytest.mark.parametrize("size", [0, 65536, 3 * 65536 + 1])
def test_sha256_matches_hashlib(tmp_path, size):
    path = tmp_path / "f"
    path.write_bytes(bytes(i * 7 % 251 for i in range(size)))
    assert cli._sha256(path) == sha(path)


def test_sha256_falls_back_to_hashlib(tmp_path):
    # a CPython without its own sha256 module: the manifest still holds hashlib's digests
    _, synth_out = run_synth(tmp_path)
    trace, catalog, an = synth_out / "trace.jsonl", tmp_path / "caps.csv", tmp_path / "an"
    catalog.write_bytes(b"")
    script = (f"import sys; sys.path.insert(0, {SRC!r})\n"
              "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
              "from mobitrace.cli import main\n"
              f"code = main(['analyze', '--in', {str(trace)!r}, '--out', {str(an)!r},"
              f" '--catalog', {str(catalog)!r}])\n"
              "print(code, 'hashlib' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "True"]
    inputs = json.loads((an / "manifest.json").read_text())["inputs"]
    assert inputs == {str(trace): sha(trace), str(catalog): sha(catalog)}


@pytest.mark.parametrize("command, modules", [
    ("--version", ()),
    ("synth", ("synth",)),
    ("analyze", ("attribution", "congestion", "coverage")),
    ("report", ("attribution", "coverage", "reports")),
])
def test_each_stage_imports_only_what_it_runs(tmp_path, command, modules):
    _, synth_out = run_synth(tmp_path)
    an = tmp_path / "an"
    assert main(["analyze", "--in", str(synth_out / "trace.jsonl"), "--out", str(an)]) == 0
    argv = {"--version": ["--version"],
            "synth": ["synth", "--scenario", "stationary24h", "--seed", "7", "--records-per-hour", "2",
                      "--out", str(tmp_path / "s2")],
            "analyze": ["analyze", "--in", str(synth_out / "trace.jsonl"), "--out", str(tmp_path / "a2")],
            "report": ["report", "--in", str(an), "--out", str(tmp_path / "r2")]}[command]
    script = (f"import sys; sys.path.insert(0, {SRC!r}); from mobitrace.cli import main\n"
              f"try:\n    code = main({argv!r})\n"
              "except SystemExit as exc:  # how argparse ends --version\n    code = exc.code\n"
              "print(code, *sorted(m for m in sys.modules if m.startswith('mobitrace.')))\n"
              "from mobitrace.model import _plan; print(_plan.cache_info().currsize)\n")
    out = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, check=True)
    code, *loaded = out.stdout.splitlines()[-2].split()
    assert code == "0"
    assert loaded == sorted(f"mobitrace.{m}" for m in ("cli", "ingest", "model", *modules))
    # a codec is compiled when its class is first used, never at import
    assert command != "--version" or out.stdout.splitlines()[-1] == "0"


# The names perfbench/tracer.py wraps on mobitrace.cli, plus draw_records, which synth calls where it
# called generate; and those whose calls are counted below.
TRACED = ("read_records", "record_from_obj", "write_records", "build_sessions", "classify", "detect_handovers",
          "handover_impact", "camping_stats", "attribute", "generate", "throughput_histogram", "hourly_profile",
          "quarterly_trend", "operator_summary", "pool_trend", "signal_correlation", "draw_records")
COUNTED = ("draw_records", "classify", "attribute", "detect_handovers", "camping_stats", "throughput_histogram")


def test_wrappers_set_on_cli_see_every_call(tmp_path):
    s, a, r = (str(tmp_path / name) for name in "sar")
    script = (f"import sys; sys.path.insert(0, {SRC!r}); from collections import Counter; from mobitrace import cli\n"
              f"print(all(callable(getattr(cli, name)) for name in {TRACED!r}))\n"
              "calls = Counter()\n"
              "def counting(name, fn):\n"
              "    def wrapper(*args, **kwargs):\n"
              "        calls[name] += 1\n"
              "        return fn(*args, **kwargs)\n"
              "    return wrapper\n"
              f"for name in {COUNTED!r}:\n"
              "    setattr(cli, name, counting(name, getattr(cli, name)))\n"
              f"print(cli.main(['synth', '--scenario', 'stationary24h', '--seed', '7', '--records-per-hour', '2',"
              f" '--out', {s!r}]))\n"
              f"print(cli.main(['analyze', '--in', {s + '/trace.jsonl'!r}, '--out', {a!r}]))\n"
              f"print(cli.main(['report', '--in', {a!r}, '--out', {r!r}]))\n"
              f"print(*(calls[name] for name in {COUNTED!r}))\n")
    out = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, check=True)
    callable_, *codes, counts = out.stdout.splitlines()
    assert callable_ == "True" and codes == ["0", "0", "0"]
    # 48 records in one session: each is classified and attributed
    assert [int(c) for c in counts.split()] == [1, 48, 48, 1, 1, 1]


def test_wrappers_set_on_post_init_see_every_decode(tmp_path, monkeypatch):
    # perfbench/tracer.py times validation by such a wrapper on these two classes
    _, synth_out = run_synth(tmp_path, "s", "--records-per-hour", "2")
    calls = Counter()
    for cls in (MeasurementRecord, SampleSeries):
        def counting(self, post_init=cls.__post_init__, name=cls.__name__):
            calls[name] += 1
            return post_init(self)
        monkeypatch.setattr(cls, "__post_init__", counting)
    assert main(["analyze", "--in", str(synth_out / "trace.jsonl"), "--out", str(tmp_path / "an")]) == 0
    assert calls == {"MeasurementRecord": 48, "SampleSeries": 48}
    calls.clear()
    assert main(["report", "--in", str(tmp_path / "an"), "--out", str(tmp_path / "rep")]) == 0
    assert calls == {"MeasurementRecord": 48, "SampleSeries": 48}


# Bytes a row that report holds may grow by when its record has 400 samples instead of 20. report
# checks the samples and then drops them; holding them took about 12 KB a row under Python 3.11.
SAMPLE_BYTES_PER_ROW_MAX = 100


class TestReportCommand:
    def analyzed_dir(self, tmp_path):
        _, synth_out = run_synth(tmp_path)
        an = tmp_path / "an"
        main(["analyze", "--in", str(synth_out / "trace.jsonl"), "--out", str(an)])
        return an

    def test_all_reports_emitted(self, tmp_path):
        an = self.analyzed_dir(tmp_path)
        rep = tmp_path / "rep"
        assert main(["report", "--in", str(an), "--out", str(rep), "--report", "all"]) == 0
        names = {p.name for p in rep.iterdir()} - {"manifest.json"}
        assert len(names) == 16  # 8 reports x (json + csv)

    def test_unknown_report_exits_2(self, tmp_path, capsys):
        an = self.analyzed_dir(tmp_path)
        code = main(["report", "--in", str(an), "--out", str(tmp_path / "rep"),
                     "--report", "bogus"])
        assert code == 2
        assert "histogram" in capsys.readouterr().err

    def test_unknown_report_name_is_quoted(self, tmp_path, capsys):
        an = self.analyzed_dir(tmp_path)
        capsys.readouterr()
        assert main(["report", "--in", str(an), "--out", str(tmp_path / "rep"), "--report", "a\nb"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown report 'a\\nb';") and err.count("\n") == 1

    def test_hourly_by_operator(self, tmp_path):
        an = self.analyzed_dir(tmp_path)
        rep = tmp_path / "rep"
        assert main(["report", "--in", str(an), "--out", str(rep),
                     "--report", "hourly", "--key", "operator"]) == 0
        profiles = json.loads((rep / "hourly.json").read_text())
        assert [p["key"] for p in profiles] == ["SynthTel"]

    def assert_bad_row_exits_2(self, tmp_path, capsys, an, name, bad_lines):
        path = an / name
        lines = path.read_bytes().splitlines()
        for bad, reason in bad_lines:
            path.write_bytes(b"\n".join(lines + [bad if isinstance(bad, bytes) else bad.encode()]) + b"\n")
            capsys.readouterr()
            assert main(["report", "--in", str(an), "--out", str(tmp_path / "rep")]) == 2
            assert capsys.readouterr().err == f"error: {name} line {len(lines) + 1}: {reason}\n"

    def test_bad_analyzed_row_exits_2(self, tmp_path, capsys):
        an = self.analyzed_dir(tmp_path)
        first = (an / "analyzed.jsonl").read_text().splitlines()[0]
        row = json.loads(first)
        row["record"]["timestamp"] = "x"
        verdict_row = json.loads(first)
        verdict_row["verdict"]["factor"] = "x"
        good = json.loads(first)
        assert good["assessment"] is not None

        def changed(part, **values):
            return json.dumps({**good, part: {**good[part], **values}})

        self.assert_bad_row_exits_2(tmp_path, capsys, an, "analyzed.jsonl", [
            ("{not json", "invalid JSON"),
            (json.dumps(row), "timestamp must be an integer"),
            (json.dumps({"verdict": {}}), "missing required field 'record'"),
            (json.dumps(verdict_row), "unknown factor 'x'"),
            ("[" * 100_000, "invalid JSON"),
            ("9" * 5000, "invalid JSON"),  # beyond int's digit limit
            ("[1, 2]", "AnalyzedRow must be a JSON object"),
            (json.dumps({**good, "assessment": [1]}), "AssessmentSummary must be a JSON object"),
            (changed("assessment", pool="X"), "unknown pool 'X'"),
            (json.dumps({**good, "verdict": [1]}), "LimitingFactorVerdict must be a JSON object"),
            (changed("assessment", zzz=1), "unknown field 'zzz'"),
            (changed("record", zzz=1), "unknown field 'zzz'"),
            (changed("assessment", upper_bound_kbps="s"), "upper_bound_kbps must be a number"),
            (changed("verdict", binding_upper_bound_kbps="s"), "binding_upper_bound_kbps must be a number"),
            # rows written before the verdict stored only its factor and binding cap: re-run analyze
            (changed("verdict", record_id=good["record"]["record_id"]), "unknown field 'record_id'"),
            (changed("verdict", artificial=False), "unknown field 'artificial'"),
            (changed("verdict", congestion_pool=good["assessment"]["pool"]), "unknown field 'congestion_pool'"),
            # checked before report drops the samples
            (changed("record", download_kbps=2 * good["record"]["download_kbps"]),
             "headline throughput inconsistent with samples"),
            (changed("record", samples={"interval_ms": 500, "values": [1.0, 10_000_001.0]}),
             "sample values must be at most 10000000 kbps"),
        ])

    def test_reports_get_records_without_samples(self, tmp_path, monkeypatch):
        an = self.analyzed_dir(tmp_path)
        rows = [json.loads(line) for line in (an / "analyzed.jsonl").read_text().splitlines()]
        assert all(row["record"]["samples"]["values"] for row in rows)
        seen = []
        histogram = cli.throughput_histogram

        def wrapper(records, cfg):
            seen.extend(record.samples for record in records)
            return histogram(records, cfg)
        monkeypatch.setattr(cli, "throughput_histogram", wrapper)
        assert main(["report", "--in", str(an), "--out", str(tmp_path / "rep"), "--report", "histogram"]) == 0
        assert seen == [None] * len(rows)

    def test_held_memory_does_not_grow_with_samples(self, tmp_path, monkeypatch):
        short = self.analyzed_dir(tmp_path)
        long = tmp_path / "ln"
        long.mkdir()
        (long / "handovers.jsonl").write_bytes((short / "handovers.jsonl").read_bytes())
        rows = [json.loads(line) for line in (short / "analyzed.jsonl").read_text().splitlines()]
        for row in rows:
            assert len(row["record"]["samples"]["values"]) == 20
            row["record"]["samples"]["values"] *= 20  # 400 samples with the same mean
        (long / "analyzed.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))

        held = []
        histogram = cli.throughput_histogram

        def wrapper(records, cfg):  # the first report called
            held.append(tracemalloc.get_traced_memory()[0])
            return histogram(records, cfg)
        monkeypatch.setattr(cli, "throughput_histogram", wrapper)

        def report_holds(an):
            gc.collect()
            tracemalloc.start()
            try:
                assert main(["report", "--in", str(an), "--out", str(tmp_path / "rep")]) == 0
            finally:
                tracemalloc.stop()
            return held.pop()

        report_holds(short)  # fills the caches a first report fills
        grown = report_holds(long) - report_holds(short)
        assert grown / len(rows) < SAMPLE_BYTES_PER_ROW_MAX

    def test_manifest_hashes_both_inputs(self, tmp_path):
        an = self.analyzed_dir(tmp_path)
        assert main(["report", "--in", str(an), "--out", str(tmp_path / "rep")]) == 0
        inputs = json.loads((tmp_path / "rep" / "manifest.json").read_text())["inputs"]
        assert inputs == {str(an / name): hashlib.sha256((an / name).read_bytes()).hexdigest()
                          for name in ("analyzed.jsonl", "handovers.jsonl")}

    def test_carriage_return_inside_a_row_is_whitespace(self, tmp_path):
        an = self.analyzed_dir(tmp_path)
        assert main(["report", "--in", str(an), "--out", str(tmp_path / "rep")]) == 0
        rows = (an / "analyzed.jsonl").read_text().splitlines()
        (an / "analyzed.jsonl").write_text("".join(row.replace(", ", ",\r", 1) + "\n" for row in rows))
        assert main(["report", "--in", str(an), "--out", str(tmp_path / "rep2")]) == 0
        for path in (tmp_path / "rep").iterdir():
            if path.name != "manifest.json":
                assert (tmp_path / "rep2" / path.name).read_bytes() == path.read_bytes()

    def test_rows_share_repeated_text(self, tmp_path):
        # report holds every record it reads, so repeated text must not be held once per row
        an = self.analyzed_dir(tmp_path)
        first, second = (from_json(AnalyzedRow, json.loads(line)).record
                         for line in (an / "analyzed.jsonl").read_text().splitlines()[:2])
        assert first.user_id == second.user_id and first.cell_id == second.cell_id
        assert first.user_id is second.user_id and first.cell_id is second.cell_id

    def test_bad_handovers_row_exits_2(self, tmp_path, capsys):
        an = self.analyzed_dir(tmp_path)
        event = {"user_id": "u", "at_ms": "x", "from_cell": "a", "to_cell": "b", "from_tech": "LTE",
                 "to_tech": "UMTS", "from_kbps": 1.0, "to_kbps": 1.0, "downgrade": True, "gap_ms": 1}
        self.assert_bad_row_exits_2(tmp_path, capsys, an, "handovers.jsonl", [
            ("{not json", "invalid JSON"),
            (json.dumps(event), "at_ms must be an integer"),
            (json.dumps({**event, "at_ms": 1, "to_tech": "6G"}), "unknown to_tech '6G'"),
            (json.dumps({**event, "at_ms": 1, "from_dbm": -1e308}), "from_dbm must be at least -1000 and at most 1000"),
            (json.dumps({**event, "at_ms": 1, "to_kbps": -5000}), "to_kbps must be at least 0 and at most 10000000"),
            (json.dumps({**event, "at_ms": 1, "gap_ms": -7}), "gap_ms must be at least 0"),
            ('{"at_ms": ' + "9" * 5000 + "}", "invalid JSON"),  # beyond int's digit limit
        ])

    def test_analyzed_row_not_utf8_exits_2(self, tmp_path, capsys):
        an = self.analyzed_dir(tmp_path)
        row = (an / "analyzed.jsonl").read_bytes().splitlines()[0]
        self.assert_bad_row_exits_2(tmp_path, capsys, an, "analyzed.jsonl", [
            (b"\xff", "invalid JSON"),
            (row.replace(b'"user_id": "synth-user"', b'"user_id": "synth-\xffuser"'), "user_id must be UTF-8 text"),
        ])

    def test_handovers_row_not_utf8_exits_2(self, tmp_path, capsys):
        an = self.analyzed_dir(tmp_path)
        event = {"user_id": "u", "at_ms": 1, "from_cell": "a", "to_cell": "b", "from_tech": "LTE",
                 "to_tech": "UMTS", "from_kbps": 1.0, "to_kbps": 1.0, "downgrade": True, "gap_ms": 1}
        self.assert_bad_row_exits_2(tmp_path, capsys, an, "handovers.jsonl", [
            (b"\xff", "invalid JSON"),
            (json.dumps(event).encode().replace(b'"a"', b'"\xfe"'), "from_cell must be UTF-8 text"),
        ])

    @pytest.mark.parametrize("name", ["analyzed.jsonl", "handovers.jsonl"])
    def test_whitespace_line_leaves_report_unchanged(self, tmp_path, name):
        an = self.analyzed_dir(tmp_path)
        assert main(["report", "--in", str(an), "--out", str(tmp_path / "rep")]) == 0
        lines = (an / name).read_text().splitlines(keepends=True)
        (an / name).write_text("".join(lines[:1] + [" \t\n"] + lines[1:] + ["\n"]))
        assert main(["report", "--in", str(an), "--out", str(tmp_path / "rep2")]) == 0
        written = {p.name: p.read_bytes() for p in (tmp_path / "rep").iterdir() if p.name != "manifest.json"}
        assert written == {n: (tmp_path / "rep2" / n).read_bytes() for n in written}

    def test_missing_handovers_exits_1(self, tmp_path, capsys):
        an = self.analyzed_dir(tmp_path)
        (an / "handovers.jsonl").unlink()
        capsys.readouterr()
        assert main(["report", "--in", str(an), "--out", str(tmp_path / "rep")]) == 1
        assert "handovers.jsonl" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_busy_window_across_midnight_planted_and_recovered(self, tmp_path):
        busy = {"busy_hour_start": 22, "busy_hour_end": 2}
        scenario, analysis = tmp_path / "scenario.json", tmp_path / "analysis.json"
        scenario.write_text(json.dumps({"scenario": "stationary24h", "seed": 7, "records_per_hour": 4,
                                        "diurnal_dip": 0.5, **busy}))
        analysis.write_text(json.dumps(busy))
        assert main(["synth", "--config", str(scenario), "--out", str(tmp_path / "s")]) == 0
        truth = json.loads((tmp_path / "s" / "ground_truth.json").read_text())
        assert sorted(int(h) for h, kbps in truth["hour_means_kbps"].items() if kbps == 2500.0) == [0, 1, 2, 22, 23]
        an, rep = tmp_path / "an", tmp_path / "rep"
        assert main(["analyze", "--in", str(tmp_path / "s" / "trace.jsonl"), "--out", str(an)]) == 0
        assert main(["report", "--in", str(an), "--out", str(rep), "--report", "hourly",
                     "--config", str(analysis)]) == 0
        (profile,) = json.loads((rep / "hourly.json").read_text())
        assert profile["dip_fraction"] == pytest.approx(0.5, abs=0.05)

    def test_camping_rows_per_session(self, tmp_path):
        an = self.analyzed_dir(tmp_path)
        rep = tmp_path / "rep"
        assert main(["report", "--in", str(an), "--out", str(rep),
                     "--report", "camping", "--subscription", "4g"]) == 0
        rows = json.loads((rep / "camping.json").read_text())
        assert len(rows) == 1
        assert rows[0]["subscription_group"] == "4G"
        assert rows[0]["on_lower"] == rows[0]["total"]  # synth default tech is HSPA


@pytest.mark.parametrize("command, config, message", [
    ("analyze", {"handover_max_gap_ms": -5}, "handover_max_gap_ms"),
    ("analyze", {"slow_start_activation_fraction": 3}, "slow_start_activation_fraction"),
    ("report", {"histogram_bin_kbps": 0}, "histogram_bin_kbps"),
    ("report", {"signal_bin_dbm": 0}, "signal_bin_dbm"),
    ("report", {"utc_offset_minutes": 100_000_000_000}, "utc_offset_minutes"),
    ("analyze", {"utc_offset_minutes": -721}, "utc_offset_minutes"),
    ("synth", {"seed": 1, "records_per_hour": 2.5}, "records_per_hour"),
    ("synth", {"seed": "x"}, "seed"),
    ("synth", {"seed": 1, "utc_offset_minutes": 841}, "utc_offset_minutes"),
    ("analyze", {"spike_factor": 10**400}, "spike_factor"),
    ("report", {"histogram_bin_kbps": 99.5}, "histogram_bin_kbps must be at least 100"),
    ("synth", {"seed": 1, "base_capacity_kbps": 2e7}, "scenario makes an invalid record: "),
    ("synth", {"seed": 1, "signal_low_dbm": -2000.0}, "signal_low_dbm must be at least -1000 and at most 1000"),
    ("report", {"signal_bin_dbm": 5e-324}, "signal_bin_dbm must be at least 0.1"),
    ("synth", {"seed": 1, "planted_pool_mix": 5}, "planted_pool_mix must be an object of finite numbers"),
    ("synth", {"seed": 1, "planted_pool_mix": []}, "planted_pool_mix must be an object of finite numbers"),
    ("synth", {"seed": 1, "planted_pool_mix": {"LOW": 10**400}},
     "planted_pool_mix must be an object of finite numbers"),
    # out of range, this hour would leave the requested dip unplanted
    ("synth", {"seed": 1, "busy_hour_start": 30, "diurnal_dip": 0.5},
     "busy_hour_start must be at least 0 and at most 23"),
])
def test_invalid_config_value_exits_2(tmp_path, capsys, command, config, message):
    _, synth_out = run_synth(tmp_path)
    an = tmp_path / "an"
    assert main(["analyze", "--in", str(synth_out / "trace.jsonl"), "--out", str(an)]) == 0
    inputs = {"synth": ["--scenario", "stationary24h"],
              "analyze": ["--in", str(synth_out / "trace.jsonl")],
              "report": ["--in", str(an)]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    capsys.readouterr()
    assert main([command, *inputs[command], "--out", str(tmp_path / "out"),
                 "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["synth", "analyze", "report"])
@pytest.mark.parametrize("content, message", [
    (b"", "Expecting value: line 1 column 1 (char 0)"),
    (b'{"seed": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
    (b"[1]", "config must be a JSON object"),
])
def test_config_file_fault_names_the_file(tmp_path, capsys, command, content, message):
    trace = tmp_path / "t.jsonl"
    write_records([make_record()], trace)
    source = {"synth": ["--scenario", "stationary24h"], "analyze": ["--in", str(trace)],
              "report": ["--in", str(tmp_path)]}[command]
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    assert main([command, *source, "--out", str(tmp_path / "out"), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("report, field, values, reason", [
    ("operators", "download_kbps", [1e308, 1e308], "download_kbps must be at least 0 and at most 10000000"),
    ("signal", "signal_dbm", [1e200, -1e200], "signal_dbm must be at least -1000 and at most 1000"),
    ("operators", "network_operator", ["Op\ud800", "Op\ud800"], "network_operator must be UTF-8 text"),
    ("all", "samples", [{"interval_ms": 500, "values": [1e308, 1e308]}] * 2,
     "sample values must be at most 10000000 kbps"),
])
def test_unreportable_value_rejected_at_ingest(tmp_path, report, field, values, reason):
    objs = [to_json(make_record(signal_dbm=-70.0 - i, timestamp=1_451_865_600_000 + i))
            for i in range(2 + len(values))]
    for obj, value in zip(objs[2:], values):
        obj[field] = value
    trace = tmp_path / "t.jsonl"
    trace.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
    an = tmp_path / "an"
    assert main(["analyze", "--in", str(trace), "--out", str(an)]) == 0
    ingest = json.loads((an / "ingest_report.json").read_text())["records"]
    assert (ingest["accepted"], ingest["rejected"]) == (2, 2)
    assert ingest["warnings"] == [[3, reason], [4, reason]]
    assert main(["report", "--in", str(an), "--out", str(tmp_path / "rep"), "--report", report]) == 0
