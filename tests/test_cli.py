import hashlib
import json

import pytest

from conftest import make_record
from mobitrace.cli import main
from mobitrace.ingest import write_records


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
        assert "dip must be in [0,1)" in capsys.readouterr().err

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


class TestAnalyzeCommand:
    def test_verdict_per_record(self, tmp_path):
        _, synth_out = run_synth(tmp_path)
        an = tmp_path / "an"
        code = main(["analyze", "--in", str(synth_out / "trace.jsonl"), "--out", str(an)])
        assert code == 0
        trace_lines = (synth_out / "trace.jsonl").read_text().splitlines()
        analyzed = (an / "analyzed.jsonl").read_text().splitlines()
        assert len(analyzed) == len(trace_lines) == 96

    def test_no_samples_means_no_pool(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        write_records([make_record(), make_record()], trace)
        an = tmp_path / "an"
        assert main(["analyze", "--in", str(trace), "--out", str(an)]) == 0
        for line in (an / "analyzed.jsonl").read_text().splitlines():
            obj = json.loads(line)
            assert obj["assessment"] is None
            assert obj["verdict"]["congestion_pool"] is None

    def test_no_catalog_means_no_artificial(self, tmp_path):
        _, synth_out = run_synth(tmp_path)
        an = tmp_path / "an"
        main(["analyze", "--in", str(synth_out / "trace.jsonl"), "--out", str(an)])
        for line in (an / "analyzed.jsonl").read_text().splitlines():
            assert not json.loads(line)["verdict"]["artificial"]

    def test_unreadable_input_exits_1(self, tmp_path):
        assert main(["analyze", "--in", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "an")]) == 1

    def test_empty_input_exits_3(self, tmp_path, capsys):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        code = main(["analyze", "--in", str(trace), "--out", str(tmp_path / "an")])
        assert code == 3
        assert "no analyzable records" in capsys.readouterr().err

    def test_bad_config_exits_2(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        write_records([make_record()], trace)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_field": 1}))
        assert main(["analyze", "--in", str(trace), "--out", str(tmp_path / "an"),
                     "--config", str(cfg)]) == 2


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

    def test_hourly_by_operator(self, tmp_path):
        an = self.analyzed_dir(tmp_path)
        rep = tmp_path / "rep"
        assert main(["report", "--in", str(an), "--out", str(rep),
                     "--report", "hourly", "--key", "operator"]) == 0
        profiles = json.loads((rep / "hourly.json").read_text())
        assert [p["key"] for p in profiles] == ["SynthTel"]

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
])
def test_invalid_config_value_exits_2(tmp_path, capsys, command, config, message):
    _, synth_out = run_synth(tmp_path)
    an = tmp_path / "an"
    assert main(["analyze", "--in", str(synth_out / "trace.jsonl"), "--out", str(an)]) == 0
    inputs = {"analyze": synth_out / "trace.jsonl", "report": an}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    capsys.readouterr()
    assert main([command, "--in", str(inputs[command]), "--out", str(tmp_path / "out"),
                 "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
