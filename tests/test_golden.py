"""Golden digests: the pipeline's output bytes, pinned.

Two fixed runs go through synth -> analyze -> report, and the sha256 of
every output file except manifest.json (it records wall time) must equal
the committed value. A change that alters any output byte fails here.

When an output change is intended, print the new digests with

    PYTHONPATH=src python tests/test_golden.py

paste them over GOLDEN below, and give the reason in CHANGES.md.
"""

import hashlib
import json
import sys
from pathlib import Path

from mobitrace.attribution import AnalyzedRow, LimitingFactorVerdict
from mobitrace.cli import main
from mobitrace.coverage import HandoverEvent
from mobitrace.ingest import write_json
from mobitrace.model import from_json, to_json

# (a) the c11 run: a stationary day, no catalog.
STATIONARY = [
    ["synth", "--scenario", "stationary24h", "--seed", "11", "--records-per-hour", "6",
     "--out", "{root}/synth"],
    ["analyze", "--in", "{root}/synth/trace.jsonl", "--out", "{root}/analyzed"],
    ["report", "--in", "{root}/analyzed", "--out", "{root}/reports", "--report", "all"],
]

# (b) a commute over four cells with two downgrades (LTE -> HSPA -> EDGE),
# a spike rate, and a catalog whose device and technology caps make part
# of the HSPA and EDGE records artificial; reported with and without them.
COMMUTE_SCENARIO = {
    "scenario": "commute",
    "seed": 23,
    "records_per_hour": 40,
    "spike_rate": 0.05,
    "noise_cv": 0.15,
    "plan_id": "basic",
    "cells": [["c-a", "LTE", 8000.0], ["c-b", "HSPA", 3000.0], ["c-c", "EDGE", 200.0],
              ["c-d", "UMTS", 1500.0]],
}
COMMUTE_CATALOG = (
    "kind,manufacturer,model,technology,operator,plan_id,cap_kbps\n"
    "tech,,,EDGE,,,236.8\n"
    "tech,,,LTE,,,100000\n"
    "device,Acme,One,HSPA,,,3200\n"
    "plan,,,,SynthTel,basic,50000\n"
)
COMMUTE = [
    ["synth", "--config", "{root}/scenario.json", "--out", "{root}/synth"],
    ["analyze", "--in", "{root}/synth/trace.jsonl", "--out", "{root}/analyzed",
     "--catalog", "{root}/caps.csv"],
    ["report", "--in", "{root}/analyzed", "--out", "{root}/reports", "--report", "all"],
    ["report", "--in", "{root}/analyzed", "--out", "{root}/reports_all", "--report", "all",
     "--include-artificial"],
]

GOLDEN = {
    "commute/analyzed/analyzed.jsonl":
        "89d01bee1a3e263c88086026f88f50b99d32f468c2532a21935abbf32c0ad693",
    "commute/analyzed/handovers.jsonl":
        "2c4615bfe32637f8a06638402674b56cc9b22c39bee54d002dbf7981970d7457",
    "commute/analyzed/ingest_report.json":
        "0fb00075adfb4640550b79e26441993469d42f31e1ad86171102a127c98c5021",
    "commute/reports/camping.csv":
        "5da361a2c477ef50444070550a12b58f0d74b2da74a141701cc3ddf0e9480a0a",
    "commute/reports/camping.json":
        "633c57bf6cac6bbf883260e3b4dba4e1c6b44a82e40100890c39c74c6a9535d3",
    "commute/reports/handovers.csv":
        "d201bde67b6f3245c240ca5b5afe95efc9dda35fc7ba6375051047e3913985f4",
    "commute/reports/handovers.json":
        "a761c0b9f55bf38dd10d597852da45f583fc63551d01958cf59ca46d7270187d",
    "commute/reports/histogram.csv":
        "c0cdcc9d9ee44ca5a62cdaea3588b9ff004c3c0ba469f96127fe4cc331d041d4",
    "commute/reports/histogram.json":
        "525fa7cbe75966e92187408600e76a826abe254aebe00f8f0c3290986c7fad39",
    "commute/reports/hourly.csv":
        "88a16c43fab36b76dbf9a2886ff796706686eea73c5fbe2d4a96bf47adff95c7",
    "commute/reports/hourly.json":
        "e0dad3648939e146081a24a486ac8d3e7f2c554f33a37d1bf389874e43acbe55",
    "commute/reports/operators.csv":
        "0b3cef97ad783d9450af5fbc86f39436e27cbaed69a1b0a65b7d4976d1d83a6b",
    "commute/reports/operators.json":
        "f8336dcd997f0d6b5e6034fda71dd581d2cd046ba07ea6f855d7397bfc801f9d",
    "commute/reports/pools.csv":
        "338014cc6753d146bf52af0d49b4e4c6ef31d060280b99518690541b2a652abf",
    "commute/reports/pools.json":
        "e9e59799143b7882c4ca718f7a069ff8811968ceeb5f483fc2157186900d11cb",
    "commute/reports/signal.csv":
        "857df6082504c0e7a634b84598395c9b7800ce2a7441b26a8e2b449eb4418747",
    "commute/reports/signal.json":
        "1291df4f8f1cd0da21d97a3fd91f706ab76538c717c12dbc5ff3bddc6bf49648",
    "commute/reports/trend.csv":
        "efad0a14273c483c0397d43fe95a8f65d31307b9ac1a14ea8b8da5d51d5f8230",
    "commute/reports/trend.json":
        "3e903ff5c4ac8fa4b8892c2103c9289c54fc09ec915e85125ad64988f54736a7",
    "commute/reports_all/camping.csv":
        "7eae86794259245276c646301f0bec88effb5adc0ad1528549a50d4100d3bfe3",
    "commute/reports_all/camping.json":
        "4cc095f8b65de0a0b5e52277132ac295ac36d38b471a40582c6388cb4218c11a",
    "commute/reports_all/handovers.csv":
        "d201bde67b6f3245c240ca5b5afe95efc9dda35fc7ba6375051047e3913985f4",
    "commute/reports_all/handovers.json":
        "a761c0b9f55bf38dd10d597852da45f583fc63551d01958cf59ca46d7270187d",
    "commute/reports_all/histogram.csv":
        "55ca2da71286a30a23b0222087537419ffb443b9d31c1221de3a18941e6b3c0c",
    "commute/reports_all/histogram.json":
        "ba42daf12cb3256a556a904cd1786f751cd0d41460afa16b3e1f88ce758eb6ab",
    "commute/reports_all/hourly.csv":
        "223f05fe3081bdc7b3150c021340ac06388d6a0439562723b8a37d9dc5db18a5",
    "commute/reports_all/hourly.json":
        "4fbc609e04f6302bbbbe2ef3ff9634c60be45f4c5e4b787bcfc14bd62421a712",
    "commute/reports_all/operators.csv":
        "866fdbc132f3b69ae81c5a8f2b608356029e74ab003ff5d17f92514cf6279dca",
    "commute/reports_all/operators.json":
        "aa2abd7236651687e41350f506ead180b9a73134f9fdedb97adfac99f89287fe",
    "commute/reports_all/pools.csv":
        "ede45c54bf94684f592a8916a483b4d6f40ad2d5dc746997ae06e6fe9f5fd5e1",
    "commute/reports_all/pools.json":
        "34f0b62ce8f95001bedc164c730c64abbf5b913960b2bc40a03098cdf83f7d89",
    "commute/reports_all/signal.csv":
        "fcde3b06943d538e4985c6676306fa78fd628741d268ef9ef671cb3a9fae520e",
    "commute/reports_all/signal.json":
        "cf60ba5973a4ca02bca2eaf6e8d471b3756248f5c8557258d5876925504b9ba4",
    "commute/reports_all/trend.csv":
        "d5ce502caed0f1e9c577c7ed1f17288e863f7d781593ff1d13fedb856911a7c0",
    "commute/reports_all/trend.json":
        "de71432cbdc2b210450c3971f0172da37ac182496d82485a0e55fa19465e48df",
    "commute/synth/ground_truth.json":
        "021674f3f54fba283705c52fcd93470991855ffd8e4ea0744475d944cd23be98",
    "commute/synth/trace.jsonl":
        "9aaf77511e04afd8ee8cdc8a8fb39a8f8b367577beee9d941b1d9595ba0cce01",
    "stationary/analyzed/analyzed.jsonl":
        "b3be94c88f2a4b40b56ac491b07d0748795ca32eb2b1424084872c997014fa75",
    "stationary/analyzed/handovers.jsonl":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "stationary/analyzed/ingest_report.json":
        "e22fcd1c90cbf3848bfdc4fe237379a9fbf8d4aa716375973be492705b7195b1",
    "stationary/reports/camping.csv":
        "7507760e6521c1d92f364bead6ffb6c7eccc848e53db103ea5e50d8e4e9675a0",
    "stationary/reports/camping.json":
        "6bed2a96764eb729dbb3ea8ae8bda88cbd05c2a5a4b88da3bcc74d24be300984",
    "stationary/reports/handovers.csv":
        "b447856c466fc6a770187017664a5cc79938cca701fbde1b33251ba7dbd152bb",
    "stationary/reports/handovers.json":
        "e050bd21dd9a928a8a82b510c48aeda3b076d3deb5572b41a2dedeab3484e8f2",
    "stationary/reports/histogram.csv":
        "4cc459db19b2f7c39963019aa3a1b37f914c0ba6d6f9e5f29d785b90da335c6a",
    "stationary/reports/histogram.json":
        "97946b28b6d0b6ee67dc814de842b7da69994585dd6a865e5878c47aed655ee8",
    "stationary/reports/hourly.csv":
        "fcde9a37255a72b6ede5f5b79a7e02750e035940eb64c8afd37af2ece0880830",
    "stationary/reports/hourly.json":
        "6f7af076c778d576dfc489def4251f7d581fe1bfbf8ca927a1dc155fe572491f",
    "stationary/reports/operators.csv":
        "77cf4aeb412d484e8fd274d97ad9cea84815240333c2517395bd2f7c531b6b10",
    "stationary/reports/operators.json":
        "9bcef398ad3250ad27dd0d0d5095702fbe2ad25f705a0ecf92019faa258e4753",
    "stationary/reports/pools.csv":
        "24f1b769f0373241992be48b078ebfb1f1e970415a5eae632c34bdae91d3c056",
    "stationary/reports/pools.json":
        "2828c7ea56173a561f88036eb730d6ed9c6b4c3698dafe76c4555839236efc42",
    "stationary/reports/signal.csv":
        "b439e4489305158b2509dab23adcd69a75c9da0e47cb8113dbf2c7aabadaa6c4",
    "stationary/reports/signal.json":
        "d7608d576155b301258966f1111c87e2c104ff41728181a8a41d7e60ddf64790",
    "stationary/reports/trend.csv":
        "63103fee52135434282512be17f5fa6bd61414bb0a4786f66a621eed5972700e",
    "stationary/reports/trend.json":
        "fd0d45d95fd8bf5d065247271379553362f80307a8392214e9bf85ddd3517423",
    "stationary/synth/ground_truth.json":
        "24ed1b7b6f0f515364007336759f5c3fb9e8afc29ba26fb185f2be8c5fd6836c",
    "stationary/synth/trace.jsonl":
        "2cd202e17504d7e64974a4d009ad59d5c2536c5586a2febed719cc85fb6fa6d5",
}


def run_digests(root: Path) -> dict:
    """Run both pipelines under root; sha256 per output file but manifests."""
    (root / "commute").mkdir(parents=True)
    (root / "commute" / "scenario.json").write_text(json.dumps(COMMUTE_SCENARIO))
    (root / "commute" / "caps.csv").write_text(COMMUTE_CATALOG)
    for name, steps in (("stationary", STATIONARY), ("commute", COMMUTE)):
        for argv in steps:
            code = main([a.format(root=root / name) for a in argv])
            assert code == 0, (name, argv[0], code)
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "manifest.json" and p.parent != root / "commute"
    }


def test_output_digests_match_golden(tmp_path):
    got = run_digests(tmp_path)
    assert got.keys() == GOLDEN.keys()
    changed = [name for name in GOLDEN if got[name] != GOLDEN[name]]
    assert not changed, f"outputs changed: {changed}"


def test_commute_run_exercises_downgrades_and_the_artificial_filter(tmp_path):
    run_digests(tmp_path)
    commute = tmp_path / "commute"
    handovers = json.loads((commute / "reports" / "handovers.json").read_text())
    assert handovers["downgrades"] >= 1
    verdicts = [json.loads(line)["verdict"]
                for line in (commute / "analyzed" / "analyzed.jsonl").read_text().splitlines()]
    artificial = sum(from_json(LimitingFactorVerdict, v).artificial for v in verdicts)
    assert 0 < artificial < len(verdicts)
    natural = json.loads((commute / "reports" / "histogram.json").read_text())
    everything = json.loads((commute / "reports_all" / "histogram.json").read_text())
    assert natural["total"] == len(verdicts) - artificial
    assert everything["total"] == len(verdicts)


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def test_every_output_is_strict_json(tmp_path):
    """Every JSON output of both runs, manifests included, parses with NaN
    and the infinities refused (RFC 8259 has none of them)."""
    run_digests(tmp_path)
    paths = [p for p in sorted(tmp_path.rglob("*"))
             if p.suffix in (".json", ".jsonl") and p.parent != tmp_path / "commute"]
    assert len(paths) == 41
    for path in paths:
        text = path.read_text(encoding="utf-8")
        for doc in text.splitlines() if path.suffix == ".jsonl" else [text]:
            json.loads(doc, parse_constant=_refuse)


def test_rows_decode_and_encode_to_the_same_bytes(tmp_path):
    """Every analyzed and handovers row of both runs, decoded by from_json and written again by
    write_json, is the same line: the row codec loses nothing on real rows."""
    run_digests(tmp_path / "runs")
    for file, cls in (("analyzed.jsonl", AnalyzedRow), ("handovers.jsonl", HandoverEvent)):
        for name in ("stationary", "commute"):
            path = tmp_path / "runs" / name / "analyzed" / file
            lines = path.read_text(encoding="utf-8").splitlines()
            write_json((to_json(from_json(cls, json.loads(line))) for line in lines), tmp_path / file)
            assert lines or (name, file) == ("stationary", "handovers.jsonl")  # a day on one cell
            assert (tmp_path / file).read_text(encoding="utf-8").splitlines() == lines, (name, file)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = run_digests(Path(tmp))
    sys.stdout.write("GOLDEN = {\n")
    for name, digest in digests.items():
        sys.stdout.write(f'    "{name}":\n        "{digest}",\n')
    sys.stdout.write("}\n")

