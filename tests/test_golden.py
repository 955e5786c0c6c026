"""Golden digests: the pipeline's output bytes, pinned.

Five fixed runs go through synth -> analyze -> report, and the sha256 of
every output file except manifest.json (it records wall time) must equal
the committed value. A change that alters any output byte fails here.
Runs (c), (c2) and (d) pin analyze and report only: each builds its trace
here from two synth runs, so their synth outputs are inputs, not outputs.

When an output change is intended, print the new digests with

    PYTHONPATH=src python tests/test_golden.py

paste them over GOLDEN below, and give the reason in CHANGES.md.
"""

import csv
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

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
# of the HSPA and EDGE records artificial; reported with and without them,
# and once more keyed by operator with 3G as the subscribed generation.
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
    ["report", "--in", "{root}/analyzed", "--out", "{root}/reports_3g", "--report", "all",
     "--key", "operator", "--subscription", "3g"],
]

# (c) a crowd-shaped trace: two commute users on two operators, merged in time order, every
# third record without samples, and one line for each of six reject reasons; analyzed and
# reported at a UTC offset other than the default.
CROWD_USERS = {
    "a": {"scenario": "commute", "seed": 31, "records_per_hour": 40, "spike_rate": 0.05,
          "user_id": "user-a", "operator": "OpA",
          "cells": [["a-1", "LTE", 6000.0], ["a-2", "HSPA", 2500.0], ["a-3", "LTE", 7000.0]]},
    # 30 an hour: each handover's gap is 120 s, handover_max_gap_ms itself
    "b": {"scenario": "commute", "seed": 37, "records_per_hour": 30, "noise_cv": 0.2,
          "user_id": "user-b", "operator": "OpB", "plan_id": "flat",
          "cells": [["b-1", "UMTS", 1200.0], ["b-2", "EDGE", 180.0], ["b-3", "HSPA", 3000.0]]},
}
CROWD_SYNTH = [["synth", "--config", "{root}/" + user + ".json", "--out", "{root}/users/" + user]
               for user in CROWD_USERS]
CROWD = [
    ["analyze", "--in", "{root}/trace.jsonl", "--out", "{root}/analyzed", "--utc-offset-minutes", "-345"],
    ["report", "--in", "{root}/analyzed", "--out", "{root}/reports", "--report", "all",
     "--utc-offset-minutes", "-345"],
]
# each reject line, made from a valid trace object
CROWD_REJECTS = [
    lambda obj: '{"record_id": "cut-off", ',  # invalid JSON
    lambda obj: json.dumps([obj["record_id"], obj["timestamp"]]),  # a JSON array
    lambda obj: json.dumps({k: v for k, v in obj.items() if k != "timestamp"}),  # a missing required field
    lambda obj: json.dumps({**obj, "technology": "NR5G"}),  # an unknown technology
    lambda obj: json.dumps({**obj, "download_kbps": -1.0}),  # an out-of-range download_kbps
    lambda obj: json.dumps({**obj, "samples": {"interval_ms": 500, "values": "900,950"}}),  # values not a list
]


def write_crowd_trace(run: Path) -> None:
    """run/trace.jsonl: both users' synth traces merged in time order, each record_id prefixed by
    its user, samples dropped from every third record, and CROWD_REJECTS spread among them."""
    objs = sorted((json.loads(line) for user in CROWD_USERS
                   for line in (run / "users" / user / "trace.jsonl").read_text(encoding="utf-8").splitlines()),
                  key=lambda obj: (obj["timestamp"], obj["user_id"], obj["record_id"]))
    lines = []
    for i, obj in enumerate(objs):
        obj["record_id"] = f"{obj['user_id']}/{obj['record_id']}"
        if i % 3 == 2:
            del obj["samples"]
        lines.append(json.dumps(obj, sort_keys=True))
    rejects = [reject(json.loads(lines[20 * k])) for k, reject in enumerate(CROWD_REJECTS)]
    for k, line in enumerate(rejects):
        lines.insert(5 + 23 * k, line)
    (run / "trace.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")


# (c2) run (c)'s trace with a second line for each reject reason, analyzed with a catalog whose
# device, technology and plan caps each bind some of the crowd's records; reported as (c) is, and
# once more keyed by operator with 3G as the subscribed generation.
CROWD_CAPS_CATALOG = (
    "kind,manufacturer,model,technology,operator,plan_id,cap_kbps\n"
    "device,Acme,One,LTE,,,8000\n"
    "tech,,,HSPA,,,3200\n"
    "tech,,,EDGE,,,250\n"
    "tech,,,LTE,,,100000\n"
    "plan,,,,OpB,flat,1500\n"
)
CROWD_CAPS = [
    ["analyze", "--in", "{root}/trace.jsonl", "--out", "{root}/analyzed", "--catalog", "{root}/caps.csv",
     "--utc-offset-minutes", "-345"],
    ["report", "--in", "{root}/analyzed", "--out", "{root}/reports", "--report", "all",
     "--utc-offset-minutes", "-345"],
    ["report", "--in", "{root}/analyzed", "--out", "{root}/reports_3g", "--report", "all",
     "--key", "operator", "--subscription", "3g", "--utc-offset-minutes", "-345"],
]


def write_crowd_caps_trace(run: Path, crowd: Path) -> None:
    """run/trace.jsonl: crowd/trace.jsonl with a second line for each of CROWD_REJECTS, each made
    from a record after run (c)'s last reject line and inserted among those records."""
    lines = (crowd / "trace.jsonl").read_text(encoding="utf-8").splitlines()
    rejects = [reject(json.loads(lines[130 + 11 * k])) for k, reject in enumerate(CROWD_REJECTS)]
    for k, line in enumerate(rejects):
        lines.insert(135 + 13 * k, line)
    (run / "trace.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")


# (d) long series: a stationary day of 400-sample records at a 5% spike rate, then a two-cell
# commute of 1600-sample records, so classify sees many windows and the spike filter's heap many
# entries (every other run's series has 20 samples, two windows).
LONG_USERS = {
    "day": {"scenario": "stationary24h", "seed": 41, "records_per_hour": 1, "samples_per_record": 400,
            "spike_rate": 0.05, "user_id": "long-day"},
    "tail": {"scenario": "commute", "seed": 43, "records_per_hour": 1, "samples_per_record": 1600,
             "spike_rate": 0.05, "user_id": "long-tail",
             "cells": [["t-1", "LTE", 6000.0], ["t-2", "LTE", 6000.0]]},
}
LONG_SYNTH = [["synth", "--config", "{root}/" + user + ".json", "--out", "{root}/users/" + user]
              for user in LONG_USERS]
LONG = [
    ["analyze", "--in", "{root}/trace.jsonl", "--out", "{root}/analyzed"],
    ["report", "--in", "{root}/analyzed", "--out", "{root}/reports", "--report", "all"],
]


def write_long_trace(run: Path) -> None:
    """run/trace.jsonl: the day's synth trace, then the tail's, each record_id prefixed by its user."""
    lines = []
    for user in LONG_USERS:
        for line in (run / "users" / user / "trace.jsonl").read_text(encoding="utf-8").splitlines():
            obj = json.loads(line)
            obj["record_id"] = f"{obj['user_id']}/{obj['record_id']}"
            lines.append(json.dumps(obj, sort_keys=True))
    (run / "trace.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")


GOLDEN = {
    "commute/analyzed/analyzed.jsonl":
        "89d01bee1a3e263c88086026f88f50b99d32f468c2532a21935abbf32c0ad693",
    "commute/analyzed/handovers.jsonl":
        "bcc8ef1a32808fd5292cb6ac851230e10827b4a84bd03566e922dfa4ed99a902",
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
    "commute/reports_3g/camping.csv":
        "8e06e67786a26ce82edaa2e6dbf5559e569e1ea3386f0364060fe55c38d91b68",
    "commute/reports_3g/camping.json":
        "acd00083f1563b40f3cbe7f577e38d324b5de344de3e8446230a2295c6b85a1e",
    "commute/reports_3g/handovers.csv":
        "d201bde67b6f3245c240ca5b5afe95efc9dda35fc7ba6375051047e3913985f4",
    "commute/reports_3g/handovers.json":
        "a761c0b9f55bf38dd10d597852da45f583fc63551d01958cf59ca46d7270187d",
    "commute/reports_3g/histogram.csv":
        "c0cdcc9d9ee44ca5a62cdaea3588b9ff004c3c0ba469f96127fe4cc331d041d4",
    "commute/reports_3g/histogram.json":
        "525fa7cbe75966e92187408600e76a826abe254aebe00f8f0c3290986c7fad39",
    "commute/reports_3g/hourly.csv":
        "5e397b784a535a3bbf9e69d1670231f99ff88c05dec9bd272961b33fd7b7256b",
    "commute/reports_3g/hourly.json":
        "8f36a3c9d9ca4969095ca09d4414f00ee5379d0d1c73a62d0025c88a54ca1f05",
    "commute/reports_3g/operators.csv":
        "0b3cef97ad783d9450af5fbc86f39436e27cbaed69a1b0a65b7d4976d1d83a6b",
    "commute/reports_3g/operators.json":
        "f8336dcd997f0d6b5e6034fda71dd581d2cd046ba07ea6f855d7397bfc801f9d",
    "commute/reports_3g/pools.csv":
        "338014cc6753d146bf52af0d49b4e4c6ef31d060280b99518690541b2a652abf",
    "commute/reports_3g/pools.json":
        "e9e59799143b7882c4ca718f7a069ff8811968ceeb5f483fc2157186900d11cb",
    "commute/reports_3g/signal.csv":
        "857df6082504c0e7a634b84598395c9b7800ce2a7441b26a8e2b449eb4418747",
    "commute/reports_3g/signal.json":
        "1291df4f8f1cd0da21d97a3fd91f706ab76538c717c12dbc5ff3bddc6bf49648",
    "commute/reports_3g/trend.csv":
        "efad0a14273c483c0397d43fe95a8f65d31307b9ac1a14ea8b8da5d51d5f8230",
    "commute/reports_3g/trend.json":
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
        "a880f865997c83ad257e11a4b870828aa61888a33bfe666360d8a14c566a908f",
    "commute/synth/trace.jsonl":
        "9aaf77511e04afd8ee8cdc8a8fb39a8f8b367577beee9d941b1d9595ba0cce01",
    "crowd/analyzed/analyzed.jsonl":
        "986a585d47f02264a873a93a13ba45e82e4ccaa2a6aa6fc824202b351ac38679",
    "crowd/analyzed/handovers.jsonl":
        "4cbb78d4c4c6017d7dd0eba5c3ca39fac6acd95d18ef261c21e2caab9408fb55",
    "crowd/analyzed/ingest_report.json":
        "8659872d3749df6a506fa5a31f6ccaeb413f8917719f2c46b68d86b3f8b9b67d",
    "crowd/reports/camping.csv":
        "beb779017fe25b8775608b713e92979a5b7ddf02a44a652e5a6ba8e2d241536e",
    "crowd/reports/camping.json":
        "52ecff75e29850f7f607d76958f76af5e7aef6099dbee0f1cec8ff26e36cf6c2",
    "crowd/reports/handovers.csv":
        "77ef332431463da22bdc2c9097acc7a8e4a284b522bf8f90d448f3765193c38d",
    "crowd/reports/handovers.json":
        "eff1a78d48241696052c66af934fc72317825866a0653a914e26055db7ae942e",
    "crowd/reports/histogram.csv":
        "0066f144d4dcb069277ea8b6eae464a00f57a1ae179d7833b7a44f06501f1153",
    "crowd/reports/histogram.json":
        "7fb85721da4f6caab419f1046b088cb4befd660acb66ec12c6d6e360f5793bcf",
    "crowd/reports/hourly.csv":
        "2d3c3139a56c3fee7c45c2a454c00a2414c1cd42cb1c0714705162d01113a421",
    "crowd/reports/hourly.json":
        "9a529212c1556638bdcfa15eacd8fcf271ead1ac3ad69e2accdce7f3f29806bc",
    "crowd/reports/operators.csv":
        "92f3120161bd915218bc7c8870e0071c7a5e17c8afe8607d12dd7f88b7e20098",
    "crowd/reports/operators.json":
        "42eab04097ef4bf9d1a675107dd9909cb8ee08d04cb8a94b1842c0950a713d96",
    "crowd/reports/pools.csv":
        "8be5d4392edafc9b1b7ac1c6d40854dd3c01cb5a049aa2d7de4b18acaa069536",
    "crowd/reports/pools.json":
        "161d20c1857de9af3787eee320a7dea46738c3e790f04bc0edf82a5cc90da25a",
    "crowd/reports/signal.csv":
        "858af32580ae5764be31a9281aa69c21d47b4f03ec1de019ef41548e41d34884",
    "crowd/reports/signal.json":
        "d2bde26adc146e5a6e01f2919f32db4935b52f483e2dc77f326a49b12b201702",
    "crowd/reports/trend.csv":
        "a1410fe504c4d9c9b502f5459f5f02487d3bc2c53123b3fd8f38b1ab857963d0",
    "crowd/reports/trend.json":
        "42b4eb1be6b178d3321a355859c948a37dc660876805552934ede3efe57c1b37",
    "crowd_caps/analyzed/analyzed.jsonl":
        "5aa8968af7cd46d3bb41e323ea5e2f6f0ad2dfa910f53d8f4a960b73ce574ea5",
    "crowd_caps/analyzed/handovers.jsonl":
        "4cbb78d4c4c6017d7dd0eba5c3ca39fac6acd95d18ef261c21e2caab9408fb55",
    "crowd_caps/analyzed/ingest_report.json":
        "5d816e97df428d1bbf511b387cb2cb736c89f6a9f0f465d5a27e20a94bdc2d91",
    "crowd_caps/reports/camping.csv":
        "4b2948c9327cbba6207b5d98f909b9a73c35d49c56cc4c52df0be9032413593a",
    "crowd_caps/reports/camping.json":
        "895ebe6fcb0c65b477356742389d41c19ff6bbbe0ec330b7f07ea854bd9d99c5",
    "crowd_caps/reports/handovers.csv":
        "77ef332431463da22bdc2c9097acc7a8e4a284b522bf8f90d448f3765193c38d",
    "crowd_caps/reports/handovers.json":
        "eff1a78d48241696052c66af934fc72317825866a0653a914e26055db7ae942e",
    "crowd_caps/reports/histogram.csv":
        "3177c9476870485034f8bf5b666579350c0b631be73bf3a5cdfc93a9366acc82",
    "crowd_caps/reports/histogram.json":
        "6b7cc98ea2e394661d8e870b0808b684c25ac6d1084698f3e942926c67775566",
    "crowd_caps/reports/hourly.csv":
        "1d9fa9ba956fbdb8449739d42965b6cc6174c21c02e2ffedd947823b8a3529fd",
    "crowd_caps/reports/hourly.json":
        "6b68b9a50ac5cc239a00b3ed3c896d3f8b1754094b46ab31eefb2d1b7aa67603",
    "crowd_caps/reports/operators.csv":
        "2f71fcc22fc413613a9260d4d9dcb103631967a0c04e77cf0c4887f088f7e787",
    "crowd_caps/reports/operators.json":
        "3d107fb22fc71027a00d9439749f8cd6dbeef6e816dff4dccecab619d47065b2",
    "crowd_caps/reports/pools.csv":
        "4b9b077a4479d040f6a1c24e4e32bd339935fec0eb5250c08b29a2d5874f55a8",
    "crowd_caps/reports/pools.json":
        "566b061528cb80d408c3d76d319dd789480ebbb316c3cd6fd4aeafda639048e6",
    "crowd_caps/reports/signal.csv":
        "de2b042261d4ba5ae8fc2ee6647057c2691bb91ac6ded6553d3d604214614b4c",
    "crowd_caps/reports/signal.json":
        "4ef0ae838622a6fa0aa2ac260c3013d0484b7dd23c65604c9873cac10c3082ca",
    "crowd_caps/reports/trend.csv":
        "82d6ec31662f5b887fab6068c42e34a5e84bbad17552467c726c75d5ba5d06e7",
    "crowd_caps/reports/trend.json":
        "071eca1a3bff7a8efd11399e0699847752eb7cb3cabb1efbf109136a69bb91bd",
    "crowd_caps/reports_3g/camping.csv":
        "a9dcce8c46fb2a64db1e92e87f306f470abdbf61923c0b195c9300b79d986434",
    "crowd_caps/reports_3g/camping.json":
        "8a1bbef81bafca1e84e372f3ab4f0d2a996e5493bec058a14843ba5899483a4b",
    "crowd_caps/reports_3g/handovers.csv":
        "77ef332431463da22bdc2c9097acc7a8e4a284b522bf8f90d448f3765193c38d",
    "crowd_caps/reports_3g/handovers.json":
        "eff1a78d48241696052c66af934fc72317825866a0653a914e26055db7ae942e",
    "crowd_caps/reports_3g/histogram.csv":
        "3177c9476870485034f8bf5b666579350c0b631be73bf3a5cdfc93a9366acc82",
    "crowd_caps/reports_3g/histogram.json":
        "6b7cc98ea2e394661d8e870b0808b684c25ac6d1084698f3e942926c67775566",
    "crowd_caps/reports_3g/hourly.csv":
        "10b3a125c3eb5758a2ff64d231950f7e9722b189c97cfdfd3bf625e1b05a50ed",
    "crowd_caps/reports_3g/hourly.json":
        "9f5ec5ed3402c768c98ef3b446eb1c569cc771d09ae24b7a10b5749760758773",
    "crowd_caps/reports_3g/operators.csv":
        "2f71fcc22fc413613a9260d4d9dcb103631967a0c04e77cf0c4887f088f7e787",
    "crowd_caps/reports_3g/operators.json":
        "3d107fb22fc71027a00d9439749f8cd6dbeef6e816dff4dccecab619d47065b2",
    "crowd_caps/reports_3g/pools.csv":
        "4b9b077a4479d040f6a1c24e4e32bd339935fec0eb5250c08b29a2d5874f55a8",
    "crowd_caps/reports_3g/pools.json":
        "566b061528cb80d408c3d76d319dd789480ebbb316c3cd6fd4aeafda639048e6",
    "crowd_caps/reports_3g/signal.csv":
        "de2b042261d4ba5ae8fc2ee6647057c2691bb91ac6ded6553d3d604214614b4c",
    "crowd_caps/reports_3g/signal.json":
        "4ef0ae838622a6fa0aa2ac260c3013d0484b7dd23c65604c9873cac10c3082ca",
    "crowd_caps/reports_3g/trend.csv":
        "82d6ec31662f5b887fab6068c42e34a5e84bbad17552467c726c75d5ba5d06e7",
    "crowd_caps/reports_3g/trend.json":
        "071eca1a3bff7a8efd11399e0699847752eb7cb3cabb1efbf109136a69bb91bd",
    "long/analyzed/analyzed.jsonl":
        "ccd051d26ce9b5f213367e9564a7c6b80aa523f103ee435f8be75246e4c214e9",
    "long/analyzed/handovers.jsonl":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "long/analyzed/ingest_report.json":
        "ca4e4de6abd4e35f31c2a9a1202933253038617c14ec6a1b2904d40acd6cb3e9",
    "long/reports/camping.csv":
        "dcf1a3946d9d520665e73887e5fa87f26b26f184691d66fc4af8a6bc11e75bdd",
    "long/reports/camping.json":
        "0c6b9ca8616b620d022c807a4161a015cc8d59cb7506d5752f3ddc81c088bdac",
    "long/reports/handovers.csv":
        "b447856c466fc6a770187017664a5cc79938cca701fbde1b33251ba7dbd152bb",
    "long/reports/handovers.json":
        "e050bd21dd9a928a8a82b510c48aeda3b076d3deb5572b41a2dedeab3484e8f2",
    "long/reports/histogram.csv":
        "47a458dee8db6ec73d27fd19dc6523d00847b0a0f0709ca2cbb04371f80daa2d",
    "long/reports/histogram.json":
        "3c8faabcb68afc22852187d13d63e3d33b8014ff4354a4b66d850f77e4df2b2e",
    "long/reports/hourly.csv":
        "a2f2d87bf040b68a68518d10d6d21e2771c081eb57c9c4faeeef0e346d4566d1",
    "long/reports/hourly.json":
        "1691768b2382cc8c4e0e07aab11a5e0680423dd967b0c7791042b8d50a9df09d",
    "long/reports/operators.csv":
        "75118cc3e82f46a8ebcdfdd78c03ef7f8888766b69bb71080d4edce0e42435f7",
    "long/reports/operators.json":
        "b0dbef31fe67a4e863faa283697deebf3bb7594738ffe504d4a708886dc3484a",
    "long/reports/pools.csv":
        "f72c42bd8a9f3eed5a49fc3ef2e017159bb2bdc7cff6c5dac1ddacd112c7ecb1",
    "long/reports/pools.json":
        "d61771fe69bb894ba52a1485db5edb00fa0f2d45c202e2aa61c6c132dc6f27aa",
    "long/reports/signal.csv":
        "c7a3de732151dfc5acab3a237da7657b9ba3c5485789ce3a50aba5172e4fe17f",
    "long/reports/signal.json":
        "b55d1055fcd4187a6974d8263141f2260f4b91bd19d4e96dcfd5b821f7900a5f",
    "long/reports/trend.csv":
        "02aae5bae29c93cb74f158ce44bfcc015f208674e16ad74a5a7c7fad18701624",
    "long/reports/trend.json":
        "5ccbc8a8df84a76a3c3b4997b9a195f646a4a5364fe8b8d8456f51390ab4480b",
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
        "72dbae7220603c3e04f12b6b743647da053bb38e74f0ada3431435f9d06c481c",
    "stationary/synth/trace.jsonl":
        "2cd202e17504d7e64974a4d009ad59d5c2536c5586a2febed719cc85fb6fa6d5",
}


def _run(run: Path, steps) -> None:
    for argv in steps:
        code = main([a.format(root=run) for a in argv])
        assert code == 0, (run.name, argv[0], code)


def _outputs(root: Path, suffixes):
    """The files of each run's output directories: root/<run>/<dir>/<file>. A run's inputs sit in
    the run's own directory, and run (c)'s synth outputs one level deeper, in users/<user>/."""
    return [p for p in sorted(root.rglob("*"))
            if p.suffix in suffixes and len(p.relative_to(root).parts) == 3]


def run_digests(root: Path) -> dict:
    """Run the five pipelines under root; sha256 per output file but manifests."""
    (root / "commute").mkdir(parents=True)
    (root / "commute" / "scenario.json").write_text(json.dumps(COMMUTE_SCENARIO))
    (root / "commute" / "caps.csv").write_text(COMMUTE_CATALOG)
    _run(root / "stationary", STATIONARY)
    _run(root / "commute", COMMUTE)
    crowd = root / "crowd"
    crowd.mkdir()
    for user, scenario in CROWD_USERS.items():
        (crowd / f"{user}.json").write_text(json.dumps(scenario))
    _run(crowd, CROWD_SYNTH)
    write_crowd_trace(crowd)
    _run(crowd, CROWD)
    crowd_caps = root / "crowd_caps"
    crowd_caps.mkdir()
    (crowd_caps / "caps.csv").write_text(CROWD_CAPS_CATALOG)
    write_crowd_caps_trace(crowd_caps, crowd)
    _run(crowd_caps, CROWD_CAPS)
    long = root / "long"
    long.mkdir()
    for user, scenario in LONG_USERS.items():
        (long / f"{user}.json").write_text(json.dumps(scenario))
    _run(long, LONG_SYNTH)
    write_long_trace(long)
    _run(long, LONG)
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in _outputs(root, (".json", ".jsonl", ".csv")) if p.name != "manifest.json"}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(root, digests): the five pipelines, run once for every test of this module."""
    root = tmp_path_factory.mktemp("golden")
    return root, run_digests(root)


def test_output_digests_match_golden(runs):
    _, got = runs
    assert got.keys() == GOLDEN.keys()
    changed = [name for name in GOLDEN if got[name] != GOLDEN[name]]
    assert not changed, f"outputs changed: {changed}"


def test_commute_run_exercises_downgrades_and_the_artificial_filter(runs):
    root, _ = runs
    commute = root / "commute"
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


def test_crowd_run_exercises_rejects_users_and_records_without_samples(runs):
    root, _ = runs
    crowd = root / "crowd"
    records = json.loads((crowd / "analyzed" / "ingest_report.json").read_text())["records"]
    assert records["rejected"] == len(CROWD_REJECTS) and len(records["warnings"]) == len(CROWD_REJECTS)
    assert len({reason for _, reason in records["warnings"]}) == len(CROWD_REJECTS)
    rows = [json.loads(line) for line in (crowd / "analyzed" / "analyzed.jsonl").read_text().splitlines()]
    assert len(rows) == records["accepted"]
    assert {row["record"]["user_id"] for row in rows} == {s["user_id"] for s in CROWD_USERS.values()}
    assert sum("samples" not in row["record"] for row in rows) == len(rows) // 3
    camping = json.loads((crowd / "reports" / "camping.json").read_text())
    assert [c["subscriber_operator"] for c in camping] == ["OpA", "OpB"]
    assert json.loads((crowd / "reports" / "handovers.json").read_text())["count"] == 4
    # the local hours are those of UTC-05:45, not the default UTC+05:30
    hours = {row[1] for row in csv.reader((crowd / "reports" / "hourly.csv").open()) if row[0] != "key"}
    assert hours == {"12", "13", "14", "15"}


def test_crowd_caps_run_exercises_every_cap_and_repeated_rejects(runs):
    root, _ = runs
    run = root / "crowd_caps"
    records = json.loads((run / "analyzed" / "ingest_report.json").read_text())["records"]
    assert records["rejected"] == 2 * len(CROWD_REJECTS)
    assert set(Counter(reason for _, reason in records["warnings"]).values()) == {2}
    rows = [json.loads(line) for line in (run / "analyzed" / "analyzed.jsonl").read_text().splitlines()]
    crowd = (root / "crowd" / "analyzed" / "analyzed.jsonl").read_text().splitlines()
    assert [row["record"] for row in rows] == [json.loads(line)["record"] for line in crowd]
    factors = Counter(row["verdict"]["factor"] for row in rows)
    assert factors.keys() == {"DEVICE", "TECHNOLOGY", "PLAN", "CONGESTION", "COVERAGE", "UNDETERMINED"}
    natural = json.loads((run / "reports" / "histogram.json").read_text())["total"]
    assert natural == factors["CONGESTION"] + factors["COVERAGE"] + factors["UNDETERMINED"]
    camping = json.loads((run / "reports_3g" / "camping.json").read_text())
    assert {c["subscription_group"] for c in camping} == {"3G"}
    hourly = json.loads((run / "reports_3g" / "hourly.json").read_text())
    assert [p["key"] for p in hourly] == ["OpA", "OpB"]


def test_long_run_exercises_many_windows_and_spikes(runs):
    root, _ = runs
    rows = [json.loads(line) for line in (root / "long" / "analyzed" / "analyzed.jsonl").read_text().splitlines()]
    assert [len(row["record"]["samples"]["values"]) for row in rows] == [400] * 24 + [1600] * 2
    assessments = [row["assessment"] for row in rows]
    assert all(a is not None for a in assessments)
    assert max(a["upper_bound_window"] for a in assessments) > 1  # beyond any 20-sample series' windows
    assert sum(a["spikes_replaced"] for a in assessments) > 20 * len(rows)


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def test_every_output_is_strict_json(runs):
    """Every JSON output of the five runs, manifests included, parses with NaN
    and the infinities refused (RFC 8259 has none of them)."""
    root, _ = runs
    paths = _outputs(root, (".json", ".jsonl"))
    assert len(paths) == 98
    for path in paths:
        text = path.read_text(encoding="utf-8")
        for doc in text.splitlines() if path.suffix == ".jsonl" else [text]:
            json.loads(doc, parse_constant=_refuse)


def test_rows_decode_and_encode_to_the_same_bytes(runs, tmp_path):
    """Every analyzed and handovers row of the five runs, decoded by from_json and written again by
    write_json, is the same line: the row codec loses nothing on real rows."""
    root, _ = runs
    for file, cls in (("analyzed.jsonl", AnalyzedRow), ("handovers.jsonl", HandoverEvent)):
        for name in ("stationary", "commute", "crowd", "crowd_caps", "long"):
            path = root / name / "analyzed" / file
            lines = path.read_text(encoding="utf-8").splitlines()
            write_json((to_json(from_json(cls, json.loads(line))) for line in lines), tmp_path / file)
            # no handover: a day on one cell, and a commute an hour between records
            assert lines or (file == "handovers.jsonl" and name in ("stationary", "long"))
            assert (tmp_path / file).read_text(encoding="utf-8").splitlines() == lines, (name, file)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = run_digests(Path(tmp))
    sys.stdout.write("GOLDEN = {\n")
    for name, digest in digests.items():
        sys.stdout.write(f'    "{name}":\n        "{digest}",\n')
    sys.stdout.write("}\n")

