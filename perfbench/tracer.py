"""Traced in-process stages: spans around mobitrace's layer calls.

The tracer wraps the public functions that `mobitrace.cli` and
`mobitrace.ingest` call, as those modules bind them, plus the model's
validation hooks, and then runs `cli.main([...])`. The spans therefore
surround the layer calls on the real code path, and nothing under `src/`
changes. A span is `[name, start_ns, end_ns, parent_index, run_id]`;
spans stay in memory until the traced pipeline run ends.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from collections import Counter

from mobitrace import cli, congestion, ingest, model

STAGES = ("synth", "analyze", "report")
FACTORS = ("DEVICE", "TECHNOLOGY", "PLAN", "CONGESTION", "COVERAGE", "UNDETERMINED")
REPORT_FUNCS = ("throughput_histogram", "hourly_profile", "quarterly_trend", "operator_summary",
                "pool_trend", "signal_correlation")

# Spans the tracer adds for measurement only; they are not the program's work.
PROBES = ("congestion.filter_spikes",)

# metric -> span name; the metric is the summed duration of those spans,
# less any probe inside them.
SPAN_TIMES = {
    "ingest.read_records_s": "ingest.read_records",
    "ingest.record_from_obj_s": "ingest.record_from_obj",
    "ingest.build_sessions_s": "ingest.build_sessions",
    "ingest.write_records_s": "ingest.write_records",
    "model.validate_s": "model.validate",
    "congestion.classify_s": "congestion.classify",
    "congestion.filter_spikes_s": "congestion.filter_spikes",
    "coverage.detect_handovers_s": "coverage.detect_handovers",
    "coverage.handover_impact_s": "coverage.handover_impact",
    "coverage.camping_stats_s": "coverage.camping_stats",
    "attribution.attribute_s": "attribution.attribute",
    "synth.generate_s": "synth.generate",
    **{f"reports.{f}_s": f"reports.{f}" for f in REPORT_FUNCS},
    **{f"cli.{s}.span_s": f"cli.{s}" for s in STAGES},
}
# metric -> span name; the metric is those spans' self time.
SELF_TIMES = {
    "ingest.json_decode_s": "ingest.read_records",
    **{f"cli.{s}.self_s": f"cli.{s}" for s in STAGES},
}
COUNTS = (
    "ingest.accepted", "ingest.rejected", "ingest.sessions",
    "congestion.spikes_replaced", "congestion.samples_classified", "congestion.assessed",
    "congestion.unassessed", "coverage.handovers", "coverage.downgrades", "synth.records",
    *(f"attribution.verdicts.{f}" for f in FACTORS),
)

# Every per-layer metric with its unit, in print order.
PER_LAYER = {
    **{m: "s" for m in SPAN_TIMES},
    **{m: "s" for m in SELF_TIMES},
    **{m: "count" for m in COUNTS},
    "congestion.classify_call_ms.p50": "ms",
    "congestion.classify_call_ms.p99": "ms",
    "attribution.artificial_frac": "ratio",
    **{f"cli.{s}.cpu_s": "s" for s in STAGES},
    **{f"tracing.{s}.overhead_frac": "ratio" for s in STAGES},
}


class Tracer:
    """Records spans and counts while it is installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.classify_ms = []
        self.run_id = ""
        self.stage = ""
        self._stack = []
        self._saved = []

    # -- recording -------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        """Run fn inside a span; returns (span, result)."""
        stack = self._stack
        span = [name, 0, 0, stack[-1] if stack else -1, self.run_id]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            return span, fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            stack.pop()

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            span, result = self._call(name, fn, args, kwargs)
            if after is not None:
                after(span, result, args)
            return result

        return traced

    # -- counts taken at the layer boundaries ----------------------------

    def _after_read(self, span, result, args):
        _, report = result
        self.counts["ingest.accepted"] += report.accepted
        self.counts["ingest.rejected"] += report.rejected

    def _after_sessions(self, span, result, args):
        if self.stage == "analyze":
            self.counts["ingest.sessions"] += len(result)

    def _after_classify(self, span, result, args):
        series, cfg = args
        self.classify_ms.append((span[2] - span[1]) / 1e6)
        self.counts["congestion.assessed"] += 1
        self.counts["congestion.samples_classified"] += len(series.values)
        self.counts["congestion.spikes_replaced"] += result.spikes_replaced
        # The spike filter gets its own span on the same series, outside
        # classify's, so classify's timing is the program's alone.
        self._call("congestion.filter_spikes", congestion.filter_spikes, (series, cfg), {})

    def _after_handovers(self, span, result, args):
        self.counts["coverage.handovers"] += len(result)
        self.counts["coverage.downgrades"] += sum(1 for e in result if e.downgrade)

    def _after_attribute(self, span, result, args):
        if args[2] is None:
            self.counts["congestion.unassessed"] += 1
        self.counts[f"attribution.verdicts.{result.factor.value}"] += 1
        self.counts["attribution.artificial"] += result.artificial

    def _after_generate(self, span, result, args):
        self.counts["synth.records"] += len(result[0])

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        targets = [
            (cli, "read_records", "ingest.read_records", self._after_read),
            (cli, "record_from_obj", "ingest.record_from_obj", None),
            (ingest, "record_from_obj", "ingest.record_from_obj", None),
            (cli, "write_records", "ingest.write_records", None),
            (cli, "build_sessions", "ingest.build_sessions", self._after_sessions),
            (cli, "classify", "congestion.classify", self._after_classify),
            (cli, "detect_handovers", "coverage.detect_handovers", self._after_handovers),
            (cli, "handover_impact", "coverage.handover_impact", None),
            (cli, "camping_stats", "coverage.camping_stats", None),
            (cli, "attribute", "attribution.attribute", self._after_attribute),
            (cli, "generate", "synth.generate", self._after_generate),
            (model.MeasurementRecord, "__post_init__", "model.validate", None),
            (model.SampleSeries, "__post_init__", "model.validate", None),
            *((cli, f, f"reports.{f}", None) for f in REPORT_FUNCS),
        ]
        for owner, attr, name, after in targets:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, after))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def run_stage(self, argv, run_id: str) -> int:
        """Run `cli.main(argv)` in-process inside the root span `cli.<stage>`."""
        self.stage, self.run_id = argv[0], run_id
        gc.collect()
        _, code = self._call(f"cli.{self.stage}", cli.main, (argv,), {})
        return code

    def take(self):
        """Hand over and forget the spans, counts and call timings so far."""
        out = (self.spans, self.counts, self.classify_ms)
        self.spans, self.counts, self.classify_ms = [], Counter(), []
        return out


def check_spans(spans, first: int = 0) -> list:
    """Children lie inside their parent and siblings do not overlap, so
    each stage span is exactly its children plus its self time. Checks the
    spans from index `first` on."""
    fails = []
    last_end = {}
    for name, start, end, parent, _ in spans[first:]:
        if end < start:
            fails.append(f"span {name} ends before it starts")
        if parent < 0:
            continue
        p = spans[parent]
        if start < p[1] or end > p[2]:
            fails.append(f"span {name} outside its parent {p[0]}")
        if start < last_end.get(parent, p[1]):
            fails.append(f"span {name} overlaps a sibling under {p[0]}")
        last_end[parent] = end
    return fails[:5]


def layer_metrics(spans, counts) -> dict:
    """Per-layer times (seconds) and counts of one traced pipeline run."""
    total = Counter()
    children = [0] * len(spans)
    in_probe = [False] * len(spans)  # validation inside a probe is the tracer's work
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent] += end - start
            in_probe[i] = in_probe[parent] or spans[parent][0] in PROBES
        if not in_probe[i]:
            total[name] += end - start
    self_ns = Counter()
    probe_ns = Counter()  # stage -> probe time inside it
    for i, (name, start, end, parent, _) in enumerate(spans):
        self_ns[name] += end - start - children[i]
        if name in PROBES:
            probe_ns[spans[parent][0]] += end - start
    out = {m: total[n] / 1e9 for m, n in SPAN_TIMES.items()}
    out.update({m: self_ns[n] / 1e9 for m, n in SELF_TIMES.items()})
    out.update({m: counts[m] for m in COUNTS})
    verdicts = sum(counts[f"attribution.verdicts.{f}"] for f in FACTORS)
    out["attribution.artificial_frac"] = counts["attribution.artificial"] / verdicts if verdicts else 0.0
    for s in STAGES:  # a stage's span counts the program's work only
        out[f"cli.{s}.span_s"] -= probe_ns[f"cli.{s}"] / 1e9
    return out


def percentile_ms(values, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def write_spans(path, spans) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span))
            fh.write("\n")
