"""Acceptance suite: planted-ground-truth recovery and oracle equivalence.

Each test is one acceptance criterion; the conftest summary hook prints
one PASS/FAIL line per criterion at the end of the run. Tolerances are
stated inline next to each assertion.
"""

import math
import random

import numpy as np
import pytest

from mobitrace.attribution import Factor, attribute
from mobitrace.congestion import Pool, classify, filter_spikes
from mobitrace.coverage import camping_stats, detect_handovers, handover_impact
from mobitrace.ingest import build_sessions
from mobitrace.model import (
    AnalysisConfig,
    CapabilityCatalog,
    RadioTechnology,
    TechnologyGroup,
)
from mobitrace.reports import hourly_profile, pearson_r, pool_trend, quantile, signal_correlation
from mobitrace.synth import Scenario, ScenarioConfig, generate, plant_pool

from conftest import make_record, make_series

CFG = AnalysisConfig()


def boundary_series(deviations):
    """Six 10-sample windows: a leading ramp-free window plus five whose
    per-window deviation fractions from the 1000 upper bound are given."""
    values = [1000.0] * 10  # window 0, always excluded as slow start
    for d in deviations:
        values += [1000.0 * (1.0 - d)] * 10
    return make_series(values)


def test_c01_pool_boundary_table_exact():
    # overall MAPE is the mean of the five per-window MAPEs (100 * d each)
    cases = [
        ([0.0, 0.125, 0.125, 0.25, 0.0], 10.0, Pool.LOW),
        ([0.0, 0.125 + 5e-11, 0.125, 0.25, 0.0], None, Pool.MEDIUM),  # 10.0 + ~1e-9
        ([0.0, 0.25, 0.25, 0.25, 0.5], 25.0, Pool.MEDIUM),
        ([0.0, 0.25 + 5e-11, 0.25, 0.25, 0.5], None, Pool.HIGH),  # 25.0 + ~1e-9
    ]
    for deviations, exact_mape, expected_pool in cases:
        assessment = classify(boundary_series(deviations), CFG)
        assert assessment.spikes_replaced == 0
        assert assessment.upper_bound_kbps == 1000.0
        if exact_mape is not None:
            assert assessment.overall_mape_pct == exact_mape  # exact, no tolerance
        else:
            assert assessment.overall_mape_pct > {Pool.MEDIUM: 10.0, Pool.HIGH: 25.0}[expected_pool]
        assert assessment.pool is expected_pool


def test_c02_statistics_match_brute_force():
    rng = random.Random(2)
    rel = 1e-9
    # no window is always slow start, so every series has an eligible window
    cfg = AnalysisConfig(slow_start_min_excluded=0)
    for _ in range(1000):
        n = rng.randrange(20, 61)
        values = [rng.uniform(1.0, 10_000.0) for _ in range(n)]
        series = make_series(values)

        assessment = classify(series, cfg)
        arr = np.array(values)
        filtered = np.array(filter_spikes(series, cfg)[0].values)
        ub = assessment.upper_bound_kbps
        for s in assessment.windows:
            chunk = filtered[s.window_index * 10 : (s.window_index + 1) * 10]
            mean = chunk.mean()
            rad = np.abs(chunk - mean).mean() / mean
            mape = (100.0 * np.abs(ub - chunk) / ub).mean()
            assert s.mean_kbps == pytest.approx(mean, rel=rel)
            assert s.rad == pytest.approx(rad, rel=rel)
            if not s.excluded_slow_start:
                assert s.mape_pct == pytest.approx(mape, rel=rel)

        for q in (0.25, 0.5, 0.75):
            assert quantile(values, q) == pytest.approx(
                np.quantile(arr, q, method="linear"), rel=rel
            )
        ys = [rng.uniform(1.0, 10_000.0) for _ in range(n)]
        assert pearson_r(values, ys) == pytest.approx(np.corrcoef(values, ys)[0, 1], rel=rel)


def test_c03_planted_pool_classification_round_trip():
    rng = random.Random(3)
    hits = 0
    for target in (Pool.LOW, Pool.MEDIUM, Pool.HIGH):
        for _ in range(100):
            base = rng.uniform(500.0, 50_000.0)
            if classify(plant_pool(target, CFG, base), CFG).pool is target:
                hits += 1
    assert hits == 300  # 300/300, no tolerance


def test_c04_busy_hour_dip_recovered():
    cfg = ScenarioConfig(
        seed=4, scenario=Scenario.STATIONARY_24H,
        diurnal_dip=0.60, noise_cv=0.1, records_per_hour=100,
    )
    records, _ = generate(cfg)
    (profile,) = hourly_profile(records, "cell", CFG)
    assert profile.dip_fraction == pytest.approx(0.60, abs=0.05)


COMMUTE_CELLS = (
    ("cell-a", RadioTechnology.LTE, 8000.0),
    ("cell-b", RadioTechnology.LTE, 8000.0),
    ("cell-c", RadioTechnology.UMTS, 4000.0),
    ("cell-d", RadioTechnology.EDGE, 200.0),
)


def commute_records(seed, boundary_gap_ms=0, cells=COMMUTE_CELLS, noise_cv=0.1):
    cfg = ScenarioConfig(
        seed=seed, scenario=Scenario.COMMUTE, cells=cells,
        records_per_hour=60, noise_cv=noise_cv, boundary_gap_ms=boundary_gap_ms,
    )
    return generate(cfg)


def test_c05_handover_precision_recall():
    records, truth = commute_records(seed=5)
    (session,) = build_sessions(records)
    detected = {(e.at_ms, e.from_cell, e.to_cell) for e in detect_handovers(session, CFG)}
    planted = {(h.at_ms, h.from_cell, h.to_cell) for h in truth.handovers}
    assert detected == planted  # precision = recall = 1.0
    assert len(planted) == 3

    # boundary gaps beyond the detection limit exclude exactly those events
    records, truth = commute_records(seed=5, boundary_gap_ms=CFG.handover_max_gap_ms)
    (session,) = build_sessions(records)
    assert len(truth.handovers) == 3
    assert detect_handovers(session, CFG) == []


def test_c06_camping_fraction_recovered():
    records, _ = commute_records(seed=6)
    (session,) = build_sessions(records)
    stats = camping_stats(session, TechnologyGroup.G4)
    assert stats.total == 240
    assert stats.fraction_lower == pytest.approx(0.50, abs=0.02)


def test_c07_urban_pool_mix_recovered():
    cfg = ScenarioConfig(
        seed=7, scenario=Scenario.STATIONARY_24H, records_per_hour=50,
        planted_pool_mix={"LOW": 0.10, "MEDIUM": 0.45, "HIGH": 0.45},
    )
    records, _ = generate(cfg)
    assessed = [(r, classify(r.samples, CFG).pool) for r in records]
    trend = pool_trend(assessed, CFG)
    assert len(trend.urban_medium_high) == 1
    _, fraction, count = trend.urban_medium_high[0]
    assert count == 1200
    assert fraction == pytest.approx(0.90, abs=0.03)


def test_c08_handover_impact_ratio_recovered():
    cells = (
        ("cell-a", RadioTechnology.LTE, 40_000.0),
        ("cell-b", RadioTechnology.LTE, 4_000.0),
        ("cell-c", RadioTechnology.UMTS, 400.0),
        ("cell-d", RadioTechnology.EDGE, 40.0),
    )
    records, _ = commute_records(seed=8, cells=cells, noise_cv=0.01)
    (session,) = build_sessions(records)
    impact = handover_impact(detect_handovers(session, CFG))
    assert impact.count == 3
    assert impact.mean_throughput_ratio == pytest.approx(0.10, abs=0.02)


def test_c09_attribution_threshold_and_tiebreaks_exact():
    catalog = CapabilityCatalog(
        device_caps={("Acme", "One", RadioTechnology.HSPA): 21_000.0},
        tech_caps={RadioTechnology.HSPA: 42_000.0},
        plan_caps={("OpA", "gold"): 7_200.0},
    )
    threshold = CFG.attribution_alpha * 7_200.0

    at = attribute(make_record(download_kbps=threshold, plan_id="gold"), catalog, None, False, CFG)
    assert at.artificial and at.factor is Factor.PLAN
    assert at.binding_upper_bound_kbps == 7_200.0

    below = attribute(
        make_record(download_kbps=math.nextafter(threshold, 0.0), plan_id="gold"),
        catalog, None, False, CFG,
    )
    assert not below.artificial and below.factor is Factor.UNDETERMINED

    # equal caps: the binding factor follows the PLAN > DEVICE > TECHNOLOGY priority
    equal = CapabilityCatalog(
        device_caps={("Acme", "One", RadioTechnology.HSPA): 10_000.0},
        tech_caps={RadioTechnology.HSPA: 10_000.0},
        plan_caps={("OpA", "gold"): 10_000.0},
    )
    tie = attribute(make_record(download_kbps=9_000.0, plan_id="gold"), equal, None, False, CFG)
    assert tie.factor is Factor.PLAN
    no_plan = CapabilityCatalog(
        device_caps={("Acme", "One", RadioTechnology.HSPA): 10_000.0},
        tech_caps={RadioTechnology.HSPA: 10_000.0},
        plan_caps={},
    )
    tie2 = attribute(make_record(download_kbps=9_000.0), no_plan, None, False, CFG)
    assert tie2.factor is Factor.DEVICE


def test_c10_signal_throughput_independence():
    cfg = ScenarioConfig(
        seed=10, scenario=Scenario.STATIONARY_24H, records_per_hour=420,
        noise_cv=0.1, signal_low_dbm=-95.0, signal_high_dbm=-55.0,
    )
    records, _ = generate(cfg)
    assert len(records) == 10_080
    report = signal_correlation(records, CFG)
    assert report.pearson_r is not None
    assert abs(report.pearson_r) < 0.1


def test_c11_pipeline_byte_determinism(tmp_path):
    from mobitrace.cli import main

    def run(root):
        assert main(["synth", "--scenario", "stationary24h", "--seed", "11",
                     "--records-per-hour", "6", "--out", str(root / "synth")]) == 0
        assert main(["analyze", "--in", str(root / "synth" / "trace.jsonl"),
                     "--out", str(root / "analyzed")]) == 0
        assert main(["report", "--in", str(root / "analyzed"),
                     "--out", str(root / "reports"), "--report", "all"]) == 0
        return {
            p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        }

    first = run(tmp_path / "run1")
    second = run(tmp_path / "run2")
    assert first.keys() == second.keys()
    for name in first:
        if name.name == "manifest.json":
            continue  # carries wall time; everything else must be byte-equal
        assert first[name] == second[name], name


def test_c12_spike_filter_idempotent_and_complete():
    rng = random.Random(12)
    for _ in range(1000):
        n = rng.randrange(5, 61)
        series = make_series([rng.uniform(0.0, 10_000.0) for _ in range(n)])
        once, _ = filter_spikes(series, CFG)
        twice, replaced = filter_spikes(once, CFG)
        assert twice.values == once.values
        assert replaced == 0

    # isolated spikes of factor >= 3 at rate <= 0.05 are all corrected
    for _ in range(100):
        n = 40
        values = [1000.0 * math.exp(rng.gauss(0.0, 0.05)) for _ in range(n)]
        spike_at = sorted(rng.sample(range(n), 2))
        while spike_at[1] - spike_at[0] < 3:
            spike_at = sorted(rng.sample(range(n), 2))
        for i in spike_at:
            values[i] *= rng.uniform(3.0, 5.0)
        filtered, _ = filter_spikes(make_series(values), CFG)
        for i in spike_at:
            assert filtered.values[i] < values[i]
