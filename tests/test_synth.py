import json
import math
import random

import pytest

from mobitrace.cli import main
from mobitrace.congestion import Pool, classify
from mobitrace.model import AnalysisConfig, RadioTechnology, SampleSeries, mean
from mobitrace.synth import (_BLOCK, MAX_SAMPLES_PER_RECORD, CounterRng, Scenario, ScenarioConfig, _noisy_samples,
                             draw_records, generate, plant_pool, planted_truth)

CFG = AnalysisConfig()

COMMUTE_CELLS = (
    ("A", RadioTechnology.UMTS, 4000.0),
    ("B", RadioTechnology.EDGE, 400.0),
    ("C", RadioTechnology.UMTS, 4000.0),
)


MASK64 = (1 << 64) - 1


class ScalarRng:
    """The oracle: splitmix64 one draw at a time, as CounterRng computed it before it drew in blocks."""

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self.counter = 0

    def next_u64(self) -> int:
        self.counter += 1
        z = (self.seed + self.counter * 0x9E3779B97F4A7C15) & MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53

    def normal(self) -> float:
        u1 = self.uniform()
        while u1 == 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def lognormal_unit_mean(self, cv: float) -> float:
        if cv <= 0:
            return 1.0
        sigma2 = math.log(1.0 + cv * cv)
        return math.exp(-0.5 * sigma2 + math.sqrt(sigma2) * self.normal())


def oracle_noisy_samples(rng, mean_kbps, samples, cv, spike_rate):
    """synth's samples and spikes drawn one call per draw, in its order: the noise, then a spike draw
    per sample that does not follow a spike, and a second draw only after a spike."""
    values = [mean_kbps * rng.lognormal_unit_mean(cv) for _ in range(samples)]
    spikes = []
    for i in range(samples):
        if spikes and spikes[-1] == i - 1:
            continue
        if rng.uniform() < spike_rate:
            values[i] *= 3.0 + 2.0 * rng.uniform()
            spikes.append(i)
    return values, spikes


def noise_cfg(samples, cv, spike_rate):
    return ScenarioConfig(seed=0, scenario=Scenario.STATIONARY_24H, samples_per_record=samples, noise_cv=cv,
                          spike_rate=spike_rate)


class TestCounterRng:
    def test_deterministic_stream(self):
        # seed 0 gives the splitmix64 reference outputs
        oracle = ScalarRng(0)
        assert [oracle.next_u64() for _ in range(3)] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                                                         0x06C45D188009454F]
        assert CounterRng(0).uniform() == (0xE220A8397B1DCDAF >> 11) * 2.0 ** -53

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, -1, 2**64 - 1, 2**64 + 5])
    def test_block_stream_equals_scalar_oracle(self, seed):
        # each record's samples, then its signal draw; the 600-sample series crosses a block
        lengths = random.Random(seed)
        shapes = [(lengths.randrange(2, 60), cv, rate)
                  for cv, rate in [(0.1, 0.05), (0.0, 0.3), (0.5, 0.0), (0.2, 1.0)] * 12] + [(600, 0.1, 0.05)]
        rng, oracle = CounterRng(seed), ScalarRng(seed)
        for samples, cv, rate in shapes:
            mean_kbps = 100.0 + samples
            drawn = _noisy_samples(noise_cfg(samples, cv, rate), mean_kbps, rng)
            assert drawn == oracle_noisy_samples(oracle, mean_kbps, samples, cv, rate)
            assert rng.uniform() == oracle.uniform()
        assert oracle.counter > 6 * _BLOCK

    def test_noisy_samples_redraw_a_zero_u1(self):
        # no seed is known to draw exactly 0.0, so both streams are stubbed with the same draws:
        # u1 is redrawn twice for the first sample and once for the second, which the spike skips
        draws = [0.0, 0.0, 0.25, 0.5, 0.0, 0.125, 0.9, 0.3, 0.6, 0.75]
        rng, oracle = CounterRng(0), ScalarRng(0)
        rng.uniform, oracle.uniform = iter(draws).__next__, iter(draws).__next__
        values, spikes = _noisy_samples(noise_cfg(2, 0.3, 0.5), 1000.0, rng)
        assert (values, spikes) == oracle_noisy_samples(oracle, 1000.0, 2, 0.3, 0.5)
        sigma2 = math.log(1.09)
        noise = math.exp(-0.5 * sigma2 + math.sqrt(sigma2) * math.sqrt(-2.0 * math.log(0.25)) * math.cos(math.pi))
        assert spikes == [0] and values[0] == pytest.approx(1000.0 * noise * 4.2, rel=1e-15)
        assert rng.uniform() == oracle.uniform() == 0.75

    def test_uniform_in_unit_interval(self):
        rng = CounterRng(7)
        values = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.4 < sum(values) / len(values) < 0.6

    def test_noise_has_unit_mean(self):
        values, spikes = _noisy_samples(noise_cfg(4000, 0.2, 0.0), 1.0, CounterRng(9))
        assert spikes == [] and sum(values) / len(values) == pytest.approx(1.0, abs=0.02)


class TestScenarioConfig:
    def test_dip_range_validated(self):
        with pytest.raises(ValueError, match="dip"):
            ScenarioConfig(seed=1, scenario=Scenario.STATIONARY_24H, diurnal_dip=1.5)

    def test_commute_needs_two_cells(self):
        with pytest.raises(ValueError):
            ScenarioConfig(seed=1, scenario=Scenario.COMMUTE, cells=COMMUTE_CELLS[:1])

    @pytest.mark.parametrize("cell, message", [
        (("c9", RadioTechnology.LTE, float("nan")), "cell capacities"),
        (("c9", RadioTechnology.LTE, float("inf")), "cell capacities"),
        ((9, RadioTechnology.LTE, 1000.0), "cell ids"),
    ])
    def test_bad_commute_cell_rejected(self, cell, message):
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(seed=1, scenario=Scenario.COMMUTE, cells=COMMUTE_CELLS + (cell,))

    def test_records_per_hour_at_most_one_per_ms(self):
        ScenarioConfig(seed=1, scenario=Scenario.STATIONARY_24H, records_per_hour=3_600_000)
        with pytest.raises(ValueError, match="records_per_hour must be at least 1 and at most 3600000"):
            ScenarioConfig(seed=1, scenario=Scenario.STATIONARY_24H, records_per_hour=3_600_001)

    def test_boundary_gap_not_negative(self):
        # a negative gap would plant handovers with a negative gap_ms
        ScenarioConfig(seed=1, scenario=Scenario.COMMUTE, cells=COMMUTE_CELLS, boundary_gap_ms=0)
        with pytest.raises(ValueError, match="^boundary_gap_ms must be at least 0$"):
            ScenarioConfig(seed=1, scenario=Scenario.COMMUTE, cells=COMMUTE_CELLS, boundary_gap_ms=-600_000)

    def test_samples_per_record_bounded(self):
        # configs only: generating a record this long is not needed to test the bound
        ScenarioConfig(seed=1, scenario=Scenario.STATIONARY_24H, samples_per_record=MAX_SAMPLES_PER_RECORD)
        with pytest.raises(ValueError, match="^samples_per_record must be at least 2 and at most 100000$"):
            ScenarioConfig(seed=1, scenario=Scenario.STATIONARY_24H, samples_per_record=MAX_SAMPLES_PER_RECORD + 1)

    def test_pool_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ScenarioConfig(seed=1, scenario=Scenario.STATIONARY_24H,
                           planted_pool_mix={"LOW": 0.5, "HIGH": 0.4})


class TestGenerateStationary:
    def test_record_count_and_true_means(self):
        cfg = ScenarioConfig(seed=7, scenario=Scenario.STATIONARY_24H,
                             base_capacity_kbps=5000.0, diurnal_dip=0.6, records_per_hour=4)
        records, truth = generate(cfg)
        assert len(records) == 96
        assert truth.hour_means_kbps[8] == pytest.approx(2000.0)
        assert truth.hour_means_kbps[3] == pytest.approx(5000.0)

    def test_generate_collects_the_stream(self):
        cfg = ScenarioConfig(seed=11, scenario=Scenario.STATIONARY_24H, records_per_hour=3, spike_rate=0.02)
        records, truth = generate(cfg)
        stream = draw_records(cfg)
        pairs = [next(stream) for _ in records]  # one at a time, in trace order
        assert next(stream, None) is None
        assert [record for record, _ in pairs] == records
        assert tuple(label for _, label in pairs) == truth.record_labels and len(truth.record_labels) == 72
        assert truth._replace(record_labels=()) == planted_truth(cfg)

    def test_same_seed_identical(self):
        cfg = ScenarioConfig(seed=11, scenario=Scenario.STATIONARY_24H, records_per_hour=3,
                             spike_rate=0.02)
        assert generate(cfg) == generate(cfg)

    def test_different_seed_differs(self):
        base = dict(scenario=Scenario.STATIONARY_24H, records_per_hour=3)
        r1, _ = generate(ScenarioConfig(seed=1, **base))
        r2, _ = generate(ScenarioConfig(seed=2, **base))
        assert r1 != r2

    def test_headline_equals_sample_mean(self):
        cfg = ScenarioConfig(seed=3, scenario=Scenario.STATIONARY_24H, records_per_hour=2,
                             spike_rate=0.05)
        records, _ = generate(cfg)
        for record in records:
            assert record.download_kbps == pytest.approx(mean(record.samples.values), rel=1e-12)

    def test_local_hours_cycle(self):
        cfg = ScenarioConfig(seed=5, scenario=Scenario.STATIONARY_24H, records_per_hour=1)
        records, truth = generate(cfg)
        analysis = AnalysisConfig(utc_offset_minutes=cfg.utc_offset_minutes)
        assert [analysis.local_hour(r.timestamp) for r in records] == list(range(24))
        assert [l.local_hour for l in truth.record_labels] == list(range(24))


class TestGenerateCommute:
    def test_planted_handovers_and_downgrades(self):
        cfg = ScenarioConfig(seed=2, scenario=Scenario.COMMUTE, cells=COMMUTE_CELLS,
                             records_per_hour=10)
        records, truth = generate(cfg)
        assert len(records) == 30
        assert len(truth.handovers) == 2
        assert [h.downgrade for h in truth.handovers] == [True, False]

    def test_boundary_gap_recorded(self):
        cfg = ScenarioConfig(seed=2, scenario=Scenario.COMMUTE, cells=COMMUTE_CELLS,
                             records_per_hour=10, boundary_gap_ms=300_000)
        _, truth = generate(cfg)
        assert all(h.gap_ms == 3_600_000 // 10 + 300_000 for h in truth.handovers)

    def test_timestamps_strictly_increasing(self):
        cfg = ScenarioConfig(seed=4, scenario=Scenario.COMMUTE, cells=COMMUTE_CELLS,
                             records_per_hour=6)
        records, _ = generate(cfg)
        times = [r.timestamp for r in records]
        assert times == sorted(times) and len(set(times)) == len(times)


class TestPlantedTruth:
    """planted_truth is computed from the config before any record is drawn; the drawn trace must
    bear it out."""

    def test_handovers_match_the_drawn_trace(self):
        cfg = ScenarioConfig(seed=8, scenario=Scenario.COMMUTE, cells=COMMUTE_CELLS, records_per_hour=7,
                             boundary_gap_ms=123_457, utc_offset_minutes=-210)
        records, _ = generate(cfg)
        truth = planted_truth(cfg)
        spacing = 3_600_000 // cfg.records_per_hour
        assert len(truth.handovers) == len(COMMUTE_CELLS) - 1
        for h in truth.handovers:
            i = next(i for i, r in enumerate(records) if r.cell_id == h.to_cell)
            assert records[i].timestamp == h.at_ms
            assert records[i - 1].cell_id == h.from_cell
            assert h.at_ms - records[i - 1].timestamp == h.gap_ms == spacing + cfg.boundary_gap_ms
            assert (h.from_tech, h.to_tech) == (records[i - 1].technology, records[i].technology)

    def test_hour_means_match_the_drawn_labels(self):
        cfg = ScenarioConfig(seed=9, scenario=Scenario.STATIONARY_24H, records_per_hour=3, diurnal_dip=0.4,
                             busy_hour_start=20, busy_hour_end=3, utc_offset_minutes=-480)
        records, truth = generate(cfg)
        hour_means = planted_truth(cfg).hour_means_kbps
        assert list(hour_means) == list(range(24))
        analysis = AnalysisConfig(utc_offset_minutes=cfg.utc_offset_minutes)
        for record, label in zip(records, truth.record_labels):
            assert label.local_hour == analysis.local_hour(record.timestamp)
            assert label.true_mean_kbps == hour_means[label.local_hour]
        assert sorted(h for h, kbps in hour_means.items() if kbps == 3000.0) == [0, 1, 2, 3, 20, 21, 22, 23]


class TestPlantPool:
    def test_each_target_classified_back(self):
        for target in Pool:
            series = plant_pool(target, CFG, 10_000.0)
            assert classify(series, CFG).pool is target

    def test_mape_lands_mid_band(self):
        assessment = classify(plant_pool(Pool.MEDIUM, CFG, 8_000.0), CFG)
        assert assessment.overall_mape_pct == pytest.approx(17.5, abs=0.5)

    def test_generator_pool_mix_labels_match_classify(self):
        cfg = ScenarioConfig(seed=6, scenario=Scenario.STATIONARY_24H, records_per_hour=2,
                             planted_pool_mix={"LOW": 0.3, "MEDIUM": 0.3, "HIGH": 0.4})
        records, truth = generate(cfg)
        for record, label in zip(records, truth.record_labels):
            assert classify(record.samples, CFG).pool.value == label.true_pool


class TestEachFactOnce:
    """A label holds only what its trace line cannot say, and each record's series is built once."""

    RUNS = {
        "stationary": {"scenario": "stationary24h", "seed": 3, "records_per_hour": 2, "spike_rate": 0.05},
        "commute": {"scenario": "commute", "seed": 4, "records_per_hour": 6,
                    "cells": [["A", "UMTS", 4000.0], ["B", "EDGE", 400.0], ["C", "LTE", 9000.0]]},
        "pool-mix": {"scenario": "stationary24h", "seed": 6, "records_per_hour": 2,
                     "planted_pool_mix": {"LOW": 0.3, "MEDIUM": 0.3, "HIGH": 0.4}},
    }

    @pytest.mark.parametrize("name", RUNS)
    def test_labels_leave_cell_and_technology_to_the_trace(self, tmp_path, name):
        (tmp_path / "scenario.json").write_text(json.dumps(self.RUNS[name]))
        assert main(["synth", "--config", str(tmp_path / "scenario.json"), "--out", str(tmp_path / "s")]) == 0
        labels = json.loads((tmp_path / "s" / "ground_truth.json").read_text())["record_labels"]
        trace = [json.loads(line) for line in (tmp_path / "s" / "trace.jsonl").read_text().splitlines()]
        assert [label["record_id"] for label in labels] == [record["record_id"] for record in trace]
        for label in labels:
            assert label.keys() == {"record_id", "local_hour", "true_mean_kbps", "true_pool", "spike_indices"}
        assert {record["samples"]["interval_ms"] for record in trace} == {500}

    def test_pool_mix_builds_one_series_per_record(self, monkeypatch):
        built = []
        post_init = SampleSeries.__post_init__

        def counting(series):
            built.append(series)
            post_init(series)
        monkeypatch.setattr(SampleSeries, "__post_init__", counting)
        cfg = ScenarioConfig(seed=6, scenario=Scenario.STATIONARY_24H, records_per_hour=2,
                             planted_pool_mix={"LOW": 0.3, "MEDIUM": 0.3, "HIGH": 0.4})
        records, _ = generate(cfg)
        assert len(built) == len(records) == 48
        assert all(record.samples is series for record, series in zip(records, built))
