"""Deterministic synthetic trace generator with planted ground truth.

Two scenarios: a stationary cell measured around the clock with a
configurable busy-hour dip, and a commute walking an ordered cell list
with handovers at every segment boundary. Identical configs (including
the seed) produce byte-identical traces.

Randomness comes from a counter-based splitmix64 stream so output is
reproducible across platforms; the constants are documented on
CounterRng.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated, Dict, List, NamedTuple, Optional, Tuple

from .congestion import Pool
from .model import (AnalysisConfig, Dbm, Hour, MeasurementRecord, RadioTechnology, Range, SampleSeries,
                    Scenario, UtcOffset, check_field_types, is_downgrade, is_finite_number, mean)

# 2016-01-04T00:00:00 UTC; traces start at local midnight relative to the
# configured offset.
_EPOCH_DAY_MS = 1_451_865_600_000

_MASK64 = (1 << 64) - 1

# generate holds each record's samples in one list and writes them as one
# trace line; 100 000 samples make a line of about 2 MB.
MAX_SAMPLES_PER_RECORD = 100_000


class CounterRng:
    """splitmix64 as a counter-based stream.

    output(n) = mix(seed + n * 0x9E3779B97F4A7C15) with the standard
    mixing constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB; uniforms
    take the top 53 bits.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.counter = 0

    def next_u64(self) -> int:
        self.counter += 1
        z = (self.seed + self.counter * 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
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
        """Multiplicative noise with mean 1 and the given coefficient of variation."""
        if cv <= 0:
            return 1.0
        sigma2 = math.log(1.0 + cv * cv)
        return math.exp(-0.5 * sigma2 + math.sqrt(sigma2) * self.normal())


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    scenario: Scenario
    base_capacity_kbps: Annotated[float, Range(above=0)] = 5000.0
    diurnal_dip: Annotated[float, Range(0, below=1)] = 0.0
    busy_hour_start: Hour = 7
    busy_hour_end: Hour = 17
    cells: Tuple[Tuple[str, RadioTechnology, float], ...] = ()
    # at most one record per ms: generate spaces them by whole ms
    records_per_hour: Annotated[int, Range(1, 3_600_000)] = 60
    sample_interval_ms: Annotated[int, Range(1)] = 500
    samples_per_record: Annotated[int, Range(2, MAX_SAMPLES_PER_RECORD)] = 20
    spike_rate: Annotated[float, Range(0, 1)] = 0.0
    noise_cv: Annotated[float, Range(0)] = 0.1
    planted_pool_mix: Optional[Dict[str, float]] = None
    boundary_gap_ms: Annotated[int, Range(0)] = 0  # extra idle time injected at commute cell changes
    technology: RadioTechnology = RadioTechnology.HSPA
    signal_low_dbm: Dbm = -95.0
    signal_high_dbm: Dbm = -55.0
    user_id: str = "synth-user"
    operator: str = "SynthTel"
    region_tag: str = "urban"
    plan_id: Optional[str] = None
    utc_offset_minutes: UtcOffset = 330

    def __post_init__(self):
        check_field_types(self)
        if self.scenario is Scenario.COMMUTE and len(self.cells) < 2:
            raise ValueError("commute scenario needs at least 2 cells")
        if not all(is_finite_number(cap) and cap > 0 for _, _, cap in self.cells):
            raise ValueError("cell capacities must be positive and finite")
        if any(not isinstance(cell_id, str) for cell_id, _, _ in self.cells):
            raise ValueError("cell ids must be strings")
        object.__setattr__(self, "cells", tuple((cell, tech, float(cap)) for cell, tech, cap in self.cells))
        if self.planted_pool_mix is not None:
            mix = self.planted_pool_mix
            if not isinstance(mix, dict) or not all(map(is_finite_number, mix.values())):
                raise ValueError("planted_pool_mix must be an object of finite numbers")
            if any(f < 0 for f in mix.values()):
                raise ValueError("pool mix fractions must be nonnegative")
            if abs(sum(mix.values()) - 1.0) > 1e-9:
                raise ValueError("pool mix fractions must sum to 1")
            if set(mix) - {p.value for p in Pool}:
                raise ValueError("pool mix keys must be LOW/MEDIUM/HIGH")

    @property
    def run_id(self) -> str:
        return f"{self.scenario.value}-{self.seed & _MASK64:016x}"

    def start_ms(self) -> int:
        return _EPOCH_DAY_MS - self.utc_offset_minutes * 60_000


class RecordLabel(NamedTuple):
    record_id: str
    local_hour: int
    true_mean_kbps: float
    cell_id: str
    technology: str
    true_pool: Optional[str] = None
    spike_indices: Tuple[int, ...] = ()


class PlantedHandover(NamedTuple):
    at_ms: int
    from_cell: str
    to_cell: str
    from_tech: str
    to_tech: str
    downgrade: bool
    gap_ms: int


class GroundTruth(NamedTuple):
    run_id: str
    scenario: str
    diurnal_dip: float
    hour_means_kbps: Dict[int, float]
    record_labels: Tuple[RecordLabel, ...]
    handovers: Tuple[PlantedHandover, ...]


def plant_pool(target: Pool, cfg: AnalysisConfig, base_kbps: float) -> SampleSeries:
    """Construct a series that classify() puts in the target pool.

    Layout: one slow-start ramp window, one stable window at the upper
    bound, then three constant windows deviated so the overall MAPE lands
    mid-band (LOW), mid-band (MEDIUM) or well past the high threshold.
    """
    targets = {
        Pool.LOW: cfg.mape_low_max / 2.0,
        Pool.MEDIUM: (cfg.mape_low_max + cfg.mape_medium_max) / 2.0,
        Pool.HIGH: 1.6 * cfg.mape_medium_max,
    }
    # overall MAPE = 3 * 100d / 4 over the UB window plus 3 deviated windows
    d = targets[target] * 4.0 / 300.0
    if not 0 < d < 1:
        raise ValueError("target deviation out of range for this config")
    w = cfg.window_size
    values = [base_kbps * (0.3 + 0.7 * i / (w - 1)) for i in range(w)]
    values += [base_kbps] * w
    values += [base_kbps * (1.0 - d)] * (3 * w)
    return SampleSeries(interval_ms=500, values=tuple(values))


def _choose_pool(mix: Dict[str, float], rng: CounterRng) -> Pool:
    u = rng.uniform()
    acc = 0.0
    for pool in Pool:
        acc += mix.get(pool.value, 0.0)
        if u < acc:
            return pool
    return Pool.HIGH


def _noisy_samples(cfg: ScenarioConfig, mean_kbps: float, rng: CounterRng) -> Tuple[List[float], List[int]]:
    values = [mean_kbps * rng.lognormal_unit_mean(cfg.noise_cv) for _ in range(cfg.samples_per_record)]
    spike_indices = []
    for i in range(len(values)):
        # keep spikes isolated so they read as single reordering outliers
        if spike_indices and spike_indices[-1] == i - 1:
            continue
        if rng.uniform() < cfg.spike_rate:
            values[i] *= 3.0 + 2.0 * rng.uniform()
            spike_indices.append(i)
    return values, spike_indices


def _make_record(cfg: ScenarioConfig, index: int, ts: int, cell_id: str,
                 technology: RadioTechnology, values: List[float], rng: CounterRng) -> MeasurementRecord:
    series = SampleSeries(interval_ms=cfg.sample_interval_ms, values=tuple(values))
    download = mean(series.values)
    signal = cfg.signal_low_dbm + (cfg.signal_high_dbm - cfg.signal_low_dbm) * rng.uniform()
    return MeasurementRecord(
        record_id=f"r{index:06d}",
        user_id=cfg.user_id,
        timestamp=ts,
        download_kbps=download,
        upload_kbps=download / 4.0,
        manufacturer="Acme",
        model="One",
        os_name="android",
        os_version="6.0",
        network_operator=cfg.operator,
        subscriber_operator=cfg.operator,
        technology=technology,
        signal_dbm=signal,
        cell_id=cell_id,
        samples=series,
        region_tag=cfg.region_tag,
        plan_id=cfg.plan_id,
    )


def generate(cfg: ScenarioConfig) -> Tuple[List[MeasurementRecord], GroundTruth]:
    """Emit the configured scenario's records and their planted labels."""
    rng = CounterRng(cfg.seed)
    analysis_cfg = AnalysisConfig(busy_hour_start=cfg.busy_hour_start, busy_hour_end=cfg.busy_hour_end,
                                  utc_offset_minutes=cfg.utc_offset_minutes)
    spacing = 3_600_000 // cfg.records_per_hour
    records: List[MeasurementRecord] = []
    labels: List[RecordLabel] = []
    handovers: List[PlantedHandover] = []
    hour_means: Dict[int, float] = {}

    def emit(index: int, ts: int, cell_id: str, tech: RadioTechnology, true_mean: float, hour: int):
        if cfg.planted_pool_mix is not None:
            pool = _choose_pool(cfg.planted_pool_mix, rng)
            series = plant_pool(pool, analysis_cfg, true_mean)
            values = list(series.values)
            spikes: Tuple[int, ...] = ()
            true_pool = pool.value
        else:
            values, spike_list = _noisy_samples(cfg, true_mean, rng)
            spikes = tuple(spike_list)
            true_pool = None
        records.append(_make_record(cfg, index, ts, cell_id, tech, values, rng))
        labels.append(
            RecordLabel(
                record_id=f"r{index:06d}",
                local_hour=hour,
                true_mean_kbps=true_mean,
                cell_id=cell_id,
                technology=tech.value,
                true_pool=true_pool,
                spike_indices=spikes,
            )
        )

    if cfg.scenario is Scenario.STATIONARY_24H:
        for hour in range(24):
            busy = analysis_cfg.is_busy_hour(hour)
            true_mean = cfg.base_capacity_kbps * (1.0 - cfg.diurnal_dip if busy else 1.0)
            hour_means[hour] = true_mean
            for j in range(cfg.records_per_hour):
                index = hour * cfg.records_per_hour + j
                ts = cfg.start_ms() + index * spacing
                emit(index, ts, "cell-0", cfg.technology, true_mean, hour)
    else:
        ts = cfg.start_ms()
        index = 0
        prev_cell = None
        for cell_id, tech, capacity in cfg.cells:
            if prev_cell is not None:
                ts += cfg.boundary_gap_ms
                handovers.append(
                    PlantedHandover(
                        at_ms=ts,
                        from_cell=prev_cell[0],
                        to_cell=cell_id,
                        from_tech=prev_cell[1].value,
                        to_tech=tech.value,
                        downgrade=is_downgrade(prev_cell[1], tech),
                        gap_ms=spacing + cfg.boundary_gap_ms,
                    )
                )
            for _ in range(cfg.records_per_hour):
                emit(index, ts, cell_id, tech, capacity, analysis_cfg.local_hour(ts))
                index += 1
                ts += spacing
            prev_cell = (cell_id, tech)
        # at_ms above is the timestamp of the first record after the gap;
        # records were emitted starting at that ts, so the planted list is
        # consistent with detection on the emitted trace.

    truth = GroundTruth(
        run_id=cfg.run_id,
        scenario=cfg.scenario.value,
        diurnal_dip=cfg.diurnal_dip,
        hour_means_kbps=hour_means,
        record_labels=tuple(labels),
        handovers=tuple(handovers),
    )
    return records, truth
