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
import sys
from dataclasses import dataclass
from itertools import chain, count
from typing import Annotated, Dict, Iterator, List, NamedTuple, Optional, Tuple

from .model import (AnalysisConfig, Dbm, Hour, MeasurementRecord, Pool, RadioTechnology, Range, SampleSeries,
                    Scenario, UtcOffset, check_field_types, is_downgrade, is_finite_number, mean)

# 2016-01-04T00:00:00 UTC; traces start at local midnight relative to the
# configured offset.
_EPOCH_DAY_MS = 1_451_865_600_000

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_UNIT = 2.0 ** -53

# CounterRng's block: _BLOCK lanes of 128 bits each. _ONES has a 1 at the bottom of every slot,
# _STEPS holds lane i's counter offset i * _GAMMA, and _LANES keeps each slot's low 64 bits.
_BLOCK = 512
_ONES = ((1 << 128 * _BLOCK) - 1) // ((1 << 128) - 1)
_STEPS = _GAMMA * int.from_bytes(b"".join(i.to_bytes(16, "little") for i in range(_BLOCK)), "little")
_LANES = _ONES * _MASK64
# cast("Q") reads native byte order. From little-endian bytes lane i's low half is item 2i; from
# big-endian bytes it is item 2 * (_BLOCK - i) - 1, which [::-2] visits in lane order.
_LOW_HALVES = slice(None, None, 2 if sys.byteorder == "little" else -2)

# draw_records holds each record's samples in one list, written as one
# trace line; 100 000 samples make a line of about 2 MB.
MAX_SAMPLES_PER_RECORD = 100_000


class CounterRng:
    """splitmix64 as a counter-based stream, computed a block of counters at a time.

    Draw n (n = 1, 2, ...) is mix(seed + n * 0x9E3779B97F4A7C15) with the
    standard mixing constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB;
    uniforms take its top 53 bits.

    A block packs _BLOCK counters into one int, lane i in the low 64 bits of
    its own 128-bit slot, so each mixing step runs once per block instead of
    once per draw. The result is exact: a lane below 2**64 times a constant
    below 2**64 stays below 2**128, inside its own slot, and the bits a right
    shift moves in from the next slot land at bit 64 or above, where the
    lane mask clears them before the next product; only the low 64 bits of
    each slot are read. Draws are taken strictly in order, so every caller
    sees the counters the one-at-a-time formula would give it.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        # the next uniform, called without a Python frame of its own
        self.uniform = chain.from_iterable(map(self._block, count(1, _BLOCK))).__next__

    def _block(self, first: int) -> Iterator[float]:
        """The uniforms of counters first .. first + _BLOCK - 1."""
        z = (((self.seed + first * _GAMMA) & _MASK64) * _ONES + _STEPS) & _LANES
        z = ((z ^ (z >> 30)) & _LANES) * 0xBF58476D1CE4E5B9 & _LANES
        z = ((z ^ (z >> 27)) & _LANES) * 0x94D049BB133111EB & _LANES
        z = (z ^ (z >> 31)) >> 11  # the low half of each slot now holds its lane's top 53 bits
        # k * 2**-53 is exact for k < 2**53
        return map(_UNIT.__mul__, memoryview(z.to_bytes(16 * _BLOCK, sys.byteorder)).cast("Q")[_LOW_HALVES])


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    scenario: Scenario
    base_capacity_kbps: Annotated[float, Range(above=0)] = 5000.0
    diurnal_dip: Annotated[float, Range(0, below=1)] = 0.0
    busy_hour_start: Hour = 7
    busy_hour_end: Hour = 17
    cells: Tuple[Tuple[str, RadioTechnology, float], ...] = ()
    # at most one record per ms: draw_records spaces them by whole ms
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
        if not all(isinstance(cell, tuple) and len(cell) == 3 for cell in self.cells):
            raise ValueError("cells must be (cell id, technology, capacity) triples")
        if not all(is_finite_number(cap) and cap > 0 for _, _, cap in self.cells):
            raise ValueError("cell capacities must be positive and finite")
        if any(not isinstance(cell_id, str) for cell_id, _, _ in self.cells):
            raise ValueError("cell ids must be strings")
        if not all(isinstance(tech, RadioTechnology) for _, tech, _ in self.cells):
            raise ValueError("cell technologies must be RadioTechnology values")
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

    def analysis_config(self) -> AnalysisConfig:
        """The analysis config whose busy hours and local hours this scenario plants."""
        return AnalysisConfig(busy_hour_start=self.busy_hour_start, busy_hour_end=self.busy_hour_end,
                              utc_offset_minutes=self.utc_offset_minutes)


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


def _nonzero(draw) -> float:
    """The next draw that is not 0.0, whose log is finite."""
    u = draw()
    while u == 0.0:
        u = draw()
    return u


def _noisy_samples(cfg: ScenarioConfig, mean_kbps: float, rng: CounterRng) -> Tuple[List[float], List[int]]:
    """mean_kbps times lognormal noise of mean 1 and coefficient of variation cfg.noise_cv, each
    factor exp(-sigma2/2 + sigma * z) from one Box-Muller normal z = sqrt(-2 log u1) * cos(2 pi u2),
    with u1 redrawn while it is 0.0; then a spike draw per sample that does not follow a spike."""
    draw, n = rng.uniform, cfg.samples_per_record
    if cfg.noise_cv <= 0:
        values = [mean_kbps] * n
    else:
        sigma2 = math.log(1.0 + cfg.noise_cv * cfg.noise_cv)
        shift, sigma, tau = -0.5 * sigma2, math.sqrt(sigma2), 2.0 * math.pi
        exp, sqrt, log, cos = math.exp, math.sqrt, math.log, math.cos
        values = [mean_kbps * exp(shift + sigma * (sqrt(-2.0 * log(draw() or _nonzero(draw))) * cos(tau * draw())))
                  for _ in range(n)]
    spike_indices = []
    for i in range(n):
        # keep spikes isolated so they read as single reordering outliers
        if spike_indices and spike_indices[-1] == i - 1:
            continue
        if draw() < cfg.spike_rate:
            values[i] *= 3.0 + 2.0 * draw()
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


def planted_truth(cfg: ScenarioConfig) -> GroundTruth:
    """The ground truth the config alone decides, with no record labels: each stationary hour's true
    mean and each commute handover. It takes no draw, so it is known before the first record is."""
    analysis_cfg = cfg.analysis_config()
    hour_means: Dict[int, float] = {}
    handovers: List[PlantedHandover] = []
    if cfg.scenario is Scenario.STATIONARY_24H:
        for hour in range(24):
            busy = analysis_cfg.is_busy_hour(hour)
            hour_means[hour] = cfg.base_capacity_kbps * (1.0 - cfg.diurnal_dip if busy else 1.0)
    else:
        spacing = 3_600_000 // cfg.records_per_hour
        ts = cfg.start_ms()
        for (from_cell, from_tech, _), (to_cell, to_tech, _) in zip(cfg.cells, cfg.cells[1:]):
            # a cell's records are spaced from its first; the next cell's first comes after the gap
            ts += cfg.records_per_hour * spacing + cfg.boundary_gap_ms
            handovers.append(PlantedHandover(at_ms=ts, from_cell=from_cell, to_cell=to_cell,
                                             from_tech=from_tech.value, to_tech=to_tech.value,
                                             downgrade=is_downgrade(from_tech, to_tech),
                                             gap_ms=spacing + cfg.boundary_gap_ms))
    return GroundTruth(run_id=cfg.run_id, scenario=cfg.scenario.value, diurnal_dip=cfg.diurnal_dip,
                       hour_means_kbps=hour_means, record_labels=(), handovers=tuple(handovers))


def draw_records(cfg: ScenarioConfig) -> Iterator[Tuple[MeasurementRecord, RecordLabel]]:
    """Yield the configured scenario's records in trace order, each with its planted label, each
    drawn only when the one before it has been taken. Their hours and cells follow planted_truth."""
    rng = CounterRng(cfg.seed)
    analysis_cfg = cfg.analysis_config()
    spacing = 3_600_000 // cfg.records_per_hour
    truth = planted_truth(cfg)

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
        record = _make_record(cfg, index, ts, cell_id, tech, values, rng)
        return record, RecordLabel(
            record_id=record.record_id,
            local_hour=hour,
            true_mean_kbps=true_mean,
            cell_id=cell_id,
            technology=tech.value,
            true_pool=true_pool,
            spike_indices=spikes,
        )

    index = 0
    if cfg.scenario is Scenario.STATIONARY_24H:
        for hour, true_mean in truth.hour_means_kbps.items():
            for _ in range(cfg.records_per_hour):
                yield emit(index, cfg.start_ms() + index * spacing, "cell-0", cfg.technology, true_mean, hour)
                index += 1
    else:
        # each cell's first record is at its planted handover's at_ms, so detection on the trace finds it
        firsts = (cfg.start_ms(), *(h.at_ms for h in truth.handovers))
        for (cell_id, tech, capacity), first in zip(cfg.cells, firsts):
            for j in range(cfg.records_per_hour):
                ts = first + j * spacing
                yield emit(index, ts, cell_id, tech, capacity, analysis_cfg.local_hour(ts))
                index += 1


def generate(cfg: ScenarioConfig) -> Tuple[List[MeasurementRecord], GroundTruth]:
    """draw_records collected: every record in a list, and the ground truth with every label."""
    records, labels = [], []
    for record, label in draw_records(cfg):
        records.append(record)
        labels.append(label)
    return records, planted_truth(cfg)._replace(record_labels=tuple(labels))
