"""Core domain types shared by every other module.

Throughput is kbit/s everywhere internally; timestamps are UTC epoch
milliseconds. Busy-hour bucketing applies a configurable UTC offset
(default +330 minutes, i.e. +5:30).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from typing import Optional, Tuple

SIGNAL_DBM_MIN = -140.0
SIGNAL_DBM_MAX = -20.0


class RadioTechnology(Enum):
    GPRS = "GPRS"
    EDGE = "EDGE"
    UMTS = "UMTS"
    HSPA = "HSPA"
    HSPA_PLUS = "HSPA_PLUS"
    LTE = "LTE"
    WLAN = "WLAN"
    UNKNOWN = "UNKNOWN"


class TechnologyGroup(Enum):
    G2 = "2G"
    G3 = "3G"
    G4 = "4G"
    WLAN = "WLAN"


# Ordering over cellular generations; WLAN is deliberately unranked so it
# never participates in downgrade/camping comparisons.
GROUP_RANK = {
    TechnologyGroup.G2: 2,
    TechnologyGroup.G3: 3,
    TechnologyGroup.G4: 4,
}

_TECH_TO_GROUP = {
    RadioTechnology.GPRS: TechnologyGroup.G2,
    RadioTechnology.EDGE: TechnologyGroup.G2,
    RadioTechnology.UMTS: TechnologyGroup.G3,
    RadioTechnology.HSPA: TechnologyGroup.G3,
    RadioTechnology.HSPA_PLUS: TechnologyGroup.G3,
    RadioTechnology.LTE: TechnologyGroup.G4,
    RadioTechnology.WLAN: TechnologyGroup.WLAN,
}


def group_of(technology: RadioTechnology) -> Optional[TechnologyGroup]:
    """Fixed technology-to-generation mapping; None only for UNKNOWN."""
    return _TECH_TO_GROUP.get(technology)


def is_downgrade(from_tech: RadioTechnology, to_tech: RadioTechnology) -> bool:
    """True when to_tech is a lower cellular generation than from_tech."""
    from_rank = GROUP_RANK.get(group_of(from_tech))
    to_rank = GROUP_RANK.get(group_of(to_tech))
    if from_rank is None or to_rank is None:
        return False
    return to_rank < from_rank


_PLAIN = frozenset({str, int, float, bool, type(None)})


def to_json(obj):
    """JSON-ready copy of a dataclass, NamedTuple, Enum, tuple, list or dict.

    Dataclasses and NamedTuples become objects keyed by field name, enums
    their value, tuples arrays, and dict keys strings, so that sort_keys
    orders them as text. Plain scalars pass through without a call each;
    enums are tested before dataclasses because the analyze loop encodes
    mostly enums and scalars.
    """
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (tuple, list)):
        values = [v if type(v) in _PLAIN else to_json(v) for v in obj]
        names = getattr(obj, "_fields", None)
        return values if names is None else dict(zip(names, values))
    if isinstance(obj, dict):
        return {str(k): v if type(v) in _PLAIN else to_json(v) for k, v in obj.items()}
    if is_dataclass(obj):
        return {f.name: v if type(v) in _PLAIN else to_json(v)
                for f in fields(obj) for v in (getattr(obj, f.name),)}
    return obj


@dataclass(frozen=True)
class SampleSeries:
    """Intra-measurement throughput samples taken at a fixed interval."""

    interval_ms: int
    values: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if self.interval_ms <= 0:
            raise ValueError("sample interval must be positive")
        if len(self.values) < 2:
            raise ValueError("sample series needs at least 2 values")
        if not all(0.0 <= v < math.inf for v in self.values):
            raise ValueError("non-finite or negative sample value")

    def mean(self) -> float:
        return math.fsum(self.values) / len(self.values)


# MeasurementRecord fields checked by type at construction, so that a bad
# trace line is rejected at ingest rather than crashing a later stage.
_TEXT_FIELDS = ("record_id", "user_id", "manufacturer", "model", "os_name", "os_version",
                "network_operator", "subscriber_operator")
_OPTIONAL_TEXT_FIELDS = ("cell_id", "ip_address", "region_tag", "plan_id")
_OPTIONAL_REAL_FIELDS = ("latitude", "longitude", "signal_dbm")


@dataclass(frozen=True)
class MeasurementRecord:
    """One crowd-sourced measurement with its full parameter set."""

    record_id: str
    user_id: str
    timestamp: int  # Unix epoch milliseconds, UTC
    download_kbps: float
    upload_kbps: float
    manufacturer: str
    model: str
    os_name: str
    os_version: str
    network_operator: str
    subscriber_operator: str
    technology: RadioTechnology
    latitude: Optional[float] = None
    longitude: Optional[float] = None
    latency_ms: Optional[float] = None
    signal_dbm: Optional[float] = None
    cell_id: Optional[str] = None
    ip_address: Optional[str] = None
    transport_port: Optional[int] = None
    samples: Optional[SampleSeries] = None
    region_tag: Optional[str] = None
    plan_id: Optional[str] = None

    def __post_init__(self):
        for name in _TEXT_FIELDS:
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string")
        for name in _OPTIONAL_TEXT_FIELDS:
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"{name} must be a string")
        for name in _OPTIONAL_REAL_FIELDS:
            value = getattr(self, name)
            if value is not None and not -math.inf < value < math.inf:
                raise ValueError(f"{name} must be finite")
        # type(...) is int rejects bool, which is an int subclass
        if type(self.timestamp) is not int or self.timestamp <= 0:
            raise ValueError("timestamp must be a positive integer")
        if self.transport_port is not None and type(self.transport_port) is not int:
            raise ValueError("transport_port must be an integer")
        if not (0 <= self.download_kbps < math.inf and 0 <= self.upload_kbps < math.inf):
            raise ValueError("non-finite or negative throughput")
        if self.latency_ms is not None and not 0 <= self.latency_ms < math.inf:
            raise ValueError("non-finite or negative latency")
        if self.samples is not None:
            m = self.samples.mean()
            if m == 0:
                if self.download_kbps != 0:
                    raise ValueError("headline throughput inconsistent with samples")
            elif abs(self.download_kbps - m) > 0.01 * m:
                raise ValueError("headline throughput inconsistent with samples")

    def signal_in_range(self) -> bool:
        """Physical plausibility check; violations warn at ingest, never fail."""
        if self.signal_dbm is None:
            return True
        return SIGNAL_DBM_MIN <= self.signal_dbm <= SIGNAL_DBM_MAX


@dataclass(frozen=True)
class CapabilityCatalog:
    """Theoretical upper bounds for the artificial limiting factors."""

    device_caps: dict  # (manufacturer, model, RadioTechnology) -> kbps
    tech_caps: dict  # RadioTechnology -> kbps
    plan_caps: dict  # (subscriber_operator, plan_id) -> kbps

    def __post_init__(self):
        for caps in (self.device_caps, self.tech_caps, self.plan_caps):
            if any(v <= 0 for v in caps.values()):
                raise ValueError("capability caps must be positive")
        for (_, _, tech), cap in self.device_caps.items():
            tech_cap = self.tech_caps.get(tech)
            if tech_cap is not None and cap > tech_cap:
                raise ValueError(
                    f"device cap {cap} exceeds {tech.value} standard cap {tech_cap}"
                )

    @classmethod
    def empty(cls) -> "CapabilityCatalog":
        return cls(device_caps={}, tech_caps={}, plan_caps={})


@dataclass(frozen=True)
class AnalysisConfig:
    """All analysis tunables with their defaults."""

    smoothing_half_width: int = 2  # 5-sample centered neighborhood
    spike_factor: float = 2.0
    window_size: int = 10
    rad_stability_max: float = 0.10
    mape_low_max: float = 10.0  # percent
    mape_medium_max: float = 25.0  # percent
    slow_start_min_excluded: int = 1
    slow_start_activation_fraction: float = 0.5
    attribution_alpha: float = 0.8
    handover_max_gap_ms: int = 120_000
    busy_hour_start: int = 7  # inclusive, local hours
    busy_hour_end: int = 17  # inclusive
    histogram_bin_kbps: float = 500.0
    signal_bin_dbm: float = 5.0
    utc_offset_minutes: int = 330  # +5:30 local time

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # f.type is the annotation's text; comparing type() rather than
            # using isinstance() keeps bool, an int subclass, out of both kinds
            if f.type == "int" and type(value) is not int:
                raise ValueError(f"{f.name} must be an integer")
            if f.type == "float" and (type(value) not in (int, float) or not math.isfinite(value)):
                raise ValueError(f"{f.name} must be a finite number")
        if self.window_size < 2:
            raise ValueError("window_size must be at least 2")
        if not (0 < self.mape_low_max < self.mape_medium_max):
            raise ValueError("require 0 < mape_low_max < mape_medium_max")
        if not (0 < self.attribution_alpha <= 1):
            raise ValueError("attribution_alpha must be in (0, 1]")
        if not (0 < self.slow_start_activation_fraction <= 1):
            raise ValueError("slow_start_activation_fraction must be in (0, 1]")
        if self.smoothing_half_width < 1:
            raise ValueError("smoothing_half_width must be at least 1")
        if self.spike_factor <= 1:
            raise ValueError("spike_factor must exceed 1")
        if self.rad_stability_max < 0:
            raise ValueError("rad_stability_max must not be negative")
        if self.slow_start_min_excluded < 0:
            raise ValueError("slow_start_min_excluded must not be negative")
        if self.handover_max_gap_ms < 0:
            raise ValueError("handover_max_gap_ms must not be negative")
        if self.histogram_bin_kbps <= 0 or self.signal_bin_dbm <= 0:
            raise ValueError("histogram_bin_kbps and signal_bin_dbm must be positive")
        if not (0 <= self.busy_hour_start <= 23 and 0 <= self.busy_hour_end <= 23):
            raise ValueError("busy hours must be within 0-23")

    def local_ms(self, timestamp_ms: int) -> int:
        """The timestamp shifted by the configured UTC offset, in ms."""
        return timestamp_ms + self.utc_offset_minutes * 60_000

    def local_hour(self, timestamp_ms: int) -> int:
        return (self.local_ms(timestamp_ms) // 3_600_000) % 24

    def is_busy_hour(self, hour: int) -> bool:
        if self.busy_hour_start <= self.busy_hour_end:
            return self.busy_hour_start <= hour <= self.busy_hour_end
        return hour >= self.busy_hour_start or hour <= self.busy_hour_end
