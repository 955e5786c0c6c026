"""Core domain types shared by every other module.

Throughput is kbit/s everywhere internally; timestamps are UTC epoch
milliseconds. Busy-hour bucketing applies a configurable UTC offset
(default +330 minutes, i.e. +5:30).
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import MISSING, dataclass, fields, is_dataclass
from datetime import datetime, timezone
from enum import Enum
from functools import lru_cache, partial
from typing import Callable, Optional, Tuple, get_args, get_origin, get_type_hints

SIGNAL_DBM_MIN = -140.0  # physical range; ingest warns outside it
SIGNAL_DBM_MAX = -20.0
# Ingest rejects values beyond these, which keeps the reports' arithmetic finite.
SIGNAL_DBM_LIMIT = 1000.0
SIGNAL_BIN_MIN_DBM = 0.1
MAX_THROUGHPUT_KBPS = 10_000_000  # 10 Gbit/s

# Real UTC offsets run from UTC-12:00 to UTC+14:00.
UTC_OFFSET_MIN_MINUTES = -720
UTC_OFFSET_MAX_MINUTES = 840
# Timestamps end a day before the last date datetime can hold, so that a
# timestamp shifted by any allowed UTC offset is still a valid datetime.
TIMESTAMP_END_MS = int(datetime(9999, 12, 31, tzinfo=timezone.utc).timestamp()) * 1000


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


class Scenario(Enum):
    STATIONARY_24H = "stationary24h"
    COMMUTE = "commute"


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
_CHECKED = (str, int, float, bool)  # the kinds check_field_types checks; from_json takes them as they are
_Plan = namedtuple("_Plan", "names required kinds converts")


def _optional(tp):
    """(X, True) for Optional[X], else (tp, False)."""
    return (get_args(tp)[0], True) if type(None) in get_args(tp) else (tp, False)


def _converter(tp, name: str) -> Optional[Callable]:
    """convert(value) from JSON to the type tp of the field name; None if a value is taken as it is."""
    tp, optional = _optional(tp)
    if isinstance(tp, type) and issubclass(tp, Enum):
        members = {member.value: member for member in tp}
        def convert(value):
            try:
                return members[value]
            except (KeyError, TypeError):  # TypeError: a list or an object, which no member equals
                raise ValueError(f"unknown {name} {value!r}") from None
    elif is_dataclass(tp):
        convert = partial(from_json, tp)
    elif get_origin(tp) is tuple:  # Tuple[X, ...], or exactly Tuple[X, Y]
        items = [_converter(a, name) for a in get_args(tp) if a is not Ellipsis]
        size = None if Ellipsis in get_args(tp) else len(items)
        def convert(value):
            if type(value) is not list or size not in (None, len(value)):
                raise ValueError(f"{name} must be a list" + (f" of {size} values" if size else ""))
            if not any(items):
                return tuple(value)
            return tuple(c(v) if c else v for c, v in zip(items * (size or len(value)), value))
    else:
        return None
    return (lambda value: None if value is None else convert(value)) if optional else convert


@lru_cache(maxsize=None)
def _plan(cls) -> Optional[_Plan]:
    """What to_json, from_json and check_field_types know of a dataclass type (None for any other),
    from annotations resolved once. names and required (no default) map names to None in declaration
    order; kinds holds (name, kind, optional) per _CHECKED field, converts (name, convert) per other."""
    if not is_dataclass(cls):
        return None
    fs, hints = fields(cls), get_type_hints(cls)
    return _Plan(names={f.name: None for f in fs},
                 required={f.name: None for f in fs if f.default is MISSING and f.default_factory is MISSING},
                 kinds=tuple((f.name, kind, optional) for f in fs
                             for kind, optional in [_optional(hints[f.name])] if kind in _CHECKED),
                 converts=tuple((f.name, c) for f in fs if (c := _converter(hints[f.name], f.name))))


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
    plan = _plan(type(obj))
    if plan is not None:
        return {name: v if type(v) in _PLAIN else to_json(v)
                for name in plan.names for v in (getattr(obj, name),)}
    return obj


def from_json(cls, obj):
    """to_json's inverse: the dataclass cls from obj, a parsed JSON object. Enum, dataclass, Tuple and
    Optional fields convert by annotation; a fault in obj or in cls.__post_init__ raises ValueError."""
    if type(obj) is not dict:
        raise ValueError(f"{cls.__name__} must be a JSON object")
    names, required, _, converts = _plan(cls)
    if not obj.keys() <= names.keys():
        raise ValueError(f"unknown field {next(n for n in obj if n not in names)!r}")
    if not required.keys() <= obj.keys():
        raise ValueError(f"missing required field '{next(n for n in required if n not in obj)}'")
    obj = dict(obj)
    for name, convert in converts:
        if name in obj:
            obj[name] = convert(obj[name])
    return cls(**obj)


# Bounds on finite numbers, ints included: an int beyond them has no float
# value, and math.isfinite() raises OverflowError on it.
_FLOAT_MAX = sys.float_info.max


def _is_real_type(kind) -> bool:
    """int or float or a subclass of either, except bool."""
    return issubclass(kind, (int, float)) and not issubclass(kind, bool)


_REAL_TYPES = frozenset({int, float})


def check_field_types(obj) -> None:
    """Raise ValueError for a field of the dataclass obj whose value does
    not match its int, float, bool or str annotation, or Optional[] of
    one of them. Floats must be finite and text must be encodable as UTF-8."""
    for name, kind, optional in _plan(type(obj)).kinds:
        value = getattr(obj, name)
        if value is None and optional:
            continue
        if kind is str:
            if not isinstance(value, str):
                raise ValueError(f"{name} must be a string")
            if not value.isascii():
                try:
                    value.encode("utf-8")
                except UnicodeEncodeError:  # a lone surrogate, which no UTF-8 file can hold
                    raise ValueError(f"{name} must be UTF-8 text") from None
        elif kind is float:
            if type(value) not in _REAL_TYPES and not _is_real_type(type(value)):
                raise ValueError(f"{name} must be a number")
            if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
                raise ValueError(f"{name} must be finite")
        elif kind is bool:
            if type(value) is not bool:
                raise ValueError(f"{name} must be true or false")
        # type() rather than isinstance() keeps out bool, an int subclass
        elif type(value) is not int:
            raise ValueError(f"{name} must be an integer")


def is_finite_number(value) -> bool:
    """True for an int or a float, not a bool, within the float range."""
    return (type(value) in _REAL_TYPES or _is_real_type(type(value))) and -_FLOAT_MAX <= value <= _FLOAT_MAX


def check_signal(name: str, dbm: Optional[float]) -> None:
    """Raise ValueError unless dbm is None or within ±SIGNAL_DBM_LIMIT."""
    if dbm is not None and not -SIGNAL_DBM_LIMIT <= dbm <= SIGNAL_DBM_LIMIT:
        raise ValueError(f"{name} must be within -{SIGNAL_DBM_LIMIT:g}..{SIGNAL_DBM_LIMIT:g} dBm")


def check_utc_offset(minutes: int) -> None:
    if not UTC_OFFSET_MIN_MINUTES <= minutes <= UTC_OFFSET_MAX_MINUTES:
        raise ValueError(f"utc_offset_minutes must be within "
                         f"{UTC_OFFSET_MIN_MINUTES}..{UTC_OFFSET_MAX_MINUTES}")


@dataclass(frozen=True, slots=True)
class SampleSeries:
    """Intra-measurement throughput samples taken at a fixed interval."""

    interval_ms: int
    values: Tuple[float, ...]

    def __post_init__(self):
        check_field_types(self)
        # one type() per value, in C; the per-type test runs once per
        # distinct type, and not at all for plain int and float
        kinds = set(map(type, self.values))
        if not kinds <= _REAL_TYPES and not all(map(_is_real_type, kinds)):
            raise ValueError("sample values must be numbers")
        try:
            object.__setattr__(self, "values", tuple(map(float, self.values)))
        except OverflowError:
            raise ValueError("non-finite or negative sample value") from None
        if self.interval_ms <= 0:
            raise ValueError("sample interval must be positive")
        if len(self.values) < 2:
            raise ValueError("sample series needs at least 2 values")
        top = float(MAX_THROUGHPUT_KBPS)  # float against float is the fast compare
        if not all(0.0 <= v <= top for v in self.values):
            if all(0.0 <= v < math.inf for v in self.values):
                raise ValueError(f"sample values must be at most {MAX_THROUGHPUT_KBPS} kbps")
            raise ValueError("non-finite or negative sample value")

    def mean(self) -> float:
        return math.fsum(self.values) / len(self.values)


@dataclass(frozen=True, slots=True)
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
        check_field_types(self)
        if self.timestamp <= 0:
            raise ValueError("timestamp must be positive")
        if self.timestamp >= TIMESTAMP_END_MS:
            raise ValueError("timestamp must be before 9999-12-31 UTC")
        if self.download_kbps < 0 or self.upload_kbps < 0:
            raise ValueError("negative throughput")
        if self.download_kbps > MAX_THROUGHPUT_KBPS:
            raise ValueError(f"download_kbps must be at most {MAX_THROUGHPUT_KBPS} kbps")
        if self.upload_kbps > MAX_THROUGHPUT_KBPS:
            raise ValueError(f"upload_kbps must be at most {MAX_THROUGHPUT_KBPS} kbps")
        if self.latency_ms is not None and self.latency_ms < 0:
            raise ValueError("negative latency")
        check_signal("signal_dbm", self.signal_dbm)
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
            if not all(0 < v < math.inf for v in caps.values()):
                raise ValueError("capability caps must be finite and positive")
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
        check_field_types(self)
        check_utc_offset(self.utc_offset_minutes)
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
        # at most 100 001 bins up to MAX_THROUGHPUT_KBPS
        if self.histogram_bin_kbps < MAX_THROUGHPUT_KBPS / 100_000:
            raise ValueError(f"histogram_bin_kbps must be at least {MAX_THROUGHPUT_KBPS // 100_000}")
        # at most 20 001 bins over -SIGNAL_DBM_LIMIT..SIGNAL_DBM_LIMIT
        if self.signal_bin_dbm < SIGNAL_BIN_MIN_DBM:
            raise ValueError(f"signal_bin_dbm must be at least {SIGNAL_BIN_MIN_DBM:g}")
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
