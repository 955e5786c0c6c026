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
from typing import Annotated, Callable, NamedTuple, Optional, Tuple, get_args, get_origin, get_type_hints

SIGNAL_DBM_MIN = -140.0  # physical range; ingest warns outside it
SIGNAL_DBM_MAX = -20.0
# Ingest rejects values beyond these, which keeps the reports' arithmetic finite.
SIGNAL_DBM_LIMIT = 1000
MAX_THROUGHPUT_KBPS = 10_000_000  # 10 Gbit/s

# Real UTC offsets run from UTC-12:00 to UTC+14:00.
UTC_OFFSET_MIN_MINUTES = -720
UTC_OFFSET_MAX_MINUTES = 840
# Timestamps end a day before the last date datetime can hold, so that a
# timestamp shifted by any allowed UTC offset is still a valid datetime.
TIMESTAMP_END_MS = int(datetime(9999, 12, 31, tzinfo=timezone.utc).timestamp()) * 1000


class Range(NamedTuple):
    """The bounds of an int or float field, declared in its annotation as
    Annotated[int, Range(2)] or Annotated[float, Range(above=0, at_most=1)].
    check_field_types enforces them, and a fault names them in words, as
    "window_size must be at least 2"."""

    at_least: Optional[float] = None
    at_most: Optional[float] = None
    above: Optional[float] = None
    below: Optional[float] = None


Kbps = Annotated[float, Range(0, MAX_THROUGHPUT_KBPS)]
Dbm = Annotated[float, Range(-SIGNAL_DBM_LIMIT, SIGNAL_DBM_LIMIT)]
Hour = Annotated[int, Range(0, 23)]
UtcOffset = Annotated[int, Range(UTC_OFFSET_MIN_MINUTES, UTC_OFFSET_MAX_MINUTES)]


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


class Pool(Enum):
    """Congestion pool that congestion.classify assigns a series by its MAPE."""

    LOW = "LOW"
    MEDIUM = "MEDIUM"
    HIGH = "HIGH"


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


def _range(tp) -> Optional[Range]:
    """The Range in the Annotated[] metadata of tp, or of X for tp Optional[X]; None without one."""
    return next((m for m in getattr(_optional(tp)[0], "__metadata__", ()) if isinstance(m, Range)), None)


def _bounds(name: str, kind, rng: Optional[Range]):
    """(lo, hi, open_ends, text) of a field for check_field_types: a number passes when lo <= it <= hi
    and it is no open end, else text is the fault. A float without a Range need only be finite; any
    other field without one has no bounds (None)."""
    if rng is None:
        return (-_FLOAT_MAX, _FLOAT_MAX, (), None) if kind is float else None
    edge = _FLOAT_MAX if kind is float else math.inf
    lo = next((b for b in (rng.at_least, rng.above) if b is not None), -edge)
    hi = next((b for b in (rng.at_most, rng.below) if b is not None), edge)
    open_ends = tuple(b for b in (rng.above, rng.below) if b is not None)
    words = " and ".join(f"{word.replace('_', ' ')} {getattr(rng, word)}"
                         for word in ("at_least", "above", "at_most", "below") if getattr(rng, word) is not None)
    return lo, hi, open_ends, f"{name} must be {words}"


@lru_cache(maxsize=None)
def _plan(cls) -> Optional[_Plan]:
    """What to_json, from_json and check_field_types know of a dataclass type (None for any other),
    from annotations resolved once. names maps each name, in declaration order, to whether its
    default is None; required maps the names without a default to None. kinds holds (name, kind,
    optional, _bounds) per _CHECKED field, converts (name, convert) per other."""
    if not is_dataclass(cls):
        return None
    fs, hints, extras = fields(cls), get_type_hints(cls), get_type_hints(cls, include_extras=True)
    return _Plan(names={f.name: f.default is None for f in fs},
                 required={f.name: None for f in fs if f.default is MISSING and f.default_factory is MISSING},
                 kinds=tuple((f.name, kind, optional, _bounds(f.name, kind, _range(extras[f.name])))
                             for f in fs for kind, optional in [_optional(hints[f.name])] if kind in _CHECKED),
                 converts=tuple((f.name, c) for f in fs if (c := _converter(hints[f.name], f.name))))


def to_json(obj):
    """JSON-ready copy of a dataclass, NamedTuple, Enum, tuple, list or dict.

    Dataclasses and NamedTuples become objects keyed by field name, enums
    their value, tuples arrays, and dict keys strings, so that sort_keys
    orders them as text; a dataclass field that is None by default is left
    out while None, and from_json restores it. Plain scalars pass through
    without a call each; enums are tested before dataclasses because the
    analyze loop encodes mostly enums and scalars.
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
                for name, none_default in plan.names.items() for v in (getattr(obj, name),)
                if v is not None or not none_default}
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
    one of them, or lies outside the field's Range. Floats must be finite
    and text must be encodable as UTF-8."""
    for name, kind, optional, bounds in _plan(type(obj)).kinds:
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
            lo, hi, open_ends, text = bounds
            if not lo <= value <= hi or value in open_ends:
                raise ValueError(text if -_FLOAT_MAX <= value <= _FLOAT_MAX else f"{name} must be finite")
        elif kind is bool:
            if type(value) is not bool:
                raise ValueError(f"{name} must be true or false")
        # type() rather than isinstance() keeps out bool, an int subclass
        elif type(value) is not int:
            raise ValueError(f"{name} must be an integer")
        elif bounds is not None:
            lo, hi, open_ends, text = bounds
            if not lo <= value <= hi or value in open_ends:
                raise ValueError(text)


def mean(values) -> Optional[float]:
    """The mean of finite values, None for none. The sum is exact (math.fsum); a sum beyond the
    float range is taken again over each value divided first."""
    if not values:
        return None
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        return math.fsum(v / len(values) for v in values)


def is_finite_number(value) -> bool:
    """True for an int or a float, not a bool, within the float range."""
    return (type(value) in _REAL_TYPES or _is_real_type(type(value))) and -_FLOAT_MAX <= value <= _FLOAT_MAX


@dataclass(frozen=True, slots=True)
class SampleSeries:
    """Intra-measurement throughput samples taken at a fixed interval."""

    interval_ms: Annotated[int, Range(1)]
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
        if len(self.values) < 2:
            raise ValueError("sample series needs at least 2 values")
        top = float(MAX_THROUGHPUT_KBPS)  # float against float is the fast compare
        if not all(0.0 <= v <= top for v in self.values):
            if all(0.0 <= v < math.inf for v in self.values):
                raise ValueError(f"sample values must be at most {MAX_THROUGHPUT_KBPS} kbps")
            raise ValueError("non-finite or negative sample value")


@lru_cache(maxsize=None)
def _interned_fields(cls) -> Tuple[str, ...]:
    """The text fields of cls but the unique record_id: interned, so that repeats share one string."""
    return tuple(name for name, kind, _, _ in _plan(cls).kinds if kind is str and name != "record_id")


@dataclass(frozen=True, slots=True)
class MeasurementRecord:
    """One crowd-sourced measurement with its full parameter set."""

    record_id: str
    user_id: str
    timestamp: Annotated[int, Range(above=0, below=TIMESTAMP_END_MS)]  # Unix epoch milliseconds, UTC
    download_kbps: Kbps
    upload_kbps: Kbps
    manufacturer: str
    model: str
    os_name: str
    os_version: str
    network_operator: str
    subscriber_operator: str
    technology: RadioTechnology
    latitude: Optional[float] = None
    longitude: Optional[float] = None
    latency_ms: Optional[Annotated[float, Range(0)]] = None
    signal_dbm: Optional[Dbm] = None
    cell_id: Optional[str] = None
    ip_address: Optional[str] = None
    transport_port: Optional[int] = None
    samples: Optional[SampleSeries] = None
    region_tag: Optional[str] = None
    plan_id: Optional[str] = None

    def __post_init__(self):
        check_field_types(self)
        for name in _interned_fields(MeasurementRecord):
            if type(value := getattr(self, name)) is str:  # not None, nor a str subclass, which intern refuses
                object.__setattr__(self, name, sys.intern(value))
        if self.samples is not None:
            m = mean(self.samples.values)
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


def check_cap(cap) -> None:
    """Raise ValueError unless a capability cap is finite and positive."""
    if not 0 < cap < math.inf:  # also false for NaN
        raise ValueError("cap must be finite and positive")


def check_device_cap(cap, tech: RadioTechnology, tech_caps: dict) -> None:
    """Raise ValueError if a device cap exceeds the standard cap tech_caps holds for tech."""
    tech_cap = tech_caps.get(tech)
    if tech_cap is not None and cap > tech_cap:
        raise ValueError(f"device cap {cap:g} exceeds {tech.value} standard cap {tech_cap:g}")


@dataclass(frozen=True)
class CapabilityCatalog:
    """Theoretical upper bounds for the artificial limiting factors."""

    device_caps: dict  # (manufacturer, model, RadioTechnology) -> kbps
    tech_caps: dict  # RadioTechnology -> kbps
    plan_caps: dict  # (subscriber_operator, plan_id) -> kbps

    def __post_init__(self):
        for caps in (self.device_caps, self.tech_caps, self.plan_caps):
            for cap in caps.values():
                check_cap(cap)
        for (_, _, tech), cap in self.device_caps.items():
            check_device_cap(cap, tech, self.tech_caps)

    @classmethod
    def empty(cls) -> "CapabilityCatalog":
        return cls(device_caps={}, tech_caps={}, plan_caps={})


@dataclass(frozen=True)
class AnalysisConfig:
    """All analysis tunables with their defaults."""

    smoothing_half_width: Annotated[int, Range(1)] = 2  # 5-sample centered neighborhood
    spike_factor: Annotated[float, Range(above=1)] = 2.0
    window_size: Annotated[int, Range(2)] = 10
    rad_stability_max: Annotated[float, Range(0)] = 0.10
    mape_low_max: Annotated[float, Range(above=0)] = 10.0  # percent
    mape_medium_max: float = 25.0  # percent
    slow_start_min_excluded: Annotated[int, Range(0)] = 1
    slow_start_activation_fraction: Annotated[float, Range(above=0, at_most=1)] = 0.5
    attribution_alpha: Annotated[float, Range(above=0, at_most=1)] = 0.8
    handover_max_gap_ms: Annotated[int, Range(0)] = 120_000
    busy_hour_start: Hour = 7  # inclusive, local hours
    busy_hour_end: Hour = 17  # inclusive
    # at most 100 001 bins up to MAX_THROUGHPUT_KBPS
    histogram_bin_kbps: Annotated[float, Range(MAX_THROUGHPUT_KBPS // 100_000)] = 500.0
    # at most 20 001 bins over -SIGNAL_DBM_LIMIT..SIGNAL_DBM_LIMIT
    signal_bin_dbm: Annotated[float, Range(0.1)] = 5.0
    utc_offset_minutes: UtcOffset = 330  # +5:30 local time

    def __post_init__(self):
        check_field_types(self)
        if self.mape_low_max >= self.mape_medium_max:
            raise ValueError("mape_low_max must be below mape_medium_max")

    def local_ms(self, timestamp_ms: int) -> int:
        """The timestamp shifted by the configured UTC offset, in ms."""
        return timestamp_ms + self.utc_offset_minutes * 60_000

    def local_hour(self, timestamp_ms: int) -> int:
        return (self.local_ms(timestamp_ms) // 3_600_000) % 24

    def is_busy_hour(self, hour: int) -> bool:
        if self.busy_hour_start <= self.busy_hour_end:
            return self.busy_hour_start <= hour <= self.busy_hour_end
        return hour >= self.busy_hour_start or hour <= self.busy_hour_end
