"""Core domain types shared by every other module.

Throughput is kbit/s everywhere internally; timestamps are UTC epoch
milliseconds. Busy-hour bucketing applies a configurable UTC offset
(default +330 minutes, i.e. +5:30).
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import namedtuple
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum
from functools import lru_cache
from operator import itemgetter
from typing import Annotated, List, NamedTuple, Optional, get_args, get_origin, get_type_hints

SIGNAL_DBM_MIN = -140.0  # physical range; ingest warns outside it
SIGNAL_DBM_MAX = -20.0
# Ingest rejects values beyond these, which keeps the reports' arithmetic finite.
SIGNAL_DBM_LIMIT = 1000
MAX_THROUGHPUT_KBPS = 10_000_000  # 10 Gbit/s

# Real UTC offsets run from UTC-12:00 to UTC+14:00.
UTC_OFFSET_MIN_MINUTES = -720
UTC_OFFSET_MAX_MINUTES = 840
# Timestamps end a day before the last date datetime can hold, so that a
# timestamp shifted by any allowed UTC offset still falls in a four-digit year.
TIMESTAMP_END_MS = 253_402_214_400_000  # 9999-12-31T00:00:00Z


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
_CHECKED = (str, int, float)  # the kinds check_field_types checks; from_json takes them as they are
_Codec = namedtuple("_Codec", "decode check encode")


def _optional(tp):
    """(X, True) for Optional[X], else (tp, False)."""
    return (get_args(tp)[0], True) if type(None) in get_args(tp) else (tp, False)


def _indent(lines: List[str]) -> List[str]:
    return ["    " + line for line in lines]


def _convert(tp, name: str, var: str, ns: dict) -> List[str]:
    """Source lines that turn the JSON value in the variable var into tp, the type of the field name, or
    raise ValueError; none for a value taken as it is. The constants they use go into ns."""
    tp, optional = _optional(tp)
    if isinstance(tp, type) and issubclass(tp, Enum):
        ns[f"_m_{var}"] = {member.value: member for member in tp}
        lines = [f"try: {var} = _m_{var}[{var}]",
                 # TypeError: a list or an object, which no member equals
                 f"except (KeyError, TypeError): raise ValueError({f'unknown {name} '!r} + repr({var})) from None"]
    elif is_dataclass(tp):
        ns[f"_d_{var}"] = _plan(tp).decode
        lines = [f"{var} = _d_{var}({var})"]
    elif tp is array:  # the list itself: the class packs it
        lines = [f"if type({var}) is not list: raise ValueError({f'{name} must be a list'!r})"]
    elif get_origin(tp) is tuple and Ellipsis in get_args(tp):  # Tuple[X, ...]
        item = _convert(get_args(tp)[0], name, f"{var}_i", ns)
        lines = [f"if type({var}) is not list: raise ValueError({f'{name} must be a list'!r})",
                 f"{var}_t = []", f"for {var}_i in {var}:", *_indent(item), f"    {var}_t.append({var}_i)",
                 f"{var} = tuple({var}_t)"]
    elif get_origin(tp) is tuple:  # exactly Tuple[X, Y]
        items = [f"{var}_{i}" for i in range(len(get_args(tp)))]
        lines = [f"if type({var}) is not list or len({var}) != {len(items)}:",
                 f"    raise ValueError({f'{name} must be a list of {len(items)} values'!r})",
                 f"{', '.join(items)}, = {var}",
                 *(line for item, a in zip(items, get_args(tp)) for line in _convert(a, name, item, ns)),
                 f"{var} = ({', '.join(items)},)"]
    else:
        return []
    return [f"if {var} is not None:", *_indent(lines)] if optional else lines


def _kind(hint):
    """(kind, optional, rng) of a field annotated hint: kind is X for Optional[X], without its Annotated[]
    metadata, and rng the Range in that metadata (None without one)."""
    kind, optional = _optional(hint)
    rng = next((m for m in getattr(kind, "__metadata__", ()) if isinstance(m, Range)), None)
    return get_args(kind)[0] if get_origin(kind) is Annotated else kind, optional, rng


def _decoder(cls, hints: dict, ns: dict) -> List[str]:
    """Source of decode(obj): the key checks, each conversion in declaration order, then a call of cls,
    whose __init__ assigns the fields and runs its __post_init__. A key fault names the first such key in
    obj, or the first such field in cls."""
    fs = fields(cls)
    required = tuple(f.name for f in fs if f.default is MISSING)
    ns.update(_cls=cls, _names=frozenset(f.name for f in fs), _required=frozenset(required))
    lines = [f"if type(obj) is not dict: raise ValueError({f'{cls.__name__} must be a JSON object'!r})",
             "if not obj.keys() <= _names:",
             "    raise ValueError('unknown field ' + repr(next(k for k in obj if k not in _names)))"]
    if required:  # for one name, itemgetter gives the value itself and the line is a plain assignment
        ns["_take"] = itemgetter(*required)
        first = f"next(k for k in {required} if k not in obj)"
        lines += ["if not obj.keys() >= _required:",
                  f"    raise ValueError('missing required field ' + repr({first}))",
                  f"{', '.join(f'v_{name}' for name in required)} = _take(obj)"]
    for f in fs:
        var = f"v_{f.name}"
        convert = _convert(hints[f.name], f.name, var, ns)
        if f.name in required:
            lines += convert
        elif convert:  # a default is not converted
            ns[f"_default_{f.name}"] = f.default
            lines += [f"if {f.name!r} in obj:", f"    {var} = obj[{f.name!r}]", *_indent(convert),
                      f"else: {var} = _default_{f.name}"]
        else:
            ns[f"_default_{f.name}"] = f.default
            lines.append(f"{var} = obj.get({f.name!r}{'' if f.default is None else f', _default_{f.name}'})")
    return ["def decode(obj):", *_indent([*lines, f"return _cls({', '.join(f'v_{f.name}' for f in fs)})"])]


def _checker(cls, hints: dict, ns: dict) -> List[str]:
    """Source of check(obj): for each _CHECKED field in declaration order, a test of each fault its value v
    can have, in the order they are reported, each raising its own text, worked out here once."""
    ns["_REAL_TYPES"], ns["_is_real_type"] = _REAL_TYPES, _is_real_type
    lines = []
    for f in fields(cls):
        kind, optional, rng = _kind(hints[f.name])
        if kind not in _CHECKED:
            continue
        must = f"{f.name} must be "
        if kind is str:  # of non-ASCII text, only a lone surrogate, which no UTF-8 file can hold, fails to encode
            checks = [f"if not isinstance(v, str): raise ValueError({must + 'a string'!r})",
                      "if not v.isascii():", "    try: v.encode('utf-8')",
                      f"    except UnicodeEncodeError: raise ValueError({must + 'UTF-8 text'!r}) from None"]
        elif kind is int:  # type() rather than isinstance() keeps out bool, an int subclass
            checks = [f"if type(v) is not int: raise ValueError({must + 'an integer'!r})"]
        else:
            checks = ["if type(v) not in _REAL_TYPES and not _is_real_type(type(v)):",
                      f"    raise ValueError({must + 'a number'!r})"]
        if rng or kind is float:
            rng = rng or Range()
            low = [f"{b!r} {op} v" for b, op in ((rng.at_least, "<="), (rng.above, "<")) if b is not None]
            high = [f"v {op} {b!r}" for b, op in ((rng.at_most, "<="), (rng.below, "<")) if b is not None]
            if len(low) > 1 or len(high) > 1:
                raise TypeError(f"{cls.__name__}.{f.name}: a Range takes at most one bound a side")
            words = [f"{word.replace('_', ' ')} {b}" for word in ("at_least", "above", "at_most", "below")
                     if (b := getattr(rng, word)) is not None]
            text = repr(must + " and ".join(words))
            if kind is float:  # a float must be finite: a side without a bound is held to the float range
                low, high = low or [f"{-_FLOAT_MAX!r} <= v"], high or [f"v <= {_FLOAT_MAX!r}"]
                finite = repr(must + "finite")
                text = f"{text} if {-_FLOAT_MAX!r} <= v <= {_FLOAT_MAX!r} else {finite}" if words else finite
            checks.append(f"if not ({' and '.join(low + high)}): raise ValueError({text})")
        lines += [f"v = obj.{f.name}", *(["if v is not None:", *_indent(checks)] if optional else checks)]
    return ["def check(obj):", *_indent(lines or ["pass"])]


def _encoder(cls, hints: dict, ns: dict) -> List[str]:
    """Source of encode(obj): a _CHECKED value as it is, an array as a list, any other through to_json,
    and a field that is None by default left out while None. Keys in declaration order."""
    ns["_to_json"] = to_json
    display, lines = [], []
    for f in fields(cls):
        kind = _kind(hints[f.name])[0]
        value = "{}" if kind in _CHECKED else "{}.tolist()" if kind is array else "_to_json({})"
        if f.default is None:
            lines.append(f"if (v := obj.{f.name}) is not None: d[{f.name!r}] = {value.format('v')}")
        elif lines:
            lines.append(f"d[{f.name!r}] = {value.format(f'obj.{f.name}')}")
        else:
            display.append(f"{f.name!r}: {value.format(f'obj.{f.name}')}")
    return ["def encode(obj):", *_indent([f"d = {{{', '.join(display)}}}", *lines, "return d"])]


@lru_cache(maxsize=None)
def _plan(cls) -> Optional[_Codec]:
    """The codec of a dataclass type (None for any other): decode, check and encode, compiled from its
    annotations the first time it is asked for, as dataclasses compiles __init__. decode is from_json
    for cls, check is check_field_types and encode is to_json."""
    if not is_dataclass(cls):
        return None
    hints, ns = get_type_hints(cls, include_extras=True), {}
    for build in (_decoder, _checker, _encoder):  # one at a time: the compiler's memory grows with the source
        exec(compile("\n".join(build(cls, hints, ns)), f"<{cls.__qualname__} codec>", "exec"), ns)
    return _Codec(ns["decode"], ns["check"], ns["encode"])


def to_json(obj):
    """JSON-ready copy of a dataclass, NamedTuple, Enum, tuple, list or dict.

    Dataclasses and NamedTuples become objects keyed by field name, enums
    their value, tuples arrays, and dict keys strings, so that sort_keys
    orders them as text; a dataclass field that is None by default is left
    out while None, and from_json restores it. Plain scalars pass through
    without a call each.
    """
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (tuple, list)):
        values = [v if type(v) in _PLAIN else to_json(v) for v in obj]
        names = getattr(obj, "_fields", None)
        return values if names is None else dict(zip(names, values))
    if isinstance(obj, dict):
        return {str(k): v if type(v) in _PLAIN else to_json(v) for k, v in obj.items()}
    codec = _plan(type(obj))
    return obj if codec is None else codec.encode(obj)


def from_json(cls, obj):
    """to_json's inverse: the dataclass cls from obj, a parsed JSON object. Enum, dataclass, Tuple and
    Optional fields convert by annotation, and an array field takes a list; a fault in obj or in
    cls.__post_init__ raises ValueError."""
    return _plan(cls).decode(obj)


# Bounds on finite numbers, ints included: an int beyond them has no float
# value, and math.isfinite() raises OverflowError on it.
_FLOAT_MAX = sys.float_info.max


def _is_real_type(kind) -> bool:
    """int or float or a subclass of either, except bool."""
    return issubclass(kind, (int, float)) and not issubclass(kind, bool)


_REAL_TYPES = frozenset({int, float})


def check_field_types(obj) -> None:
    """Raise ValueError for the first field of the dataclass obj, in declaration order, whose value does
    not match its int, float or str annotation, or Optional[] of one of them, or lies outside the
    field's Range. A str field takes a str subclass, and a float field an int, or a subclass of either
    but bool. Floats must be finite and text encodable as UTF-8. A fault names the bounds in words, as
    "window_size must be at least 2"."""
    _plan(type(obj)).check(obj)


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


@dataclass(slots=True)
class SampleSeries:
    """Intra-measurement throughput samples taken at a fixed interval."""

    interval_ms: Annotated[int, Range(1)]
    values: array  # of typecode 'd': 8 B a sample, packed from any sequence of numbers

    def __post_init__(self):
        check_field_types(self)
        # one type() per value, in C; the per-type test runs once per
        # distinct type, and not at all for plain int and float
        kinds = set(map(type, self.values))
        if not kinds <= _REAL_TYPES and not all(map(_is_real_type, kinds)):
            raise ValueError("sample values must be numbers")
        # array() packs a list's plain ints and floats in C, each as float() converts it; any other
        # sequence goes through float() (bytes, say, array() would read as raw doubles)
        given = self.values if type(self.values) is list and kinds <= _REAL_TYPES else map(float, self.values)
        try:
            self.values = array("d", given)
        except OverflowError:
            raise ValueError("non-finite or negative sample value") from None
        if len(self.values) < 2:
            raise ValueError("sample series needs at least 2 values")
        top = float(MAX_THROUGHPUT_KBPS)  # float against float is the fast compare
        if not all(0.0 <= v <= top for v in self.values):
            if all(0.0 <= v < math.inf for v in self.values):
                raise ValueError(f"sample values must be at most {MAX_THROUGHPUT_KBPS} kbps")
            raise ValueError("non-finite or negative sample value")


# MeasurementRecord's text fields but the unique record_id: interned, so that repeats share one string.
_INTERNED = ("user_id", "manufacturer", "model", "os_name", "os_version", "network_operator", "subscriber_operator",
             "cell_id", "ip_address", "region_tag", "plan_id")


@dataclass(slots=True)
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
        for name in _INTERNED:
            if type(value := getattr(self, name)) is str:  # not None, nor a str subclass, which intern refuses
                setattr(self, name, sys.intern(value))
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


class CapabilityCatalog(NamedTuple):
    """Theoretical upper bounds for the artificial limiting factors."""

    device_caps: dict  # (manufacturer, model, RadioTechnology) -> kbps
    tech_caps: dict  # RadioTechnology -> kbps
    plan_caps: dict  # (subscriber_operator, plan_id) -> kbps

    @classmethod
    def empty(cls) -> "CapabilityCatalog":
        return cls(device_caps={}, tech_caps={}, plan_caps={})


@dataclass
class AnalysisConfig:
    """All analysis tunables with their defaults."""

    smoothing_half_width: Annotated[int, Range(1, 5)] = 2  # 5-sample centered neighborhood
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
