"""The generic JSON codec that model compiles one of per dataclass: the reference its decode, check and
encode must agree with. Each walks a dataclass's fields at run time, from annotations resolved once."""

import math
import sys
from array import array
from collections import namedtuple
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from functools import lru_cache, partial
from typing import Optional, get_args, get_origin, get_type_hints

from mobitrace.model import Range

_PLAIN = frozenset({str, int, float, bool, type(None)})
_CHECKED = (str, int, float)
_FLOAT_MAX = sys.float_info.max
_REAL_TYPES = frozenset({int, float})
_Plan = namedtuple("_Plan", "names required kinds converts")


def _optional(tp):
    return (get_args(tp)[0], True) if type(None) in get_args(tp) else (tp, False)


def _is_real_type(kind) -> bool:
    return issubclass(kind, (int, float)) and not issubclass(kind, bool)


def _converter(tp, name: str):
    """convert(value) from JSON to the type tp of the field name; None if a value is taken as it is."""
    tp, optional = _optional(tp)
    if isinstance(tp, type) and issubclass(tp, Enum):
        members = {member.value: member for member in tp}

        def convert(value):
            try:
                return members[value]
            except (KeyError, TypeError):
                raise ValueError(f"unknown {name} {value!r}") from None
    elif is_dataclass(tp):
        convert = partial(from_json, tp)
    elif tp is array:  # the class packs the list itself

        def convert(value):
            if type(value) is not list:
                raise ValueError(f"{name} must be a list")
            return value
    elif get_origin(tp) is tuple:  # Tuple[X, ...], or exactly Tuple[X, Y]
        items = [_converter(a, name) for a in get_args(tp) if a is not Ellipsis]
        size = None if Ellipsis in get_args(tp) else len(items)

        def convert(value):
            if type(value) is not list or size not in (None, len(value)):
                raise ValueError(f"{name} must be a list" + (f" of {size} values" if size else ""))
            return tuple(c(v) if c else v for c, v in zip(items * (size or len(value)), value))
    else:
        return None
    return (lambda value: None if value is None else convert(value)) if optional else convert


def _bounds(name: str, kind, rng: Optional[Range]):
    """(lo, hi, open_ends, text): a number passes when lo <= it <= hi and it is no open end, else text
    is the fault. A float without a Range need only be finite; any other field without one has none."""
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
    """names maps each field, in declaration order, to whether its default is None; required maps the
    fields without a default to None; kinds holds (name, kind, optional, _bounds) per _CHECKED field,
    converts (name, convert) per other."""
    if not is_dataclass(cls):
        return None
    fs, hints, extras = fields(cls), get_type_hints(cls), get_type_hints(cls, include_extras=True)
    rng = {f.name: next((m for m in getattr(_optional(extras[f.name])[0], "__metadata__", ())
                         if isinstance(m, Range)), None) for f in fs}
    return _Plan(names={f.name: f.default is None for f in fs},
                 required={f.name: None for f in fs if f.default is MISSING},
                 kinds=tuple((f.name, kind, optional, _bounds(f.name, kind, rng[f.name]))
                             for f in fs for kind, optional in [_optional(hints[f.name])] if kind in _CHECKED),
                 converts=tuple((f.name, c) for f in fs if (c := _converter(hints[f.name], f.name))))


def to_json(obj):
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, array):
        return obj.tolist()
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
    """Built through cls(**fields), so cls.__post_init__ runs as it does for direct construction."""
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


def check_field_types(obj) -> None:
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
                except UnicodeEncodeError:
                    raise ValueError(f"{name} must be UTF-8 text") from None
        elif kind is float:
            if type(value) not in _REAL_TYPES and not _is_real_type(type(value)):
                raise ValueError(f"{name} must be a number")
            lo, hi, open_ends, text = bounds
            if not lo <= value <= hi or value in open_ends:
                raise ValueError(text if -_FLOAT_MAX <= value <= _FLOAT_MAX else f"{name} must be finite")
        elif type(value) is not int:
            raise ValueError(f"{name} must be an integer")
        elif bounds is not None:
            lo, hi, open_ends, text = bounds
            if not lo <= value <= hi or value in open_ends:
                raise ValueError(text)
