"""Each number field's range is declared once, as a Range in its annotation,
and model.check_field_types is the one place that checks it: every declared
bound takes its edge value and rejects the first value past it with the one
text form, and no __post_init__ bounds a single field by hand."""

import ast
import importlib
import math
import pkgutil
from dataclasses import dataclass, fields, is_dataclass
from functools import partial
from pathlib import Path
from typing import Annotated, Union, get_args, get_origin, get_type_hints

import pytest

import mobitrace
from conftest import make_record
from mobitrace.coverage import HandoverEvent
from mobitrace.model import (AnalysisConfig, MeasurementRecord, RadioTechnology, Range, SampleSeries,
                             check_field_types, from_json)
from mobitrace.synth import Scenario, ScenarioConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "mobitrace"

# a valid instance of each dataclass that declares a Range, with one field overridden
MAKERS = {
    MeasurementRecord: make_record,
    SampleSeries: partial(SampleSeries, interval_ms=500, values=(1.0, 2.0)),
    HandoverEvent: partial(HandoverEvent, user_id="u", at_ms=1, from_cell="a", to_cell="b",
                           from_tech=RadioTechnology.LTE, to_tech=RadioTechnology.UMTS, from_kbps=1.0,
                           to_kbps=1.0, gap_ms=1),
    AnalysisConfig: AnalysisConfig,
    ScenarioConfig: partial(ScenarioConfig, seed=1, scenario=Scenario.STATIONARY_24H),
}


def declared_ranges():
    """(dataclass, field name, kind, Range) for every field of the package that declares a Range."""
    for info in pkgutil.iter_modules(mobitrace.__path__):
        module = importlib.import_module(f"mobitrace.{info.name}")
        for cls in vars(module).values():
            if not (isinstance(cls, type) and is_dataclass(cls) and cls.__module__ == module.__name__):
                continue
            hints = get_type_hints(cls, include_extras=True)
            for f in fields(cls):
                tp = hints[f.name]
                if get_origin(tp) is Union:  # Optional[Annotated[...]]
                    tp = get_args(tp)[0]
                for rng in getattr(tp, "__metadata__", ()):
                    if isinstance(rng, Range):
                        yield cls, f.name, get_args(tp)[0], rng


def expected_text(name: str, rng: Range) -> str:
    words = [("at least", rng.at_least), ("above", rng.above), ("at most", rng.at_most), ("below", rng.below)]
    return f"{name} must be " + " and ".join(f"{word} {bound}" for word, bound in words if bound is not None)


def step(kind, bound, direction):
    """The next value of kind from bound towards direction (+1 or -1)."""
    return bound + direction if kind is int else math.nextafter(bound, direction * math.inf)


def edge_cases():
    """(id, cls, name, accepted, rejected, text) per declared bound."""
    for cls, name, kind, rng in declared_ranges():
        text = expected_text(name, rng)
        ident = f"{cls.__name__}.{name}"
        if rng.at_least is not None:
            yield f"{ident}-at_least", cls, name, rng.at_least, step(kind, rng.at_least, -1), text
        if rng.above is not None:
            yield f"{ident}-above", cls, name, step(kind, rng.above, +1), rng.above, text
        if rng.at_most is not None:
            yield f"{ident}-at_most", cls, name, rng.at_most, step(kind, rng.at_most, +1), text
        if rng.below is not None:
            yield f"{ident}-below", cls, name, step(kind, rng.below, -1), rng.below, text


CASES = list(edge_cases())


def test_every_ranged_dataclass_has_a_maker():
    assert {cls for cls, *_ in declared_ranges()} == set(MAKERS)


@pytest.mark.parametrize("cls, name, accepted, rejected, text", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_declared_bound_is_the_edge(cls, name, accepted, rejected, text):
    assert getattr(MAKERS[cls](**{name: accepted}), name) == accepted
    with pytest.raises(ValueError) as fault:
        MAKERS[cls](**{name: rejected})
    assert str(fault.value) == text


@pytest.mark.parametrize("kind, rng", [(int, Range(0, above=5)), (float, Range(at_most=8, below=9)),
                                       (float, Range(1, 9, 2, 8))])
def test_two_bounds_on_one_side_refused_when_the_codec_is_built(kind, rng):
    # which of the two would bind is not for the checker to guess
    @dataclass
    class Bounded:
        value: Annotated[kind, rng]
        __post_init__ = check_field_types

    for build in (lambda: Bounded(3), lambda: from_json(Bounded, {"value": 3})):
        with pytest.raises(TypeError, match="^Bounded.value: a Range takes at most one bound a side$"):
            build()


# ---------------------------------------------------------------------------
# No __post_init__ compares a single field with a constant: that bound
# belongs in the field's annotation.

_ORDER = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _is_field(node) -> bool:
    return isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self"


def _is_constant(node) -> bool:
    """A literal, an upper-case name, or arithmetic on them."""
    if isinstance(node, ast.Name):
        return node.id.isupper()
    if isinstance(node, ast.UnaryOp):
        return _is_constant(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_constant(node.left) and _is_constant(node.right)
    return isinstance(node, ast.Constant)


def hand_written_bounds(path: Path):
    for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(function, ast.FunctionDef) and function.name == "__post_init__"):
            continue
        for node in ast.walk(function):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if any(isinstance(op, _ORDER) and (_is_field(left) and _is_constant(right)
                                               or _is_field(right) and _is_constant(left))
                   for left, op, right in zip(operands, node.ops, operands[1:])):
                yield f"{path.name}:{node.lineno}: {ast.unparse(node)}"


def test_no_post_init_bounds_a_field_by_hand():
    found = [line for path in sorted(SRC.glob("*.py")) for line in hand_written_bounds(path)]
    assert found == []
