"""Every dataclass of the package is built through its own __init__ and written by plain assignment:
no module declares a frozen dataclass, gets round one with object.__setattr__ or object.__new__, or
reads a slot's __set__. No field is a bool, which the generated codec does not check, or has a default
factory, which its decoder does not call."""

import ast
import pkgutil
from dataclasses import MISSING, fields, is_dataclass
from importlib import import_module
from pathlib import Path
from typing import Annotated, Union, get_args, get_origin, get_type_hints

import mobitrace

SRC = Path(__file__).resolve().parent.parent / "src" / "mobitrace"


def bypasses(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        where = f"{path.name}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Attribute):
            on_object = isinstance(node.value, ast.Name) and node.value.id == "object"
            if on_object and node.attr in ("__setattr__", "__new__"):
                yield f"{where}: object.{node.attr}"
            elif node.attr == "__set__":
                yield f"{where}: .__set__"
        elif isinstance(node, ast.keyword) and node.arg == "frozen":
            yield f"{where}: frozen="


def test_no_module_bypasses_init_or_assignment():
    found = [line for path in sorted(SRC.glob("*.py")) for line in bypasses(path)]
    assert found == []


def package_dataclasses():
    """Each dataclass that a module of the package defines."""
    for info in pkgutil.iter_modules(mobitrace.__path__):
        module = import_module(f"mobitrace.{info.name}")
        yield from (obj for obj in vars(module).values()
                    if isinstance(obj, type) and is_dataclass(obj) and obj.__module__ == module.__name__)


def bare(hint):
    """hint without the Optional[] and Annotated[] around it."""
    while True:
        if get_origin(hint) is Union:
            hint, = (arg for arg in get_args(hint) if arg is not type(None))
        elif get_origin(hint) is Annotated:
            hint = get_args(hint)[0]
        else:
            return hint


def test_no_field_is_a_bool_or_has_a_default_factory():
    # the codec checks str, int and float only, so a bool field would be decoded and encoded unchecked;
    # a field with a default factory would be required by the decoder
    classes = list(package_dataclasses())
    assert {"MeasurementRecord", "AnalysisConfig", "IngestReport", "HandoverEvent"} <= {c.__name__ for c in classes}
    found = [f"{cls.__name__}.{f.name}" for cls in classes
             for f in fields(cls) for hint in [get_type_hints(cls, include_extras=True)[f.name]]
             if bare(hint) is bool or f.default_factory is not MISSING]
    assert found == []
