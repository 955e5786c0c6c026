"""Every dataclass of the package is built through its own __init__ and written by plain assignment:
no module declares a frozen dataclass, gets round one with object.__setattr__ or object.__new__, or
reads a slot's __set__."""

import ast
from pathlib import Path

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
