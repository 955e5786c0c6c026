"""No module of the package imports another module's private names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mobitrace"


def private_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module:
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{path.name}:{node.lineno}: from .{node.module} import {alias.name}"


def test_no_private_name_imported_across_modules():
    found = [line for path in sorted(SRC.glob("*.py")) for line in private_imports(path)]
    assert found == []
