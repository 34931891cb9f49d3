"""Dependencies point inward: ``core`` and ``dist`` never reach into
the serving layer (``core`` <- ``serve``/``dist``)."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _imported_modules(path: Path):
    """Absolute names of every module ``path`` imports, at any depth
    (function-local imports included)."""
    package = list(path.relative_to(SRC).parts[:-1])
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative: resolve against the package
                parts = package[: len(package) - node.level + 1]
                base = ".".join(parts + [node.module or ""]).rstrip(".")
            else:
                base = node.module
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("layer", ["core", "dist"])
def test_inner_layers_do_not_import_serve(layer):
    offenders = sorted(
        f"{path.relative_to(SRC)} imports {name}"
        for path in (SRC / "repro" / layer).rglob("*.py")
        for name in _imported_modules(path)
        if name == "repro.serve" or name.startswith("repro.serve.")
    )
    assert offenders == []
