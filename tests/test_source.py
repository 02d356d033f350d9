"""Checks over the package source, read with ``ast``: one JSON decoder, and
no import that its module leaves unused."""

from __future__ import annotations

import ast
from pathlib import Path

import bridgewatch

PACKAGE = Path(bridgewatch.__file__).parent

# What builds a JSON decoder or decodes JSON text in the json module.
_DECODING = {"JSONDecoder", "loads", "load"}


def _sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def _decodes_json(tree: ast.Module) -> list[int]:
    """The lines of ``tree`` that name a decoding member of ``json``, as
    ``json.loads`` or through ``from json import loads``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in _DECODING
            and isinstance(node.value, ast.Name) and node.value.id == "json"
            or isinstance(node, ast.ImportFrom) and node.module == "json"
            and any(alias.name in _DECODING for alias in node.names)]


def test_only_facts_decodes_json():
    # every input file is read by the one decoder of facts, with its checks
    # (a repeated key, a byte-order mark, an integer too long to convert)
    decoding = {name: lines for name, source in _sources().items()
                if (lines := _decodes_json(ast.parse(source)))}
    assert list(decoding) == ["facts.py"], decoding


def _unused_imports(source: str) -> list[str]:
    """The names that the module-level imports of ``source`` bind and that
    the module never reads, but for the names in ``__all__`` and those of
    an import marked ``# noqa``."""
    tree, lines = ast.parse(source), source.splitlines()
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa" not in lines[node.lineno - 1]:
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {name.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for name in node.value.elts}
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in read and name not in exported]


def test_no_module_imports_a_name_it_does_not_use():
    unused = {name: names for name, source in _sources().items()
              if (names := _unused_imports(source))}
    assert unused == {}
