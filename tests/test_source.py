"""Checks over the package source, read with ``ast``: one JSON decoder, one
module that opens files, one table that shares text, one module that tells
the two shapes of an index value apart, and no import that its module
leaves unused."""

from __future__ import annotations

import ast
import re
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


# What opens a file besides ``open``: members of modules that write one,
# methods of ``Path``, and the names by which ``facts`` reads one.
_OPENING = {("os", "open"), ("os", "replace"), ("os", "rename"), ("json", "dump")}
_OPENING_METHODS = {"write_text", "write_bytes", "read_text", "read_bytes"}
_READING_NAMES = {"_JSON_DECODER", "parse_json"}


def _opens(call: ast.Call) -> bool:
    """Whether ``call`` is the builtin ``open`` or a method ``open`` (as
    ``Path.open``), in any mode."""
    return (isinstance(call.func, ast.Name) and call.func.id == "open"
            or isinstance(call.func, ast.Attribute) and call.func.attr == "open" and not (
                isinstance(call.func.value, ast.Name) and call.func.value.id == "os"))


def _opens_files(tree: ast.Module) -> list[int]:
    """The lines of ``tree`` that open a file, read or write one through
    ``Path``, move one over another, dump JSON into one or name what
    ``facts`` reads one by."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _opens(node)
            or isinstance(node, ast.Attribute) and (
                node.attr in _OPENING_METHODS | _READING_NAMES
                or isinstance(node.value, ast.Name) and (node.value.id, node.attr) in _OPENING)
            or isinstance(node, ast.Name) and node.id in _READING_NAMES
            or isinstance(node, ast.ImportFrom) and any(
                (node.module, alias.name) in _OPENING or alias.name in _READING_NAMES
                for alias in node.names)]


def test_only_facts_opens_files():
    # every input file is opened, decoded and located by facts, and every
    # output file is written whole by facts.write_whole
    sources = _sources()
    found = {name: lines for name, source in sources.items()
             if name != "facts.py" and (lines := _opens_files(ast.parse(source)))}
    # the one exception: cli._output sends stdout to the null device once
    # its reader has gone away
    output = next(node for node in ast.parse(sources["cli.py"]).body
                  if isinstance(node, ast.FunctionDef) and node.name == "_output")
    devnull = [node.lineno for node in ast.walk(output)
               if isinstance(node, ast.Call) and ast.unparse(node.func) == "os.open"
               and ast.unparse(node.args[0]) == "os.devnull"]
    assert found == {"cli.py": devnull} and devnull, found


# The names of ``sys.intern`` that code may bind, and a call of it in the
# text of generated code.
_INTERN_NAMES = {"intern", "_intern"}
_INTERN_TEXT = re.compile(r"\b_intern\b|\bintern\(")


def _names_intern(tree: ast.Module) -> list[int]:
    """The lines of ``tree`` that name ``intern``: as an attribute
    (``sys.intern``), a bound name, an imported one, or in a string of
    generated code."""
    return [node.lineno for node in ast.walk(tree)
            if any(getattr(node, field, None) in _INTERN_NAMES
                   for field in ("attr", "id", "arg", "name", "asname"))
            or isinstance(node, ast.Constant) and isinstance(node.value, str)
            and (node.value in _INTERN_NAMES or _INTERN_TEXT.search(node.value))]


def test_only_the_column_kinds_share_text():
    # each fact builder shares a text value through its column kind's load,
    # so that no caller shares one first
    sources = _sources()
    found = {name: lines for name, source in sources.items()
             if (lines := _names_intern(ast.parse(source)))}
    kinds = next(node for node in ast.parse(sources["facts.py"]).body
                 if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["_KINDS"])
    assert list(found) == ["facts.py"], found
    assert found["facts.py"] and all(kinds.lineno <= line <= kinds.end_lineno
                                     for line in found["facts.py"]), found


# A comparison of a value's class with ``tuple`` in the text of generated code.
_CLASS_IS_TUPLE = re.compile(r"__class__ is (not )?tuple\b")


def _tests_class_is_tuple(tree: ast.Module) -> list[int]:
    """The lines of ``tree`` that compare a value's ``__class__`` with
    ``tuple``, in code or in a string of generated code."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Compare) and isinstance(node.left, ast.Attribute)
            and node.left.attr == "__class__"
            and any(isinstance(c, ast.Name) and c.id == "tuple" for c in node.comparators)
            or isinstance(node, ast.Constant) and isinstance(node.value, str)
            and _CLASS_IS_TUPLE.search(node.value)]


def test_only_facts_tells_the_two_shapes_of_an_index_value_apart():
    # an index maps a key to its one item or to the tuple of its items;
    # other modules read it through facts.group and facts.shared
    sources = _sources()
    found = {name: lines for name, source in sources.items()
             if name != "facts.py" and (lines := _tests_class_is_tuple(ast.parse(source)))}
    # the one exception: the probe text that the generated rule bodies
    # inline, where a call to facts.group would add a frame to every probe
    probe = [node.lineno for node in ast.parse(sources["rules.py"]).body
             if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["_GROUP"]]
    assert found == {"rules.py": probe} and probe


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
