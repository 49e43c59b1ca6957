"""Every public definition in ``src/repro`` is reachable from the program.

The program is ``src/``, ``perfbench/`` and ``examples/``.  An AST scan
collects every public module-level function and class, and every public
method, in ``src/repro``; a definition counts as reached when its name
appears in one of those trees as a loaded name, an attribute, an
imported name or an identifier-valued string constant (``getattr`` and
the perfbench tracing sites look names up that way).  These do not
count:

* the package ``__init__`` re-exports (they name a definition, they do
  not use it);
* docstrings;
* a definition's references to itself from inside its own body;
* the tests, which may check code that the program no longer runs.

A definition only tests reach belongs in ``tests/oracles/`` (a reference
model) or nowhere.  The allowlist names each kept exception with the
reason the scan cannot see its caller.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
PROGRAM = (ROOT / "src", ROOT / "perfbench", ROOT / "examples")

#: name -> why the scan cannot see its caller
ALLOWED: Dict[str, str] = {
    # http.server.BaseHTTPRequestHandler dispatches on "do_" + method and
    # calls log_message itself.
    "do_GET": "stdlib HTTP handler hook, dispatched by request method",
    "do_POST": "stdlib HTTP handler hook, dispatched by request method",
    "log_message": "stdlib HTTP handler hook, called by the base handler",
    # The defeat map classifies bits in bulk; classify_bit is the one-bit
    # entry point tests hold the bulk pass to.
    "classify_bit": "one-bit test seam of LayoutAnalyzer's bulk pass",
}


def _python_files(root: Path) -> Iterator[Path]:
    yield from sorted(path for path in root.rglob("*.py")
                      if "__pycache__" not in path.parts)


def _is_docstring(node: ast.AST, parent: ast.AST) -> bool:
    body = getattr(parent, "body", None)
    return (isinstance(body, list) and bool(body) and body[0] is node
            and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


class _References(ast.NodeVisitor):
    """Names a module uses, minus a definition's uses of itself."""

    def __init__(self) -> None:
        self.names: Set[str] = set()
        self._enclosing: List[str] = []

    def _add(self, name: str) -> None:
        if name not in self._enclosing:
            self.names.add(name)

    def generic_visit(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if not _is_docstring(child, node):
                self.visit(child)

    def _visit_definition(self, node) -> None:
        self._enclosing.append(node.name)
        self.generic_visit(node)
        self._enclosing.pop()

    visit_FunctionDef = _visit_definition
    visit_AsyncFunctionDef = _visit_definition
    visit_ClassDef = _visit_definition

    def visit_Name(self, node: ast.Name) -> None:
        self._add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._add(node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            self._add(alias.name)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and node.value.isidentifier():
            self._add(node.value)


def program_references() -> Set[str]:
    names: Set[str] = set()
    for root in PROGRAM:
        for path in _python_files(root):
            if path.name == "__init__.py" and PACKAGE in path.parents:
                continue
            visitor = _References()
            visitor.visit(ast.parse(path.read_text(), str(path)))
            names |= visitor.names
    return names


def public_definitions() -> Iterator[Tuple[str, str, int]]:
    """(qualified name, leaf name, line count) of every public definition."""
    for path in _python_files(PACKAGE):
        module = ".".join(path.relative_to(PACKAGE.parent)
                          .with_suffix("").parts)
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield (f"{module}.{node.name}", node.name,
                   node.end_lineno - node.lineno + 1)
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if isinstance(member, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)) \
                        and not member.name.startswith("_"):
                    yield (f"{module}.{node.name}.{member.name}",
                           member.name,
                           member.end_lineno - member.lineno + 1)


def unreached() -> List[Tuple[str, int]]:
    used = program_references()
    return [(qualified, lines)
            for qualified, name, lines in public_definitions()
            if name not in used and name not in ALLOWED]


def test_every_public_definition_is_reached_from_the_program():
    missing = unreached()
    assert not missing, (
        "public definitions in src/repro that src/, perfbench/ and "
        "examples/ never reference (move reference models to "
        "tests/oracles/, delete the rest, or allowlist a hook with its "
        "reason):\n" + "\n".join(f"  {name} ({lines} lines)"
                                  for name, lines in missing))


def test_allowlist_names_only_defined_hooks():
    defined = {name for _qualified, name, _lines in public_definitions()}
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)
