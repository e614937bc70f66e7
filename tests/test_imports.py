"""The package's import graph: acyclic, and the oracle independent of the
checker, so disagreement between the two remains evidence of a bug."""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ocasync"


def import_graph() -> dict[str, set[str]]:
    """Module name -> the package modules it imports, at any depth in its
    source (function bodies and ``TYPE_CHECKING`` blocks included)."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        edges = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                if node.level == 1 and node.module is None:  # from . import a, b
                    names = [alias.name for alias in node.names]
                elif node.level == 1:  # from .a import x
                    names = [node.module.split(".")[0]]
                elif node.module and node.module.split(".")[0] == "ocasync":
                    names = node.module.split(".")[1:2]
                else:
                    names = []
            elif isinstance(node, ast.Import):
                names = [alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("ocasync.")]
            else:
                continue
            edges.update(name for name in names if name in modules)
        graph[path.stem] = edges
    return graph


def reachable(graph: dict[str, set[str]], start: str) -> set[str]:
    seen, todo = set(), [start]
    while todo:
        for nxt in graph[todo.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def test_the_graph_sees_every_module_and_a_known_edge():
    graph = import_graph()
    assert {"cli", "errors", "mc", "oracle", "periodicity"} <= set(graph)
    assert "oracle" in graph["mc"] and "bignum" in graph["errors"]


def test_no_module_reaches_itself():
    graph = import_graph()
    cycles = sorted(name for name in graph if name in reachable(graph, name))
    assert not cycles, cycles


def test_the_oracle_reaches_neither_the_checker_nor_the_cli():
    assert not {"mc", "cli"} & reachable(import_graph(), "oracle")


def unused_imports(path: Path) -> list[str]:
    """The names ``path`` imports (``from __future__`` aside) that its
    source never reads, at any depth."""
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_every_imported_name_is_used():
    unused = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py" and (names := unused_imports(path))}
    assert not unused, unused


ROOT = PACKAGE.parents[1]


def identifiers_read(tree: ast.AST):
    """(line, name) for every name ``tree`` reads: a bare name, an
    attribute, or an imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias):
            yield node.lineno, node.name.split(".")[-1]


def package_definitions():
    """(path, name, first line, last line) for each module-level function
    and class of the package, and each of their methods but dunders."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            yield path, node.name, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (item.name.startswith("__") and item.name.endswith("__"))):
                        yield path, item.name, item.lineno, item.end_lineno


def test_every_definition_is_used():
    # a definition counts as used when the package, the tests, the demos,
    # the benchmark harness or the console script reads its name anywhere
    # outside the definition's own lines
    reads: dict[str, list[tuple[Path, int]]] = {}
    sources = [PACKAGE, ROOT / "tests", ROOT / "demos", ROOT / "perfbench"]
    for path in sorted(p for d in sources for p in d.rglob("*.py")):
        for line, name in identifiers_read(ast.parse(path.read_text(), str(path))):
            reads.setdefault(name, []).append((path, line))
    scripts = re.findall(r"[\w.]+:(\w+)", (ROOT / "pyproject.toml").read_text())
    dead = [f"{path.name}:{first} {name}"
            for path, name, first, last in package_definitions()
            if name not in scripts
            and not any(p != path or not first <= line <= last
                        for p, line in reads.get(name, ()))]
    assert not dead, dead
