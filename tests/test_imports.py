"""The package's import graph: acyclic, and the oracle independent of the
checker, so disagreement between the two remains evidence of a bug."""

import ast
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
