"""The package's module structure: ``crashloc`` imports itself without cycles."""
from __future__ import annotations

import ast

from conftest import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "crashloc"


def _relative_imports(path) -> set[str]:
    """The sibling modules that ``path`` imports, wherever the import stands
    (under ``if TYPE_CHECKING:`` or inside a function too)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_package_import_graph_is_acyclic():
    graph = {path.stem: _relative_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert "corpus" in graph and graph["corpus"]
    done: set[str] = set()

    def visit(module: str, path: list[str]) -> None:
        if module in path:
            cycle = path[path.index(module):] + [module]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if module in done:
            return
        for imported in sorted(graph.get(module, ())):
            visit(imported, path + [module])
        done.add(module)

    for module in graph:
        visit(module, [])
