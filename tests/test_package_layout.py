"""The package's module structure: ``crashloc`` imports itself without cycles,
each name a module imports but never uses is one that ``bench/tracer.py``
wraps there, and the standard-library modules it imports are the pinned set."""
from __future__ import annotations

import ast

from conftest import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "crashloc"

# Imported only so that bench/tracer.py can wrap them under these names.
TRACER_ONLY_IMPORTS = {
    "evaluation": {"vectorize", "locate_category_a", "locate_category_b", "locate_category_c",
                   "predict", "train_nb"},
    "localizer": {"links", "crash_similarity"},
}

# The standard-library modules the package imports. A cold ``crashloc`` command
# loads each of them, so adding one is a visible edit here.
STDLIB_IMPORTS = {
    "__future__", "argparse", "collections", "contextlib", "dataclasses", "enum", "functools",
    "itertools", "json", "logging", "math", "operator", "os", "pathlib", "re", "sys", "typing",
}


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


def _unused_imports(path) -> set[str]:
    """The names that ``path`` binds by an import and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_only_the_tracer_targets_are_imported_unused():
    unused = {path.stem: _unused_imports(path)
              for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}
    assert {module: names for module, names in unused.items() if names} == TRACER_ONLY_IMPORTS


def test_each_tracer_only_import_is_a_tracer_target():
    tree = ast.parse((REPO_ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    [targets] = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]]
    traced = {dotted for names in targets.values() for dotted in names}
    for module, names in TRACER_ONLY_IMPORTS.items():
        for name in names:
            assert f"crashloc.{module}.{name}" in traced


def test_standard_library_imports_are_the_pinned_set():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    assert found == STDLIB_IMPORTS
