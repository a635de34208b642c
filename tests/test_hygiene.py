"""Source hygiene over src/, tests/ and scripts/, by an AST scan.

A name that a module imports at top level and never reads is dead weight:
it costs import time and tells the reader of a dependency that is not there.
Package ``__init__`` files re-export by design, and a name that another
scanned module imports from this one is in use there.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for part in ("src", "tests", "scripts") for path in (ROOT / part).rglob("*.py"))


def _module_name(path: Path) -> str:
    """The name a file is imported under: dotted below src/, the bare stem
    in tests/ and scripts/, whose folders are on sys.path when they run."""
    parts = path.relative_to(ROOT).with_suffix("").parts
    if parts[0] != "src":
        return parts[-1]
    return ".".join(parts[1:-1] if parts[-1] == "__init__" else parts[1:])


def _source(node: ast.ImportFrom, path: Path) -> str:
    """The absolute name of the module a `from ... import` reads."""
    if not node.level:
        return node.module
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package.pop()
    base = package[: len(package) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


def test_every_module_level_import_is_read():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in FILES}
    imported_from: set[tuple[str, str]] = set()  # (module, name) another module imports
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported_from.update((_source(node, path), a.name) for a in node.names)
    unused = []
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        module = _module_name(path)
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [
                f"{path.relative_to(ROOT)}:{node.lineno} {name}"
                for name in bound
                if name not in read and (module, name) not in imported_from
            ]
    assert not unused, "imported at top level and never read:\n" + "\n".join(unused)
