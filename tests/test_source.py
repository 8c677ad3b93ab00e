"""Checks on the package source itself, read with the stdlib ``ast`` only."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "renewallab"


def private_definitions(tree):
    """``(name, node)`` of each private top-level function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def references(node) -> set:
    """Names that ``node`` reads, bare or as an attribute; an import is no read."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}


def test_every_private_top_level_name_is_read_in_the_package():
    # a helper whose last caller went is dead code; a read inside its own
    # definition (recursion) does not count
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    reads = [(node, references(node)) for tree in trees.values() for node in tree.body]
    orphans = [f"{file}:{node.lineno} {name}"
               for file, tree in trees.items()
               for name, node in private_definitions(tree)
               if not any(name in names for other, names in reads if other is not node)]
    assert orphans == []
