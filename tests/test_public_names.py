"""Every public function and method in src has a caller in src.

A name counts as called when some src module mentions it, as a name or as
an attribute, outside its own def (names are matched by spelling alone, so
this errs towards keeping).  The package's exports and the names the
benchmark's tracer patches are the library's outside surface and exempt."""

import ast
from collections import Counter
from pathlib import Path

import dpdecomp
from test_tracer_names import _tracer

SRC = Path(__file__).resolve().parent.parent / "src" / "dpdecomp"


def _mentions(node: ast.AST) -> Counter:
    """Names, and attributes keyed ".attr" (a method is only ever reached
    as an attribute, so a local variable of the same spelling is no call)."""
    return Counter(n.id if isinstance(n, ast.Name) else "." + n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _public_defs(tree: ast.Module):
    """(qualified name, def node, the mentions that call it) of each public
    top-level function and each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item, ["." + item.name]
        elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, [node.name, "." + node.name]


def test_every_public_name_has_a_src_caller():
    tracer = _tracer()
    exempt = ({f"{mod}.{name}" for mod, name in tracer.FUNCTIONS}
              | {f"{mod}.{cls}.{meth}" for mod, cls, meth in tracer.METHODS})
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    mentions = sum((_mentions(tree) for tree in trees.values()), Counter())
    uncalled = []
    for mod, tree in trees.items():
        for qualname, node, calls in _public_defs(tree):
            if qualname in dpdecomp.__all__ or f"{mod}.{qualname}" in exempt:
                continue
            own = _mentions(node)
            if all(mentions[c] == own[c] for c in calls):
                uncalled.append(f"{mod}.{qualname}")
    assert uncalled == [], f"public names no src code calls: {uncalled}"
