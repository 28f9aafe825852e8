"""src states every theorem check as a raise of TheoremViolation, never as
an assert: python -O drops asserts, and an AssertionError reaches the CLI
as an internal error with an empty message instead of exiting 3."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dpdecomp"


def test_src_has_no_assert_statement():
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == [], f"assert statements in src: {found}"
