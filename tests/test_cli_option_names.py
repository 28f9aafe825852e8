"""Every option the dpdecomp parser defines is exercised somewhere.

An option counts as exercised when its spelling appears as a string
literal in a test file or in perfbench/ops.py, which builds the
benchmark's CLI commands: the option-level twin of test_public_names.py.
argparse's own --help is exempt."""

import argparse
import ast
from pathlib import Path

from dpdecomp.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


def _options(parser: argparse.ArgumentParser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _options(sub)
        elif not isinstance(action, argparse._HelpAction):
            yield from action.option_strings


def _string_literals(path: Path) -> set[str]:
    return {node.value for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_every_cli_option_appears_in_a_test_or_the_benchmark():
    sources = [*sorted((ROOT / "tests").glob("*.py")), ROOT / "perfbench" / "ops.py"]
    literals = set().union(*map(_string_literals, sources))
    options = set(_options(build_parser()))
    assert "--json" in options
    assert sorted(options - literals) == []
