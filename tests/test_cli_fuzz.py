"""Mutated instance documents and regulator blocks through the CLI: every
run ends in bounded time with exit 0 or with exit 2 and a message about the
input.

Each document is a small valid instance with one or two random edits: an
integer moved by a small step, a value replaced (by a wrong type, a huge or
negative number, a malformed rational, an empty container) or turned into a
string, a key dropped or added, a list entry repeated or appended, or a
value wrapped in a list.  The edits are seeded, so a failure names a
reproducible document.
"""

import copy
import json
import random
import signal

import pytest

from dpdecomp import cli

SEEDS = range(150)
COMMANDS = (["solve"], ["solve", "--json", "--argmin"], ["check", "--json"], ["decompose"])
LQR_COMMANDS = (["lqr"], ["lqr", "--json"])
# words of Python's and numpy's own error messages, which no refusal of an
# input should show
INTERNALS = ("NoneType", "object of type", "has no attribute", "index out of range",
             "not subscriptable", "not iterable", "unhashable", "unsupported operand",
             "takes no arguments", "missing 1 required", "Traceback", "inhomogeneous",
             "gufunc")
VALUES = (None, True, False, 0, 1, -1, 2, 7, 2**70, -(2**70), 1.5, "", "x", "1/0", "-1/2",
          "3/4", "1e5", [], {}, [[]], [0, 1], [[1, 0], [0, 1]], {"T": 2}, {"alpha": "1/2"})


def base_documents():
    worked = {
        "schema_version": "1.0", "field": {"prime": 3}, "dims": {"n": 3, "m": 2},
        "A": [[1, 1, 0], [0, 2, 0], [0, 0, 1]], "B": [[1, 0], [1, 1], [0, 1]],
        "decomposition": [[[1], [0], [0]], [[1], [1], [0]], [[0], [0], [1]]],
        "cost": {"separable": {"tables": [[0, 0, 0], [0, 1, 1], [0, 0, 0]]},
                 "allow_vanishing": True},
        "horizon": {"finite": {"T": 1}}}
    axis = {"field": {"prime": 3}, "dims": {"n": 2, "m": 1}, "A": [[1, 0], [0, 2]],
            "B": [[1], [1]], "decomposition": [[[1], [0]], [[0], [1]]],
            "cost": {"separable": {"tables": [[0, 1, 2], [0, "1/2", 3]]}},
            "horizon": {"discounted": {"alpha": "1/2"}}}
    table = {"field": {"prime": 2}, "dims": {"n": 2, "m": 1}, "A": [[1, 0], [0, 0]],
             "B": [[1], [0]], "cost": {"table": [0, 1, 2, "3/2"]},
             "horizon": {"finite": {"T": 2}}}
    indicator = {"field": {"prime": 2}, "dims": {"n": 2, "m": 2}, "A": [[0, 1], [1, 0]],
                 "B": [[1, 0], [0, 1]], "decomposition": [[[1], [1]], [[1], [0]]],
                 "cost": {"indicator": {"weights": [1, 2]}},
                 "horizon": {"discounted": {"alpha": "2/3"}}}
    return [worked, axis, table, indicator]


def lqr_block():
    return {"A": [[0.5, 0.0], [0.0, -0.25]], "B": [[1.0, 0.0], [0.0, 1.0]],
            "P": [[1.0, 0.0], [0.0, 2.0]], "T": 6, "tol": 1e-9,
            "parts": [[[1.0], [0.0]], [[0.0], [1.0]]], "x0": [1.0, -1.0]}


def _slots(node):
    """Every (container, key) pair in a JSON tree."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in list(keys):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


def mutate(doc, rng):
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 2)):
        container, key = rng.choice(list(_slots(doc)))
        value, edit = container[key], rng.randrange(8)
        if edit >= 6 and type(value) is int:  # often still a valid document
            container[key] = value + rng.choice((-1, 1, 2))
        elif edit == 1:
            del container[key]
        elif edit == 2:
            container[key] = [value]
        elif edit == 3 and isinstance(container, list):
            container.insert(key, copy.deepcopy(value))
        elif edit == 4 and isinstance(container, list):
            container.append(copy.deepcopy(rng.choice(VALUES)))
        elif edit == 5:
            container[key] = str(value)
        else:
            container[key] = copy.deepcopy(rng.choice(VALUES))
        if isinstance(container, dict) and rng.random() < 0.2:
            container["extra"] = rng.choice(VALUES)
    return doc


class _Timeout(BaseException):
    """Raised by the alarm; a BaseException, so the CLI's handlers let it by."""


def _alarm(signum, frame):
    raise _Timeout


def _run_all(path, capsys, documents, commands):
    """Each document through each command under a 5 s alarm: exit 0 or 2,
    and no Python or numpy internals in the error text."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for doc in documents:
            path.write_text(json.dumps(doc))
            for argv in commands:
                signal.alarm(5)
                try:
                    rc = cli.main([argv[0], str(path), *argv[1:]])
                except _Timeout:
                    pytest.fail(f"{argv} ran past 5 s on {json.dumps(doc)}")
                finally:
                    signal.alarm(0)
                err = capsys.readouterr().err
                assert rc in (0, 2), (argv, doc, err)
                assert not any(word in err for word in INTERNALS), (argv, doc, err)
    finally:
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("doc_index", range(4))
def test_mutated_documents_exit_0_or_2(tmp_path, capsys, doc_index):
    doc = base_documents()[doc_index]
    _run_all(tmp_path / "mutated.json", capsys,
             (mutate(doc, random.Random(1000 * doc_index + seed)) for seed in SEEDS), COMMANDS)


def test_mutated_lqr_blocks_exit_0_or_2(tmp_path, capsys):
    """The edits land inside the lqr block: mutating the whole document
    could drop its only key and leave no slot for a second edit."""
    block = lqr_block()
    _run_all(tmp_path / "lqr.json", capsys,
             ({"lqr": mutate(block, random.Random(9000 + seed))} for seed in range(2 * len(SEEDS))),
             LQR_COMMANDS)
