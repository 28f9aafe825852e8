"""JSON instance documents: parsing, validation, round trips."""

import copy
import json
import random
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, strategies as st

from dpdecomp.dp import DiscountedHorizon, FiniteHorizon, state_index
from dpdecomp.errors import NotDirectSum
from dpdecomp import cli
from dpdecomp.instancefile import RATIONAL, load_instance, load_lqr_block, parse_rational
from test_cli_fuzz import base_documents, mutate

SCHEMA = Path(__file__).resolve().parent.parent / "docs" / "instance-schema.json"


def base_doc():
    return {
        "schema_version": "1.0",
        "field": {"prime": 3},
        "dims": {"n": 3, "m": 2},
        "A": [[1, 1, 0], [0, 2, 0], [0, 0, 1]],
        "B": [[1, 0], [1, 1], [0, 1]],
        "decomposition": [
            [[1], [0], [0]],
            [[1], [1], [0]],
            [[0], [0], [1]],
        ],
        "cost": {"separable": {"tables": [[0, 0, 0], [0, 1, 1], [0, 0, 0]]},
                 "allow_vanishing": True},
        "horizon": {"finite": {"T": 1}},
    }


# === rationals ===

def test_parse_rational_forms():
    assert parse_rational(7) == Fraction(7)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("7/3") == Fraction(7, 3)
    assert parse_rational("-2/5") == Fraction(-2, 5)
    for bad in (True, 1.5, "7/0", "a/b", None, [1], "0.5", "1e100000000", "1e-100000000",
                "7/3e5", " 7", "+7", "7_000", "7/-3", "7\n", "\u0663"):
        with pytest.raises(ValueError):
            parse_rational(bad)


@given(st.fractions(max_denominator=1000))
def test_rational_round_trip(q):
    assert parse_rational(str(q)) == q


# === instance documents ===

def test_load_worked_instance():
    loaded = load_instance(base_doc())
    inst = loaded.instance
    assert inst.field.p == 3 and inst.n == 3 and inst.m == 2
    assert inst.horizon == FiniteHorizon(1)
    assert not inst.cost.is_strict
    assert loaded.decomposition is not None
    assert loaded.decomposition.r == 3
    assert inst.cost.table[state_index((0, 1, 0), 3)] == Fraction(1)


def test_load_from_file(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(base_doc()))
    loaded = load_instance(json.loads(path.read_text()))
    assert loaded.instance.n == 3


def test_schema_version_checked():
    doc = base_doc()
    doc["schema_version"] = "2.0"
    with pytest.raises(ValueError, match="schema_version"):
        load_instance(doc)
    # omitting the version assumes the current one
    doc2 = base_doc()
    del doc2["schema_version"]
    load_instance(doc2)


def test_missing_and_malformed_sections():
    for mutate, message in [
        (lambda d: d.pop("field"), "field.prime"),
        (lambda d: d["field"].update(prime=4), "not prime"),
        (lambda d: d["field"].update(prime=True), "integer"),
        (lambda d: d.pop("dims"), "dims"),
        (lambda d: d["dims"].update(n=0), "at least 1"),
        (lambda d: d.pop("A"), "A must be"),
        (lambda d: d.update(A=[[1, 1], [0, 2]]), "A must be"),
        (lambda d: d.pop("cost"), "missing cost"),
        (lambda d: d.pop("horizon"), "missing horizon"),
        # inner blocks must be objects and tables lists, not scalars
        (lambda d: d.update(horizon={"finite": 5}), "horizon.finite must be an object"),
        (lambda d: d.update(horizon={"discounted": 5}), "horizon.discounted must be"),
        (lambda d: d.update(cost={"separable": 5}), "cost.separable must be an object"),
        (lambda d: d.update(cost={"indicator": [1, 1]}), "cost.indicator must be"),
        (lambda d: d["cost"]["separable"].update(tables=[[0, 1, 1], 7]), "per-part tables"),
        # decomposition entries go through the same matrix check as A and B
        (lambda d: d["decomposition"][0][0].__setitem__(0, "a"), "entries must be integers"),
        (lambda d: d["decomposition"][1][1].__setitem__(0, None), "entries must be integers"),
        (lambda d: d["decomposition"][2][2].__setitem__(0, 1.5), "entries must be integers"),
    ]:
        doc = base_doc()
        mutate(doc)
        with pytest.raises(ValueError, match=message):
            load_instance(doc)


def test_matrix_entries_reduced_mod_p():
    doc = base_doc()
    doc["A"][0][0] = 4  # 4 = 1 mod 3
    loaded = load_instance(doc)
    assert loaded.instance.A[0, 0] == 1
    doc["A"][0][0] = 1.5
    with pytest.raises(ValueError, match="integers"):
        load_instance(doc)


def test_horizon_forms():
    doc = base_doc()
    doc["horizon"] = {"discounted": {"alpha": "1/2"}}
    loaded = load_instance(doc)
    assert loaded.instance.horizon == DiscountedHorizon(Fraction(1, 2))
    for bad in ({"finite": {"T": 0}}, {"finite": {}}, {"weekly": {}},
                {"finite": {"T": 1}, "discounted": {"alpha": "1/2"}},
                {"discounted": {"alpha": "3/2"}}, "finite"):
        doc["horizon"] = bad
        with pytest.raises(ValueError):
            load_instance(doc)


def test_horizon_override_wins():
    doc = base_doc()
    del doc["horizon"]
    loaded = load_instance(doc, horizon_override=FiniteHorizon(3))
    assert loaded.instance.horizon == FiniteHorizon(3)
    loaded2 = load_instance(base_doc(), horizon_override=DiscountedHorizon(Fraction(1, 3)))
    assert loaded2.instance.horizon == DiscountedHorizon(Fraction(1, 3))


def test_decomposition_validation():
    doc = base_doc()
    doc["decomposition"] = doc["decomposition"][:1]
    with pytest.raises(ValueError, match="at least two"):
        load_instance(doc)
    doc = base_doc()
    doc["decomposition"][0] = [[1], [1]]
    with pytest.raises(ValueError, match="3x1 integer matrix"):
        load_instance(doc)
    doc = base_doc()
    doc["decomposition"][0] = [[1, 2], [1, 2], [0, 0]]
    with pytest.raises(ValueError, match="dependent"):
        load_instance(doc)


def zero_part_doc():
    """GF(2)^2 with A = I, B = e_1 and a first part with no basis columns:
    the trivial splitting, written as a splitting into two parts."""
    return {"schema_version": "1.0", "field": {"prime": 2}, "dims": {"n": 2, "m": 1},
            "A": [[1, 0], [0, 1]], "B": [[1], [0]],
            "decomposition": [[[], []], [[1, 0], [0, 1]]],
            "cost": {"table": ["0", "1", "1", "1"]}, "horizon": {"finite": {"T": 1}}}


def test_zero_dimensional_part_is_refused(tmp_path, capsys):
    """A part of dimension 0 is refused by the loader, naming the part, and
    by the schema; check exits 2 on it instead of reporting both
    decompositions as holding."""
    doc = zero_part_doc()
    with pytest.raises(NotDirectSum, match="part 0 has dimension 0"):
        load_instance(doc)
    validator = jsonschema.Draft202012Validator(json.loads(SCHEMA.read_text()))
    assert list(validator.iter_errors(doc))
    path = tmp_path / "zero-part.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: part 0 has dimension 0\n"
    doc["decomposition"] = [[[1, 0], [0, 1]], [[], []]]
    with pytest.raises(NotDirectSum, match="part 1 has dimension 0"):
        load_instance(doc)
    doc["decomposition"][1] = []  # no rows at all: the loader and the schema refuse it too
    with pytest.raises(ValueError, match="part 1 must be a matrix"):
        load_instance(doc)
    assert list(validator.iter_errors(doc))


def test_cost_kinds():
    # indicator with per-part weights
    doc = base_doc()
    doc["cost"] = {"indicator": {"weights": [0, 1, 0]}, "allow_vanishing": True}
    loaded = load_instance(doc)
    g = loaded.instance.cost.table
    assert g[state_index((0, 1, 0), 3)] == Fraction(1)
    assert g[state_index((1, 0, 0), 3)] == Fraction(0)
    # dense table, no decomposition required
    doc = base_doc()
    del doc["decomposition"]
    doc["cost"] = {"table": [0] + ["1/2"] * 26}
    loaded = load_instance(doc)
    assert loaded.instance.cost.table[state_index((1, 0, 0), 3)] == Fraction(1, 2)


def test_cost_requires_exactly_one_kind():
    doc = base_doc()
    doc["cost"] = {"table": [0] * 27, "indicator": {"weights": [1, 1, 1]}}
    with pytest.raises(ValueError, match="exactly one"):
        load_instance(doc)
    doc["cost"] = {}
    with pytest.raises(ValueError, match="exactly one"):
        load_instance(doc)


def test_part_costs_require_decomposition():
    doc = base_doc()
    del doc["decomposition"]
    with pytest.raises(ValueError, match="requires a decomposition"):
        load_instance(doc)
    doc["cost"] = {"indicator": {"weights": [1, 1, 1]}}
    with pytest.raises(ValueError, match="requires a decomposition"):
        load_instance(doc)


def test_strictness_policy_enforced():
    # a vanishing cost without the flag is rejected at load time
    doc = base_doc()
    doc["cost"] = {"separable": {"tables": [[0, 0, 0], [0, 1, 1], [0, 0, 0]]}}
    with pytest.raises(ValueError, match="allow_vanishing"):
        load_instance(doc)


def test_size_guards_apply():
    """The loader bounds no state space (the CLI checks read_header's
    dimensions first): 3^7 states load, above DPInstance's default guard."""
    doc = base_doc()
    doc["dims"] = {"n": 7, "m": 1}
    doc["A"] = [[1 if i == j else 0 for j in range(7)] for i in range(7)]
    doc["B"] = [[1]] + [[0]] * 6
    doc["cost"] = {"table": [0] + [1] * (3**7 - 1)}
    del doc["decomposition"]
    loaded = load_instance(doc)
    assert loaded.instance.num_states == 3**7


# === regulator documents ===

def test_load_lqr_block():
    data = {"lqr": {"A": [[0.5, 0.0], [0.0, -0.25]],
                    "B": [[1.0, 0.0], [0.0, 1.0]],
                    "P": [[1.0, 0.0], [0.0, 2.0]],
                    "T": 6,
                    "parts": [[[1.0], [0.0]], [[0.0], [1.0]]],
                    "x0": [1.0, -1.0]}}
    block = load_lqr_block(data)
    assert block["T"] == 6
    assert block["tol"] == pytest.approx(1e-9)
    assert len(block["parts"]) == 2
    assert block["x0"] == [1.0, -1.0]


def test_lqr_block_validation():
    with pytest.raises(ValueError, match='"lqr"'):
        load_lqr_block({"field": {"prime": 3}})
    base = {"A": [[1.0]], "B": [[1.0]], "P": [[1.0]], "T": 1}
    doc = {"lqr": dict(base, T=0)}
    with pytest.raises(ValueError, match="T must be"):
        load_lqr_block(doc)
    doc = {"lqr": dict(base, A=[1.0])}
    with pytest.raises(ValueError, match="matrix"):
        load_lqr_block(doc)
    doc = {"lqr": dict(base, parts="all")}
    with pytest.raises(ValueError, match="parts"):
        load_lqr_block(doc)


def _schema_rational_pattern():
    return json.loads(SCHEMA.read_text())["$defs"]["rational"]["oneOf"][1]["pattern"]


def test_schema_and_loader_share_the_rational_pattern():
    """The schema anchors the pattern that the loader full-matches."""
    assert _schema_rational_pattern() == f"^{RATIONAL.pattern}$"


@pytest.mark.parametrize("entry", ["1/0", "3/00"])
def test_zero_denominators_fail_the_schema_and_exit_2(tmp_path, capsys, entry):
    doc = base_doc()
    doc["cost"]["separable"]["tables"][1][1] = entry
    errors = list(jsonschema.Draft202012Validator(json.loads(SCHEMA.read_text()))
                  .iter_errors(doc))
    assert errors and all(entry in e.message for e in errors)
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["solve", str(path)]) == 2
    assert capsys.readouterr().err == f"error: not a rational: {entry!r}\n"


def test_every_loaded_document_satisfies_the_schema():
    """The schema cannot state n x n shapes or part counts, so it admits
    documents the loader refuses; the converse holds: whatever loads is
    schema-valid.  Checked on the fuzzer's base documents and 600 of their
    mutations each."""
    validator = jsonschema.Draft202012Validator(json.loads(SCHEMA.read_text()))
    loaded = 0
    for i, doc in enumerate(base_documents()):
        for mutated in [doc] + [mutate(doc, random.Random(1000 * i + s)) for s in range(600)]:
            try:
                load_instance(mutated)
            except (ValueError, ZeroDivisionError):
                continue
            loaded += 1
            assert not list(validator.iter_errors(mutated)), mutated
    assert loaded >= 100  # the bases and a share of their mutations
