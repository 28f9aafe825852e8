"""Command-line interface: output shapes, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from dpdecomp import checks, cli, cosets, dp, errors
from dpdecomp.errors import TheoremViolation


def worked_doc():
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


@pytest.fixture
def worked_path(tmp_path):
    path = tmp_path / "worked.json"
    path.write_text(json.dumps(worked_doc()))
    return str(path)


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# === solve ===

def test_solve_text(worked_path, capsys):
    rc, out, err = run(capsys, "solve", worked_path, "--argmin")
    assert rc == 0 and err == ""
    assert "field GF(3), n=3, m=2, horizon T=1" in out
    assert "values at t=0:" in out
    # at (0,1,0) the charged coordinate maps to 2 + u1 + u2, so the argmin
    # inputs sum to 1 mod 3; sets print in input-index order
    assert "[0 1 0]  1  argmin {[1 0], [0 1], [2 2]}" in out


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("argv, name", [
    (["--all-t", "--argmin"], "solve-worked-finite-all-t-argmin.txt"),
    (["--horizon", "discounted", "--alpha", "1/2", "--argmin"],
     "solve-worked-discounted-argmin.txt"),
], ids=["finite", "discounted"])
def test_solve_text_is_pinned(worked_path, capsys, argv, name):
    """solve's whole text output on the worked example, byte for byte (the
    golden digests cover only --json)."""
    rc, out, err = run(capsys, "solve", worked_path, *argv)
    assert rc == 0 and err == ""
    assert out.encode() == (DATA / name).read_bytes()


def test_solve_json_frozen_values(worked_path, capsys):
    rc, out, _ = run(capsys, "solve", worked_path, "--json", "--all-t")
    assert rc == 0
    payload = json.loads(out)
    assert payload["horizon"] == {"finite": {"T": 1}}
    assert payload["states"][3] == [0, 1, 0]
    # the cost charges the skew line through (1,1,0): value = [x2 != 0]
    expected = ["1" if (i // 3) % 3 else "0" for i in range(27)]
    assert payload["values"]["0"] == expected
    assert payload["values"]["1"] == expected


def test_solve_discounted_json(worked_path, capsys):
    rc, out, _ = run(capsys, "solve", worked_path, "--horizon", "discounted",
                     "--alpha", "1/2", "--json", "--tol", "1/100")
    assert rc == 0
    payload = json.loads(out)
    assert payload["horizon"] == {"discounted": {"alpha": "1/2"}}
    expected = ["1" if (i // 3) % 3 else "0" for i in range(27)]
    assert payload["values"] == expected
    vi = payload["value_iteration"]
    assert vi["tolerance"] == "1/100"
    assert vi["error_bound"] == "1/100"  # alpha tol / (1 - alpha) at 1/2
    assert vi["iterations"] >= 1


def test_solve_determinism(worked_path, capsys):
    rc1, out1, _ = run(capsys, "solve", worked_path, "--json", "--argmin")
    rc2, out2, _ = run(capsys, "solve", worked_path, "--json", "--argmin")
    assert rc1 == rc2 == 0
    assert out1 == out2


@pytest.mark.parametrize("argv, times", [
    (["--T", "3"], []), (["--T", "3", "--argmin"], [0]),
    (["--T", "3", "--argmin", "--all-t"], [0, 1, 2]),
    (["--horizon", "discounted", "--alpha", "1/2"], []),
    (["--horizon", "discounted", "--alpha", "1/2", "--argmin"], [0]),
], ids=["finite", "finite-argmin", "finite-all-t-argmin", "discounted", "discounted-argmin"])
def test_solve_builds_only_the_argmin_rows_it_prints(worked_path, capsys, monkeypatch,
                                                     argv, times):
    """solve --json builds the minimizer-set row of each time it prints and
    no other: none without --argmin, time 0's alone without --all-t."""
    read, built = [], []
    table, argmin_sets = dp.ArgminTable.table, cosets.CosetFrame.argmin_sets
    monkeypatch.setattr(dp.ArgminTable, "table",
                        lambda self, t=0: read.append(t) or table(self, t))
    monkeypatch.setattr(cosets.CosetFrame, "argmin_sets",
                        lambda frame, Jk, mins: built.append(Jk) or argmin_sets(frame, Jk, mins))
    rc, out, _ = run(capsys, "solve", worked_path, "--json", *argv)
    assert rc == 0 and sorted(read) == times and len(built) == len(times)
    assert ("argmin" in json.loads(out)) == bool(times)


def test_horizon_override_flags(worked_path, capsys):
    rc, out, _ = run(capsys, "solve", worked_path, "--T", "2", "--json")
    assert rc == 0
    assert json.loads(out)["horizon"] == {"finite": {"T": 2}}
    rc, _, err = run(capsys, "solve", worked_path, "--horizon", "finite")
    assert rc == 2
    assert "--T" in err


@pytest.mark.parametrize("argv, flags", [
    (["--alpha", "2/3", "--T", "2"], ["--alpha", "--T"]),
    (["--horizon", "finite", "--alpha", "1/2"], ["--horizon finite", "--alpha"]),
    (["--horizon", "discounted", "--alpha", "1/2", "--T", "3"], ["--horizon discounted", "--T"]),
    (["--horizon", "discounted"], ["--horizon discounted needs --alpha"]),
], ids=["T-and-alpha", "finite-and-alpha", "discounted-and-T", "discounted-without-alpha"])
@pytest.mark.parametrize("command", ["solve", "check"])
def test_conflicting_horizon_flags_exit_2(worked_path, capsys, command, argv, flags):
    """A flag the chosen horizon cannot use is refused, not dropped, and so
    is a discounted horizon without its factor."""
    rc, out, err = run(capsys, command, worked_path, *argv)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and all(flag in err for flag in flags), err


@pytest.mark.parametrize("flag", ["--alpha", "--tol"])
def test_rational_flags_refuse_alike(worked_path, capsys, flag):
    rc, out, err = run(capsys, "solve", worked_path, "--horizon", "discounted",
                       "--alpha", "1/2", flag, "0.5")
    assert rc == 2 and out == ""
    assert err == "error: not a rational: '0.5'\n"


@pytest.mark.parametrize("tol", ["0", "-1"])
def test_non_positive_tol_exits_2_before_loading(tmp_path, worked_path, capsys, tol):
    """--tol is refused where it is parsed, whatever the horizon: before the
    instance file is read, and with a finite horizon, which never uses it."""
    rc, out, err = run(capsys, "solve", str(tmp_path / "missing.json"), "--tol", tol)
    assert (rc, out, err) == (2, "", f"error: --tol must be positive, got {tol}\n")
    rc, out, err = run(capsys, "solve", worked_path, "--horizon", "finite", "--T", "2",
                       "--tol", tol)
    assert (rc, out, err) == (2, "", f"error: --tol must be positive, got {tol}\n")


# === decompose ===

def test_decompose_text(worked_path, capsys):
    rc, out, _ = run(capsys, "decompose", worked_path)
    assert rc == 0
    assert "2 invariant parts" in out
    assert "factor coefficients (low to high) [1, 1] multiplicity 1" in out
    assert "factor coefficients (low to high) [2, 1] multiplicity 2" in out
    assert "basis [1 1 0]" in out


def test_decompose_json(worked_path, capsys):
    rc, out, _ = run(capsys, "decompose", worked_path, "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["decomposable"] is True
    assert [f["multiplicity"] for f in payload["factors"]] == [1, 2]
    assert [f["coefficients"] for f in payload["factors"]] == [[1, 1], [2, 1]]
    # parts are given as basis matrices, n rows each
    assert len(payload["parts"]) == 2
    assert len(payload["parts"][0]) == 3


def test_decompose_accepts_minimal_document(tmp_path, capsys):
    path = tmp_path / "min.json"
    path.write_text(json.dumps({"field": {"prime": 2}, "dims": {"n": 2, "m": 1},
                                "A": [[0, 1], [1, 1]]}))
    rc, out, _ = run(capsys, "decompose", str(path), "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload == {"decomposable": False, "factor": [1, 1, 1],
                       "multiplicity": 1}
    rc, out, _ = run(capsys, "decompose", str(path))
    assert rc == 0
    assert "no nontrivial invariant splitting" in out


# === check ===

def test_check_text_report(worked_path, capsys):
    rc, out, _ = run(capsys, "check", worked_path)
    assert rc == 0
    assert "additive_holds: holds" in out
    assert "minimizer_condition: holds" in out
    assert "componentwise_holds: fails" in out
    assert '"target": [0, 0, 1]' in out
    assert "note: decomposition taken from the instance file" in out


@pytest.mark.parametrize("argv", [[], ["--alpha", "1/2"], ["--family", "restricted"],
                                  ["--family", "projected"]],
                         ids=["finite", "discounted", "restricted", "projected"])
def test_check_text_is_pinned(worked_path, capsys, argv, request):
    """check's whole text report on the worked example, byte for byte,
    witness lines included (the golden digests cover only --json)."""
    rc, out, err = run(capsys, "check", worked_path, *argv)
    assert rc == 0 and err == ""
    name = f"check-worked-{request.node.callspec.id}.txt"
    assert out.encode() == (DATA / name).read_bytes()


def test_check_falls_back_to_primary_splitting(worked_path, tmp_path, capsys):
    doc = worked_doc()
    del doc["decomposition"]
    # cost separable across the primary parts <(1,1,0)> and <e1,e3>:
    # the components of (x1,x2,x3) are x2*(1,1,0) and (x1-x2, 0, x3)
    table = []
    for idx in range(27):
        x1, x2, x3 = idx % 3, (idx // 3) % 3, idx // 9
        table.append(int(x2 != 0) + int((x1 - x2) % 3 != 0 or x3 != 0))
    doc["cost"] = {"table": table}
    path = tmp_path / "nodecomp.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "check", str(path))
    assert rc == 0
    assert "note: decomposition computed from the dynamics" in out


def test_check_undecomposable_without_parts(tmp_path, capsys):
    doc = {"schema_version": "1.0", "field": {"prime": 2},
           "dims": {"n": 2, "m": 1}, "A": [[0, 1], [1, 1]], "B": [[1], [0]],
           "cost": {"table": [0, 1, 1, 1]}, "horizon": {"finite": {"T": 1}}}
    path = tmp_path / "irr.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "check", str(path))
    assert rc == 2
    assert "cannot check" in err


def test_check_json_and_witness_round_trip(worked_path, tmp_path, capsys):
    rc, out, _ = run(capsys, "check", worked_path, "--json")
    assert rc == 0
    report = json.loads(out)
    assert report["additive_holds"] is True
    assert report["componentwise_holds"] is False
    assert report["schema_version"] == "1.0"
    report_path = tmp_path / "report.json"
    report_path.write_text(out)
    rc, out2, _ = run(capsys, "check", worked_path,
                      "--verify-witness", str(report_path))
    assert rc == 0
    assert "witness componentwise_witness: confirmed" in out2


def test_check_witness_tampering_detected(worked_path, tmp_path, capsys):
    rc, out, _ = run(capsys, "check", worked_path, "--json")
    report = json.loads(out)
    report["componentwise_witness"]["target"] = [1, 0, 0]
    report_path = tmp_path / "tampered.json"
    report_path.write_text(json.dumps(report))
    rc, out2, _ = run(capsys, "check", worked_path,
                      "--verify-witness", str(report_path))
    assert rc == 2
    assert "witness componentwise_witness: FAILED" in out2


def _set_witness(key, value):
    return lambda report: report["componentwise_witness"].__setitem__(key, value)


def _drop_witness(key):
    return lambda report: report["componentwise_witness"].pop(key)


@pytest.mark.parametrize("tamper", [
    _set_witness("state", [0, 0, 1, 2]),      # longer than n
    _set_witness("state", [0, 0]),            # shorter than n, not zero-padded
    _set_witness("state", "ab"),
    _set_witness("state", [0, 0, 3]),         # digit outside [0, p)
    _set_witness("state", [0, 0, True]),
    _drop_witness("state"),
    _set_witness("t", 99),
    _set_witness("t", "0"),
    _set_witness("kind", "zzz"),
    _drop_witness("kind"),
    _set_witness("actions", [[0, 0], [0, 0]]),  # one per part is three
    _set_witness("actions", [[0, 0], [0, 0], [0, 5]]),
    _set_witness("target", [0, 1]),
    lambda report: report.pop("prime"),
    lambda report: report.__setitem__("n", 4),
    lambda report: report.__setitem__("componentwise_witness", [0, 0, 0]),
    lambda report: report.__setitem__("additive_witness", [0, 0, 0]),
], ids=["state-long", "state-short", "state-str", "state-digit", "state-bool",
        "state-missing", "t-range", "t-str", "kind-unknown", "kind-missing",
        "actions-count", "actions-digit", "target-short", "prime-missing",
        "n-mismatch", "witness-list", "additive-witness-list"])
def test_check_malformed_witness_report_is_invalid(worked_path, tmp_path, capsys, tamper):
    rc, out, _ = run(capsys, "check", worked_path, "--json")
    report = json.loads(out)
    tamper(report)
    report_path = tmp_path / "malformed.json"
    report_path.write_text(json.dumps(report))
    rc, _, err = run(capsys, "check", worked_path, "--verify-witness", str(report_path))
    assert rc == 2
    assert err.startswith("error:")


def test_witness_report_that_is_not_an_object_is_invalid(worked_path, tmp_path, capsys):
    rc, out, _ = run(capsys, "check", worked_path, "--json")
    report_path = tmp_path / "list.json"
    report_path.write_text(json.dumps([json.loads(out)]))
    rc, out, err = run(capsys, "check", worked_path, "--verify-witness", str(report_path))
    assert (rc, out, err) == (2, "", "error: a report must be a JSON object\n")


def test_check_determinism(worked_path, capsys):
    rc1, out1, _ = run(capsys, "check", worked_path, "--json")
    rc2, out2, _ = run(capsys, "check", worked_path, "--json")
    assert rc1 == rc2 == 0
    assert out1 == out2


# === lqr ===

def lqr_doc():
    return {"lqr": {"A": [[0.5, 0.0], [0.0, -0.25]],
                    "B": [[1.0, 0.0], [0.0, 1.0]],
                    "P": [[1.0, 0.0], [0.0, 2.0]],
                    "T": 6,
                    "parts": [[[1.0], [0.0]], [[0.0], [1.0]]],
                    "x0": [1.0, -1.0]}}


def test_lqr_json(tmp_path, capsys):
    path = tmp_path / "lqr.json"
    path.write_text(json.dumps(lqr_doc()))
    rc, out, _ = run(capsys, "lqr", str(path), "--json")
    assert rc == 0
    payload = json.loads(out)
    # B is the identity, so the correction cancels A'KA and K stays at P
    assert payload["K0"] == [[1.0, 0.0], [0.0, 2.0]]
    assert payload["predicted_cost"] == pytest.approx(3.0)
    assert payload["closed_loop_cost_successor_gains"] == pytest.approx(3.0)
    assert payload["closed_loop_cost_same_time_gains"] == pytest.approx(3.0)
    assert payload["block_diagonal"] is True


def test_lqr_text_without_parts(tmp_path, capsys):
    doc = lqr_doc()
    del doc["lqr"]["parts"]
    del doc["lqr"]["x0"]
    path = tmp_path / "lqr2.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "lqr", str(path))
    assert rc == 0
    assert "predicted cost x0'K0x0 = 3" in out  # default x0 is all ones
    assert "block-diagonal" not in out


@pytest.mark.parametrize("key, value, field", [
    ("A", [[{}, 0.0], [0.0, 1.0]], "lqr.A"),
    ("B", [[None, 0.0], [0.0, 1.0]], "lqr.B"),
    ("P", [[[1.0], 0.0], [0.0, 1.0]], "lqr.P"),
    ("P", [[10**400, 0.0], [0.0, 1.0]], "lqr.P"),
    ("x0", 5, "lqr.x0"),
    ("tol", [], "lqr.tol"),
    ("parts", [[1]], "lqr.parts"),
    ("A", [["0.5", 0.0], [0.0, 1.0]], "lqr.A"),
    ("B", [[True, 0.0], [0.0, 1.0]], "lqr.B"),
    ("P", [[float("nan"), 0.0], [0.0, 1.0]], "lqr.P"),
    ("x0", ["nan", 1], "lqr.x0"),
    ("x0", [float("inf"), 1], "lqr.x0"),
    ("parts", [[["inf"], [0.0]], [[0.0], [1.0]]], "lqr.parts"),
    ("tol", "inf", "lqr.tol"),
    ("tol", True, "lqr.tol"),
    ("tol", 0, "lqr.tol"),
    ("tol", -1e-9, "lqr.tol"),
    ("A", [[1.0, 2.0], [3.0]], "lqr.A"),
    ("parts", [[[1.0], [0.0, 2.0]], [[0.0], [1.0]]], "lqr.parts"),
    ("x0", [1.0], "lqr.x0"),
], ids=["entry-dict", "entry-null", "entry-list", "entry-huge", "x0-int", "tol-list",
        "parts-flat", "entry-string", "entry-bool", "entry-nan", "x0-nan-string",
        "x0-infinity", "parts-inf-string", "tol-inf-string", "tol-bool", "tol-zero",
        "tol-negative", "A-ragged", "parts-ragged", "x0-short"])
def test_lqr_malformed_numbers_are_invalid(tmp_path, capsys, key, value, field):
    doc = lqr_doc()
    doc["lqr"][key] = value
    path = tmp_path / "lqr.json"
    path.write_text(json.dumps(doc))
    for flags in ((), ("--json",)):
        rc, out, err = run(capsys, "lqr", str(path), *flags)
        assert rc == 2 and out == ""
        assert f"error: {field}" in err


# === exit codes and guards ===

def test_missing_file_is_invalid(tmp_path, capsys):
    rc, _, err = run(capsys, "solve", "/nonexistent/inst.json")
    assert rc == 2
    assert "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run(capsys, "solve", str(bad))
    assert rc == 2
    assert "not valid JSON" in err


@pytest.mark.parametrize("command", ["solve", "check", "decompose"])
def test_instance_document_that_is_not_an_object_is_invalid(tmp_path, capsys, command):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([worked_doc()]))
    rc, out, err = run(capsys, command, str(path))
    assert (rc, out, err) == (2, "", "error: instance document must be a JSON object\n")


def test_invalid_cost_is_invalid(tmp_path, capsys):
    doc = worked_doc()
    doc["cost"] = {"table": [1] + [1] * 26}  # nonzero at the origin
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "solve", str(path))
    assert rc == 2
    assert "vanish at the zero state" in err


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.pop("field"), "missing field.prime"),
    (lambda d: d.update(field=[3]), "missing field.prime"),
    (lambda d: d["field"].update(prime="3"), "field.prime must be an integer"),
    (lambda d: d["field"].update(prime=True), "field.prime must be an integer"),
    (lambda d: d["field"].update(prime=4), "not prime"),
    (lambda d: d["field"].update(prime=2**64 + 13), "not below 2^64"),
    (lambda d: d.pop("dims"), "missing dims"),
    (lambda d: d.update(dims=[3, 2]), "missing dims"),
    (lambda d: d["dims"].update(n=0), "at least 1"),
    (lambda d: d["dims"].update(n=-1), "nonnegative integers"),
    (lambda d: d["dims"].update(n="3"), "nonnegative integers"),
    (lambda d: d["dims"].update(m=-1), "nonnegative integers"),
    (lambda d: d.update(schema_version="2.0"), "unsupported schema_version"),
], ids=["no-field", "field-list", "prime-string", "prime-bool", "prime-4", "prime-huge",
        "no-dims", "dims-list", "n-zero", "n-negative", "n-string", "m-negative",
        "schema-2"])
def test_malformed_header_gets_one_error(tmp_path, capsys, mutate, message):
    """solve, check and decompose read the header through one reader, so a
    malformed header exits 2 with the same message from all three."""
    doc = worked_doc()
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    errors = set()
    for argv in (["solve"], ["check"], ["decompose"], ["solve", "--force"]):
        rc, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert rc == 2 and out == "", argv
        errors.add(err)
    assert len(errors) == 1 and message in errors.pop()


def test_size_guard_and_force(tmp_path, capsys):
    doc = {"schema_version": "1.0", "field": {"prime": 7},
           "dims": {"n": 7, "m": 1},
           "A": [[1 if i == j else 0 for j in range(7)] for i in range(7)],
           "B": [[1]] + [[0]] * 6,
           "cost": {"table": [0] + [1] * (7**7 - 1)},
           "horizon": {"finite": {"T": 1}}}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "solve", str(path))
    assert rc == 2
    assert "--force" in err
    # the guard must trip before the multi-megabyte cost table is touched,
    # so the error message arrives quickly even for 7^7 states
    rc, out, _ = run(capsys, "decompose", str(path), "--json")
    assert rc == 0  # decompose never builds the state space


def test_size_guard_survives_a_huge_dimension(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"field": {"prime": 3}, "dims": {"n": 3_000_000, "m": 1}}))
    rc, _, err = run(capsys, "solve", str(path))
    assert rc == 2
    assert "above the guard" in err and "--force" in err


def test_decompose_dimension_guard_and_force(tmp_path, capsys):
    n = cli.GUARD_DIM + 1
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"field": {"prime": 2}, "dims": {"n": n},
                                "A": [[0] * n for _ in range(n)]}))
    rc, _, err = run(capsys, "decompose", str(path))
    assert rc == 2
    assert "--force" in err
    rc, out, _ = run(capsys, "decompose", str(path), "--json", "--force")
    assert rc == 0
    assert json.loads(out)["decomposable"] is False


def _cli_process(path, argv):
    """Run the CLI on path in a separate process with a deadline, so a slow
    path fails its test instead of hanging the suite."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "dpdecomp.cli", argv[0], str(path), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=20)


def long_horizon_doc(T):
    return {"schema_version": "1.0", "field": {"prime": 2}, "dims": {"n": 1, "m": 1},
            "A": [[1]], "B": [[1]], "cost": {"table": [0, 1]},
            "horizon": {"finite": {"T": T}}}


@pytest.mark.parametrize("argv", [["solve"], ["check"], ["solve", "--json"]])
def test_long_finite_horizon_exits_2_in_bounded_time(tmp_path, argv):
    """T = 10^9 over 2 states would keep 2·10^9 table entries: the horizon
    guard refuses it before solving, from the file or from --T."""
    path = tmp_path / "long.json"
    path.write_text(json.dumps(long_horizon_doc(10**9)))
    proc = _cli_process(path, argv)
    assert proc.returncode == 2, proc.stderr
    assert "above the guard" in proc.stderr and "--force" in proc.stderr
    path.write_text(json.dumps(long_horizon_doc(1)))
    proc = _cli_process(path, argv + ["--T", str(10**9)])
    assert proc.returncode == 2, proc.stderr


def test_horizon_guard_is_lifted_by_force(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "GUARD_STAGES", 8)
    path = tmp_path / "long.json"
    path.write_text(json.dumps(long_horizon_doc(5)))  # 5 stages over 2 states
    rc, _, err = run(capsys, "solve", str(path))
    assert rc == 2 and "--force" in err
    rc, out, _ = run(capsys, "solve", str(path), "--json", "--force")
    assert rc == 0 and json.loads(out)["horizon"] == {"finite": {"T": 5}}
    rc, _, _ = run(capsys, "solve", str(path), "--T", "4")
    assert rc == 0


@pytest.mark.parametrize("argv", [["solve"], ["check"], ["solve", "--T", "100"]])
def test_horizon_guard_fires_before_the_instance_is_loaded(tmp_path, capsys, monkeypatch, argv):
    """T·p^n is read off the header and the horizon (or --T), so a p = 2,
    n = 16 file with T = 100 exits 2 before load_instance expands any
    table."""
    def refuse(*args, **kwargs):
        raise AssertionError("the instance was loaded before the horizon guard")

    monkeypatch.setattr(cli, "load_instance", refuse)
    n = 16
    doc = {"schema_version": "1.0", "field": {"prime": 2}, "dims": {"n": n, "m": 1},
           "A": [[int(i == j) for j in range(n)] for i in range(n)],
           "B": [[int(i == 0)] for i in range(n)], "cost": {"table": [0] + [1] * (2**n - 1)},
           "horizon": {"finite": {"T": 1 if "--T" in argv else 100}}}
    path = tmp_path / "wide16.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert rc == 2 and out == ""
    assert "T·p^n = 6553600" in err and "--force" in err


def test_lqr_long_horizon_exits_2_in_bounded_time(tmp_path):
    """The Riccati recursion keeps T + 1 gains, so lqr.T = 10^7 would run
    for minutes: the lqr horizon guard refuses it up front."""
    path = tmp_path / "lqr.json"
    path.write_text(json.dumps({"lqr": {"A": [[1.0]], "B": [[1.0]], "P": [[1.0]],
                                        "T": 10**7}}))
    proc = _cli_process(path, ["lqr"])
    assert proc.returncode == 2, proc.stderr
    assert "lqr.T" in proc.stderr and "--force" in proc.stderr


def test_lqr_horizon_guard_is_lifted_by_force(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "GUARD_LQR_T", 4)
    path = tmp_path / "lqr.json"
    path.write_text(json.dumps(lqr_doc()))  # T = 6
    rc, out, err = run(capsys, "lqr", str(path), "--json")
    assert rc == 2 and out == "" and "--force" in err
    rc, out, _ = run(capsys, "lqr", str(path), "--json", "--force")
    assert rc == 0 and json.loads(out)["T"] == 6


@pytest.mark.parametrize("argv, prime, code", [
    (["decompose"], 2**61 - 1, 0),
    (["decompose"], 2**64 + 13, 2),
    (["solve", "--force"], 2**64 + 13, 2),
    (["check", "--force"], 2**64 + 13, 2),
])
def test_large_modulus_is_decided_in_bounded_time(tmp_path, argv, prime, code):
    path = tmp_path / "prime.json"
    path.write_text(json.dumps({
        "field": {"prime": prime}, "dims": {"n": 2, "m": 1},
        "A": [[1, 0], [0, 1]], "B": [[1], [0]],
        "cost": {"table": [0] + [1] * 3}, "horizon": {"finite": {"T": 1}}}))
    proc = _cli_process(path, argv)
    assert proc.returncode == code, proc.stderr


def test_decompose_splits_over_a_large_prime_in_bounded_time(tmp_path):
    """x - 1 and x - 2 over GF(2^61 - 1): splitting them must not try every
    constant of the field."""
    path = tmp_path / "split.json"
    path.write_text(json.dumps({"field": {"prime": 2**61 - 1}, "dims": {"n": 2},
                                "A": [[1, 0], [0, 2]]}))
    proc = _cli_process(path, ["decompose", "--json"])
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["decomposable"] is True
    assert [f["coefficients"] for f in out["factors"]] == [[2**61 - 3, 1], [2**61 - 2, 1]]


def _fresh_python(code: str) -> None:
    """Run code in a new interpreter that imports dpdecomp from src."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr


def test_exact_core_imports_no_numpy(worked_path):
    """Only the lqr command may load numpy: the CLI, the battery and a solve
    stay stdlib only, so a numpy import on the hot path would slow every
    CLI start-up."""
    _fresh_python("import sys\n"
                  "import dpdecomp.checks\n"
                  "from dpdecomp.cli import main\n"
                  f"assert main(['solve', {worked_path!r}, '--json']) == 0\n"
                  "assert 'numpy' not in sys.modules, 'numpy was imported'\n")


def test_each_subcommand_loads_only_its_modules(worked_path):
    """The package root loads no module; solve loads neither the battery
    (checks, subproblems) nor the splitting search (invariant_decomp), and
    decompose loads no battery and no solver (dp, cosets)."""
    _fresh_python(
        "import sys\n"
        "def loaded():\n"
        "    return {m[len('dpdecomp.'):] for m in sys.modules if m.startswith('dpdecomp.')}\n"
        "import dpdecomp\n"
        "assert loaded() == set(), loaded()\n"
        "from dpdecomp.cli import main\n"
        f"assert main(['solve', {worked_path!r}, '--json']) == 0\n"
        "assert not loaded() & {'checks', 'subproblems', 'invariant_decomp'}, loaded()\n"
        f"assert main(['decompose', {worked_path!r}, '--json']) == 0\n"
        "assert not loaded() & {'checks', 'subproblems'}, loaded()\n"
        f"assert main(['check', {worked_path!r}, '--json']) == 0\n")
    _fresh_python(
        "import sys\n"
        "from dpdecomp.cli import main\n"
        f"assert main(['decompose', {worked_path!r}, '--json']) == 0\n"
        "loaded = {m[len('dpdecomp.'):] for m in sys.modules if m.startswith('dpdecomp.')}\n"
        "assert not loaded & {'checks', 'subproblems', 'dp', 'cosets'}, loaded\n")


def test_value_iteration_too_long_to_run_exits_2(tmp_path):
    """alpha = 999/1000 at tol 1/10^6 needs about 2 * 10^4 exact sweeps;
    the sweep count is predicted up front, so the run is refused with exit 2
    instead of grinding on."""
    path = tmp_path / "slow.json"
    path.write_text(json.dumps({
        "field": {"prime": 2}, "dims": {"n": 1, "m": 0}, "A": [[1]], "B": [[]],
        "cost": {"table": [0, 1]}, "horizon": {"discounted": {"alpha": "999/1000"}}}))
    proc = _cli_process(path, ["solve", "--tol", "1/1000000"])
    assert proc.returncode == 2, proc.stderr
    assert "20713 sweeps" in proc.stderr


def axis_doc(alpha):
    """GF(3)^2 with A = diag(1, 2), B = [1, 1]^T, a separable cost over the
    axis parts and the discount factor alpha."""
    return {"field": {"prime": 3}, "dims": {"n": 2, "m": 1}, "A": [[1, 0], [0, 2]],
            "B": [[1], [1]], "decomposition": [[[1], [0]], [[0], [1]]],
            "cost": {"separable": {"tables": [[0, 1, 2], [0, "1/2", 3]]}},
            "horizon": {"discounted": {"alpha": alpha}}}


def test_value_iteration_refusal_is_decided_on_integers(tmp_path, capsys):
    """alpha = 1 - 10^-400: log alpha rounds to 0.0 as a float, so a sweep
    count predicted in floats divided by zero; on integers the run is
    refused with the value-iteration message."""
    path = tmp_path / "near-one.json"
    path.write_text(json.dumps(axis_doc("1/2")))
    rc, out, err = run(capsys, "solve", str(path), "--alpha", f"{'9' * 400}/1{'0' * 400}")
    assert rc == 2 and out == ""
    assert "value iteration would need more than" in err
    assert "more than its exact values can carry" in err


@pytest.mark.parametrize("command", ["solve", "check"])
def test_too_wide_value_exits_2_naming_the_discount_factor(tmp_path, capsys, command):
    """alpha = 1/D with D of 3,000 nines: the exact values have terms wider
    than Python prints, so solve's payload and check's value witness refuse
    them with a message that names the discount factor and the limit."""
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(axis_doc("1/2")))
    rc, out, err = run(capsys, command, str(path), "--alpha", f"1/{'9' * 3000}")
    assert rc == 2 and out == ""
    assert "--alpha or horizon.discounted.alpha" in err
    assert f"{dp.PRINTABLE_BITS} bits" in err
    assert "Exceeds the limit" not in err


def test_too_wide_value_is_refused_before_value_iteration(tmp_path, capsys, monkeypatch):
    """The policy-iteration values are printed, and so refused, before value
    iteration spends its sweeps on the same discount factor."""
    def never(*args, **kwargs):
        raise AssertionError("value iteration ran")
    monkeypatch.setattr(dp, "solve_discounted_vi", never)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(axis_doc(f"1/{'9' * 3000}")))
    rc, out, err = run(capsys, "solve", str(path))
    assert rc == 2 and out == ""
    assert f"{dp.PRINTABLE_BITS} bits" in err


@pytest.mark.parametrize("cost, message", [
    ({"separable": {"tables": [[0, 0, 0], [0, 1, 2]]}, "allow_vanishing": "false"},
     "cost.allow_vanishing"),
    ({"separable": {"tables": [[0, 0, 0], [0, 1, 2]]}, "allow_vanishing": 1},
     "cost.allow_vanishing"),
    ({"indicator": {"weights": [0, 1]}, "allow_vanishing": False}, "allow_vanishing"),
], ids=["string", "integer", "indicator"])
def test_vanishing_cost_needs_allow_vanishing_true(tmp_path, capsys, cost, message):
    """Only a JSON true admits a cost that vanishes at a nonzero state, for
    every cost kind: a string or a number is refused, and an indicator's
    zero weight does not admit itself."""
    path = tmp_path / "vanishing.json"
    path.write_text(json.dumps(dict(axis_doc("1/2"), cost=cost)))
    rc, out, err = run(capsys, "solve", str(path))
    assert rc == 2 and out == ""
    assert message in err


def test_exponent_rationals_exit_2_at_once(tmp_path):
    """Fraction expands a decimal exponent in full (Fraction("1e10000000")
    alone takes seconds), so only the published spellings, integers and
    "num/den", are read: an exponent in a cost entry, --alpha or --tol
    exits 2 within the deadline instead of running on."""
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps({
        "field": {"prime": 2}, "dims": {"n": 1, "m": 1}, "A": [[1]], "B": [[1]],
        "cost": {"table": ["0", "1e100000000"]}, "horizon": {"finite": {"T": 1}}}))
    proc = _cli_process(path, ["solve"])
    assert proc.returncode == 2 and "1e100000000" in proc.stderr, proc.stderr
    path.write_text(path.read_text().replace("1e100000000", "1"))
    for flag in ("--alpha", "--tol"):
        proc = _cli_process(path, ["solve", "--horizon", "discounted", "--alpha", "1/2",
                                   flag, "1e-100000000"])
        assert proc.returncode == 2 and "1e-100000000" in proc.stderr, (flag, proc.stderr)


def test_theorem_violation_exit_code(worked_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise TheoremViolation("forced for the exit-code test")
    monkeypatch.setattr(checks, "run_battery", boom)
    rc, _, err = run(capsys, "check", worked_path)
    assert rc == 3
    assert "theorem violation (this is a bug)" in err


def test_input_errors_are_value_errors_and_exit_2(worked_path, capsys, monkeypatch):
    """Every exception class errors.py defines but TheoremViolation is a
    ValueError, so main's one exit-2 rule covers each of them."""
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and c.__module__ == errors.__name__]
    assert len(classes) == 8 and not issubclass(TheoremViolation, ValueError)
    assert all(issubclass(c, ValueError) for c in classes if c is not TheoremViolation)

    def refuse(*args, **kwargs):
        raise errors.PreconditionFailed("forced for the exit-code test")
    monkeypatch.setattr(checks, "run_battery", refuse)
    rc, out, err = run(capsys, "check", worked_path)
    assert (rc, out) == (2, "")
    assert err == "error: precondition violated: forced for the exit-code test\n"


def test_usage_errors_return_argparse_code(capsys):
    rc, _, _ = run(capsys, "frobnicate", "x.json")
    assert rc == 2
    rc, _, _ = run(capsys)
    assert rc == 2


# === JSON emission ===

EMIT = cli._emit  # the emitter itself, for tests that patch cli._emit away


def test_emit_matches_json_dumps_on_every_command_payload(worked_path, tmp_path, capsys,
                                                          monkeypatch):
    """_emit writes json.dumps(payload, indent=2, sort_keys=True) and a
    newline, on the payload each --json command hands it."""
    payloads = []
    monkeypatch.setattr(cli, "_emit", payloads.append)
    lqr, minimal = tmp_path / "lqr.json", tmp_path / "min.json"
    lqr.write_text(json.dumps(lqr_doc()))
    minimal.write_text(json.dumps({"field": {"prime": 2}, "dims": {"n": 2, "m": 1},
                                   "A": [[0, 1], [1, 1]]}))
    for argv in (["check", worked_path],
                 ["solve", worked_path, "--argmin", "--all-t"],
                 ["solve", worked_path, "--argmin", "--alpha", "1/2"],
                 ["decompose", worked_path], ["decompose", str(minimal)], ["lqr", str(lqr)]):
        assert cli.main([*argv, "--json"]) == 0
    report = tmp_path / "report.json"
    report.write_text(json.dumps(payloads[0]))
    assert cli.main(["check", worked_path, "--verify-witness", str(report), "--json"]) == 0
    keys = ["additive_holds", "argmin", "value_iteration", "parts", "factor", "K0", "witnesses"]
    assert len(payloads) == len(keys) and all(map(dict.__contains__, payloads, keys))
    capsys.readouterr()
    for payload in payloads:
        EMIT(payload)
        assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def solve_payload(n):
    """A finite solve payload's shape over GF(2)^n, with argmin sets."""
    return {"field": 2, "n": n, "m": 1, "states": cli._vectors(2, n),
            "horizon": {"finite": {"T": 1}},
            "values": {"0": [f"{x % 7}/3" for x in range(2**n)], "1": []},
            "argmin": {"0": [[[0], [1]] if x % 3 else [] for x in range(2**n)]}}


@pytest.mark.parametrize("payload", [
    {}, [], {"a": [], "b": {}, "c": [[], {}, [[]]], "d": None, "e": True, "f": 1.5, "g": "\u00e9"},
    solve_payload(12),  # tens of thousands of chunks: many batches
], ids=["empty-dict", "empty-list", "empties-and-scalars", "many-batches"])
def test_emit_matches_json_dumps(capsys, payload):
    EMIT(payload)
    assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


class _DigestSink:
    """A stdout that keeps only the sha256 and length of what it is given."""

    def __init__(self):
        self.digest, self.length = hashlib.sha256(), 0

    def write(self, text):
        self.digest.update(text.encode())
        self.length += len(text)


def test_emit_never_holds_the_document(monkeypatch):
    """_emit writes as the encoder goes: on a 2^12-state payload its peak
    traced memory stays under a quarter of the document's length, where
    building the whole document holds all of it at once."""
    payload = solve_payload(12)
    document = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    expected, length = hashlib.sha256(document.encode()).hexdigest(), len(document)
    del document
    sink = _DigestSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        EMIT(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (sink.digest.hexdigest(), sink.length) == (expected, length)
    assert peak < length // 4, (peak, length)


@pytest.mark.parametrize("command", ["solve", "check"])
def test_refused_json_run_writes_nothing(tmp_path, capsys, command):
    """Every refusal is raised while the payload is built, before _emit
    writes its first byte."""
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(axis_doc("1/2")))
    rc, out, err = run(capsys, command, str(path), "--json", "--alpha", f"1/{'9' * 3000}")
    assert rc == 2 and out == ""
    assert f"{dp.PRINTABLE_BITS} bits" in err
