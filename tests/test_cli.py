"""Command-line interface: output shapes, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dpdecomp import cli
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


def test_horizon_override_flags(worked_path, capsys):
    rc, out, _ = run(capsys, "solve", worked_path, "--T", "2", "--json")
    assert rc == 0
    assert json.loads(out)["horizon"] == {"finite": {"T": 2}}
    rc, _, err = run(capsys, "solve", worked_path, "--horizon", "finite")
    assert rc == 2
    assert "--T" in err


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
], ids=["state-long", "state-short", "state-str", "state-digit", "state-bool",
        "state-missing", "t-range", "t-str", "kind-unknown", "kind-missing",
        "actions-count", "actions-digit", "target-short", "prime-missing",
        "n-mismatch", "witness-list"])
def test_check_malformed_witness_report_is_invalid(worked_path, tmp_path, capsys, tamper):
    rc, out, _ = run(capsys, "check", worked_path, "--json")
    report = json.loads(out)
    tamper(report)
    report_path = tmp_path / "malformed.json"
    report_path.write_text(json.dumps(report))
    rc, _, err = run(capsys, "check", worked_path, "--verify-witness", str(report_path))
    assert rc == 2
    assert err.startswith("error:")


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


def test_invalid_cost_is_invalid(tmp_path, capsys):
    doc = worked_doc()
    doc["cost"] = {"table": [1] + [1] * 26}  # nonzero at the origin
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "solve", str(path))
    assert rc == 2
    assert "vanish at the zero state" in err


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


@pytest.mark.parametrize("argv, prime, code", [
    (["decompose"], 2**61 - 1, 0),
    (["decompose"], 2**64 + 13, 2),
    (["solve", "--force"], 2**64 + 13, 2),
    (["check", "--force"], 2**64 + 13, 2),
])
def test_large_modulus_is_decided_in_bounded_time(tmp_path, argv, prime, code):
    """A separate process with a deadline, so a slow primality test fails
    the test instead of hanging the suite."""
    path = tmp_path / "prime.json"
    path.write_text(json.dumps({
        "field": {"prime": prime}, "dims": {"n": 2, "m": 1},
        "A": [[1, 0], [0, 1]], "B": [[1], [0]],
        "cost": {"table": [0] + [1] * 3}, "horizon": {"finite": {"T": 1}}}))
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "dpdecomp.cli", argv[0], str(path), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=20)
    assert proc.returncode == code, proc.stderr


def test_theorem_violation_exit_code(worked_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise TheoremViolation("forced for the exit-code test")
    monkeypatch.setattr(cli, "run_battery", boom)
    rc, _, err = run(capsys, "check", worked_path)
    assert rc == 3
    assert "theorem violation (this is a bug)" in err


def test_usage_errors_return_argparse_code(capsys):
    rc, _, _ = run(capsys, "frobnicate", "x.json")
    assert rc == 2
    rc, _, _ = run(capsys)
    assert rc == 2
