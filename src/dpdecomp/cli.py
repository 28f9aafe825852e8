"""Command-line front end.

Four subcommands: ``solve`` (exact optimal values), ``decompose`` (invariant
splitting of the state space from the dynamics), ``check`` (the splitting
verification battery with machine-checkable witnesses), and ``lqr`` (the
real-field regulator recursion plus its block-diagonal test).

Exit codes: 0 on success, 2 on input or validation problems, 3 when an
internally guaranteed implication fails (a bug, not bad data), 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Any, Sequence

from .checks import (DEFAULT_TUPLE_CAP, DecompositionReport, report_from_dict,
                     run_battery, verify_witnesses)
from .dp import (DiscountedHorizon, DPInstance, FiniteHorizon, Horizon,
                 solve_discounted_pi, solve_discounted_vi, solve_finite)
from .errors import (IllConditioned, NotDecomposable, NotDirectSum,
                     NotInvariant, NotSeparableCost, PreconditionFailed,
                     TheoremViolation)
from .instancefile import LoadedInstance, load_instance, load_lqr_block, parse_rational
from .invariant_decomp import primary_decomposition

GUARD_STATES = 2**16
GUARD_INPUTS = 2**12
# decompose never enumerates states, but factoring the characteristic
# polynomial grows steeply with n: a random 48x48 matrix takes under 2 s
GUARD_DIM = 48

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2
EXIT_VIOLATION = 3


def _fmt_vec(v: Sequence[int]) -> str:
    return "[" + " ".join(str(d) for d in v) + "]"


def _fmt_argmin(inst: DPInstance, chosen: frozenset[int]) -> str:
    return "{" + ", ".join(_fmt_vec(inst.input_vector(u)) for u in sorted(chosen)) + "}"


def _horizon_override(args: argparse.Namespace) -> Horizon | None:
    if args.horizon is None and args.T is None and args.alpha is None:
        return None
    kind = args.horizon
    if kind is None:
        kind = "finite" if args.T is not None else "discounted"
    if kind == "finite":
        if args.T is None:
            raise ValueError("--horizon finite needs --T")
        return FiniteHorizon(args.T)
    if args.alpha is None:
        raise ValueError("--horizon discounted needs --alpha")
    return DiscountedHorizon(parse_rational(args.alpha))


def _precheck_size(data: dict[str, Any], force: bool) -> None:
    """Refuse state or input spaces too large to enumerate comfortably
    unless --force is given.  Malformed documents fall through to the
    loader, which produces the better message."""
    if force:
        return
    try:
        p, n, m = data["field"]["prime"], data["dims"]["n"], data["dims"]["m"]
    except (KeyError, TypeError):
        return
    if not all(type(v) is int for v in (p, n, m)) or p < 2:
        return
    for what, k, guard in (("state", n, GUARD_STATES), ("input", m, GUARD_INPUTS)):
        # p >= 2, so a k past the guard's bit length exceeds it without p**k
        if k > guard.bit_length() or (k >= 0 and p**k > guard):
            raise ValueError(f"{what} space has {p}^{k} points, above the guard of "
                             f"{guard}; rerun with --force to proceed")


def _read_json(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("instance document must be a JSON object")
    return data


def _load(args: argparse.Namespace) -> LoadedInstance:
    data = _read_json(args.instance)
    _precheck_size(data, args.force)
    return load_instance(data, horizon_override=_horizon_override(args),
                         max_states=None, max_inputs=None)


def _emit(payload: dict[str, Any]) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_solve(args: argparse.Namespace) -> int:
    inst = _load(args).instance
    p = inst.field.p
    if isinstance(inst.horizon, FiniteHorizon):
        T = inst.horizon.T
        values, argmin = solve_finite(inst)
        times = list(range(T + 1)) if args.all_t else [0]
        if args.json:
            payload: dict[str, Any] = {
                "field": p, "n": inst.n, "m": inst.m,
                "horizon": {"finite": {"T": T}},
                "states": [list(inst.state_vector(x)) for x in range(inst.num_states)],
                "values": {str(t): [str(v) for v in values.table(t)] for t in times},
            }
            if args.argmin:
                payload["argmin"] = {
                    str(t): [[list(inst.input_vector(u)) for u in sorted(argmin.at(x, t))]
                             for x in range(inst.num_states)]
                    for t in times if t < T}
            _emit(payload)
            return EXIT_OK
        print(f"field GF({p}), n={inst.n}, m={inst.m}, horizon T={T}")
        for t in times:
            print(f"values at t={t}:")
            for x in range(inst.num_states):
                line = f"  {_fmt_vec(inst.state_vector(x))}  {values.value(x, t)}"
                if args.argmin and t < T:
                    line += f"  argmin {_fmt_argmin(inst, argmin.at(x, t))}"
                print(line)
        return EXIT_OK
    alpha = inst.horizon.alpha
    values, argmin = solve_discounted_pi(inst)
    vi = solve_discounted_vi(inst, args.tol)
    if args.json:
        payload = {
            "field": p, "n": inst.n, "m": inst.m,
            "horizon": {"discounted": {"alpha": str(alpha)}},
            "states": [list(inst.state_vector(x)) for x in range(inst.num_states)],
            "values": [str(v) for v in values.stationary],
            "value_iteration": {
                "tolerance": str(args.tol),
                "values": [str(v) for v in vi.values.stationary],
                "error_bound": str(vi.error_bound),
                "iterations": vi.iterations,
            },
        }
        if args.argmin:
            payload["argmin"] = [[list(inst.input_vector(u)) for u in sorted(s)]
                                 for s in argmin.stationary]
        _emit(payload)
        return EXIT_OK
    print(f"field GF({p}), n={inst.n}, m={inst.m}, discount alpha={alpha}")
    print("exact values (policy iteration):")
    for x in range(inst.num_states):
        line = f"  {_fmt_vec(inst.state_vector(x))}  {values.value(x)}"
        if args.argmin:
            line += f"  argmin {_fmt_argmin(inst, argmin.at(x))}"
        print(line)
    print(f"value iteration (tol {args.tol}): sup-error bound {vi.error_bound} "
          f"after {vi.iterations} sweeps")
    for x in range(inst.num_states):
        print(f"  {_fmt_vec(inst.state_vector(x))}  {vi.values.value(x)}")
    return EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> int:
    # Only the dynamics matter here, so accept documents without cost/horizon.
    data = _read_json(args.instance)
    from .fields import PrimeField
    from .instancefile import _parse_matrix
    try:
        prime = data["field"]["prime"]
        n = data["dims"]["n"]
    except (KeyError, TypeError):
        raise ValueError("missing field.prime / dims.n") from None
    if not isinstance(prime, int) or isinstance(prime, bool):
        raise ValueError("field.prime must be an integer")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("dims.n must be an integer >= 1")
    if n > GUARD_DIM and not args.force:
        raise ValueError(f"dims.n is {n}, above the decompose guard of {GUARD_DIM}; "
                         "rerun with --force to proceed")
    field = PrimeField(prime)
    A = _parse_matrix(field, data.get("A"), n, n, "A")
    try:
        decomp, factorization = primary_decomposition(A)
    except NotDecomposable as exc:
        if args.json:
            _emit({"decomposable": False,
                   "factor": list(exc.factor.coeffs),
                   "multiplicity": exc.multiplicity})
        else:
            print(f"no nontrivial invariant splitting: {exc}")
        return EXIT_OK
    if args.json:
        _emit({
            "decomposable": True,
            "factors": [{"coefficients": list(q.coeffs), "degree": q.degree,
                         "multiplicity": mult} for q, mult in factorization],
            "parts": [[list(row) for row in _basis_rows(part)]
                      for part in decomp.parts],
        })
        return EXIT_OK
    print(f"field GF({prime}), n={n}: {decomp.r} invariant parts")
    for i, ((q, mult), part) in enumerate(zip(factorization, decomp.parts)):
        print(f"part {i}: dim {part.dim}, factor coefficients (low to high) "
              f"{list(q.coeffs)} multiplicity {mult}")
        for v in part.basis_vectors():
            print(f"  basis {_fmt_vec(v)}")
    return EXIT_OK


def _basis_rows(part) -> list[tuple[int, ...]]:
    cols = part.basis_vectors()
    n = part.ambient_dim
    return [tuple(c[i] for c in cols) for i in range(n)]


def _render_verdict(v: Any) -> str:
    if v is None:
        return "skipped"
    if v is True:
        return "holds"
    if v is False:
        return "fails"
    return str(v)


def _print_report(report: DecompositionReport) -> None:
    d = report.to_dict()
    h = d["horizon"]
    hdesc = (f"T={h['finite']['T']}" if "finite" in h
             else f"alpha={h['discounted']['alpha']}")
    print(f"field GF({d['prime']}), n={d['n']}, m={d['m']}, {hdesc}, "
          f"family={d['family']}")
    order = ["range_condition", "input_space_is_sum_of_parts", "A_invertible",
             "additive_holds", "minimizer_condition", "stationary_selector",
             "componentwise_holds", "hierarchy_consistent",
             "invertible_equivalence", "horizon_monotone"]
    witness_key = {"additive_holds": "additive_witness",
                   "componentwise_holds": "componentwise_witness",
                   "minimizer_condition": "minimizer_witness",
                   "stationary_selector": "stationary_selector_witness"}
    for key in order:
        if d[key] is None:
            continue
        print(f"{key}: {_render_verdict(d[key])}")
        witness = d.get(witness_key.get(key, ""))
        if witness:
            print(f"  witness: {json.dumps(witness, sort_keys=True)}")
    for note in d["notes"]:
        print(f"note: {note}")


def cmd_check(args: argparse.Namespace) -> int:
    loaded = _load(args)
    inst = loaded.instance
    if loaded.decomposition is not None:
        decomp = loaded.decomposition
        source = "decomposition taken from the instance file"
    else:
        try:
            decomp, _ = primary_decomposition(inst.A)
        except NotDecomposable as exc:
            raise ValueError(f"cannot check: {exc}") from exc
        source = "decomposition computed from the dynamics"
    if args.verify_witness is not None:
        report_data = _read_json(args.verify_witness)
        report = report_from_dict(report_data)
        results = verify_witnesses(inst, decomp, report)
        if args.json:
            _emit({"witnesses": results})
        else:
            if not results:
                print("no witnesses recorded in the report")
            for name, ok in sorted(results.items()):
                print(f"witness {name}: {'confirmed' if ok else 'FAILED'}")
        return EXIT_OK if all(results.values()) else EXIT_INVALID
    report = run_battery(inst, decomp, family=args.family,
                         cap=args.cap, seed=args.seed)
    report.notes.append(source)
    if args.json:
        _emit(report.to_dict())
    else:
        _print_report(report)
    return EXIT_OK


def cmd_lqr(args: argparse.Namespace) -> int:
    import numpy as np

    from .lqr import block_diagonal_check, riccati_backward, trajectory_cost
    data = load_lqr_block(_read_json(args.instance))
    A = np.array(data["A"], dtype=float)
    B = np.array(data["B"], dtype=float)
    P = np.array(data["P"], dtype=float)
    T = data["T"]
    sol = riccati_backward(A, B, P, T)
    n = A.shape[0]
    x0 = (np.array(data["x0"], dtype=float) if data["x0"] is not None
          else np.ones(n))
    predicted = float(x0 @ sol.K[0] @ x0)
    cost_std = trajectory_cost(A, B, P, sol.gains_std, x0)
    cost_disp = trajectory_cost(A, B, P, sol.gains, x0)
    block = None
    if data["parts"] is not None:
        parts = [np.array(pmat, dtype=float) for pmat in data["parts"]]
        block = block_diagonal_check(A, B, P, parts, T, tol=data["tol"])
    if args.json:
        _emit({
            "T": T,
            "K0": [[float(v) for v in row] for row in sol.K[0]],
            "predicted_cost": predicted,
            "closed_loop_cost_successor_gains": float(cost_std),
            "closed_loop_cost_same_time_gains": float(cost_disp),
            "block_diagonal": block,
        })
        return EXIT_OK
    print(f"backward recursion over horizon T={T}, state dim {n}")
    print("K at t=0:")
    for row in sol.K[0]:
        print("  " + "  ".join(f"{v: .10g}" for v in row))
    print(f"predicted cost x0'K0x0 = {predicted:.10g} for x0 = "
          + _fmt_vec([f"{v:g}" for v in x0]))
    print(f"closed-loop cost, successor-weight gains: {cost_std:.10g}")
    print(f"closed-loop cost, same-time-weight gains: {cost_disp:.10g}")
    if block is not None:
        print(f"block-diagonal across given parts: {block}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpdecomp",
        description="Exact dynamic programming over prime fields, invariant "
                    "splittings, and decomposition checking.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("instance", help="instance file (JSON)")
    common.add_argument("--json", action="store_true",
                        help="machine-readable output")
    common.add_argument("--force", action="store_true",
                        help="lift the state/input space size guard (the "
                             "dimension guard for decompose)")

    horizon = argparse.ArgumentParser(add_help=False)
    horizon.add_argument("--horizon", choices=["finite", "discounted"],
                         help="override the file's horizon kind")
    horizon.add_argument("--T", type=int, help="finite horizon length")
    horizon.add_argument("--alpha", help="discount factor, e.g. 1/2")

    p_solve = sub.add_parser("solve", parents=[common, horizon],
                             help="exact optimal values")
    p_solve.add_argument("--all-t", action="store_true", dest="all_t",
                         help="print every time step, not just t=0")
    p_solve.add_argument("--argmin", action="store_true",
                         help="also print minimizing input sets")
    p_solve.add_argument("--tol", type=parse_rational, default=Fraction(1, 1000),
                         help="value-iteration stopping tolerance (discounted)")
    p_solve.set_defaults(func=cmd_solve)

    p_dec = sub.add_parser("decompose", parents=[common],
                           help="invariant splitting from the dynamics")
    p_dec.set_defaults(func=cmd_decompose)

    p_check = sub.add_parser("check", parents=[common, horizon],
                             help="run the decomposition battery")
    p_check.add_argument("--family", choices=["restricted", "projected", "both"],
                         default="both", help="which subproblem family to test")
    p_check.add_argument("--seed", type=int, default=0,
                         help="seed for the policy spot check")
    p_check.add_argument("--cap", type=int, default=DEFAULT_TUPLE_CAP,
                         help="tuple-enumeration budget before reporting "
                              "inconclusive")
    p_check.add_argument("--verify-witness", metavar="REPORT",
                         help="re-verify the witnesses in a saved report "
                              "against this instance")
    p_check.set_defaults(func=cmd_check)

    p_lqr = sub.add_parser("lqr", parents=[common],
                           help="real-field regulator and block test")
    p_lqr.set_defaults(func=cmd_lqr)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except TheoremViolation as exc:
        print(f"theorem violation (this is a bug): {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (ValueError, ZeroDivisionError, OSError, NotDirectSum, NotInvariant,
            NotSeparableCost, NotDecomposable, PreconditionFailed,
            IllConditioned) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
