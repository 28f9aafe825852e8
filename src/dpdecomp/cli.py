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
from itertools import islice, product
from typing import TYPE_CHECKING, Any, Sequence

from .errors import NotDecomposable, TheoremViolation
from .instancefile import (LoadedInstance, load_instance, load_lqr_block, parse_matrix,
                           parse_rational, read_header, read_horizon)

if TYPE_CHECKING:  # dp is loaded only by the subcommands that solve
    from .dp import Horizon

GUARD_STATES = 2**16
GUARD_INPUTS = 2**12
# T·p^n: a finite-horizon solve keeps about 2T tables of p^n entries
GUARD_STAGES = 2**20
# decompose never enumerates states, but factoring the characteristic
# polynomial grows steeply with n: a random 48x48 matrix takes under 2 s
GUARD_DIM = 48
# the Riccati recursion keeps T + 1 gains: at n = 2, T = 2^12 takes 0.4 s
GUARD_LQR_T = 2**12

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2
EXIT_VIOLATION = 3


def _fmt_vec(v: Sequence[int]) -> str:
    return "[" + " ".join(str(d) for d in v) + "]"


def _vectors(p: int, k: int) -> list[tuple[int, ...]]:
    """The digit vector of every index in GF(p)^k, in index order (digit 0
    varies fastest)."""
    return [v[::-1] for v in product(range(p), repeat=k)]


def _input_sets(sets: Sequence[frozenset[int]], inputs: list) -> list[list]:
    """Each set of input indices as its input vectors, in index order."""
    return [[inputs[u] for u in sorted(chosen)] for chosen in sets]


def _guard(args: argparse.Namespace, size: int, limit: int, what: str) -> None:
    """Refuse a run whose size is above its guard unless --force is given."""
    if size > limit and not args.force:
        raise ValueError(f"{what}, above the guard of {limit}; rerun with --force to proceed")


def _horizon_override(args: argparse.Namespace) -> Horizon | None:
    from .dp import DiscountedHorizon, FiniteHorizon
    if args.horizon is None and args.T is None and args.alpha is None:
        return None
    kind = args.horizon or ("finite" if args.T is not None else "discounted")
    flag, stray = ("--alpha", args.alpha) if kind == "finite" else ("--T", args.T)
    if stray is not None:
        given = f"--horizon {kind}" if args.horizon else "--T"
        raise ValueError(f"{flag} conflicts with {given}: give one horizon")
    if kind == "finite":
        if args.T is None:
            raise ValueError("--horizon finite needs --T")
        return FiniteHorizon(args.T)
    if args.alpha is None:
        raise ValueError("--horizon discounted needs --alpha")
    return DiscountedHorizon(parse_rational(args.alpha))


def _read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not valid JSON: {exc}") from exc


def _load(args: argparse.Namespace) -> LoadedInstance:
    from .dp import FiniteHorizon
    data = _read_json(args.instance)
    field, n, m = read_header(data)
    p = field.p
    # the size guards fire before any table is built; p >= 2, so an
    # exponent past a guard's bit length is above it without computing p**n
    _guard(args, p ** min(n, GUARD_STATES.bit_length()), GUARD_STATES,
           f"state space has {p}^{n} points")
    _guard(args, p ** min(m, GUARD_INPUTS.bit_length()), GUARD_INPUTS,
           f"input space has {p}^{m} points")
    horizon = read_horizon(data, _horizon_override(args))
    if isinstance(horizon, FiniteHorizon):
        stages = horizon.T * p ** min(n, GUARD_STAGES.bit_length())
        _guard(args, stages, GUARD_STAGES, f"T·p^n = {stages}")
    return load_instance(data, horizon_override=horizon)


def _emit(payload: dict[str, Any]) -> None:
    """Print json.dumps(payload, indent=2, sort_keys=True), written in
    batches of the encoder's chunks so the whole document is never held."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    while batch := list(islice(chunks, 1024)):
        sys.stdout.write("".join(batch))
    sys.stdout.write("\n")


def _print_table(title: str, states: list, values: list[str], argmin: list | None = None) -> None:
    print(title)
    for x, (state, value) in enumerate(zip(states, values)):
        line = f"  {_fmt_vec(state)}  {value}"
        if argmin is not None:
            line += "  argmin {" + ", ".join(map(_fmt_vec, argmin[x])) + "}"
        print(line)


def _print_solution(d: dict[str, Any]) -> None:
    """The text form of cmd_solve's payload."""
    head, argmin = f"field GF({d['field']}), n={d['n']}, m={d['m']}", d.get("argmin")
    if "finite" in d["horizon"]:
        print(f"{head}, horizon T={d['horizon']['finite']['T']}")
        for t, values in d["values"].items():
            _print_table(f"values at t={t}:", d["states"], values,
                         None if argmin is None else argmin.get(t))
        return
    print(f"{head}, discount alpha={d['horizon']['discounted']['alpha']}")
    _print_table("exact values (policy iteration):", d["states"], d["values"], argmin)
    vi = d["value_iteration"]
    _print_table(f"value iteration (tol {vi['tolerance']}): sup-error bound "
                 f"{vi['error_bound']} after {vi['iterations']} sweeps", d["states"], vi["values"])


def cmd_solve(args: argparse.Namespace) -> int:
    from .dp import FiniteHorizon, horizon_json, printed, solve, solve_discounted_vi
    tol = parse_rational(args.tol)
    if tol <= 0:
        raise ValueError(f"--tol must be positive, got {args.tol}")
    inst = _load(args).instance
    p, horizon = inst.field.p, inst.horizon
    payload: dict[str, Any] = {"field": p, "n": inst.n, "m": inst.m,
                               "states": _vectors(p, inst.n), "horizon": horizon_json(horizon)}
    inputs = _vectors(p, inst.m)
    values, argmin = solve(inst)
    if isinstance(horizon, FiniteHorizon):
        times = range(len(values)) if args.all_t else [0]
        payload["values"] = {str(t): printed(values.table(t)) for t in times}
        if args.argmin:
            payload["argmin"] = {str(t): _input_sets(argmin.table(t), inputs)
                                 for t in times if t < len(argmin)}
    else:
        payload["values"] = printed(values.stationary)
        vi = solve_discounted_vi(inst, tol)
        payload["value_iteration"] = {
            "tolerance": str(tol),
            "values": printed(vi.values.stationary),
            "error_bound": printed([vi.error_bound])[0],
            "iterations": vi.iterations,
        }
        if args.argmin:
            payload["argmin"] = _input_sets(argmin.stationary, inputs)
    if args.json:
        _emit(payload)
    else:
        _print_solution(payload)
    return EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> int:
    from .invariant_decomp import primary_decomposition
    # Only the dynamics matter here, so accept documents without cost/horizon.
    data = _read_json(args.instance)
    field, n, _ = read_header(data, dynamics_only=True)
    _guard(args, n, GUARD_DIM, f"dims.n is {n}")
    A = parse_matrix(field, data.get("A"), n, n, "A")
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
            "parts": [[list(row) for row in zip(*part.basis_vectors())]
                      for part in decomp.parts],
        })
        return EXIT_OK
    print(f"field GF({field.p}), n={n}: {decomp.r} invariant parts")
    for i, ((q, mult), part) in enumerate(zip(factorization, decomp.parts)):
        print(f"part {i}: dim {part.dim}, factor coefficients (low to high) "
              f"{list(q.coeffs)} multiplicity {mult}")
        for v in part.basis_vectors():
            print(f"  basis {_fmt_vec(v)}")
    return EXIT_OK


def _print_report(d: dict[str, Any]) -> None:
    h = d["horizon"]
    hdesc = (f"T={h['finite']['T']}" if "finite" in h
             else f"alpha={h['discounted']['alpha']}")
    print(f"field GF({d['prime']}), n={d['n']}, m={d['m']}, {hdesc}, "
          f"family={d['family']}")
    for key, value in d.items():  # the verdicts in field order, each witness after its own
        if isinstance(value, bool):
            print(f"{key}: {'holds' if value else 'fails'}")
        elif value and key.endswith("_witness"):
            print(f"  witness: {json.dumps(value, sort_keys=True)}")
    for note in d["notes"]:
        print(f"note: {note}")


def cmd_check(args: argparse.Namespace) -> int:
    from .checks import report_from_dict, run_battery, verify_witnesses
    from .invariant_decomp import primary_decomposition
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
        report = report_from_dict(_read_json(args.verify_witness))
        results = verify_witnesses(inst, decomp, report)
        if args.json:
            _emit({"witnesses": results})
        else:
            if not results:
                print("no witnesses recorded in the report")
            for name, ok in sorted(results.items()):
                print(f"witness {name}: {'confirmed' if ok else 'FAILED'}")
        return EXIT_OK if all(results.values()) else EXIT_INVALID
    report = run_battery(inst, decomp, family=args.family)
    report.notes.append(source)
    if args.json:
        _emit(report.to_dict())
    else:
        _print_report(report.to_dict())
    return EXIT_OK


def cmd_lqr(args: argparse.Namespace) -> int:
    import numpy as np

    from .lqr import block_diagonal_check, riccati_backward, trajectory_cost
    data = load_lqr_block(_read_json(args.instance))
    _guard(args, data["T"], GUARD_LQR_T, f"lqr.T is {data['T']}")
    A, B, P, T = data["A"], data["B"], data["P"], data["T"]
    sol = riccati_backward(A, B, P, T)
    n = len(A)
    x0 = np.array(data["x0"] if data["x0"] is not None else [1.0] * n, dtype=float)
    predicted = float(x0 @ sol.K[0] @ x0)
    cost_std = trajectory_cost(A, B, P, sol.gains_std, x0)
    cost_disp = trajectory_cost(A, B, P, sol.gains, x0)
    block = None
    if data["parts"] is not None:
        block = block_diagonal_check(A, B, P, data["parts"], T, tol=data["tol"])
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
                        help="lift the state/input space size and horizon "
                             "guards (the dimension guard for decompose, the "
                             "horizon guard for lqr)")

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
    p_solve.add_argument("--tol", default="1/1000",
                         help="value-iteration stopping tolerance (discounted)")
    p_solve.set_defaults(func=cmd_solve)

    p_dec = sub.add_parser("decompose", parents=[common],
                           help="invariant splitting from the dynamics")
    p_dec.set_defaults(func=cmd_decompose)

    p_check = sub.add_parser("check", parents=[common, horizon],
                             help="run the decomposition battery")
    p_check.add_argument("--family", choices=["restricted", "projected", "both"],
                         default="both", help="which subproblem family to test")
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
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
