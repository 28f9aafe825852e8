"""Reading problem instances from JSON documents.

The document layout is published in docs/instance-schema.json (versioned;
this module accepts schema_version "1.0").  Matrices are nested row-major
integer lists reduced mod p on load; rationals are JSON strings "num/den"
or bare integers (JSON numbers or strings), and nothing else.  Cost tables
are indexed by the base-p little-endian state index.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from .fields import PrimeField
from .linalg import DirectSumDecomposition, MatrixFp, Subspace

if TYPE_CHECKING:  # dp is loaded only where a solve needs it
    from .dp import CostFunction, DPInstance, Horizon

SCHEMA_VERSION = "1.0"
RATIONAL = re.compile(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?")  # the schema's pattern


def parse_rational(value: Any) -> Fraction:
    """Accept 7, "7", or "7/3" spellings and no other: Fraction alone would
    also take "0.5" or "1e100000000", whose exponent it expands in full."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and RATIONAL.fullmatch(value):
        try:
            return Fraction(value)
        except ValueError as exc:  # more digits than Python's int limit
            raise ValueError(f"not a rational: {value!r}") from exc
    raise ValueError(f"not a rational: {value!r}")


def parse_matrix(field: PrimeField, data: Any, nrows: int, ncols: int, name: str) -> MatrixFp:
    """The nrows x ncols integer matrix `name`, reduced mod p."""
    if (not isinstance(data, list) or len(data) != nrows
            or any(not isinstance(row, list) or len(row) != ncols for row in data)):
        raise ValueError(f"{name} must be a {nrows}x{ncols} integer matrix")
    if any(not isinstance(e, int) or isinstance(e, bool) for row in data for e in row):
        raise ValueError(f"{name} entries must be integers")
    return MatrixFp.from_rows(field, data, ncols=ncols)


@dataclass(frozen=True)
class LoadedInstance:
    instance: DPInstance
    decomposition: DirectSumDecomposition | None


def _parse_horizon(data: Any) -> Horizon:
    from .dp import DiscountedHorizon, FiniteHorizon
    if not isinstance(data, dict) or len(data) != 1:
        raise ValueError('horizon must be {"finite": {"T": ...}} or '
                         '{"discounted": {"alpha": ...}}')
    kind, block = next(iter(data.items()))
    if kind not in ("finite", "discounted"):
        raise ValueError(f"unknown horizon kind {list(data)!r}")
    if not isinstance(block, dict):
        raise ValueError(f"horizon.{kind} must be an object")
    if kind == "finite":
        T = block.get("T")
        if not isinstance(T, int) or isinstance(T, bool) or T < 1:
            raise ValueError("finite horizon needs an integer T >= 1")
        return FiniteHorizon(T)
    return DiscountedHorizon(parse_rational(block.get("alpha")))


def _parse_decomposition(field: PrimeField, n: int, data: Any) -> DirectSumDecomposition:
    if not isinstance(data, list) or len(data) < 2:
        raise ValueError("decomposition must list at least two basis matrices")
    parts = []
    for k, mat in enumerate(data):
        if not isinstance(mat, list) or not mat or not isinstance(mat[0], list):
            raise ValueError(f"decomposition part {k} must be a matrix (list of rows)")
        # the first row fixes the width; parse_matrix checks everything else
        basis = parse_matrix(field, mat, n, len(mat[0]), f"decomposition part {k}")
        part = Subspace(field, n, basis.cols())
        if part.dim != basis.ncols:
            raise ValueError(f"decomposition part {k} columns are dependent")
        parts.append(part)
    return DirectSumDecomposition(parts)


def _parse_cost(field: PrimeField, n: int, data: Any,
                decomp: DirectSumDecomposition | None) -> CostFunction:
    from .dp import CostFunction
    if not isinstance(data, dict):
        raise ValueError("cost must be an object")
    allow = data.get("allow_vanishing", False)
    if not isinstance(allow, bool):
        raise ValueError("cost.allow_vanishing must be true or false")
    kinds = [k for k in ("table", "separable", "indicator") if k in data]
    if len(kinds) != 1:
        raise ValueError('cost needs exactly one of "table", "separable", "indicator"')
    kind = kinds[0]
    if kind == "table":
        table = data["table"]
        if not isinstance(table, list):
            raise ValueError("cost table must be a list")
        return CostFunction(field, n, [parse_rational(v) for v in table],
                            allow_vanishing=allow)
    if decomp is None:
        raise ValueError(f'cost kind "{kind}" requires a decomposition block')
    block = data[kind]
    if not isinstance(block, dict):
        raise ValueError(f"cost.{kind} must be an object")
    if kind == "separable":
        tables = block.get("tables")
        if not isinstance(tables, list) or any(not isinstance(t, list) for t in tables):
            raise ValueError("separable cost needs a list of per-part tables")
        parsed = [[parse_rational(v) for v in t] for t in tables]
        return CostFunction.separable(decomp, parsed, allow_vanishing=allow)
    weights = block.get("weights")
    if not isinstance(weights, list):
        raise ValueError("indicator cost needs a list of per-part weights")
    return CostFunction.indicator(decomp, list(map(parse_rational, weights)), allow_vanishing=allow)


def read_header(data: Any, *, dynamics_only: bool = False) -> tuple[PrimeField, int, int]:
    """The field and the dimensions n and m of an instance document, read
    before anything larger.  A document for the dynamics alone
    (dynamics_only) may leave out dims.m, which then reads as 0."""
    if not isinstance(data, dict):
        raise ValueError("instance document must be a JSON object")
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    try:
        prime = data["field"]["prime"]
    except (KeyError, TypeError):
        raise ValueError('missing field.prime') from None
    if not isinstance(prime, int) or isinstance(prime, bool):
        raise ValueError("field.prime must be an integer")
    field = PrimeField(prime)
    dims = data.get("dims")
    if not isinstance(dims, dict) or "n" not in dims or ("m" not in dims and not dynamics_only):
        raise ValueError("missing dims.n / dims.m")
    n, m = dims["n"], dims.get("m", 0)
    if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in (n, m)):
        raise ValueError("dims must be nonnegative integers")
    if n < 1:
        raise ValueError("state dimension n must be at least 1")
    return field, n, m


def read_horizon(data: dict[str, Any], override: Horizon | None = None) -> Horizon:
    """The override if given, else the document's horizon; it reads no
    table, so a caller can bound the solve before loading."""
    if override is not None:
        return override
    if "horizon" not in data:
        raise ValueError("missing horizon (and no override given)")
    return _parse_horizon(data["horizon"])


def load_instance(data: dict[str, Any], *,
                  horizon_override: Horizon | None = None) -> LoadedInstance:
    """Build a control problem (and optional splitting) from a parsed JSON
    document.  Raises ValueError on any schema or validation failure.  The
    state and input spaces are not bounded here: a caller that must bound
    them checks read_header's dimensions first."""
    from .dp import DPInstance
    field, n, m = read_header(data)
    A = parse_matrix(field, data.get("A"), n, n, "A")
    B = parse_matrix(field, data.get("B"), n, m, "B")
    decomp = None
    if "decomposition" in data:
        decomp = _parse_decomposition(field, n, data["decomposition"])
    if "cost" not in data:
        raise ValueError("missing cost")
    cost = _parse_cost(field, n, data["cost"], decomp)
    instance = DPInstance(A, B, cost, read_horizon(data, horizon_override),
                          max_states=None, max_inputs=None)
    return LoadedInstance(instance, decomp)


_SHAPES = ("a number", "a list of numbers", "a matrix (list of rows)", "a list of basis matrices")


def _reals(value: Any, depth: int, name: str) -> Any:
    """value as a float (depth 0) or as lists of floats nested depth deep.
    Only finite JSON numbers count: a string, a boolean, NaN, an infinity,
    an integer too large for a float or a matrix with rows of unequal
    lengths is a ValueError naming the field and its shape."""
    try:
        if depth == 0:
            # NaN fails the comparison; an int compares exactly, so one that
            # passes converts without overflow
            if (isinstance(value, (int, float)) and not isinstance(value, bool)
                    and abs(value) <= sys.float_info.max):
                return float(value)
        elif isinstance(value, list):
            out = [_reals(v, depth - 1, name) for v in value]
            if depth != 2 or len(set(map(len, out))) <= 1:
                return out
    except ValueError:
        pass
    raise ValueError(f"{name} must be {_SHAPES[depth]}")


def load_lqr_block(data: dict[str, Any]) -> dict[str, Any]:
    """Extract the real-field regulator block: matrices A, B, P, horizon T,
    part bases, tolerance, and an optional start state."""
    if not isinstance(data, dict) or "lqr" not in data or not isinstance(data["lqr"], dict):
        raise ValueError('document must contain an "lqr" object')
    block = data["lqr"]
    out: dict[str, Any] = {}
    for key in ("A", "B", "P"):
        if not block.get(key):
            raise ValueError(f"lqr.{key} must be a matrix (list of rows)")
        out[key] = _reals(block[key], 2, f"lqr.{key}")
    T = block.get("T")
    if not isinstance(T, int) or isinstance(T, bool) or T < 1:
        raise ValueError("lqr.T must be an integer >= 1")
    out["T"] = T
    parts, x0 = block.get("parts"), block.get("x0")
    out["parts"] = _reals(parts, 3, "lqr.parts") if parts is not None else None
    out["tol"] = _reals(block.get("tol", 1e-9), 0, "lqr.tol")
    if out["tol"] <= 0:
        raise ValueError("lqr.tol must be positive")
    out["x0"] = _reals(x0, 1, "lqr.x0") if x0 is not None else None
    if x0 is not None and len(out["x0"]) != len(out["A"]):
        raise ValueError(f"lqr.x0 must list {len(out['A'])} numbers, one per state")
    return out
