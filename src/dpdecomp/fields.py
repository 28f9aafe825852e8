"""Exact arithmetic in prime fields GF(p) and the polynomial ring GF(p)[x].

Field elements are plain Python ints kept reduced to 0..p-1; a PrimeField
object carries the modulus and the inverse, so no per-element wrapper is
allocated.  Polynomials store their coefficient tuple lowest degree first
with trailing zeros stripped, so the zero polynomial is the empty tuple and
``degree`` is -1 for it (the sentinel sorts below every true degree).

Exact rational values elsewhere in the package use fractions.Fraction, which
already guarantees lowest terms and a positive denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


# Miller-Rabin with these bases decides primality exactly for n < 3.3 * 10^24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MAX_MODULUS = 2**64


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for every n < 2^64."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field GF(p) for a prime modulus p, with elements as reduced ints."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or isinstance(self.p, bool):
            raise ValueError(f"modulus must be an int, got {self.p!r}")
        if self.p >= MAX_MODULUS:
            raise ValueError(f"modulus {self.p} is not below 2^64")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def inv(self, a: int) -> int:
        """Multiplicative inverse by Fermat's little theorem.

        Raises ZeroDivisionError for the zero element.
        """
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return pow(a, self.p - 2, self.p)

    def __repr__(self) -> str:
        return f"GF({self.p})"


@dataclass(frozen=True)
class Poly:
    """A univariate polynomial over GF(p).

    Immutable.  Coefficients run from the constant term upward; the tuple
    never ends in a zero, so equal polynomials compare equal structurally.
    """

    field: PrimeField
    coeffs: Iterable[int] = ()

    def __post_init__(self):
        cs = [c % self.field.p for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: PrimeField) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: PrimeField) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def constant(cls, field: PrimeField, c: int) -> "Poly":
        return cls(field, (c,))

    @classmethod
    def monomial(cls, field: PrimeField, k: int, c: int = 1) -> "Poly":
        return cls(field, (0,) * k + (c,))

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with -1 standing in for the degree of the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self) -> "Poly":
        """Scale to leading coefficient 1 (the zero polynomial is returned as is)."""
        if self.is_zero or self.is_monic:
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if not isinstance(other, Poly) or other.field != self.field:
            raise ValueError("polynomials must share a field")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field, (self[k] + other[k] for k in range(n)))

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field, (self[k] - other[k] for k in range(n)))

    def scale(self, c: int) -> "Poly":
        return Poly(self.field, (c * a for a in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        if self.is_zero or other.is_zero:
            return Poly.zero(self.field)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(self.field, out)

    def __pow__(self, k: int, mod: "Poly | None" = None) -> "Poly":
        """self**k, or with pow(self, k, mod) self**k reduced modulo mod,
        which keeps every intermediate below the degree of mod."""
        if k < 0:
            raise ValueError("negative polynomial powers are not defined")

        def reduce(q: "Poly") -> "Poly":
            return q if mod is None else q % mod
        result, base = Poly.one(self.field), reduce(self)
        while k:
            if k & 1:
                result = reduce(result * base)
            base = reduce(base * base)
            k >>= 1
        return reduce(result)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        rem = list(self.coeffs)
        div = other.coeffs
        dd = len(div) - 1
        inv_lead = field.inv(div[-1])
        quot = [0] * max(len(rem) - dd, 0)
        for k in range(len(rem) - dd - 1, -1, -1):
            c = (rem[k + dd] * inv_lead) % field.p
            if c:
                quot[k] = c
                for j, b in enumerate(div):
                    rem[k + j] = (rem[k + j] - c * b) % field.p
        return Poly(field, quot), Poly(field, rem[:dd])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor; gcd(0, 0) is 0."""
        self._check(other)
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def derivative(self) -> "Poly":
        return Poly(self.field, (k * c for k, c in enumerate(self.coeffs) if k))

    def pth_root(self) -> "Poly":
        """The p-th root of a polynomial in x^p.

        Valid exactly when the derivative vanishes; coefficients of GF(p) are
        their own p-th roots.
        """
        p = self.field.p
        if any(c and k % p for k, c in enumerate(self.coeffs)):
            raise ValueError("polynomial is not a p-th power")
        return Poly(self.field, self.coeffs[::p])

    # -- text ------------------------------------------------------------

    def __repr__(self) -> str:
        if self.is_zero:
            return f"Poly(0 mod {self.field.p})"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self[k]
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                xk = "x" if k == 1 else f"x^{k}"
                terms.append(xk if c == 1 else f"{c}*{xk}")
        return f"Poly({' + '.join(terms)} mod {self.field.p})"

