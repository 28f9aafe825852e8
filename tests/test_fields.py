"""Prime field and polynomial arithmetic.

Expected values are checked against independent computation: exhaustive
inverse tables, hand-multiplied products, and stdlib pow/Fraction.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dpdecomp.fields import Poly, PrimeField, is_prime

PRIMES = [2, 3, 5, 7]

fields = st.sampled_from([PrimeField(p) for p in PRIMES])


@st.composite
def polys(draw, max_deg=5, field=None):
    F = field if field is not None else draw(fields)
    coeffs = draw(st.lists(st.integers(0, F.p - 1), max_size=max_deg + 1))
    return Poly(F, coeffs)


@st.composite
def poly_pairs(draw, max_deg=5):
    F = draw(fields)
    return draw(polys(max_deg, F)), draw(polys(max_deg, F))


@st.composite
def poly_triples(draw, max_deg=4):
    F = draw(fields)
    return tuple(draw(polys(max_deg, F)) for _ in range(3))


# === field construction ===

def test_is_prime_small():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-3)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))
    assert [n for n in range(-3, 5000) if is_prime(n)] == [
        n for n in range(-3, 5000) if trial(n)]


@pytest.mark.parametrize("n, prime", [
    (2**31 - 1, True), (2**61 - 1, True), (2**64 - 59, True),
    (561, False),                    # Carmichael number
    (3215031751, False),             # strong pseudoprime to bases 2, 3, 5, 7
    (3825123056546413051, False),    # strong pseudoprime to the primes up to 23
    (2**64 - 1, False), ((2**32 - 5) ** 2, False),
])
def test_is_prime_large(n, prime):
    assert is_prime(n) is prime


@pytest.mark.parametrize("bad", [1, 4, 6, 9, 0, -5])
def test_nonprime_rejected(bad):
    with pytest.raises(ValueError):
        PrimeField(bad)


def test_field_equality_and_hash():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert hash(PrimeField(3)) == hash(PrimeField(3))


# === scalar arithmetic ===

@pytest.mark.parametrize("p", PRIMES)
def test_inverse_exhaustive(p):
    F = PrimeField(p)
    for a in range(1, p):
        assert a * F.inv(a) % p == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_inverse_known_value():
    # 3 * 5 = 15 = 2*7 + 1
    assert PrimeField(7).inv(3) == 5


# === polynomials ===

def test_degree_and_normalization():
    F = PrimeField(3)
    assert Poly(F, [1, 2, 0, 0]).degree == 1
    assert Poly(F, [0, 0, 3]).is_zero  # 3 = 0 mod 3
    assert Poly.zero(F).degree == -1
    assert Poly.monomial(F, 1).degree == 1
    assert Poly.monomial(F, 4, 2).degree == 4
    # coefficients are reduced mod p on construction
    assert Poly(PrimeField(5), [7, -1]) == Poly(PrimeField(5), [2, 4])


def test_hand_multiplied_product():
    # (x+1)(x+2) = x^2 + 3x + 2 = x^2 + 2 over GF(3)
    F = PrimeField(3)
    f = Poly(F, [1, 1])
    g = Poly(F, [2, 1])
    assert f * g == Poly(F, [2, 0, 1])


@given(poly_triples())
def test_poly_ring_axioms(fgh):
    f, g, h = fgh
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert (f * g) * h == f * (g * h)
    assert f - f == Poly.zero(f.field)


@given(poly_pairs())
def test_divmod_identity(pair):
    f, g = pair
    if g.is_zero:
        with pytest.raises(ZeroDivisionError):
            divmod(f, g)
        return
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree


@given(poly_triples(max_deg=3))
def test_gcd_contains_common_factor(fgh):
    f, g, h = fgh
    if h.is_zero or (f.is_zero and g.is_zero):
        return
    d = (f * h).gcd(g * h)
    assert (d % h.monic()).is_zero


@given(poly_pairs())
def test_gcd_divides_both(pair):
    f, g = pair
    d = f.gcd(g)
    if d.is_zero:
        assert f.is_zero and g.is_zero
    else:
        assert d.is_monic
        assert (f % d).is_zero and (g % d).is_zero


@given(poly_pairs(), st.integers(0, 40))
def test_modular_power_matches_reduced_power(pair, k):
    f, mod = pair
    if mod.is_zero:
        return
    assert pow(f, k, mod) == f**k % mod


def test_modular_power_for_a_large_prime():
    """x^p = x modulo a product of distinct linear factors (Fermat), found
    without forming the degree-p power."""
    F = PrimeField(2**61 - 1)
    x = Poly.monomial(F, 1)
    f = (x - Poly(F, [1])) * (x - Poly(F, [2]))
    assert pow(x, F.p, f) == x


def test_gcd_known():
    # gcd((x+1)^2 (x+2), (x+1)(x+2)^2) = (x+1)(x+2) over GF(3)
    F = PrimeField(3)
    a = Poly(F, [1, 1])
    b = Poly(F, [2, 1])
    assert (a * a * b).gcd(a * b * b) == (a * b).monic()


@given(poly_pairs(max_deg=4))
def test_derivative_product_rule(pair):
    f, g = pair
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


@given(polys(max_deg=4))
def test_pth_power_root_roundtrip(f):
    F = f.field
    g = f ** F.p
    # Frobenius: nonzero coefficients of f^p sit at multiples of p
    assert all(g[i] == 0 for i in range(g.degree + 1) if i % F.p != 0)
    assert g.pth_root() == f


def test_pth_root_rejects_non_power():
    F = PrimeField(3)
    with pytest.raises(ValueError):
        Poly(F, [1, 1]).pth_root()


def test_fraction_sanity():
    assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)
    assert Fraction(1, 3) * 3 == 1
