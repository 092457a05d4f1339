from fractions import Fraction as Q

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from loopcybe.scalars import CycNumber, frac_str, parse_frac, parts, zeta


def test_cyclotomic_polynomials():
    # Phi_3 = x^2 + x + 1 vanishes at zeta_3 and at zeta_3^2, and at no rational
    for z in (zeta(3), zeta(3, 2)):
        assert z * z + z + 1 == 0
        assert z != 1 and z * z != 1


def test_zeta_powers():
    z = zeta(3)
    assert z * z * z == 1
    assert z != 1
    assert z * z == zeta(3, 2)
    assert zeta(3, 4) == z and zeta(3, -1) == zeta(3, 2) and zeta(3, 0) == 1
    # 1 + z + z^2 = 0
    assert CycNumber(1) + z + z * z == 0


def test_rational_degeneration():
    assert all(zeta(1, j) == 1 for j in range(-2, 3))
    assert zeta(2, 1) == Q(-1) and zeta(2, 2) == Q(1)
    assert all(type(zeta(r, j)) is Q for r in (1, 2) for j in range(3))
    with pytest.raises(ValueError):
        zeta(4)                   # no diagram automorphism has order 4


def test_inverse_roundtrip():
    z = zeta(3)
    x = Q(3, 7) + zeta(3, 2) * 2 - z
    assert x * x.inverse() == 1
    assert (1 / x) * x == 1
    assert (CycNumber(1) / x) * x == 1
    assert (z / x) * x == z
    assert z.inverse() == zeta(3, 2)


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        CycNumber(0).inverse()
    with pytest.raises(ZeroDivisionError):
        1 / CycNumber(0)
    with pytest.raises(ZeroDivisionError):
        zeta(3) / 0


def test_mixed_arithmetic_with_fractions():
    z = zeta(3)
    assert (Q(1, 2) + z) - z == Q(1, 2)
    assert (2 * z).coeffs == (Q(0), Q(2))
    assert (z * Q(1, 3)).coeffs == (Q(0), Q(1, 3))
    assert Q(1, 2) - z == -(z - Q(1, 2))
    assert (z + 1) * 0 == 0 and not (z - z)


def test_frac_strings():
    assert frac_str(Q(3, 4)) == "3/4"
    assert frac_str(Q(-2)) == "-2"
    assert frac_str(CycNumber(Q(3, 4))) == "3/4"
    with pytest.raises(ValueError):
        frac_str(zeta(3))       # genuinely cyclotomic: no fraction string
    assert parse_frac("7/3") == Q(7, 3)
    assert parse_frac("-1/32") == Q(-1, 32)
    assert parse_frac(-4) == Q(-4)


@pytest.mark.parametrize("bad", [0.1, 1.5, True, None, "0.5", "1e3", "1/0", " 1/2", "1/-2", [1]])
def test_parse_frac_rejects_inexact_and_malformed(bad):
    with pytest.raises(ValueError):
        parse_frac(bad)


# ------------------------------------------- Q(zeta_3) against sympy remainders

X = sympy.Symbol("x")
PHI3 = X ** 2 + X + 1
SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def _poly(x) -> sympy.Expr:
    a, b = parts(x)
    return sympy.Rational(a.numerator, a.denominator) + \
        sympy.Rational(b.numerator, b.denominator) * X


def _reduced(expr) -> tuple:
    """(a, b) with expr = a + b x modulo x^2 + x + 1, as Fractions."""
    rem = sympy.Poly(sympy.rem(sympy.expand(expr), PHI3, X), X)
    return tuple(Q(int(c.p), int(c.q)) for c in (rem.coeff_monomial(1), rem.coeff_monomial(X)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(SMALL, SMALL, SMALL, SMALL)
def test_arithmetic_matches_sympy_remainders(a, b, c, d):
    x, y = CycNumber(a, b), CycNumber(c, d)
    px, py = _poly(x), _poly(y)
    assert parts(x + y) == _reduced(px + py)
    assert parts(x - y) == _reduced(px - py)
    assert parts(x * y) == _reduced(px * py)
    if y:
        inv = sympy.invert(py, PHI3, X)
        assert parts(y.inverse()) == _reduced(inv)
        assert parts(x / y) == _reduced(px * inv)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
