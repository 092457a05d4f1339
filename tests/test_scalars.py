from fractions import Fraction as Q

import pytest

from loopcybe.scalars import CycNumber, ScalarField, cyclotomic_poly, frac_str, parse_frac


def test_cyclotomic_polynomials():
    # Phi_1 = x - 1, Phi_2 = x + 1, Phi_3 = x^2 + x + 1, Phi_4 = x^2 + 1
    assert cyclotomic_poly(1) == (Q(-1), Q(1))
    assert cyclotomic_poly(2) == (Q(1), Q(1))
    assert cyclotomic_poly(3) == (Q(1), Q(1), Q(1))
    assert cyclotomic_poly(4) == (Q(1), Q(0), Q(1))
    assert cyclotomic_poly(6) == (Q(1), Q(-1), Q(1))


def test_zeta_powers():
    F = ScalarField(3)
    z = F.zeta()
    assert z * z * z == 1
    assert z != 1
    assert z * z == F.zeta(2)
    # 1 + z + z^2 = 0
    assert F.of(1) + z + z * z == 0


def test_rational_degeneration():
    assert ScalarField(1).zeta() == Q(1)
    assert ScalarField(2).zeta() == Q(-1)
    assert ScalarField(2).is_rational


def test_inverse_roundtrip():
    F = ScalarField(5)
    x = F.of(Q(3, 7)) + F.zeta(2) * F.of(2) - F.zeta(4)
    assert x * x.inverse() == 1
    assert (F.of(1) / x) * x == 1


def test_zero_division():
    F = ScalarField(3)
    with pytest.raises(ZeroDivisionError):
        F.of(0).inverse()


def test_mixed_arithmetic_with_fractions():
    F = ScalarField(3)
    z = F.zeta()
    assert (Q(1, 2) + z) - z == Q(1, 2)
    assert (2 * z).coeffs == (Q(0), Q(2))


def test_frac_strings():
    assert frac_str(Q(3, 4)) == "3/4"
    assert frac_str(Q(-2)) == "-2"
    assert frac_str(CycNumber.of(Q(3, 4), 3)) == "3/4"
    with pytest.raises(ValueError):
        frac_str(CycNumber.zeta(3))       # genuinely cyclotomic: no fraction string
    assert parse_frac("7/3") == Q(7, 3)
    assert parse_frac("-1/32") == Q(-1, 32)
    assert parse_frac(-4) == Q(-4)


@pytest.mark.parametrize("bad", [0.1, 1.5, True, None, "0.5", "1e3", "1/0", " 1/2", "1/-2", [1]])
def test_parse_frac_rejects_inexact_and_malformed(bad):
    with pytest.raises(ValueError):
        parse_frac(bad)
