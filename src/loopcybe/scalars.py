"""Exact scalar arithmetic: rationals and the field Q(zeta_3).

Every computation in this package is float-free.  Plain rationals are
`fractions.Fraction`.  A diagram automorphism has order 1, 2 or 3, and only
order 3 (D4 triality) needs a root of unity outside Q: there the package
uses `CycNumber`, a + b zeta_3 with Fraction coordinates a and b, where
zeta_3^2 = -1 - zeta_3.  `zeta(r, j)` gives zeta_r^j for the three orders.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .value import Value

Q = Fraction

Scalar = Union[Fraction, "CycNumber"]

_ZERO = Q(0)


def parts(x) -> tuple:
    """(a, b) with x = a + b zeta_3, for a CycNumber, a Fraction or an int."""
    if isinstance(x, CycNumber):
        return (x.coeffs + (_ZERO, _ZERO))[:2]
    return x, _ZERO


class CycNumber(Value):
    """a + b zeta_3 in Q(zeta_3); `coeffs` is (a, b) with trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, a=0, b=0):
        a, b = Q(a), Q(b)
        object.__setattr__(self, "coeffs", (a, b) if b else (a,) if a else ())

    def __add__(self, other) -> "CycNumber":
        a, b = parts(self)
        c, d = parts(other)
        return CycNumber(a + c, b + d)

    __radd__ = __add__

    def __neg__(self) -> "CycNumber":
        a, b = parts(self)
        return CycNumber(-a, -b)

    def __sub__(self, other) -> "CycNumber":
        return self + (-other)

    def __rsub__(self, other) -> "CycNumber":
        return -self + other

    def __mul__(self, other) -> "CycNumber":
        # (a + b z)(c + d z) = ac + (ad + bc) z + bd z^2, and z^2 = -1 - z
        a, b = parts(self)
        c, d = parts(other)
        bd = b * d
        return CycNumber(a * c - bd, a * d + b * c - bd)

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        """1/(a + b z) = (a - b - b z)/(a^2 - ab + b^2), the norm in the denominator."""
        a, b = parts(self)
        norm = a * a - a * b + b * b
        if not norm:
            raise ZeroDivisionError("inverse of zero in Q(zeta_3)")
        return CycNumber((a - b) / norm, -b / norm)

    def __truediv__(self, other) -> "CycNumber":
        return self * CycNumber(*parts(other)).inverse()

    def __rtruediv__(self, other) -> "CycNumber":
        return self.inverse() * other

    def __eq__(self, other) -> bool:
        if isinstance(other, CycNumber):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == ((Q(other),) if other else ())
        return NotImplemented

    def __hash__(self) -> int:
        # a rational value hashes as its Fraction, to which it is equal
        cs = self.coeffs
        return hash(cs) if len(cs) > 1 else hash(cs[0] if cs else _ZERO)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Cyc(0)"
        a, b = parts(self)
        terms = ([str(a)] if a else []) + (["%s*z3" % b] if b else [])
        return "Cyc(%s)" % " + ".join(terms)


def zeta(r: int, j: int = 1) -> Scalar:
    """zeta_r^j for r = 1, 2, 3, the orders of diagram automorphisms:
    a Fraction for r <= 2 and a CycNumber for r = 3."""
    if r == 3:
        return (CycNumber(1), CycNumber(0, 1), CycNumber(-1, -1))[j % 3]
    if r not in (1, 2):
        raise ValueError("no diagram automorphism has order %d" % r)
    return Q(-1) ** (j % r)


def frac_str(q: Scalar) -> str:
    """Serialize a rational exactly, e.g. '3/4' or '-2'.

    A rational-valued CycNumber serializes as its rational value; a
    CycNumber with a zeta_3 part raises ValueError.
    """
    if isinstance(q, CycNumber):
        if len(q.coeffs) > 1:
            raise ValueError("not a rational number: %r" % (q,))
        q = parts(q)[0]
    if not isinstance(q, (int, Fraction)):
        q = Q(q)
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


# An exact rational as the package writes it: "p/q" or "p", nonzero q.
_FRAC_RE = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def parse_frac(s) -> Q:
    """Read a JSON int or a "p/q" string exactly; floats are rejected."""
    if isinstance(s, int) and not isinstance(s, bool):
        return Q(s)
    if not isinstance(s, str) or not _FRAC_RE.fullmatch(s):
        raise ValueError("expected an integer or a 'p/q' string, got %r" % (s,))
    return Q(s)
