"""Exact scalar arithmetic: rationals and cyclotomic fields Q(zeta_N).

Every computation in this package is float-free.  Plain rationals are
`fractions.Fraction`; the few places that need a genuine root of unity
(order-3 diagram automorphisms) use `CycNumber`, an element of
Q[x]/Phi_N(x) with Fraction coefficients.  `ScalarField(N)` bundles the
conductor together with constructors, so callers can stay agnostic about
whether they are working over Q (N = 1, and +/-1 for N = 2) or a proper
extension.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .value import Value

Q = Fraction

Scalar = Union[Fraction, "CycNumber"]


def _poly_trim(cs: list[Q]) -> tuple[Q, ...]:
    end = len(cs)
    while end > 0 and cs[end - 1] == 0:
        end -= 1
    return tuple(cs[:end])


def _poly_mul(a: tuple[Q, ...], b: tuple[Q, ...]) -> tuple[Q, ...]:
    if not a or not b:
        return ()
    out = [Q(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _poly_trim(out)


def _poly_divmod(a: tuple[Q, ...], b: tuple[Q, ...]) -> tuple[tuple[Q, ...], tuple[Q, ...]]:
    """(quotient, remainder) of a / b over the rationals."""
    rem = list(a)
    quo = [Q(0)] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    while len(rem) >= len(b) and _poly_trim(rem):
        rem = list(_poly_trim(rem))
        if len(rem) < len(b):
            break
        c = rem[-1] / lead
        k = len(rem) - len(b)
        quo[k] = c
        for j, cb in enumerate(b):
            rem[k + j] -= c * cb
        rem = list(_poly_trim(rem))
    return _poly_trim(quo), _poly_trim(rem)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[Q, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first."""
    if n < 1:
        raise ValueError("conductor must be positive")
    # x^n - 1 divided by the product of Phi_d over proper divisors d of n.
    num: tuple[Q, ...] = tuple([Q(-1)] + [Q(0)] * (n - 1) + [Q(1)])
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod(num, cyclotomic_poly(d))
            assert not rem
    return num


class CycNumber(Value):
    """Element of Q(zeta_N) as a polynomial in zeta_N modulo Phi_N."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: tuple[Q, ...]):
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", coeffs)  # length < deg Phi_N, trailing zeros trimmed

    @staticmethod
    def of(value, conductor: int = 1) -> "CycNumber":
        q = Q(value)
        return CycNumber(conductor, (q,) if q else ())

    @staticmethod
    def zeta(conductor: int, power: int = 1) -> "CycNumber":
        """zeta_N^power, reduced modulo Phi_N."""
        phi = cyclotomic_poly(conductor)
        power %= conductor
        mono = [Q(0)] * (power + 1)
        mono[power] = Q(1)
        _, rem = _poly_divmod(_poly_trim(mono), phi)
        return CycNumber(conductor, rem)

    def _coerce(self, other) -> "CycNumber":
        if isinstance(other, CycNumber):
            if other.conductor != self.conductor:
                raise ValueError("mixed conductors %d and %d" % (self.conductor, other.conductor))
            return other
        return CycNumber.of(other, self.conductor)

    def __add__(self, other) -> "CycNumber":
        o = self._coerce(other)
        n = max(len(self.coeffs), len(o.coeffs))
        cs = [Q(0)] * n
        for i, c in enumerate(self.coeffs):
            cs[i] += c
        for i, c in enumerate(o.coeffs):
            cs[i] += c
        return CycNumber(self.conductor, _poly_trim(cs))

    __radd__ = __add__

    def __neg__(self) -> "CycNumber":
        return CycNumber(self.conductor, tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "CycNumber":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "CycNumber":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "CycNumber":
        o = self._coerce(other)
        prod = _poly_mul(self.coeffs, o.coeffs)
        _, rem = _poly_divmod(prod, cyclotomic_poly(self.conductor))
        return CycNumber(self.conductor, rem)

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        """Multiplicative inverse via the extended Euclidean algorithm."""
        return _cyc_inverse(self)

    def __truediv__(self, other):
        o = self._coerce(other)
        return self * _cyc_inverse(o)

    def __rtruediv__(self, other):
        return self._coerce(other) * _cyc_inverse(self)

    def __eq__(self, other) -> bool:
        if isinstance(other, CycNumber):
            return self.conductor == other.conductor and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            if not self.coeffs:
                return Q(other) == 0
            return len(self.coeffs) == 1 and self.coeffs[0] == Q(other)
        return NotImplemented

    def __hash__(self) -> int:
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else Q(0))
        return hash((self.conductor, self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_rational(self) -> bool:
        return len(self.coeffs) <= 1

    def to_fraction(self) -> Q:
        if not self.coeffs:
            return Q(0)
        if len(self.coeffs) == 1:
            return self.coeffs[0]
        raise ValueError("not a rational number: %r" % (self,))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Cyc(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("%s*z%d" % (c, self.conductor))
            else:
                terms.append("%s*z%d^%d" % (c, self.conductor, i))
        return "Cyc(%s)" % " + ".join(terms)


def _cyc_inverse(x: CycNumber) -> CycNumber:
    if not x.coeffs:
        raise ZeroDivisionError("inverse of zero in Q(zeta)")
    phi = cyclotomic_poly(x.conductor)
    # Extended Euclid on (phi, x): maintain s with s*x = r (mod phi).
    r0, r1 = list(phi), list(x.coeffs)
    s0, s1 = [Q(0)], [Q(1)]

    def trim(v: list[Q]) -> list[Q]:
        return list(_poly_trim(v))

    while trim(r1):
        r1 = trim(r1)
        q, r = _poly_divmod(tuple(trim(r0)), tuple(r1))
        qs1 = _poly_mul(q, tuple(trim(s1)))
        n = max(len(s0), len(qs1))
        new_s = [Q(0)] * n
        for i, c in enumerate(s0):
            new_s[i] += c
        for i, c in enumerate(qs1):
            new_s[i] -= c
        r0, s0, r1, s1 = r1, s1, list(r), new_s
    # Now r0 is a nonzero constant gcd, and s0 * x = r0 (mod phi).
    g = trim(r0)[0]
    inv = [c / g for c in s0]
    _, rem = _poly_divmod(tuple(trim(inv)), phi)
    return CycNumber(x.conductor, rem)


class ScalarField:
    """The field Q(zeta_N): plain rationals when N <= 2.

    Invariants: arithmetic is exact and equality is decidable.  N = 1
    degenerates to Q; N = 2 also embeds in Q since zeta_2 = -1.
    """

    def __init__(self, conductor: int = 1):
        if conductor < 1:
            raise ValueError("conductor must be a positive integer")
        self.conductor = conductor

    @property
    def is_rational(self) -> bool:
        return self.conductor <= 2

    def zero(self) -> Scalar:
        return Q(0) if self.is_rational else CycNumber.of(0, self.conductor)

    def one(self) -> Scalar:
        return Q(1) if self.is_rational else CycNumber.of(1, self.conductor)

    def of(self, value) -> Scalar:
        return Q(value) if self.is_rational else CycNumber.of(value, self.conductor)

    def zeta(self, power: int = 1) -> Scalar:
        """Primitive N-th root of unity raised to `power`."""
        if self.conductor == 1:
            return Q(1)
        if self.conductor == 2:
            return Q(-1) ** (power % 2)
        return CycNumber.zeta(self.conductor, power)

    def __repr__(self) -> str:
        return "ScalarField(Q)" if self.conductor == 1 else "ScalarField(Q(zeta_%d))" % self.conductor


def as_fraction(x: Scalar) -> Q:
    """Coerce a scalar known to be rational back to a Fraction."""
    if isinstance(x, CycNumber):
        return x.to_fraction()
    return Q(x)


def frac_str(q: Scalar) -> str:
    """Serialize a rational exactly, e.g. '3/4' or '-2'.

    A rational-valued CycNumber serializes as its rational value; a genuinely
    cyclotomic one raises ValueError.
    """
    q = as_fraction(q)
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
