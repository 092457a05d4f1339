"""Small exact linear algebra kernel used throughout the package.

Matrices are lists of lists of field elements (Fraction or CycNumber);
everything is duck-typed through the arithmetic operators, so the same
row reduction (`rref`) serves Q and Q(zeta_3).  It does one field
operation per entry update, which is fine for the small solves of the
Cartan-level code.  `rref_int` is the one reduction for large systems over
Q: callers scale their rows to integers and it eliminates on Python ints
(fraction-free), which is what the census and catalog `t_h` solves run on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

Q = Fraction

Row = list
Matrix = list


def rref(m: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    a = [list(r) for r in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if a[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rref_int(m: Sequence[Sequence[int]]) -> tuple[Matrix, list[int]]:
    """Fraction-free Gauss-Jordan reduction of an integer matrix (Bareiss).

    Returns (a, pivots): `a` has one integer row per pivot, every pivot row
    holds the same nonzero integer `a[r][pivots[r]]`, and dividing each row
    by it gives the nonzero rows of `rref(m)`.  Each update
    (p * a[i] - a[i][c] * a[r]) / p_prev divides exactly, since every entry
    stays a minor of `m` (Bareiss, Math. Comp. 22, 1968), so the integers
    grow no larger than the determinants of the system.  Rows that become
    zero are dropped as they appear.
    """
    a = [list(r) for r in m if any(r)]
    cols = len(m[0]) if m else 0
    pivots: list[int] = []
    prev = 1
    for c in range(cols):
        r = len(pivots)
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        row = a[r]
        p = row[c]
        for i in range(len(a)):
            if i == r:
                continue
            f = a[i][c]
            if f:
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], row)]
            elif p != prev:
                a[i] = [p * x // prev for x in a[i]]
        a[r + 1:] = [x for x in a[r + 1:] if any(x)]
        prev = p
        pivots.append(c)
        if len(pivots) == len(a):
            break
    return a, pivots


def rank(m: Sequence[Sequence]) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Sequence[Sequence], zero, one) -> list[Row]:
    """Basis of the right kernel {x : m x = 0}."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if rows == 0:
        return [[one if i == j else zero for j in range(cols)] for i in range(cols)]
    red, pivots = rref(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * cols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(m: Sequence[Sequence], b: Sequence) -> Optional[Row]:
    """One solution of m x = b, or None if inconsistent."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    aug = [list(m[i]) + [b[i]] for i in range(rows)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [b[0] * 0 if rows else Q(0)] * cols  # zero of the right field
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    n, k = len(a), len(b)
    m = len(b[0]) if k else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for t in range(1, k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_vec(a: Sequence[Sequence], v: Sequence) -> Row:
    return [sum((a[i][j] * v[j] for j in range(len(v))), start=Q(0)) for i in range(len(a))]


def identity(n: int) -> Matrix:
    return [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]


def mat_inverse(m: Sequence[Sequence]) -> Matrix:
    """Inverse of a square rational matrix; raises on singular input."""
    n = len(m)
    aug = [list(row) + unit for row, unit in zip(m, identity(n))]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]
