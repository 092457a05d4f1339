"""Cartan types and finite root systems.

Roots are integer coefficient vectors over the simple roots, so the
whole root system lives in Z^rank.  The inner product comes from the
symmetrized Cartan matrix with the shortest root length normalized to
(alpha, alpha) = 2; only ratios matter downstream.  At that scale every
squared length is an integer (2, 4 or 6), and `sq_len` holds it for each
signed root, so the structure constants and coroots never need the
Fraction `inner`.  The Killing
form is read off the root system too, and only here: `killing_cartan`
is its Gram on the simple coroots, from which the Chevalley algebra, the
affine diagram and the Casimir element all take it.  Both run on ints:
`build_root_system` carries each root's pairing row
(<beta, alpha_j^vee>)_j through the closure, and `killing_cartan` sums
products of those rows.  `RootSystem.codes` gives each signed root one
int, so that the structure constants add roots as ints.

Positive roots are ordered by height and then lexicographically; this
ordering is canonical for the whole package (structure constants, basis
serialization, extraspecial pairs all refer to it).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from operator import mul

from .value import Value

Q = Fraction

Root = tuple[int, ...]

SERIES_RANKS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 3,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


class CartanType(Value):
    __slots__ = ("series", "rank")

    def __init__(self, series: str, rank: int):
        ok = SERIES_RANKS.get(series)
        if ok is None:
            raise ValueError("unknown series %r" % (series,))
        if not ok(rank):
            raise ValueError("rank %d not admissible for series %s" % (rank, series))
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "rank", rank)

    @staticmethod
    def parse(label: str) -> "CartanType":
        label = label.strip()
        if len(label) < 2 or not label[1:].isdigit():
            raise ValueError("cannot parse Cartan type %r" % (label,))
        return CartanType(label[0].upper(), int(label[1:]))

    def __str__(self) -> str:
        return "%s%d" % (self.series, self.rank)


def cartan_matrix(ct: CartanType) -> list[list[int]]:
    """Cartan matrix a[i][j] = 2(alpha_i, alpha_j)/(alpha_j, alpha_j), 0-indexed.

    Bourbaki numbering: chains run 1..n; B_n has the short root last,
    C_n the long root last, D_n forks at n-2, E_n hangs node 2 off node
    4 of the A-chain 1-3-4-5-..., F4 is 1-2=>3-4, G2 is 1<<=2 with
    alpha_1 short.
    """
    n = ct.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def join(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    s = ct.series
    if s in ("A", "B", "C"):
        for i in range(n - 1):
            join(i, i + 1)
        if s == "B" and n >= 2:
            a[n - 2][n - 1] = -2  # alpha_{n-1} long, alpha_n short
        if s == "C" and n >= 2:
            a[n - 1][n - 2] = -2  # alpha_n long
    elif s == "D":
        for i in range(n - 2):
            join(i, i + 1)
        join(n - 3, n - 1)
    elif s == "E":
        # chain 1-3-4-5-6(-7-8), node 2 attached to node 4  (Bourbaki)
        chain = [0] + list(range(2, n))
        for i, j in zip(chain, chain[1:]):
            join(i, j)
        join(1, 3)
    elif s == "F":
        join(0, 1)
        join(1, 2, aij=-2, aji=-1)
        join(2, 3)
    elif s == "G":
        join(0, 1, aij=-1, aji=-3)
    return a


def symmetrizer(a: list[list[int]]) -> list[Q]:
    """Positive rationals d_i with a_ij d_j = a_ji d_i, normalized to min 1.

    d_i = (alpha_i, alpha_i)/2 up to overall scale, so (a_i, a_j) = d_j a_ij.
    """
    n = len(a)
    d: list[Q | None] = [None] * n
    d[0] = Q(1)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if a[i][j] != 0 and d[i] is not None and d[j] is None:
                    d[j] = d[i] * a[j][i] / a[i][j]
                    changed = True
    if any(x is None for x in d):
        raise ValueError("Cartan matrix is not connected")
    lo = min(d)  # type: ignore[type-var]
    return [x / lo for x in d]  # type: ignore[union-attr]


class RootSystem:
    def __init__(self, cartan_type: CartanType, cartan: tuple, d: tuple, positive_roots: tuple,
                 pairings: dict):
        self.cartan_type = cartan_type
        self.cartan = cartan                     # a[i][j] = 2(ai,aj)/(aj,aj), int rows
        self.d = d                               # half square lengths (ai,ai)/2, Fractions
        self.positive_roots = positive_roots     # height-then-lex order
        self.pairings = pairings                 # signed root -> (<r, a_j^vee>)_j, int rows

    @property
    def rank(self) -> int:
        return self.cartan_type.rank

    @cached_property
    def all_roots(self) -> tuple[Root, ...]:
        """Positive roots, then their negatives in the same order: the basis order."""
        return self.positive_roots + tuple(neg(r) for r in self.positive_roots)

    @cached_property
    def root_position(self) -> dict:
        """Each signed root -> its position in `all_roots`."""
        return {r: k for k, r in enumerate(self.all_roots)}

    @cached_property
    def codes(self) -> tuple:
        """One int per signed root, in `all_roots` order: sum r_i B**i.

        B = 4 M + 1 with M the largest coefficient of a root.  A sum or
        difference of two roots has coefficients in [-2M, 2M], inside
        (-B/2, B/2), so it has one code and codes add as the roots do; the
        code of -r is minus the code of r.
        """
        base = 4 * max(self.highest_root()) + 1
        return tuple(sum(c * base ** i for i, c in enumerate(r)) for r in self.all_roots)

    @cached_property
    def sq_len(self) -> dict:
        """(r, r) as an int for each signed root r; the short roots have length 2.

        (r, alpha_i) = d_i <r, alpha_i^vee>, so (r, r) = sum r_i d_i <r, alpha_i^vee>.
        """
        d = [int(x) for x in self.d]
        if any(x != y for x, y in zip(d, self.d)):
            raise AssertionError("half square lengths must be integers")
        return {r: sum(map(mul, r, map(mul, d, self.pairings[r]))) for r in self.all_roots}

    def is_root(self, r: Root) -> bool:
        return r in self.root_position

    def inner(self, x: Root, y: Root) -> Q:
        """(x, y) under the symmetrized form; (ai, aj) = d_j a_ij."""
        acc = Q(0)
        for i, ci in enumerate(x):
            if ci:
                for j, cj in enumerate(y):
                    if cj:
                        acc += ci * cj * self.d[j] * self.cartan[i][j]
        return acc

    def pairing(self, x: Root, j: int) -> int:
        """<x, alpha_j^vee> = 2(x, alpha_j)/(alpha_j, alpha_j), an integer."""
        return sum(ci * self.cartan[i][j] for i, ci in enumerate(x))

    def height(self, r: Root) -> int:
        return sum(r)

    def highest_root(self) -> Root:
        return self.positive_roots[-1]

    def p_value(self, alpha: Root, beta: Root) -> int:
        """Largest p with beta - p*alpha a root (the string length down)."""
        p = 0
        cur = sub(beta, alpha)
        while self.is_root(cur):
            p += 1
            cur = sub(cur, alpha)
        return p


def killing_cartan(rs: RootSystem) -> tuple:
    """kappa(h_i, h_j) = sum over roots beta of <beta, a_i^vee> <beta, a_j^vee>.

    The Killing form on the simple coroots h_i, as a tuple of int rows, summed
    from the pairing rows of the root system.  A root and its negative add
    the same term, so the sum runs over the positive roots and is doubled.
    """
    cols = list(zip(*(rs.pairings[b] for b in rs.positive_roots)))
    return tuple(tuple(2 * sum(map(mul, x, y)) for y in cols) for x in cols)


def check_diagram_automorphism(cartan, perm) -> None:
    """Raise ValueError unless the node permutation `perm` preserves `cartan`."""
    n = len(cartan)
    if any(cartan[perm[i]][perm[j]] != cartan[i][j] for i in range(n) for j in range(n)):
        raise ValueError("permutation does not preserve the Cartan matrix")


def neg(r: Root) -> Root:
    return tuple(-c for c in r)


def add(x: Root, y: Root) -> Root:
    return tuple(a + b for a, b in zip(x, y))


def sub(x: Root, y: Root) -> Root:
    return tuple(a - b for a, b in zip(x, y))


def is_positive(r: Root) -> bool:
    for c in r:
        if c:
            return c > 0
    return False


@cache
def build_root_system(ct: CartanType) -> RootSystem:
    """Construct the full root system by closing simple roots upward.

    beta + alpha_i is a root iff p - <beta, alpha_i^vee> > 0 where p is
    the length of the alpha_i-string below beta (standard string rule).
    Each root carries its int pairing row: the row of beta + alpha_i is that
    of beta plus row i of the Cartan matrix.  Built once per Cartan type;
    the result is shared.
    """
    a = cartan_matrix(ct)
    n = ct.rank
    d = symmetrizer(a)
    pairings = {tuple(int(j == i) for j in range(n)): tuple(a[i]) for i in range(n)}
    frontier = list(pairings)
    while frontier:
        new: list[Root] = []
        for beta in frontier:
            row = pairings[beta]
            for i in range(n):
                # p = string length below beta in direction alpha_i; only
                # positive roots are stored, which suffices: if beta != alpha_i
                # is positive and beta - alpha_i is a root, it is positive.
                head, c, tail = beta[:i], beta[i], beta[i + 1:]
                p = 0
                while head + (c - p - 1,) + tail in pairings:
                    p += 1
                if p > row[i]:
                    cand = head + (c + 1,) + tail
                    if cand not in pairings:
                        pairings[cand] = add(row, a[i])
                        new.append(cand)
        frontier = new
    ordered = tuple(sorted(pairings, key=lambda r: (sum(r), r)))
    pairings.update({neg(r): tuple(-x for x in pairings[r]) for r in ordered})
    return RootSystem(ct, tuple(tuple(row) for row in a), tuple(d), ordered, pairings)
