"""Chevalley bases, structure constants, Killing form, Casimir element.

The algebra is realized abstractly on the basis

    e_beta (beta positive, in root order), f_beta, h_1 .. h_n

with integer structure constants fixed by the extraspecial-pair sign
convention: for each non-simple positive gamma the minimal decomposition
gamma = eps + eta gets N_{eps,eta} = +(p+1), and every other constant
follows from antisymmetry, N_{-a,-b} = -N_{a,b}, the rotation rule
N_{a,b}/(c,c) = N_{b,c}/(a,a) for a+b+c = 0, and the Jacobi identity.
These rules are applied once per Cartan type, on first use, and each part
of the algebra is built only when something reads it.  `n_codes` holds
N_{a,b} as an int for every pair of signed roots whose sum is a root, keyed
by the int root codes of `RootSystem.codes`, so a root sum is an int sum;
`n_table` is the same table keyed by root tuples.  `n_codes` is the input
of `table`, the one source of brackets: row i maps each j with
[b_i, b_j] != 0 to the int terms ((k, c), ...) of that bracket.  The rows
are built from `n_codes`, the int coroots [e_b, f_b] of `coroot_combo` and
one int pairing row per root, and `bracket_basis`, `bracket`, the CYB
kernel, the cobracket and the structure export all read them.  They are
shared, so never mutate one.  The Killing form is read off the root
system, never off the table: its Cartan block is `cartan.killing_cartan`,
the one derivation of it in the package, and kappa(e_b, f_b) =
kappa(h_b, h_b)/2 (`root_kappa`) follows by invariance.  So all
downstream normalization (coroots, Casimir, twists) is genuinely the
Killing normalization rather than a rescaled invariant form; the tests
check it against exact ad-traces of the table.  `killing`, the Casimir
element and the structure export read only those two parts, so `r0`
builds neither the constants nor the table, and no dense Gram is built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional

from .cartan import (CartanType, Root, RootSystem, build_root_system,
                     check_diagram_automorphism, is_positive, killing_cartan, neg, sub)

Q = Fraction

# Sparse vector in the algebra: basis index -> coefficient (never zero).
Vec = dict

def add_term(out: dict, key, c) -> None:
    """out[key] += c in a sparse vector or tensor, dropping the key if the sum is 0."""
    s = out.get(key, 0) + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def vec_add(x: dict, y: dict, scale=1) -> dict:
    """x + scale * y for sparse vectors or tensors."""
    out = dict(x)
    for k, c in y.items():
        add_term(out, k, scale * c)
    return out


def vec_scale(x: Vec, c) -> Vec:
    if c == 0:
        return {}
    return {k: c * v for k, v in x.items()}


class ChevalleyAlgebra:
    def __init__(self, rs: RootSystem, cartan_gram: tuple):
        self.rs = rs
        self.cartan_gram = cartan_gram  # kappa(h_i, h_j) as int rows, from cartan.killing_cartan

    # ---- basis bookkeeping -------------------------------------------------

    @property
    def num_pos(self) -> int:
        return len(self.rs.positive_roots)

    @property
    def rank(self) -> int:
        return self.rs.rank

    @property
    def dim(self) -> int:
        return 2 * self.num_pos + self.rank

    def e_index(self, beta: Root) -> int:
        return self.rs.positive_roots.index(beta)

    def f_index(self, beta: Root) -> int:
        return self.num_pos + self.rs.positive_roots.index(beta)

    def h_index(self, i: int) -> int:
        return 2 * self.num_pos + i

    def basis_root(self, idx: int) -> Optional[Root]:
        """Signed root of a basis vector, or None for Cartan elements."""
        return self.rs.all_roots[idx] if idx < 2 * self.num_pos else None

    def root_index(self, r: Root) -> int:
        return self.rs.root_position[r]

    def basis_label(self, idx: int) -> str:
        np_ = self.num_pos
        if idx < np_:
            return "e%d" % idx
        if idx < 2 * np_:
            return "f%d" % (idx - np_)
        return "h%d" % (idx - 2 * np_ + 1)

    def coroot_combo(self, r: Root) -> Vec:
        """[e_r, e_-r] for positive r: h_r = sum c_i ((a_i, a_i)/(r, r)) h_i, integral."""
        sq = self.rs.sq_len
        out: Vec = {}
        for i, c in enumerate(r):
            if c:
                simple = tuple(int(t == i) for t in range(self.rank))
                out[self.h_index(i)] = _exact_div(c * sq[simple], sq[r])
        return out

    # ---- structure constants ----------------------------------------------

    @cached_property
    def n_codes(self) -> dict:
        """(a, b) -> int N_{a,b} on the root codes of `rs.codes`."""
        return _build_constants(self.rs)

    @cached_property
    def n_table(self) -> dict:
        """(a, b) -> int N_{a,b} for all signed roots a, b with a + b a root.

        Keys are the root tuples of `rs.all_roots`, shared, not copies.
        """
        root = dict(zip(self.rs.codes, self.rs.all_roots))
        return {(root[a], root[b]): n for (a, b), n in self.n_codes.items()}

    @cached_property
    def table(self) -> tuple:
        """Row i: {j: ((k, c), ...)} for each j with [b_i, b_j] != 0, int c.

        Rows are sorted by j and terms by k.  Equal terms are one tuple.
        Shared: never mutate a row.
        """
        npos, h0 = self.num_pos, self.h_index(0)
        pos = {x: k for k, x in enumerate(self.rs.codes)}
        rows: list = [dict() for _ in range(self.dim)]
        shared: dict = {}       # (k, c) -> ((k, c),): equal terms, one tuple
        term = shared.setdefault
        for (x, y), c in self.n_codes.items():
            t = (pos[x + y], c)
            rows[pos[x]][pos[y]] = term(t, (t,))
        for b, beta in enumerate(self.rs.positive_roots):
            h = tuple(self.coroot_combo(beta).items())
            rows[b][b + npos] = h
            rows[b + npos][b] = tuple((k, -c) for k, c in h)
            for k, c in enumerate(self.rs.pairings[beta]):
                # [h_k, e_b] = c e_b, [h_k, f_b] = -c f_b
                for j, cj in ((b, c), (b + npos, -c)) if c else ():
                    rows[h0 + k][j] = term((j, cj), ((j, cj),))
                    rows[j][h0 + k] = term((j, -cj), ((j, -cj),))
        return tuple(dict(sorted(row.items())) for row in rows)

    def bracket_basis(self, i: int, j: int) -> Vec:
        """[b_i, b_j] on the basis, with int coefficients."""
        return dict(self.table[i].get(j, ()))

    def bracket(self, x: Vec, y: Vec) -> Vec:
        out: Vec = {}
        for i, ci in x.items():
            row = self.table[i]
            for j, cj in y.items():
                for k, ck in row.get(j, ()):
                    add_term(out, k, ci * cj * ck)
        return out

    # ---- Killing form and friends ------------------------------------------

    @cached_property
    def root_kappa(self) -> tuple:
        """kappa(e_b, f_b) for each positive root b, as Fractions.

        By invariance it is kappa(h_b, h_b)/2, with h_b = [e_b, f_b] from
        `coroot_combo` and kappa on the Cartan from `cartan_gram`.
        """
        h0, kc = self.h_index(0), self.cartan_gram
        out = []
        for beta in self.rs.positive_roots:
            h = [(i - h0, x) for i, x in self.coroot_combo(beta).items()]
            out.append(Q(sum(a * b * kc[i][j] for i, a in h for j, b in h), 2))
        return tuple(out)

    def killing(self, x: Vec, y: Vec) -> Q:
        """kappa(x, y): `cartan_gram` on the Cartan, `root_kappa` on (e_b, f_b)."""
        npos, h0 = self.num_pos, self.h_index(0)
        acc = Q(0)
        for i, ci in x.items():
            if i >= h0:
                row = self.cartan_gram[i - h0]
                for j, cj in y.items():
                    if j >= h0 and row[j - h0]:
                        acc += ci * cj * row[j - h0]
            else:
                j = i + npos if i < npos else i - npos
                if j in y:
                    acc += ci * y[j] * self.root_kappa[i % npos]
        return acc

    @cached_property
    def cartan_gram_inverse(self) -> list:
        """`cartan_gram` inverted, in Fractions; singular only on a broken root system."""
        from .linalg import mat_inverse

        return mat_inverse([list(map(Q, row)) for row in self.cartan_gram])

    def coroot(self, alpha_on_h) -> Vec:
        """The element t in the Cartan with kappa(t, h_i) = alpha(h_i).

        `alpha_on_h` is the tuple of values of the functional on h_1..h_n.
        """
        vals = [Q(v) for v in alpha_on_h]
        sol = (sum(a * b for a, b in zip(row, vals)) for row in self.cartan_gram_inverse)
        return {self.h_index(i): c for i, c in enumerate(sol) if c}

    def root_functional(self, r: Root) -> tuple:
        """Values of the root r on the Cartan basis h_1..h_n."""
        return tuple(Q(self.rs.pairing(r, i)) for i in range(self.rank))

    def casimir(self) -> dict:
        """Casimir element sum b_a (x) b^a over kappa-dual bases.

        Returned as a sparse g (x) g tensor {(i, j): coeff}.  It reads
        `root_kappa` and `cartan_gram_inverse` alone.
        """
        out: dict = {}
        npos = self.num_pos
        for b, c in enumerate(self.root_kappa):
            out[(b, b + npos)] = out[(b + npos, b)] = 1 / c
        n = self.rank
        ginv = self.cartan_gram_inverse
        for i in range(n):
            for j in range(n):
                if ginv[i][j]:
                    out[(self.h_index(i), self.h_index(j))] = ginv[i][j]
        return out


def _exact_div(a: int, b: int) -> int:
    """a / b for ints that b divides; anything else is a broken root system."""
    q, r = divmod(a, b)
    if r:
        raise AssertionError("%d / %d is not an integer" % (a, b))
    return q


def _build_constants(rs: RootSystem) -> dict:
    """N_{a,b} for every pair of signed roots with a + b a root, as ints.

    Keys are pairs of root codes (`rs.codes`), so a root sum is an int sum
    and -a is the code of the negated root.  The extraspecial recursion runs
    over the positive roots by height; each constant it fixes fills its
    whole triple a + b + c = 0 and the negated triple, so the Jacobi step
    only reads constants already in the table.
    """
    codes = rs.codes
    num_pos = len(rs.positive_roots)
    sq = {x: rs.sq_len[r] for x, r in zip(codes, rs.all_roots)}
    order = {x: k for k, x in enumerate(codes[:num_pos])}
    table: dict = {}

    def put(a: int, b: int, n: int) -> None:
        c = -a - b
        # N_{a,b}/(c,c) = N_{b,c}/(a,a) = N_{c,a}/(b,b)
        for x, y, v in ((a, b, n), (b, c, _exact_div(n * sq[a], sq[c])),
                        (c, a, _exact_div(n * sq[b], sq[c]))):
            table[x, y] = v
            table[y, x] = -v
            table[-x, -y] = -v
            table[-y, -x] = v

    for g, gamma in enumerate(codes[:num_pos]):
        if sum(rs.positive_roots[g]) < 2:
            continue
        # decompositions of gamma into ordered pairs of positive roots
        decomps = [(alpha, gamma - alpha) for k, alpha in enumerate(codes[:g])
                   if order.get(gamma - alpha, -1) > k]
        eps, eta = decomps[0]  # extraspecial: minimal first component
        p = 1                  # the eps-string below eta has p - 1 roots
        while eta - p * eps in sq:
            p += 1
        put(eps, eta, p)
        for alpha, beta in decomps[1:]:
            # Jacobi on (e_{-eps}, e_alpha, e_beta):
            #   N_{-eps,a} N_{a-eps,b} + N_{b,-eps} N_{b-eps,a} + N_{a,b} N_{g,-eps} = 0
            acc = 0
            if alpha - eps in sq:
                acc += table[-eps, alpha] * table[alpha - eps, beta]
            if beta - eps in sq:
                acc += table[beta, -eps] * table[beta - eps, alpha]
            put(alpha, beta, _exact_div(-acc, table[gamma, -eps]))
    return table


_ALG_CACHE: dict = {}


def chevalley_algebra(ct: CartanType | str) -> ChevalleyAlgebra:
    """Build (and cache) the Chevalley algebra of the given Cartan type."""
    if isinstance(ct, str):
        ct = CartanType.parse(ct)
    if ct not in _ALG_CACHE:
        rs = build_root_system(ct)
        _ALG_CACHE[ct] = ChevalleyAlgebra(rs, killing_cartan(rs))
    return _ALG_CACHE[ct]


# ---- diagram automorphisms ------------------------------------------------


def lift_diagram_automorphism(alg: ChevalleyAlgebra, perm: Iterable[int]) -> list:
    """Matrix (dense, column = image of basis vector) of the automorphism
    nu(e_i) = e_perm(i), nu(f_i) = f_perm(i), nu(h_i) = h_perm(i).

    `perm` is 0-indexed on the diagram nodes and must preserve the Cartan
    matrix.  Non-simple root vectors are extended through extraspecial
    brackets, which keeps the map a Lie algebra automorphism.
    """
    perm = list(perm)
    n = alg.rank
    check_diagram_automorphism(alg.rs.cartan, perm)

    dim = alg.dim
    cols: list = [None] * dim
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]

    for i in range(n):
        cols[alg.h_index(i)] = {alg.h_index(perm[i]): Q(1)}
        cols[alg.e_index(simple[i])] = {alg.e_index(simple[perm[i]]): Q(1)}
        cols[alg.f_index(simple[i])] = {alg.f_index(simple[perm[i]]): Q(1)}

    # extend to non-simple roots: e_gamma = [e_eps, e_eta]/N_{eps,eta}
    for gamma in alg.rs.positive_roots:
        if sum(gamma) < 2:
            continue
        for alpha in alg.rs.positive_roots:
            beta = sub(gamma, alpha)
            if alg.rs.is_root(beta) and is_positive(beta):
                eps, eta = alpha, beta
                break
        nconst = alg.n_table[eps, eta]
        img_e = alg.bracket(cols[alg.e_index(eps)], cols[alg.e_index(eta)])
        cols[alg.e_index(gamma)] = vec_scale(img_e, Q(1) / nconst)
        nconst_neg = alg.n_table[neg(eps), neg(eta)]
        img_f = alg.bracket(cols[alg.f_index(eps)], cols[alg.f_index(eta)])
        cols[alg.f_index(gamma)] = vec_scale(img_f, Q(1) / nconst_neg)
    return cols


def automorphism_order(alg: ChevalleyAlgebra, cols: list) -> int:
    """Order of an automorphism given by basis-image columns."""
    for order in range(1, 7):
        if all(apply_power(cols, {i: Q(1)}, order) == {i: Q(1)} for i in range(alg.dim)):
            return order
    raise ValueError("order exceeds 6; not a diagram automorphism lift")


def apply_power(cols: list, vec: Vec, k: int) -> Vec:
    for _ in range(k):
        out: Vec = {}
        for i, c in vec.items():
            for j, cj in cols[i].items():
                add_term(out, j, c * cj)
        vec = out
    return vec


def apply_map(cols: list, vec: Vec) -> Vec:
    return apply_power(cols, vec, 1)
