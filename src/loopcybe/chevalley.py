"""Chevalley bases, structure constants, Killing form, Casimir element.

The algebra is realized abstractly on the basis

    e_beta (beta positive, in root order), f_beta, h_1 .. h_n

with integer structure constants fixed by the extraspecial-pair sign
convention: for each non-simple positive gamma the minimal decomposition
gamma = eps + eta gets N_{eps,eta} = +(p+1), and every other constant
follows from antisymmetry, N_{-a,-b} = -N_{a,b}, the rotation rule
N_{a,b}/(c,c) = N_{b,c}/(a,a) for a+b+c = 0, and the Jacobi identity.
The Killing form is read off the root system, never off the table: its
Cartan block is `cartan.killing_cartan`, the one derivation of it in the
package, and kappa(e_b, f_b) = kappa(h_b, h_b)/2 follows by invariance.
So all downstream normalization (coroots, Casimir, twists) is genuinely
the Killing normalization rather than a rescaled invariant form; the tests
check it against exact ad-traces of the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional

from .cartan import (CartanType, Root, RootSystem, add, build_root_system,
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


def vec_eq(x: Vec, y: Vec) -> bool:
    return vec_add(x, y, -1) == {}


@dataclass(frozen=True)
class ChevalleyAlgebra:
    rs: RootSystem
    npos: dict                      # (alpha, beta) -> N for positive pairs
    cartan_gram: tuple              # kappa(h_i, h_j), from cartan.killing_cartan

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
        np_ = self.num_pos
        if idx < np_:
            return self.rs.positive_roots[idx]
        if idx < 2 * np_:
            return neg(self.rs.positive_roots[idx - np_])
        return None

    def root_index(self, r: Root) -> int:
        if is_positive(r):
            return self.e_index(r)
        return self.f_index(neg(r))

    def basis_label(self, idx: int) -> str:
        np_ = self.num_pos
        if idx < np_:
            return "e%d" % idx
        if idx < 2 * np_:
            return "f%d" % (idx - np_)
        return "h%d" % (idx - 2 * np_ + 1)

    def coroot_combo(self, r: Root) -> Vec:
        """[e_r, e_-r] for positive r: h_r = sum c_i (d_i/d_r) h_i."""
        d_r = self.rs.inner(r, r) / 2
        out: Vec = {}
        for i, c in enumerate(r):
            if c:
                k = c * self.rs.d[i] / d_r
                out[self.h_index(i)] = k
        return out

    # ---- structure constants ----------------------------------------------

    def n_constant(self, a: Root, b: Root):
        """N_{a,b} for arbitrary signed roots with a + b a root."""
        return _resolve_n(self.rs, self.npos, a, b)

    def bracket_basis(self, i: int, j: int) -> Vec:
        x, y = self.basis_root(i), self.basis_root(j)
        if x is None and y is None:
            return {}
        if x is None:  # [h_k, e_y]
            k = i - 2 * self.num_pos
            c = self.rs.pairing(y, k)
            return {j: Q(c)} if c else {}
        if y is None:
            k = j - 2 * self.num_pos
            c = self.rs.pairing(x, k)
            return {i: Q(-c)} if c else {}
        s = add(x, y)
        if all(v == 0 for v in s):
            if is_positive(x):
                return self.coroot_combo(x)
            return vec_scale(self.coroot_combo(y), -1)
        if self.rs.is_root(s):
            n = self.n_constant(x, y)
            return {self.root_index(s): Q(n)}
        return {}

    def bracket(self, x: Vec, y: Vec) -> Vec:
        out: Vec = {}
        for i, ci in x.items():
            for j, cj in y.items():
                if i == j:
                    continue
                for k, ck in self.bracket_basis(i, j).items():
                    add_term(out, k, ci * cj * ck)
        return out

    # ---- Killing form and friends ------------------------------------------

    @cached_property
    def killing_gram(self) -> tuple:
        """The Killing form on the whole basis, dense, with Fraction entries.

        The Cartan block is `cartan_gram`.  Off it only kappa(e_b, f_b) is
        nonzero; by invariance it is kappa(h_b, h_b)/2 with h_b = [e_b, f_b].
        """
        h0 = self.h_index(0)
        gram = [[Q(0)] * self.dim for _ in range(self.dim)]
        for i, row in enumerate(self.cartan_gram):
            gram[h0 + i][h0:] = row
        for beta in self.rs.positive_roots:
            h = [(i - h0, x) for i, x in self.coroot_combo(beta).items()]
            c = sum(a * b * self.cartan_gram[i][j] for i, a in h for j, b in h) / 2
            ei, fi = self.e_index(beta), self.f_index(beta)
            gram[ei][fi] = gram[fi][ei] = c
        return tuple(tuple(row) for row in gram)

    def killing(self, x: Vec, y: Vec) -> Q:
        acc = Q(0)
        for i, ci in x.items():
            row = self.killing_gram[i]
            for j, cj in y.items():
                if row[j]:
                    acc += ci * cj * row[j]
        return acc

    def coroot(self, alpha_on_h) -> Vec:
        """The element t in the Cartan with kappa(t, h_i) = alpha(h_i).

        `alpha_on_h` is the tuple of values of the functional on h_1..h_n.
        Raises if the Cartan Gram matrix is singular (it never is for a
        simple algebra; a failure signals a broken root system).
        """
        from .linalg import solve

        sol = solve(self.cartan_gram, [Q(v) for v in alpha_on_h])
        if sol is None:
            raise ValueError("singular Cartan Gram matrix")
        return {self.h_index(i): c for i, c in enumerate(sol) if c}

    def root_functional(self, r: Root) -> tuple:
        """Values of the root r on the Cartan basis h_1..h_n."""
        return tuple(Q(self.rs.pairing(r, i)) for i in range(self.rank))

    def casimir(self) -> dict:
        """Casimir element sum b_a (x) b^a over kappa-dual bases.

        Returned as a sparse g (x) g tensor {(i, j): coeff}.
        """
        from .linalg import mat_inverse

        out: dict = {}
        for beta in self.rs.positive_roots:
            ei, fi = self.e_index(beta), self.f_index(beta)
            out[(ei, fi)] = out[(fi, ei)] = 1 / self.killing_gram[ei][fi]
        n = self.rank
        ginv = mat_inverse(self.cartan_gram)
        for i in range(n):
            for j in range(n):
                if ginv[i][j]:
                    out[(self.h_index(i), self.h_index(j))] = ginv[i][j]
        return out


def _resolve_n(rs: RootSystem, npos: dict, a: Root, b: Root):
    """N_{a,b} for signed roots a, b with a + b a root (Carter's rules)."""
    pa, pb = is_positive(a), is_positive(b)
    if pa and pb:
        return npos[(a, b)]
    if not pa and not pb:
        return -npos[(neg(a), neg(b))]
    if pa:  # mixed with first positive: antisymmetry first
        return -_resolve_n(rs, npos, b, a)
    # a negative, b positive, a+b a root
    c = neg(add(a, b))
    if is_positive(c):
        # rotate once: N_{a,b} = (c,c)/(a,a) N_{b,c}; (b, c) both positive
        return rs.inner(c, c) / rs.inner(a, a) * npos[(b, c)]
    # rotate twice: N_{a,b} = (c,c)/(b,b) N_{c,a} = -(c,c)/(b,b) N_{-c,-a}
    return -rs.inner(c, c) / rs.inner(b, b) * npos[(neg(c), neg(a))]


def _build_constants(rs: RootSystem) -> dict:
    """Positive-pair structure constants via the extraspecial recursion."""
    order = {r: k for k, r in enumerate(rs.positive_roots)}
    npos: dict = {}

    def put(a: Root, b: Root, val) -> None:
        npos[(a, b)] = val
        npos[(b, a)] = -val

    for gamma in rs.positive_roots:
        if sum(gamma) < 2:
            continue
        # decompositions of gamma into ordered pairs of positive roots
        decomps = []
        for alpha in rs.positive_roots:
            if order[alpha] > order[gamma]:
                break
            beta = sub(gamma, alpha)
            if rs.is_root(beta) and is_positive(beta) and order[alpha] < order[beta]:
                decomps.append((alpha, beta))
        eps, eta = decomps[0]  # extraspecial: minimal first component
        put(eps, eta, Q(rs.p_value(eps, eta) + 1))
        for alpha, beta in decomps[1:]:
            # Jacobi on (e_{-eps}, e_alpha, e_beta):
            #   N_{-eps,a} N_{a-eps,b} + N_{b,-eps} N_{b-eps,a} + N_{a,b} N_{g,-eps} = 0
            acc = Q(0)
            if rs.is_root(sub(alpha, eps)):
                acc += _resolve_n(rs, npos, neg(eps), alpha) * \
                    _resolve_n(rs, npos, sub(alpha, eps), beta)
            if rs.is_root(sub(beta, eps)):
                acc += _resolve_n(rs, npos, beta, neg(eps)) * \
                    _resolve_n(rs, npos, sub(beta, eps), alpha)
            denom = _resolve_n(rs, npos, gamma, neg(eps))
            put(alpha, beta, -acc / denom)
    return npos


_ALG_CACHE: dict = {}


def chevalley_algebra(ct: CartanType | str) -> ChevalleyAlgebra:
    """Build (and cache) the Chevalley algebra of the given Cartan type."""
    if isinstance(ct, str):
        ct = CartanType.parse(ct)
    if ct not in _ALG_CACHE:
        rs = build_root_system(ct)
        _ALG_CACHE[ct] = ChevalleyAlgebra(rs, _build_constants(rs), killing_cartan(rs))
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
        nconst = alg.npos[(eps, eta)]
        img_e = alg.bracket(cols[alg.e_index(eps)], cols[alg.e_index(eta)])
        cols[alg.e_index(gamma)] = vec_scale(img_e, Q(1) / nconst)
        nconst_neg = alg.n_constant(neg(eps), neg(eta))
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
