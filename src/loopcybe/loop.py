"""Twisted loop algebras for finite-order automorphisms of type (s; |nu|).

The loop algebra attached to a diagram automorphism nu and a vector s of
non-negative integers is organized around "slots": the joint eigenspace
lines of (nu-eigenvalue class, Cartan weight).  A slot is a g-vector
together with its nu-degree class and its degree class modulo m in the
regraded algebra.  A loop element is a finite sparse sum of z^k * slot
terms with k congruent to the slot's class modulo m.

All affine diagram data (simple root system, affine Cartan matrix,
marks, coroots) is derived rather than read from tables, and it has one
derivation for every nu: `affine_diagram_data` reads it off the int
pairing rows of the root system and nu alone, in int arithmetic and
without structure constants, and the loop algebra adopts its fields.
Tests compare against the tabulated matrices and against the diagram read
off the slots of the full loop algebra.

Elements are held in slot coordinates; tensors and the JSON output stay in
Chevalley coordinates.  The change of basis between the two is the table
`TwistedLoopAlgebra.chev_slots` (Chevalley index -> slot coordinates),
read by `slot_coords`, and `Slot.vec` in the other direction.  Both are
built in one pass over the nu-orbits of the Chevalley basis, with one
small matrix inverse per orbit.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from .cartan import (CartanType, Root, RootSystem, add, build_root_system,
                     check_diagram_automorphism, is_positive, killing_cartan, neg)
from .chevalley import (ChevalleyAlgebra, Vec, add_term, chevalley_algebra,
                        lift_diagram_automorphism, vec_scale)
from .linalg import kernel_basis, mat_inverse, rref_int
from .scalars import CycNumber, Q, zeta
from .value import Value

Weight = tuple  # values of a functional on the fixed Cartan basis


class AffineRoot(tuple):
    """A root (alpha, k): finite weight plus integer loop degree."""

    __slots__ = ()

    def __new__(cls, alpha: Weight, k: int):
        return tuple.__new__(cls, (tuple(alpha), int(k)))

    @property
    def alpha(self) -> Weight:
        return self[0]

    @property
    def k(self) -> int:
        return self[1]


class SigmaType(Value):
    """Automorphism datum (s; |nu|): diagram permutation plus weights s.

    `nu` is a node permutation of the finite diagram (0-indexed tuple),
    identity if None; an identity tuple is stored as None, so that both
    spellings name one diagram.  The derived order is m = |nu| * sum a_i s_i.
    """
    __slots__ = ("cartan_type", "s", "nu")

    def __init__(self, cartan_type: CartanType, s: tuple, nu: Optional[tuple] = None):
        if all(x == 0 for x in s):
            raise ValueError("s must have at least one non-zero entry")
        if any(x < 0 for x in s):
            raise ValueError("s entries must be non-negative")
        object.__setattr__(self, "cartan_type", cartan_type)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "nu", None if nu == tuple(range(cartan_type.rank)) else nu)

    @staticmethod
    def make(type_label: str, s: Sequence[int], nu: Optional[Sequence[int]] = None) -> "SigmaType":
        return SigmaType(CartanType.parse(type_label), tuple(int(x) for x in s),
                         tuple(int(x) for x in nu) if nu is not None else None)


class Slot:
    """One line (or Cartan direction) of the nu-eigenspace decomposition."""

    def __init__(self, index: int, nu_class: int, weight: Weight, vec: Vec,
                 positive: Optional[bool], cartan: bool, nu_base_degree: int, m: int):
        self.index = index
        self.nu_class = nu_class  # j with slot subset of g^nu_j
        self.weight = weight      # int functional values on the fixed Cartan basis
        self.vec = vec            # g-vector in Chevalley coordinates
        self.positive = positive  # sign of the root (weight, nu_class); None if weight = 0
        self.cartan = cartan      # weight 0 at nu-class 0
        self.nu_base_degree = nu_base_degree  # hgt_s of the nu-root (weight, nu_class)
        self.sigma_class = nu_base_degree % m  # degree class modulo m after regrading

    def label(self) -> str:
        w = ",".join(str(x) for x in self.weight)
        return "[w=(%s);j=%d]" % (w, self.nu_class)


class LoopElement:
    """Finite sparse sum of z^k x terms, graded-consistently for one sigma."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: "TwistedLoopAlgebra", terms: Optional[dict] = None):
        self.algebra = algebra
        self.terms = {}
        if terms:
            for key, c in terms.items():
                if c != 0:
                    self.terms[key] = c

    def __add__(self, other: "LoopElement") -> "LoopElement":
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_term(out, k, c)
        return LoopElement(self.algebra, out)

    def __sub__(self, other: "LoopElement") -> "LoopElement":
        return self + other.scale(-1)

    def scale(self, c) -> "LoopElement":
        return LoopElement(self.algebra, vec_scale(self.terms, c))

    def __eq__(self, other) -> bool:
        return isinstance(other, LoopElement) and self.algebra is other.algebra \
            and self.terms == other.terms

    def __hash__(self):
        raise TypeError("LoopElement is unhashable")

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> list[int]:
        return sorted({k for (_, k) in self.terms})

    def _check(self, other: "LoopElement") -> None:
        if self.algebra is not other.algebra:
            raise ValueError("loop elements over different algebras")

    def chev_parts(self) -> dict:
        """degree k -> g-vector (Chevalley coordinates)."""
        out: dict = {}
        for (sid, k), c in self.terms.items():
            vec = self.algebra.slots[sid].vec
            acc = out.setdefault(k, {})
            for i, ci in vec.items():
                add_term(acc, i, c * ci)
        return {k: v for k, v in out.items() if v}

    def __repr__(self) -> str:
        bits = []
        for (sid, k), c in sorted(self.terms.items()):
            bits.append("%s * z^%d %s" % (c, k, self.algebra.slots[sid].label()))
        return "Loop(" + " + ".join(bits) + ")" if bits else "Loop(0)"


class TwistedLoopAlgebra:
    """The loop algebra of an automorphism of type (s; |nu|).

    `affine_cartan[i][j]` is 2 (alpha_i, alpha_j) / (alpha_j, alpha_j), the
    transpose of Kac's a_ij = <alpha_i^vee, alpha_j>: compare it with a
    published table (Kac, Table Aff) only after transposing.
    """

    def __init__(self, sigma: SigmaType):
        vars(self).update(vars(affine_diagram_data(sigma)))   # adopt the diagram's fields
        self.alg: ChevalleyAlgebra = chevalley_algebra(sigma.cartan_type)
        self.nu_cols = (lift_diagram_automorphism(self.alg, self.nu_perm)
                        if self.nu_order > 1 else None)
        self._decomp_cache: dict = {}
        # the orbit sums of the simple coroots span the fixed Cartan
        self.h_basis = [{self.alg.h_index(i): Q(1) for i in orbit} for orbit in self.orbits]
        self._build_slots()
        self.node_nu_degree: list[int] = [1] + [0] * self.nh

    # ------------------------------------------------------------------ setup

    def _weight_of_root(self, r: Root) -> Weight:
        return _restrict(self.alg.rs, self.orbits, r)

    def _build_slots(self) -> None:
        """The slots and `chev_slots`, in one pass over the nu-orbits of the
        Chevalley basis, visited from e_beta and f_beta for each positive
        root in turn, then from h_1 .. h_n.

        The lift of nu sends each basis vector to a multiple of one basis
        vector (every vector to itself when nu = id), so each orbit spans a
        nu-stable space: its zeta^j-eigenvectors are slots of nu-class j, and
        the inverse of their matrix gives the slot coordinates of its vectors.
        """
        alg, r = self.alg, self.nu_order
        cols = self.nu_cols or [{i: Q(1)} for i in range(alg.dim)]   # nu = id fixes each vector
        slots: list[Slot] = []
        self.chev_slots: dict = {}   # Chevalley index i -> [(slot, coeff)], the slots of e_i
        starts = [i for b in alg.rs.positive_roots for i in (alg.e_index(b), alg.f_index(b))]
        for start in starts + [alg.h_index(i) for i in range(alg.rank)]:
            if start in self.chev_slots:
                continue
            idxs = [start]
            for idx in idxs:   # nu sends each basis vector to a multiple of one
                img, = cols[idx]
                if img != start:
                    idxs.append(img)
            mat = [[cols[i].get(k, Q(0)) for i in idxs] for k in idxs]   # nu on the orbit span
            rho = alg.basis_root(start)
            wt = (0,) * self.nh if rho is None else self._weight_of_root(rho)
            first = len(slots)
            for j in range(r):
                for v in _eigen_kernel(mat, j, r):
                    slots.append(Slot(len(slots), j, wt, {i: x for i, x in zip(idxs, v) if x},
                                      None if rho is None else is_positive(rho),
                                      rho is None and j == 0, self.s_height(wt, j), self.m))
            vecs = [[s.vec.get(i, Q(0)) for s in slots[first:]] for i in idxs]
            inv = [[Q(1) / vecs[0][0]]] if len(idxs) == 1 else mat_inverse(vecs)
            for i, col in zip(idxs, zip(*inv)):
                self.chev_slots[i] = [(first + k, c) for k, c in enumerate(col) if c]

        self.slots = slots
        # lookup: restricted weight -> slot indices, across nu-classes
        self._by_weight: dict = {}
        for s in slots:
            self._by_weight.setdefault(s.weight, []).append(s.index)
        for w, ids in self._by_weight.items():
            if any(w) and len({slots[sid].nu_class for sid in ids}) != len(ids):
                raise AssertionError("a root space of weight %s is not one-dimensional" % (w,))

    @cached_property
    def h_slots(self) -> list:
        """The slot of each h_basis vector, so of each fixed-Cartan coordinate.

        Each h_basis vector is checked to be one Cartan slot with coefficient
        1, so fixed-Cartan coordinates are read straight off slot terms.
        """
        parts = [self.slot_coords(hv) for hv in self.h_basis]
        if any(list(p.values()) != [1] or not self.slots[next(iter(p))].cartan for p in parts):
            raise AssertionError("an h_basis vector is not one Cartan slot")
        return [next(iter(p)) for p in parts]

    @cached_property
    def h_elements(self) -> list:
        """The fixed-Cartan basis h_basis as degree-0 loop elements."""
        return [LoopElement(self, {(sid, 0): Q(1)}) for sid in self.h_slots]

    # -------------------------------------------------------------- structure

    def decompose_pair(self, weight: Weight, k: int) -> list:
        """Integer coefficients of the nu-root (weight, k) over Pi, in int
        arithmetic; a coefficient that is not an integer raises."""
        key = (weight, k)
        if key in self._decomp_cache:
            return self._decomp_cache[key]
        # alpha_0 carries nu-degree 1, all other nodes degree 0
        rest = [w - k * a0 for w, a0 in zip(weight, self.node_weights[0])]
        rows, den = self._pi_inverse
        out = [k] + [_int_ratio(sum(map(mul, row, rest)), den) for row in rows]
        self._decomp_cache[key] = out
        return out

    def s_height(self, weight: Weight, k: int) -> int:
        """hgt_s of a nu-root; decomposition must be integral."""
        cs = self.decompose_pair(weight, k)
        return sum(c * s for c, s in zip(cs, self.sigma.s))

    def zero(self) -> LoopElement:
        return LoopElement(self)

    def element(self, terms: dict) -> LoopElement:
        for (sid, k) in terms:
            slot = self.slots[sid]
            if (k - slot.sigma_class) % self.m != 0:
                raise ValueError("degree %d not allowed for slot %d (class %d mod %d)"
                                 % (k, sid, slot.sigma_class, self.m))
        return LoopElement(self, terms)

    def from_chev(self, k: int, gvec: Vec) -> LoopElement:
        """z^k * (g-vector); fails if the vector is not in g^sigma_k."""
        out: dict = {}
        for sid, c in self.slot_coords(gvec).items():
            slot = self.slots[sid]
            if (k - slot.sigma_class) % self.m != 0:
                raise ValueError("vector has a component outside g^sigma_%d" % k)
            out[(sid, k)] = c
        return LoopElement(self, out)

    def slot_coords(self, gvec: Vec) -> dict:
        """Write a g-vector as a combination of slots; returns slot -> coeff."""
        out: dict = {}
        for i, c in gvec.items():
            parts = self.chev_slots.get(i)
            if parts is None:
                raise ValueError("%r is not a basis index of g" % (i,))
            for sid, cs in parts:
                add_term(out, sid, c * cs)
        return out

    def bracket(self, f: LoopElement, g: LoopElement) -> LoopElement:
        f._check(g)
        if f.algebra is not self:
            raise ValueError("element of a different algebra")
        return self.bracket_parts(f.chev_parts(), g.chev_parts())

    def bracket_parts(self, fparts: dict, gparts: dict) -> LoopElement:
        """[f, g] from the Chevalley parts (`LoopElement.chev_parts`) of f and g."""
        acc: dict = {}
        for kf, vf in fparts.items():
            for kg, vg in gparts.items():
                br = self.alg.bracket(vf, vg)
                if not br:
                    continue
                for sid, c in self.slot_coords(br).items():
                    add_term(acc, (sid, kf + kg), c)
        return LoopElement(self, acc)

    @cached_property
    def slot_pairing(self) -> list:
        """For each slot s, the pairs (t, kappa(x_s, x_t)) with kappa != 0.

        kappa pairs a weight space only with the opposite one, so the
        partners of s are taken from the slots of weight -w alone.
        """
        out = []
        for slot in self.slots:
            wneg = tuple(-x for x in slot.weight)
            partners = []
            for t in self._by_weight[wneg]:
                kappa = self.alg.killing(slot.vec, self.slots[t].vec)
                if kappa:
                    partners.append((t, kappa))
            out.append(partners)
        return out

    def form(self, f: LoopElement, g: LoopElement):
        """B(z^j x, z^k y) = delta_{j+k,0} kappa(x, y), on slot coordinates."""
        f._check(g)
        acc = Q(0)
        gterms = g.terms
        for (s, k), c in f.terms.items():
            for t, kappa in self.slot_pairing[s]:
                d = gterms.get((t, -k))
                if d:
                    acc += c * d * kappa
        return acc

    # ------------------------------------------------------------------ roots

    def root_slot(self, w: Weight, k: int) -> Optional[int]:
        """The slot of the real root (w, k), or None if (w, k) is no real root.

        A root space is one line (checked when the slots are built), so the
        slots of weight w have distinct nu-classes, hence distinct degree
        classes modulo m, and at most one of them matches k.
        """
        if not any(w):
            return None
        for sid in self._by_weight.get(w, ()):
            if (k - self.slots[sid].sigma_class) % self.m == 0:
                return sid
        return None

    def roots_of_degree(self, k: int) -> list:
        """All sigma-roots (weight, k) at loop degree k, as slot indices."""
        out = []
        for s in self.slots:
            if s.positive is not None and (k - s.sigma_class) % self.m == 0:
                out.append(s.index)
        return out

    def basis_of_degree(self, k: int) -> list[LoopElement]:
        """Basis of the degree-k slice z^k g^sigma_k."""
        out = []
        for s in self.slots:
            if (k - s.sigma_class) % self.m == 0:
                out.append(LoopElement(self, {(s.index, k): Q(1)}))
        return out

    def graded_piece(self, k: int) -> list[Vec]:
        """Basis of the eigenspace g^sigma_k, as g-vectors."""
        return [s.vec for s in self.slots if (k - s.sigma_class) % self.m == 0]

    def basis_up_to(self, d: int) -> list[LoopElement]:
        out: list[LoopElement] = []
        for k in range(-d, d + 1):
            out.extend(self.basis_of_degree(k))
        return out

    def roots_up_to(self, d: Optional[int] = None) -> list[AffineRoot]:
        """All roots (alpha, k) with |k| <= d (default 3m).

        The algebra is infinite-dimensional; every implemented identity
        involves bounded degrees, so enumeration is by window.  Roots
        with alpha = 0 (imaginary directions, k != 0) are included with
        their multiplicity collapsed to one entry.
        """
        if d is None:
            d = 3 * self.m
        out: list[AffineRoot] = []
        seen: set = set()
        for k in range(-d, d + 1):
            for elem in self.basis_of_degree(k):
                (sid, _), = elem.terms
                slot = self.slots[sid]
                if slot.positive is None and k == 0:
                    continue
                root = AffineRoot(slot.weight, k)
                if root not in seen:
                    seen.add(root)
                    out.append(root)
        return out

    def root_positive(self, sid: int, k: int) -> bool:
        """Positivity of the root carried by slot `sid` at degree k."""
        slot = self.slots[sid]
        if slot.positive is None and k == 0:
            raise ValueError("Cartan directions carry no sign")
        nu_k = self.nu_root_degree(sid, k)
        if nu_k > 0:
            return True
        if nu_k < 0:
            return False
        return bool(slot.positive)

    def split(self, f: LoopElement) -> tuple:
        """(plus, minus, cartan) parts of f: its terms on positive roots, on
        negative roots, and on the Cartan directions at degree 0."""
        parts: tuple = ({}, {}, {})
        for (sid, k), c in f.terms.items():
            if self.slots[sid].positive is None and k == 0:
                part = parts[2]
            else:
                part = parts[0] if self.root_positive(sid, k) else parts[1]
            part[(sid, k)] = c
        return tuple(LoopElement(self, p) for p in parts)

    def nu_root_degree(self, sid: int, k: int) -> int:
        """nu-degree of the nu-root regrading to (slot sid, degree k)."""
        slot = self.slots[sid]
        t = (k - slot.nu_base_degree) // self.m if self.m else 0
        assert slot.nu_base_degree + t * self.m == k
        return slot.nu_class + t * self.nu_order

    def root_vector_pair(self, sid: int, k: int) -> tuple[LoopElement, LoopElement]:
        """(b, b_dual) spanning the (root, -root) spaces with B(b, b_dual) = 1."""
        slot = self.slots[sid]
        if slot.positive is None:
            raise ValueError("not a root direction (alpha = 0)")
        # the opposite slot: a kappa partner of sigma class -k mod m
        cands = [(t, kappa) for t, kappa in self.slot_pairing[sid]
                 if (-k - self.slots[t].sigma_class) % self.m == 0]
        if len(cands) != 1:
            raise AssertionError("opposite root space not unique or degenerate")
        (t, kappa), = cands
        return LoopElement(self, {(sid, k): Q(1)}), LoopElement(self, {(t, -k): 1 / kappa})

    # ------------------------------------------------------------- generators

    def coroot_element(self, i: int) -> LoopElement:
        """H_i = 2 t_i / B(t_i, t_i) where t_i is the kappa-coroot of node i."""
        nrm = self.coroot_gram[i][i]
        return LoopElement(self, {(sid, 0): 2 * c / nrm
                                  for sid, c in zip(self.h_slots, self.node_coroots[i])})

    def generators(self) -> list[dict]:
        """Affine Chevalley generators {X-: , H: , X+: } per node; shared, never mutate it."""
        return self._generators

    @cached_property
    def _generators(self) -> list[dict]:
        out = []
        for i in range(len(self.node_weights)):
            w = self.node_weights[i]
            si = self.sigma.s[i]
            plus, minus = self.root_slot(w, si), self.root_slot(neg(w), -si)
            assert plus is not None and minus is not None
            xp = LoopElement(self, {(plus, si): Q(1)})
            xm = LoopElement(self, {(minus, -si): Q(1)})
            h = self.coroot_element(i)
            # scale X- so that [X+, X-] = H
            br = self.bracket(xp, xm)
            ratio = _element_ratio(br, h)
            out.append({"minus": xm.scale(1 / ratio), "h": h, "plus": xp})
        return out

    # -------------------------------------------------------------- parabolic

    def parabolic_basis(self, S: Iterable[int], d: int) -> list[LoopElement]:
        """Basis of p^S_+ truncated to |degree| <= d.

        p^S_+ = B_+ + N^S_-: the positive Borel plus the negative root
        spaces of roots supported on S.
        """
        S = set(S)
        if S >= set(range(len(self.node_weights))):
            raise ValueError("S must be a proper subset of the affine nodes")
        return [e for e in self.basis_up_to(d) if self.in_parabolic(e, S, d)]

    def in_parabolic(self, f: LoopElement, S: Iterable[int], d: int) -> bool:
        """Membership test for p^S_+ among elements of degree bound d."""
        S = set(S)
        _, minus, _ = self.split(f)
        return all(self.root_in_span(sid, k, S) for (sid, k) in minus.terms)

    def root_in_span(self, sid: int, k: int, S) -> bool:
        """Whether the root of slot `sid` at degree k is a combination of the
        nodes in S alone; never for an imaginary root when S is proper."""
        cs = self.decompose_pair(self.slots[sid].weight, self.nu_root_degree(sid, k))
        return all(c == 0 for i, c in enumerate(cs) if i not in S)


def _element_ratio(x: LoopElement, y: LoopElement):
    """Scalar c with x = c y (both nonzero, same support)."""
    if x.terms.keys() != y.terms.keys():
        raise ValueError("elements are not proportional")
    ratios = {x.terms[k] / y.terms[k] for k in x.terms}
    if len(ratios) != 1:
        raise ValueError("elements are not proportional")
    return ratios.pop()


def _nu_perm(rank: int, nu: Optional[Sequence[int]]) -> tuple:
    return tuple(nu) if nu is not None else tuple(range(rank))


def _perm_orbits(perm: tuple) -> list[list[int]]:
    seen: set = set()
    orbits = []
    for i in range(len(perm)):
        if i in seen:
            continue
        orbit = [i]
        seen.add(i)
        j = perm[i]
        while j != i:
            orbit.append(j)
            seen.add(j)
            j = perm[j]
        orbits.append(orbit)
    return orbits


def _perm_root(perm: tuple, r: Root) -> Root:
    out = [0] * len(r)
    for i, c in enumerate(r):
        out[perm[i]] = c
    return tuple(out)


def _restrict(rs: RootSystem, orbits: list, r: Root) -> Weight:
    """The root r restricted to the fixed Cartan: its int values on the orbit
    sums of the simple coroots."""
    row = rs.pairings[r]
    return tuple(sum(row[i] for i in orbit) for orbit in orbits)


def _eigen_kernel(mat: list, j: int, r: int) -> list:
    """Basis of the zeta_r^j eigenspace of a small rational matrix, over Q
    for r <= 2 and over Q(zeta_3) for r = 3; a 1 x 1 matrix takes no solve."""
    one = Q(1) if r <= 2 else CycNumber(1)
    lam = zeta(r, j)
    n = len(mat)
    if n == 1:
        return [[one]] if mat[0][0] == lam else []
    a = [[one * mat[i][k] - (lam if i == k else 0) for k in range(n)] for i in range(n)]
    return kernel_basis(a, one * 0, one)


def _int_ratio(a: int, b: int) -> int:
    """a / b for ints that b divides; anything else is a broken diagram."""
    c, rem = divmod(a, b)
    if rem:
        raise AssertionError("expected an integer, got %s" % Q(a, b))
    return c


_LOOP_CACHE: dict = {}


def loop_algebra(sigma: SigmaType) -> TwistedLoopAlgebra:
    key = (sigma.cartan_type, sigma.s, sigma.nu)
    if key not in _LOOP_CACHE:
        _LOOP_CACHE[key] = TwistedLoopAlgebra(sigma)
    return _LOOP_CACHE[key]


class AffineDiagramData:
    """Affine diagram data without the structure-constant machinery.

    This is the one derivation of the diagram, for every nu; the loop
    algebra adopts these fields, so the quadruple-condition code runs on
    either.  `h_gram` is the Killing form on the fixed Cartan basis, the
    orbit sums of the simple coroots: `cartan.killing_cartan` summed over
    the nu-orbits.  `node_weights[0]` is alpha_0, of nu-degree 1, and the
    rest are the simple roots of the fixed subalgebra, as functionals on
    that basis.  Both are int matrices, and so is everything derived here.
    One fraction-free reduction of [h_gram | w_0 ... w_n] leaves every pivot
    equal to one int p (`rref_int`), so each node coroot t_w = h_gram^{-1} w
    is an int row over p, and so is the coroot Gram (t_x, t_y) = y(t_x).
    They are the only Fraction fields, since only they carry a denominator.
    `affine_cartan` is 2 (t_i, t_j) / (t_j, t_j), an exact int quotient,
    stored transposed against Kac's a_ij, there as here.  One reduction of
    [w_1 .. w_n | I] gives `_pi_inverse`, the int inverse of the fixed simple
    roots over one pivot, and the marks are read off it as the coefficients
    of delta = (0, 1): sum a_i alpha_i = 0 on the fixed Cartan, a_0 = 1.
    """

    def __init__(self, sigma: SigmaType, h_gram: list, node_weights: list, nu_perm: tuple,
                 orbits: list):
        self.sigma = sigma
        self.nu_perm = nu_perm
        self.orbits = orbits
        self.nu_order = lcm(*map(len, orbits))
        self.nh = nh = len(h_gram)
        self.h_gram = h_gram
        self.node_weights = node_weights
        nodes = len(node_weights)
        red, pivots = rref_int([list(h_gram[r]) + [w[r] for w in node_weights]
                                for r in range(nh)])
        if pivots != list(range(nh)):
            raise ValueError("singular Cartan Gram matrix")
        p = red[0][0]
        coroots = [[row[nh + k] for row in red] for k in range(nodes)]         # p t_k
        gram = [[sum(map(mul, x, y)) for y in node_weights] for x in coroots]  # p (t_x, t_y)
        self.node_coroots = [[Q(c, p) for c in row] for row in coroots]
        self.coroot_gram = [[Q(c, p) for c in row] for row in gram]
        self.affine_cartan = [[_int_ratio(2 * gram[i][j], gram[j][j]) for j in range(nodes)]
                              for i in range(nodes)]
        red, pivots = rref_int([[w[t] for w in node_weights[1:]]
                                + [int(t == c) for c in range(nh)] for t in range(nh)])
        if pivots != list(range(nh)):
            raise AssertionError("the simple roots of the fixed subalgebra are dependent")
        self._pi_inverse = rows, den = [row[nh:] for row in red], red[0][0]
        self.marks = [1] + [_int_ratio(-sum(map(mul, row, node_weights[0])), den)
                            for row in rows]
        if any(a <= 0 for a in self.marks):
            raise AssertionError("marks must be positive")
        self.m = self.nu_order * sum(map(mul, self.marks, sigma.s))
        # (node functionals on (h^nu, d) with alpha_i(d) = s_i, node coroots,
        # scale d): both lists times d, the least common denominator of the
        # coroots, so ints, for `bd._condition3_system`
        d = lcm(*(abs(p) // gcd(c, p) for row in coroots for c in row))
        self.integer_nodes = ([[x * d for x in (*w, si)] for w, si in zip(node_weights, sigma.s)],
                              [[c * d // p for c in row] for row in coroots], d)


_DIAGRAM_CACHE: dict = {}


def affine_node_count(cartan_type: CartanType, nu: Optional[Sequence[int]]) -> int:
    """Nodes of the affine diagram, so entries of s: one per nu-orbit of the
    finite nodes, plus alpha_0."""
    return len(_perm_orbits(_nu_perm(cartan_type.rank, nu))) + 1


def affine_diagram_data(sigma: SigmaType) -> AffineDiagramData:
    """The affine diagram of sigma, read off the root system and nu alone.

    Let r be the order of nu and g_1 the zeta_r-eigenspace of nu (g itself
    when nu = id).  The simple roots of g^nu are the restrictions
    alpha_i|h^nu, one per nu-orbit; for an outer nu they are sorted, which
    fixes the node order.  alpha_0 is the lowest weight of g_1.  The nonzero
    weights of g_1 are the restrictions of the roots in nu-orbits of size r
    and, when r = 2, of each nu-fixed root beta = gamma + nu(gamma) with
    gamma a root, since nu e_beta = -e_beta there (this happens only on
    A_2l).  A restriction has the height of its root, so alpha_0 is the
    restriction of a lowest such root: -theta when nu = id.
    """
    key = (sigma.cartan_type, sigma.s, sigma.nu)
    if key not in _DIAGRAM_CACHE:
        rs = build_root_system(sigma.cartan_type)
        perm = _nu_perm(rs.rank, sigma.nu)
        check_diagram_automorphism(rs.cartan, perm)
        nodes = affine_node_count(sigma.cartan_type, sigma.nu)
        if len(sigma.s) != nodes:
            raise ValueError("s must have %d entries for this diagram" % nodes)
        orbits = _perm_orbits(perm)
        r = lcm(*map(len, orbits))
        kc = killing_cartan(rs)
        h_gram = [[sum(kc[i][j] for i in a for j in b) for b in orbits] for a in orbits]
        # the roots whose restrictions are the nonzero weights of g_1
        g1 = [rho for rho in rs.all_roots if r == 1 or _perm_root(perm, rho) != rho]
        if r == 2:
            g1 += [beta for beta in (add(g, _perm_root(perm, g)) for g in rs.all_roots)
                   if rs.is_root(beta)]
        # alpha_j (one j per orbit) on the orbit sum of the h_i: the a_ji summed over it
        simple = [tuple(sum(rs.cartan[j][i] for i in orbit) for orbit in orbits)
                  for j, *_ in orbits]
        if r > 1:
            simple.sort()
        node_weights = [_restrict(rs, orbits, min(g1, key=sum))] + simple
        _DIAGRAM_CACHE[key] = AffineDiagramData(sigma, h_gram, node_weights, perm, orbits)
    return _DIAGRAM_CACHE[key]
