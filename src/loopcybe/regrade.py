"""Regrading isomorphisms between gradings and regular-equivalence actions.

Regrading moves a loop element between the algebras of two weight
vectors s, s' sharing the same diagram automorphism: a root vector at
degree hgt_s goes to the same g-vector at degree hgt_{s'}.  The
exponential comparison of the two basic solutions is verified at the
level of exact rational exponents: writing x = e^{u/m}, a root term of
the series carries the exponent hgt_s/m + alpha(mu), and the identity
says this equals hgt_{s'}/m' term by term.

Regular equivalences come in the three families the classification
proofs actually use: exp(ad n) for nilpotent n, the rescalings
z -> a z, and diagram-automorphism-induced maps.  Each is a plain
function from loop elements to loop elements, defined at every degree;
`apply_equivalence` reads the degree range a diagram map must reach off
the legs of the tensor it moves.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .chevalley import add_term
from .classify import loop_diagram_automorphisms
from .linalg import solve
from .loop import LoopElement, TwistedLoopAlgebra
from .tensors import (Laurent2, TwoPointTensor, _exact_div_clear, t2_add, tensor_from_slots,
                      tensor_to_slots)

Q = Fraction


class ExponentialMonomial(NamedTuple):
    """Scalar factor exp(p u + q v) attached to a tensor slot pair.

    Exponents are exact rationals; these are the objects the regrading
    comparison matches term by term (nothing is evaluated numerically).
    """
    slots: tuple       # (slot of -alpha at -k, slot of alpha at k)
    p: Fraction
    q: Fraction


def _check_same_family(src: TwistedLoopAlgebra, dst: TwistedLoopAlgebra) -> None:
    if src.sigma.cartan_type != dst.sigma.cartan_type or src.nu_perm != dst.nu_perm:
        raise ValueError("regrading requires the same algebra and diagram automorphism")


def _regrade_leg(src: TwistedLoopAlgebra, dst: TwistedLoopAlgebra, leg: tuple) -> tuple:
    sid, k = leg
    return sid, dst.s_height(src.slots[sid].weight, src.nu_root_degree(sid, k))


def regrade_element(src: TwistedLoopAlgebra, dst: TwistedLoopAlgebra,
                    f: LoopElement) -> LoopElement:
    """G^{s'}_s: z^{hgt_s} x -> z^{hgt_{s'}} x on root vectors, identity on h."""
    _check_same_family(src, dst)
    out: dict = {}
    for leg, c in f.terms.items():
        add_term(out, _regrade_leg(src, dst, leg), c)
    return LoopElement(dst, out)


def regrade_loop_tensor(src: TwistedLoopAlgebra, dst: TwistedLoopAlgebra,
                        t: Laurent2) -> Laurent2:
    """Regrade both legs of a finite two-leg loop tensor."""
    _check_same_family(src, dst)
    return _move_legs(dst, tensor_to_slots(src, t), lambda leg: {_regrade_leg(src, dst, leg): 1})


def solve_mu(src: TwistedLoopAlgebra, dst: TwistedLoopAlgebra) -> list:
    """The Cartan element mu with alpha_i(mu) = s'_i/m' - s_i/m for all nodes.

    Returned in fixed-Cartan coordinates; existence follows from the
    marks relation (checked by solving the full overdetermined system).
    """
    _check_same_family(src, dst)
    nodes = len(src.node_weights)
    rows = [list(map(Q, src.node_weights[i])) for i in range(nodes)]
    rhs = [Q(dst.sigma.s[i], dst.m) - Q(src.sigma.s[i], src.m) for i in range(nodes)]
    sol = solve(rows, rhs)
    if sol is None:
        raise ValueError("mu system inconsistent: marks relation violated")
    return sol


def exponent_identity(src: TwistedLoopAlgebra, dst: TwistedLoopAlgebra) -> dict:
    """Term-by-term exponent comparison of the two basic solutions.

    For every root direction, at its nu-class and two periods either side,
    checks the exact rational identity hgt_s/m + alpha(mu) = hgt_{s'}/m'.
    Returns a report with the checked terms; "ok" is True iff every term
    matches.
    """
    _check_same_family(src, dst)
    mu = solve_mu(src, dst)
    terms = []
    ok = True
    for slot in src.slots:
        if slot.positive is None and slot.cartan:
            # Cartan term: exponent 0 on both sides, e^{u ad mu} fixes h
            continue
        alpha_mu = sum(w * m for w, m in zip(slot.weight, mu))
        dual = src.slot_pairing[slot.index][0][0]     # the slot of -alpha at -k
        for t in range(-2, 3):
            nu_k = slot.nu_class + t * src.nu_order
            lhs = Q(src.s_height(slot.weight, nu_k), src.m) + alpha_mu
            rhs = Q(dst.s_height(slot.weight, nu_k), dst.m)
            match = lhs == rhs
            ok = ok and match
            pair = (dual, slot.index)
            terms.append({"weight": slot.weight, "nu_degree": nu_k,
                          "lhs": ExponentialMonomial(pair, -lhs, lhs),
                          "rhs": ExponentialMonomial(pair, -rhs, rhs),
                          "match": match})
    return {"ok": ok, "terms": terms}


def quotient_dependence(r: TwoPointTensor) -> bool:
    """True iff every Laurent monomial x^a y^b satisfies a + b = 0.

    The pole part has this shape structurally, so only the polynomial
    part needs inspection; such tensors are functions of x/y alone.
    """
    return loop_tensor_balanced(r.poly)


def loop_tensor_balanced(t: Laurent2) -> bool:
    return all(dx + dy == 0 for (dx, dy, _, _) in t)


# ---------------------------------------------------------- equivalence maps


def exp_ad_map(L: TwistedLoopAlgebra, n: LoopElement):
    """exp(ad n) as a function on loop elements; n must act nilpotently.

    For nilpotent n, ad n(z) is a nilpotent matrix of size dim g at every
    point z != 0, so ad(n)^k f vanishes by k = dim g; a series still going
    after dim g + 1 steps means n is not nilpotent.
    """
    steps = L.alg.dim + 1

    def phi(f: LoopElement) -> LoopElement:
        acc = cur = f
        for step in range(1, steps + 1):
            cur = L.bracket(n, cur)
            if cur.is_zero():
                return acc
            acc = acc + cur.scale(Q(1, math.factorial(step)))
        raise ValueError("element does not act nilpotently within %d steps" % steps)

    return phi


def rescale_map(L: TwistedLoopAlgebra, a: Fraction):
    """mu_a: f(z) -> f(a z), i.e. z^k x -> a^k z^k x, as a function on loop elements."""
    a = Q(a)
    if a == 0:
        raise ValueError("rescaling must be by a nonzero scalar")
    return lambda f: LoopElement(L, {(sid, k): c * a ** k for (sid, k), c in f.terms.items()})


class _TrackedSpan:
    """Incremental Gaussian elimination that carries images along.

    Inserting (v, phi v) pairs maintains a reduced basis; `express`
    returns the image of any vector in the accumulated span.
    """

    def __init__(self, L: TwistedLoopAlgebra):
        self.L = L
        self.rows: dict = {}    # pivot key -> (element, image), element[pivot] = 1

    def _reduce(self, v: LoopElement, img: LoopElement):
        while True:
            key = next((key for key in v.terms if key in self.rows), None)
            if key is None:
                return v, img
            c = v.terms[key]
            bv, bimg = self.rows[key]
            v, img = v - bv.scale(c), img - bimg.scale(c)

    def insert(self, v: LoopElement, img: LoopElement) -> bool:
        v, img = self._reduce(v, img)
        if v.is_zero():
            return False
        key = max(v.terms)
        c = v.terms[key]
        self.rows[key] = (v.scale(1 / c), img.scale(1 / c))
        return True

    def express(self, v: LoopElement) -> LoopElement:
        red, img = self._reduce(v, self.L.zero())
        if not red.is_zero():
            raise AssertionError("%r is outside the span the generators closed to" % (v,))
        return img.scale(-1)


def diagram_map(L: TwistedLoopAlgebra, perm: tuple, degree: int):
    """The equivalence phi'(z^{+-s_i} X_i^pm(1)) = z^{+-s_{theta(i)}} X_{theta(i)}^pm(1),
    as a function on loop elements of degrees |k| <= degree.

    The affine generators generate the whole loop algebra: their brackets,
    closed up to degree degree + max s + m, span every such element, and
    the span closure tracks images through the elimination.  Each closure
    element has one weight and one degree, so a pair is bracketed only when
    some slot has the weight and degree its bracket would have.  An element
    and its image are kept as their Chevalley parts, worked out once.
    """
    if tuple(perm) not in loop_diagram_automorphisms(L):
        raise ValueError("permutation is not a diagram automorphism")
    margin = degree + max(L.sigma.s) + L.m
    grades = {(s.weight, s.sigma_class) for s in L.slots}
    span = _TrackedSpan(L)
    gens = L.generators()
    frontier = []
    for i, g in enumerate(gens):
        for key_name in ("plus", "minus", "h"):
            src, dst = g[key_name], gens[perm[i]][key_name]
            if span.insert(src, dst):
                sid, k = next(iter(src.terms))
                frontier.append((src.chev_parts(), dst.chev_parts(), L.slots[sid].weight, k))
    known = list(frontier)
    while frontier:
        new = []
        for (a, ia, wa, ka) in frontier:
            for (b, ib, wb, kb) in known:
                w, k = tuple(x + y for x, y in zip(wa, wb)), ka + kb
                if abs(k) > margin or (w, k % L.m) not in grades:
                    continue
                br = L.bracket_parts(a, b)
                if br.is_zero():
                    continue
                img = L.bracket_parts(ia, ib)
                if span.insert(br, img):
                    new.append((br.chev_parts(), img.chev_parts(), w, k))
        known.extend(new)
        frontier = new
    return span.express


# ------------------------------------------------------- action on r-matrices


def _move_legs(L: TwistedLoopAlgebra, st: dict, image) -> Laurent2:
    """The slot tensor st = {(x, y): c} with both legs sent through `image`,
    which gives a leg's image as a terms dict, as a Laurent tensor on L."""
    moved: dict = {}
    for (x, y), c in st.items():
        for x2, cx in image(x).items():
            for y2, cy in image(y).items():
                add_term(moved, (x2, y2), c * cx * cy)
    return tensor_from_slots(L, moved)


def apply_equivalence(desc: dict, r: TwoPointTensor) -> TwoPointTensor:
    """(phi(x) (x) phi(y)) r(x, y) for a supported equivalence family.

    desc is {"kind": "exp_ad"|"rescale"|"diagram", ...}:
      exp_ad: {"element": LoopElement}
      rescale: {"a": rational}
      diagram: {"perm": node permutation}
    A diagram map is built for the largest |degree| of a leg of r.  The
    result is again of two-point-tensor shape: the pole numerator is
    untouched and the induced finite correction is absorbed in the
    polynomial part.
    """
    L = r.L
    pole = r.pole_tensor()
    parts = [tensor_to_slots(L, r.poly), tensor_to_slots(L, pole)]
    kind = desc.get("kind")
    if kind == "exp_ad":
        phi = exp_ad_map(L, desc.get("element"))
    elif kind == "rescale":
        phi = rescale_map(L, desc.get("a"))
    elif kind == "diagram":
        degree = max((abs(k) for st in parts for legs in st for (_, k) in legs), default=0)
        phi = diagram_map(L, tuple(desc.get("perm", ())), degree)
    else:
        raise ValueError("unsupported equivalence family %r" % (kind,))

    @cache                  # each leg's image is computed once per call
    def image(leg) -> dict:
        return phi(LoopElement(L, {leg: Q(1)})).terms

    new_poly, moved = (_move_legs(L, st, image) for st in parts)
    correction = _exact_div_clear(L, t2_add(moved, pole, scale=-1))
    return TwoPointTensor(L, t2_add(new_poly, correction), [dict(p) for p in r.pole_num])
