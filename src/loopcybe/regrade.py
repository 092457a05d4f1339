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
z -> a z, and diagram-automorphism-induced maps.
"""

from __future__ import annotations

import math
from fractions import Fraction
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


def regrade_element(src: TwistedLoopAlgebra, dst: TwistedLoopAlgebra,
                    f: LoopElement) -> LoopElement:
    """G^{s'}_s: z^{hgt_s} x -> z^{hgt_{s'}} x on root vectors, identity on h."""
    _check_same_family(src, dst)
    out: dict = {}
    for (sid, k), c in f.terms.items():
        k2 = dst.s_height(src.slots[sid].weight, src.nu_root_degree(sid, k))
        add_term(out, (sid, k2), c)
    return LoopElement(dst, out)


def regrade_loop_tensor(src: TwistedLoopAlgebra, dst: TwistedLoopAlgebra,
                        t: Laurent2) -> Laurent2:
    """Regrade both legs of a finite two-leg loop tensor."""
    _check_same_family(src, dst)
    moved: dict = {}
    for ((s1, dx), (s2, dy)), c in tensor_to_slots(src, t).items():
        k1 = dst.s_height(src.slots[s1].weight, src.nu_root_degree(s1, dx))
        k2 = dst.s_height(src.slots[s2].weight, src.nu_root_degree(s2, dy))
        add_term(moved, ((s1, k1), (s2, k2)), c)
    return tensor_from_slots(dst, moved)


def solve_mu(src: TwistedLoopAlgebra, dst: TwistedLoopAlgebra) -> list:
    """The Cartan element mu with alpha_i(mu) = s'_i/m' - s_i/m for all nodes.

    Returned in fixed-Cartan coordinates; existence follows from the
    marks relation (checked by solving the full overdetermined system).
    """
    _check_same_family(src, dst)
    nodes = len(src.node_weights)
    rows = [list(src.node_weights[i]) for i in range(nodes)]
    rhs = [Q(dst.sigma.s[i], dst.m) - Q(src.sigma.s[i], src.m) for i in range(nodes)]
    sol = solve(rows, rhs)
    if sol is None:
        raise ValueError("mu system inconsistent: marks relation violated")
    return sol


def exponent_identity(src: TwistedLoopAlgebra, dst: TwistedLoopAlgebra,
                      periods: int = 2) -> dict:
    """Term-by-term exponent comparison of the two basic solutions.

    For every root direction and degree window, checks the exact rational
    identity hgt_s/m + alpha(mu) = hgt_{s'}/m'.  Returns a report with
    the checked terms; "ok" is True iff every term matches.
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
        for t in range(-periods, periods + 1):
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
    return all(dx + dy == 0 for (dx, dy, _, _) in r.poly)


def loop_tensor_balanced(t: Laurent2) -> bool:
    return all(dx + dy == 0 for (dx, dy, _, _) in t)


# ---------------------------------------------------------- equivalence maps


class LoopMap:
    """A regular equivalence given by images of window basis elements."""

    def __init__(self, L: TwistedLoopAlgebra, images: dict, label: str):
        self.L = L
        self.images = images          # (slot, k) -> LoopElement
        self.label = label

    def apply(self, f: LoopElement) -> LoopElement:
        out = self.L.zero()
        for key, c in f.terms.items():
            img = self.images.get(key)
            if img is None:
                raise ValueError("%s map not defined at %r (enlarge the window)"
                                 % (self.label, key))
            out = out + img.scale(c)
        return out


def exp_ad_map(L: TwistedLoopAlgebra, n: LoopElement, window: int = 6,
               max_steps: int = 12) -> LoopMap:
    """exp(ad n) on the degree window; n must act nilpotently."""
    images = {}
    for f in L.basis_up_to(window):
        key, = f.terms
        acc = f
        cur = f
        for step in range(1, max_steps + 1):
            cur = L.bracket(n, cur)
            if cur.is_zero():
                break
            acc = acc + cur.scale(Q(1, math.factorial(step)))
        else:
            raise ValueError("element does not act nilpotently within %d steps" % max_steps)
        images[key] = acc
    return LoopMap(L, images, "exp_ad")


def rescale_map(L: TwistedLoopAlgebra, a: Fraction, window: int = 6) -> LoopMap:
    """mu_a: f(z) -> f(a z), i.e. z^k x -> a^k z^k x."""
    a = Q(a)
    if a == 0:
        raise ValueError("rescaling must be by a nonzero scalar")
    images = {}
    for f in L.basis_up_to(window):
        (sid, k), = f.terms
        images[(sid, k)] = f.scale(a ** k)
    return LoopMap(L, images, "rescale")


class _TrackedSpan:
    """Incremental Gaussian elimination that carries images along.

    Inserting (v, phi v) pairs maintains a reduced basis; `express`
    returns the image of any vector in the accumulated span.
    """

    def __init__(self, L: TwistedLoopAlgebra):
        self.L = L
        self.rows: dict = {}    # pivot key -> (element, image), element[pivot] = 1

    def _reduce(self, v: LoopElement, img: LoopElement):
        changed = True
        while changed and not v.is_zero():
            changed = False
            for key, c in list(v.terms.items()):
                if key in self.rows:
                    bv, bimg = self.rows[key]
                    v = v - bv.scale(c)
                    img = img - bimg.scale(c)
                    changed = True
                    break
        return v, img

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
            raise ValueError("element outside the generated span")
        return img.scale(-1)


def diagram_map(L: TwistedLoopAlgebra, perm: tuple, window: int = 6) -> LoopMap:
    """The equivalence phi'(z^{+-s_i} X_i^pm(1)) = z^{+-s_{theta(i)}} X_{theta(i)}^pm(1).

    Extended over the degree window by closing the generators under
    brackets (the affine generators generate the whole loop algebra);
    the span closure tracks images through the elimination.
    """
    if tuple(perm) not in loop_diagram_automorphisms(L):
        raise ValueError("permutation is not a diagram automorphism")
    margin = window + max(L.sigma.s) + L.m
    span = _TrackedSpan(L)
    gens = L.generators()
    frontier = []
    for i, g in enumerate(gens):
        for key_name in ("plus", "minus", "h"):
            src, dst = g[key_name], gens[perm[i]][key_name]
            if span.insert(src, dst):
                frontier.append((src, dst))
    known = list(frontier)
    while frontier:
        new = []
        for (a, ia) in frontier:
            for (b, ib) in known:
                br = L.bracket(a, b)
                if br.is_zero() or any(abs(k) > margin for (_, k) in br.terms):
                    continue
                if span.insert(br, L.bracket(ia, ib)):
                    new.append((br, L.bracket(ia, ib)))
        known.extend(new)
        frontier = new
    images = {}
    missing = []
    for f in L.basis_up_to(window):
        key, = f.terms
        try:
            images[key] = span.express(f)
        except ValueError:
            missing.append(key)
    if missing:
        raise AssertionError("diagram map window incomplete: %r" % (sorted(missing),))
    return LoopMap(L, images, "diagram")


# ------------------------------------------------------- action on r-matrices


def apply_equivalence(desc: dict, r: TwoPointTensor, window: int = 6) -> TwoPointTensor:
    """(phi(x) (x) phi(y)) r(x, y) for a supported equivalence family.

    desc is {"kind": "exp_ad"|"rescale"|"diagram", ...}:
      exp_ad: {"element": LoopElement}
      rescale: {"a": rational}
      diagram: {"perm": node permutation}
    The result is again of two-point-tensor shape: the pole numerator is
    untouched and the induced finite correction is absorbed in the
    polynomial part.
    """
    L = r.L
    kind = desc.get("kind")
    if kind == "exp_ad":
        phi = exp_ad_map(L, desc.get("element"), window=window)
    elif kind == "rescale":
        phi = rescale_map(L, desc.get("a"), window=window)
    elif kind == "diagram":
        phi = diagram_map(L, tuple(desc.get("perm", ())), window=window)
    else:
        raise ValueError("unsupported equivalence family %r" % (kind,))

    def map_tensor(t: Laurent2) -> Laurent2:
        moved: dict = {}
        for ((s1, dx), (s2, dy)), c in tensor_to_slots(L, t).items():
            left = phi.apply(LoopElement(L, {(s1, dx): Q(1)}))
            right = phi.apply(LoopElement(L, {(s2, dy): Q(1)}))
            for x, cx in left.terms.items():
                for y, cy in right.terms.items():
                    add_term(moved, (x, y), c * cx * cy)
        return tensor_from_slots(L, moved)

    new_poly = map_tensor(r.poly)
    pole_tensor = {(k, -k, i, j): c for k, pk in enumerate(r.pole_num)
                   for (i, j), c in pk.items()}
    moved = map_tensor(pole_tensor)
    diff = t2_add(moved, pole_tensor, scale=-1)
    correction = _exact_div_clear(L, diff)
    return TwoPointTensor(L, t2_add(new_poly, correction),
                          [dict(p) for p in r.pole_num])
