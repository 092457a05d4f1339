"""Two-point tensor fields with trigonometric pole structure.

A `TwoPointTensor` is r(x, y) = poly(x, y) + (sum_k (x/y)^k P_k) / ((x/y)^m - 1)
where poly is a Laurent polynomial in x, y with g (x) g coefficients and
the P_k are constant g (x) g tensors.  This is exactly the shape of the
basic trigonometric solution and of all its twists, so the pole never
needs a general rational-function field.

Conventions:
  CYB(r) = [r12, r13] + [r12, r23] + [r13, r23]
  Alt(u1 (x) u2 (x) u3) = cyclic sum
  wedge(a, b) = a (x) b - b (x) a

The Yang-Baxter verifier clears denominators and works on exact Laurent
tensors; `cybe` output is CYB(r) multiplied by
((x1/x2)^m - 1)((x1/x3)^m - 1)((x2/x3)^m - 1).  `cybe` calls
`cyb_of_laurent`, which runs `_cyb_terms` on int coefficients only: once
for a rational tensor, three times for one over Q(zeta_3).  `_cyb_terms`
sums the three partial brackets of CYB one at a time and drains each
straight into one output dict, times its factor (x_p/x_q)^m - 1 for
`cybe`, and zeros are dropped once, at the end.

`contraction` is the one Psi(a (x) b) = B(b, -) a in the package: the
residue operator R_t = pi_h/2 + pi_- + Psi(t), the residue operator R_Q of
a quadruple, its Cayley transform and the Manin operator all call it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Iterable

from .chevalley import add_term, vec_add as t2_add, vec_scale as t2_scale
from .loop import LoopElement, TwistedLoopAlgebra
from .scalars import CycNumber, parts

Q = Fraction

# Sparse tensors with g (x) g ((x) g) coefficients.
GTensor2 = dict       # (i, j) -> coeff
Laurent2 = dict       # (dx, dy, i, j) -> coeff
Laurent3 = dict       # (d1, d2, d3, i, j, k) -> coeff


def gtensor_tau(t: GTensor2) -> GTensor2:
    return {(j, i): c for (i, j), c in t.items()}


def wedge(alg, a: LoopElement, b: LoopElement) -> Laurent2:
    """a (x) b - b (x) a as a two-variable Laurent tensor."""
    return t2_add(tensor_of_elements(a, b), tensor_of_elements(b, a), -1)


def tensor_to_slots(L: TwistedLoopAlgebra, t: Laurent2) -> dict:
    """Rewrite a graded two-leg tensor in slot coordinates.

    Returns {((s1, k1), (s2, k2)): coeff}; each leg of the result is a
    graded loop element even when single Chevalley legs are not (outer
    automorphisms mix basis vectors across eigenspaces).
    """
    out: dict = {}
    for (dx, dy, i, j), c in t.items():
        for s1, c1 in L.chev_slots[i]:
            for s2, c2 in L.chev_slots[j]:
                add_term(out, ((s1, dx), (s2, dy)), c * c1 * c2)
    # grading-violating components must cancel across terms
    for ((s1, dx), (s2, dy)) in out:
        if (dx - L.slots[s1].sigma_class) % L.m != 0 \
                or (dy - L.slots[s2].sigma_class) % L.m != 0:
            raise ValueError("tensor has a leg outside the sigma-grading")
    return out


def tensor_from_slots(L: TwistedLoopAlgebra, st: dict) -> Laurent2:
    """Inverse of tensor_to_slots."""
    out: Laurent2 = {}
    for ((s1, dx), (s2, dy)), c in st.items():
        for i, ci in L.slots[s1].vec.items():
            for j, cj in L.slots[s2].vec.items():
                add_term(out, (dx, dy, i, j), c * ci * cj)
    return out


def tensor_of_elements(a: LoopElement, b: LoopElement) -> Laurent2:
    return tensor_from_slots(a.algebra, {(x, y): ca * cb for x, ca in a.terms.items()
                                         for y, cb in b.terms.items()})


class TwoPointTensor:
    def __init__(self, L: TwistedLoopAlgebra, poly: Laurent2, pole_num: list):
        self.L = L
        self.poly = poly
        self.pole_num = pole_num    # m constant GTensor2 slots

    @property
    def m(self) -> int:
        return self.L.m

    def __add__(self, other: "TwoPointTensor") -> "TwoPointTensor":
        if other.L is not self.L:
            raise ValueError("tensors over different loop algebras")
        return TwoPointTensor(self.L, t2_add(self.poly, other.poly),
                              [t2_add(a, b) for a, b in zip(self.pole_num, other.pole_num)])

    def __sub__(self, other: "TwoPointTensor") -> "TwoPointTensor":
        return self + other.scale(-1)

    def scale(self, c) -> "TwoPointTensor":
        return TwoPointTensor(self.L, t2_scale(self.poly, c),
                              [t2_scale(p, c) for p in self.pole_num])

    def is_zero(self) -> bool:
        return not self.poly and all(not p for p in self.pole_num)

    def __eq__(self, other) -> bool:
        return isinstance(other, TwoPointTensor) and self.L is other.L and \
            (self - other).is_zero()

    def cleared(self) -> Laurent2:
        """r(x,y) ((x/y)^m - 1) as a Laurent tensor."""
        m = self.m
        out: Laurent2 = {}
        for (dx, dy, i, j), c in self.poly.items():
            add_term(out, (dx + m, dy - m, i, j), c)
            add_term(out, (dx, dy, i, j), -c)
        for k, pk in enumerate(self.pole_num):
            for (i, j), c in pk.items():
                add_term(out, (k, -k, i, j), c)
        return out

    def pole_tensor(self) -> Laurent2:
        """The pole numerator sum_k (x/y)^k P_k as {(k, -k, i, j): c}."""
        return {(k, -k, i, j): c for k, pk in enumerate(self.pole_num) for (i, j), c in pk.items()}

    def tau_swapped(self) -> "TwoPointTensor":
        """tau(r(y, x)): leg swap composed with variable swap, same shape."""
        m = self.m
        poly: Laurent2 = {}
        for (dx, dy, i, j), c in self.poly.items():
            add_term(poly, (dy, dx, j, i), c)
        pole = [dict() for _ in range(m)]
        for k, pk in enumerate(self.pole_num):
            tpk = gtensor_tau(pk)
            if k == 0:
                # (y/x)^0/((y/x)^m - 1) = -1 - 1/((x/y)^m - 1)
                poly = t2_add(poly, {(0, 0, i, j): -c for (i, j), c in tpk.items()})
                pole[0] = t2_add(pole[0], tpk, scale=-1)
            else:
                pole[m - k] = t2_add(pole[m - k], tpk, scale=-1)
        return TwoPointTensor(self.L, poly, pole)


def from_loop_tensor(L: TwistedLoopAlgebra, t: Laurent2) -> TwoPointTensor:
    return TwoPointTensor(L, dict(t), [dict() for _ in range(L.m)])


# ---------------------------------------------------------------- Casimir data


def casimir_components(L: TwistedLoopAlgebra) -> dict:
    """Split of the Casimir element along the sigma-grading.

    Returns {"components": [C_0..C_{m-1}], "h": C_h, "plus": C_+,
    "minus": C_-} with C_k in g_k (x) g_{-k} and C_0 = C_- + C_h + C_+.
    C_+ and C_- follow the affine Borel: a degree-0 root vector is positive
    when its root is positive in the regraded algebra, which can differ
    from the sign of its finite root when s_0 = 0.
    """
    C = L.alg.casimir()
    comps = [dict() for _ in range(L.m)]
    ch: GTensor2 = {}
    cplus: GTensor2 = {}
    cminus: GTensor2 = {}
    for (i, j), c in C.items():
        for sid, coeff in L.chev_slots[i]:
            slot = L.slots[sid]
            k = slot.sigma_class
            for gi, gc in slot.vec.items():
                val = c * coeff * gc
                key = (gi, j)
                add_term(comps[k], key, val)
                if k == 0:
                    if slot.positive is None:
                        add_term(ch, key, val)
                    elif L.root_positive(sid, 0):
                        add_term(cplus, key, val)
                    else:
                        add_term(cminus, key, val)
    return {"components": comps, "h": ch, "plus": cplus, "minus": cminus}


@cache
def r0(L: TwistedLoopAlgebra) -> TwoPointTensor:
    """The basic trigonometric solution C_h/2 + C_- + pole part.

    Built once per loop algebra and shared by every caller: never mutate it.
    """
    cas = casimir_components(L)
    poly = t2_add({(0, 0, i, j): c / 2 for (i, j), c in cas["h"].items()},
                  {(0, 0, i, j): c for (i, j), c in cas["minus"].items()})
    return TwoPointTensor(L, poly, [dict(c) for c in cas["components"]])


# ------------------------------------------------------------------- brackets


def _cyb_terms(alg, t: Laurent2, m: int = 0) -> Laurent3:
    """[t12, t13] D23 + [t12, t23] D13 + [t13, t23] D12 in one pass.

    D_pq = (x_p/x_q)^m - 1, or 1 when m = 0, which gives CYB(t) itself.
    Each term x^a y^b (u (x) v) of t is bucketed by its first leg u and by
    its second leg v.  A partial sum takes the left terms one bucket at a
    time, by the leg that stays outside the bracket, and brackets each
    against the right buckets, by their bracket leg: it walks the nonzero
    partners v of u in `alg.table`, so it visits a pair of terms only when
    the bracket of their legs is nonzero.  Entries from two left
    buckets never meet, so a bucket's accumulator is drained as soon as it
    is full: each entry goes to the tensor position of its bracket leg,
    times D_pq, straight into the one output dict.  Zero entries are kept.
    """
    first: dict = {}        # u -> [(degree of u, degree of v, v, c)]
    second: dict = {}       # v -> [(degree of v, degree of u, u, c)]
    for (a, b, i, j), c in t.items():
        first.setdefault(i, []).append((a, b, j, c))
        second.setdefault(j, []).append((b, a, i, c))
    table = alg.table
    out: Laurent3 = {}
    # (left terms by their outer leg, right terms by their bracket leg)
    for part, (left, right) in enumerate(((second, first), (first, first), (first, second))):
        for p, lterms in left.items():
            # keyed (bracket degree, left outer degree, right outer degree,
            #        bracket leg, right outer leg)
            acc: dict = {}
            for e1, d1, u, c1 in lterms:
                for v, br in table[u].items():
                    for d2, e2, q, c2 in right.get(v, ()):
                        c = c1 * c2
                        for w, cw in br:
                            key = (d1 + d2, e1, e2, w, q)
                            acc[key] = acc.get(key, 0) + c * cw
            # The bracket sits on leg 1, 2, 3 in parts 0, 1, 2.  In each
            # part D_pq raises the earlier of the two outer legs by x^m and
            # lowers the later one by x^-m.
            for (d, e1, e2, w, q), c in acc.items():
                if not c:
                    continue
                for s, sc in ((m, c), (0, -c)) if m else ((0, c),):
                    a, b = e1 + s, e2 - s
                    key = ((d, a, b, w, p, q) if part == 0 else
                           (a, d, b, p, w, q) if part == 1 else (a, b, d, p, q, w))
                    out[key] = out.get(key, 0) + sc
    return out


def cyb_of_laurent(alg, t: Laurent2, m: int = 0) -> Laurent3:
    """CYB(t) for a finite two-leg Laurent tensor (no poles), or with m > 0
    the sum of its partial brackets times D_pq as `_cyb_terms` gives it.

    The bracket loop sees int coefficients only: den * t = A + B zeta_3
    with int tensors A and B.  A rational t has B empty and takes one run,
    on A.  Otherwise CYB is quadratic and zeta_3^2 = -1 - zeta_3, so with
    C = CYB(A), D = CYB(B) and S = CYB(A + B),
    CYB(A + B zeta_3) = (C - D) + (S - C - 2D) zeta_3.  Zeros are dropped
    and the result is divided by den^2.
    """
    a: Laurent2 = {}
    b: Laurent2 = {}
    for k, c in t.items():
        x, y = parts(c)
        if x:
            a[k] = x
        if y:
            b[k] = y
    den = math.lcm(*(c.denominator for c in a.values()), *(c.denominator for c in b.values()))
    a = {k: int(c * den) for k, c in a.items()}
    sq = den * den
    C = _cyb_terms(alg, a, m)
    if not b:
        return {k: Q(c, sq) for k, c in C.items() if c}
    b = {k: int(c * den) for k, c in b.items()}
    D = _cyb_terms(alg, b, m)
    S = _cyb_terms(alg, t2_add(a, b), m)
    out: Laurent3 = {}
    for k in {**C, **D, **S}:
        c, d = C.get(k, 0), D.get(k, 0)
        x, y = c - d, S.get(k, 0) - c - 2 * d
        if x or y:
            out[k] = CycNumber(Q(x, sq), Q(y, sq))
    return out


def alt_cyclic(t: Laurent3) -> Laurent3:
    """Alt: u1(x)u2(x)u3 + u2(x)u3(x)u1 + u3(x)u1(x)u2 on tensor functions."""
    out: Laurent3 = {}
    for (d1, d2, d3, i, j, k), c in t.items():
        for key in ((d1, d2, d3, i, j, k), (d2, d3, d1, j, k, i), (d3, d1, d2, k, i, j)):
            add_term(out, key, c)
    return out


def laurent3_mul_clear(t: Laurent3, m: int, pairs: Iterable[tuple]) -> Laurent3:
    """Multiply by prod over (p,q) in pairs of ((x_p/x_q)^m - 1)."""
    cur = t
    for (p, q) in pairs:
        out: Laurent3 = {}
        for key, c in cur.items():
            d = list(key[:3])
            d[p] += m
            d[q] -= m
            add_term(out, tuple(d) + key[3:], c)
            add_term(out, key, -c)
        cur = out
    return cur


def cybe(r: TwoPointTensor) -> Laurent3:
    """CYB(r) times ((x1/x2)^m-1)((x1/x3)^m-1)((x2/x3)^m-1); zero iff r solves CYBE.

    With N = r(x, y) ((x/y)^m - 1) this is [N12, N13] D23 + [N12, N23] D13
    + [N13, N23] D12, where D_pq = (x_p/x_q)^m - 1.
    """
    return cyb_of_laurent(r.L.alg, r.cleared(), r.m)


def skew(r: TwoPointTensor) -> TwoPointTensor:
    """r(x,y) + tau r(y,x); identically zero iff r is skew-symmetric."""
    return r + r.tau_swapped()


# Read only by the benchmark's traced run (perfbench/trace_op.py), to name spans.
SYMBOLIC_DIM_LIMIT = 24


def verify_cybe(r: TwoPointTensor) -> dict:
    """CYBE and skew verdicts, both symbolic and exact at every dim g.

    The point oracle `evaluate_cybe_at` of `tests/test_oracles.py` checks
    `cybe` from outside this module.
    """
    return {"cybe": "zero" if not cybe(r) else "nonzero",
            "skew": "zero" if skew(r).is_zero() else "nonzero", "mode": "symbolic"}


# ------------------------------------------------------------------ cobracket


def _exact_div_clear(L, num: Laurent2) -> Laurent2:
    """Divide a Laurent tensor by ((x/y)^m - 1) = (x^m - y^m)/y^m, exactly: it
    keeps work + out (x^m - y^m) = num y^m, so it returns only an exact quotient."""
    m = L.m
    if not num:
        return {}
    # First multiply by y^m, then divide by x^m - y^m from the top x-degree.
    work = {(dx, dy + m, i, j): c for (dx, dy, i, j), c in num.items()}
    floor = min(k[0] for k in work)
    out: Laurent2 = {}
    while work:
        (dx, dy, i, j) = max(work, key=lambda k: (k[0], k[1]))
        if dx < floor:
            raise ValueError("tensor is not divisible by (x/y)^m - 1")
        c = work.pop((dx, dy, i, j))
        add_term(out, (dx - m, dy, i, j), c)
        # subtract c * x^(dx-m) y^dy (x^m - y^m) leaving the lower term
        add_term(work, (dx - m, dy + m, i, j), c)
    return out


def cobracket(f: LoopElement, r: TwoPointTensor) -> Laurent2:
    """delta(f)(x,y) = [f(x) (x) 1 + 1 (x) f(y), r(x,y)].

    The pole cancels for graded-consistent f; the output is a finite
    Laurent tensor.  Raises if the cancellation fails (malformed input).
    """
    L = r.L
    alg = L.alg
    out: Laurent2 = {}

    def add_action(target: Laurent2, tensor: Laurent2) -> None:
        for kf, vf in f.chev_parts().items():
            for (dx, dy, i, j), c in tensor.items():
                for fi, fc in vf.items():
                    row = alg.table[fi]
                    for t, ct in row.get(i, ()):
                        add_term(target, (dx + kf, dy, t, j), c * fc * ct)
                    for t, ct in row.get(j, ()):
                        add_term(target, (dx, dy + kf, i, t), c * fc * ct)

    add_action(out, r.poly)
    pole_part: Laurent2 = {}
    add_action(pole_part, r.pole_tensor())
    return t2_add(out, _exact_div_clear(L, pole_part))


def twist_residual(L: TwistedLoopAlgebra, t: Laurent2) -> Laurent3:
    """CYB(t) - Alt((delta_0 (x) 1) t), cleared by the full denominator.

    Zero iff t is a classical twist of the standard cobracket.
    """
    skw = t2_add(t, {(dy, dx, j, i): c for (dx, dy, i, j), c in t.items()})
    if skw:
        raise ValueError("twist candidate must be skew-symmetric")
    return laurent3_mul_clear(twist_defect(L, t), L.m, [(0, 1), (0, 2), (1, 2)])


@cache
def _delta0(L: TwistedLoopAlgebra, first: tuple) -> Laurent2:
    """delta_0 = cobracket(-, r0) of the basis element at `first` = (slot, degree).

    Built once per loop algebra and leg, like r0, and shared: never mutate it.
    """
    return cobracket(LoopElement(L, {first: Q(1)}), r0(L))


def twist_defect(L: TwistedLoopAlgebra, t: Laurent2) -> Laurent3:
    """CYB(t) - Alt((delta_0 (x) 1) t) for a finite Laurent tensor t, uncleared."""
    # (delta (x) 1) t: one cached cobracket per first leg (slot, degree) of t
    by_first: dict = {}
    for (first, (s2, dy)), c in tensor_to_slots(L, t).items():
        by_first.setdefault(first, []).append((s2, dy, c))
    d1: Laurent3 = {}
    for first, seconds in by_first.items():
        for (a, b, p, q_), cf in _delta0(L, first).items():
            for s2, dy, c in seconds:
                for j, cj in L.slots[s2].vec.items():
                    add_term(d1, (a, b, dy, p, q_, j), c * cf * cj)
    return t2_add(cyb_of_laurent(L.alg, t), alt_cyclic(d1), scale=-1)


# ------------------------------------------------------------- residue action


def _contraction_terms(L: TwistedLoopAlgebra, t: Laurent2):
    """Psi(t) as `add(out, f)`, which adds the terms of Psi(t)(f) into the
    terms dict `out` and returns it.

    The terms of t are grouped by their second leg (slot, degree); a term
    (s, k) of f meets only the legs (u, -k) with u in `L.slot_pairing[s]`.
    """
    by_second: dict = {}
    for (first, second), c in tensor_to_slots(L, t).items():
        by_second.setdefault(second, []).append((first, c))

    def add(out: dict, f: LoopElement) -> dict:
        for (s, k), c in f.terms.items():
            for u, kappa in L.slot_pairing[s]:
                for first, ct in by_second.get((u, -k), ()):
                    add_term(out, first, ct * c * kappa)
        return out

    return add


def contraction(L: TwistedLoopAlgebra, t: Laurent2):
    """Psi(t), with Psi(a (x) b) = B(b, -) a, as a callable on loop elements."""
    add = _contraction_terms(L, t)
    return lambda f: LoopElement(L, add({}, f))


def residue_operator(L: TwistedLoopAlgebra, t: Laurent2):
    """R_t = pi_h/2 + pi_- + Psi(t) as a callable on loop elements.

    Each call fills one terms dict: half the Cartan part of f and its
    negative-root part, as `L.split` divides f, then Psi(t)(f) added in.
    """
    add_psi = _contraction_terms(L, t)

    def act(f: LoopElement) -> LoopElement:
        out: dict = {}
        for key, c in f.terms.items():
            sid, k = key
            if L.slots[sid].positive is None and k == 0:
                out[key] = c * Q(1, 2)
            elif not L.root_positive(sid, k):
                out[key] = c
        return LoopElement(L, add_psi(out, f))

    return act


# ---------------------------------------------------------------- Taylor data


def taylor(r: TwoPointTensor, order: int) -> list:
    """Series coefficients of r in y around 0: list of {(dx, i, j): c}."""
    m = r.m
    out = [dict() for _ in range(order + 1)]
    for (dx, dy, i, j), c in r.poly.items():
        if 0 <= dy <= order:
            add_term(out[dy], (dx, i, j), c)
    for j_ord in range(1, order + 1):
        pk = r.pole_num[(-j_ord) % m]
        for (i, j), c in pk.items():
            add_term(out[j_ord], (-j_ord, i, j), c)
    return out
