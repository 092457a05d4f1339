"""Quadruples (Gamma_1, Gamma_2, gamma, t_h) and the twists they generate.

A quadruple lives on the affine diagram of a twisted loop algebra.  The
three defining conditions are:

  1. gamma is an isometry: B(t_{gamma(i)}, t_{gamma(j)}) = B(t_i, t_j)
     for the kappa-coroots t_i of the node functionals;
  2. every gamma-orbit escapes Gamma_1 in finitely many steps;
  3. (alpha_{gamma(i)} (x) 1 + 1 (x) alpha_i)(t_h + C_h/2) = 0.

Condition 3 is solved over the extended Cartan h + C d, where the node
functionals take the value s_i on the scaling direction d; this is the
reading under which the solution-space dimension is l(l-1)/2 with
l = |Pi \\ Gamma_1|; validation, the count and the solve read one integer
system.  Twists only ever use the d-free part of t_h (the loop algebra has
no d), and the canonical representative is the particular solution of that
one system's reduction, which is d-free whenever some solution is.  On the
Cartan, theta is `cartan_transport`.

The residue operator of a quadruple is R_{t_h} plus the two theta series,
and `tensors.contraction` is the one Psi(a (x) b) = B(b, -) a behind it,
the Cayley transform, the Cartan gluing and the Manin operator.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul
from typing import Iterable, Optional

from .chevalley import add_term
from .linalg import mat_inverse, mat_mul, rref, rref_int
from .loop import (LoopElement, SigmaType, TwistedLoopAlgebra, _element_ratio,
                   affine_diagram_data, loop_algebra)
from .tensors import (Laurent2, TwoPointTensor, casimir_components, contraction,
                      from_loop_tensor, r0, residue_operator, t2_add,
                      t2_scale, twist_defect, wedge)
from .value import Value

Q = Fraction

# t_h keys: 0..nh-1 are the fixed Cartan basis directions, D_INDEX is the
# scaling direction d with alpha_i(d) = s_i.
D_INDEX = -1


class BDQuadruple(Value):
    __slots__ = ("sigma", "gamma1", "gamma2", "gamma", "t_h")

    def __init__(self, sigma: SigmaType, gamma1: frozenset, gamma2: frozenset, gamma, t_h):
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "gamma1", gamma1)
        object.__setattr__(self, "gamma2", gamma2)
        object.__setattr__(self, "gamma", gamma)    # sorted tuple of (i, gamma(i)) pairs
        object.__setattr__(self, "t_h", t_h)        # sorted ((a, b), Q) skew entries, a < b

    @staticmethod
    def make(sigma: SigmaType, gamma1: Iterable[int], gamma2: Iterable[int],
             gamma: dict, t_h: Optional[dict] = None) -> "BDQuadruple":
        g1 = frozenset(int(i) for i in gamma1)
        g2 = frozenset(int(i) for i in gamma2)
        gmap = tuple(sorted((int(a), int(b)) for a, b in gamma.items()))
        th: dict = {}   # each pair once, a before b in `_pairs` order: D_INDEX counts last
        for (a, b), v in (t_h or {}).items():
            key = tuple(sorted((a, b), key=lambda x: (x == D_INDEX, x)))
            th[key] = th.get(key, 0) + (v if key == (a, b) else -v)
        th = tuple(sorted((k, v) for k, v in th.items() if v != 0))
        return BDQuadruple(sigma, g1, g2, gmap, th)

    @property
    def gamma_map(self) -> dict:
        return dict(self.gamma)

    @property
    def t_h_dict(self) -> dict:
        return dict(self.t_h)

    def algebra(self) -> TwistedLoopAlgebra:
        return loop_algebra(self.sigma)


# --------------------------------------------------------------- validation


def _orbit_escapes(gamma: dict, gamma1: frozenset, i: int) -> Optional[int]:
    """Least k >= 1 with gamma^k(i) outside Gamma_1, or None if trapped."""
    seen = set()
    cur = i
    for k in range(1, len(gamma1) + 2):
        cur = gamma[cur]
        if cur not in gamma1:
            return k
        if cur in seen:
            return None
        seen.add(cur)
    return None


def validate(q: BDQuadruple) -> dict:
    """Per-condition report with witnesses; never raises on math failures."""
    L = affine_diagram_data(q.sigma)
    nodes = len(L.node_weights)
    report: dict = {"valid": True}

    structural = []
    if not q.gamma1 <= set(range(nodes)) or len(q.gamma1) >= nodes:
        structural.append("gamma1 is not a proper subset of the nodes")
    if not q.gamma2 <= set(range(nodes)) or len(q.gamma2) >= nodes:
        structural.append("gamma2 is not a proper subset of the nodes")
    gmap = q.gamma_map
    if set(gmap) != set(q.gamma1) or set(gmap.values()) != set(q.gamma2) \
            or len(set(gmap.values())) != len(gmap):
        structural.append("gamma is not a bijection Gamma_1 -> Gamma_2")
    report["structure"] = {"ok": not structural, "problems": structural}
    if structural:
        report["valid"] = False
        return report

    # condition 1: isometry on coroot grams
    bad_pairs = []
    for i in q.gamma1:
        for j in q.gamma1:
            lhs = L.coroot_gram[gmap[i]][gmap[j]]
            rhs = L.coroot_gram[i][j]
            if lhs != rhs:
                bad_pairs.append({"i": i, "j": j, "got": lhs, "want": rhs})
    report["condition1"] = {"ok": not bad_pairs, "violations": bad_pairs}

    # condition 2: nilpotent escape
    trapped = [i for i in q.gamma1 if _orbit_escapes(gmap, q.gamma1, i) is None]
    report["condition2"] = {"ok": not trapped, "trapped": trapped}

    # condition 3: the given t_h satisfies the Cartan constraints
    if report["condition1"]["ok"] and report["condition2"]["ok"]:
        resid = condition3_residual(L, gmap, q.gamma1, q.t_h_dict)
        report["condition3"] = {"ok": all(not any(v) for v in resid.values()),
                                "residuals": {str(k): [str(x) for x in v]
                                              for k, v in resid.items() if any(v)}}
    else:
        report["condition3"] = {"ok": False, "residuals": {"skipped": []}}
    report["valid"] = all(report[k]["ok"] for k in ("condition1", "condition2", "condition3"))
    return report


def _condition3_system(L, gmap: dict, gamma1) -> list:
    """Condition 3 as int rows: (i, h_i, c_i) for i in Gamma_1, sorted.

    On h^nu + C d, with the scale d of `L.integer_nodes`,
    h_i = d (alpha_{gamma(i)} - alpha_i) and c_i = d (t_{gamma(i)} + t_i),
    whose d-entry is 0.  For a skew t_h, (f (x) 1 + 1 (x) g) t_h is
    iota_{f - g} t_h, and (f (x) 1 + 1 (x) g)(C_h/2) = (t_f + t_g)/2, so
    condition 3 reads 2 iota_{h_i} t_h + c_i = 0.  `L` may be a
    TwistedLoopAlgebra or light AffineDiagramData.
    """
    funcs, coroots, _ = L.integer_nodes
    return [(i, [a - b for a, b in zip(funcs[gmap[i]], funcs[i])],
             [a + b for a, b in zip(coroots[gmap[i]], coroots[i])] + [0])
            for i in sorted(gamma1)]


def _pairs(n: int) -> list:
    """Ordered basis of the skew square: index pairs (a, b), a < b."""
    idx = list(range(n))
    return [(a, b) for a in idx for b in idx if a < b]


def _condition3_matrix(L, gmap: dict, gamma1: frozenset):
    """(pairs, rows, rhs) of the condition-3 system over the extended skew
    square, on the int rows of `_condition3_system`.

    Row `comp` of the block for i is component `comp` of 2 iota_{h_i} on the
    pair basis, iota_h (u_a (x) u_b - u_b (x) u_a) = h[a] u_b - h[b] u_a: it
    reads 2 h[a] at the pairs (a, comp) and -2 h[b] at the pairs (comp, b).
    Its right-hand side is -c_i[comp].
    """
    pairs = _pairs(L.nh + 1)
    rows, rhs = [], []
    for _, h, c in _condition3_system(L, gmap, gamma1):
        for comp in range(L.nh + 1):
            rows.append([2 * h[a] if b == comp else -2 * h[b] if a == comp else 0
                         for a, b in pairs])
        rhs.extend(-x for x in c)
    return pairs, rows, rhs


def condition3_residual(L, gmap: dict, gamma1: frozenset, t_h: dict) -> dict:
    """Value of (alpha_{gamma(i)} (x) 1 + 1 (x) alpha_i)(t_h + C_h/2) per i:
    (2 iota_{h_i} t_h + c_i) / 2d on the rows of `_condition3_system`."""
    nh = L.nh
    scale = 2 * L.integer_nodes[2]
    out = {}
    for i, h, c in _condition3_system(L, gmap, gamma1):
        val = list(c)
        for (a, b), x in t_h.items():
            a = nh if a == D_INDEX else a
            b = nh if b == D_INDEX else b
            val[b] += 2 * x * h[a]
            val[a] -= 2 * x * h[b]
        out[i] = [Q(v, scale) for v in val]
    return out


def th_dimension(sigma: SigmaType, gamma1: Iterable[int], gamma2: Iterable[int],
                 gamma: dict) -> int:
    """Dimension of the condition-3 family of t_h, counted without a solve.

    Condition 3 reads 2 iota_{h_i} t = -c_i on the rows of
    `_condition3_system`.  The alpha_i are independent on V = h^nu + C d
    (sum a_i alpha_i = 0 on h^nu fails at d: sum a_i s_i = m > 0), so under
    condition 2 so are the h_i.  Cartan's lemma then makes the system
    solvable iff <h_j, c_i> + <h_i, c_j> = 0 for all i <= j, an identity
    that expands to condition 1 but is checked here on h and c; the
    homogeneous family is Lambda^2(W), W the common kernel of the h_i, of
    dimension C(l, 2), l = nodes - |Gamma_1|.  Raises ValueError if the
    family is empty or the h_i are dependent (gamma breaks condition 2).
    """
    L = affine_diagram_data(sigma)
    system = _condition3_system(L, gamma, gamma1)
    hs, cs = [row[1] for row in system], [row[2] for row in system]
    if len(rref_int(hs)[1]) < len(hs):
        raise ValueError("the h_i are dependent: gamma breaks condition 2")
    for j in range(len(hs)):
        for i in range(j + 1):
            if sum(map(mul, hs[j], cs[i])) + sum(map(mul, hs[i], cs[j])):
                raise ValueError("condition-3 system is inconsistent")
    return comb(L.nh + 1 - len(hs), 2)


def th_solution_space(sigma: SigmaType, gamma1: Iterable[int], gamma2: Iterable[int],
                      gamma: dict) -> dict:
    """All skew t_h with condition 3: particular solution plus kernel basis.

    Returns {"pairs": index pairs, "particular": dict, "basis": [dicts],
    "dimension": int}.  Tensors are over the extended Cartan; index nh
    (reported as D_INDEX) is the scaling direction.  The particular
    solution, zero on every free column, is d-free exactly when some
    solution is (proof in CHANGES.md, "No d-free fallback").  The kernel is
    Lambda^2(W), as `th_dimension` argues, which counts it alone.
    """
    L = affine_diagram_data(sigma)
    gmap = {int(a): int(b) for a, b in gamma.items()}
    pairs, rows, rhs = _condition3_matrix(L, gmap, frozenset(int(i) for i in gamma1))
    nh = L.nh

    def to_dict(coeffs) -> dict:
        out = {}
        for (a, b), c in zip(pairs, coeffs):
            if c != 0:
                key = (a if a < nh else D_INDEX, b if b < nh else D_INDEX)
                out[key] = c
        return out

    # One fraction-free reduction of [rows | rhs] gives the kernel and the
    # particular solution, zero on the free columns: the last nonzero pairs of
    # Lambda^2(W).  d ends each a-block of `_pairs`, so it is d-free if any is.
    ncols = len(pairs)
    red, pivots = rref_int([row + [c] for row, c in zip(rows, rhs)])
    if ncols in pivots:
        raise ValueError("condition-3 system is inconsistent")
    particular = [Q(0)] * ncols
    for r, pc in enumerate(pivots):
        if red[r][-1]:
            particular[pc] = Q(red[r][-1], red[r][pc])
    kern = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Q(0)] * ncols
        v[fc] = Q(1)
        for r, pc in enumerate(pivots):
            if red[r][fc]:
                v[pc] = Q(-red[r][fc], red[r][pc])
        kern.append(v)
    return {"pairs": pairs, "particular": to_dict(particular),
            "basis": [to_dict(b) for b in kern], "dimension": len(kern)}


def canonical_t_h(sigma: SigmaType, gamma1, gamma2, gamma: dict) -> dict:
    """The d-free particular solution used for enumerated quadruples; it
    raises exactly when no d-free solution exists."""
    space = th_solution_space(sigma, gamma1, gamma2, gamma)
    th = space["particular"]
    if any(D_INDEX in key for key in th):
        raise ValueError("no d-free particular t_h exists for this triple")
    return th


# ------------------------------------------------------------------- theta


def cartan_transport(L, gamma: dict) -> list:
    """The matrix on the fixed Cartan that sends t_i to t_{gamma(i)} for i in
    dom gamma and kills the B-orthocomplement of those t_i.

    It is sum_{i,j} t_{gamma(i)} (G^{-1})_{ij} alpha_j, with G the coroot
    Gram on dom gamma: since B(t_j, -) = alpha_j, it sends t_k to
    t_{gamma(k)} and vanishes where every alpha_j does.  `L` may be a
    TwistedLoopAlgebra or light AffineDiagramData.
    """
    dom = sorted(gamma)
    if not dom:
        return [[Q(0)] * L.nh for _ in range(L.nh)]
    ginv = mat_inverse([[L.coroot_gram[i][j] for j in dom] for i in dom])
    images = list(zip(*(L.node_coroots[gamma[i]] for i in dom)))
    return mat_mul(images, mat_mul(ginv, [L.node_weights[j] for j in dom]))


class ThetaMap:
    """The nilpotent partial isometry induced by gamma, extended by zero.

    Acts on root vectors of the subalgebra generated by the Gamma_1 node
    triples, and on the Cartan by `cartan_transport`.  `positive_roots`
    lists the positive roots of that subalgebra, Phi_1^+, sorted, as
    (weight, degree) keys.  The library takes its maps from `theta_map`,
    which builds each one once.
    """

    def __init__(self, L: TwistedLoopAlgebra, gamma1: frozenset, gamma: dict):
        self.L = L
        self.gamma1 = gamma1
        self.gamma = dict(gamma)
        self._root_images: dict = {}     # (weight, k) -> LoopElement
        self._build()

    def _build(self) -> None:
        L = self.L
        gens = L.generators()
        # seed with the simple generators of S^Gamma_1 and their images
        for i in sorted(self.gamma1):
            for key in ("plus", "minus"):
                src = gens[i][key]
                self._root_images[_root_key(L, src)] = (src, gens[self.gamma[i]][key])
        positive = {_root_key(L, gens[i]["plus"]) for i in self.gamma1}
        # a root r = r' + s gets the image [theta(e_s), theta(e_r')] / N,
        # where [e_s, e_r'] = N e_r; r is positive exactly when r' is
        for (w, k), path in _root_closure(L, list(self._root_images)).items():
            if path is None:
                continue
            if path[0] in positive:
                positive.add((w, k))
            src_r, img_r = self._root_images[path[0]]
            src_s, img_s = self._root_images[path[1]]
            base = LoopElement(L, {(L.root_slot(w, k), k): Q(1)})
            ratio = _element_ratio(L.bracket(src_s, src_r), base)
            self._root_images[(w, k)] = (base, L.bracket(img_s, img_r).scale(1 / ratio))
        self.positive_roots = sorted(positive)
        self._cartan_matrix = cartan_transport(L, {i: self.gamma[i] for i in self.gamma1})

    def series(self, f: LoopElement):
        """Yield theta^j(f) for j = 1, 2, ... while it is nonzero (theta is nilpotent)."""
        img = self.apply(f)
        while not img.is_zero():
            yield img
            img = self.apply(img)

    def apply(self, f: LoopElement) -> LoopElement:
        L = self.L
        out: dict = {}
        for (sid, k), c in f.terms.items():
            slot = L.slots[sid]
            if slot.positive is None:
                if k == 0 and slot.cartan:
                    # a fixed-Cartan slot is one coordinate a: h_elements[a]
                    a = L.h_slots.index(sid)
                    for row, target in zip(self._cartan_matrix, L.h_slots):
                        if row[a]:
                            add_term(out, (target, 0), c * row[a])
                continue  # imaginary directions lie outside S^Gamma_1
            entry = self._root_images.get((slot.weight, k))
            if entry is None:
                continue
            base, img = entry
            scale = c / next(iter(base.terms.values()))
            for key, v in img.terms.items():
                add_term(out, key, scale * v)
        return LoopElement(L, out)

    def nilpotency_index(self, d: int) -> int:
        """Least N with theta^N = 0 on the degree-d window of root vectors."""
        L = self.L
        for N in range(1, len(L.node_weights) + 2):
            if all(_power(self, e, N).is_zero() for e in L.basis_up_to(d)
                   if L.slots[tuple(e.terms)[0][0]].positive is not None):
                return N
        raise AssertionError("theta is not nilpotent within the expected bound")


_THETA_CACHE: dict = {}


def theta_map(L: TwistedLoopAlgebra, gamma1: Iterable[int], gamma: dict) -> ThetaMap:
    """The ThetaMap of (L, Gamma_1, gamma), built once per process.

    Every caller with the same data gets the same map: it is shared, never
    mutate it.
    """
    key = (L, frozenset(gamma1), tuple(sorted(gamma.items())))
    if key not in _THETA_CACHE:
        _THETA_CACHE[key] = ThetaMap(L, key[1], gamma)
    return _THETA_CACHE[key]


def _power(theta: ThetaMap, f: LoopElement, k: int) -> LoopElement:
    for _ in range(k):
        f = theta.apply(f)
    return f


def _root_key(L: TwistedLoopAlgebra, f: LoopElement):
    (sid, k), = f.terms
    return L.slots[sid].weight, k


def _root_closure(L: TwistedLoopAlgebra, simple: list) -> dict:
    """The roots spanned by the given simple roots, as (weight, degree) keys.

    Closes `simple` under adding a simple root while the sum stays a real
    root.  Maps each simple root to None and every other root r to the pair
    (r', s) it was reached from, r = r' + s; r' comes before r in the dict.
    The roots are extended in the order they are found, each once.
    """
    roots = dict.fromkeys(simple)
    found = list(roots)
    for (w, k) in found:            # grows while it is read
        for (sw, sk) in simple:
            new = (tuple(a + b for a, b in zip(w, sw)), k + sk)
            if new not in roots and L.root_slot(*new) is not None:
                roots[new] = ((w, k), (sw, sk))
                found.append(new)
    return roots


# ------------------------------------------------------------------- twists


def embed_t_h(L: TwistedLoopAlgebra, t_h: dict) -> Laurent2:
    """t_h as a two-leg loop tensor (d-free part required)."""
    out: Laurent2 = {}
    for (a, b), c in t_h.items():
        if a == D_INDEX or b == D_INDEX:
            raise ValueError("t_h has a scaling-direction component; "
                             "twists require a d-free representative")
        for i, ci in L.h_basis[a].items():
            for j, cj in L.h_basis[b].items():
                add_term(out, (0, 0, i, j), c * ci * cj)
                add_term(out, (0, 0, j, i), -c * ci * cj)
    return out


def build_twist(q: BDQuadruple) -> Laurent2:
    """t_Q = t_h + sum over Phi_1^+ and j >= 1 of b_{-a} wedge theta^j(b_a)."""
    rep = validate(q)
    if not rep["valid"]:
        exc = ValueError("invalid quadruple: %r" % (rep,))
        exc.report = rep            # so that a caller need not validate again
        raise exc
    L = q.algebra()
    return t2_add(embed_t_h(L, q.t_h_dict), _theta_wedges(L, q))


def _theta_wedges(L: TwistedLoopAlgebra, q: BDQuadruple) -> Laurent2:
    """sum over Phi_1^+ and j >= 1 of b_{-a} wedge theta^j(b_a)."""
    theta = theta_map(L, q.gamma1, q.gamma_map)
    out: Laurent2 = {}
    for (w, k) in theta.positive_roots:
        b, bminus = L.root_vector_pair(L.root_slot(w, k), k)
        for img in theta.series(b):
            for key, c in wedge(L, bminus, img).items():
                add_term(out, key, c)
    return out


def build_rq(q: BDQuadruple):
    """Closed-form residue operator of the quadruple, as a callable.

    R_Q = theta+ (theta+ - pi_+)^{-1} + (psi(t_h) + id_h/2) + (pi_- - theta-)^{-1}
    with the inverses expanded as finite Neumann series (theta nilpotent):
    R_{t_h} = pi_h/2 + pi_- + Psi(t_h) plus the two theta series.
    """
    L = q.algebra()
    theta_fwd = theta_map(L, q.gamma1, q.gamma_map)
    theta_bwd = theta_map(L, q.gamma2, {b: a for a, b in q.gamma_map.items()})
    r_th = residue_operator(L, embed_t_h(L, q.t_h_dict))

    def act(f: LoopElement) -> LoopElement:
        plus, minus, _ = L.split(f)
        out = r_th(f)           # a new element: the series go into its terms
        for img in theta_bwd.series(minus):
            for key, c in img.terms.items():
                add_term(out.terms, key, c)
        for img in theta_fwd.series(plus):
            for key, c in img.terms.items():
                add_term(out.terms, key, -c)
        return out

    return act


# ------------------------------------------------------ Cayley transform etc.


def cayley(q: BDQuadruple, d: int = 3) -> dict:
    """Images of R_Q - id and R_Q on the degree window, with the predicted
    direct sums for comparison."""
    L = q.algebra()
    rq = build_rq(q)
    basis = L.basis_up_to(d)
    keys = sorted({key for e in basis for key in e.terms})

    def coords(e: LoopElement) -> list:
        return [e.terms.get(k, Q(0)) for k in keys]

    im_r, im_rm1 = [], []
    for e in basis:
        v = rq(e)
        im_r.append(coords(v))
        im_rm1.append(coords(v - e))

    t_h = q.t_h_dict
    psi = contraction(L, embed_t_h(L, t_h))

    def psi_pm(sign: int) -> list:
        # image of psi(t_h) +/- id/2 inside the Cartan, as loop elements
        return [coords(h.scale(Q(sign, 2)) + psi(h)) for h in L.h_elements]

    pred_c1, pred_c2 = [], []
    for e in basis:
        (sid, k), = e.terms
        slot = L.slots[sid]
        if slot.positive is None and k == 0:
            continue
        if L.root_positive(sid, k):
            pred_c1.append(coords(e))                      # N_+
            if L.root_in_span(sid, k, q.gamma2):
                pred_c2.append(coords(e))                  # N_+^Gamma_2
        else:
            pred_c2.append(coords(e))                      # N_-
            if L.root_in_span(sid, k, q.gamma1):
                pred_c1.append(coords(e))                  # N_-^Gamma_1
    pred_c1.extend(psi_pm(-1))                             # h_1
    pred_c2.extend(psi_pm(+1))                             # h_2

    def echelon(rows: list) -> list:
        # the nonzero rows of the RREF: equal exactly when the spans are
        return [r for r in rref(rows)[0] if any(x != 0 for x in r)]

    return {"keys": keys, "im_R_minus_id": im_rm1, "im_R": im_r,
            "predicted_c1": pred_c1, "predicted_c2": pred_c2,
            "c1_matches": echelon(im_rm1) == echelon(pred_c1),
            "c2_matches": echelon(im_r) == echelon(pred_c2),
            "h_gluing": cartan_gluing_matrix(L, t_h)}


def cartan_gluing_matrix(L: TwistedLoopAlgebra, t_h: dict) -> list:
    """The gluing phi = (psi(t_h) + 1/2)(psi(t_h) - 1/2)^{-1} on the Cartan.

    Over the rationals psi(t_h) is B-skew on a definite form, so
    psi +- 1/2 is always invertible and the quotient maps of the Cayley
    transform are realized by honest matrices.
    """
    psi = contraction(L, embed_t_h(L, t_h))
    cols = [psi(h).terms for h in L.h_elements]
    p = [[col.get((sid, 0), Q(0)) for col in cols] for sid in L.h_slots]
    plus = [[p[i][j] + (Q(1, 2) if i == j else 0) for j in range(L.nh)] for i in range(L.nh)]
    minus = [[p[i][j] - (Q(1, 2) if i == j else 0) for j in range(L.nh)] for i in range(L.nh)]
    return mat_mul(plus, mat_inverse(minus))


def w_isotropy(q: BDQuadruple, d: int = 3) -> dict:
    """Lagrangian checks for W = {((R-1)f, Rf)}: isotropy of the split form
    B(f1,g1) - B(f2,g2) on all degree-bounded pairs, plus the gluing test."""
    L = q.algebra()
    rq = build_rq(q)
    basis = L.basis_up_to(d)
    pairs_checked = 0
    failures = []
    images = [(rq(f) - f, rq(f)) for f in basis]
    for (x1, y1) in images:
        for (x2, y2) in images:
            pairs_checked += 1
            val = L.form(x1, x2) - L.form(y1, y2)
            if val != 0:
                failures.append(str(val))
    membership_fail = 0
    for f, (x, y) in zip(basis, images):
        diff = y - x
        if not (diff - f).is_zero():
            membership_fail += 1
        if not (rq(diff) - y).is_zero():
            membership_fail += 1
    # diagonal complementarity sample: (f, f) in W only for f = 0
    diag = [f for f, (x, y) in zip(basis, images) if (x - y).is_zero() and not f.is_zero()]
    return {"pairs": pairs_checked, "isotropy_ok": not failures,
            "failures": failures, "membership_ok": membership_fail == 0,
            "diagonal_ok": not diag}


def gluing_check(q: BDQuadruple, d: int = 3) -> bool:
    """Membership equation theta_Q([x]) = [y] for sampled (x, y) in W.

    Verifies the three block relations: on N_+ the forward theta-series
    maps the x-block to the y-block, on N_- the backward series maps the
    y-block to the x-block, and on the Cartan the quotient map
    psi(t_h) - 1/2 -> psi(t_h) + 1/2 matches.
    """
    L = q.algebra()
    rq = build_rq(q)
    theta_fwd = theta_map(L, q.gamma1, q.gamma_map)
    theta_bwd = theta_map(L, q.gamma2, {b: a for a, b in q.gamma_map.items()})
    psi = contraction(L, embed_t_h(L, q.t_h_dict))

    for f in L.basis_up_to(d):
        x = rq(f) - f
        y = rq(f)
        xp, xm, xc = L.split(x)
        yp, ym, yc = L.split(y)
        # N_+ block: y_+ = -sum_{j>=1} theta^j(n_+) for n_+ = y_+ - x_+;
        # N_- block: x_- = sum_{j>=1} theta'^j(n_-) for n_- = y_- - x_-
        n_plus = yp - xp
        if not sum(theta_fwd.series(n_plus), yp).is_zero():
            return False
        n_minus = ym - xm
        if not sum(theta_bwd.series(n_minus), xm.scale(-1)).is_zero():
            return False
        # Cartan block: x_c = (psi - 1/2) h and y_c = (psi + 1/2) h for h = y-x
        hc = (yc - xc)
        psi_h = psi(hc)
        if not (psi_h - hc.scale(Q(1, 2)) - xc).is_zero():
            return False
        if not (psi_h + hc.scale(Q(1, 2)) - yc).is_zero():
            return False
    return True


# ----------------------------------------------------------- Manin operator


def manin_t_operator(L: TwistedLoopAlgebra, t: Laurent2):
    """T: W_0 -> Delta from a finite tensor t = sum x_i (x) y^i.

    T(w) = script-B(y^i-diagonal, w) x_i-diagonal for w = (w1, w2) in the
    double, that is Psi(t)(w1 - w2) on both legs; returns a callable on
    pairs of loop elements.
    """
    psi = contraction(L, t)

    def act(w: tuple) -> tuple:
        acc = psi(w[0] - w[1])
        return (acc, acc)

    return act


def manin_identity_sides(L: TwistedLoopAlgebra, t: Laurent2, w_triple: tuple) -> tuple:
    """Both sides of the correspondence identity for w_i in W_0.

    left  = script-B(w1 (x) w2 (x) w3, CYB(t) - Alt((delta (x) 1) t))
    right = -script-B([T w1 - w1, T w2 - w2], T w3 - w3)
    """
    resid = twist_defect(L, t)

    w1, w2, w3 = w_triple

    def pair_leg(deg: int, gi: int, w: tuple) -> Q:
        # script-B of the diagonal leg z^deg e_gi against w, through kappa
        acc = Q(0)
        for part, sgn in ((w[0], 1), (w[1], -1)):
            vec = part.chev_parts().get(-deg)
            if vec:
                acc += sgn * L.alg.killing({gi: Q(1)}, vec)
        return acc

    left = Q(0)
    for (a, b, cdeg, i, j, k), c in resid.items():
        left += c * pair_leg(a, i, w1) * pair_leg(b, j, w2) * pair_leg(cdeg, k, w3)

    T = manin_t_operator(L, t)

    def tw_minus_w(w: tuple) -> tuple:
        tw = T(w)
        return (tw[0] - w[0], tw[1] - w[1])

    a1, a2, a3 = tw_minus_w(w1), tw_minus_w(w2), tw_minus_w(w3)
    br = (L.bracket(a1[0], a2[0]), L.bracket(a1[1], a2[1]))
    right = -(L.form(br[0], a3[0]) - L.form(br[1], a3[1]))
    return left, right


def manin_t_skew_check(L: TwistedLoopAlgebra, t: Laurent2, samples: list) -> bool:
    """B(T w1, w2) + B(w1, T w2) = 0 on sampled pairs from W_0."""
    T = manin_t_operator(L, t)

    def bb(u: tuple, v: tuple) -> Q:
        return L.form(u[0], v[0]) - L.form(u[1], v[1])

    for w1 in samples:
        for w2 in samples:
            if bb(T(w1), w2) + bb(w1, T(w2)) != 0:
                return False
    return True


def w0_samples(L: TwistedLoopAlgebra, d: int) -> list:
    """Elements of W_0 = {((R_0 - 1) f, R_0 f)} over the degree window."""
    r0_op = residue_operator(L, {})
    out = []
    for f in L.basis_up_to(d):
        rf = r0_op(f)
        out.append((rf - f, rf))
    return out


# ------------------------------------------------- quasi-trigonometric form


def quasi_trig_tensor(q: BDQuadruple) -> TwoPointTensor:
    """Explicit closed form y C/(x-y) + C_h/2 + C_- + t_h + wedge sum.

    Only for sigma = id (m = 1); equals r0 + t_Q by construction and is
    checked against the independent rearranged form in tests.
    """
    L = q.algebra()
    if L.m != 1 or L.nu_order != 1:
        raise ValueError("quasi-trigonometric form requires the untwisted grading")
    return r0(L) + from_loop_tensor(L, build_twist(q))


def quasi_trig_rearranged(q: BDQuadruple) -> TwoPointTensor:
    """The -1/2(...) rearrangement of the explicit formula.

    -1/2 [ (y+x)/(y-x) C + sum_{a in Phi^+_fin} b_a wedge b_{-a} - 2 t_h
           + 2 sum theta^j(b_a) wedge b_{-a} ]
    where the middle sum runs over the positive roots of the underlying
    finite algebra.  Equality with the first form is an exact identity.
    """
    L = q.algebra()
    if L.m != 1 or L.nu_order != 1:
        raise ValueError("quasi-trigonometric form requires the untwisted grading")
    cas = casimir_components(L)
    C = cas["components"][0]
    # (y+x)/(y-x) C = -(1 + 2/((x/y) - 1)) C
    poly = {(0, 0, i, j): -c for (i, j), c in C.items()}
    pole = [t2_scale(C, Q(-2))]
    acc = TwoPointTensor(L, poly, pole)
    finite_wedges: Laurent2 = {}
    for beta in L.alg.rs.positive_roots:
        sid = L.root_slot(L._weight_of_root(beta), 0)
        b, bminus = L.root_vector_pair(sid, 0)
        finite_wedges = t2_add(finite_wedges, wedge(L, b, bminus))
    acc = acc + from_loop_tensor(L, finite_wedges)
    # -2 t_h + 2 sum theta^j(b_a) wedge b_{-a} = -2 (t_h + the theta wedges)
    twist = t2_add(embed_t_h(L, q.t_h_dict), _theta_wedges(L, q))
    acc = acc + from_loop_tensor(L, t2_scale(twist, Q(-2)))
    return acc.scale(Q(-1, 2))
