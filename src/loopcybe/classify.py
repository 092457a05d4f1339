"""Affine diagram automorphisms, quadruple equivalence, and the type census.

Two quadruples give regularly equivalent twisted structures exactly when
a diagram automorphism matches their Gamma-data, conjugates gamma, and
maps the t_h family onto the other; this module implements that decision
procedure, orbit enumeration, and the reachability census that decides
which twists can be moved off the affine node (the quasi-trigonometric
question).  Condition 3 is affine in t_h, so the family test compares two
condition-3 residuals: for two valid quadruples both are zero, and every
automorphism that aligns the Gamma-data is a witness.  Every triple
enumeration runs one orbit loop over Gamma_1 (`_representatives`); the
census searches one Gamma_1, the orbit of the affine node.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from .bd import (BDQuadruple, D_INDEX, canonical_t_h, cartan_transport, condition3_residual,
                 th_dimension)
from .cartan import SERIES_RANKS, CartanType
from .linalg import mat_mul, mat_vec
from .loop import SigmaType, affine_diagram_data

Q = Fraction


def diagram_automorphisms(matrix: list) -> list:
    """All node permutations preserving the (affine) Cartan matrix entrywise."""
    n = len(matrix)
    out: list = []

    def extend(partial: list) -> None:
        k = len(partial)
        if k == n:
            out.append(tuple(partial))
            return
        for cand in range(n):
            if cand in partial:
                continue
            if matrix[k][k] != matrix[cand][cand]:
                continue
            ok = True
            for i, pi in enumerate(partial):
                if matrix[i][k] != matrix[pi][cand] or matrix[k][i] != matrix[cand][pi]:
                    ok = False
                    break
            if ok:
                extend(partial + [cand])

    extend([])
    out.sort()
    return out


def loop_diagram_automorphisms(L) -> list:
    return diagram_automorphisms(L.affine_cartan)


def _theta_on_cartan(L, perm: tuple) -> list:
    """Matrix of the induced map on the fixed Cartan: t_i -> t_{perm(i)}.

    It is `cartan_transport` on node coroots 1..n, a basis of h; it maps t_0
    right too, since perm keeps the one relation sum a_i t_i = 0 (marks are
    permutation-invariant).
    """
    theta = cartan_transport(L, {i: perm[i] for i in range(1, len(L.node_weights))})
    if mat_vec(theta, L.node_coroots[0]) != list(L.node_coroots[perm[0]]):
        raise AssertionError("diagram automorphism does not act on the Cartan")
    return theta


def act_on_t_h(L, perm: tuple, t_h: dict) -> dict:
    """(theta (x) theta) t_h = theta T theta^T for a d-free skew tensor over
    the h-basis, T its skew matrix."""
    theta = _theta_on_cartan(L, perm)
    nh = L.nh
    skew = [[Q(0)] * nh for _ in range(nh)]
    for (a, b), c in t_h.items():
        if a == D_INDEX or b == D_INDEX:
            raise ValueError("t_h action implemented for d-free tensors only")
        skew[a][b] += c
        skew[b][a] -= c
    moved = mat_mul(mat_mul(theta, skew), list(zip(*theta)))
    return {(p, q_): moved[p][q_] for p in range(nh) for q_ in range(p + 1, nh)
            if moved[p][q_]}


def act(perm: tuple, q: BDQuadruple) -> BDQuadruple:
    """theta(Q): relabel Gamma-data and transport t_h."""
    L = affine_diagram_data(q.sigma)
    g1 = frozenset(perm[i] for i in q.gamma1)
    g2 = frozenset(perm[i] for i in q.gamma2)
    gmap = {perm[a]: perm[b] for a, b in q.gamma}
    th = act_on_t_h(L, perm, q.t_h_dict)
    return BDQuadruple.make(q.sigma, g1, g2, gmap, th)


def equivalence_witness(qa: BDQuadruple, qb: BDQuadruple) -> Optional[tuple]:
    """The first of `all_equivalence_witnesses(qa, qb)`, or None."""
    wits = all_equivalence_witnesses(qa, qb)
    return wits[0] if wits else None


def all_equivalence_witnesses(qa: BDQuadruple, qb: BDQuadruple) -> list:
    """Every diagram automorphism theta with theta(qa) = qb, in group order.

    theta must align the Gamma-data and gamma, and move qa's t_h into qb's
    condition-3 family.  That test compares residuals: on qb's rows the
    residual of t is A t + c, equal for theta(t_h) and qb's t_h exactly when
    their difference lies in ker A, the homogeneous family.  For two valid
    quadruples both residuals are zero, so every aligning theta is a
    witness.  Raises ValueError when qb's condition-3 system has no solution.
    """
    if qa.sigma != qb.sigma:
        raise ValueError("quadruples live on different diagrams")
    L = affine_diagram_data(qa.sigma)
    gmap = qb.gamma_map
    try:
        th_dimension(qb.sigma, qb.gamma1, qb.gamma2, gmap)
    except ValueError:      # a trapped gamma as well: no t_h solves condition 3
        raise ValueError("condition-3 system is inconsistent") from None
    target = condition3_residual(L, gmap, qb.gamma1, qb.t_h_dict)
    out = []
    for perm in loop_diagram_automorphisms(L):
        if frozenset(perm[i] for i in qa.gamma1) != qb.gamma1:
            continue
        if frozenset(perm[i] for i in qa.gamma2) != qb.gamma2:
            continue
        if {perm[a]: perm[b] for a, b in qa.gamma} != gmap:
            continue
        moved = act_on_t_h(L, perm, qa.t_h_dict)
        if condition3_residual(L, gmap, qb.gamma1, moved) == target:
            out.append(perm)
    return out


def enumerate_triples(L) -> list:
    """All (Gamma1, Gamma2, gamma) with conditions 1-2 on the diagram, sorted:
    the orbit representatives under the trivial group."""
    identity = [tuple(range(len(L.node_weights)))]
    return [(frozenset(g1), frozenset(g2), gm)
            for g1, g2, gm in (r["triple"] for r in _representatives(L, identity))]


def _isometric_maps(L, g1: frozenset):
    """Injective isometries gamma on g1 whose orbits all escape g1.

    gamma is an isometry of the coroot Gram exactly when it keeps each
    node's coroot length and the affine Cartan matrix on g1: a Cartan
    entry is 2 (t_i, t_j) / (t_j, t_j).  So only integers are compared.
    Maps come in lexicographic order of (gamma(i) for i in sorted g1).  Two
    prunes cut branches that yield nothing, so they leave that sequence as
    it is:
    - if g1 contains every node of one coroot length, gamma maps them
      injectively into themselves, hence permutes them, and every orbit
      among them is trapped; no map on g1 qualifies;
    - a partial gamma that closes a cycle inside g1 traps the orbits on
      that cycle, whatever the rest of gamma is.
    Every cycle is caught when its last edge is assigned, so each completed
    map has only escaping orbits (condition 2).
    """
    nodes = range(len(L.node_weights))
    diag = [L.coroot_gram[i][i] for i in nodes]
    lengths = sorted(set(diag))
    length = [lengths.index(x) for x in diag]      # ranks: ints compare faster
    if any(all(j in g1 for j in nodes if length[j] == k) for k in set(length)):
        return
    src = sorted(g1)
    A = L.affine_cartan
    gamma: dict = {}

    def backtrack(i: int):
        if i == len(src):
            yield dict(gamma)
            return
        s = src[i]
        row = A[s]
        for cand in nodes:
            if length[cand] != length[s] or cand in gamma.values():
                continue
            crow = A[cand]
            if any(row[j] != crow[a] for j, a in gamma.items()):
                continue
            end = cand
            while end in gamma:
                end = gamma[end]
            if end == s:
                continue               # s -> cand closes a cycle inside g1
            gamma[s] = cand
            yield from backtrack(i + 1)
            del gamma[s]

    yield from backtrack(0)


def enumerate_representatives(sigma: SigmaType) -> list:
    """Orbit representatives of valid triples under the diagram group.

    Returns a list of dicts {"triple", "orbit_size"}; representatives are
    lexicographically minimal in their orbit, and the list is sorted.
    Diagrams of more than 13 nodes are refused.
    """
    L = affine_diagram_data(sigma)
    if len(L.node_weights) > 13:
        raise ValueError("diagram exceeds the enumeration cap (13 nodes)")
    return _representatives(L, loop_diagram_automorphisms(L))


def _representatives(L, group: list) -> list:
    """Orbit representatives of valid triples under `group`, with orbit sizes.

    A representative's Gamma_1 is the least in its orbit, so only those
    Gamma_1 are visited.  The triples of an orbit with that Gamma_1 form one
    orbit of its stabiliser Stab(Gamma_1), so each isometry is folded under
    Stab(Gamma_1) alone.  Every stabiliser of a triple lies in Stab(Gamma_1),
    so by orbit-stabiliser the orbit size is
    [group : Stab(Gamma_1)] * |Stab(Gamma_1) t|, the first factor being the
    number of images of Gamma_1.
    """
    nodes = len(L.node_weights)
    reps = []
    for mask in range(2 ** nodes - 1):
        g1 = tuple(i for i in range(nodes) if mask >> i & 1)
        images = {tuple(sorted(perm[i] for i in g1)) for perm in group}
        if min(images) != g1:
            continue
        stab = [perm for perm in group if tuple(sorted(perm[i] for i in g1)) == g1]
        seen: set = set()
        for gamma in _isometric_maps(L, frozenset(g1)):
            if (tuple(sorted(gamma.values())), tuple(gamma.items())) in seen:
                continue
            orbit = {(tuple(sorted(perm[b] for b in gamma.values())),
                      tuple(sorted((perm[a], perm[b]) for a, b in gamma.items())))
                     for perm in stab}
            seen |= orbit
            reps.append({"triple": (g1, *min(orbit)), "orbit_size": len(images) * len(orbit)})
    reps.sort(key=lambda r: r["triple"])
    return reps


def quadruples_with_canonical_t_h(sigma: SigmaType) -> list:
    """Every valid triple upgraded with its canonical (d-free) t_h."""
    L = affine_diagram_data(sigma)
    out = []
    for g1, g2, gm in enumerate_triples(L):
        th = canonical_t_h(sigma, g1, g2, dict(gm))
        out.append(BDQuadruple.make(sigma, g1, g2, dict(gm), th))
    return out


# ------------------------------------------------------------------- census


def quasi_trig_reachable(L, gamma1: Iterable[int]) -> tuple:
    """(verdict, witness permutation or None): can Gamma_1 avoid node 0?"""
    g1 = frozenset(gamma1)
    for perm in loop_diagram_automorphisms(L):
        if 0 not in {perm[i] for i in g1}:
            return True, perm
    return False, None


def unreachable_admissible_gamma1(L) -> Optional[dict]:
    """A Gamma_1 supporting a valid quadruple that no automorphism moves
    off the affine node, or None.

    Unreachability means Gamma_1 contains O, the automorphism orbit of
    node 0, and O alone decides.  A map gamma on some Gamma_1 containing O
    restricts to an injective isometry on O, and each of its orbits leaves
    O, because gamma's path from a node of O is simple and leaves Gamma_1.
    So O carries a map exactly when some Gamma_1 containing O does, and the
    witness is O with the first map on it.
    """
    g1 = frozenset(perm.index(0) for perm in loop_diagram_automorphisms(L))
    for gamma in _isometric_maps(L, g1):
        g2 = frozenset(gamma.values())
        return {"gamma1": sorted(g1), "gamma2": sorted(g2), "gamma": gamma,
                "t_h_dimension": th_dimension(L.sigma, g1, g2, gamma)}
    return None


def type_census(types: Iterable[str], max_rank: int) -> list:
    """Reachability verdict per extended diagram.

    good = every Gamma_1 admitting a valid quadruple is movable off the
    affine node; otherwise a concrete unreachable witness is reported.
    A label is a series ("B", every admissible rank up to max_rank) or one
    type ("B4").
    """
    out = []
    for label in types:
        series = label[0].upper()
        if series not in SERIES_RANKS:
            raise ValueError("unknown series %r; the known series are %s"
                             % (label, ", ".join(SERIES_RANKS)))
        ranks = ([int(label[1:])] if len(label) > 1 else
                 [r for r in range(1, max_rank + 1) if SERIES_RANKS[series](r)])
        for rank in ranks:
            ct = CartanType(series, rank)
            sigma = SigmaType(ct, tuple([1] + [0] * rank))
            wit = unreachable_admissible_gamma1(affine_diagram_data(sigma))
            out.append({"type": series, "rank": rank, "good": wit is None,
                        "witness_gamma1": wit["gamma1"] if wit else None,
                        "witness": wit})
    return out


def parabolic_restriction_check(qa: BDQuadruple, qb: BDQuadruple,
                                S: Iterable[int]) -> bool:
    """Whether some equivalence witness preserves the node set S.

    Only then does the regular equivalence restrict to an automorphism of
    the parabolic subalgebra attached to S.
    """
    S = frozenset(S)
    if not (qa.gamma1 <= S and qb.gamma1 <= S):
        raise ValueError("Gamma_1 must be contained in S on both sides")
    for perm in all_equivalence_witnesses(qa, qb):
        if frozenset(perm[i] for i in S) == S:
            return True
    return False
