"""Root-system and integer paths against the code they replaced.

The Killing form is read off the root system, the isometry search compares
integer Cartan data and prunes as it goes, and the condition-3 solve runs
one fraction-free elimination.  The oracles below are the earlier
implementations, kept here unchanged in substance:

- `ad_trace_killing_gram` takes the Killing form kappa(x, y) = tr(ad x ad y)
  of the structure table, one exact trace per pair of basis vectors;
- `fraction_positive_constants` runs the extraspecial recursion over the
  positive pairs only, and `fraction_resolve_n` derives each signed N_{a,b}
  from that table on every call, by Carter's rules with the Fraction root
  lengths of `RootSystem.inner`;

- `fraction_th_solution_space` builds the condition-3 system in Fraction
  coordinates and solves it with three generic `rref`s: the d-free `solve`,
  the full `solve` when that fails, and `kernel_basis`;
  `fraction_condition3_residual` evaluates condition 3 on the same Fraction
  terms, against the int rows that `validate` reads;
- `complement_cartan_matrix` builds theta on the Cartan from a
  `kernel_basis` complement and one inverse of an nh x nh basis
  (`map_sending`), and `map_sending_theta_on_cartan` the map of a diagram
  automorphism from node coroots 1..n, where the library sums
  t_{gamma(i)} (G^{-1})_ij alpha_j (`bd.cartan_transport`);
  `sum_act_on_t_h` moves t_h one coefficient at a time, where
  `act_on_t_h` multiplies theta T theta^T;
- `th_solution_space` itself, the one Bareiss solve of the condition-3
  system, is the oracle of `th_dimension`, which checks conditions 1 and 2,
  the hypotheses of Cartan's lemma, and counts: both give the same
  dimension, or both raise;
- `span_equivalence_witnesses` decides `equiv` by solving qb's condition-3
  system, writing t_h as a vector over the pairs (`t_h_vector`) and testing
  the moved difference for membership in the kernel's span (`in_span`),
  where `all_equivalence_witnesses` compares two condition-3 residuals;
- `unpruned_isometric_maps` enumerates every injective isometry of the
  Fraction coroot Gram on Gamma_1 and tests orbit escape only on completed
  maps;
- `slot_diagram` reads the affine diagram of an outer nu off the slots of
  the full loop algebra, with the Killing form of the structure table on
  the fixed Cartan, and derives coroots, their Gram, the affine Cartan
  matrix and the marks by Fraction solves (`linalg.solve`), where the
  library runs one fraction-free reduction on ints;
- `all_triples_representatives` builds every valid triple from every
  proper Gamma_1 and its unpruned maps (`all_triples`), and then folds the
  orbits under the whole diagram group, where `enumerate_representatives`
  visits only the least Gamma_1 of each orbit and folds under its
  stabiliser;
- `superset_scan_unreachable` scans every Gamma_1 that contains the orbit O
  of node 0 for an unpruned map, where the census searches O alone; the
  lemma that licenses this (a map restricts to a map on every subset of
  Gamma_1) is tested on its own, on the unpruned maps;
- `branch_slots` builds the slots of a loop algebra on two branches: the
  basis vectors themselves when nu = id, and otherwise one kernel solve
  per eigenvalue on each root orbit, in `all_roots` order, and on each
  Cartan orbit, whose matrix it rebuilds from `nu_perm`; the library makes
  one pass over the nu-orbits of the Chevalley basis, solves no kernel on
  a one-vector orbit, and fills `chev_slots` in the same pass;
- `chevalley_form` pairs two loop elements through their Chevalley
  coordinates (`chev_parts` and `alg.killing`), where the library reads
  the cached `slot_pairing` of the loop algebra;
- `solve_slot_coords` writes a g-vector over the slots with one `solve`
  per restricted weight on every call, where the library reads the
  `chev_slots` table, built with the slots (one matrix inverse per
  nu-orbit of the Chevalley basis);
- `evaluate_cybe_at` evaluates CYB(r) exactly at rational points, one
  bracket per pair of terms (`_bracket_into`), against the symbolic
  `cybe`; `residue_oracle` reads R_t off a truncated series of r0 + t,
  against `residue_operator` and `build_rq` (both used by
  `tests/test_tensors.py`);
- `sweep_root_closure` closes a set of simple roots by full sweeps over
  every root found so far, where `bd._root_closure` extends each root once;
- `oracle_bracket_basis` works out [b_i, b_j] on every call, through a
  branch ladder over `n_table`, `coroot_combo` and `RootSystem.pairing`,
  where the library reads the rows of the cached `alg.table`;
- `tuple_constants` runs the extraspecial recursion on root tuples and
  `tuple_table` builds the rows from its tuple-keyed table, where the
  library adds int root codes (`RootSystem.codes`);
- `gram_casimir` takes the Casimir element's dual basis from the dense
  Gram of `alg.killing` on basis pairs, where `casimir` reads `root_kappa`
  and `cartan_gram`;
- `pair_twist_defect` applies the cobracket once per slot-pair term of t,
  where `twist_defect` applies it once per first leg, and takes Alt with
  `alt_cyclic`, three writes per term, where `twist_defect` sums onto the
  orbits of `_cyb_terms` and expands once.

They must agree with the library exactly: the same Gram matrices, the same
dicts (values, types and key order) and the same sequence of maps.  The
twist defects agree in values; their key order differs.
"""

import json
import os
import random
from fractions import Fraction as Q
from itertools import permutations, product
from math import lcm
from types import SimpleNamespace

import pytest

import loopcybe.bd as bd
import loopcybe.chevalley as chev
import loopcybe.classify as cl
import loopcybe.loop as lp
from loopcybe import cli
from loopcybe.cartan import CartanType, add, is_positive, neg, sub
from loopcybe.chevalley import add_term, chevalley_algebra, vec_scale
from loopcybe.linalg import kernel_basis, mat_inverse, mat_mul, rref, rref_int, solve
from loopcybe.loop import (LoopElement, SigmaType, affine_diagram_data, affine_node_count,
                           loop_algebra)
from loopcybe.regrade import apply_equivalence
from loopcybe.scalars import CycNumber, zeta
from loopcybe.serialize import quadruple_from_json, two_point_json
from loopcybe.tensors import (_delta0, cobracket, cyb_of_laurent, r0, t2_add, t2_scale,
                              tensor_to_slots, twist_defect, twist_residual, wedge)
from test_chevalley import dense_killing_gram
from test_golden import CASES, GOLDEN, expected


def ad_trace_killing_gram(alg):
    """Killing form kappa(x, y) = tr(ad x ad y) on the Chevalley basis."""
    dim = alg.dim
    # ad matrices, column-sparse: ad[i][j] = bracket of basis i with basis j
    ad = [[alg.bracket_basis(i, j) for j in range(dim)] for i in range(dim)]
    gram = [[Q(0)] * dim for _ in range(dim)]
    for i in range(dim):
        ri = alg.basis_root(i)
        for j in range(i, dim):
            rj = alg.basis_root(j)
            # kappa(e_a, e_b) = 0 unless a + b = 0; Cartan pairs only with Cartan
            if ri is not None and rj is not None and any(a + b for a, b in zip(ri, rj)):
                continue
            if (ri is None) != (rj is None):
                continue
            acc = Q(0)
            for k in range(dim):
                for t, c in ad[j][k].items():
                    c2 = ad[i][t].get(k)
                    if c2:
                        acc += c * c2
            gram[i][j] = acc
            gram[j][i] = acc
    return tuple(tuple(row) for row in gram)


def fraction_resolve_n(rs, npos, a, b):
    """N_{a,b} for signed roots a, b with a + b a root (Carter's rules)."""
    pa, pb = is_positive(a), is_positive(b)
    if pa and pb:
        return npos[(a, b)]
    if not pa and not pb:
        return -npos[(neg(a), neg(b))]
    if pa:  # mixed with first positive: antisymmetry first
        return -fraction_resolve_n(rs, npos, b, a)
    # a negative, b positive, a+b a root
    c = neg(add(a, b))
    if is_positive(c):
        # rotate once: N_{a,b} = (c,c)/(a,a) N_{b,c}; (b, c) both positive
        return rs.inner(c, c) / rs.inner(a, a) * npos[(b, c)]
    # rotate twice: N_{a,b} = (c,c)/(b,b) N_{c,a} = -(c,c)/(b,b) N_{-c,-a}
    return -rs.inner(c, c) / rs.inner(b, b) * npos[(neg(c), neg(a))]


def fraction_positive_constants(rs):
    """Positive-pair structure constants via the extraspecial recursion."""
    order = {r: k for k, r in enumerate(rs.positive_roots)}
    npos = {}

    def put(a, b, val):
        npos[(a, b)] = val
        npos[(b, a)] = -val

    for gamma in rs.positive_roots:
        if sum(gamma) < 2:
            continue
        decomps = []
        for alpha in rs.positive_roots:
            if order[alpha] > order[gamma]:
                break
            beta = sub(gamma, alpha)
            if rs.is_root(beta) and is_positive(beta) and order[alpha] < order[beta]:
                decomps.append((alpha, beta))
        eps, eta = decomps[0]
        put(eps, eta, Q(rs.p_value(eps, eta) + 1))
        for alpha, beta in decomps[1:]:
            acc = Q(0)
            if rs.is_root(sub(alpha, eps)):
                acc += fraction_resolve_n(rs, npos, neg(eps), alpha) * \
                    fraction_resolve_n(rs, npos, sub(alpha, eps), beta)
            if rs.is_root(sub(beta, eps)):
                acc += fraction_resolve_n(rs, npos, beta, neg(eps)) * \
                    fraction_resolve_n(rs, npos, sub(beta, eps), alpha)
            denom = fraction_resolve_n(rs, npos, gamma, neg(eps))
            put(alpha, beta, -acc / denom)
    return npos


def oracle_cartan_gram(alg, h_basis):
    """The ad-trace Killing form on Cartan vectors given as Chevalley dicts."""
    gram = ad_trace_killing_gram(alg)
    return [[sum((ca * cb * gram[i][j] for i, ca in a.items() for j, cb in b.items()), Q(0))
             for b in h_basis] for a in h_basis]


def fraction_condition3_terms(L, gmap, gamma1):
    """Per i in Gamma_1: (i, f, g, (f (x) 1 + 1 (x) g)(C_h/2)) in extended
    coordinates (h^nu, d), f = alpha_{gamma(i)} and g = alpha_i with
    alpha_i(d) = s_i; the last entry is (t_f + t_g)/2 with d-component 0."""
    def functional(i):
        return tuple(L.node_weights[i]) + (Q(L.sigma.s[i]),)

    for i in sorted(gamma1):
        const = [(a + b) / 2 for a, b in zip(L.node_coroots[gmap[i]], L.node_coroots[i])]
        yield i, functional(gmap[i]), functional(i), const + [Q(0)]


def fraction_contract_pair(f, g, a, b, n):
    """(f (x) 1 + 1 (x) g) applied to u_a (x) u_b - u_b (x) u_a; coords in C^n."""
    out = [Q(0)] * n
    out[b] += f[a]
    out[a] += g[b]
    out[a] -= f[b]
    out[b] -= g[a]
    return out


def fraction_condition3_residual(L, gmap, gamma1, t_h):
    """(alpha_{gamma(i)} (x) 1 + 1 (x) alpha_i)(t_h + C_h/2) per i, in Fractions."""
    nh = L.nh
    out = {}
    for i, f, g, val in fraction_condition3_terms(L, gmap, gamma1):
        for (a, b), c in t_h.items():
            a = nh if a == bd.D_INDEX else a
            b = nh if b == bd.D_INDEX else b
            contr = fraction_contract_pair(f, g, a, b, nh + 1)
            val = [v + c * w for v, w in zip(val, contr)]
        out[i] = val
    return out


def fraction_th_solution_space(sigma, gamma1, gamma2, gamma):
    L = affine_diagram_data(sigma)
    gmap = {int(a): int(b) for a, b in gamma.items()}
    nh = L.nh
    next_ = nh + 1
    pairs = bd._pairs(next_)
    rows, rhs = [], []
    for _, f, g, const in fraction_condition3_terms(L, gmap, frozenset(gamma1)):
        cols = [fraction_contract_pair(f, g, a, b, next_) for (a, b) in pairs]
        rows.extend([col[comp] for col in cols] for comp in range(next_))
        rhs.extend(-c for c in const)

    def to_dict(coeffs):
        return {(a if a < nh else bd.D_INDEX, b if b < nh else bd.D_INDEX): c
                for (a, b), c in zip(pairs, coeffs) if c != 0}

    if not rows:
        basis = [[Q(1) if k == t else Q(0) for k in range(len(pairs))]
                 for t in range(len(pairs))]
        return {"pairs": pairs, "particular": {}, "basis": [to_dict(b) for b in basis],
                "dimension": len(pairs)}
    dfree_cols = [k for k, (a, b) in enumerate(pairs) if a < nh and b < nh]
    part = solve([[row[k] for k in dfree_cols] for row in rows], rhs)
    if part is not None:
        particular = [Q(0)] * len(pairs)
        for k, c in zip(dfree_cols, part):
            particular[k] = c
    else:
        particular = solve(rows, rhs)
        if particular is None:
            raise ValueError("condition-3 system is inconsistent")
    kern = kernel_basis(rows, Q(0), Q(1))
    return {"pairs": pairs, "particular": to_dict(particular),
            "basis": [to_dict(b) for b in kern], "dimension": len(kern)}


def unpruned_isometric_maps(L, g1):
    nodes = range(len(L.node_weights))
    src = sorted(g1)
    G = L.coroot_gram

    def backtrack(i, assigned):
        if i == len(src):
            gamma = dict(zip(src, assigned))
            if all(bd._orbit_escapes(gamma, g1, j) is not None for j in src):
                yield gamma
            return
        for cand in nodes:
            if cand in assigned or G[src[i]][src[i]] != G[cand][cand]:
                continue
            if all(G[src[i]][src[j]] == G[cand][a] for j, a in enumerate(assigned)):
                yield from backtrack(i + 1, assigned + [cand])

    yield from backtrack(0, [])


def t_h_vector(t_h, pairs, nh):
    """t_h as a vector over `pairs`, the extended skew square; d is index nh."""
    vec = [Q(0)] * len(pairs)
    for (a, b), c in t_h.items():
        a = nh if a == bd.D_INDEX else a
        b = nh if b == bd.D_INDEX else b
        key = (a, b) if a < b else (b, a)
        sgn = 1 if a < b else -1
        vec[pairs.index(key)] += sgn * c
    return vec


def in_span(basis, v):
    """Whether v lies in the row span of `basis`."""
    if not basis:
        return all(x == 0 for x in v)
    red, pivots = rref(basis)
    w = list(v)
    for r, pc in enumerate(pivots):
        if w[pc] != 0:
            f = w[pc]
            w = [x - f * y for x, y in zip(w, red[r])]
    return all(x == 0 for x in w)


def span_equivalence_witnesses(qa, qb):
    if qa.sigma != qb.sigma:
        raise ValueError("quadruples live on different diagrams")
    L = affine_diagram_data(qa.sigma)
    group = cl.loop_diagram_automorphisms(L)
    space_b = bd.th_solution_space(qb.sigma, qb.gamma1, qb.gamma2, qb.gamma_map)
    pairs = space_b["pairs"]
    nh = L.nh
    homog = [t_h_vector(b, pairs, nh) for b in space_b["basis"]]
    out = []
    for perm in group:
        if frozenset(perm[i] for i in qa.gamma1) != qb.gamma1:
            continue
        if frozenset(perm[i] for i in qa.gamma2) != qb.gamma2:
            continue
        if {perm[a]: perm[b] for a, b in qa.gamma} != qb.gamma_map:
            continue
        moved = cl.act_on_t_h(L, perm, qa.t_h_dict)
        diff = dict(moved)
        for k, c in qb.t_h_dict.items():
            diff[k] = diff.get(k, 0) - c
        dv = t_h_vector({k: v for k, v in diff.items() if v}, pairs, nh)
        if in_span(homog, dv):
            out.append(perm)
    return out


# (label, nu, affine nodes): the catalog diagrams below E6, twisted ones too
CATALOGS = [("A1", None, 2), ("A2", None, 3), ("A3", None, 4), ("B3", None, 4),
            ("C3", None, 4), ("D4", None, 5), ("G2", None, 3), ("F4", None, 5),
            ("A3", (2, 1, 0), 3), ("D4", (0, 1, 3, 2), 4), ("D4", (2, 1, 3, 0), 3),
            ("E6", (5, 1, 4, 3, 2, 0), 5)]


def diagram_id(case):
    label, nu, _ = case
    return label if nu is None else "%s-nu%s" % (label, "".join(map(str, nu)))


def mark1_gradings(label, nu, nodes):
    unit = [1] + [0] * (nodes - 1)
    marks = affine_diagram_data(SigmaType.make(label, unit, nu)).marks
    return [SigmaType.make(label, [int(i == k) for i in range(nodes)], nu)
            for k, a in enumerate(marks) if a == 1]


def assert_same_space(sigma, triple):
    g1, g2, gm = triple
    new = bd.th_solution_space(sigma, g1, g2, dict(gm))
    old = fraction_th_solution_space(sigma, g1, g2, dict(gm))
    assert repr(new) == repr(old), (sigma, triple)


@pytest.mark.parametrize("label,nu,nodes", CATALOGS,
                         ids=[diagram_id(c) for c in CATALOGS])
def test_th_solution_space_matches_fraction_oracle(label, nu, nodes):
    for sigma in mark1_gradings(label, nu, nodes):
        for rep in cl.enumerate_representatives(sigma):
            assert_same_space(sigma, rep["triple"])


def test_th_solution_space_matches_fraction_oracle_e6():
    rng = random.Random(6)
    gradings = mark1_gradings("E6", None, 7)
    reps = {s: cl.enumerate_representatives(s) for s in gradings}
    for _ in range(30):
        sigma = rng.choice(gradings)
        assert_same_space(sigma, rng.choice(reps[sigma])["triple"])


def typed(rows):
    """Rows of values with their types, so that 0 and Fraction(0) differ."""
    return [[(x, type(x)) for x in row] for row in rows]


def map_sending(cols, imgs):
    """The matrix M with M c = i for each vector c of the basis `cols` and its image i."""
    n = len(cols[0])
    basis = [[c[r] for c in cols] for r in range(n)]
    images = [[v[r] for v in imgs] for r in range(n)]
    return mat_mul(images, mat_inverse(basis))


def complement_cartan_matrix(L, gamma):
    """t_i -> t_{gamma(i)} on dom gamma, zero on a kernel basis of the
    pairing against those t_i under the h-Gram."""
    span = [L.node_coroots[i] for i in sorted(gamma)]
    imgs = [L.node_coroots[gamma[i]] for i in sorted(gamma)]
    if span:
        rows = [[sum(x * g for x, g in zip(s, L.h_gram[c])) for c in range(L.nh)]
                for s in span]
        comp = kernel_basis(rows, Q(0), Q(1))
    else:
        comp = [[Q(1) if t == c else Q(0) for t in range(L.nh)] for c in range(L.nh)]
    return map_sending(span + comp, imgs + [[Q(0)] * L.nh for _ in comp])


def map_sending_theta_on_cartan(L, perm):
    """t_i -> t_{perm(i)} from the basis of node coroots 1..n; node 0 checked."""
    nodes = range(1, len(L.node_weights))
    theta = map_sending([L.node_coroots[i] for i in nodes],
                        [L.node_coroots[perm[i]] for i in nodes])
    img0 = [sum(theta[r][t] * L.node_coroots[0][t] for t in range(L.nh))
            for r in range(L.nh)]
    if img0 != list(L.node_coroots[perm[0]]):
        raise AssertionError("diagram automorphism does not act on the Cartan")
    return theta


def sum_act_on_t_h(L, perm, t_h):
    theta = map_sending_theta_on_cartan(L, perm)
    nh = L.nh
    acc = [[Q(0)] * nh for _ in range(nh)]
    for (a, b), c in t_h.items():
        for p in range(nh):
            for q in range(nh):
                acc[p][q] += c * (theta[p][a] * theta[q][b] - theta[p][b] * theta[q][a])
    return {(p, q): acc[p][q] for p in range(nh) for q in range(p + 1, nh) if acc[p][q]}


# (label, nu, affine nodes): the mark-1 gradings whose catalog thetas and
# condition-3 residuals are checked
TRANSPORT_DIAGRAMS = [("A2", None, 3), ("B3", None, 4), ("C3", None, 4), ("G2", None, 3),
                      ("A3", (2, 1, 0), 3), ("D4", (0, 1, 3, 2), 4), ("D4", (2, 1, 3, 0), 3)]


@pytest.mark.parametrize("label,nu,nodes", TRANSPORT_DIAGRAMS,
                         ids=[diagram_id(c) for c in TRANSPORT_DIAGRAMS])
def test_theta_cartan_matrix_matches_complement_oracle(label, nu, nodes):
    """The forward and backward theta of every catalog representative act
    on the Cartan by the same matrix, in values and types."""
    for sigma in mark1_gradings(label, nu, nodes):
        L = loop_algebra(sigma)
        for rep in cl.enumerate_representatives(sigma):
            g1, g2, gm = rep["triple"]
            for dom, gamma in ((g1, dict(gm)), (g2, {b: a for a, b in gm})):
                got = bd.theta_map(L, dom, gamma)._cartan_matrix
                assert typed(got) == typed(complement_cartan_matrix(L, gamma)), (sigma, gamma)


@pytest.mark.parametrize("label,nu,nodes", CATALOGS, ids=[diagram_id(c) for c in CATALOGS])
def test_automorphism_on_cartan_matches_map_sending_oracle(label, nu, nodes):
    """Every diagram automorphism: the same Cartan matrix, and the same
    moved t_h (values, types and key order) on a seeded skew t_h."""
    L = affine_diagram_data(SigmaType.make(label, [1] + [0] * (nodes - 1), nu))
    rng = random.Random(nodes)
    t_h = {(a, b): Q(rng.randint(-5, 5), rng.randint(1, 6))
           for a in range(L.nh) for b in range(a + 1, L.nh)}
    for perm in cl.loop_diagram_automorphisms(L):
        assert typed(cl._theta_on_cartan(L, perm)) == typed(map_sending_theta_on_cartan(L, perm))
        got, want = cl.act_on_t_h(L, perm, t_h), sum_act_on_t_h(L, perm, t_h)
        assert typed(got.items()) == typed(want.items()), perm


@pytest.mark.parametrize("label,nu,nodes", TRANSPORT_DIAGRAMS,
                         ids=[diagram_id(c) for c in TRANSPORT_DIAGRAMS])
def test_condition3_residual_matches_fraction_terms(label, nu, nodes):
    """validate's residuals, on the canonical t_h of every catalog
    representative and on it plus a seeded nonzero perturbation."""
    rng = random.Random(20)
    nonzero = 0
    for sigma in mark1_gradings(label, nu, nodes):
        L = affine_diagram_data(sigma)
        keys = [(a, b if b < L.nh else bd.D_INDEX) for a, b in bd._pairs(L.nh + 1)]
        for rep in cl.enumerate_representatives(sigma):
            g1, g2, gm = rep["triple"]
            gamma = dict(gm)
            t_h = bd.canonical_t_h(sigma, g1, g2, gamma)
            bumped = dict(t_h)
            key = rng.choice(keys)
            bumped[key] = bumped.get(key, 0) + Q(rng.choice([-3, -1, 1, 2]), rng.randint(1, 5))
            for th in (t_h, bumped):
                got = bd.condition3_residual(L, gamma, g1, th)
                want = fraction_condition3_residual(L, gamma, g1, th)
                assert list(got) == list(want) and typed(got.values()) == typed(want.values())
                report = bd.validate(bd.BDQuadruple.make(sigma, g1, g2, gamma, th))
                assert report["condition3"] == {
                    "ok": all(not any(v) for v in want.values()),
                    "residuals": {str(i): [str(x) for x in v] for i, v in want.items() if any(v)}}
            nonzero += not report["condition3"]["ok"]
    assert nonzero


def all_triples(L):
    """Every valid triple, from every proper Gamma_1 and its unpruned maps."""
    nodes = len(L.node_weights)
    for mask in range(2 ** nodes - 1):
        g1 = frozenset(i for i in range(nodes) if mask >> i & 1)
        for gamma in unpruned_isometric_maps(L, g1):
            yield g1, frozenset(gamma.values()), tuple(sorted(gamma.items()))


def all_triples_representatives(sigma):
    """Orbit representatives and orbit sizes, from every valid triple folded
    under the whole diagram group; each representative is the least triple
    of its orbit."""
    L = affine_diagram_data(sigma)
    group = cl.loop_diagram_automorphisms(L)
    seen: set = set()
    reps = []

    def key(t):
        g1, g2, gm = t
        return (tuple(sorted(g1)), tuple(sorted(g2)), gm)

    for t in all_triples(L):
        if key(t) in seen:
            continue
        orbit = set()
        for perm in group:
            g1, g2, gm = t
            moved = (frozenset(perm[i] for i in g1), frozenset(perm[i] for i in g2),
                     tuple(sorted((perm[a], perm[b]) for a, b in gm)))
            orbit.add(key(moved))
        seen.update(orbit)
        reps.append({"triple": min(orbit), "orbit_size": len(orbit)})
    reps.sort(key=lambda r: r["triple"])
    return reps


# (label, s, nu): A1-A7, B2-B5, C2-C5, D4-D6, G2, F4 and E6 graded by e_0, the
# twisted catalog diagrams, and two gradings with s_0 = 0
REPRESENTATIVE_DIAGRAMS = (
    [("%s%d" % (x, n), (1,) + (0,) * n, None)
     for x, ranks in [("A", range(1, 8)), ("B", range(2, 6)), ("C", range(2, 6)),
                      ("D", range(4, 7)), ("G", [2]), ("F", [4]), ("E", [6])]
     for n in ranks]
    + [("A3", (1, 0, 0), (2, 1, 0)), ("A6", (1, 0, 0, 0), (5, 4, 3, 2, 1, 0)),
       ("D4", (1, 0, 0, 0), (0, 1, 3, 2)), ("D4", (1, 0, 0), (2, 1, 3, 0)),
       ("E6", (1, 0, 0, 0, 0), (5, 1, 4, 3, 2, 0)),
       ("A3", (0, 1, 0, 0), None), ("D4", (0, 0, 1, 0, 0), None)])


@pytest.mark.parametrize("label,s,nu", REPRESENTATIVE_DIAGRAMS,
                         ids=["%s-%s" % (diagram_id((label, nu, None)), "".join(map(str, s)))
                              for label, s, nu in REPRESENTATIVE_DIAGRAMS])
def test_representatives_match_all_triples_oracle(label, s, nu):
    """The same representatives, in the same order, with the same orbit
    sizes; the sizes add up to the number of valid triples and divide |Aut|."""
    sigma = SigmaType.make(label, s, nu)
    L = affine_diagram_data(sigma)
    reps = cl.enumerate_representatives(sigma)
    assert reps == all_triples_representatives(sigma)
    assert sum(r["orbit_size"] for r in reps) == len(cl.enumerate_triples(L))
    order = len(cl.loop_diagram_automorphisms(L))
    assert all(order % r["orbit_size"] == 0 for r in reps)


def solved_or_counted(fn, sigma, g1, g2, gamma):
    """The dimension `fn` reports, or None when it raises ValueError."""
    try:
        out = fn(sigma, g1, g2, gamma)
    except ValueError:
        return None
    return out["dimension"] if isinstance(out, dict) else out


def assert_same_count(sigma, g1, g2, gamma):
    want = solved_or_counted(bd.th_solution_space, sigma, g1, g2, gamma)
    got = solved_or_counted(bd.th_dimension, sigma, g1, g2, gamma)
    assert got == want, (sigma, sorted(g1), gamma)
    return got


# (label, nu, affine nodes): every valid triple at every mark-1 grading
COUNT_DIAGRAMS = [("A1", None, 2), ("A2", None, 3), ("A3", None, 4), ("A4", None, 5),
                  ("B2", None, 3), ("B3", None, 4), ("C2", None, 3), ("C3", None, 4),
                  ("G2", None, 3), ("A3", (2, 1, 0), 3), ("D4", (2, 1, 3, 0), 3)]


@pytest.mark.parametrize("label,nu,nodes", COUNT_DIAGRAMS,
                         ids=[diagram_id(c) for c in COUNT_DIAGRAMS])
def test_th_dimension_matches_solution_space(label, nu, nodes):
    for sigma in mark1_gradings(label, nu, nodes):
        triples = cl.enumerate_triples(affine_diagram_data(sigma))
        assert triples
        for g1, g2, gm in triples:
            dim = assert_same_count(sigma, g1, g2, dict(gm))
            assert dim == (nodes - len(g1)) * (nodes - len(g1) - 1) // 2


@pytest.mark.parametrize("label,nodes", [("B2", 3), ("G2", 3), ("C3", 4)])
def test_th_dimension_raises_with_solution_space_off_isometries(label, nodes):
    """Every injective gamma whose orbits escape (condition 2) but that
    breaks condition 1: neither the count nor the solve finds a t_h."""
    for sigma in mark1_gradings(label, None, nodes):
        G = affine_diagram_data(sigma).coroot_gram
        seen = 0
        for mask in range(1, 2 ** nodes - 1):
            g1 = frozenset(i for i in range(nodes) if mask >> i & 1)
            for image in permutations(range(nodes), len(g1)):
                gamma = dict(zip(sorted(g1), image))
                if any(bd._orbit_escapes(gamma, g1, i) is None for i in g1):
                    continue
                if all(G[gamma[i]][gamma[j]] == G[i][j] for i in g1 for j in g1):
                    continue
                assert assert_same_count(sigma, g1, frozenset(image), gamma) is None
                seen += 1
        assert seen


def test_th_dimension_matches_solution_space_e6():
    sigma = SigmaType.make("E6", [1] + [0] * 6)
    reps = cl.enumerate_representatives(sigma)
    assert len(reps) == 300
    for rep in reps:
        g1, g2, gm = rep["triple"]
        assert assert_same_count(sigma, g1, g2, dict(gm)) is not None


@pytest.mark.parametrize("gamma", [{1: 1}, {1: 2, 2: 1}, {0: 3, 1: 1}],
                         ids=["fixed-point", "2-cycle", "fixed-point-in-chain"])
def test_th_dimension_rejects_trapped_gamma(gamma):
    """A fixed point or a 2-cycle makes the h_i dependent: condition 2."""
    sigma = SigmaType.make("A3", [1, 0, 0, 0])
    with pytest.raises(ValueError, match="condition 2"):
        bd.th_dimension(sigma, set(gamma), set(gamma.values()), gamma)


@pytest.mark.parametrize("name", [name for name, argv in CASES if argv[0] in ("census", "equiv")
                                  or argv[:3] == ["export", "--what", "catalog"]])
def test_catalog_and_census_never_solve(name, monkeypatch, capsys):
    """Catalogs and the census count the condition-3 family, and `equiv`
    compares residuals; both read conditions 1 and 2 off `_conditions_1_2`.
    So every catalog, census and `equiv` golden comes out with the solve,
    `rref_int` and `validate` refused where `bd` and `classify` look them up."""
    def refuse(*args):
        raise AssertionError("refused call")

    for name_ in ("th_solution_space", "rref_int", "validate"):
        monkeypatch.setattr(bd, name_, refuse)
    monkeypatch.setattr(cl, "validate", refuse, raising=False)
    monkeypatch.chdir(GOLDEN)
    assert (cli.main(dict(CASES)[name]), capsys.readouterr().out) == expected(name)


@pytest.mark.parametrize("label,nu,nodes", [("A2", None, 3), ("A3", None, 4), ("C2", None, 3),
                                            ("G2", None, 3), ("A3", (2, 1, 0), 3)],
                         ids=["A2", "A3", "C2", "G2", "A3-nu210"])
def test_th_dimension_raises_with_solution_space_on_every_map(label, nu, nodes):
    """Every map from a nonempty proper Gamma_1 to the nodes, injective or
    not: `equiv` reads solvability off the count, where it once solved."""
    sigma = SigmaType.make(label, [1] + [0] * (nodes - 1), nu)
    for mask in range(1, 2 ** nodes - 1):
        g1 = [i for i in range(nodes) if mask >> i & 1]
        for image in product(range(nodes), repeat=len(g1)):
            assert_same_count(sigma, frozenset(g1), frozenset(image), dict(zip(g1, image)))


# (label, s, nu): untwisted, twisted, principal and s_0 = 0 gradings
EQUIV_DIAGRAMS = [("A1", (1, 0), None), ("A2", (1, 0, 0), None), ("A3", (1, 0, 0, 0), None),
                  ("C2", (1, 0, 0), None), ("G2", (1, 0, 0), None),
                  ("A3", (1, 0, 0), (2, 1, 0)), ("A2", (1, 1, 1), None),
                  ("A3", (0, 1, 0, 1), None)]


def equivalence_pairs(sigma, rng):
    """(qa, qb) pairs.  qa is each valid triple with its canonical t_h plus
    a seeded d-free element of its family; qb is theta(qa) for up to three
    theta, then the same with 1/5 added to one entry of t_h (d included),
    and with twice a vector of qb's homogeneous family added."""
    L = affine_diagram_data(sigma)
    group = cl.loop_diagram_automorphisms(L)
    keys = [(a, b if b < L.nh else bd.D_INDEX) for a, b in bd._pairs(L.nh + 1)]

    def plus(t_h, v, c):
        out = dict(t_h)
        for k, x in v.items():
            out[k] = out.get(k, 0) + c * x
        return out

    for g1, g2, gm in cl.enumerate_triples(L):
        th = bd.canonical_t_h(sigma, g1, g2, dict(gm))
        for v in bd.th_solution_space(sigma, g1, g2, dict(gm))["basis"]:
            if not any(bd.D_INDEX in k for k in v):
                th = plus(th, v, Q(rng.randint(-3, 3), rng.randint(1, 4)))
        qa = bd.BDQuadruple.make(sigma, g1, g2, dict(gm), th)
        for perm in rng.sample(group, min(3, len(group))):
            qb = cl.act(perm, qa)
            triple = (sigma, qb.gamma1, qb.gamma2, qb.gamma_map)
            yield qa, qb
            shifted = plus(qb.t_h_dict, {rng.choice(keys): 1}, Q(1, 5))
            yield qa, bd.BDQuadruple.make(*triple, shifted)
            basis = bd.th_solution_space(*triple)["basis"]
            if basis:
                yield qa, bd.BDQuadruple.make(*triple, plus(qb.t_h_dict, rng.choice(basis), 2))


@pytest.mark.parametrize("label,s,nu", EQUIV_DIAGRAMS,
                         ids=["%s-%s%s" % (c[0], "".join(map(str, c[1])),
                                           "-nu" + "".join(map(str, c[2])) if c[2] else "")
                              for c in EQUIV_DIAGRAMS])
def test_action_moves_d_entries(label, s, nu):
    """On every valid triple, with t_h its canonical solution plus a seeded
    element of the whole family (`"d"` entries included), and with 1/5 added
    on one pair with d: act(perm^-1, act(perm, q)) == q for every diagram
    automorphism, and act keeps validity."""
    sigma = SigmaType.make(label, s, nu)
    L = affine_diagram_data(sigma)
    rng = random.Random(28)
    d_keys = [(a, bd.D_INDEX) for a in range(L.nh)]
    group = cl.loop_diagram_automorphisms(L)
    verdicts = set()
    for g1, g2, gm in cl.enumerate_triples(L):
        space = bd.th_solution_space(sigma, g1, g2, dict(gm))
        th = dict(space["particular"])
        for v in space["basis"]:
            c = Q(rng.randint(-3, 3), rng.randint(1, 4))
            for k, x in v.items():
                th[k] = th.get(k, 0) + c * x
        off = dict(th)
        key = rng.choice(d_keys)
        off[key] = off.get(key, 0) + Q(1, 5)
        for t_h in (th, off):
            q = bd.BDQuadruple.make(sigma, g1, g2, dict(gm), t_h)
            valid = bd.validate(q)["valid"]
            verdicts.add((valid, any(bd.D_INDEX in k for k in q.t_h_dict)))
            for perm in group:
                moved = cl.act(perm, q)
                assert cl.act(tuple(map(perm.index, range(len(perm)))), moved) == q
                assert bd.validate(moved)["valid"] == valid, (q, perm)
    assert {(True, True), (False, True)} <= verdicts, verdicts


def test_equivalence_witnesses_match_span_oracle():
    """The same witness lists, in the same order, on moved, shifted and
    family-moved quadruples; both verdicts occur."""
    rng = random.Random(26)
    pairs = with_witness = 0
    for label, s, nu in EQUIV_DIAGRAMS:
        for qa, qb in equivalence_pairs(SigmaType.make(label, s, nu), rng):
            got = cl.all_equivalence_witnesses(qa, qb)
            assert got == span_equivalence_witnesses(qa, qb), (qa, qb)
            pairs += 1
            with_witness += bool(got)
    assert pairs >= 900 and 0 < with_witness < pairs, (pairs, with_witness)


ISOMETRY_DIAGRAMS = [("A3", None, 4), ("A5", None, 6), ("B3", None, 4), ("B5", None, 6),
                     ("C3", None, 4), ("C5", None, 6), ("D4", None, 5), ("D5", None, 6),
                     ("G2", None, 3), ("F4", None, 5), ("A3", (2, 1, 0), 3),
                     ("D4", (2, 1, 3, 0), 3)]


@pytest.mark.parametrize("label,nu,nodes", ISOMETRY_DIAGRAMS,
                         ids=[diagram_id(c) for c in ISOMETRY_DIAGRAMS])
def test_isometric_maps_match_unpruned_oracle(label, nu, nodes):
    L = affine_diagram_data(SigmaType.make(label, [1] + [0] * (nodes - 1), nu))
    for mask in range(2 ** nodes):
        g1 = frozenset(i for i in range(nodes) if mask >> i & 1)
        new = [list(g.items()) for g in cl._isometric_maps(L, g1)]
        old = [list(g.items()) for g in unpruned_isometric_maps(L, g1)]
        assert new == old, (label, nu, sorted(g1))


@pytest.mark.parametrize("label,nu,nodes", ISOMETRY_DIAGRAMS,
                         ids=[diagram_id(c) for c in ISOMETRY_DIAGRAMS])
def test_isometric_maps_restrict_to_subsets(label, nu, nodes):
    """Conditions 1-2 pass to subsets: a map on Gamma_1, restricted to
    Gamma_1 minus one node, is a map there.  The census rests on this."""
    L = affine_diagram_data(SigmaType.make(label, [1] + [0] * (nodes - 1), nu))
    maps = {}
    for mask in range(2 ** nodes):
        g1 = frozenset(i for i in range(nodes) if mask >> i & 1)
        maps[g1] = [tuple(g.items()) for g in unpruned_isometric_maps(L, g1)]
    for g1, found in maps.items():
        for items in found:
            for x in g1:
                assert tuple((a, b) for a, b in items if a != x) in maps[g1 - {x}], \
                    (label, nu, items, x)


def superset_scan_unreachable(L):
    """The census by scanning every Gamma_1 that contains O, the orbit of
    node 0, in mask order, and returning the first with an unpruned map."""
    orbit0 = sorted({perm.index(0) for perm in cl.loop_diagram_automorphisms(L)})
    nodes = len(L.node_weights)
    rest = [i for i in range(nodes) if i not in orbit0]
    for mask in range(2 ** len(rest)):
        g1 = frozenset(orbit0) | {rest[i] for i in range(len(rest)) if mask >> i & 1}
        if len(g1) >= nodes:
            continue
        for gamma in unpruned_isometric_maps(L, g1):
            return {"gamma1": sorted(g1), "gamma2": sorted(gamma.values()), "gamma": gamma,
                    "t_h_dimension": bd.th_dimension(L.sigma, g1, frozenset(gamma.values()),
                                                     gamma)}
    return None


def test_census_matches_superset_scan_oracle():
    """Every census row, witness dict included (key order too), from the scan
    over all supersets of O: O alone decides."""
    rows = cl.type_census(["A", "B", "C", "D", "E", "F", "G"], 10)
    assert len(rows) == 41
    for row in rows:
        sigma = SigmaType.make("%s%d" % (row["type"], row["rank"]), [1] + [0] * row["rank"])
        want = superset_scan_unreachable(affine_diagram_data(sigma))
        assert repr(row["witness"]) == repr(want), row


def test_rref_int_matches_rref():
    """Random low-rank integer matrices, zero rows and columns included."""
    rng = random.Random(7)
    for _ in range(500):
        rows, cols = rng.randint(1, 8), rng.randint(1, 9)
        k = rng.randint(1, min(rows, cols))
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rows)]
        right = [[rng.choice([0, 0, rng.randint(-4, 4)]) for _ in range(cols)]
                 for _ in range(k)]
        m = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(cols)]
             for i in range(rows)]
        red, pivots = rref_int(m)
        want, want_pivots = rref([[Q(x) for x in row] for row in m])
        assert pivots == want_pivots and len(red) == len(pivots)
        assert len({red[r][pc] for r, pc in enumerate(pivots)}) <= 1
        assert [[Q(x, red[r][pc]) for x in red[r]] for r, pc in enumerate(pivots)] \
            == want[:len(pivots)]


N_TABLE_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3", "C4",
                 "D4", "D5", "G2", "F4", "E6", "E7"]


@pytest.mark.parametrize("label", N_TABLE_TYPES)
def test_n_table_matches_fraction_oracle(label):
    """The integer table holds exactly the signed pairs, with the oracle's values."""
    alg = chevalley_algebra(label)
    rs = alg.rs
    npos = fraction_positive_constants(rs)
    want = {(a, b): fraction_resolve_n(rs, npos, a, b)
            for a in rs.all_roots for b in rs.all_roots if rs.is_root(add(a, b))}
    assert alg.n_table == want


def oracle_bracket_basis(alg, i, j):
    """[b_i, b_j] on the basis, with int coefficients, worked out afresh."""
    nr = 2 * alg.num_pos
    roots = alg.rs.all_roots
    if i >= nr:
        if j >= nr:
            return {}
        c = alg.rs.pairing(roots[j], i - nr)  # [h_k, e_y]
        return {j: c} if c else {}
    if j >= nr:
        c = alg.rs.pairing(roots[i], j - nr)
        return {i: -c} if c else {}
    x, y = roots[i], roots[j]
    n = alg.n_table.get((x, y))
    if n is not None:
        return {alg.rs.root_position[add(x, y)]: n}
    if j - i == alg.num_pos:  # [e_x, f_x]
        return alg.coroot_combo(x)
    if i - j == alg.num_pos:  # [f_y, e_y]
        return vec_scale(alg.coroot_combo(y), -1)
    return {}


TABLE_TYPES = (["A%d" % n for n in range(1, 9)] + ["B%d" % n for n in range(2, 9)]
               + ["C%d" % n for n in range(2, 9)] + ["D%d" % n for n in range(4, 9)]
               + ["E6", "E7", "E8", "F4", "G2"])


@pytest.mark.parametrize("label", TABLE_TYPES)
def test_table_matches_bracket_oracle(label):
    """Row i holds exactly the j with [b_i, b_j] != 0, in order, each with
    the oracle's int terms sorted by basis index."""
    alg = chevalley_algebra(label)
    want = [[(j, tuple(sorted(br.items()))) for j in range(alg.dim)
             if (br := oracle_bracket_basis(alg, i, j))] for i in range(alg.dim)]
    assert [list(row.items()) for row in alg.table] == want
    assert all(type(c) is int for row in alg.table for terms in row.values() for _, c in terms)


def tuple_constants(rs):
    """N_{a,b} keyed by root tuples, by the extraspecial recursion on tuple
    root arithmetic: each constant fills its triple a + b + c = 0 and the
    negated triple, and the Jacobi step reads only constants already set."""
    table = {}

    def put(a, b, n):
        c = neg(add(a, b))
        for x, y, v in ((a, b, n), (b, c, n * rs.sq_len[a] // rs.sq_len[c]),
                        (c, a, n * rs.sq_len[b] // rs.sq_len[c])):
            table[x, y] = v
            table[y, x] = -v
            table[neg(x), neg(y)] = -v
            table[neg(y), neg(x)] = v

    order = {r: k for k, r in enumerate(rs.positive_roots)}
    for gamma in rs.positive_roots:
        if sum(gamma) < 2:
            continue
        decomps = [(alpha, sub(gamma, alpha)) for alpha in rs.positive_roots
                   if order.get(sub(gamma, alpha), -1) > order[alpha]]
        eps, eta = decomps[0]
        put(eps, eta, rs.p_value(eps, eta) + 1)
        for alpha, beta in decomps[1:]:
            acc = 0
            if rs.is_root(sub(alpha, eps)):
                acc += table[neg(eps), alpha] * table[sub(alpha, eps), beta]
            if rs.is_root(sub(beta, eps)):
                acc += table[beta, neg(eps)] * table[sub(beta, eps), alpha]
            put(alpha, beta, -acc // table[gamma, neg(eps)])
    return table


def tuple_table(alg, n_table):
    """The rows of the structure table, from a tuple-keyed N table."""
    npos, pos = alg.num_pos, alg.rs.root_position
    rows = [dict() for _ in range(alg.dim)]
    for (x, y), c in n_table.items():
        rows[pos[x]][pos[y]] = ((pos[add(x, y)], c),)
    for b, beta in enumerate(alg.rs.positive_roots):
        h = tuple(alg.coroot_combo(beta).items())
        rows[b][b + npos] = h
        rows[b + npos][b] = tuple((k, -c) for k, c in h)
        for k in range(alg.rank):
            c = alg.rs.pairing(beta, k)
            if c:
                for j, cj in ((b, c), (b + npos, -c)):
                    rows[alg.h_index(k)][j] = ((j, cj),)
                    rows[j][alg.h_index(k)] = ((j, -cj),)
    return tuple({j: row[j] for j in sorted(row)} for row in rows)


@pytest.mark.parametrize("label", TABLE_TYPES)
def test_table_matches_tuple_oracle(label):
    """The int-code constants and table equal the tuple-arithmetic ones: the
    same rows, the same N table in the same key order, the same reprs."""
    alg = chevalley_algebra(label)
    n_table = tuple_constants(alg.rs)
    assert list(alg.n_table.items()) == list(n_table.items())
    want = tuple_table(alg, n_table)
    assert alg.table == want
    assert [repr(row) for row in alg.table] == [repr(row) for row in want]


def gram_casimir(alg):
    """sum b_a (x) b^a with the dual basis read off the dense Killing Gram."""
    gram = dense_killing_gram(alg)
    out = {}
    for beta in alg.rs.positive_roots:
        ei, fi = alg.e_index(beta), alg.f_index(beta)
        out[(ei, fi)] = out[(fi, ei)] = 1 / gram[ei][fi]
    hs = [alg.h_index(i) for i in range(alg.rank)]
    ginv = mat_inverse([[gram[i][j] for j in hs] for i in hs])
    for i, hi in enumerate(hs):
        for j, hj in enumerate(hs):
            if ginv[i][j]:
                out[(hi, hj)] = ginv[i][j]
    return out


@pytest.mark.parametrize("label", TABLE_TYPES)
def test_casimir_matches_killing_gram_oracle(label):
    alg = chevalley_algebra(label)
    assert repr(alg.casimir()) == repr(gram_casimir(alg))


def test_r0_builds_no_structure_constants(monkeypatch):
    """The untwisted loop algebra and r0 read the Killing form off the root
    system; they build neither the structure constants nor the table."""
    for mod, name in ((chev, "_ALG_CACHE"), (lp, "_LOOP_CACHE"), (lp, "_DIAGRAM_CACHE")):
        monkeypatch.setattr(mod, name, {})

    def refuse(rs):
        raise AssertionError("structure constants built")

    monkeypatch.setattr(chev, "_build_constants", refuse)
    L = loop_algebra(SigmaType.make("E7", (1,) + (0,) * 7, None))
    r0(L)
    assert not {"n_codes", "n_table", "table"} & set(vars(L.alg))


def test_table_rows_are_shared_and_left_unchanged(monkeypatch, capsys):
    """verify-cybe, twist and the structure export of B4 all read the one
    cached table and write none of its rows."""
    alg = chevalley_algebra("B4")
    table = alg.table
    before = [dict(row) for row in table]      # the terms are tuples
    monkeypatch.chdir(GOLDEN)
    for name in ("verify-B4", "twist-B4"):
        assert (cli.main(dict(CASES)[name]), capsys.readouterr().out) == expected(name)
    assert cli.main(["export", "--what", "structure", "--type", "B4"]) == 0
    capsys.readouterr()
    assert chevalley_algebra("B4") is alg and alg.table is table
    assert [dict(row) for row in table] == before


KILLING_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3", "C4",
                 "D4", "D5", "G2", "F4", "E6", "E7", "E8"]


@pytest.mark.parametrize("label", KILLING_TYPES)
def test_killing_gram_matches_ad_trace_oracle(label):
    alg = chevalley_algebra(label)
    assert dense_killing_gram(alg) == ad_trace_killing_gram(alg)


# (label, s, nu): outer twists, whose fixed Cartan is spanned by orbit sums
OUTER_TWISTS = [("A3", (1, 0, 0), (2, 1, 0)), ("D4", (1, 0, 0, 0), (0, 1, 3, 2)),
                ("D4", (1, 0, 0), (2, 1, 3, 0)), ("E6", (1, 0, 0, 0, 0), (5, 1, 4, 3, 2, 0))]


@pytest.mark.parametrize("label,s,nu", OUTER_TWISTS,
                         ids=[diagram_id((label, nu, None)) for label, _, nu in OUTER_TWISTS])
def test_twisted_h_gram_matches_ad_trace_oracle(label, s, nu):
    L = loop_algebra(SigmaType.make(label, s, nu))
    assert L.h_gram == oracle_cartan_gram(L.alg, L.h_basis)


def slot_diagram(L, sigma):
    """Diagram data of an outer nu, read off the slots of the loop algebra L.

    The simple roots of the fixed subalgebra are its positive weights that
    are no sum of two others, and alpha_0 is the lowest weight of g_1 as a
    module over it.  The slots do not depend on the grading, so one L serves
    every sigma of its type and nu.  Each coroot t_w solves h_gram t = w,
    (t_x, t_y) = y(t_x), the Cartan entries are 2 (t_i, t_j) / (t_j, t_j),
    and the marks solve sum a_i alpha_i = 0 with a_0 = 1, all in Fractions.
    """
    h_gram = [[L.alg.killing(a, b) for b in L.h_basis] for a in L.h_basis]
    # Fraction weights: `solve` on ints would divide to floats
    pos_weights = {tuple(map(Q, s.weight)) for s in L.slots
                   if s.nu_class == 0 and s.positive is True}

    def wsum(a, b):
        return tuple(x + y for x, y in zip(a, b))

    simple = sorted(w for w in pos_weights
                    if not any(wsum(u, v) == w for u in pos_weights for v in pos_weights))
    assert len(simple) == L.nh, "wrong number of simple roots for the fixed subalgebra"
    w1 = {tuple(map(Q, s.weight)) for s in L.slots if s.nu_class == 1}
    cand = [w for w in w1
            if not any(tuple(a - b for a, b in zip(w, sw)) in w1 for sw in simple)]
    assert len(cand) == 1, "lowest weight of g_1 is not unique: %r" % (cand,)
    node_weights = [cand[0]] + simple
    nodes = len(node_weights)
    coroots = [solve(h_gram, list(w)) for w in node_weights]
    gram = [[sum((x[a] * y[a] for a in range(L.nh)), Q(0)) for y in node_weights]
            for x in coroots]
    cartan = [[2 * gram[i][j] / gram[j][j] for j in range(nodes)] for i in range(nodes)]
    rest = solve([[w[t] for w in node_weights[1:]] for t in range(L.nh)],
                 [-node_weights[0][t] for t in range(L.nh)])
    marks = [Q(1)] + rest
    assert all(x.denominator == 1 for row in cartan for x in row)
    assert all(a.denominator == 1 and a > 0 for a in marks)
    funcs = [list(w) + [Q(x)] for w, x in zip(node_weights, sigma.s)]
    d = lcm(*(x.denominator for row in [*funcs, *coroots] for x in row))
    return SimpleNamespace(
        sigma=sigma, nh=L.nh, h_gram=h_gram, node_weights=node_weights,
        node_coroots=coroots, coroot_gram=gram, affine_cartan=cartan, marks=marks,
        m=L.nu_order * sum(a * x for a, x in zip(marks, sigma.s)),
        integer_nodes=tuple([[int(x * d) for x in r] for r in rows]
                            for rows in (funcs, coroots)) + (d,))


# (label, nu): A_n^(2), D_n^(2), every order-2 and order-3 twist of D4, and E6^(2)
SLOT_DIAGRAMS = ([("A%d" % n, tuple(range(n))[::-1]) for n in range(2, 9)]
                 + [("D%d" % n, tuple(range(n - 2)) + (n - 1, n - 2)) for n in range(5, 9)]
                 + [("D4", nu) for nu in [(0, 1, 3, 2), (2, 1, 0, 3), (3, 1, 2, 0),
                                          (2, 1, 3, 0), (3, 1, 0, 2)]]
                 + [("E6", (5, 1, 4, 3, 2, 0))])


@pytest.mark.parametrize("label,nu", SLOT_DIAGRAMS,
                         ids=[diagram_id((label, nu, None)) for label, nu in SLOT_DIAGRAMS])
def test_affine_diagram_data_matches_slot_oracle(label, nu):
    nodes = affine_node_count(CartanType.parse(label), nu)
    gradings = [[1] + [0] * (nodes - 1), [1] * nodes, [0] * (nodes - 1) + [1]]
    L = loop_algebra(SigmaType.make(label, gradings[0], nu))
    for s in gradings:
        sigma = SigmaType.make(label, s, nu)
        oracle = vars(slot_diagram(L, sigma))
        diagram = vars(affine_diagram_data(sigma))
        assert {k: diagram.get(k) for k in oracle} == oracle, s


def eigen_kernel_solve(mat, j, r):
    """Basis of the zeta_r^j eigenspace of mat, by one kernel solve."""
    one = Q(1) if r <= 2 else CycNumber(1)
    lam = zeta(r, j)
    n = len(mat)
    a = [[one * mat[i][k] - (lam if i == k else 0) for k in range(n)] for i in range(n)]
    return kernel_basis(a, one * 0, one)


def branch_slots(L):
    """The slots of L, built on an untwisted and a twisted branch."""
    alg = L.alg
    r = L.nu_order
    slots = []

    def new_slot(j, weight, vec, positive, cartan=False):
        base = L.s_height(weight, j % r)
        slots.append(lp.Slot(len(slots), j % r, weight, vec, positive, cartan, base, L.m))

    if r == 1:
        for beta in alg.rs.positive_roots:
            new_slot(0, L._weight_of_root(beta), {alg.e_index(beta): Q(1)}, True)
            new_slot(0, L._weight_of_root(neg(beta)), {alg.f_index(beta): Q(1)}, False)
        for i in range(alg.rank):
            new_slot(0, (0,) * L.nh, {alg.h_index(i): Q(1)}, None, cartan=True)
        return slots
    seen = set()
    for rho in alg.rs.all_roots:
        if rho in seen:
            continue
        orbit = [rho]
        cur = lp._perm_root(L.nu_perm, rho)
        while cur != rho:
            orbit.append(cur)
            cur = lp._perm_root(L.nu_perm, cur)
        seen.update(orbit)
        idxs = [alg.root_index(x) for x in orbit]
        mat = [[Q(0)] * len(idxs) for _ in idxs]
        for c, idx in enumerate(idxs):
            img = L.nu_cols[idx]
            for rr, iidx in enumerate(idxs):
                if iidx in img:
                    mat[rr][c] = img[iidx]
        for j in range(r):
            for v in eigen_kernel_solve(mat, j, r):
                new_slot(j, L._weight_of_root(rho),
                         {idx: v[c] for c, idx in enumerate(idxs) if v[c] != 0}, is_positive(rho))
    for orbit in L.orbits:
        idxs = [alg.h_index(i) for i in orbit]
        mat = [[Q(0)] * len(idxs) for _ in idxs]
        for c, i in enumerate(orbit):
            mat[idxs.index(alg.h_index(L.nu_perm[i]))][c] = Q(1)
        for j in range(r):
            for v in eigen_kernel_solve(mat, j, r):
                new_slot(j, (0,) * L.nh, {idxs[c]: v[c] for c in range(len(idxs)) if v[c] != 0},
                         None, cartan=(j == 0))
    return slots


def slot_fields(slot):
    return (slot.nu_class, slot.weight, repr(slot.vec), slot.positive, slot.cartan,
            slot.nu_base_degree)


def slots_by_key(slots):
    """(weight, nu-class) -> the fields of its slots, in index order."""
    out = {}
    for slot in slots:
        out.setdefault((slot.weight, slot.nu_class), []).append(slot_fields(slot))
    return out


# (label, nu): every untwisted type the tests build, and outer twists of order 2 and 3
SLOT_ALGEBRAS = ([(label, None) for label in ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2",
                                               "C3", "C4", "D4", "D5", "G2", "F4", "E6", "E7")]
                 + [("A%d" % n, tuple(range(n))[::-1]) for n in range(2, 6)]
                 + [("D4", (0, 1, 3, 2)), ("D5", (0, 1, 2, 4, 3)), ("E6", (5, 1, 4, 3, 2, 0)),
                    ("D4", (2, 1, 3, 0))])


@pytest.mark.parametrize("label,nu", SLOT_ALGEBRAS,
                         ids=[diagram_id((label, nu, None)) for label, nu in SLOT_ALGEBRAS])
def test_slots_match_branch_oracle(label, nu):
    """Every slot against `branch_slots`, keyed by (weight, nu-class), at
    s = e_0 and at s = e_n (s_0 = 0); by index as well when nu = id.  The
    vectors are compared by repr, so their coefficient types must agree."""
    nodes = affine_node_count(CartanType.parse(label), nu)
    for s in ([1] + [0] * (nodes - 1), [0] * (nodes - 1) + [1]):
        L = loop_algebra(SigmaType.make(label, s, nu))
        want = branch_slots(L)
        assert slots_by_key(L.slots) == slots_by_key(want), s
        assert [slot.index for slot in L.slots] == list(range(len(want)))
        if L.nu_order == 1:
            assert list(map(slot_fields, L.slots)) == list(map(slot_fields, want)), s


def chevalley_form(L, f, g):
    """B(z^j x, z^k y) = delta_{j+k,0} kappa(x, y), through Chevalley coordinates."""
    acc = Q(0)
    fparts = f.chev_parts()
    gparts = g.chev_parts()
    for k, vf in fparts.items():
        vg = gparts.get(-k)
        if vg:
            acc += L.alg.killing(vf, vg)
    return acc


# (label, s, nu): untwisted, order-2 (one graded with s_0 = 0) and order-3
FORM_ALGEBRAS = [("A2", (1, 0, 0), None), ("B3", (1, 0, 0, 0), None), ("G2", (1, 0, 0), None),
                 ("A3", (1, 0, 0), (2, 1, 0)), ("A4", (0, 1, 0), (3, 2, 1, 0)),
                 ("D4", (1, 0, 0), (2, 1, 3, 0))]


@pytest.mark.parametrize("label,s,nu", FORM_ALGEBRAS,
                         ids=["%s-%s" % (diagram_id((label, nu, None)), "".join(map(str, s)))
                              for label, s, nu in FORM_ALGEBRAS])
def test_slot_form_matches_chevalley_oracle(label, s, nu):
    L = loop_algebra(SigmaType.make(label, s, nu))
    basis = L.basis_up_to(2)
    types = set()
    for f in basis:
        for g in basis:
            got, want = L.form(f, g), chevalley_form(L, f, g)
            assert (got, type(got)) == (want, type(want)), (f, g)
            types.add(type(got).__name__)
    assert types == ({"Fraction", "CycNumber"} if L.nu_order == 3 else {"Fraction"})


def solve_slot_coords(L, gvec):
    """Slot coordinates of a g-vector: the basis indices are bucketed by
    restricted weight, and each bucket is one `solve` against the vectors
    of the slots of that weight."""
    zero = tuple([Q(0)] * L.nh)
    buckets = {}
    for idx, c in gvec.items():
        rho = L.alg.basis_root(idx)
        buckets.setdefault(L._weight_of_root(rho) if rho is not None else zero, {})[idx] = c
    out = {}
    for w, sub in buckets.items():
        ids = [slot.index for slot in L.slots if slot.weight == w]
        support = sorted({i for sid in ids for i in L.slots[sid].vec})
        assert set(sub) <= set(support)
        sol = solve([[L.slots[sid].vec.get(i, Q(0)) for sid in ids] for i in support],
                    [sub.get(i, Q(0)) for i in support])
        assert sol is not None
        out.update((sid, c) for sid, c in zip(ids, sol) if c != 0)
    return out


# FORM_ALGEBRAS, D4^(2) and E6^(2)
SLOT_COORD_ALGEBRAS = FORM_ALGEBRAS + [("D4", (1, 0, 0, 0), (0, 1, 3, 2)),
                                       ("E6", (1, 0, 0, 0, 0), (5, 1, 4, 3, 2, 0))]


@pytest.mark.parametrize("label,s,nu", SLOT_COORD_ALGEBRAS,
                         ids=["%s-%s" % (diagram_id((label, nu, None)), "".join(map(str, s)))
                              for label, s, nu in SLOT_COORD_ALGEBRAS])
def test_slot_coords_match_solve_oracle(label, s, nu):
    """`chev_slots` and `slot_coords` against one solve per bucket, on every
    basis index and on seeded random g-vectors (over Q(zeta_3) at order 3);
    the slot vectors take the coordinates back to the g-vector."""
    L = loop_algebra(SigmaType.make(label, s, nu))
    dim = L.alg.dim
    for i in range(dim):
        want = solve_slot_coords(L, {i: Q(1)})
        assert L.chev_slots[i] == sorted(want.items()), i
        assert L.slot_coords({i: Q(1)}) == want, i
    rng = random.Random(1501)
    for _ in range(20):
        gvec = {}
        for i in rng.sample(range(dim), min(8, dim)):
            c = Q(rng.randint(-6, 6), rng.randint(1, 5))
            gvec[i] = CycNumber(c, rng.randint(-2, 2)) if L.nu_order == 3 else c
        gvec = {i: c for i, c in gvec.items() if c}
        got = L.slot_coords(gvec)
        assert got == solve_slot_coords(L, gvec)
        back = {}
        for sid, c in got.items():
            for i, ci in L.slots[sid].vec.items():
                add_term(back, i, c * ci)
        assert back == gvec


# ------------------------------------------------- CYB and residue oracles


def _bracket_into(alg, acc, d, i, j, pos, rest, c):
    """acc += c * x^d * (bracket of basis i,j placed at leg `pos`, rest at others)."""
    br = alg.bracket_basis(i, j)
    if not br:
        return
    for t, ct in br.items():
        legs = list(rest)
        legs.insert(pos, t)
        add_term(acc, d + tuple(legs), c * ct)


def evaluate_cybe_at(r, pts):
    """CYB(r)(x1,x2,x3) evaluated exactly at rational points.

    Points must avoid x_i^m = x_j^m.  Returns a sparse g^3 tensor.
    """
    x1, x2, x3 = (Q(p) for p in pts)
    m = r.m
    for a, b in ((x1, x2), (x1, x3), (x2, x3)):
        if a ** m == b ** m:
            raise ValueError("points must satisfy x_i^m != x_j^m")

    def value(x, y):
        out = {}
        for (dx, dy, i, j), c in r.poly.items():
            out[(i, j)] = out.get((i, j), 0) + c * x ** dx * y ** dy
        den = (x / y) ** m - 1
        for k, pk in enumerate(r.pole_num):
            f = (x / y) ** k / den
            for (i, j), c in pk.items():
                out[(i, j)] = out.get((i, j), 0) + c * f
        return {k: v for k, v in out.items() if v}

    v12, v13, v23 = value(x1, x2), value(x1, x3), value(x2, x3)
    alg = r.L.alg
    acc = {}

    def brk(t1, t2, mode):
        for (i, j), c1 in t1.items():
            for (k, l), c2 in t2.items():
                c = c1 * c2
                if mode == "12,13":
                    _bracket_into(alg, acc, (0, 0, 0), i, k, 0, (j, l), c)
                elif mode == "12,23":
                    _bracket_into(alg, acc, (0, 0, 0), j, k, 1, (i, l), c)
                else:
                    _bracket_into(alg, acc, (0, 0, 0), j, l, 2, (i, k), c)

    brk(v12, v13, "12,13")
    brk(v12, v23, "12,23")
    brk(v13, v23, "13,23")
    return {k[3:]: v for k, v in acc.items() if v}


def residue_oracle(L, r, f):
    """res_{y=0}[ psi(r(z,y))(f(y)) / y ] computed by truncated series.

    Independent of `residue_operator`: expands the pole as a geometric
    series in (y/z)^m and reads off the y^0 coefficient exactly.
    """
    if f.is_zero():
        return L.zero()
    lo = min(f.degrees())
    # accumulate raw degree -> g-vector and convert once (single Chevalley
    # legs need not be graded, but the total is)
    raw = {}
    # poly part: term x^a y^b u (x) v acts as kappa(v, f_{-b}) z^a u
    fparts = f.chev_parts()
    for (a, b, i, j), c in r.poly.items():
        vf = fparts.get(-b)
        if vf:
            val = L.alg.killing({j: Q(1)}, vf)
            if val:
                add_term(raw.setdefault(a, {}), i, c * val)
    # pole part: 1/((z/y)^m - 1) = sum_{l>=1} (y/z)^{lm}
    m = L.m
    for k, pk in enumerate(r.pole_num):
        lmax = max(0, k - lo) // m + 1
        for (i, j), c in pk.items():
            for l in range(1, lmax + 1):
                # (z/y)^k (y/z)^{lm} u (x) v  ->  z^{k-lm} y^{lm-k} u (x) v,
                # so the residue pairs the f-part of degree k - lm
                vf = fparts.get(k - m * l)
                if vf:
                    val = L.alg.killing({j: Q(1)}, vf)
                    if val:
                        add_term(raw.setdefault(k - m * l, {}), i, c * val)
    acc = L.zero()
    for deg, vec in raw.items():
        if vec:
            acc = acc + L.from_chev(deg, vec)
    return acc


# ---------------------------------------------------------------- theta maps


def sweep_root_closure(L, simple):
    """Close `simple` under adding a simple root, by full sweeps until one
    adds nothing; each new root maps to the pair (r', s) it came from."""
    roots = dict.fromkeys(simple)
    changed = True
    while changed:
        changed = False
        for (w, k) in list(roots):
            for (sw, sk) in simple:
                new = (tuple(a + b for a, b in zip(w, sw)), k + sk)
                if new not in roots and L.root_slot(*new) is not None:
                    roots[new] = ((w, k), (sw, sk))
                    changed = True
    return roots


# (label, s, nu): untwisted, the principal A2 grading, order 2 and order 3
CLOSURE_DIAGRAMS = [("A3", (1, 0, 0, 0), None), ("B3", (1, 0, 0, 0), None),
                    ("C3", (1, 0, 0, 0), None), ("G2", (1, 0, 0), None),
                    ("A4", (1, 0, 0, 0, 0), None), ("A2", (1, 1, 1), None),
                    ("A3", (1, 0, 0), (2, 1, 0)), ("D4", (1, 0, 0), (2, 1, 3, 0))]


@pytest.mark.parametrize("label,s,nu", CLOSURE_DIAGRAMS,
                         ids=["%s-%s" % (diagram_id((label, nu, None)), "".join(map(str, s)))
                              for label, s, nu in CLOSURE_DIAGRAMS])
def test_root_closure_matches_sweep_oracle(label, s, nu):
    """The same items in the same order, on the Gamma_1 and Gamma_2 of every
    valid triple: seeded with the node pairs, as `ThetaMap` seeds it, and
    with the plus roots alone.  The `positive_roots` of a theta map on those
    nodes are the plus-seeded closure, sorted."""
    sigma = SigmaType.make(label, s, nu)
    L = loop_algebra(sigma)
    gens = L.generators()
    gammas: dict = {}        # one gamma for each node set
    for g1, g2, gm in cl.enumerate_triples(affine_diagram_data(sigma)):
        gammas.setdefault(g1, dict(gm))
        gammas.setdefault(g2, {b: a for a, b in dict(gm).items()})
    assert len(gammas) > 1
    for nodes, gamma in gammas.items():
        pairs = [bd._root_key(L, gens[i][key]) for i in sorted(nodes)
                 for key in ("plus", "minus")]
        plus = [bd._root_key(L, gens[i]["plus"]) for i in sorted(nodes)]
        for seeds in (pairs, plus):
            got = list(bd._root_closure(L, seeds).items())
            assert got == list(sweep_root_closure(L, seeds).items()), sorted(nodes)
        want = sorted(sweep_root_closure(L, plus))
        assert bd.ThetaMap(L, nodes, gamma).positive_roots == want, sorted(nodes)


def test_theta_map_is_shared_and_keyed_on_gamma():
    """One map per (L, Gamma_1, gamma): equal data share it, and a gamma
    with the same Gamma_1 gets its own, sending e_1 to e_gamma(1)."""
    L = loop_algebra(SigmaType.make("A3", [1, 0, 0, 0]))
    gens = L.generators()
    for target in (2, 3, 0):
        theta = bd.theta_map(L, {1}, {1: target})
        assert theta is bd.theta_map(L, frozenset({1}), {1: target})
        assert theta.apply(gens[1]["plus"]) == gens[target]["plus"]


def test_verify_cybe_builds_two_theta_maps(monkeypatch, capsys):
    """build_twist, build_rq forward and backward: the forward map is built once."""
    built = []
    build = bd.ThetaMap._build

    def counting(self):
        built.append((self.gamma1, self.gamma))
        build(self)

    monkeypatch.setattr(bd, "_THETA_CACHE", {})
    monkeypatch.setattr(bd.ThetaMap, "_build", counting)
    monkeypatch.chdir(GOLDEN)
    assert (cli.main(dict(CASES)["verify-B4"]), capsys.readouterr().out) == expected("verify-B4")
    assert built == [({0, 1}, {0: 1, 1: 3}), ({1, 3}, {1: 0, 3: 1})]


@pytest.mark.parametrize("quad", ["quad.json", "quad_a3_order2.json"])
def test_r0_is_shared_and_never_mutated(quad, monkeypatch, capsys):
    """One r0 per loop algebra (A2 and A3^(2) here): verify-cybe,
    twist_residual, apply_equivalence and two_point_json all read it, and
    afterwards it is the same object and equals a fresh build.  So does the
    memoised delta_0 of each first leg that twist_residual read twice."""
    monkeypatch.chdir(GOLDEN)
    q = _defect_quad(quad)
    L = q.algebra()
    shared = r0(L)
    assert cli.main(["verify-cybe", "-i", quad]) == 0
    t = bd.build_twist(q)
    assert not twist_residual(L, t) and not twist_residual(L, t)
    n = L.generators()[1]["plus"]
    apply_equivalence({"kind": "exp_ad", "element": n}, shared)
    two_point_json(r0(L))
    fresh = r0.__wrapped__(L)
    assert r0(L) is shared
    assert (shared.poly, shared.pole_num) == (fresh.poly, fresh.pole_num)
    firsts = {first for first, _ in tensor_to_slots(L, t)}
    assert firsts
    for first in firsts:
        assert _delta0(L, first) == cobracket(LoopElement(L, {first: Q(1)}), fresh)


# ------------------------------------------------------------ twist defect


def alt_cyclic(t):
    """Alt: u1(x)u2(x)u3 + u2(x)u3(x)u1 + u3(x)u1(x)u2 on tensor functions."""
    out = {}
    for (d1, d2, d3, i, j, k), c in t.items():
        for key in ((d1, d2, d3, i, j, k), (d2, d3, d1, j, k, i), (d3, d1, d2, k, i, j)):
            add_term(out, key, c)
    return out


def pair_twist_defect(L, t):
    """CYB(t) - Alt((delta_0 (x) 1) t), one cobracket per slot-pair term of t."""
    d1 = {}
    for ((s1, dx), (s2, dy)), c in tensor_to_slots(L, t).items():
        delta_f = cobracket(LoopElement(L, {(s1, dx): Q(1)}), r0(L))
        for (a, b, p, q_), cf in delta_f.items():
            for j, cj in L.slots[s2].vec.items():
                add_term(d1, (a, b, dy, p, q_, j), c * cf * cj)
    return t2_add(cyb_of_laurent(L.alg, t), alt_cyclic(d1), scale=-1)


# quadruples, read as JSON: a file in tests/golden/, or (type, s, gamma)
# with its canonical t_h
DEFECT_QUADS = [("A2", [1, 0, 0], {1: 2}), ("A2", [1, 0, 0], {1: 0, 2: 1}),
                ("B3", [1, 0, 0, 0], {0: 1}), ("G2", [1, 0, 0], {0: 2}),
                "quad_a3_order2.json", "quad_d4_order3.json"]


def _defect_quad(case):
    if isinstance(case, str):
        with open(os.path.join(GOLDEN, case)) as fh:
            return quadruple_from_json(json.load(fh))
    label, s, gamma = case
    sigma = SigmaType.make(label, s)
    return bd.BDQuadruple.make(sigma, set(gamma), set(gamma.values()), gamma,
                               bd.canonical_t_h(sigma, set(gamma), set(gamma.values()), gamma))


@pytest.mark.parametrize("case", DEFECT_QUADS, ids=[c if isinstance(c, str) else
                                                    "%s-%s" % (c[0], c[2]) for c in DEFECT_QUADS])
def test_twist_defect_matches_per_pair_oracle(case):
    """The oracle's values on the twist t_Q (zero), on 2 t_Q (nonzero) and on
    t_Q plus a wedge of two sums, whose first legs each carry several terms."""
    q = _defect_quad(case)
    L = loop_algebra(q.sigma)
    t = bd.build_twist(q)
    basis = L.basis_up_to(1)
    u = basis[0] + basis[len(basis) // 2].scale(Q(2, 3)) + basis[-1]
    v = basis[1] + basis[-2].scale(-3)
    for tt, zero in ((t, True), (t2_scale(t, 2), False), (t2_add(t, wedge(L, u, v)), None)):
        got = twist_defect(L, tt)
        assert got == pair_twist_defect(L, tt)
        assert zero is None or zero == (not got)
