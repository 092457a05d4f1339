from fractions import Fraction as Q

import pytest

from loopcybe.cartan import CartanType, build_root_system, neg, sub, is_positive, add
from loopcybe.chevalley import (apply_map, automorphism_order, chevalley_algebra,
                                lift_diagram_automorphism, vec_add, vec_scale)
from loopcybe.linalg import kernel_basis

RANK_LE_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4"]
THROUGH_E8 = (["A%d" % n for n in range(1, 9)] + ["B%d" % n for n in range(2, 9)]
              + ["C%d" % n for n in range(2, 9)] + ["D%d" % n for n in range(4, 9)]
              + ["E6", "E7", "E8", "F4", "G2"])


def vec_eq(x, y):
    return vec_add(x, y, -1) == {}


def dense_killing_gram(alg):
    """The Killing form on the whole basis, dense: `alg.killing` on basis pairs."""
    basis = [{i: Q(1)} for i in range(alg.dim)]
    return tuple(tuple(alg.killing(x, y) for y in basis) for x in basis)


def _pair_table(alg):
    dim = alg.dim
    return [[alg.bracket_basis(i, j) for j in range(dim)] for i in range(dim)]


def test_sl2_relations():
    alg = chevalley_algebra("A1")
    e, f, h = {0: Q(1)}, {1: Q(1)}, {2: Q(1)}
    assert alg.bracket(e, f) == h
    assert alg.bracket(h, e) == {0: Q(2)}
    assert alg.bracket(h, f) == {1: Q(-2)}


def test_a2_constants_all_unit():
    # p = 0 for every composable pair in A2, so |N| = 1 throughout
    alg = chevalley_algebra("A2")
    for (a, b), v in alg.n_table.items():
        assert abs(v) == 1
        assert alg.rs.p_value(a, b) == 0


def test_n_constants_magnitude():
    """|N_{a,b}| = p + 1 (Carter) on every signed pair of every type, each an int."""
    for label in THROUGH_E8:
        alg = chevalley_algebra(label)
        rs = alg.rs
        assert len(alg.n_table) == sum(rs.is_root(add(a, b))
                                       for a in rs.all_roots for b in rs.all_roots)
        for (a, b), v in alg.n_table.items():
            assert type(v) is int
            assert abs(v) == rs.p_value(a, b) + 1, (label, a, b)


@pytest.mark.parametrize("label", RANK_LE_4)
def test_exhaustive_invariants(label):
    """Antisymmetry, Jacobi, Killing invariance on all basis triples."""
    alg = chevalley_algebra(label)
    dim = alg.dim
    assert dim == len(alg.rs.all_roots) + alg.rank
    table = _pair_table(alg)
    assert all(type(c) is int for row in table for v in row for c in v.values())

    for i in range(dim):
        assert table[i][i] == {}
        for j in range(i + 1, dim):
            assert vec_eq(table[i][j], vec_scale(table[j][i], -1))

    def br(i, v):
        out = {}
        for t, c in v.items():
            for u, cu in table[i][t].items():
                s = out.get(u, 0) + c * cu
                if s:
                    out[u] = s
                else:
                    out.pop(u, None)
        return out

    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                acc = br(i, table[j][k])
                for src in (br(j, table[k][i]), br(k, table[i][j])):
                    for u, c in src.items():
                        s = acc.get(u, 0) + c
                        if s:
                            acc[u] = s
                        else:
                            acc.pop(u, None)
                assert not acc, "Jacobi fails at (%d,%d,%d) in %s" % (i, j, k, label)

    # kappa([x,y],z) = kappa(x,[y,z]) for all basis triples
    gram = dense_killing_gram(alg)

    def kappa_vec(v, w):
        return sum(gram[a][b] * ca * cb for a, ca in v.items() for b, cb in w.items())

    for i in range(dim):
        for j in range(dim):
            bij = table[i][j]
            for k in range(dim):
                lhs = kappa_vec(bij, {k: Q(1)})
                rhs = kappa_vec({i: Q(1)}, table[j][k])
                assert lhs == rhs


@pytest.mark.parametrize("label", RANK_LE_4)
def test_killing_nondegenerate(label):
    alg = chevalley_algebra(label)
    ker = kernel_basis([list(row) for row in dense_killing_gram(alg)], Q(0), Q(1))
    assert ker == []


def test_killing_sl2_values():
    alg = chevalley_algebra("A1")
    e, f, h = {0: Q(1)}, {1: Q(1)}, {2: Q(1)}
    assert alg.killing(h, h) == 8       # trace of ad(h)^2 on the adjoint
    assert alg.killing(e, e) == 0       # root-space orthogonality
    assert alg.killing(e, f) == 4
    # invariance computed on both sides independently
    assert alg.killing(alg.bracket(e, f), h) == alg.killing(e, alg.bracket(f, h))


def test_coroot_sl2():
    alg = chevalley_algebra("A1")
    cr = alg.coroot((Q(2),))            # alpha(h) = 2
    assert cr == {2: Q(1, 4)}           # h/4 since kappa(h,h) = 8
    assert alg.coroot((Q(0),)) == {}


def test_coroot_linearity_a2():
    alg = chevalley_algebra("A2")
    a = alg.root_functional((1, 0))
    b = alg.root_functional((0, 1))
    ab = alg.root_functional((1, 1))
    lhs = alg.coroot(ab)
    rhs = vec_add(alg.coroot(a), alg.coroot(b))
    assert vec_eq(lhs, rhs)


def test_casimir_sl2():
    alg = chevalley_algebra("A1")
    C = alg.casimir()
    assert C == {(0, 1): Q(1, 4), (1, 0): Q(1, 4), (2, 2): Q(1, 8)}


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
def test_casimir_properties(label):
    alg = chevalley_algebra(label)
    C = alg.casimir()
    # tau C = C
    assert C == {(j, i): c for (i, j), c in C.items()}
    # ad-invariance [x (x) 1 + 1 (x) x, C] = 0 for every basis x
    for x in range(alg.dim):
        acc = {}
        for (i, j), c in C.items():
            for t, ct in alg.bracket_basis(x, i).items():
                key = (t, j)
                acc[key] = acc.get(key, 0) + c * ct
            for t, ct in alg.bracket_basis(x, j).items():
                key = (i, t)
                acc[key] = acc.get(key, 0) + c * ct
        assert all(v == 0 for v in acc.values())


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_casimir_recovery(label):
    # sum_a kappa(x, b_a) b^a = x for every basis x
    alg = chevalley_algebra(label)
    C = alg.casimir()
    for x in range(alg.dim):
        acc = {}
        for (i, j), c in C.items():
            val = alg.killing({x: Q(1)}, {i: Q(1)})
            if val:
                acc[j] = acc.get(j, 0) + c * val
        acc = {k: v for k, v in acc.items() if v}
        assert acc == {x: Q(1)}


def test_identity_lift_is_identity():
    alg = chevalley_algebra("A2")
    cols = lift_diagram_automorphism(alg, [0, 1])
    assert all(cols[i] == {i: Q(1)} for i in range(alg.dim))


def test_a2_swap_lift():
    alg = chevalley_algebra("A2")
    cols = lift_diagram_automorphism(alg, [1, 0])
    assert automorphism_order(alg, cols) == 2
    # fixed subalgebra has dimension 3 and is closed under brackets (an sl2)
    dim = alg.dim
    mat = [[cols[j].get(i, Q(0)) - (1 if i == j else 0) for j in range(dim)]
           for i in range(dim)]
    fixed = kernel_basis(mat, Q(0), Q(1))
    assert len(fixed) == 3
    # simplicity surrogate: the fixed space contains an sl2-triple
    vecs = [{i: c for i, c in enumerate(v) if c} for v in fixed]
    brackets = [alg.bracket(a, b) for a in vecs for b in vecs]
    assert any(br for br in brackets)


def test_d4_triality_multiplicities():
    alg = chevalley_algebra("D4")
    cols = lift_diagram_automorphism(alg, [2, 1, 3, 0])
    assert automorphism_order(alg, cols) == 3
    dim = alg.dim
    m = [[cols[j].get(i, Q(0)) for j in range(dim)] for i in range(dim)]
    m2 = [[sum(m[i][k] * m[k][j] for k in range(dim)) for j in range(dim)]
          for i in range(dim)]
    fix = [[m[i][j] - (1 if i == j else 0) for j in range(dim)] for i in range(dim)]
    quad = [[m2[i][j] + m[i][j] + (1 if i == j else 0) for j in range(dim)]
            for i in range(dim)]
    assert len(kernel_basis(fix, Q(0), Q(1))) == 14
    assert len(kernel_basis(quad, Q(0), Q(1))) == 14  # 7 + 7 over Q(zeta_3)
    # over the honest cyclotomic field: the zeta_3 eigenspace is 7-dim
    from loopcybe.scalars import CycNumber, zeta
    z = zeta(3)
    mz = [[CycNumber(m[i][j]) - (z if i == j else 0) for j in range(dim)]
          for i in range(dim)]
    assert len(kernel_basis(mz, CycNumber(0), CycNumber(1))) == 7


def test_lift_rejects_bad_permutation():
    alg = chevalley_algebra("B2")
    with pytest.raises(ValueError):
        lift_diagram_automorphism(alg, [1, 0])   # B2 nodes have different lengths


def test_lift_respects_brackets():
    alg = chevalley_algebra("A2")
    cols = lift_diagram_automorphism(alg, [1, 0])
    for i in range(alg.dim):
        for j in range(alg.dim):
            lhs = apply_map(cols, alg.bracket_basis(i, j))
            rhs = alg.bracket(apply_map(cols, {i: Q(1)}), apply_map(cols, {j: Q(1)}))
            assert vec_eq(lhs, rhs)
