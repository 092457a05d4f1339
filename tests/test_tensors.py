import random
from fractions import Fraction as Q

import pytest

from loopcybe.loop import LoopElement, SigmaType, loop_algebra
from loopcybe.tensors import (TwoPointTensor, alt_cyclic, casimir_components, cobracket,
                              cybe, cyb_of_laurent, from_loop_tensor, r0,
                              residue_operator, skew, t2_add, t2_scale, taylor,
                              tensor_of_elements, twist_residual, verify_cybe, wedge)
from test_oracles import evaluate_cybe_at, residue_oracle


def zero_tensor(L):
    return TwoPointTensor(L, {}, [dict() for _ in range(L.m)])


def constant_tensor(L, t):
    return TwoPointTensor(L, {(0, 0, i, j): c for (i, j), c in t.items() if c},
                          [dict() for _ in range(L.m)])


ALL_SIGMAS = [("A1", [1, 0], None), ("A1", [1, 1], None), ("A2", [1, 0, 0], None),
              ("A2", [1, 1, 1], None), ("B2", [1, 0, 0], None), ("A2", [1, 0], [1, 0])]


def test_casimir_components_identity(sl2_loop):
    cas = casimir_components(sl2_loop)
    assert cas["components"][0] == sl2_loop.alg.casimir()
    assert cas["h"] == {(2, 2): Q(1, 8)}
    assert cas["minus"] == {(1, 0): Q(1, 4)}
    assert cas["plus"] == {(0, 1): Q(1, 4)}


def test_casimir_split_follows_affine_borel():
    """Under s = (0, 1) the affine node has degree 0 and alpha_0 = delta - alpha_1,
    so the degree-0 vector f of negative finite root is affine-positive."""
    cas = casimir_components(loop_algebra(SigmaType.make("A1", [0, 1])))
    assert cas["plus"] == {(1, 0): Q(1, 4)}
    assert cas["minus"] == {(0, 1): Q(1, 4)}


@pytest.mark.parametrize("label,s,nu", ALL_SIGMAS)
def test_casimir_components_sum(label, s, nu):
    L = loop_algebra(SigmaType.make(label, s, nu))
    cas = casimir_components(L)
    total = {}
    for comp in cas["components"]:
        total = t2_add(total, comp)
    assert total == L.alg.casimir()
    split = t2_add(t2_add(cas["h"], cas["plus"]), cas["minus"])
    assert split == cas["components"][0]


def test_r0_sl2_explicit(sl2_loop):
    r = r0(sl2_loop)
    # C_h/2 + C_-: h(x)h/16 + f(x)e/4, pole numerator = full Casimir
    assert r.poly == {(0, 0, 2, 2): Q(1, 16), (0, 0, 1, 0): Q(1, 4)}
    assert r.pole_num == [sl2_loop.alg.casimir()]


@pytest.mark.parametrize("label,s,nu", ALL_SIGMAS)
def test_r0_solves_cybe_and_is_skew(label, s, nu):
    L = loop_algebra(SigmaType.make(label, s, nu))
    r = r0(L)
    assert not cybe(r)
    assert skew(r).is_zero()


def test_cybe_zero_tensor(sl2_loop):
    assert not cybe(zero_tensor(sl2_loop))


def test_cybe_fake_twist_nonzero(sl2_loop):
    # r0 + e^f is not a solution
    L = sl2_loop
    e = L.from_chev(0, {0: Q(1)})
    f = L.from_chev(0, {1: Q(1)})
    fake = r0(L) + from_loop_tensor(L, wedge(L, e, f))
    assert cybe(fake)


def test_skew_of_symmetric_casimir(sl2_loop):
    L = sl2_loop
    C = constant_tensor(L, L.alg.casimir())
    doubled = skew(C)
    assert doubled == C.scale(2)


def test_evaluate_matches_symbolic(sl3_loop):
    r = r0(sl3_loop)
    assert not evaluate_cybe_at(r, (Q(2), Q(3), Q(5, 7)))
    with pytest.raises(ValueError):
        evaluate_cybe_at(r, (Q(1), Q(1), Q(2)))


def test_evaluate_detects_nonzero(sl2_loop):
    """The point evaluator flags non-solutions (soundness of sampling)."""
    L = sl2_loop
    e = L.from_chev(0, {0: Q(1)})
    f = L.from_chev(0, {1: Q(1)})
    fake = r0(L) + from_loop_tensor(L, wedge(L, e, f))
    assert evaluate_cybe_at(fake, (Q(2), Q(3), Q(5)))
    # and agrees with the symbolic verdict tensor-wise at the point
    sym = cybe(fake)
    assert sym


# ------------------------------------------- pair-pruned kernel vs n^2 loops


def _reference_bracket_into(alg, acc, d, i, j, pos, rest, c):
    for t, ct in alg.bracket_basis(i, j).items():
        legs = list(rest)
        legs.insert(pos, t)
        key = d + tuple(legs)
        s = acc.get(key, 0) + c * ct
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)


def _reference_cyb_of_laurent(alg, t):
    """CYB(t) by visiting every pair of terms (the original loop)."""
    acc = {}
    items = list(t.items())
    for (a, b, i, j), c1 in items:
        for (a2, b2, i2, j2), c2 in items:
            c = c1 * c2
            _reference_bracket_into(alg, acc, (a + a2, b, b2), i, i2, 0, (j, j2), c)
            _reference_bracket_into(alg, acc, (a, b + a2, b2), j, i2, 1, (i, j2), c)
            _reference_bracket_into(alg, acc, (a, a2, b + b2), j, j2, 2, (i, i2), c)
    return acc


def _reference_cybe(r):
    """cybe(r) by visiting every pair of cleared terms (the original loop)."""
    from loopcybe.tensors import laurent3_mul_clear
    alg, m = r.L.alg, r.m
    items = list(r.cleared().items())
    parts = []
    for pos, pairs in ((0, [(1, 2)]), (1, [(0, 2)]), (2, [(0, 1)])):
        acc = {}
        for (a, b, i, j), c1 in items:
            for (a2, b2, i2, j2), c2 in items:
                c = c1 * c2
                if pos == 0:      # [N12, N13] D23
                    _reference_bracket_into(alg, acc, (a + a2, b, b2), i, i2, 0, (j, j2), c)
                elif pos == 1:    # [N12, N23] D13
                    _reference_bracket_into(alg, acc, (a, b + a2, b2), j, i2, 1, (i, j2), c)
                else:             # [N13, N23] D12
                    _reference_bracket_into(alg, acc, (a, a2, b + b2), j, j2, 2, (i, i2), c)
        parts.append(laurent3_mul_clear(acc, m, pairs))
    return t2_add(t2_add(parts[0], parts[1]), parts[2])


# (label, s, nu, gamma); gamma None takes the first triple with the largest Gamma_1.
KERNEL_CASES = [
    ("A2", [1, 0, 0], None, None),
    ("A2", [1, 1, 1], None, None),              # principal grading, m = 3
    ("A3", [1, 0, 0], [2, 1, 0], None),         # A3^(2)
    ("D4", [1, 0, 0, 0, 0], None, None),
    ("B4", [1, 0, 0, 0, 0], None, {0: 1, 1: 3}),  # the census witness
]


def _kernel_twist(label, s, nu, gamma):
    from loopcybe.bd import BDQuadruple, build_twist, canonical_t_h
    from loopcybe.classify import enumerate_triples
    from loopcybe.loop import affine_diagram_data
    sigma = SigmaType.make(label, s, nu)
    if gamma is None:
        triples = enumerate_triples(affine_diagram_data(sigma))
        top = max(len(g1) for g1, _, _ in triples)
        gamma = dict(next(gm for g1, _, gm in triples if len(g1) == top))
    g1, g2 = set(gamma), set(gamma.values())
    q = BDQuadruple.make(sigma, g1, g2, gamma, canonical_t_h(sigma, g1, g2, gamma))
    return loop_algebra(sigma), build_twist(q)


@pytest.mark.parametrize("label,s,nu,gamma", KERNEL_CASES,
                         ids=["A2", "A2-principal", "A3^(2)", "D4", "B4-witness"])
def test_cybe_kernel_matches_reference(label, s, nu, gamma):
    """Zero on r0 + t_Q, nonzero on r0 + 2 t_Q, and dict-for-dict the n^2 loop."""
    L, t = _kernel_twist(label, s, nu, gamma)
    assert t
    for scale, solves in ((1, True), (2, False)):
        r = r0(L) + from_loop_tensor(L, t2_scale(t, scale))
        got = cybe(r)
        assert (not got) == solves
        assert got == _reference_cybe(r)
    assert cyb_of_laurent(L.alg, t) == _reference_cyb_of_laurent(L.alg, t)


def test_cybe_kernel_matches_reference_on_order_3():
    """D4^(3): the kernel on CycNumber coefficients, dict for dict the n^2
    loop, for CYB(t_Q) and for the cleared CYB of t_Q alone; r0 + t_Q solves
    the CYBE and r0 + 2 t_Q does not."""
    L, t = _kernel_twist("D4", [1, 0, 0], [2, 1, 3, 0], {0: 2})
    assert L.nu_order == 3
    assert "CycNumber" in {type(c).__name__ for c in t.values()}
    got = cyb_of_laurent(L.alg, t)
    assert got and got == _reference_cyb_of_laurent(L.alg, t)
    r = from_loop_tensor(L, t)
    got = cybe(r)
    assert got and got == _reference_cybe(r)
    assert verify_cybe(r0(L) + r) == {"cybe": "zero", "skew": "zero", "mode": "symbolic"}
    assert cybe(r0(L) + from_loop_tensor(L, t2_scale(t, 2)))


def test_kernel_b4_witness_twist_residual_and_point_oracle():
    """B4 witness: zero twist residual; the point oracle sees r0 + 2 t_Q fail."""
    L, t = _kernel_twist(*KERNEL_CASES[-1])
    assert twist_residual(L, t) == {}
    doubled = r0(L) + from_loop_tensor(L, t2_scale(t, 2))
    assert evaluate_cybe_at(doubled, (Q(2), Q(3), Q(5, 7)))


# ----------------------------------------------------------------- cobracket


def test_cobracket_generators(sl2_loop, sl3_loop):
    """delta(H_i) = 0 and delta(X_i^pm) = (B(a^v,a^v)/4)(H (x) X - X (x) H)."""
    for L in (sl2_loop, sl3_loop):
        r = r0(L)
        for i, g in enumerate(L.generators()):
            assert cobracket(g["h"], r) == {}
            bii = L.coroot_gram[i][i]
            for key in ("plus", "minus"):
                got = cobracket(g[key], r)
                want = t2_scale(wedge(L, g["h"], g[key]), Q(bii) / 4)
                assert got == want


def test_cobracket_co_skew(sl3_loop, a2_twisted):
    random.seed(6)
    for L in (sl3_loop, a2_twisted):
        r = r0(L)
        basis = L.basis_up_to(2)
        for _ in range(10):
            f = random.choice(basis) + random.choice(basis).scale(Q(2, 3))
            d = cobracket(f, r)
            tau = {(dy, dx, j, i): c for (dx, dy, i, j), c in d.items()}
            assert t2_add(d, tau) == {}


def test_cobracket_co_jacobi(sl2_loop):
    """Alt((delta (x) 1) delta(x)) = 0 on sampled elements."""
    L = sl2_loop
    r = r0(L)
    random.seed(8)
    basis = L.basis_up_to(2)
    for _ in range(6):
        f = random.choice(basis) + random.choice(basis).scale(Q(1, 2))
        d = cobracket(f, r)
        acc = {}
        for (dx, dy, i, j), c in d.items():
            inner = cobracket(L.from_chev(dx, {i: Q(1)}), r)
            for (a, b, p, q_), ci in inner.items():
                key = (a, b, dy, p, q_, j)
                s = acc.get(key, 0) + c * ci
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        assert alt_cyclic(acc) == {}


def test_cobracket_one_cocycle(sl3_loop):
    """delta([f,g]) = f . delta(g) - g . delta(f) on random pairs."""
    L = sl3_loop
    r = r0(L)
    random.seed(9)
    basis = L.basis_up_to(2)

    def dot_action(f, tensor):
        out = {}
        for kf, vf in f.chev_parts().items():
            for (dx, dy, i, j), c in tensor.items():
                for fi, fc in vf.items():
                    for t, ct in L.alg.bracket_basis(fi, i).items():
                        key = (dx + kf, dy, t, j)
                        s = out.get(key, 0) + c * fc * ct
                        if s:
                            out[key] = s
                        else:
                            out.pop(key, None)
                    for t, ct in L.alg.bracket_basis(fi, j).items():
                        key = (dx, dy + kf, i, t)
                        s = out.get(key, 0) + c * fc * ct
                        if s:
                            out[key] = s
                        else:
                            out.pop(key, None)
        return out

    for _ in range(8):
        f, g = random.sample(basis, 2)
        lhs = cobracket(L.bracket(f, g), r)
        rhs = t2_add(dot_action(f, cobracket(g, r)),
                     t2_scale(dot_action(g, cobracket(f, r)), -1))
        assert lhs == rhs


def test_cobracket_of_twisted_solution(sl3_loop):
    """delta_t(f) = delta_0(f) + f . t when r = r_0 + t."""
    import loopcybe.bd as bd
    from loopcybe.loop import SigmaType
    L = sl3_loop
    sigma = SigmaType.make("A2", [1, 0, 0])
    q = bd.BDQuadruple.make(sigma, {1}, {2}, {1: 2},
                            bd.canonical_t_h(sigma, {1}, {2}, {1: 2}))
    t = bd.build_twist(q)
    r_t = r0(L) + from_loop_tensor(L, t)
    random.seed(17)
    for f in random.sample(L.basis_up_to(2), 6):
        lhs = cobracket(f, r_t)
        # f . t by hand
        dt = {}
        for kf, vf in f.chev_parts().items():
            for (dx, dy, i, j), c in t.items():
                for fi, fc in vf.items():
                    for u, cu in L.alg.bracket_basis(fi, i).items():
                        key = (dx + kf, dy, u, j)
                        s = dt.get(key, 0) + c * fc * cu
                        if s:
                            dt[key] = s
                        else:
                            dt.pop(key, None)
                    for u, cu in L.alg.bracket_basis(fi, j).items():
                        key = (dx, dy + kf, i, u)
                        s = dt.get(key, 0) + c * fc * cu
                        if s:
                            dt[key] = s
                        else:
                            dt.pop(key, None)
        rhs = t2_add(cobracket(f, r0(L)), dt)
        assert lhs == rhs


def test_cobracket_rejects_malformed(sl2_coxeter):
    # an element violating the grading never reaches cobracket through the
    # public constructors; from_chev raises already
    with pytest.raises(ValueError):
        sl2_coxeter.from_chev(0, {0: Q(1)})   # e sits in class 1, not 0
    # built by hand one degree off its class, a root vector's pole does not cancel
    L = loop_algebra(SigmaType.make("A2", [1, 1, 1]))
    slot = next(s for s in L.slots if s.positive is not None)
    f = LoopElement(L, {(slot.index, slot.sigma_class + 1): 1})
    with pytest.raises(ValueError):
        cobracket(f, r0(L))


# ------------------------------------------------------------- twist residual


def test_twist_residual_zero_for_zero(sl2_loop):
    assert twist_residual(sl2_loop, {}) == {}


def test_twist_residual_requires_skew(sl2_loop):
    L = sl2_loop
    t = tensor_of_elements(L.from_chev(0, {0: Q(1)}), L.from_chev(0, {1: Q(1)}))
    with pytest.raises(ValueError):
        twist_residual(L, t)


def test_twist_residual_matches_cybe_pipeline(sl2_loop, sl3_loop):
    """CYB(t) - Alt((delta (x) 1)t) = CYB(r0 + t) for random skew t."""
    random.seed(10)
    for L in (sl2_loop, sl3_loop):
        basis = L.basis_up_to(1)
        for _ in range(4):
            a, b = random.sample(basis, 2)
            t = wedge(L, a, b)
            lhs = twist_residual(L, t)
            rhs = cybe(r0(L) + from_loop_tensor(L, t))
            assert lhs == rhs


# ------------------------------------------------------------ residue action


def test_residue_operator_projections(sl2_loop):
    L = sl2_loop
    rt = residue_operator(L, {})
    h = L.from_chev(0, {2: Q(1)})
    assert rt(h) == h.scale(Q(1, 2))
    fneg = L.from_chev(-1, {1: Q(1)})
    assert rt(fneg) == fneg
    epos = L.from_chev(1, {0: Q(1)})
    assert rt(epos).is_zero()


@pytest.mark.parametrize("label,s,nu", [("A1", [1, 0], None), ("A1", [1, 1], None),
                                        ("A2", [1, 0], [1, 0]), ("A1", [0, 1], None),
                                        ("A2", [0, 1, 0], None)])
def test_residue_oracle_agreement(label, s, nu):
    """R_t on basis elements equals the truncated-series residue of r_t."""
    L = loop_algebra(SigmaType.make(label, s, nu))
    random.seed(12)
    basis = L.basis_up_to(2)
    a, b = basis[0], basis[-1]
    t = wedge(L, a, b)
    r_t = r0(L) + from_loop_tensor(L, t)
    rt_op = residue_operator(L, t)
    for f in basis:
        assert (rt_op(f) - residue_oracle(L, r_t, f)).is_zero()


@pytest.mark.parametrize("label,s,nu,gamma", [("A2", [1, 0, 0], None, {1: 2}),
                                              ("A3", [1, 0, 0], [2, 1, 0], {0: 2}),
                                              ("A3", [0, 1, 1, 0], None, {0: 3, 1: 2})],
                         ids=["A2", "A3^(2)", "A3-s0110"])
def test_residue_oracle_agreement_on_twists(label, s, nu, gamma):
    """R_t of a Belavin-Drinfeld twist t, t_h included, equals the
    truncated-series residue of r_0 + t on every basis element."""
    L, t = _kernel_twist(label, s, nu, gamma)
    rt_op = residue_operator(L, t)
    r_t = r0(L) + from_loop_tensor(L, t)
    for f in L.basis_up_to(2):
        assert (rt_op(f) - residue_oracle(L, r_t, f)).is_zero()


# ------------------------------------------------------------------- taylor


def test_taylor_zero(sl2_loop):
    assert taylor(zero_tensor(sl2_loop), 3) == [{}, {}, {}, {}]


def test_taylor_order0_sl2(sl2_loop):
    coeffs = taylor(r0(sl2_loop), 0)
    # order 0: C_h/2 + C_- (the pole contributes only to orders >= 1)
    assert coeffs[0] == {(0, 2, 2): Q(1, 16), (0, 1, 0): Q(1, 4)}


@pytest.mark.parametrize("label,s,nu", [("A1", [1, 1], None), ("A2", [1, 0, 0], None),
                                        ("A2", [1, 1, 1], None)])
def test_taylor_dual_basis_oracle(label, s, nu):
    """Orders 1..N match sum over positive roots of b_{-a}(x) (x) b_a(y).

    Independent oracle: enumerate the degree-k slice, pick B-dual bases,
    and compare with the geometric-series expansion of the pole.
    """
    L = loop_algebra(SigmaType.make(label, s, nu))
    N = 2 * L.m
    coeffs = taylor(r0(L), N)
    for order in range(1, N + 1):
        plus = L.basis_of_degree(order)
        expect = {}
        gram = [[L.form(a, b) for b in plus] for a in L.basis_of_degree(-order)]
        minus = L.basis_of_degree(-order)
        from loopcybe.linalg import mat_inverse
        ginv = mat_inverse(gram)
        # dual pairs: b^i = sum_j ginv[j][i] minus_j against plus_i
        for i, p in enumerate(plus):
            dual = L.zero()
            for j, mel in enumerate(minus):
                if ginv[i][j]:
                    dual = dual + mel.scale(ginv[i][j])
            for kb, vb in dual.chev_parts().items():
                for kp, vp in p.chev_parts().items():
                    for bi, cb in vb.items():
                        for pi, cp in vp.items():
                            key = (bi, pi)
                            expect[key] = expect.get(key, 0) + cb * cp
        got = {(i, j): c for (dx, i, j), c in coeffs[order].items()}
        dx_vals = {dx for (dx, i, j) in coeffs[order]}
        assert dx_vals <= {-order}
        expect = {k: v for k, v in expect.items() if v}
        assert got == expect
