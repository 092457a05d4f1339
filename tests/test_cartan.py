from fractions import Fraction as Q

import pytest
from sympy.liealgebras.cartan_matrix import CartanMatrix
from sympy.liealgebras.cartan_type import CartanType as SympyCartanType

from loopcybe.cartan import CartanType, add, build_root_system, cartan_matrix, is_positive, neg


def brute_force_closure(rs):
    """Independent oracle: close the simple roots under root addition.

    Uses only the reflection criterion through exact inner products, not
    the string bookkeeping of the production code.
    """
    n = rs.rank
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = set(simple) | {neg(s) for s in simple}
    changed = True
    while changed:
        changed = False
        for a in list(roots):
            for b in list(roots):
                c = add(a, b)
                if c in roots or all(x == 0 for x in c):
                    continue
                # c is a root iff reflecting: (a,c) > 0 implies c - a chain...
                # oracle rule: beta + alpha is a root iff
                # <beta, alpha>*2/(alpha,alpha) < p (string), but here we use
                # the defining criterion |c|^2 in the allowed length set and
                # the chain condition via repeated subtraction.
                if _is_root_by_string(rs, roots, a, b):
                    roots.add(c)
                    changed = True
    return roots


def _is_root_by_string(rs, roots, a, b):
    # b + a is a root iff p - <b, a-pairing> > 0 with p the depth of the
    # a-string through b, computable from the current closure level.
    from loopcybe.cartan import sub
    p = 0
    cur = sub(b, a)
    while cur in roots:
        p += 1
        cur = sub(cur, a)
    pairing = 2 * rs.inner(b, a) / rs.inner(a, a)
    return p - pairing > 0


def test_root_system_is_built_once_per_type():
    """The Chevalley algebra and the affine diagram data read the one cached
    root system of their Cartan type."""
    from loopcybe.chevalley import chevalley_algebra
    rs = build_root_system(CartanType.parse("B3"))
    assert build_root_system(CartanType("B", 3)) is rs
    assert chevalley_algebra("B3").rs is rs


def test_rank_one_trivial():
    rs = build_root_system(CartanType.parse("A1"))
    assert len(rs.all_roots) == 2
    assert set(rs.all_roots) == {(1,), (-1,)}


@pytest.mark.parametrize("label", ["A2", "G2", "B2", "A3", "C3", "D4", "F4"])
def test_closure_matches_brute_force(label):
    rs = build_root_system(CartanType.parse(label))
    assert set(rs.all_roots) == brute_force_closure(rs)


@pytest.mark.parametrize("label,count", [
    ("A2", 6), ("G2", 12), ("B2", 8), ("C2", 8), ("A4", 20),
    ("D4", 24), ("F4", 48), ("E6", 72),
])
def test_root_counts(label, count):
    rs = build_root_system(CartanType.parse(label))
    assert len(rs.all_roots) == count


def test_roots_closed_under_negation():
    rs = build_root_system(CartanType.parse("B3"))
    allr = set(rs.all_roots)
    assert all(neg(r) in allr for r in allr)


def test_cartan_entries_are_integers():
    for label in ["A3", "B3", "C3", "G2", "F4"]:
        rs = build_root_system(CartanType.parse(label))
        for x in rs.all_roots:
            for j in range(rs.rank):
                v = 2 * rs.inner(x, tuple(1 if t == j else 0 for t in range(rs.rank)))
                assert (v / rs.inner(tuple(1 if t == j else 0 for t in range(rs.rank)),
                                     tuple(1 if t == j else 0 for t in range(rs.rank)))).denominator == 1


def test_invalid_ranks_rejected():
    for bad in ["E5", "F3", "G3", "B1", "D2"]:
        with pytest.raises(ValueError):
            CartanType.parse(bad)


def test_positive_ordering_height_then_lex():
    rs = build_root_system(CartanType.parse("A3"))
    heights = [sum(r) for r in rs.positive_roots]
    assert heights == sorted(heights)
    assert rs.positive_roots[-1] == rs.highest_root()


# sympy 1.14 raises on A1 (IndexError) and C2 ("n cannot be less than 3"),
# so those two are left out.  Its non-simply-laced matrices have the
# orientation of `cartan_matrix`, so they compare untransposed.
SYMPY_TYPES = (["A%d" % n for n in range(2, 9)] + ["B%d" % n for n in range(2, 9)]
               + ["C%d" % n for n in range(3, 9)] + ["D%d" % n for n in range(3, 9)]
               + ["E6", "E7", "E8", "F4", "G2"])


@pytest.mark.parametrize("label", SYMPY_TYPES)
def test_cartan_matrix_and_root_count_match_sympy(label):
    """An independent Lie-type oracle: sympy's Cartan matrix, entry by
    entry, and its count of positive roots."""
    want = CartanMatrix(label).tolist()
    assert [list(r) for r in cartan_matrix(CartanType.parse(label))] == want
    positive = SympyCartanType(label).positive_roots()
    assert len(build_root_system(CartanType.parse(label)).positive_roots) == len(positive)
