from fractions import Fraction as Q

import pytest

import loopcybe.serialize as sz
from loopcybe.bd import BDQuadruple, D_INDEX, canonical_t_h
from loopcybe.chevalley import chevalley_algebra
from loopcybe.loop import SigmaType, loop_algebra
from loopcybe.tensors import r0

A2 = SigmaType.make("A2", [1, 0, 0])


def test_sigma_roundtrip():
    for sigma in (A2, SigmaType.make("A2", [1, 0], [1, 0])):
        assert sz.sigma_from_json(sz.sigma_json(sigma)) == sigma


def test_quadruple_roundtrip():
    th = canonical_t_h(A2, {1}, {2}, {1: 2})
    q = BDQuadruple.make(A2, {1}, {2}, {1: 2}, th)
    data = sz.quadruple_json(q)
    assert data["t_h"] == [{"i": 1, "j": 2, "val": "1/36"}]
    assert sz.quadruple_from_json(data) == q


def test_quadruple_d_component_key():
    q = BDQuadruple.make(A2, set(), set(), {}, {(0, D_INDEX): Q(1, 2)})
    data = sz.quadruple_json(q)
    assert data["t_h"] == [{"i": 1, "j": "d", "val": "1/2"}]
    assert sz.quadruple_from_json(data) == q


def test_quadruple_t_h_pair_is_read_in_order():
    """A t_h entry with i > j is the entry (j, i) with the opposite sign."""
    q = BDQuadruple.make(A2, {1}, {2}, {1: 2}, {(0, 1): Q(1, 36)})
    data = sz.quadruple_json(q)
    data["t_h"] = [{"i": 2, "j": 1, "val": "-1/36"}]
    assert sz.quadruple_from_json(data) == q
    data["t_h"] = [{"i": "d", "j": 1, "val": "1/2"}]
    assert sz.quadruple_json(sz.quadruple_from_json(data))["t_h"] == \
        [{"i": 1, "j": "d", "val": "-1/2"}]


def test_quadruple_t_h_repeated_pair_is_added():
    """Every entry adds, a repeated pair in the same order as in both."""
    q = BDQuadruple.make(A2, {1}, {2}, {1: 2}, {(0, 1): Q(1, 36)})
    data = sz.quadruple_json(q)
    data["t_h"] = [{"i": 1, "j": 2, "val": "1/72"}, {"i": 1, "j": 2, "val": "1/72"}]
    assert sz.quadruple_from_json(data) == q
    data["t_h"] = [{"i": 1, "j": 2, "val": "1/72"}, {"i": 2, "j": 1, "val": "-1/72"}]
    assert sz.quadruple_from_json(data) == q
    data["t_h"] = [{"i": 1, "j": 2, "val": "1/36"}, {"i": 1, "j": 2, "val": "-1/36"}]
    assert sz.quadruple_from_json(data).t_h == ()


def test_tensor_roundtrip():
    L = loop_algebra(A2)
    r = r0(L)
    data = sz.two_point_json(r)
    back = sz.two_point_from_json(L, data)
    assert back == r


@pytest.mark.parametrize("part,key,value", [
    ("poly", "i", 99), ("poly", "j", -1), ("poly", "i", "0"), ("poly", "dx", 0.5),
    ("pole", "j", 8), ("pole", "k", 1), ("pole", "k", -1)])
def test_tensor_from_json_rejects_bad_indices(part, key, value):
    """A leg outside 0..dim-1, a pole index outside 0..m-1 (m = 1 on A2 graded
    by s = (1, 0, 0)) or a degree that is no int raises ValueError."""
    L = loop_algebra(A2)
    data = sz.two_point_json(r0(L))
    data[part][0][key] = value
    with pytest.raises(ValueError):
        sz.two_point_from_json(L, data)


def loop_element_json(f) -> list:
    out = []
    for (sid, k), c in sorted(f.terms.items()):
        q = Q(c)
        out.append({"k": k, "basis": sid, "num": q.numerator, "den": q.denominator})
    return out


def loop_element_from_json(L, data: list):
    terms = {}
    for item in data:
        terms[(int(item["basis"]), int(item["k"]))] = Q(item["num"], item["den"])
    return L.element(terms)


def test_loop_element_roundtrip():
    L = loop_algebra(A2)
    f = L.basis_up_to(1)[0] + L.basis_up_to(1)[-1].scale(Q(2, 3))
    data = loop_element_json(f)
    assert all(set(item) == {"k", "basis", "num", "den"} for item in data)
    assert loop_element_from_json(L, data) == f


def test_structure_table_fields():
    table = sz.structure_table_json(chevalley_algebra("A1"))
    assert set(table) == {"type", "roots", "labels", "constants", "killing_gram"}
    assert table["killing_gram"][2][2] == "8"


def test_dumps_deterministic():
    L = loop_algebra(A2)
    a = sz.dumps(sz.two_point_json(r0(L)))
    b = sz.dumps(sz.two_point_json(r0(L)))
    assert a == b
    assert a.endswith("\n")
