"""Value semantics of the immutable types, and the import footprint of the CLI.

CartanType, SigmaType, BDQuadruple and CycNumber are cache keys and are
compared, so they keep field equality and hashing, refuse assignment, check
every construction, and print as they did when they were dataclasses (the
repr literals below were taken from that code).
"""

import subprocess
import sys

import pytest

from loopcybe.bd import BDQuadruple, D_INDEX
from loopcybe.cartan import CartanType
from loopcybe.loop import SigmaType
from loopcybe.scalars import CycNumber, Q, zeta

from test_cli import ENV

A2 = SigmaType.make("A2", [1, 0, 0])
QUAD = BDQuadruple.make(A2, [1], [2], {1: 2}, {(0, 1): Q(1, 36)})


def test_equal_values_hash_and_look_up_alike():
    pairs = [(CartanType("A", 2), CartanType.parse("a2")),
             (A2, SigmaType(CartanType("A", 2), (1, 0, 0))),
             (QUAD, BDQuadruple.make(A2, {1}, (2,), {1: 2}, {(0, 1): Q(2, 72), (1, 0): 0})),
             (CycNumber(Q(1, 2)), CycNumber(Q(1, 2), 0)),
             # a skew t_h: a swapped pair flips its sign, repeated pairs add up
             (BDQuadruple.make(A2, (), (), {}, {(1, 0): 1}),
              BDQuadruple.make(A2, (), (), {}, {(0, 1): -1})),
             (BDQuadruple.make(A2, (), (), {}, {(0, 1): 1, (1, 0): 1}),
              BDQuadruple.make(A2, (), (), {}, {})),
             (BDQuadruple.make(A2, (), (), {}, {(D_INDEX, 1): Q(1, 2), (0, 1): 1}),
              BDQuadruple.make(A2, (), (), {}, {(1, D_INDEX): Q(-1, 2), (0, 1): 1}))]
    for a, b in pairs:
        assert a == b and not a != b and hash(a) == hash(b)
        assert a is not b and {a: 1}[b] == 1 and b in {a} and len({a, b}) == 1


def test_different_values_differ():
    assert CartanType("A", 2) != CartanType("A", 3)
    assert CartanType("B", 3) != CartanType("C", 3)
    assert A2 != SigmaType.make("A2", [0, 1, 0])
    assert SigmaType.make("D4", [1, 0, 0], [2, 1, 3, 0]) != SigmaType.make("D4", [1, 0, 0])
    assert QUAD != BDQuadruple.make(A2, [1], [2], {1: 2})
    assert CycNumber(1) != zeta(3)
    assert len({CartanType("A", 2), CartanType("A", 3), CartanType("A", 2)}) == 2


def test_no_value_equals_a_tuple_or_another_type():
    assert CartanType("A", 2) != ("A", 2)
    assert A2 != (CartanType("A", 2), (1, 0, 0), None)
    assert CartanType("A", 2) != A2


def test_cyc_number_equals_its_rational_value():
    assert CycNumber(2) == 2 and CycNumber(0) == 0
    assert hash(CycNumber(Q(1, 2))) == hash(Q(1, 2))
    assert {Q(1, 2): "half"}[CycNumber(Q(1, 2))] == "half"


def test_repr_is_unchanged():
    assert repr(CartanType("A", 2)) == "CartanType(series='A', rank=2)"
    assert repr(A2) == ("SigmaType(cartan_type=CartanType(series='A', rank=2), "
                        "s=(1, 0, 0), nu=None)")
    assert repr(SigmaType.make("D4", [1, 0, 0], [2, 1, 3, 0])) == (
        "SigmaType(cartan_type=CartanType(series='D', rank=4), s=(1, 0, 0), nu=(2, 1, 3, 0))")
    assert repr(QUAD) == (
        "BDQuadruple(sigma=SigmaType(cartan_type=CartanType(series='A', rank=2), "
        "s=(1, 0, 0), nu=None), gamma1=frozenset({1}), gamma2=frozenset({2}), "
        "gamma=((1, 2),), t_h=(((0, 1), Fraction(1, 36)),))")
    z = zeta(3)
    assert (repr(z), repr(z * z), repr(CycNumber(0))) == \
        ("Cyc(1*z3)", "Cyc(-1 + -1*z3)", "Cyc(0)")


@pytest.mark.parametrize("value,field", [
    (CartanType("A", 2), "rank"), (A2, "s"), (QUAD, "t_h"), (CycNumber(1), "coeffs")])
def test_fields_cannot_be_assigned(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError, match="cannot assign to field %r" % field):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) == before


@pytest.mark.parametrize("build,message", [
    (lambda: CartanType("E", 9), "rank 9 not admissible for series E"),
    (lambda: CartanType("Z", 2), "unknown series 'Z'"),
    (lambda: CartanType.parse("A"), "cannot parse Cartan type 'A'"),
    (lambda: SigmaType(CartanType("A", 2), (0, 0, 0)), "s must have at least one non-zero entry"),
    (lambda: SigmaType.make("A2", [1, -1, 0]), "s entries must be non-negative"),
])
def test_invalid_constructions_raise(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def _new_modules(code: str) -> set:
    out = subprocess.run([sys.executable, "-c", code + "; import sys; print(*sys.modules)"],
                         capture_output=True, text=True, env=ENV, check=True, timeout=60)
    return set(out.stdout.split())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Nor an argument-parser library or the regrading maps, which the CLI
    never calls; but it loads every module perfbench/trace_op.py wraps."""
    added = _new_modules("import loopcybe.cli") - _new_modules("pass")
    assert "loopcybe.cli" in added
    assert not added & {"dataclasses", "inspect", "argparse", "gettext",
                        "loopcybe.regrade"}, sorted(added)
    wrapped = {"bd", "chevalley", "classify", "loop", "serialize", "tensors"}
    assert {"loopcybe." + m for m in wrapped} <= added, sorted(added)
