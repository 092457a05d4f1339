"""JSON schemas for the package's exchange formats.

All numerics serialize as exact fraction strings "p/q" (or "p" when the
denominator is 1); payloads carry no timestamps and all lists are sorted
so identical inputs always produce byte-identical output.
"""

from __future__ import annotations

import json
import re

from .bd import BDQuadruple, D_INDEX
from .chevalley import ChevalleyAlgebra
from .loop import SigmaType, TwistedLoopAlgebra
from .scalars import frac_str, parse_frac
from .tensors import Laurent2, TwoPointTensor


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class Encoded(str):
    """JSON text already in `dumps`'s form, which `dumps` writes as it stands."""


def dumps(obj) -> str:
    """One line of JSON, keys sorted and no spaces, then a newline.

    A top-level dict is written key by key, so a value of it may be `Encoded`.
    """
    if not isinstance(obj, dict):
        return _encode(obj) + "\n"
    items = (_encode(k) + ":" + (v if isinstance(v, Encoded) else _encode(v))
             for k, v in sorted(obj.items()))
    return "{%s}\n" % ",".join(items)


# ------------------------------------------------------------ structure table


def structure_table_json(alg: ChevalleyAlgebra) -> dict:
    """The structure export; its constants are `Encoded`.

    Equal brackets share one terms tuple in `alg.table`, so each distinct
    coeffs object is encoded once.
    """
    coeffs: dict = {}       # terms -> its coeffs object, encoded
    for row in alg.table:
        for terms in row.values():
            if terms not in coeffs:
                coeffs[terms] = _encode({str(k): str(c) for k, c in terms})
    constants = ",".join('{"coeffs":%s,"i":%d,"j":%d}' % (coeffs[terms], i, j)
                         for i, row in enumerate(alg.table) for j, terms in row.items())
    # the Killing Gram, from the two parts `alg.killing` reads
    npos, h0 = alg.num_pos, alg.h_index(0)
    gram = [["0"] * alg.dim for _ in range(alg.dim)]
    for b, c in enumerate(alg.root_kappa):
        gram[b][b + npos] = gram[b + npos][b] = frac_str(c)
    for i, row in enumerate(alg.cartan_gram):
        gram[h0 + i][h0:] = map(frac_str, row)
    return {
        "type": str(alg.rs.cartan_type),
        "roots": [list(r) for r in alg.rs.all_roots],
        "labels": [alg.basis_label(i) for i in range(alg.dim)],
        "constants": Encoded("[%s]" % constants),
        "killing_gram": gram,
    }


# ------------------------------------------------------------------ sigma etc.


def sigma_json(sigma: SigmaType) -> dict:
    return {"type": str(sigma.cartan_type),
            "nu_perm": list(sigma.nu) if sigma.nu else None,
            "s": list(sigma.s)}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _int_list(x, what: str) -> list:
    _expect(isinstance(x, list) and all(_is_int(v) for v in x),
            "%s must be a JSON list of integers" % what)
    return x


def sigma_from_json(data: dict) -> SigmaType:
    _expect(isinstance(data, dict), "diagram must be a JSON object")
    _expect(isinstance(data["type"], str), "diagram type must be a string")
    nu = data.get("nu_perm")
    sigma = SigmaType.make(data["type"], _int_list(data["s"], "s"),
                           None if nu is None else _int_list(nu, "nu_perm"))
    rank = sigma.cartan_type.rank
    _expect(nu is None or sorted(nu) == list(range(rank)),
            "nu_perm must be a permutation of 0..%d" % (rank - 1))
    return sigma


# ------------------------------------------------------------------- tensors


def two_point_json(r: TwoPointTensor) -> dict:
    poly = [{"dx": dx, "dy": dy, "i": i, "j": j, "val": frac_str(c)}
            for (dx, dy, i, j), c in sorted(r.poly.items())]
    pole = [{"k": k, "i": i, "j": j, "val": frac_str(c)}
            for k, pk in enumerate(r.pole_num) for (i, j), c in sorted(pk.items())]
    return {"m": r.m, "poly": poly, "pole": pole}


def two_point_from_json(L: TwistedLoopAlgebra, data: dict) -> TwoPointTensor:
    if data["m"] != L.m:
        raise ValueError("tensor order %s does not match the algebra (m = %d)"
                         % (data["m"], L.m))
    dim = L.alg.dim

    def key(t: dict, *degrees: str) -> tuple:
        out = tuple(t[x] for x in (*degrees, "i", "j"))
        _expect(all(map(_is_int, out)) and 0 <= t["i"] < dim and 0 <= t["j"] < dim,
                "tensor entry %r needs int degrees and i, j in 0..%d" % (t, dim - 1))
        return out

    poly = {key(t, "dx", "dy"): parse_frac(t["val"]) for t in data["poly"]}
    pole = [dict() for _ in range(L.m)]
    for t in data["pole"]:
        k, i, j = key(t, "k")
        _expect(0 <= k < L.m, "pole index k = %r is not in 0..%d" % (k, L.m - 1))
        pole[k][(i, j)] = parse_frac(t["val"])
    return TwoPointTensor(L, poly, pole)


# ----------------------------------------------------------------- quadruples


def _th_key_json(a: int):
    return "d" if a == D_INDEX else a + 1


def _th_key_parse(x, nh: int) -> int:
    if x == "d":
        return D_INDEX
    _expect(_is_int(x) and 1 <= x <= nh,
            "t_h index %r is not \"d\" or in 1..%d" % (x, nh))
    return x - 1


def _node(x, what: str, nodes: int) -> int:
    if isinstance(x, str) and re.fullmatch(r"-?[0-9]+", x):
        x = int(x)          # a gamma key: JSON object keys are strings
    _expect(_is_int(x) and 0 <= x < nodes,
            "%s node %r is not in 0..%d" % (what, x, nodes - 1))
    return x


def quadruple_json(q: BDQuadruple) -> dict:
    return {
        "diagram": sigma_json(q.sigma),
        "gamma1": sorted(q.gamma1),
        "gamma2": sorted(q.gamma2),
        "gamma": {str(a): b for a, b in q.gamma},
        "t_h": [{"i": _th_key_json(a), "j": _th_key_json(b), "val": frac_str(c)}
                for (a, b), c in q.t_h],
    }


def quadruple_from_json(data: dict) -> BDQuadruple:
    """Read a quadruple; a wrong shape, type or index raises ValueError."""
    _expect(isinstance(data, dict), "a quadruple must be a JSON object")
    sigma = sigma_from_json(data["diagram"])
    nodes = len(sigma.s)            # affine nodes; t_h indices run over nodes - 1
    g1 = [_node(x, "gamma1", nodes) for x in _int_list(data.get("gamma1", []), "gamma1")]
    g2 = [_node(x, "gamma2", nodes) for x in _int_list(data.get("gamma2", []), "gamma2")]
    gamma = data.get("gamma", {})
    _expect(isinstance(gamma, dict), "gamma must be a JSON object")
    gamma = {_node(a, "gamma", nodes): _node(b, "gamma", nodes) for a, b in gamma.items()}
    items = data.get("t_h", [])
    _expect(isinstance(items, list) and all(isinstance(it, dict) for it in items),
            "t_h must be a JSON list of objects")
    t_h = {}
    for it in items:       # an entry is the coefficient of h_i ^ h_j
        key = (_th_key_parse(it["i"], nodes - 1), _th_key_parse(it["j"], nodes - 1))
        _expect(key[0] != key[1], "t_h entry i = %r, j = %r pairs an index with itself"
                % (it["i"], it["j"]))
        t_h[key] = t_h.get(key, 0) + parse_frac(it["val"])
    return BDQuadruple.make(sigma, g1, g2, gamma, t_h)


def validation_json(report: dict) -> dict:
    out = {"valid": report["valid"]}
    for key in ("structure", "condition1", "condition2", "condition3"):
        if key in report:
            entry = dict(report[key])
            if key == "condition1":
                entry["violations"] = [
                    {"i": v["i"], "j": v["j"], "got": frac_str(v["got"]),
                     "want": frac_str(v["want"])} for v in entry["violations"]]
            out[key] = entry
    return out


def loop_tensor_json(t: Laurent2) -> list:
    return [{"dx": dx, "dy": dy, "i": i, "j": j, "val": frac_str(c)}
            for (dx, dy, i, j), c in sorted(t.items())]
