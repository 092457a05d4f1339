"""Command-line front end: construction, verification, classification, export.

Exit codes: 0 on success (or verified), 1 on verification failure, 2 on
usage errors (including malformed JSON, reported as a machine-readable
error object on stdout).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import bd, classify, serialize
from .cartan import CartanType, build_root_system
from .loop import SigmaType, affine_node_count, loop_algebra
from .tensors import from_loop_tensor, r0, residue_operator, verify_cybe

Q = Fraction


class UsageError(Exception):
    pass


def _emit(obj) -> None:
    sys.stdout.write(serialize.dumps(obj))


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError("cannot read JSON from %r: %s" % (path, exc))


def _write(path, obj) -> None:
    payload = serialize.dumps(obj)
    if path:
        with open(path, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _sigma_from_args(args) -> SigmaType:
    s = [int(x) for x in args.s.split(",")] if args.s else None
    nu = [int(x) for x in args.nu.split(",")] if args.nu else None
    ct = CartanType.parse(args.type)
    if nu and sorted(nu) != list(range(ct.rank)):
        raise UsageError("--nu must be a permutation of 0..%d" % (ct.rank - 1))
    if s is None:
        # default to the grading with s = (1, 0, ..., 0): one entry per node
        s = [1] + [0] * (affine_node_count(ct, nu) - 1)
    return SigmaType(ct, tuple(s), tuple(nu) if nu else None)


def cmd_roots(args) -> int:
    rs = build_root_system(CartanType.parse(args.type))
    _write(args.output, {
        "type": args.type,
        "rank": rs.rank,
        "cartan_matrix": [list(r) for r in rs.cartan],
        "positive_roots": [list(r) for r in rs.positive_roots],
        "count": 2 * len(rs.positive_roots),
    })
    return 0


def cmd_r0(args) -> int:
    sigma = _sigma_from_args(args)
    L = loop_algebra(sigma)
    _write(args.output, {"sigma": serialize.sigma_json(sigma),
                         "tensor": serialize.two_point_json(r0(L))})
    return 0


def cmd_validate(args) -> int:
    q = serialize.quadruple_from_json(_load_json(args.input))
    report = bd.validate(q)
    _emit(serialize.validation_json(report))
    return 0 if report["valid"] else 1


def cmd_twist(args) -> int:
    q = serialize.quadruple_from_json(_load_json(args.input))
    t = bd.build_twist(q)
    _write(args.output, {"quadruple": serialize.quadruple_json(q),
                         "twist": serialize.loop_tensor_json(t)})
    return 0


def cmd_verify_cybe(args) -> int:
    if args.degree_bound < 0:
        raise UsageError("--degree-bound must be >= 0")
    q = serialize.quadruple_from_json(_load_json(args.input))
    try:
        t = bd.build_twist(q)           # validates q once
    except ValueError as exc:
        if not hasattr(exc, "report"):
            raise
        _emit({"error": "invalid quadruple", "report": serialize.validation_json(exc.report)})
        return 1
    L = q.algebra()
    r = r0(L) + from_loop_tensor(L, t)
    verdict = verify_cybe(r)
    # operator agreement at the requested degree bound
    rq = bd.build_rq(q)
    rt = residue_operator(L, t)
    agree = all(rq(f) == rt(f) for f in L.basis_up_to(args.degree_bound))
    verdict["operators"] = "agree" if agree else "disagree"
    _emit(verdict)
    ok = verdict["cybe"] == "zero" and verdict["skew"] == "zero" and agree
    return 0 if ok else 1


def cmd_census(args) -> int:
    types = [t.strip() for t in args.types.split(",") if t.strip()]
    if args.max_rank < 1:
        raise UsageError("--max-rank must be >= 1")
    rows = classify.type_census(types, args.max_rank)
    if not rows:
        raise UsageError("--types %r selects no diagram of rank <= %d"
                         % (args.types, args.max_rank))
    out = [{"type": row["type"], "rank": row["rank"], "good": row["good"],
            "witness_gamma1": row["witness_gamma1"]} for row in rows]
    _write(args.output, out)
    return 0


def cmd_equiv(args) -> int:
    qa = serialize.quadruple_from_json(_load_json(args.first))
    qb = serialize.quadruple_from_json(_load_json(args.second))
    wit = classify.equivalence_witness(qa, qb)
    _emit({"equivalent": wit is not None,
           "witness": list(wit) if wit is not None else None})
    return 0 if wit is not None else 1


def cmd_export(args) -> int:
    if args.what == "catalog":
        sigma = _sigma_from_args(args)
        reps = classify.enumerate_representatives(sigma)
        out = []
        for rep in reps:
            g1, g2, gm = rep["triple"]
            out.append({"gamma1": sorted(g1), "gamma2": sorted(g2),
                        "gamma": {str(a): b for a, b in gm},
                        "orbit_size": rep["orbit_size"],
                        "t_h_dimension": bd.th_dimension(sigma, g1, g2, dict(gm))})
        _write(args.output, {"sigma": serialize.sigma_json(sigma), "orbits": out})
        return 0
    if args.what == "structure":
        from .chevalley import chevalley_algebra
        _write(args.output, serialize.structure_table_json(chevalley_algebra(args.type)))
        return 0
    raise UsageError("unknown export target %r" % (args.what,))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="loopcybe",
                                description="Exact trigonometric CYBE toolkit")
    p.add_argument("--degree-bound", type=int, default=3,
                   help="degree window for operator checks (default 3)")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("roots", help="root system of a simple type")
    sp.add_argument("type")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_roots)

    sp = sub.add_parser("r0", help="basic trigonometric solution")
    sp.add_argument("--type", required=True)
    sp.add_argument("--s", default=None, help="comma-separated weights")
    sp.add_argument("--nu", default=None, help="comma-separated node permutation")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_r0)

    sp = sub.add_parser("validate", help="check the three quadruple conditions")
    sp.add_argument("-i", "--input", required=True)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("twist", help="build the twist of a quadruple")
    sp.add_argument("-i", "--input", required=True)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_twist)

    sp = sub.add_parser("verify-cybe", help="verify CYBE and skew-symmetry")
    sp.add_argument("-i", "--input", required=True)
    sp.set_defaults(func=cmd_verify_cybe)

    sp = sub.add_parser("census", help="quasi-trigonometric reachability census")
    sp.add_argument("--types", required=True, help="e.g. B or B4,D6,G2")
    sp.add_argument("--max-rank", type=int, default=8)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_census)

    sp = sub.add_parser("equiv", help="diagram-equivalence witness for two quadruples")
    sp.add_argument("-a", "--first", required=True)
    sp.add_argument("-b", "--second", required=True)
    sp.set_defaults(func=cmd_equiv)

    sp = sub.add_parser("export", help="export catalogs and tables")
    sp.add_argument("--what", required=True, choices=["catalog", "structure"])
    sp.add_argument("--type", default="A1")
    sp.add_argument("--s", default=None)
    sp.add_argument("--nu", default=None)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_export)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        _emit({"error": str(exc)})
        return 2
    except (ValueError, KeyError, OSError) as exc:
        _emit({"error": "%s: %s" % (type(exc).__name__, exc)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
