"""Command-line front end: construction, verification, classification, export.

`COMMANDS` maps each command to its handler, positionals, flags, required
fields and defaults; `-h` or `--help` as a flag or command prints USAGE.  Exit
codes: 0 on success (or verified), 1 on verification failure, 2 on a usage
error (a bad command line or JSON file), as a JSON error object on stdout.
`main(argv)` returns the code; `run`, the command itself, exits with it.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from . import bd, classify, serialize
from .cartan import CartanType, build_root_system
from .chevalley import chevalley_algebra
from .loop import SigmaType, affine_node_count, loop_algebra
from .tensors import from_loop_tensor, r0, residue_operator, verify_cybe

USAGE = """usage: loopcybe [--degree-bound N (default 3)] COMMAND ...
  roots TYPE [-o/--output FILE]
  r0 --type TYPE [--s S] [--nu NU] [-o/--output FILE]
  validate -i/--input QUAD
  twist -i/--input QUAD [-o/--output FILE]
  verify-cybe -i/--input QUAD
  census --types TYPES [--max-rank N (default 8)] [-o/--output FILE]
  equiv -a/--first QUAD -b/--second QUAD
  export --what catalog|structure [--type TYPE (default A1)] [--s S] [--nu NU] [-o/--output FILE]
S and NU are comma-separated ints.  A flag takes its value as --flag V or --flag=V.
"""


class UsageError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError("cannot read JSON from %r: %s" % (path, exc))


def _emit(obj, path=None) -> None:
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
    _emit({
        "type": args.type,
        "rank": rs.rank,
        "cartan_matrix": [list(r) for r in rs.cartan],
        "positive_roots": [list(r) for r in rs.positive_roots],
        "count": 2 * len(rs.positive_roots),
    }, args.output)
    return 0


def cmd_r0(args) -> int:
    sigma = _sigma_from_args(args)
    L = loop_algebra(sigma)
    _emit({"sigma": serialize.sigma_json(sigma),
           "tensor": serialize.two_point_json(r0(L))}, args.output)
    return 0


def cmd_validate(args) -> int:
    q = serialize.quadruple_from_json(_load_json(args.input))
    report = bd.validate(q)
    _emit(serialize.validation_json(report))
    return 0 if report["valid"] else 1


def cmd_twist(args) -> int:
    q = serialize.quadruple_from_json(_load_json(args.input))
    t = bd.build_twist(q)
    _emit({"quadruple": serialize.quadruple_json(q),
           "twist": serialize.loop_tensor_json(t)}, args.output)
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
    _emit(out, args.output)
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
        _emit({"sigma": serialize.sigma_json(sigma), "orbits": out}, args.output)
        return 0
    if args.what == "structure":
        _emit(serialize.structure_table_json(chevalley_algebra(args.type)), args.output)
        return 0
    raise UsageError("unknown export target %r" % (args.what,))


_IN = {"-i": "input", "--input": "input"}
_OUT = {"-o": "output", "--output": "output"}
_SIGMA = {"--type": "type", "--s": "s", "--nu": "nu"}
# command: (handler, positionals, {flag: field}, required flag fields, defaults)
COMMANDS = {
    "roots": (cmd_roots, ("type",), _OUT, (), {}),
    "r0": (cmd_r0, (), {**_SIGMA, **_OUT}, ("type",), {}),
    "validate": (cmd_validate, (), _IN, ("input",), {}),
    "twist": (cmd_twist, (), {**_IN, **_OUT}, ("input",), {}),
    "verify-cybe": (cmd_verify_cybe, (), _IN, ("input",), {}),
    "census": (cmd_census, (), {"--types": "types", "--max-rank": "max_rank", **_OUT},
               ("types",), {"max_rank": "8"}),
    "equiv": (cmd_equiv, (), {"-a": "first", "--first": "first", "-b": "second",
                              "--second": "second"}, ("first", "second"), {}),
    "export": (cmd_export, (), {"--what": "what", **_SIGMA, **_OUT}, ("what",), {"type": "A1"}),
}


def parse(argv: list):
    """The handler that COMMANDS names for a command line, and its arguments;
    (None, None) if -h or --help stands where a flag or a command would."""
    values, flags = {"degree_bound": "3"}, {"--degree-bound": "degree_bound"}
    name, free, args = None, [], iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            return None, None
        if arg.startswith("-"):
            flag, eq, value = arg.partition("=") if arg.startswith("--") else (arg, "", "")
            if flag not in flags:
                raise UsageError("unknown argument %r" % arg)
            values[flags[flag]] = value if eq else next(args, None)
            if values[flags[flag]] is None:
                raise UsageError("argument %s expects a value" % flag)
        elif name is None:
            if arg not in COMMANDS:
                raise UsageError("unknown command %r; see loopcybe --help" % arg)
            name, (handler, positionals, flags, required, defaults) = arg, COMMANDS[arg]
            values.update(dict.fromkeys(positionals + tuple(flags.values())), **defaults)
            free = list(positionals)
        elif free:
            values[free.pop(0)] = arg
        else:
            raise UsageError("unexpected argument %r" % arg)
    if name is None:
        raise UsageError("no command; see loopcybe --help")
    missing = [f for f in positionals + required if values[f] is None]
    if missing:
        raise UsageError("%s needs %s" % (name, " and ".join(
            "/".join(f for f in flags if flags[f] == m) or m.upper() for m in missing)))
    for field in ("degree_bound", "max_rank"):
        try:
            if field in values:
                values[field] = int(values[field])
        except ValueError:
            raise UsageError("--%s must be an int, not %r"
                             % (field.replace("_", "-"), values[field])) from None
    return handler, SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        handler, args = parse(argv)
        if handler is None:
            sys.stdout.write(USAGE)
            return 0
        return handler(args)
    except UsageError as exc:
        _emit({"error": str(exc)})
        return 2
    except (ValueError, KeyError, OSError) as exc:
        _emit({"error": "%s: %s" % (type(exc).__name__, exc)})
        return 2


def run() -> None:
    """Run `main` on sys.argv, flush stdout and stderr, and exit with its code
    at once, skipping interpreter teardown.  A failed flush raises instead."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
