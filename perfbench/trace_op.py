"""Traced run of one operation: the CLI itself, with its layers timed.

    python3 perfbench/trace_op.py OP.json OUT

runs in a fresh process (PYTHONPATH=src).  It wraps the public functions
listed in LAYERS in place, in every loaded `loopcybe` module that refers to
them, then runs `loopcybe.cli.main(op["argv"])` with its standard output
written to OUT.  The calls are therefore the ones the CLI makes, in its
order, whatever it does today.

Spans are exclusive: a call's time less the time of the wrapped calls made
inside it.  So `bd.twist_s` does not hold the `validate` that `build_twist`
makes (that goes to `bd.validate_s`), and `classify.unreachable_s` does not
hold the `th_solution_space` solves it makes (those go to `bd.th_solve_s`).
Time outside every wrapped call (argument parsing, `from_loop_tensor`,
`quadruple_from_json`) is in no span.

After the operation the wrappers are removed and, on `verify-cybe`, two
checks run on the objects the CLI built: a sampled-path verdict is checked
against symbolic `cybe`, and on the negative-control quadruple
`r0 + 2 t_Q` must fail CYBE.  Their time is reported as `check_s` and is
not part of the operation.  The spans are printed as one JSON line.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from loopcybe import cli
from loopcybe.tensors import SYMBOLIC_DIM_LIMIT, cybe, from_loop_tensor, t2_scale

# (module, function, span); functions whose result a check needs are kept.
LAYERS = [
    ("chevalley", "chevalley_algebra", "chevalley.algebra_s"),
    ("loop", "loop_algebra", "loop.algebra_s"),
    ("loop", "affine_diagram_data", "loop.diagram_s"),
    ("tensors", "r0", "tensors.r0_s"),
    ("bd", "validate", "bd.validate_s"),
    ("bd", "build_twist", "bd.twist_s"),
    ("tensors", "verify_cybe", None),            # span named by the path taken
    ("bd", "build_rq", "bd.operators_s"),
    ("tensors", "residue_operator", "bd.operators_s"),
    ("classify", "loop_diagram_automorphisms", "classify.automorphisms_s"),
    ("classify", "unreachable_admissible_gamma1", "classify.unreachable_s"),
    ("classify", "enumerate_representatives", "classify.representatives_s"),
    ("bd", "th_solution_space", "bd.th_solve_s"),
    ("serialize", "structure_table_json", "serialize.table_s"),
    ("serialize", "dumps", "serialize.dumps_s"),
]
# Operators whose result is a callable: the calls to it are timed too.
RETURNS_OPERATOR = {"build_rq", "residue_operator"}
KEEP = {"build_twist", "r0"}

SPANS: dict = {}
KEPT: dict = {}
_STACK: list = []        # [span, time inside wrapped calls made within it]


def _timed(name: str, fn, *args, **kwargs):
    _STACK.append([name, 0.0])
    t0 = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        elapsed = time.perf_counter() - t0
        _, inner = _STACK.pop()
        SPANS[name] = SPANS.get(name, 0.0) + elapsed - inner
        if _STACK:
            _STACK[-1][1] += elapsed


def _span_of(name, args) -> str:
    if name is None:        # verify_cybe(r, ...): symbolic or sampled by dim g
        return ("tensors.cybe_s" if args[0].L.alg.dim <= SYMBOLIC_DIM_LIMIT
                else "tensors.sampled_s")
    return name


def _wrap(fname: str, fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = _span_of(name, args)
        out = _timed(span, fn, *args, **kwargs)
        if fname in KEEP:
            KEPT[fname] = (args, out)
        if fname in RETURNS_OPERATOR:
            return functools.partial(_timed, span, out)
        return out
    return wrapper


def install() -> list:
    """Wrap each LAYERS function wherever a loopcybe module names it.

    Returns (module, attribute, original) triples for uninstall()."""
    mods = [m for n, m in sorted(sys.modules.items())
            if n == "loopcybe" or n.startswith("loopcybe.")]
    patched = []
    for mod_name, fname, name in LAYERS:
        home = sys.modules["loopcybe." + mod_name]
        fn = getattr(home, fname)
        wrapper = _wrap(fname, fn, name)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, fn))
    return patched


def uninstall(patched: list) -> None:
    for mod, attr, fn in patched:
        setattr(mod, attr, fn)


def verify_checks(op: dict, verdict: dict) -> list:
    """Checks on the objects the CLI built for verify-cybe."""
    if "build_twist" not in KEPT or "r0" not in KEPT:
        return []
    (q,), t = KEPT["build_twist"]
    _, base = KEPT["r0"]
    L = q.algebra()
    problems = []
    if (L.alg.dim > SYMBOLIC_DIM_LIMIT and verdict.get("cybe") == "zero"
            and cybe(base + from_loop_tensor(L, t))):
        problems.append("symbolic cybe disagrees with the sampled verdict")
    if op.get("negative_control") and q.gamma1 and not cybe(base + from_loop_tensor(L, t2_scale(t, 2))):
        problems.append("cybe(r0 + 2 t_Q) is zero")
    return problems


def main(op_path: str, out_path: str) -> int:
    with open(op_path) as fh:
        op = json.load(fh)
    patched = install()
    stdout = sys.stdout
    code, problems = 1, []
    try:
        with open(out_path, "w") as sys.stdout:
            code = cli.main(op["argv"])
    finally:
        sys.stdout = stdout
        uninstall(patched)
        with open(out_path) as fh:
            payload = fh.read()
        SPANS["serialize.out_bytes"] = len(payload.encode())
        if op["kind"] == "verify" and code == 0:
            t0 = time.perf_counter()
            problems = verify_checks(op, json.loads(payload))
            SPANS["check_s"] = time.perf_counter() - t0
        print(json.dumps({"spans": SPANS, "checks": problems}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
