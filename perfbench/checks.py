"""Output checks, made apart from the program.

Each check either recomputes something from first principles (root data,
Kac's tables, linear algebra over Q) or tests a property the method must
have (the Belavin-Drinfeld theorem, Jacobi, invariance, l(l-1)/2).  None
compares against a stored copy of the program's output.

`check_pass` takes the operations of one pass and their results and returns
(failed operation names, problems).  A known fault (workloads.MALFORMED and
workloads.A1_S01_FAULT) that fails as it does today is only counted as
failed; any other failure is also a problem.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

Q = Fraction

# ----------------------------------------------------------------- census

# Good types by the Gamma_1 rule argued in CHANGES.md: A_n, C_n, B2-B3 (and
# D3 = A3), D4-D5; every other type has an unreachable Gamma_1.
RANKS = {"A": range(1, 11), "B": range(2, 11), "C": range(2, 11), "D": range(3, 11),
         "E": range(6, 9), "F": (4,), "G": (2,)}


def census_good(series: str, n: int) -> bool:
    return series in "AC" or (series == "B" and n <= 3) or (series == "D" and n <= 5)


def mark1_nodes(series: str, n: int) -> set:
    """Nodes with mark 1 (Kac, Table Aff 1), in the program's node order:
    node 0 is the affine node, nodes 1..n the simple roots in Bourbaki order."""
    if series == "A" or (series == "D" and n == 3):
        return set(range(n + 1))
    return {"B": {0, 1}, "C": {0, n}, "D": {0, 1, n - 1, n},
            "E": {6: {0, 1, 6}, 7: {0, 7}, 8: {0}}.get(n), "F": {0}, "G": {0}}[series]


def check_census(op: dict, rows: list) -> list:
    want = [(s, n) for s in op["types"] for n in RANKS[s]]
    got = [(r["type"], r["rank"]) for r in rows]
    if got != want:
        return ["census rows %s, expected %s" % (got, want)]
    problems = []
    for r in rows:
        series, n = r["type"], r["rank"]
        if r["good"] != census_good(series, n):
            problems.append("census %s%d: good=%s" % (series, n, r["good"]))
        elif not r["good"] and not mark1_nodes(series, n) <= set(r["witness_gamma1"]):
            problems.append("census %s%d: witness %s misses a mark-1 node"
                            % (series, n, r["witness_gamma1"]))
    return problems


# ---------------------------------------------------------------- catalog

# Order of the automorphism group of each affine diagram (the symmetries of
# the diagrams in Kac, Tables Aff 1-3).
AUT_ORDER = {"A3": 8, "B3": 2, "C3": 2, "D4": 24, "G2": 1, "F4": 1, "E6": 6,
             "A3^(2)": 2, "D4^(2)": 2, "D4^(3)": 1, "E6^(2)": 1}


def check_catalog(op: dict, out: dict) -> list:
    nodes = len(out["sigma"]["s"])
    problems = []
    if not out["orbits"]:
        problems.append("empty catalog")
    for orbit in out["orbits"]:
        l = nodes - len(orbit["gamma1"])
        if orbit["t_h_dimension"] != l * (l - 1) // 2:
            problems.append("t_h dimension %d, expected %d for Gamma_1 = %s"
                            % (orbit["t_h_dimension"], l * (l - 1) // 2, orbit["gamma1"]))
        if AUT_ORDER[op["diagram"]] % orbit["orbit_size"]:
            problems.append("orbit size %d does not divide |Aut| = %d"
                            % (orbit["orbit_size"], AUT_ORDER[op["diagram"]]))
    return problems


# ----------------------------------------------------------------- tables

POSITIVE_ROOTS = {"F4": 24, "E6": 36, "E7": 63}


def simple_root_products(label: str) -> list:
    """(alpha_i, alpha_j) in Bourbaki order, long roots of square length 2."""
    n = int(label[1:])
    if label[0] == "E":   # chain 1-3-4-...-n, node 2 on node 4
        edges = [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, n - 1)]
        g = [[Q(2) if i == j else Q(0) for j in range(n)] for i in range(n)]
        for i, j in edges:
            g[i][j] = g[j][i] = Q(-1)
        return g
    # F4: 1-2=>3-4, alpha_1, alpha_2 long
    return [[Q(2), Q(-1), Q(0), Q(0)], [Q(-1), Q(2), Q(-1), Q(0)],
            [Q(0), Q(-1), Q(1), Q(-1, 2)], [Q(0), Q(0), Q(-1, 2), Q(1)]]


class Table:
    """The exported structure table as sparse brackets over Q."""

    def __init__(self, out: dict):
        self.dim = len(out["labels"])
        self.labels = out["labels"]
        self.roots = out["roots"]
        self.br = {}
        for c in out["constants"]:
            self.br[(c["i"], c["j"])] = {int(k): Q(v) for k, v in c["coeffs"].items()}
        self.gram = [[Q(x) for x in row] for row in out["killing_gram"]]

    def bracket(self, x: dict, y: dict) -> dict:
        acc = {}
        for i, a in x.items():
            for j, b in y.items():
                for k, c in self.br.get((i, j), {}).items():
                    acc[k] = acc.get(k, 0) + a * b * c
        return {k: v for k, v in acc.items() if v}

    def killing(self, x: dict, y: dict):
        return sum(a * b * self.gram[i][j] for i, a in x.items() for j, b in y.items())


def check_structure(op: dict, t: Table) -> list:
    label = op["type"]
    n, npos = int(label[1:]), POSITIVE_ROOTS[label]
    problems = []
    if not (t.dim == 2 * npos + n == len(t.gram) == len(t.roots) + n):
        return ["%s: dim %d, %d roots, expected 2*%d + %d"
                % (label, t.dim, len(t.roots), npos, n)]
    for (i, j), v in t.br.items():
        if any(c.denominator != 1 for c in v.values()):
            problems.append("%s: non-integer constant at (%d, %d)" % (label, i, j))
        if t.br.get((j, i)) != {k: -c for k, c in v.items()}:
            problems.append("%s: [b%d, b%d] is not antisymmetric" % (label, i, j))
        if len(problems) > 5:
            return problems
    rng = random.Random(op["check_seed"])
    for _ in range(150):
        x, y, z = ({rng.randrange(t.dim): Q(1)} for _ in range(3))
        jac = {}
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            for k, v in t.bracket(a, t.bracket(b, c)).items():
                jac[k] = jac.get(k, 0) + v
        if any(jac.values()):
            problems.append("%s: Jacobi fails on %s" % (label, (x, y, z)))
        if t.killing(t.bracket(x, y), z) != t.killing(x, t.bracket(y, z)):
            problems.append("%s: Killing form not invariant on %s" % (label, (x, y, z)))
    # On the Cartan, ad-traces are root sums: kappa(h_i, h_j) = sum_b b(h_i) b(h_j),
    # with b(h_i) = 2 (b, alpha_i) / (alpha_i, alpha_i) computed from the roots.
    g = simple_root_products(label)
    hs = [t.labels.index("h%d" % (i + 1)) for i in range(n)]

    def value(root, i):
        return 2 * sum(c * g[k][i] for k, c in enumerate(root)) / g[i][i]

    for b, root in enumerate(t.roots):
        ad = [t.bracket({hs[i]: Q(1)}, {b: Q(1)}) for i in range(n)]
        if any(ad[i] != ({b: value(root, i)} if value(root, i) else {}) for i in range(n)):
            problems.append("%s: [h, b%d] does not match root %s" % (label, b, root))
            break
    for i in range(n):
        for j in range(n):
            want = sum(value(r, i) * value(r, j) for r in t.roots)
            if t.gram[hs[i]][hs[j]] != want:
                problems.append("%s: kappa(h%d, h%d) = %s, root sum %s"
                                % (label, i + 1, j + 1, t.gram[hs[i]][hs[j]], want))
    return problems


def check_r0(op: dict, out: dict, table: Table) -> list:
    """The pole of r0 is the Casimir: pole tensor times Killing Gram = 1."""
    tensor = out["tensor"]
    if tensor["m"] != 1:
        return ["r0 %s: m = %s, expected 1" % (op["type"], tensor["m"])]
    pole = {}
    for e in tensor["pole"]:
        pole.setdefault(e["i"], {})[e["j"]] = Q(e["val"])
    gram = [{j: v for j, v in enumerate(row) if v} for row in table.gram]
    for i in range(table.dim):
        row = {}
        for k, p in pole.get(i, {}).items():
            for j, v in gram[k].items():
                row[j] = row.get(j, 0) + p * v
        if {j: v for j, v in row.items() if v} != {i: 1}:
            return ["r0 %s: pole times Killing Gram is not 1 in row %d" % (op["type"], i)]
    return []


# ------------------------------------------------------------------- pass


def _error_object(stdout: str) -> bool:
    try:
        out = json.loads(stdout)
    except ValueError:
        return False
    return isinstance(out, dict) and "error" in out


def check_pass(ops: list, results: list) -> tuple:
    """results[i] = (exit code, stdout text, stderr text) of ops[i]."""
    failed, problems, tables, r0s = [], [], {}, []
    for op, (code, stdout, stderr) in zip(ops, results):
        if op["kind"] == "malformed":
            if code != 2 or not _error_object(stdout) or "Traceback" in stderr:
                failed.append(op["name"])
                if not op["known_fault"]:
                    problems.append("%s: exit %d, not a clean usage error" % (op["name"], code))
            continue
        if op.get("known_fault") and code == 1 and '"cybe":"nonzero"' in stdout:
            failed.append(op["name"])
            continue
        if code != 0:
            failed.append(op["name"])
            problems.append("%s: exit %d: %s" % (op["name"], code, stderr.strip()[-200:]))
            continue
        out = json.loads(stdout)
        if op["kind"] == "verify":
            if (out["cybe"], out["skew"], out["operators"]) != ("zero", "zero", "agree"):
                problems.append("%s: %s" % (op["name"], out))
        elif op["kind"] == "census":
            problems += check_census(op, out)
        elif op["kind"] == "catalog":
            problems += ["%s: %s" % (op["name"], p) for p in check_catalog(op, out)]
        elif op["kind"] == "structure":
            tables[op["type"]] = Table(out)
            problems += check_structure(op, tables[op["type"]])
        elif op["kind"] == "r0":
            r0s.append((op, out))
    for op, out in r0s:
        if op["type"] in tables:
            problems += check_r0(op, out, tables[op["type"]])
        else:
            problems.append("r0 %s: no structure table to check it against" % op["type"])
    return failed, problems
