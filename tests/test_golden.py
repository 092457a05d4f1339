"""Byte-for-byte CLI goldens and a smoke run of every demo.

`tests/golden/*.out` hold the stdout of each case below; the exit code is
kept in `cases.json`.  The first seventeen were written by the code before
the shared Belavin-Drinfeld steps were merged, and the five catalogs after
them (E6, F4 and the order-2 twists of A3, D4 and E6, each graded by
s = e_0) by the Fraction code before the integer isometry search and t_h
solve.  The two structure tables (G2, B3), which pin the structure
constants and the Killing Gram, were written by the code that still took
the Killing form from ad-traces.  The last two (`r0` on A4 with
nu = (3, 2, 1, 0) graded by s = (0, 1, 0), and the catalog of A6 with
nu = (5, 4, 3, 2, 1, 0) graded by s = (0, 0, 0, 1)) pin the A_2l^(2) sign
rule, nu e_beta = -e_beta on the nu-fixed roots beta = gamma + nu(gamma);
they were written by the code that still read outer-twist diagrams off the
slots of the full loop algebra.  `structure-F4` (the only doubly-laced
rank-4 table) and `r0-E6` (graded by s = e_0), with the SHA-256 digests in
`DIGESTS` of the stdout of `export --what structure --type E7` and of
`r0 --type E7 --s 1,0,0,0,0,0,0,0`, were written by the code that still
resolved each mixed-sign structure constant by Fraction root lengths on
every bracket.  `verify-A3-order2`, `twist-A3-order2`, `verify-A3-s0` and
`twist-A3-s0` run `verify-cybe` and `twist` on one order-2 quadruple (A3
with nu = (2, 1, 0), Gamma_1 = {0}, gamma: 0 -> 2) and on one quadruple
graded with s_0 = 0 (A3, s = (0, 1, 1, 0), gamma: 0 -> 3, 1 -> 2), each
with its canonical t_h; the earlier `verify-*` cases are all untwisted with
s_0 = 1.  They were written by the code that still paired loop elements
through Chevalley coordinates and solved for the fixed-Cartan coordinates
of a theta image.  The four `error-*` cases exit 2 with the validation
messages of the value types: `roots E9` (a rank the series does not
admit), `census --types Z` (an unknown series), `r0 --type A2 --s 0,0,0`
(a grading with no non-zero weight) and `r0 --type B3 --nu 1,0,2` (a node
permutation that is no diagram automorphism).  They were written by the
code whose value types were still dataclasses.  `verify-A2-invalid` (exit
1) runs `verify-cybe` on an A2 quadruple whose t_h breaks condition 3,
and `error-verify-A2-d` (exit 2) on a valid one whose t_h has entries on
the scaling direction d, which a twist cannot embed.  They, and the digest
of `export --what catalog --type E7 --s 1,0,0,0,0,0,0,0` in `DIGESTS`,
were written by the code that still validated a quadruple twice per
`verify-cybe` and ran one condition-3 solve per catalog orbit; so was
`error-twist-A2-invalid` (exit 2), `twist` on the invalid quadruple, whose
error object names `ValueError`.  The last three pin the one order-3
diagram automorphism, D4 triality nu = (2, 1, 3, 0) graded by s = (1, 0, 0),
on the quadruple `quad_d4_order3.json` (Gamma_1 = {0}, gamma: 0 -> 2,
t_h = h_1 (x) h_2 / 72): `verify-D4-order3` (exit 0), and
`error-r0-D4-order3` and `error-twist-D4-order3` (exit 2), whose tensors have
coefficients in Q(zeta_3) that no fraction string holds.  They were written
by the code that still did arithmetic in a generic Q[x]/Phi_N.  The digest
of `export --what structure --type E8` in `DIGESTS` was written by the code
that still worked out every structure constant on each bracket, through a
branch ladder and root pairings, and wrapped each int in a Fraction before
printing it.  `catalog-A7` (s = e_0, 16 diagram automorphisms),
`catalog-D4` (untwisted, s = e_0, 24 diagram automorphisms),
`census-AEFG-16` and the digest of `export --what catalog --type A9`
(s = e_0) were written by the code that still derived the affine diagram
in Fractions and built every valid triple before folding orbits.  The
digests of `export --what structure --type E6` and of `r0` on E6 graded by
s = e_1 and s = e_6 and on E7 graded by s = e_7 (the mark-1 gradings besides
e_0) were written by the code that still built the structure constants on
root tuples with every algebra.  The last seven pin the slots of outer
twists: `r0` on D4 with nu = (0, 1, 3, 2) graded by s = e_0 and by
s = (0, 1, 1, 0), on D5 with nu = (0, 1, 2, 4, 3) and on E6 with
nu = (5, 1, 4, 3, 2, 0), both graded by s = e_0, and on A6 with
nu = (5, 4, 3, 2, 1, 0) graded by s = (0, 0, 0, 1); and `verify-cybe` and
`twist` on the E6^(2) quadruple `quad_e6_order2.json` (s = e_0,
Gamma_1 = {1, 3}, gamma: 1 -> 0, 3 -> 2, with its canonical t_h).  They
were written by the code that still built the slots of an outer nu on
separate root-orbit and Cartan-orbit branches and inverted them once per
restricted weight.  The four `equiv` cases after them run on the A2
quadruple `quad.json` against its rotation with t_h moved along its
condition-3 family, `"d"` entries included (`equiv-A2-along`, exit 0), and
off it (`equiv-A2-off`, exit 1), and on two quadruples whose condition-3
system has no solution, each against itself (exit 2): A3 with gamma the
swap of nodes 1 and 2 (`error-equiv-trapped`) and B3 with gamma: 0 -> 3
(`error-equiv-non-isometric`).  They were written by the code that still
solved that system and tested the moved t_h against the span of its
kernel.  `validate-A2-split` (exit 0) gives the t_h of `quad.json` as two
equal entries on one pair; it was written by the first code that adds
them, where earlier code kept only the later entry.  A change that alters
any of them alters the CLI's output.  After an intended output change, rewrite them with

    PYTHONPATH=src python3 tests/test_golden.py

which also prints the SHA-256, exit code and argv of each `DIGESTS` run;
copy a new digest from that output, run on the code that should pin it.
"""

import glob
import hashlib
import json
import os
import subprocess
import sys

import pytest

from test_cli import CLI, ENV

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(HERE), "demos", "*.py")))

# (name, argv); inputs are the quadruple files in tests/golden/.
CASES = [
    ("roots-G2", ["roots", "G2"]),
    ("r0-A2", ["r0", "--type", "A2", "--s", "1,0,0"]),
    ("validate-A2", ["validate", "-i", "quad.json"]),
    ("twist-A2", ["twist", "-i", "quad.json"]),
    ("verify-A2", ["verify-cybe", "-i", "quad.json"]),
    ("verify-A2-bound4", ["--degree-bound", "4", "verify-cybe", "-i", "quad.json"]),
    ("census-BCD-11", ["census", "--types", "B,C,D", "--max-rank", "11"]),
    ("census-BCD-6", ["census", "--types", "B,C,D", "--max-rank", "6"]),
    ("equiv-A2", ["equiv", "-a", "quad.json", "-b", "quad_rotated.json"]),
    ("catalog-A2", ["export", "--what", "catalog", "--type", "A2", "--s", "1,0,0"]),
    ("r0-A3-order2", ["r0", "--type", "A3", "--s", "1,0,0", "--nu", "2,1,0"]),
    ("catalog-D4-order3", ["export", "--what", "catalog", "--type", "D4", "--nu", "2,1,3,0"]),
    ("validate-B4", ["validate", "-i", "quad_b4.json"]),
    ("twist-B4", ["twist", "-i", "quad_b4.json"]),
    ("verify-B4", ["verify-cybe", "-i", "quad_b4.json"]),
    ("validate-D6", ["validate", "-i", "quad_d6.json"]),
    ("twist-D6", ["twist", "-i", "quad_d6.json"]),
    ("catalog-E6", ["export", "--what", "catalog", "--type", "E6", "--s", "1,0,0,0,0,0,0"]),
    ("catalog-F4", ["export", "--what", "catalog", "--type", "F4", "--s", "1,0,0,0,0"]),
    ("catalog-A3-order2", ["export", "--what", "catalog", "--type", "A3", "--s", "1,0,0",
                           "--nu", "2,1,0"]),
    ("catalog-D4-order2", ["export", "--what", "catalog", "--type", "D4", "--s", "1,0,0,0",
                           "--nu", "0,1,3,2"]),
    ("catalog-E6-order2", ["export", "--what", "catalog", "--type", "E6", "--s", "1,0,0,0,0",
                           "--nu", "5,1,4,3,2,0"]),
    ("structure-G2", ["export", "--what", "structure", "--type", "G2"]),
    ("structure-B3", ["export", "--what", "structure", "--type", "B3"]),
    ("r0-A4-order2", ["r0", "--type", "A4", "--nu", "3,2,1,0", "--s", "0,1,0"]),
    ("catalog-A6-order2", ["export", "--what", "catalog", "--type", "A6",
                           "--nu", "5,4,3,2,1,0", "--s", "0,0,0,1"]),
    ("structure-F4", ["export", "--what", "structure", "--type", "F4"]),
    ("r0-E6", ["r0", "--type", "E6", "--s", "1,0,0,0,0,0,0"]),
    ("verify-A3-order2", ["verify-cybe", "-i", "quad_a3_order2.json"]),
    ("twist-A3-order2", ["twist", "-i", "quad_a3_order2.json"]),
    ("verify-A3-s0", ["verify-cybe", "-i", "quad_a3_s0.json"]),
    ("twist-A3-s0", ["twist", "-i", "quad_a3_s0.json"]),
    ("error-roots-E9", ["roots", "E9"]),
    ("error-census-Z", ["census", "--types", "Z"]),
    ("error-r0-A2-s0", ["r0", "--type", "A2", "--s", "0,0,0"]),
    ("error-r0-B3-nu", ["r0", "--type", "B3", "--nu", "1,0,2"]),
    ("verify-A2-invalid", ["verify-cybe", "-i", "quad_invalid.json"]),
    ("error-verify-A2-d", ["verify-cybe", "-i", "quad_th_d.json"]),
    ("error-twist-A2-invalid", ["twist", "-i", "quad_invalid.json"]),
    ("verify-D4-order3", ["verify-cybe", "-i", "quad_d4_order3.json"]),
    ("error-r0-D4-order3", ["r0", "--type", "D4", "--s", "1,0,0", "--nu", "2,1,3,0"]),
    ("error-twist-D4-order3", ["twist", "-i", "quad_d4_order3.json"]),
    ("catalog-A7", ["export", "--what", "catalog", "--type", "A7", "--s", "1,0,0,0,0,0,0,0"]),
    ("catalog-D4", ["export", "--what", "catalog", "--type", "D4", "--s", "1,0,0,0,0"]),
    ("census-AEFG-16", ["census", "--types", "A,E,F,G", "--max-rank", "16"]),
    ("r0-D4-order2", ["r0", "--type", "D4", "--nu", "0,1,3,2", "--s", "1,0,0,0"]),
    ("r0-D4-order2-s0", ["r0", "--type", "D4", "--nu", "0,1,3,2", "--s", "0,1,1,0"]),
    ("r0-D5-order2", ["r0", "--type", "D5", "--nu", "0,1,2,4,3", "--s", "1,0,0,0,0"]),
    ("r0-E6-order2", ["r0", "--type", "E6", "--nu", "5,1,4,3,2,0", "--s", "1,0,0,0,0"]),
    ("r0-A6-order2", ["r0", "--type", "A6", "--nu", "5,4,3,2,1,0", "--s", "0,0,0,1"]),
    ("verify-E6-order2", ["verify-cybe", "-i", "quad_e6_order2.json"]),
    ("twist-E6-order2", ["twist", "-i", "quad_e6_order2.json"]),
    ("equiv-A2-along", ["equiv", "-a", "quad.json", "-b", "quad_rotated_along.json"]),
    ("equiv-A2-off", ["equiv", "-a", "quad.json", "-b", "quad_rotated_off.json"]),
    ("error-equiv-trapped", ["equiv", "-a", "quad_a3_trapped.json",
                             "-b", "quad_a3_trapped.json"]),
    ("error-equiv-non-isometric", ["equiv", "-a", "quad_b3_non_isometric.json",
                                   "-b", "quad_b3_non_isometric.json"]),
    ("validate-A2-split", ["validate", "-i", "quad_split.json"]),
]

# (argv, SHA-256 of stdout) for outputs too large to keep as files; exit 0.
DIGESTS = [
    (["export", "--what", "structure", "--type", "E7"],
     "19250e60d650c6222a065be6581eeaedc5ba01b525e949f2fcb9a839a1e342ed"),
    (["r0", "--type", "E7", "--s", "1,0,0,0,0,0,0,0"],
     "8d1d20daf1f0f2ac73ee9ebfbd3021f4c308fcc39f1bed13e09b1da3561173e1"),
    (["export", "--what", "catalog", "--type", "E7", "--s", "1,0,0,0,0,0,0,0"],
     "07d6299133c7c983cc1d27147eb387e97d1f0a0c4f89218f14f19e06fcd002e4"),
    (["export", "--what", "structure", "--type", "E8"],
     "117e7f0fc61e8593a5e1e98b6ce35b37d9871bdb7f73161e4e3f3c87b146a948"),
    (["export", "--what", "catalog", "--type", "A9", "--s", "1,0,0,0,0,0,0,0,0,0"],
     "ba7af83953c97355065abc95dc1f8a632c8f4add2ce1d4ec357db9faadcd4c56"),
    (["export", "--what", "structure", "--type", "E6"],
     "540f502c9253724484701d6b045b19764019c81c4cbf21eda929166284ac11ce"),
    (["r0", "--type", "E6", "--s", "0,1,0,0,0,0,0"],
     "b14c41821c677e7edfe5508494b4e2e09ebadacb3bd8733c0f85d728206406b0"),
    (["r0", "--type", "E6", "--s", "0,0,0,0,0,0,1"],
     "8eac398c51144ee05c2e998158bf835157bd891a84c1759a165fe5043f874b51"),
    (["r0", "--type", "E7", "--s", "0,0,0,0,0,0,0,1"],
     "47fdc39076453ac4add12005f6f4dfe38db52fc6083de8e61905d5313ca62a16"),
]


def run_case(argv):
    return subprocess.run(CLI + argv, capture_output=True, text=True, env=ENV,
                          cwd=GOLDEN, timeout=300)


def expected(name):
    with open(os.path.join(GOLDEN, "cases.json")) as fh:
        code = json.load(fh)[name]
    with open(os.path.join(GOLDEN, name + ".out")) as fh:
        return code, fh.read()


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_cli_golden(name, argv):
    out = run_case(argv)
    assert (out.returncode, out.stdout) == expected(name)


@pytest.mark.parametrize("argv,digest", DIGESTS, ids=["structure-E7", "r0-E7", "catalog-E7",
                                                     "structure-E8", "catalog-A9", "structure-E6",
                                                     "r0-E6-s1", "r0-E6-s6", "r0-E7-s7"])
def test_cli_digest(argv, digest):
    out = run_case(argv)
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("path", DEMOS, ids=[os.path.basename(p) for p in DEMOS])
def test_demo_runs(path):
    out = subprocess.run([sys.executable, path], capture_output=True, text=True,
                         env=ENV, timeout=300)
    assert out.returncode == 0 and "Traceback" not in out.stderr, out.stderr[-2000:]


if __name__ == "__main__":
    codes = {}
    for name, argv in CASES:
        out = run_case(argv)
        codes[name] = out.returncode
        with open(os.path.join(GOLDEN, name + ".out"), "w") as fh:
            fh.write(out.stdout)
    with open(os.path.join(GOLDEN, "cases.json"), "w") as fh:
        fh.write(json.dumps(codes, indent=1, sort_keys=True) + "\n")
    for argv, _ in DIGESTS:
        out = run_case(argv)
        print(hashlib.sha256(out.stdout.encode()).hexdigest(), out.returncode, *argv)
