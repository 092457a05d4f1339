import json
import os
import subprocess
import sys

import pytest

import loopcybe
from loopcybe import cli

CLI = [sys.executable, "-m", "loopcybe.cli"]
# The CLI runs the package these tests imported, installed or not.
SRC = os.path.dirname(os.path.dirname(loopcybe.__file__))
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run(*args, cwd=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=ENV,
                          timeout=300, cwd=cwd)


def write_quad(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


VALID_A2 = {
    "diagram": {"type": "A2", "s": [1, 0, 0], "nu_perm": None},
    "gamma1": [1], "gamma2": [2], "gamma": {"1": 2},
    "t_h": [{"i": 1, "j": 2, "val": "1/36"}],
}

INVALID_A2 = {
    "diagram": {"type": "A2", "s": [1, 0, 0], "nu_perm": None},
    "gamma1": [1], "gamma2": [1], "gamma": {"1": 1}, "t_h": [],
}


def test_roots_subcommand():
    out = run("roots", "A2")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["count"] == 6


def test_roots_invalid_type_exits_2():
    out = run("roots", "Q9")
    assert out.returncode == 2
    assert "error" in json.loads(out.stdout)


def test_r0_subcommand():
    out = run("r0", "--type", "A1", "--s", "1,0")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["tensor"]["m"] == 1
    assert {"dx": 0, "dy": 0, "i": 1, "j": 0, "val": "1/4"} in data["tensor"]["poly"]


def test_validate_valid(tmp_path):
    path = write_quad(tmp_path, "q.json", VALID_A2)
    out = run("validate", "-i", path)
    assert out.returncode == 0
    assert json.loads(out.stdout)["valid"] is True


def test_validate_condition2_failure(tmp_path):
    path = write_quad(tmp_path, "q.json", INVALID_A2)
    out = run("validate", "-i", path)
    assert out.returncode == 1
    data = json.loads(out.stdout)
    assert data["condition2"]["ok"] is False
    assert data["condition2"]["trapped"] == [1]


def test_malformed_json_exits_2(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    out = run("validate", "-i", str(p))
    assert out.returncode == 2
    assert "error" in json.loads(out.stdout)


def _usage_error(out):
    """Exit 2 with a JSON error object and no traceback."""
    return (out.returncode == 2 and "error" in json.loads(out.stdout)
            and "Traceback" not in out.stderr)


def test_top_level_array_exits_2(tmp_path):
    path = write_quad(tmp_path, "q.json", [VALID_A2])
    for cmd in ("validate", "twist", "verify-cybe"):
        assert _usage_error(run(cmd, "-i", path))


@pytest.mark.parametrize("field,value", [
    ("gamma1", [1, 7]), ("gamma2", [-1]), ("gamma", {"1": 3}), ("gamma", {"5": 2}),
    ("t_h", [{"i": 9, "j": 1, "val": "1/2"}]), ("t_h", [{"i": 1, "j": 0, "val": "1/2"}]),
])
def test_node_index_out_of_range_exits_2(tmp_path, field, value):
    """A2 has affine nodes 0..2 and t_h indices 1..2 (or "d")."""
    path = write_quad(tmp_path, "q.json", dict(VALID_A2, **{field: value}))
    assert _usage_error(run("validate", "-i", path))


@pytest.mark.parametrize("diagram", [
    {"type": "A2", "s": "100", "nu_perm": None},
    {"type": "A2", "s": [True, 0, 0], "nu_perm": None},
    {"type": "A2", "s": [1.0, 0, 0], "nu_perm": None},
    {"type": "A3", "s": [1, 0, 0], "nu_perm": "210"},
    {"type": "A2", "s": [1, 0], "nu_perm": [0, 0]},
    {"type": "A2", "s": [1, 0], "nu_perm": [0, 5]},
])
def test_s_and_nu_perm_checked(tmp_path, diagram):
    """s and nu_perm are JSON lists of ints, and nu_perm permutes the finite nodes."""
    quad = {"diagram": diagram, "gamma1": [], "gamma2": [], "gamma": {}, "t_h": []}
    path = write_quad(tmp_path, "q.json", quad)
    assert _usage_error(run("verify-cybe", "-i", path))


@pytest.mark.parametrize("nu", ["0,0", "0,5"])
def test_nu_flag_not_a_permutation_exits_2(nu):
    """--nu 0,0 used to loop forever when --s was left to its default."""
    assert _usage_error(run("r0", "--type", "A2", "--nu", nu))


def test_t_h_float_val_exits_2(tmp_path):
    quad = dict(VALID_A2, t_h=[{"i": 1, "j": 2, "val": 0.1}])
    path = write_quad(tmp_path, "q.json", quad)
    for cmd in ("validate", "twist", "verify-cybe"):
        assert _usage_error(run(cmd, "-i", path))


@pytest.mark.parametrize("index", [1, "d"])
def test_t_h_entry_on_one_index_exits_2(tmp_path, index):
    """An entry is the coefficient of h_i ^ h_j, so i == j is malformed."""
    path = write_quad(tmp_path, "q.json", dict(VALID_A2, t_h=[{"i": index, "j": index,
                                                              "val": "1/2"}]))
    for argv in (["validate", "-i", path], ["twist", "-i", path],
                 ["verify-cybe", "-i", path], ["equiv", "-a", path, "-b", path]):
        out = run(*argv)
        assert _usage_error(out), argv
        assert "pairs an index with itself" in json.loads(out.stdout)["error"], argv


def test_verify_cybe(tmp_path):
    path = write_quad(tmp_path, "q.json", VALID_A2)
    out = run("verify-cybe", "-i", path)
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data == {"cybe": "zero", "skew": "zero", "mode": "symbolic",
                    "operators": "agree"}


def test_verify_cybe_degree_bound_flag(tmp_path):
    path = write_quad(tmp_path, "q.json", VALID_A2)
    out = run("--degree-bound", "2", "verify-cybe", "-i", path)
    assert out.returncode == 0
    assert json.loads(out.stdout)["operators"] == "agree"


def test_verify_cybe_a1_s01(tmp_path):
    """A1 graded by s = (0, 1), gamma: 0 -> 1: r0 splits C_0 by the affine sign."""
    quad = {"diagram": {"type": "A1", "s": [0, 1], "nu_perm": None},
            "gamma1": [0], "gamma2": [1], "gamma": {"0": 1}, "t_h": []}
    out = run("verify-cybe", "-i", write_quad(tmp_path, "q.json", quad))
    assert out.returncode == 0
    assert json.loads(out.stdout)["cybe"] == "zero"


def test_negative_degree_bound_exits_2(tmp_path):
    """An empty degree window would report "agree" with nothing checked."""
    path = write_quad(tmp_path, "q.json", VALID_A2)
    assert _usage_error(run("--degree-bound", "-5", "verify-cybe", "-i", path))


def test_cyclotomic_tensor_export_exits_2(tmp_path):
    """D4^(3) tensors have coefficients in Q(zeta_3), which the fraction-string
    format cannot hold."""
    assert _usage_error(run("r0", "--type", "D4", "--nu", "2,1,3,0"))
    quad = {"diagram": {"type": "D4", "s": [1, 0, 0], "nu_perm": [2, 1, 3, 0]},
            "gamma1": [0], "gamma2": [2], "gamma": {"0": 2},
            "t_h": [{"i": 1, "j": 2, "val": "1/72"}]}
    assert _usage_error(run("twist", "-i", write_quad(tmp_path, "q.json", quad)))


def test_twist_deterministic_output(tmp_path):
    path = write_quad(tmp_path, "q.json", VALID_A2)
    out1 = run("twist", "-i", path)
    out2 = run("twist", "-i", path)
    assert out1.returncode == 0
    assert out1.stdout == out2.stdout      # byte-identical


def test_census_b_series():
    out = run("census", "--types", "B", "--max-rank", "5")
    assert out.returncode == 0
    rows = json.loads(out.stdout)
    by_rank = {r["rank"]: r for r in rows}
    assert by_rank[2]["good"] and by_rank[3]["good"]
    assert not by_rank[5]["good"]
    assert by_rank[5]["witness_gamma1"] is not None


@pytest.mark.parametrize("rank", ["0", "-2"])
def test_census_nonpositive_max_rank_exits_2(rank):
    out = run("census", "--types", "B", "--max-rank", rank)
    assert out.returncode == 2
    assert "max-rank" in json.loads(out.stdout)["error"]


def test_census_empty_types_exits_2():
    out = run("census", "--types", ",")
    assert out.returncode == 2
    assert "selects no diagram" in json.loads(out.stdout)["error"]


def test_census_unknown_series_names_known_ones():
    out = run("census", "--types", "X")
    assert out.returncode == 2
    assert "A, B, C, D, E, F, G" in json.loads(out.stdout)["error"]


def test_equiv_subcommand(tmp_path):
    qa = write_quad(tmp_path, "a.json", VALID_A2)
    rotated = {
        "diagram": {"type": "A2", "s": [1, 0, 0], "nu_perm": None},
        "gamma1": [2], "gamma2": [0], "gamma": {"2": 0},
        "t_h": [{"i": 1, "j": 2, "val": "1/36"}],
    }
    qb = write_quad(tmp_path, "b.json", rotated)
    out = run("equiv", "-a", qa, "-b", qb)
    data = json.loads(out.stdout)
    assert out.returncode == 0
    assert data["equivalent"] is True


def test_identity_nu_names_the_untwisted_diagram(tmp_path):
    """nu_perm [0, 1] on A2 is the identity: the quadruple is the one with
    nu_perm null, equivalent to it by the identity, and echoes null."""
    qa = write_quad(tmp_path, "a.json", VALID_A2)
    spelled = dict(VALID_A2, diagram={"type": "A2", "s": [1, 0, 0], "nu_perm": [0, 1]})
    qb = write_quad(tmp_path, "b.json", spelled)
    out = run("equiv", "-a", qa, "-b", qb)
    assert (out.returncode, json.loads(out.stdout)) == (0, {"equivalent": True,
                                                            "witness": [0, 1, 2]})
    twists = [run("twist", "-i", q) for q in (qa, qb)]
    assert [t.returncode for t in twists] == [0, 0]
    assert twists[0].stdout == twists[1].stdout
    assert json.loads(twists[1].stdout)["quadruple"]["diagram"]["nu_perm"] is None


def test_export_catalog():
    out = run("export", "--what", "catalog", "--type", "A1", "--s", "1,0")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert len(data["orbits"]) == 2
    assert all("t_h_dimension" in o for o in data["orbits"])


@pytest.mark.parametrize("label,nu", [("A3", "1,0,2"), ("B2", "1,0")])
def test_catalog_nu_off_the_diagram_exits_2(label, nu):
    """A node permutation that is no diagram automorphism is refused."""
    out = run("export", "--what", "catalog", "--type", label, "--nu", nu)
    assert out.returncode == 2
    assert json.loads(out.stdout) == \
        {"error": "ValueError: permutation does not preserve the Cartan matrix"}


def test_catalog_s_length_follows_the_twisted_diagram():
    out = run("export", "--what", "catalog", "--type", "A3", "--nu", "2,1,0", "--s", "1,0")
    assert out.returncode == 2
    assert json.loads(out.stdout) == \
        {"error": "ValueError: s must have 3 entries for this diagram"}


def test_unknown_flag_rejected():
    out = run("roots", "A1", "--frobnicate")
    assert out.returncode == 2


@pytest.mark.parametrize("argv", [
    ["roots", "A1", "--frobnicate"], ["verify-cybe"], ["census", "--types", "B", "--max-rank", "x"],
    ["export", "--what", "bogus"], ["frob"], [], ["r0", "--type"],
], ids=lambda argv: " ".join(argv) or "no argv")
def test_usage_errors_emit_json(argv):
    """A malformed command line gets the JSON error object of every usage error."""
    assert _usage_error(run(*argv))


def test_help_lists_every_command_and_flag():
    out = run("--help")
    assert out.returncode == 0 and out.stdout.startswith("usage: loopcybe")
    assert run("census", "-h").stdout == out.stdout
    for name, (_, _, flags, _, _) in cli.COMMANDS.items():
        assert all(word in out.stdout for word in [name, *flags]), name


def test_help_as_output_value_names_the_file(tmp_path):
    """-h prints USAGE only where a flag or a command is expected."""
    out = run("roots", "A1", "-o", "-h", cwd=tmp_path)
    assert (out.returncode, out.stdout) == (0, "")
    assert (tmp_path / "-h").read_text() == run("roots", "A1").stdout


def test_help_as_types_value_is_no_series():
    out = run("census", "--types", "-h")
    assert _usage_error(out) and list(json.loads(out.stdout)) == ["error"]


def test_flag_equals_value_matches_spaced_form():
    """--flag=value reads as --flag value, and a repeated flag keeps its last value."""
    spaced = run("r0", "--type", "A2", "--s", "1,0,0")
    assert spaced.returncode == 0
    assert run("r0", "--type=A2", "--s=1,0,0").stdout == spaced.stdout
    assert run("r0", "--type", "B2", "--s", "1,0,0", "--type=A2").stdout == spaced.stdout


def test_r0_default_s_untwisted_and_twisted():
    out = run("r0", "--type", "A1")
    assert out.returncode == 0
    assert json.loads(out.stdout)["sigma"]["s"] == [1, 0]
    out = run("r0", "--type", "A2", "--nu", "1,0")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["sigma"]["s"] == [1, 0]
    assert data["tensor"]["m"] == 2


def test_export_structure_table():
    out = run("export", "--what", "structure", "--type", "A1")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["killing_gram"][2][2] == "8"


# ------------------------------------------------------------ the exit path

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
E7_STRUCTURE = ["export", "--what", "structure", "--type", "E7"]


def test_large_output_reaches_the_pipe_whole(capsys):
    """The E7 structure table is larger than a pipe buffer, so bytes
    left unflushed at exit would show as a truncated stdout."""
    assert cli.main(E7_STRUCTURE) == 0
    expected = capsys.readouterr().out
    out = run(*E7_STRUCTURE)
    assert out.returncode == 0
    assert len(expected) > 4 * 65536        # four 64 KiB pipe buffers
    assert out.stdout == expected


def test_output_file_is_complete_and_stdout_empty(tmp_path, capsys):
    assert cli.main(E7_STRUCTURE) == 0
    expected = capsys.readouterr().out
    path = tmp_path / "e7.json"
    out = run(*E7_STRUCTURE, "-o", str(path))
    assert (out.returncode, out.stdout) == (0, "")
    assert path.read_text() == expected


@pytest.mark.parametrize("name,argv,code", [
    ("verify-A2", ["verify-cybe", "-i", "quad.json"], 0),
    ("verify-A2-invalid", ["verify-cybe", "-i", "quad_invalid.json"], 1),
    ("error-census-Z", ["census", "--types", "Z"], 2)])
def test_exit_codes_pass_through(name, argv, code):
    with open(os.path.join(GOLDEN, "cases.json")) as fh:
        assert json.load(fh)[name] == code
    assert run(*argv, cwd=GOLDEN).returncode == code


def test_main_returns_the_code_in_process(capsys):
    code = cli.main(["census", "--types", "Z"])
    assert type(code) is int and code == 2
    assert "error" in json.loads(capsys.readouterr().out)
    assert cli.main(["roots", "A1"]) == 0


def test_run_flushes_then_exits_with_the_code(monkeypatch, capsys):
    exits = []
    monkeypatch.setattr(sys, "argv", ["loopcybe", "census", "--types", "Z"])
    monkeypatch.setattr(os, "_exit", exits.append)
    cli.run()
    assert exits == [2] and "error" in capsys.readouterr().out


def test_run_raises_on_a_failed_flush_and_never_exits(monkeypatch):
    class Closed:
        def write(self, text):
            return len(text)

        def flush(self):
            raise BrokenPipeError

    exits = []
    monkeypatch.setattr(sys, "argv", ["loopcybe", "roots", "A1"])
    monkeypatch.setattr(sys, "stdout", Closed())
    monkeypatch.setattr(os, "_exit", exits.append)
    with pytest.raises(BrokenPipeError):
        cli.run()
    assert exits == []
