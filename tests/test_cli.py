"""CLI surface: subcommands, exit codes, determinism, error paths."""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from whcalc.cli import main
from whcalc.falg import FAlgElement

from _oracles import cyclic, report_from_dict, simplex_to_dict


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_unit_verify_paper_unit(capsys):
    code, out, _ = run(["unit", "verify", "--order", "7",
                        "--coeffs", "2,2,0,-1,-1,-1,0"], capsys)
    assert code == 0
    assert "[verified] unit-inverse" in out
    assert "1" in out and "-2" in out


def test_unit_verify_non_unit_fails(capsys):
    code, out, _ = run(["unit", "verify", "--order", "7",
                        "--coeffs", "1,1,0,0,0,0,0"], capsys)
    assert code == 1
    assert "[failed]" in out


def test_wh_eq(capsys):
    # y = t^2 * u is the same class
    code, out, _ = run(["wh", "eq", "--order", "7",
                        "--x", "2,2,0,-1,-1,-1,0",
                        "--y=-1,0,2,2,0,-1,-1"], capsys)
    assert code == 0
    assert "true" in out
    # a genuinely different class
    code, out, _ = run(["wh", "eq", "--order", "7",
                        "--x", "2,2,0,-1,-1,-1,0",
                        "--y", "2,-1,2,-1,0,0,-1"], capsys)
    assert code == 0
    assert "false" in out


def test_wh_eq_non_unit_fails_and_bad_length_is_usage_error(capsys):
    code, out, _ = run(["wh", "eq", "--order", "7", "--x", "1,1,0,0,0,0,0",
                        "--y", "1,0,0,0,0,0,0"], capsys)
    assert code == 1 and "[failed] class-equality" in out
    code, out, _ = run(["wh", "eq", "--order", "3", "--x", "0,0,0",
                        "--y", "1,0,0"], capsys)
    assert code == 1 and "0 is not a unit of Z[C_3]" in out
    code, out, err = run(["wh", "eq", "--order", "7", "--x", "1", "--y", "1"],
                         capsys)
    assert code == 2 and out == "" and "length" in err


def test_homology_and_tate(capsys):
    code, out, _ = run(["homology", "--target", "z2xz2-trivial",
                        "--n", "1", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["stages"][0]["witness"]["invariant_factors"] == [2, 2]
    code, out, _ = run(["tate", "--target", "z-trivial", "--n", "0"], capsys)
    assert code == 0
    # a negative degree is refused by ``homology_c2`` alone
    code, out, err = run(["homology", "--target", "z2-trivial", "--n", "-1"],
                         capsys)
    assert code == 2 and out == "" and err.startswith("error: ")
    assert "Traceback" not in err and "nonnegative" in err


def test_falg_pi_and_cap(capsys):
    code, out, _ = run(["falg", "pi", "--target", "z4-sign", "--n", "2"],
                       capsys)
    assert code == 0 and "[verified]" in out
    code, _, err = run(["falg", "pi", "--target", "z2-trivial", "--n", "5"],
                       capsys)
    assert code == 2
    assert "cap" in err
    # a free target runs on both paths
    code, out, _ = run(["falg", "pi", "--target", "z-trivial", "--n", "1"],
                       capsys)
    assert code == 0 and "[verified]" in out


def test_falg_check(capsys):
    element = {
        "p": 0,
        "target": "z2-trivial",
        "face_values": {"0": [1], "1": [1]},
    }
    code, out, _ = run(["falg", "check", "--element", json.dumps(element)],
                       capsys)
    assert code == 0 and "[verified] membership" in out
    # a non-dual value, and a nonzero value on the top face
    for values in ({"0": [1], "1": [0]}, {"0": [1], "1": [1], "01": [1]}):
        bad = dict(element, face_values=values)
        code, out, _ = run(["falg", "check", "--element", json.dumps(bad)],
                           capsys)
        assert code == 1 and "[failed] membership" in out


def test_falg_check_at_degree_3_reports_the_square_condition(capsys):
    # at degree 3 the functor has ambient 4; built from face values it
    # meets the square condition at every ambient, so the verdict is true
    target = cyclic(2, 1)
    element = simplex_to_dict(FAlgElement.zero(target, 3), "z2-trivial")
    code, out, _ = run(["falg", "check", "--element", json.dumps(element),
                        "--json"], capsys)
    assert code == 0
    (stage,) = json.loads(out)["stages"]
    assert stage["status"] == "verified"
    assert stage["witness"] == {"p": 3, "square_condition": True}


def test_huge_degree_with_missing_values_fails_fast(capsys):
    # single-digit vertex names stop at vertex 9, so the CLI refuses the
    # degree before anything is built; the library constructor finds the
    # first of 2^42 - 2 missing faces without listing them all
    element = {"p": 40, "target": "z2-trivial", "face_values": {}}
    start = time.perf_counter()
    code, out, err = run(["falg", "check", "--element", json.dumps(element)],
                         capsys)
    with pytest.raises(ValueError, match="missing value"):
        FAlgElement.from_face_values(cyclic(2, 1),
                                     40, {})
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "degree" in err


@pytest.mark.parametrize("p, values, message", [
    (0, {"0": [1], "1": [1], "7": [1]}, "not a face"),
    (0, {"0": [1], "00": [0], "1": [1]}, "not a face"),
    (0, {"0": [1], "1": [1], "10": [0]}, "not a face"),
    (0, {"0": [1], "1": [1], "": [0]}, "not a face"),
    (1, {"0": [1], "\u0661": [1]}, "not a face"),
    (0, {"0": [1], "1": [1, 0]}, "coordinates"),
    (0, {"0": [1], "1": [1], "01": []}, "coordinates"),
    (9, {}, "degree"),
])
def test_malformed_face_keys_and_values_are_usage_errors(p, values, message,
                                                         capsys):
    element = {"p": p, "target": "z2-trivial", "face_values": values}
    code, out, err = run(["falg", "check", "--element", json.dumps(element)],
                         capsys)
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("nbytes", [0, 10])
def test_closed_stdout_is_not_a_crash(nbytes):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "whcalc.cli", "subcomplex", "enum", "--p", "3",
         "--all", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.read(nbytes)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) in (0, 1)
    assert b"Traceback" not in err


def test_malformed_json_is_usage_error(capsys):
    code, _, err = run(["falg", "check", "--element", "{not json"], capsys)
    assert code == 2 and "malformed" in err


@pytest.mark.parametrize("element", [
    '{"p":0}', '[]', '"x"', '{"p":0,"target":5,"face_values":{}}',
    '{"p":"0","target":"z2-trivial","face_values":{}}',
    '{"p":0,"target":"z2-trivial","face_values":[]}',
    '{"p":0,"target":"z2-trivial","face_values":{"0":1}}',
    '{"p":0,"target":"z2-trivial","face_values":{"zz":[1]}}',
    '{"p":0,"target":{"generators":1,"involution":"x"},"face_values":{}}',
    '{"p":0,"target":{"generators":1,"relations":[[2],[2,2]],'
    '"involution":[[1]]},"face_values":{}}',
    '{"p":-1,"target":"z2-trivial","face_values":{}}',
    '{"p":-3,"target":"z2-trivial","face_values":{}}',
])
def test_malformed_element_shape_is_usage_error(element, capsys):
    code, out, err = run(["falg", "check", "--element", element], capsys)
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    (["torsion", "compose", "--d", "11", "--order", "7",
      "--u", "2,2,0,-1,-1,-1,0"], "needs --u2"),
    (["homology", "--n", "1", "--target",
      '{"generators":2,"relations":[[2,0],[0,4]],"involution":[[0,1],[1,0]]}'],
     "does not preserve the relations"),
    (["homology", "--n", "1", "--target",
      '{"generators":2,"relations":[[2,0],[0]],"involution":[[1,0],[0,1]]}'],
     "equal length"),
    (["homology", "--n", "1", "--target",
      '{"generators":1,"relations":[[true]],"involution":[[1]]}'],
     "integer rows"),
    (["torsion", "reverse", "--d", "11", "--order", "7",
      "--u", "2,2,0,-1,-1,-1,0", "--twist", "14"],
     "the twist must be invertible mod the group order"),
    (["lens", "inertia", "--k", "0"], "k must be positive"),
    (["lens", "inertia", "--p", "5", "--unit", ""],
     "malformed coefficient list: ''"),
    (["lens", "report-theorem-a", "--k", "1", "--unit", ""],
     "malformed coefficient list: ''"),
], ids=["compose-without-u2", "involution-breaks-relations",
        "ragged-relations", "boolean-entry", "twist-not-invertible",
        "inertia-k-zero", "inertia-empty-unit", "report-empty-unit"])
def test_missing_operand_or_malformed_target_is_usage_error(argv, message,
                                                            capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == "" and err.startswith("error: ")
    assert message in err


@pytest.mark.parametrize("argv", [["--help"], ["lens", "inertia", "--help"]],
                         ids=["whcalc", "lens-inertia"])
def test_help_exits_zero_with_usage_on_stdout(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 0 and out.startswith("usage: ") and err == ""


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_subcomplex_enum(capsys):
    code, out, _ = run(["subcomplex", "enum", "--p", "2", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["stages"][0]["witness"]["count"] == 10
    code, _, err = run(["subcomplex", "enum", "--p", "4"], capsys)
    assert code == 2
    code, out, err = run(["subcomplex", "enum", "--p", "-1"], capsys)
    assert code == 2 and out == "" and "nonnegative" in err
    code, out, _ = run(["subcomplex", "enum", "--p", "0", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["stages"][0]["witness"]["count"] == 1


def test_torsion_commands(capsys):
    base = ["torsion", "double", "--d", "11", "--order", "7",
            "--u", "2,2,0,-1,-1,-1,0", "--twist", "2"]
    code, out, _ = run(base, capsys)
    assert code == 0 and "[derived] symbol" in out
    code, out, _ = run(["torsion", "compose", "--d", "11", "--order", "7",
                        "--u", "2,2,0,-1,-1,-1,0",
                        "--u2", "1,0,0,0,0,0,0"], capsys)
    assert code == 0
    code, out, _ = run(["torsion", "reverse", "--d", "11", "--order", "7",
                        "--u", "2,2,0,-1,-1,-1,0"], capsys)
    assert code == 0 and "[derived] symbol" in out


def test_lens_report_exit_and_stage(capsys):
    code, out, _ = run(["lens", "report-theorem-a", "--k", "1", "--json"],
                       capsys)
    assert code == 0
    doc = report_from_dict(json.loads(out))
    by_name = {s.name: s for s in doc.stages}
    assert by_name["inertia-mod-doubles"].status == "verified"
    assert by_name["inertia-mod-doubles"].witness["cardinality"] == 3


def test_lens_report_degenerate_unit(capsys):
    code, out, _ = run(["lens", "report-theorem-a", "--k", "1",
                        "--unit", "1,0,0,0,0,0,0"], capsys)
    assert code == 1


def test_lens_inertia_p5(capsys):
    code, out, _ = run(["lens", "inertia", "--p", "5", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["stages"][0]["witness"]["cardinality"] == 2
    code, explicit, _ = run(["lens", "inertia", "--p", "5",
                             "--unit", "1,-1,0,0,-1", "--json"], capsys)
    assert code == 0 and explicit == out


def _limit_address_space():
    limit = 600 << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _run_limited(args):
    """Python with ``args`` in a child capped at 600 MB of address space
    and 60 s, so building the weights of a huge lens space fails the
    test, not the machine."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env=env, timeout=60,
                          preexec_fn=_limit_address_space)


@pytest.mark.parametrize("argv", [
    ["lens", "report-theorem-a", "--k", "100000000"],
    ["lens", "inertia", "--p", "7", "--k", "100000000"],
    ["lens", "inertia", "--p", "10000000019"],
    ["lens", "inertia", "--p", "10000000019", "--unit", "1,0,0"],
], ids=["report-k", "inertia-k", "inertia-p", "inertia-p-unit"])
def test_huge_lens_degree_or_prime_is_usage_error(argv):
    proc = _run_limited(["-m", "whcalc.cli", *argv])
    assert proc.returncode == 2 and proc.stdout == b""
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("unit", ["None", "(1, 0, 0)"])
def test_discrepancy_report_resolves_unit_before_lens_space(unit):
    # no recorded unit, or one of the wrong length, at a huge p: refused
    # before the (p - 1) * k weights are built
    proc = _run_limited(["-c", f"""
from whcalc.lens import discrepancy_report
try:
    discrepancy_report(1, p=10**10 + 19, unit_coeffs={unit})
except ValueError as exc:
    print("refused:", exc)
"""])
    assert proc.returncode == 0 and proc.stdout.startswith(b"refused:")
    assert proc.stderr == b""


def test_max_p_cap(capsys):
    code, _, err = run(["lens", "inertia", "--p", "7", "--max-p", "5"],
                       capsys)
    assert code == 2 and "cap" in err
    code, _, _ = run(["kapp", "tor", "--p", "7", "--i", "0",
                      "--max-p", "5"], capsys)
    assert code == 2
    # a cap of 0 is a cap, not "no cap"; every prime-taking command checks it
    for argv in (["lens", "inertia", "--p", "5", "--max-p", "0"],
                 ["lens", "report-theorem-a", "--k", "1", "--max-p", "0"],
                 ["kapp", "tor", "--p", "7", "--i", "4", "--max-p", "0"],
                 ["kapp", "k3", "--p", "7", "--max-p", "5"]):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == "" and "cap" in err, argv


@pytest.mark.parametrize("p", ["1001", "1009", str(10**18 + 9)])
def test_kapp_tor_cap_is_usage_error(p, capsys):
    # just above the documented cap (1009 is prime), and far above it:
    # refused before the primality test or any matrix
    start = time.perf_counter()
    code, out, err = run(["kapp", "tor", "--p", p, "--i", "1"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "capped at 1000" in err


@pytest.mark.parametrize("p", ["1001", "1009", str(10**16 + 61),
                               str(10**20 + 39)])
def test_kapp_k3_cap_is_usage_error(p, capsys):
    # above ktheory.TOR_MAX_P: refused before the trial-division
    # primality test, which takes seconds from about 16 digits on
    start = time.perf_counter()
    code, out, err = run(["kapp", "k3", "--p", p], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "capped at 1000" in err


def test_homology_of_a_huge_prime_relation(capsys):
    # the invariant factors of a 20-digit prime relation come from
    # gcd/lcm, not from factoring it by trial division
    p = 10**19 + 51
    target = json.dumps({"generators": 1, "relations": [[p]],
                         "involution": [[1]]})
    start = time.perf_counter()
    code, out, _ = run(["homology", "--target", target, "--n", "0",
                        "--json"], capsys)
    assert time.perf_counter() - start < 5
    assert code == 0
    assert json.loads(out)["stages"][0]["witness"] == \
        {"invariant_factors": [p]}


ONE_AT_1001 = "1" + ",0" * 1000


@pytest.mark.parametrize("argv", [
    ["unit", "verify", "--order", "1001", "--coeffs", ONE_AT_1001],
    ["wh", "eq", "--order", "1001", "--x", ONE_AT_1001, "--y", ONE_AT_1001],
    ["torsion", "double", "--d", "11", "--order", "1001", "--u", ONE_AT_1001],
], ids=["unit-verify", "wh-eq", "torsion"])
def test_group_order_cap_is_usage_error(argv, capsys):
    # one above groupring.ORDER_MAX: refused before the first twist product
    start = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "capped at 1000" in err


def test_huge_generator_count_with_empty_involution_fails_fast(capsys):
    # the row count is checked before g rows are built
    target = json.dumps({"generators": 10**9, "involution": []})
    start = time.perf_counter()
    code, out, err = run(["homology", "--target", target, "--n", "1"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "one row per generator" in err


def test_kapp_commands(capsys):
    code, out, _ = run(["kapp", "tor", "--p", "7", "--i", "2"], capsys)
    assert code == 0 and "[verified]" in out
    code, out, _ = run(["kapp", "k3", "--p", "7", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["stages"][0]["witness"]["k3_fp_order"] == 48
    assert data["assumptions"]


def test_json_round_trip_and_determinism(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(["lens", "report-theorem-a", "--k", "1", "--json"],
                           capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    doc = report_from_dict(json.loads(outs[0]))
    assert doc.to_json() + "\n" == outs[0] or doc.to_json() == outs[0].rstrip("\n")
    # the document writes the tool and its version itself, so a report of
    # another tool or version does not parse back into one
    for key, other in (("tool", "other"), ("version", "0.0.0")):
        data = json.loads(outs[0])
        data[key] = other
        with pytest.raises(ValueError, match="not a report of whcalc"):
            report_from_dict(data)


def test_out_flag(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(["unit", "verify", "--order", "7",
                        "--coeffs", "1,0,0,0,0,0,0",
                        "--json", "--out", str(path)], capsys)
    assert code == 0
    assert out == ""
    data = json.loads(path.read_text())
    assert data["stages"][0]["status"] == "verified"


@pytest.mark.parametrize("where", ["missing-dir/report.json", "."])
def test_unwritable_out_is_usage_error(where, tmp_path, capsys):
    # a missing directory, or a directory given as the file
    path = tmp_path / where
    code, out, err = run(["homology", "--target", "z2-trivial", "--n", "1",
                          "--out", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_global_flags_before_subcommand(capsys):
    code, out, _ = run(["--json", "unit", "verify", "--order", "7",
                        "--coeffs", "1,0,0,0,0,0,0"], capsys)
    assert code == 0
    json.loads(out)
