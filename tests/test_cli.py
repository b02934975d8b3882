import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dgk.cli import build_parser, main
from dgk.search import load_bounds


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_compute_d(capsys):
    code, out, _ = run(capsys, "compute", "d", "[3,2]")
    assert (code, out) == (0, "5")
    code, out, _ = run(capsys, "compute", "d", "[]")
    assert (code, out) == (0, "1")


def test_compute_fractions_exact(capsys):
    code, out, _ = run(capsys, "compute", "e", "[2,3]")
    assert (code, out) == (0, "3/5")
    code, out, _ = run(capsys, "compute", "etilde", "[2,3]")
    assert (code, out) == (0, "2/5")
    code, out, _ = run(capsys, "compute", "delta", "[2,3]")
    assert (code, out) == (0, "1/5")


def test_compute_bark_json_roundtrip(capsys):
    code, out, _ = run(capsys, "--json", "compute", "bark", "[2,3]")
    assert code == 0
    payload = json.loads(out)
    assert payload["bk_square"] == "-7/5"
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) == out


def test_enumerate_chains(capsys):
    code, out, _ = run(capsys, "enumerate", "chains", "--d", "7")
    assert code == 0
    assert out.splitlines() == ["[(6)]", "[(2),3]", "[2,4]", "[7]"]


def test_enumerate_chains_with_a_long_chain_of_twos(capsys):
    # the chain of 2's has 1499 curves; the 400 oriented chains of
    # discriminant 1500 hold 8 palindromes, so 204 remain up to reversal
    code, out, _ = run(capsys, "enumerate", "chains", "--d", "1500")
    assert code == 0
    assert len(out.splitlines()) == 204 and out.splitlines()[0] == "[(1499)]"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["chains", "--d", "1"], "discriminant must be >= 2"),
        (["eshapes", "--max-size", "-3"], "--max-size must be >= 0"),
    ],
)
def test_enumerate_rejects_bad_bounds(capsys, argv, message):
    code, out, err = run(capsys, "enumerate", *argv)
    assert (code, out, err) == (1, "", f"error: {message}")


def test_enumerate_eshapes_of_size_zero_is_empty(capsys):
    assert run(capsys, "--json", "enumerate", "eshapes", "--max-size", "0") == (0, "[]", "")


def test_pairs_roundtrip(capsys):
    code, out, _ = run(capsys, "pairs", "reconstruct", "14", "3")
    assert code == 0
    assert out == "[5:1,3:5,1*:14,2:9,3:4,2:3,2:2,2:1]"
    code, out2, _ = run(capsys, "pairs", "extract", out)
    assert (code, out2) == (0, "(14,3)")
    code, out3, _ = run(capsys, "pairs", "extract", "[5,3,1,2,3,(3)]")
    assert (code, out3) == (0, "(14,3)")


def test_pairs_extract_long_fiber(capsys):
    code, out, _ = run(capsys, "pairs", "reconstruct", "1200", "1")
    assert code == 0
    code, out2, err = run(capsys, "pairs", "extract", out)
    assert (code, out2, err) == (0, "(1200,1)", "")


def test_pairs_extract_zero_multiplicity_exit_code(capsys):
    code, out, err = run(capsys, "pairs", "extract", "[1:0,1*:0]")
    assert (code, out) == (1, "")
    assert err == "error: tree is not the fiber of any pair sequence"


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "compute", "d", "[3,0]")
    assert code == 1
    assert "error" in err
    code, _, err = run(capsys, "compute", "e", "[1,1]")
    assert code == 1


@pytest.mark.parametrize("quantity", ["d", "e", "etilde", "delta"])
@pytest.mark.parametrize(
    "twigs,message",
    [
        (["[]", "[2]", "[3]"], "fork twigs must be nonempty"),
        (["[1,1]", "[2]", "[3]"], "zero discriminant"),
    ],
)
def test_bad_fork_exit_code(capsys, quantity, twigs, message):
    fork = json.dumps({"b": 2, "twigs": twigs})
    code, _, err = run(capsys, "compute", quantity, fork)
    assert code == 1
    assert message in err


@pytest.mark.parametrize(
    "fiber,message",
    [
        ("[]", "bad fiber entry '' (at position 1)"),
        ("[*]", "bad fiber entry '*' (at position 1)"),
        ("[1:1:1]", "bad fiber entry '1:1:1' (at position 1)"),
        ("[2,x,2]", "bad fiber entry 'x' (at position 3)"),
        ("[(0)]", "fiber [(0)] has no curves (at position 0)"),
        ("[2,1*,22", "expected ']' after entry '22' (at position 8)"),
        ("2,1*,2", "expected '[' (at position 0)"),
        # a given multiplicity is kept, and must match the kernel vector
        ("[2,1:5,2]", "fiber entry '1:5' gives multiplicity 5; the weights give 2"),
        ("[2:7,1*,2]", "fiber entry '2:7' gives multiplicity 7; the weights give 1"),
        ("[2*,1*,2]", "fiber entry '1*' is a second '*' after '2*' (at position 4)"),
        ("[0:2]", "a one-component fiber must be the 0-curve 0:1, got 0:2"),
    ],
)
def test_pairs_extract_names_the_bad_entry(capsys, fiber, message):
    code, out, err = run(capsys, "pairs", "extract", fiber)
    assert (code, out, err) == (1, "", f"error: {message}")


@pytest.mark.parametrize(
    "fork,message",
    [
        ('{"b": 2.7, "twigs": ["[2]", "[2]", "[3]"]}', "fork key 'b' must be an integer, got 2.7"),
        ('{"b": "2", "twigs": ["[2]", "[2]", "[3]"]}', "fork key 'b' must be an integer, got '2'"),
        ('{"b": true, "twigs": ["[2]", "[2]", "[3]"]}', "fork key 'b' must be an integer, got True"),
        ('{"b": 2, "twigs": "[2]"}', "fork key 'twigs' must be a list of three strings, got '[2]'"),
        ('{"b": 2, "twigs": ["[2]", "[3]"]}', "fork key 'twigs' must be a list of three strings"),
        ('{"b": 2, "twigs": ["[2]", 3, "[3]"]}', "fork key 'twigs' must be a list of three strings"),
        ('{"b": 2, "twigs": ["[2]", "[2", "[3]"]}', "fork key 'twigs': twig 2 '[2': expected ']'"),
        ('{"b": 2}', "fork key 'twigs' is missing"),
        ('{"twigs": ["[2]", "[2]", "[3]"]}', "fork key 'b' is missing"),
        ('{"b": 2,', "bad fork description: "),
    ],
)
def test_bad_fork_description_names_the_key(capsys, fork, message):
    code, out, err = run(capsys, "compute", "group", fork)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}")


def test_pairs_extract_without_kernel_exit_code(capsys):
    # [2,2] has d = 3, so its minus matrix has no kernel
    code, _, err = run(capsys, "pairs", "extract", "[2,2]")
    assert code == 1
    assert "no kernel" in err


def test_usage_error_exit_code(capsys):
    assert main(["compute", "nonsense", "[2]"]) == 2
    # the scan has no worker option, so --jobs is an unknown argument
    code, _, err = run(capsys, "search", "xy", "--jobs", "2")
    assert code == 2
    assert "--jobs" in err


def test_unknown_suite_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--suite", "foo")
    assert (code, out) == (2, "")
    assert "invalid choice: 'foo'" in err


def test_bad_bounds_file_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "search", "xy", "--bounds", str(tmp_path / "missing.json"))
    assert code == 1
    assert err.startswith("error: cannot read bounds file")
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    code, _, err = run(capsys, "search", "xy", "--bounds", str(broken))
    assert code == 1
    assert "not valid JSON" in err
    # a box the catalog cannot cover is a domain error too
    small = tmp_path / "small_catalog.json"
    small.write_text(json.dumps(dict(load_bounds("final_bounds"), catalog_max_size=20)))
    code, _, err = run(capsys, "search", "final-bounds", "--bounds", str(small))
    assert code == 1
    assert "catalog_max_size is 20" in err


def test_parser_is_reused_across_calls(capsys):
    # one process: a usage error, then two valid calls on the same parser
    code, _, err = run(capsys, "compute", "nonsense", "[2]")
    assert code == 2
    assert "invalid choice" in err
    assert run(capsys, "compute", "d", "[3,2]") == (0, "5", "")
    code, out, _ = run(capsys, "--json", "compute", "e", "[2,3]")
    assert (code, json.loads(out)) == (0, {"e": "3/5"})
    assert build_parser() is build_parser()


@pytest.mark.parametrize(
    "t1,t2,message",
    [
        ("[]", "[4]", "T1 [] is not a nonempty admissible chain"),
        ("[1]", "[1]", "T1 [1] is not a nonempty admissible chain"),
        ("[2]", "[]", "T2 [] is not a nonempty admissible chain"),
    ],
)
def test_solve_twofiber_rejects_bad_twigs(capsys, t1, t2, message):
    code, out, err = run(capsys, "solve", "twofiber", "--t1", t1, "--t2", t2, "--e", "[4]")
    assert (code, out) == (1, "")
    assert err == f"error: {message}"


def test_degenerate_chain_message_uses_bracket_notation(capsys):
    for graph in ("[1,1]", '{"b": 2, "twigs": ["[1,1]", "[2]", "[3]"]}'):
        code, _, err = run(capsys, "compute", "e", graph)
        assert (code, err) == (1, "error: chain [1,1] has zero discriminant")


def test_bad_pairs_exit_code(capsys):
    code, out, err = run(capsys, "pairs", "reconstruct", "3", "14")
    assert (code, out) == (1, "")
    assert err == "error: pair 1 is (3, 14); needs c >= p"
    code, _, err = run(capsys, "pairs", "reconstruct", "6", "4")
    assert (code, err) == (1, "error: last pair must be coprime")


def test_group_order_fork(capsys):
    code, out, _ = run(
        capsys, "compute", "group", '{"b":2,"twigs":["[2]","[2]","[3]"]}'
    )
    assert (code, out) == (0, "24")


def test_solve_twofiber_json(capsys):
    code, out, _ = run(
        capsys, "--json", "solve", "twofiber",
        "--t1", "[2]", "--t2", "[4]", "--e", "[4]",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 1
    assert payload[0]["t3"] == "[(8),4]"
    assert payload[0]["rejected_by_square_gcd"] is True


def test_json_and_text_encode_same_values(capsys):
    code, text, _ = run(capsys, "compute", "e", "[3,2]")
    code2, js, _ = run(capsys, "--json", "compute", "e", "[3,2]")
    assert json.loads(js)["e"] == text


def test_verify_golden_dir_override_and_mismatch(capsys, tmp_path, monkeypatch):
    import shutil
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src" / "dgk" / "golden"
    for f in src.glob("*.json"):
        shutil.copy(f, tmp_path / f.name)
    # a tampered golden must be detected and flip the exit code to 3
    target = tmp_path / "search_xy.json"
    target.write_text(json.dumps([]))
    monkeypatch.setenv("DGK_GOLDEN_DIR", str(tmp_path))
    code, out, _ = run(capsys, "verify", "--suite", "paper")
    assert code == 3
    assert "mismatch" in out
    # a golden that is not JSON is a domain error that names the file
    target.write_text("{")
    code, _, err = run(capsys, "verify", "--suite", "paper")
    assert code == 1
    assert f"golden file {target} is not valid JSON" in err
    # restoring the real file brings it back to 0
    shutil.copy(src / "search_xy.json", target)
    code, out, _ = run(capsys, "verify", "--suite", "paper")
    assert code == 0
    assert "all searches match" in out


def test_long_chain_discriminant(capsys):
    code, out, _ = run(capsys, "compute", "d", "[(1500)]")
    assert (code, out) == (0, "1501")


def test_bad_bounds_keys_exit_code(capsys, tmp_path):
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps(dict(load_bounds("final_bounds"), delta_gmn=7)))
    code, _, err = run(capsys, "search", "final-bounds", "--bounds", str(typo))
    assert code == 1
    assert err == "error: unknown final-bounds bounds keys: delta_gmn"


@pytest.mark.parametrize(
    "name,file_name,key,value",
    [
        ("xy", "xy", "b", 2),
        ("final-bounds", "final_bounds", "d_rules", [{"x": "3", "y_min": 3, "y_max": 3, "z_max": 5}]),
        ("knonpos", "k_nonpositive", "d2_max", "11"),
        ("fiber-pairs", "fiber_pairs", "twig_d_max", "6"),
        ("final-bounds", "final_bounds", "d_rules", []),
    ],
)
def test_wrongly_typed_bounds_exit_code(capsys, tmp_path, name, file_name, key, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(load_bounds(file_name), **{key: value})))
    code, out, err = run(capsys, "search", name, "--bounds", str(bad))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {key} must be")


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "eshapes", "--max-size", "20"], ["compute", "d", "[3,2]"]],
    ids=["long-output", "short-output"],
)
def test_closed_pipe_exits_without_traceback(argv):
    # the reader is gone before dgk writes, as in "dgk search xy | head -1";
    # a short output only meets the closed pipe when it is flushed
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as in a plain shell
    proc = subprocess.Popen(
        [sys.executable, "-m", "dgk.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert b"Traceback" not in err
    assert err == b""
