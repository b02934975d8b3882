import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgk import barks, chains, pairs, search
from dgk.barks import MAX_CATALOG_SIZE
from dgk.cli import _parse_fiber, build_parser, main
from dgk.graphs import MAX_CURVES, format_chain, parse_chain
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
        # json.loads refuses an integer of more than 4,300 digits with a plain ValueError
        pytest.param('{"b": ' + "9" * 5000 + ', "twigs": ["[2]", "[2]", "[3]"]}',
                     "bad fork description: Exceeds the limit", id="b-past-the-digit-limit"),
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
    # bytes that do not decode are refused naming the file, whatever the locale
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"description": "caf\xe9"}')
    code, out, err = run(capsys, "search", "xy", "--bounds", str(latin))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: bounds file {latin} is not UTF-8 text: 'utf-8' codec")
    # a box the catalog cannot cover is a domain error too
    small = tmp_path / "small_catalog.json"
    small.write_text(json.dumps(dict(load_bounds("final_bounds"), catalog_max_size=20)))
    code, _, err = run(capsys, "search", "final-bounds", "--bounds", str(small))
    assert code == 1
    assert "catalog_max_size is 20" in err


def test_an_integer_past_the_digit_limit_in_a_bounds_file_names_the_file(capsys, tmp_path):
    # json.loads refuses an integer of more than 4,300 digits with a plain
    # ValueError; the refusal names the file, as for a file that is not JSON
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(load_bounds("xy"))[:-1] + ', "z_max": ' + "9" * 5000 + "}")
    code, out, err = run(capsys, "search", "xy", "--bounds", str(huge))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: bounds file {huge} cannot be read: Exceeds the limit")


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


def test_solve_twofiber_ignores_whitespace_around_the_twigs(capsys):
    plain = run(capsys, "solve", "twofiber", "--t1", "[2]", "--t2", "[(3)]", "--e", "[4]")
    assert plain[0] == 0
    padded = ("--t1", "[2] ", "--t2", " [(3)]", "--e", "[4]\n")
    assert run(capsys, "solve", "twofiber", *padded) == plain


@pytest.mark.parametrize(
    "key", ["[3,(2)]", "[4,(2),3]", *(key for key, _ in load_bounds("fiber_pairs")["eshapes"])]
)
def test_solve_twofiber_finds_a_shape_in_either_orientation(capsys, key):
    reverse = format_chain(parse_chain(key)[::-1])
    argv = ("solve", "twofiber", "--t1", "[2]", "--t2", "[3]")
    got = run(capsys, *argv, "--e", key)
    assert "no catalog shape" not in got[2]  # [3,(2)] and [4,(2),3] reach the solver and exit 1
    assert run(capsys, *argv, "--e", reverse) == got


def test_solve_twofiber_names_the_epsilons_a_shape_has(capsys):
    argv = ("solve", "twofiber", "--t1", "[2]", "--t2", "[3]", "--e", "[4]", "--epsilon", "0")
    assert run(capsys, *argv) == (
        1, "", "error: no catalog shape [4] with epsilon 0; its epsilons are 1, 2"
    )
    assert run(capsys, *argv[:-4], "--e", "[9]") == (1, "", "error: no catalog shape [9]")


def test_solve_twofiber_takes_a_fork_key_to_the_solver(capsys):
    # --e reads a name as a bounds file does, so a fork key names its shape,
    # which the solver refuses
    argv = ("solve", "twofiber", "--t1", "[2]", "--t2", "[3]", "--e", "fork(b=2;[2],[2],[(2),3])")
    assert run(capsys, *argv) == (1, "", "error: the ruling analysis needs an irreducible E")


def _twig_refusal(capsys, tmp_path, route, twig):
    """The exit code, output and error of ``route`` on the chain ``twig``."""
    if route == "adjoint_chain":
        with pytest.raises(ValueError) as exc:
            chains.adjoint_chain(parse_chain(twig))
        return 1, "", f"error: {exc.value}"
    if route == "knonpos t1":
        bounds = tmp_path / "knonpos.json"
        bounds.write_text(json.dumps(dict(load_bounds("k_nonpositive"), t1=twig)))
        return run(capsys, "search", "knonpos", "--bounds", str(bounds))
    argv = {
        "compute bark": ("compute", "bark", twig),
        "compute group": ("compute", "group", twig),
        "solve twofiber --t1": ("solve", "twofiber", "--t1", twig, "--t2", "[3]", "--e", "[4]"),
    }[route]
    return run(capsys, *argv)


@pytest.mark.parametrize("twig", ["[]", "[1]", "[3,1,2]"])
@pytest.mark.parametrize(
    "route,what",
    [
        ("compute bark", "chain"),
        ("compute group", "chain"),
        ("solve twofiber --t1", "T1"),
        ("knonpos t1", "t1"),
        ("adjoint_chain", "chain"),
    ],
)
def test_every_route_refuses_a_twig_in_one_form(capsys, tmp_path, route, what, twig):
    assert _twig_refusal(capsys, tmp_path, route, twig) == (
        1, "", f"error: {what} {twig} is not a nonempty admissible chain"
    )


@pytest.mark.parametrize("quantity", ["bark", "group"])
@pytest.mark.parametrize(
    "fork,refusal",
    [
        ('{"b":1,"twigs":["[2]","[2]","[2]"]}',
         "fork(b=1;[2],[2],[2]) is not admissible: b = 1 is not above e~ = 3/2"),
        ('{"b":2,"twigs":["[]","[2]","[2]"]}',
         "fork(b=2;[],[2],[2]) is not admissible: twig [] is not a nonempty admissible chain"),
        ('{"b":2,"twigs":["[2]","[1]","[2]"]}',
         "fork(b=2;[1],[2],[2]) is not admissible: twig [1] is not a nonempty admissible chain"),
        ('{"b":2,"twigs":["[3]","[3]","[3]"]}',
         "fork(b=2;[3],[3],[3]) is not admissible:"
         " its twig discriminants (3, 3, 3) are not a Platonic triple"),
    ],
)
def test_a_fork_is_refused_with_the_condition_it_fails(capsys, quantity, fork, refusal):
    # barks.require_admissible_fork is the one refusal of both commands
    assert run(capsys, "compute", quantity, fork) == (1, "", f"error: {refusal}")


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
    assert "xy: mismatch +3 -0" in out.splitlines()
    # a mismatch names the entries added and removed, not both files: here
    # the golden lacks its first candidate and has its second altered, and
    # in final-bounds its one eshapes entry is altered
    xy = json.loads((src / "search_xy.json").read_text())
    altered = dict(xy[1], b=xy[1]["b"] + 10)
    target.write_text(json.dumps([altered] + xy[2:]))
    bounds = json.loads((src / "search_final_bounds.json").read_text())
    assert bounds["eshapes"] == ["[4]"]
    bounds["eshapes"] = ["[5]"]
    (tmp_path / "search_final_bounds.json").write_text(json.dumps(bounds))
    code, out, _ = run(capsys, "verify", "--suite", "paper")
    assert code == 3
    assert out.splitlines() == [
        "final-bounds: mismatch +1 -1", "xy: mismatch +2 -1", "knonpos: ok", "fiber-pairs: ok",
        "GOLDEN MISMATCH",
    ]
    code, out, _ = run(capsys, "--json", "verify", "--suite", "paper")
    results = json.loads(out)
    assert code == 3
    assert (results["xy"]["added"], results["xy"]["removed"]) == (xy[:2], [altered])
    assert results["final-bounds"]["added"] == [{"eshapes": "[4]"}]
    assert results["final-bounds"]["removed"] == [{"eshapes": "[5]"}]
    assert "added" not in results["knonpos"]
    shutil.copy(src / "search_final_bounds.json", tmp_path / "search_final_bounds.json")
    # a golden that is not JSON is a domain error that names the file
    target.write_text("{")
    code, _, err = run(capsys, "verify", "--suite", "paper")
    assert code == 1
    assert f"golden file {target} is not valid JSON" in err
    # and so is one that is not UTF-8 text
    target.write_bytes(b"\xff[]")
    code, out, err = run(capsys, "verify", "--suite", "paper")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: golden file {target} is not UTF-8 text: 'utf-8' codec")
    # and so is one with an integer past Python's 4,300-digit limit, which
    # json.loads refuses with a plain ValueError
    target.write_text("[" + "9" * 5000 + "]")
    code, out, err = run(capsys, "verify", "--suite", "paper")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: golden file {target} cannot be read: Exceeds the limit")
    # a missing golden is a domain error that names the file, raised before
    # any search runs
    target.unlink()
    with monkeypatch.context() as m:
        m.setattr(search, "run_search", lambda name: pytest.fail(f"search {name} ran"))
        code, out, err = run(capsys, "verify", "--suite", "paper")
    assert (code, out, err) == (1, "", f"error: golden file {target} is missing")
    # restoring the real file brings it back to 0
    shutil.copy(src / "search_xy.json", target)
    code, out, _ = run(capsys, "verify", "--suite", "paper")
    assert code == 0
    assert "all searches match" in out


def test_long_chain_discriminant(capsys):
    code, out, _ = run(capsys, "compute", "d", "[(1500)]")
    assert (code, out) == (0, "1501")


def test_a_run_past_the_curve_bound_exits_1_before_it_is_expanded(capsys):
    # a 14-character text must not ask for a billion curves
    code, out, err = run(capsys, "compute", "d", "[(1000000000)]")
    assert (code, out) == (1, "")
    want = f"error: run '(1000000000)' takes the chain past {MAX_CURVES} curves (at position 1)"
    assert err == want
    code, out, err = run(capsys, "pairs", "extract", f"[1*:1,({MAX_CURVES})]")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: run '({MAX_CURVES})' takes the fiber past")


def test_a_number_past_the_digit_limit_exits_1_naming_the_entry(capsys):
    nines = "9" * 5000
    code, out, err = run(capsys, "compute", "d", f"[({nines})]")
    assert (code, out) == (1, "")
    assert err == f"error: chain entry '({nines})' has too many digits (at position 1)"


def unbuilt(*args, **kwargs):
    raise AssertionError("an input past its bound was built")


def test_an_output_chain_past_the_curve_bound_exits_1_unbuilt(capsys, monkeypatch):
    # [(d - 1)] has discriminant d, so d - 1 curves may not pass the bound
    monkeypatch.setattr(chains, "oriented_chains_with_d", unbuilt)
    code, out, err = run(capsys, "enumerate", "chains", "--d", str(MAX_CURVES + 2))
    assert (code, out) == (1, "")
    assert err == f"error: discriminant {MAX_CURVES + 2} gives a chain past {MAX_CURVES} curves"


def test_a_fiber_past_the_curve_bound_exits_1_unbuilt(capsys, monkeypatch):
    # the pair (C, 1) blows up C times: with U, C + 1 curves
    monkeypatch.setattr(pairs, "FiberTree", unbuilt)
    code, out, err = run(capsys, "pairs", "reconstruct", str(MAX_CURVES), "1")
    assert (code, out) == (1, "")
    assert err == f"error: the pairs give a fiber of {MAX_CURVES + 1} curves, past {MAX_CURVES}"


def test_a_catalog_past_its_bound_exits_1_unbuilt(capsys, monkeypatch, tmp_path):
    size = MAX_CATALOG_SIZE + 1
    monkeypatch.setattr(barks, "_slice", unbuilt)
    monkeypatch.setattr(search, "catalog_index", unbuilt)
    code, out, err = run(capsys, "enumerate", "eshapes", "--max-size", str(size))
    assert (code, out) == (1, "")
    assert err == f"error: catalog size {size} is past the bound of {MAX_CATALOG_SIZE}"
    big = tmp_path / "big_catalog.json"
    big.write_text(json.dumps(dict(load_bounds("final_bounds"), catalog_max_size=size)))
    code, out, err = run(capsys, "search", "final-bounds", "--bounds", str(big))
    assert (code, out) == (1, "")
    assert err == (
        f"error: catalog_max_size must be an integer of at most {MAX_CATALOG_SIZE}, got {size}"
    )


def test_enumerate_eshapes_json_is_unchanged():
    # SHA-256 of the output, final newline included, as the catalog printed
    # it when a generic stripper still worked out each shape's E and Delta
    want = {
        30: "d4ec46e9bea76884fc0af0abd08519fe5153394e417ad2ff9f5f5c9d70f7938f",
        60: "4db8976a63e86cf0579649a3431935ece878872de2a8548354f647ce79db801e",
    }
    for size, digest in want.items():
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["--json", "enumerate", "eshapes", "--max-size", str(size)]) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, size


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
        ("final-bounds", "final_bounds", "d_rules",
         [{"x": 3, "y_min": 3, "y_max": 3, "z_max": 5, "z_min": 4}]),
    ],
)
def test_wrongly_typed_bounds_exit_code(capsys, tmp_path, name, file_name, key, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(load_bounds(file_name), **{key: value})))
    code, out, err = run(capsys, "search", name, "--bounds", str(bad))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {key} must be")


@pytest.mark.parametrize(
    "name,file_name,entry",
    [("xy", "xy", ["[4]", True]), ("fiber-pairs", "fiber_pairs", ["[4]", 1.0])],
)
def test_eshapes_entry_not_a_pair_exit_code(capsys, tmp_path, name, file_name, entry):
    # true and 1.0 hash as 1, so a bare lookup would run epsilon 1 and exit 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(load_bounds(file_name), eshapes=[entry])))
    code, out, err = run(capsys, "search", name, "--bounds", str(bad))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: eshapes entry {entry!r} is not a [key, epsilon] pair")


@pytest.mark.parametrize(
    "name,file_name,box,message",
    [
        ("xy", "xy", {"x_max": 1}, "error: xy's edges must satisfy 2 <= x_max <= y_max"
         " and x_max <= z_max, got x_max 1, y_max 11, z_max 41"),
        ("final-bounds", "final_bounds", {"d_rules": [{"x": 5, "y_min": 3, "y_max": 4, "z_max": 41}]},
         "error: d_rules entry {'x': 5, 'y_min': 3, 'y_max': 4, 'z_max': 41} covers no"
         " discriminant triple: max(x, y_min) > min(y_max, z_max)"),
    ],
    ids=["xy", "final-bounds"],
)
def test_box_without_a_discriminant_triple_exit_code(capsys, tmp_path, name, file_name, box, message):
    # such a box used to print an empty list with exit 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(load_bounds(file_name), **box)))
    code, out, err = run(capsys, "search", name, "--bounds", str(bad))
    assert (code, out, err) == (1, "", message)


def test_repeated_bounds_value_exit_code(capsys, tmp_path):
    # a repeated b value used to print a candidate twice with exit 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(load_bounds("xy"), b=[1, 1, 2])))
    code, out, err = run(capsys, "search", "xy", "--bounds", str(bad))
    assert (code, out) == (1, "")
    assert err == "error: b must not repeat a value, got [1, 1, 2]"


@pytest.mark.parametrize(
    "b, message",
    [
        ([0], "b value 0 can never pass zar_b, which needs b = 1 or 2"),
        ([3], "b value 3 can never pass zar_b, which needs b = 1 or 2"),
        ([], "b must list at least one value, got []"),
        ([-1, 1], "b value -1 can never pass zar_b, which needs b = 1 or 2"),
    ],
)
def test_a_b_value_that_can_never_pass_exit_code(capsys, tmp_path, b, message):
    # zar_b passes only b = 1 or 2: such a box used to scan for nothing and
    # print [] with exit 0
    for name, file_name in (("xy", "xy"), ("final-bounds", "final_bounds"),
                            ("knonpos", "k_nonpositive")):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(load_bounds(file_name), b=b)))
        code, out, err = run(capsys, "search", name, "--bounds", str(bad))
        assert (code, out, err) == (1, "", f"error: {message}"), name


@pytest.mark.parametrize(
    "name, file_name, key, value, message",
    [
        ("xy", "xy", "eshapes", [], "eshapes must list at least one value, got []"),
        ("fiber-pairs", "fiber_pairs", "eshapes", [], "eshapes must list at least one value, got []"),
        ("fiber-pairs", "fiber_pairs", "twig_d_max", 1,
         "twig_d_max must be an integer of at least 2, got 1"),
        ("knonpos", "k_nonpositive", "case2_k_max", -1,
         "case2_k_max must be a nonnegative integer, got -1"),
    ],
    ids=["xy-eshapes", "fiber-pairs-eshapes", "twig_d_max", "case2_k_max"],
)
def test_a_box_that_covers_nothing_exit_code(capsys, tmp_path, name, file_name, key, value,
                                             message):
    # no shape, no twig or no case-2 tail: the first three used to print []
    # with exit 0, and the last an empty case 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(load_bounds(file_name), **{key: value})))
    code, out, err = run(capsys, "search", name, "--bounds", str(bad))
    assert (code, out, err) == (1, "", f"error: {message}")


@pytest.mark.parametrize(
    "t1, message",
    [
        ("[3", "t1 '[3': expected ']' after entry '3' (at position 2)"),
        ("", "t1 '': expected '[' (at position 0)"),
    ],
    ids=["unclosed", "empty"],
)
def test_an_unreadable_t1_names_its_key(capsys, tmp_path, t1, message):
    # the parse error used to be printed alone, without the key it is in
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(load_bounds("k_nonpositive"), t1=t1)))
    code, out, err = run(capsys, "search", "knonpos", "--bounds", str(bad))
    assert (code, out, err) == (1, "", f"error: {message}")


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


# ---------------------------------------------------------------------------
# random command lines: every run exits 0, 1 or 2, and none with a traceback

PADDING = st.sampled_from(["", "", " ", "  ", "\n", "\t"])
# runs stay short: a text such as "(9999999)" would ask for millions of curves
# now and then a run past graphs.MAX_CURVES, which is refused unexpanded; the
# two long runs are ones that a reader without the bound expands harmlessly
# or refuses at once (a list of 10**20 items cannot be asked for), and the
# 5,000 nines are more digits than int() converts
RUN = st.one_of(
    st.integers(0, 4), st.integers(0, 4), st.integers(0, 4),
    st.sampled_from([MAX_CURVES + 1, 10**20, "9" * 5000]),
).map(lambda k: f"({k})")
FIBER_ENTRY = st.builds(
    lambda w, star, mult: f"{w}{star}" + ("" if mult is None else f":{mult}"),
    st.integers(0, 6),
    st.sampled_from(["", "*"]),
    st.none() | st.integers(0, 20),
)
BAD_ENTRY = st.sampled_from(
    ["", "x", "*", ":", "-1", "1:1:1", "((2))", "[2]", "2 3", "( )", "1**", "2:", "0"]
)


def _bracket(lead, open_, entries, close, trail):
    return lead + open_ + ",".join(entries) + close + trail


def _bracket_text(entry, opens=st.just("["), closes=st.just("]")):
    padded = st.tuples(PADDING, entry, PADDING).map("".join)
    return st.builds(_bracket, PADDING, opens, st.lists(padded, max_size=5), closes, PADDING)


BRACKET_TEXT = st.one_of(
    _bracket_text(st.integers(1, 8).map(str) | RUN),
    _bracket_text(st.integers(1, 8).map(str) | RUN | FIBER_ENTRY),
    _bracket_text(
        st.integers(0, 12).map(str) | RUN | FIBER_ENTRY | BAD_ENTRY,
        st.sampled_from(["[", "[", "", "(", "[["]),
        st.sampled_from(["]", "]", "", ")", "]]", "],"]),
    ),
    st.text(alphabet="[](),*:12x -\n", max_size=6),
)
FIBER_TEXT = _bracket_text(st.integers(0, 6).map(str) | RUN | FIBER_ENTRY | FIBER_ENTRY)
JSON_VALUE = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.floats(-3, 3, allow_nan=False)
    | st.sampled_from(["", "x", "actual", "[4]", "noether"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["x", "y_min", "y_max", "z_max", "b"]), inner, max_size=2),
    max_leaves=4,
)


def _fork_text(b, twigs, drop, cut, lead):
    data = {"b": b, "twigs": twigs}
    data.pop(drop, None)
    text = json.dumps(data)
    return lead + text[: len(text) - cut]


FORK_TEXT = st.builds(
    _fork_text,
    st.integers(-2, 6) | JSON_VALUE,
    st.lists(BRACKET_TEXT, min_size=2, max_size=4) | JSON_VALUE,
    st.sampled_from([None, None, "b", "twigs"]),
    st.sampled_from([0, 0, 0, 1, 3]),
    PADDING,
)
QUANTITY = st.sampled_from(["d", "dprime", "e", "etilde", "delta", "bark", "group"])
COMMAND = st.one_of(
    st.tuples(st.just("compute"), QUANTITY, BRACKET_TEXT | FORK_TEXT).map(list),
    st.tuples(st.just("compute"), QUANTITY, BRACKET_TEXT, st.just("--one-sided")).map(list),
    st.tuples(st.just("pairs"), st.just("extract"), FIBER_TEXT | BRACKET_TEXT).map(list),
    st.tuples(st.just("pairs"), st.just("extract"), FIBER_TEXT).map(list),
    st.builds(
        lambda t1, t2, e: ["solve", "twofiber", "--t1", t1, "--t2", t2, "--e", e],
        BRACKET_TEXT,
        BRACKET_TEXT,
        BRACKET_TEXT | st.sampled_from(["[4]", "[5]", " [2,3]"]),
    ),
)
UNKNOWN_FLAG = st.sampled_from(["--bogus", "-z", "--jobs", "--t3", "--json=1", "--csv"])


def exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    return code


@settings(derandomize=True, max_examples=300, deadline=None)
@given(argv=COMMAND, flag=st.none() | st.tuples(UNKNOWN_FLAG, st.integers(0, 8)))
def test_random_command_lines_exit_cleanly(argv, flag):
    if flag is not None:
        argv.insert(min(flag[1], len(argv)), flag[0])
    code = exits_cleanly(argv)
    if flag is not None and flag[0] in ("--bogus", "-z", "--jobs", "--t3"):
        assert code == 2, argv


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(search.SEARCHES)),
    key=st.sampled_from(
        ["b", "x_max", "z_max", "d_rules", "t1", "predicates", "eshapes", "group_order_mode",
         "delta_gmin", "exclude_eps2_chains", "catalog_max_size", "twig_d_max", "d2_max"]
    ),
    value=JSON_VALUE | BRACKET_TEXT,
    how=st.sampled_from(["replace", "replace", "drop", "whole", "text"]),
)
def test_random_bounds_files_exit_cleanly(tmp_path_factory, name, key, value, how):
    cfg = load_bounds(search.SEARCHES[name].bounds_file)
    if how == "replace" and key in cfg:
        cfg[key] = value
    elif how == "drop":
        cfg.pop(key, None)
    elif how == "whole":
        cfg = value
    text = json.dumps(cfg)
    if how == "text":
        text = text[: len(text) // 2] if isinstance(value, str) else str(value)
    path = tmp_path_factory.mktemp("bounds") / "bounds.json"
    path.write_text(text)
    exits_cleanly(["search", name, "--bounds", str(path)])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(BRACKET_TEXT)
def test_chain_and_fiber_readers_give_the_same_weights(text):
    try:
        chain = parse_chain(text)
        fiber = _parse_fiber(text)
    except ValueError:
        return
    assert chain == tuple(w for w, _, _, _, _ in fiber)


# ---------------------------------------------------------------------------
# --csv: a header and one row per result of the JSON output

CSV_HEADERS = {
    "final-bounds": "eshape",
    "xy": "b,twigs,eshape,epsilon",
    "knonpos": "case,b,twigs,eshape,epsilon",
    "fiber-pairs": "n,gamma,kappa,kappa_tilde,c,p,c_prime,p_prime,c_tilde,p_tilde,b,t1,t2,t3,"
                   "eshape,epsilon",
}


def csv_fields(name, result):
    """The fields the CSV of a search prints for its JSON output, one list
    per row: final-bounds' shapes, knonpos's two cases, the other lists
    whole, the twigs joined by "|"."""
    columns = CSV_HEADERS[name].split(",")
    if name == "final-bounds":
        records = [{"eshape": eshape} for eshape in result["eshapes"]]
    elif name == "knonpos":
        records = [dict(c, case=case) for case in ("case1", "case2") for c in result[case]]
    else:
        records = result
    return [["|".join(r[k]) if k == "twigs" else str(r[k]) for k in columns] for r in records]


@pytest.mark.parametrize("name", list(search.SEARCHES))
def test_search_csv_prints_a_header_and_a_row_per_result(capsys, name):
    code, out, _ = run(capsys, "search", name)
    assert code == 0
    want = csv_fields(name, json.loads(out))
    code, out, _ = run(capsys, "search", name, "--csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert ",".join(header) == CSV_HEADERS[name] == out.splitlines()[0]
    # each row reads back as the fields of its result, commas in a twig or
    # a shape quoted
    assert want and rows == want
    assert len(out.splitlines()) == len(want) + 1


def test_fiber_pairs_csv_rows_name_their_shape(capsys, tmp_path):
    # at twig_d_max 40 the [3] and the two [2,3] solutions of epsilon 2 all
    # have gamma 3; each row ends in its shape and epsilon, as in the JSON
    bounds = tmp_path / "fiber_pairs_40.json"
    bounds.write_text(json.dumps(dict(load_bounds("fiber_pairs"), twig_d_max=40)))
    code, out, _ = run(capsys, "search", "fiber-pairs", "--bounds", str(bounds))
    assert code == 0
    solutions = json.loads(out)
    code, out, _ = run(capsys, "search", "fiber-pairs", "--bounds", str(bounds), "--csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == len(solutions) == 7
    assert rows == csv_fields("fiber-pairs", solutions)
    for row, s in zip(rows, solutions):
        assert row[-3:] == [s["t3"], s["eshape"], str(s["epsilon"])], row
    gamma_3 = [(s["eshape"], s["epsilon"]) for s in solutions if s["gamma"] == 3]
    assert sorted(gamma_3) == [("[2,3]", 2), ("[2,3]", 2), ("[3]", 2)]


def test_search_csv_quotes_a_field_with_a_comma(capsys):
    # a twig or a shape with a comma used to split its row into more
    # fields than the header has
    code, out, _ = run(capsys, "search", "xy", "--csv")
    assert code == 0
    assert out.splitlines()[1] == '1,"[2]|[4]|[(8),4]",[4],1'
