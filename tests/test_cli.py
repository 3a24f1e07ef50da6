import io
import json
import time

import pytest

from carryideals.cli import ideal_to_text, main
from carryideals.ideals import carry_ideal

SIX_TEXT = "ring n=2 p=2\n8 0\n7 3\n5 4\n4 5\n3 7\n0 8\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "-d", "10", "-n", "2", "-p", "2")
    assert code == 0
    assert out.splitlines() == [
        "(0,0,0)", "(0,0,1)", "(1,0,0)", "(1,0,1)", "(1,1,1)"
    ]


def test_enumerate_json_and_dot(capsys):
    code, out, _ = run(
        capsys, "enumerate", "-d", "9", "-n", "3", "-p", "2", "--json", "--hasse-dot"
    )
    assert code == 0
    first, rest = out.split("\n", 1)
    data = json.loads(first)
    assert [1, 2, 1] in data["patterns"]
    assert "graph carry_lattice {" in rest
    assert '"(1,2,1)"' in rest


def test_carry(capsys):
    code, out, _ = run(capsys, "carry", "-p", "3", "-b", "4,6")
    assert code == 0 and out.strip() == "(0,1)"


def test_decompose_compose_round_trip(tmp_path, capsys):
    path = tmp_path / "ideal.txt"
    path.write_text(SIX_TEXT)
    code, out, _ = run(capsys, "decompose", str(path))
    assert code == 0
    assert out.splitlines() == [
        "d=8 c=(0,0,0)", "d=9 c=(0,0,1)", "d=10 c=(1,1,1)"
    ]
    code, composed, _ = run(
        capsys,
        "compose", "-n", "2", "-p", "2",
        "-l", "d=8 c=(0,0,0)", "-l", "d=9 c=(0,0,1)", "-l", "d=10 c=(1,1,1)",
    )
    assert code == 0
    assert set(composed.strip().splitlines()) == set(SIX_TEXT.strip().splitlines())


def test_decompose_json(tmp_path, capsys):
    path = tmp_path / "ideal.txt"
    path.write_text(SIX_TEXT)
    code, out, _ = run(capsys, "decompose", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["labels"] == [
        {"d": 8, "c": [0, 0, 0]},
        {"d": 9, "c": [0, 0, 1]},
        {"d": 10, "c": [1, 1, 1]},
    ]


def test_generators(capsys):
    code, out, _ = run(
        capsys, "generators", "--label", "n=2 p=5 d=25 c=(0,1)"
    )
    assert code == 0
    assert out.splitlines()[0] == "ring n=2 p=5"
    assert "25 0" in out and "5 20" in out
    code, out, _ = run(
        capsys, "generators", "--label", "p=5 d=62102 c=(1,1,0,1,0,0)", "--factored"
    )
    assert code == 0
    assert out.strip() == "m^102 (m^21)^[125] (m^19)^[3125]"


def test_betti_formula(capsys):
    code, out, _ = run(
        capsys, "betti", "--label", "p=5 d=62102 c=(1,1,0,1,0,0)", "--json"
    )
    assert code == 0
    data = json.loads(out)
    entries = {tuple(e[:2]): e[2] for e in data["formula"]["entries"]}
    assert entries[(1, 62102)] == 45320
    assert entries[(2, 62103)] == 44880
    assert entries[(2, 62125)] == 420
    assert entries[(2, 62500)] == 19


@pytest.mark.parametrize("max_degree, entries", [
    (3, [[0, 0, 1]]),
    (25, [[0, 0, 1], [1, 25, 6]]),
    (30, [[0, 0, 1], [1, 25, 6], [2, 30, 5]]),
])
def test_betti_both_truncated(capsys, max_degree, entries):
    # the default (formula) route and --koszul truncate alike
    for route, flags in (("formula", ()), ("koszul", ("--koszul",))):
        code, out, err = run(
            capsys, "betti", "--label", "n=2 p=5 d=25 c=(0,1)", *flags,
            "--max-degree", str(max_degree), "--json",
        )
        assert code == 0 and err == ""
        assert json.loads(out) == {route: {"n": 2, "entries": entries}}


@pytest.mark.parametrize("command", ["betti", "reg"])
@pytest.mark.parametrize("flag", ["--formula", "--both"])
def test_betti_reg_route_flags_are_gone(capsys, command, flag):
    # the route follows from the input; --koszul is the only selector
    with pytest.raises(SystemExit) as exc:
        main([command, "--label", "n=2 p=5 d=25 c=(0,1)", flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_betti_negative_max_degree(capsys):
    code, out, err = run(
        capsys, "betti", "--label", "n=2 p=5 d=25 c=(0,1)", "--koszul",
        "--max-degree", "-5",
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--max-degree" in err


def test_betti_koszul_file(tmp_path, capsys):
    path = tmp_path / "quartic.txt"
    path.write_text(
        "ring n=3 p=3\n4 0 0\n3 1 0\n3 0 1\n1 3 0\n1 0 3\n0 4 0\n0 3 1\n0 1 3\n0 0 4\n"
    )
    code, out, _ = run(capsys, "betti", str(path), "--json")
    assert code == 0
    entries = {tuple(e[:2]): e[2] for e in json.loads(out)["koszul"]["entries"]}
    assert entries[(3, 9)] == 1 and entries[(1, 4)] == 9
    # a non-invariant ideal whose table runs far past n times its least
    # generator degree
    path.write_text("ring n=2 p=2\n10 0\n1 1\n0 10\n")
    code, out, _ = run(capsys, "betti", str(path))
    assert code == 0
    assert out.splitlines() == (
        ["       0 1 2", "total: 1 3 2", "    0: 1 . .", "    1: . 1 ."]
        + [f"    {r}: . . ." for r in range(2, 9)]
        + ["    9: . 2 2"]
    )


def test_reg(capsys):
    code, out, _ = run(
        capsys, "reg", "--label", "p=5 d=62102 c=(1,1,0,1,0,0)"
    )
    assert code == 0 and out.strip() == "62498"


def test_contains(capsys):
    code, out, _ = run(
        capsys, "contains", "-n", "2", "-p", "2",
        "--outer", "d=1 c=()", "--inner", "d=2 c=(1)",
    )
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run(
        capsys, "contains", "-n", "2", "-p", "2",
        "--outer", "d=8 c=(0,0,0)", "--inner", "d=10 c=(1,1,1)",
    )
    assert code == 0 and out.strip() == "no"


def test_invariant(tmp_path, capsys):
    path = tmp_path / "xy.txt"
    path.write_text("ring n=2 p=2\n1 1\n")
    code, out, _ = run(capsys, "invariant", str(path))
    assert code == 0
    assert out.startswith("NOT invariant; witness: degree 2")
    path.write_text("ring n=2 p=2\n2 0\n0 2\n")
    code, out, _ = run(capsys, "invariant", str(path))
    assert code == 0 and out.strip() == "invariant"


def test_purity(capsys):
    code, out, _ = run(capsys, "purity", "--label", "n=2 p=5 d=25 c=(0,1)")
    assert code == 0 and out.strip() == "pure: m=5 e=1"
    code, out, _ = run(capsys, "purity", "--label", "n=2 p=2 d=5 c=(0,0)")
    assert code == 0 and out.strip() == "not pure"


def test_purity_needs_input(capsys):
    code, out, err = run(capsys, "purity")
    assert code == 2 and out == ""
    assert err == "error: give a --label or an ideal file\n"


def test_torclass(capsys):
    code, out, _ = run(
        capsys, "torclass", "--label", "p=2 d=5 c=(0,0)", "-i", "2", "-j", "6"
    )
    assert code == 0 and out.strip() == "1*L(5,1)"
    code, out, _ = run(
        capsys, "torclass", "--label", "p=2 d=5 c=(0,0)", "-i", "2", "-j", "8"
    )
    assert code == 0 and out.strip() == "1*L(4,4)"
    # 45320 generators in six carry classes
    code, out, err = run(
        capsys, "torclass", "--label", "p=5 d=62102 c=(1,1,0,1,0,0)",
        "-i", "1", "-j", "62102",
    )
    assert code == 0 and err == ""
    assert out.strip() == (
        "1*L(62102,0) + 1*L(62099,3) + 1*L(62097,5) + 1*L(61852,250)"
        " + 1*L(61849,253) + 1*L(61847,255)"
    )


def test_error_exit_code(capsys):
    code, _, err = run(capsys, "generators", "--label", "p=5 d=25 c=(2,1)")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv, err",
    [
        (["generators", "--label", "n=3 p=3 d=9 c=(5,1)"],
         "error: (5, 1) is not a carry pattern for n=3 p=3 d=9\n"),
        (["contains", "-n", "2", "-p", "5", "--outer", "d=25 c=(5,1)",
          "--inner", "d=26 c=(0,1)"],
         "error: (5, 1) is not a carry pattern for n=2 p=5 d=25\n"),
    ],
)
def test_bad_pattern_message(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", err)


@pytest.mark.parametrize(
    "argv, err",
    [
        (["torclass", "-i", "1", "-j", "240"], "tor classes are computed for two variables only"),
        (["purity"], "purity test handles two-variable ideals only"),
        (["generators", "--factored"], "--factored is available for two variables only"),
        (["generators", "--factored", "--json"], "--factored is available for two variables only"),
    ],
)
def test_two_variable_only_refused_before_building(capsys, argv, err):
    # the carry ideal of this label takes seconds to build
    start = time.monotonic()
    result = run(capsys, *argv, "--label", "n=4 p=3 d=240 c=(2,2,2,2)")
    assert time.monotonic() - start < 0.5
    assert result == (2, "", f"error: {err}\n")



def test_unknown_argument_after_subcommand(capsys):
    # refused in the top-level parser's words, as when it parsed every call
    with pytest.raises(SystemExit) as exc:
        main(["carry", "-p", "3", "-b", "4,6", "--bogus", "x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: carryideals [-h]")
    assert err.endswith("carryideals: error: unrecognized arguments: --bogus x\n")


def test_calls_share_no_state(capsys):
    # main parses with one parser for the life of the process: a call sees
    # neither the labels of the call before it nor the wake of a failed one
    top = ("compose", "-n", "2", "-p", "2", "-l", "d=10 c=(1,1,1)")
    alone = ideal_to_text(carry_ideal((1, 1, 1), 10, 2, 2).generators, 2, 2)
    assert run(capsys, "compose", "-n", "2", "-p", "2", "-l", "d=8 c=(0,0,0)")[0] == 0
    assert run(capsys, *top) == (0, alone, "")
    with pytest.raises(SystemExit) as exc:
        main(["compose", "-n", "2", "-l", "d=8 c=(0,0,0)"])
    assert exc.value.code == 2
    assert "-p" in capsys.readouterr().err
    code, out, err = run(capsys, "compose", "-n", "2", "-p", "2", "-l", "d=4")
    assert code == 2 and out == "" and "c=" in err
    assert run(capsys, *top) == (0, alone, "")

@pytest.mark.parametrize(
    "argv",
    [
        ["betti"],
        ["reg"],
        ["reg", "--koszul"],
        ["generators"],
        ["purity"],
        ["torclass", "-i", "1", "-j", "0"],
    ],
)
def test_degree_zero_label(capsys, argv):
    # the unit ideal has no carry-ideal label, whichever route answers
    code, out, err = run(capsys, *argv, "--label", "p=2 d=0 c=()")
    assert code == 2 and out == ""
    assert err == "error: carry ideals are generated in positive degree\n"


@pytest.mark.parametrize(
    "text, field",
    [
        ("ring n=2\n1 1\n", "p="),
        ("ring p=3\n1 1\n", "n="),
        ("ring n=2 p=2 p=3\n1 1\n", "error: the ring header repeats the p= field\n"),
        ("ring n=2 n=2 p=2\n1 1\n", "error: the ring header repeats the n= field\n"),
    ],
)
def test_malformed_ideal_header(capsys, monkeypatch, text, field):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "decompose", "-")
    assert code == 2 and out == ""
    assert err.startswith("error:") and field in err


@pytest.mark.parametrize(
    "argv, field",
    [
        (["compose", "-n", "2", "-p", "3", "-l", "d=4"], "c="),
        (["compose", "-n", "2", "-p", "3", "-l", "c=(0)"], "d="),
        (["contains", "-n", "2", "-p", "2", "--outer", "d=1", "--inner", "d=2 c=(1)"], "c="),
        (["contains", "-n", "2", "-p", "2", "--outer", "d=1 c=()", "--inner", "c=(1)"], "d="),
        (["generators", "--label", "n=2 d=25 c=(0,1)"], "p="),
        (["generators", "--label", "n=2 p=5 d=25"], "c="),
        (["betti", "--label", "d=25 c=(0,1)"], "p="),
        (["betti", "--label", "p=5 d=25"], "c="),
        (["reg", "--label", "n=2 p=2 d=4 c=(0,)"], "(0,)"),
        (["reg", "--label", "n=2 p=2 d=4 c=(0,a)"], "(0,a)"),
        (["contains", "-n", "2", "-p", "5", "--outer", "n=3 p=7 d=25 c=(0,1)",
          "--inner", "d=26 c=(0,1)"], "n="),
        (["contains", "-n", "2", "-p", "5", "--outer", "d=25 c=(0,1)",
          "--inner", "p=7 d=26 c=(0,1)"], "p="),
        (["compose", "-n", "2", "-p", "3", "-l", "n=3 d=4 c=(0)"], "n="),
        (["compose", "-n", "2", "-p", "3", "-l", "p=5 d=4 c=(0)"], "p="),
        (["generators", "--label", "n=2 p=5 d=x c=(0,1)"],
         "label 'n=2 p=5 d=x c=(0,1)' has a non-integer d= field: 'x'"),
        (["contains", "-n", "2", "-p", "2", "--outer", "d=2x c=()",
          "--inner", "d=2 c=(1)"], "label 'd=2x c=()' has a non-integer d= field: '2x'"),
        (["torclass", "--label", "n=two p=5 d=4 c=(0)", "-i", "1", "-j", "4"],
         "non-integer n= field: 'two'"),
        (["compose", "-n", "2", "-p", "3", "-l", "p=3.0 d=4 c=(0)"],
         "label 'p=3.0 d=4 c=(0)' has a non-integer p= field: '3.0'"),
        (["generators", "--label", "n=2 p=5 d=25 c=(0,1) d=26"],
         "error: label 'n=2 p=5 d=25 c=(0,1) d=26' repeats the d= field\n"),
        (["betti", "--label", "p=5 p=5 d=25 c=(0,1)"],
         "error: label 'p=5 p=5 d=25 c=(0,1)' repeats the p= field\n"),
        (["compose", "-n", "2", "-p", "3", "-l", "d=4 c=(0) c=(1)"],
         "error: label 'd=4 c=(0) c=(1)' repeats the c= field\n"),
        (["contains", "-n", "2", "-p", "2", "--outer", "d=1 c=() d=2 c=(1)",
          "--inner", "d=2 c=(1)"],
         "error: label 'd=1 c=() d=2 c=(1)' repeats the d= field\n"),
        (["contains", "-n", "2", "-p", "2", "--outer", "d=1 c=()",
          "--inner", "n=2 n=3 d=2 c=(1)"],
         "error: label 'n=2 n=3 d=2 c=(1)' repeats the n= field\n"),
    ],
)
def test_malformed_label_argument(capsys, argv, field):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and field in err


@pytest.mark.parametrize(
    "text, field",
    [
        ("d=4 c=(0)\nd=5\n", "c="),
        ("d=4 c=(0)\nc=(0)\n", "d="),
        ("n=3 d=4 c=(0)\n", "n="),
        ("d=4 c=(0)\np=5 d=5 c=(0)\n", "p="),
        ("d=4 c=(0) d=5\n", "error: label 'd=4 c=(0) d=5' repeats the d= field\n"),
        ("d=4 c=(0)\np=3 d=5 c=(0) p=3\n",
         "error: label 'p=3 d=5 c=(0) p=3' repeats the p= field\n"),
    ],
)
def test_malformed_labels_file(tmp_path, capsys, text, field):
    path = tmp_path / "labels.txt"
    path.write_text(text)
    code, out, err = run(capsys, "compose", "-n", "2", "-p", "3", "--labels-file", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and field in err


def test_stdin_ideal(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(SIX_TEXT))
    code, out, _ = run(capsys, "decompose", "-")
    assert code == 0 and "d=10 c=(1,1,1)" in out


@pytest.mark.parametrize("line", ["1 x", "2 1.5", "3 -"])
def test_non_integer_generator_exponent(capsys, monkeypatch, line):
    monkeypatch.setattr("sys.stdin", io.StringIO(f"ring n=2 p=2\n2 0\n{line}\n"))
    bad = line.split()[1]
    assert run(capsys, "decompose", "-") == (
        2, "", f"error: generator line {line!r} has a non-integer exponent: {bad!r}\n"
    )


@pytest.mark.parametrize(
    "exponents, bad",
    [("", ""), ("1,,2", ""), ("4,x", "x"), ("4;6", "4;6")],
)
def test_non_integer_carry_exponent(capsys, exponents, bad):
    assert run(capsys, "carry", "-p", "3", "-b", exponents) == (
        2, "", f"error: -b {exponents!r} has a non-integer exponent: {bad!r}\n"
    )
