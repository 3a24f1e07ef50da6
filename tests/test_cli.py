import io
import json

import pytest

from carryideals.cli import main
from carryideals.ideals import carry_ideal, ideal_to_text

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
        capsys, "betti", "--label", "p=5 d=62102 c=(1,1,0,1,0,0)", "--formula",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    entries = {tuple(e[:2]): e[2] for e in data["formula"]["entries"]}
    assert entries[(1, 62102)] == 45320
    assert entries[(2, 62103)] == 44880
    assert entries[(2, 62125)] == 420
    assert entries[(2, 62500)] == 19


def test_betti_both_agree(capsys):
    code, out, _ = run(
        capsys, "betti", "--label", "p=3 d=30 c=(1,0,1)", "--both"
    )
    assert code == 0
    assert "[formula]" in out and "[koszul]" in out


@pytest.mark.parametrize("max_degree, entries", [
    (3, [[0, 0, 1]]),
    (25, [[0, 0, 1], [1, 25, 6]]),
    (30, [[0, 0, 1], [1, 25, 6], [2, 30, 5]]),
])
def test_betti_both_truncated(capsys, max_degree, entries):
    code, out, err = run(
        capsys, "betti", "--label", "n=2 p=5 d=25 c=(0,1)", "--both",
        "--max-degree", str(max_degree), "--json",
    )
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["formula"]["entries"] == entries
    assert data["koszul"]["entries"] == entries


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


def test_error_exit_code(capsys):
    code, _, err = run(capsys, "generators", "--label", "p=5 d=25 c=(2,1)")
    assert code == 2
    assert "error:" in err



def test_calls_share_no_state(capsys):
    # main parses with one parser for the life of the process: a call sees
    # neither the labels of the call before it nor the wake of a failed one
    top = ("compose", "-n", "2", "-p", "2", "-l", "d=10 c=(1,1,1)")
    alone = ideal_to_text(carry_ideal((1, 1, 1), 10, 2, 2))
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
    [("ring n=2\n1 1\n", "p="), ("ring p=3\n1 1\n", "n=")],
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
