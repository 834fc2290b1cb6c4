import json
import os
import shlex
import subprocess
import sys

import pytest

import gradedlie as gl
from gradedlie.algfile import (AlgebraFileError, ValidationFailure,
                               load_algebra, parse_algebra, parse_word)
from gradedlie.cli import main

from conftest import FIXTURES

GOLDEN = FIXTURES / "golden"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- algebra files -----------------------------------------------------------------

def test_fixture_files_parse(all_algebras):
    assert all_algebras["sl2"].n == 3
    assert all_algebras["c2c2_abelian"].names == ("x", "y")


def test_empty_algebra_is_valid():
    alg = parse_algebra(FIXTURES / "empty.alg")
    assert alg.n == 0
    assert gl.validate(alg).passed


def test_missing_file_raises():
    with pytest.raises(AlgebraFileError, match="not found"):
        load_algebra(FIXTURES / "nope.alg")


def test_bad_json_reports_line(tmp_path):
    p = tmp_path / "bad.alg"
    p.write_text('{"group": \n!')
    with pytest.raises(AlgebraFileError, match="line 2"):
        load_algebra(p)


def test_missing_key_reported(tmp_path):
    p = tmp_path / "k.alg"
    p.write_text(json.dumps({"group": {"kind": "free", "rank": 1}}))
    with pytest.raises(AlgebraFileError, match="missing key 'basis'"):
        load_algebra(p)


def test_bad_coefficient_located(tmp_path):
    p = tmp_path / "c.alg"
    p.write_text(json.dumps({
        "group": {"kind": "free_abelian", "rank": 1},
        "basis": [{"name": "x", "degree": [0]}, {"name": "y", "degree": [0]}],
        "brackets": [{"i": 0, "j": 1, "terms": [{"k": 0, "coeff": "1/0"}]}],
    }))
    with pytest.raises(AlgebraFileError, match=r"brackets\[0\].terms\[0\]"):
        load_algebra(p)


def test_duplicate_pair_rejected(tmp_path):
    p = tmp_path / "d.alg"
    p.write_text(json.dumps({
        "group": {"kind": "free_abelian", "rank": 1},
        "basis": [{"name": "x", "degree": [0]}, {"name": "y", "degree": [0]}],
        "brackets": [{"i": 0, "j": 1, "terms": []},
                     {"i": 0, "j": 1, "terms": []}],
    }))
    with pytest.raises(AlgebraFileError, match="duplicate pair"):
        load_algebra(p)


def bad_grading_file(tmp_path):
    p = tmp_path / "badgrading.alg"
    p.write_text(json.dumps({
        "group": {"kind": "free_abelian", "rank": 1},
        "basis": [{"name": "e", "degree": [1]}, {"name": "h", "degree": [0]},
                  {"name": "f", "degree": [-2]}],
        "brackets": [{"i": 0, "j": 1, "terms": [{"k": 0, "coeff": "-2"}]},
                     {"i": 0, "j": 2, "terms": [{"k": 1, "coeff": "1"}]},
                     {"i": 1, "j": 2, "terms": [{"k": 2, "coeff": "-2"}]}],
    }))
    return p


def test_validation_failure_carries_report(tmp_path):
    with pytest.raises(ValidationFailure) as exc:
        parse_algebra(bad_grading_file(tmp_path))
    assert not exc.value.report.passed
    assert any(c.name == "grading" and not c.passed
               for c in exc.value.report.checks)


def _sl2_edited(edit):
    data = json.loads((FIXTURES / "sl2.alg").read_text())
    edit(data)
    return data


MALFORMED_FILES = [
    pytest.param("validate", "--algebra",
                 _sl2_edited(lambda d: d["brackets"][0]["terms"][0].update(k="x")),
                 "brackets[0].terms[0]", id="term-k-string"),
    pytest.param("validate", "--algebra",
                 _sl2_edited(lambda d: d["brackets"][0].update(i="zero")),
                 "brackets[0]", id="bracket-i-string"),
    pytest.param("validate", "--algebra",
                 _sl2_edited(lambda d: d["brackets"][0].update(terms=5)),
                 "brackets[0].terms", id="terms-not-a-list"),
    pytest.param("validate", "--algebra",
                 _sl2_edited(lambda d: d["brackets"][0].update(terms=[7])),
                 "brackets[0].terms[0]", id="term-not-an-object"),
    pytest.param("validate", "--algebra",
                 _sl2_edited(lambda d: d["group"].update(rank="x")),
                 "group block", id="group-rank-string"),
    pytest.param("graded-span-check", "--mats", {"mats": [5]},
                 "mats[0]", id="mats-entry-not-an-object"),
    pytest.param("coarsen-check", "--relabel",
                 {"group": {"kind": "free_abelian", "rank": 1}, "map": [5]},
                 "map[0]", id="map-entry-not-an-object"),
    pytest.param("coarsen-check", "--relabel",
                 {"group": {"kind": "finite", "table": [[0, 1], [1, 0]],
                            "names": ["even", "odd"]},
                  "map": [{"from": "[1]", "to": "odd"}, {"from": [1], "to": "even"}]},
                 "map[1]: duplicate fine degree [1]", id="map-duplicate-fine-degree"),
    pytest.param("graded-span-check", "--mats",
                 {"mats": [{"label": {"x": 1}, "degree": [0], "rows": [[0] * 3] * 3}]},
                 "mats[0].label must be a string", id="mats-label-not-a-string"),
    pytest.param("coarsen-check", "--relabel",
                 {"group": {"kind": "finite", "table": [[0, 1], [1, 0]],
                            "names": ["even", "odd"]},
                  "map": [{"from": [1], "to": "odd"}, {"from": [0], "to": "even"},
                          {"from": [-1], "to": "odd"}, {"from": [7], "to": "even"}]},
                 "map[3]: fine degree [7] is not a degree of the algebra",
                 id="map-fine-degree-outside-support"),
    pytest.param("graded-span-check", "--mats",
                 {"mats": [{"degree": [0], "rows": [[0] * 3] * 3},
                           {"label": "m0", "degree": [0], "rows": [[0] * 3] * 3}]},
                 "mats[1].label 'm0' repeats mats[0]", id="mats-label-repeated"),
]


@pytest.mark.parametrize("command, flag, content, location", MALFORMED_FILES)
def test_cli_malformed_file_exits_2_with_location(tmp_path, command, flag,
                                                  content, location):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    argv = [command, "--algebra", str(bad if flag == "--algebra" else FIXTURES / "sl2.alg")]
    if flag != "--algebra":
        argv += [flag, str(bad)]
    src = str(FIXTURES.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "gradedlie.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert location in proc.stderr
    assert "Traceback" not in proc.stderr


def _sl2_with_group(group):
    return _sl2_edited(lambda d: d.update(group=group))


MALFORMED_GROUPS_AND_ROWS = [
    pytest.param("validate", "--algebra",
                 _sl2_with_group({"kind": "free_product_cyclic", "orders": ["x"]}),
                 "group.orders[0] must be an integer, got 'x'", id="orders-entry-string"),
    pytest.param("validate", "--algebra",
                 _sl2_with_group({"kind": "finite", "table": [[0, 1], [1, "a"]]}),
                 "group.table[1][1] must be an integer, got 'a'", id="table-entry-string"),
    pytest.param("validate", "--algebra",
                 _sl2_with_group({"kind": "finite", "table": [[0, 1], [1, 0]], "names": 5}),
                 "group.names must be a list, got 5", id="names-not-a-list"),
    pytest.param("graded-span-check", "--mats", {"mats": [{"degree": [0], "rows": 5}]},
                 "mats[0].rows must be a list, got 5", id="rows-not-a-list"),
    pytest.param("graded-span-check", "--mats",
                 {"mats": [{"degree": [0], "rows": [[0, 0, 0], 7, [0, 0, 0]]}]},
                 "mats[0].rows[1] must be a list, got 7", id="row-not-a-list"),
]


@pytest.mark.parametrize("command, flag, content, location", MALFORMED_GROUPS_AND_ROWS)
def test_cli_malformed_group_or_rows_exits_2_with_location(tmp_path, command, flag,
                                                           content, location):
    test_cli_malformed_file_exits_2_with_location(tmp_path, command, flag, content, location)


MALFORMED_BASIS = [
    pytest.param("validate", "--algebra",
                 _sl2_edited(lambda d: d["basis"][0].update(degree=[2.5])),
                 "basis[0]: bad free_abelian element literal", id="degree-float"),
    pytest.param("validate", "--algebra",
                 _sl2_edited(lambda d: d["basis"][0].update(degree=[True])),
                 "basis[0]: bad free_abelian element literal", id="degree-bool"),
    pytest.param("validate", "--algebra",
                 _sl2_edited(lambda d: d["basis"][0].update(name=None)),
                 "basis[0].name must be a string, got None", id="name-null"),
]


@pytest.mark.parametrize("command, flag, content, location", MALFORMED_BASIS)
def test_cli_malformed_basis_exits_2_with_location(tmp_path, command, flag, content, location):
    test_cli_malformed_file_exits_2_with_location(tmp_path, command, flag, content, location)



def _sl2_graded_by(group, degrees):
    def edit(data):
        data["group"] = group
        for entry, degree in zip(data["basis"], degrees):
            entry["degree"] = degree
    return _sl2_edited(edit)


MALFORMED_STRING_INTEGERS = [
    pytest.param("validate", "--algebra",
                 _sl2_graded_by({"kind": "free", "rank": 1}, ["a^1_0", "1", "a^-1"]),
                 "basis[0]: bad free element literal", id="free-exponent-underscore"),
    pytest.param("validate", "--algebra",
                 _sl2_graded_by({"kind": "finite", "table": [[0, 1], [1, 0]]},
                                ["0_1", "0", "1"]),
                 "basis[0]: bad finite element literal", id="finite-index-underscore"),
]


@pytest.mark.parametrize("command, flag, content, location", MALFORMED_STRING_INTEGERS)
def test_cli_string_integers_exit_2_with_location(tmp_path, command, flag, content, location):
    test_cli_malformed_file_exits_2_with_location(tmp_path, command, flag, content, location)


MALFORMED_NAMES = [
    pytest.param("validate", "--algebra", _sl2_edited(lambda d: d["basis"][0].update(name=name)),
                 "basis[0].name must be non-empty, without whitespace", id=ident)
    for ident, name in (("empty", ""), ("space", "e f"), ("tab", "e\t"),
                        ("leading-bracket", "[e"))
]


@pytest.mark.parametrize("command, flag, content, location", MALFORMED_NAMES)
def test_cli_basis_names_render_words_unambiguously(tmp_path, command, flag, content,
                                                    location):
    test_cli_malformed_file_exits_2_with_location(tmp_path, command, flag, content, location)

def test_parse_word_forms(sl2):
    assert parse_word(sl2, "[2,0,1]") == (2, 0, 1)
    assert parse_word(sl2, "f h e") == (2, 1, 0)
    assert parse_word(sl2, "") == ()
    with pytest.raises(AlgebraFileError, match="unknown basis name"):
        parse_word(sl2, "f q")
    with pytest.raises(AlgebraFileError, match="out of range"):
        parse_word(sl2, "[7]")


# -- CLI behavior ------------------------------------------------------------------

def test_cli_normalize_golden_line(capsys):
    code, out, _ = run(["normalize", "--algebra", str(FIXTURES / "sl2.alg"),
                        "--word", "f e"], capsys)
    assert code == 0
    assert "1 * e f + -1 * h" in out.splitlines()


def test_cli_mul_zero(capsys):
    code, out, _ = run(["mul", "--algebra", str(FIXTURES / "c2c2_abelian.alg"),
                        "--word", "x", "--word", "y"], capsys)
    assert code == 0
    assert "0" in out.splitlines()


def test_cli_normalize_wrong_word_count(capsys):
    code, _, err = run(["normalize", "--algebra", str(FIXTURES / "sl2.alg"),
                        "--word", "e", "--word", "f"], capsys)
    assert code == 2
    assert "exactly one" in err


@pytest.mark.parametrize("word", ["[0.5, 1]", "[true]"])
def test_cli_word_index_list_takes_integers_only(word, capsys):
    code, out, err = run(["normalize", "--algebra", str(FIXTURES / "sl2.alg"),
                          "--word", word], capsys)
    assert code == 2
    assert f"<word>: bad index list {word!r}" in err
    assert out == ""


@pytest.mark.parametrize("text", ["0_2", "+2", " 2", "2 ", "\u0662"])
def test_cli_max_len_takes_strict_integers(text, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pbw-basis", "--algebra", str(FIXTURES / "c2c2_abelian.alg"),
              "--max-len", text])
    assert exc.value.code == 2
    assert f"argument --max-len: expected an integer, got {text!r}" in capsys.readouterr().err


def test_cli_negative_max_len_is_a_range_error(capsys):
    code, out, err = run(["pbw-basis", "--algebra", str(FIXTURES / "c2c2_abelian.alg"),
                          "--max-len", "-1"], capsys)
    assert code == 2
    assert "max_len must be >= 0" in err and out == ""


def test_cli_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_missing_file_exits_2(capsys):
    code, _, err = run(["validate", "--algebra", "does_not_exist.alg"], capsys)
    assert code == 2
    assert "not found" in err


def test_cli_validate_bad_algebra_exits_1(tmp_path, capsys):
    code, out, _ = run(["validate", "--algebra", str(bad_grading_file(tmp_path))],
                       capsys)
    assert code == 1
    assert "check grading: FAIL" in out
    assert "witness" in out


def test_cli_other_commands_abort_on_invalid_algebra(tmp_path, capsys):
    code, _, err = run(["pbw-basis", "--algebra", str(bad_grading_file(tmp_path)),
                        "--max-len", "2"], capsys)
    assert code == 1
    assert "fails validation" in err


def test_cli_text_output_is_deterministic(capsys):
    args = ["witt-check", "--algebra", str(FIXTURES / "c2c2_abelian.alg"),
            "--max-len", "5"]
    _, first, _ = run(args, capsys)
    _, second, _ = run(args, capsys)
    assert first == second


def test_cli_machine_format_is_json_lines(capsys):
    code, out, _ = run(["witt-check", "--algebra", str(FIXTURES / "trivial2.alg"),
                        "--max-len", "3", "--format", "machine"], capsys)
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records[0]["record"] == "meta"
    assert records[0]["command"] == "witt-check"
    witt = [r for r in records if r["record"] == "witt"]
    assert {"length", "lyndon_count", "pbw_rank", "monomial_dim", "pass"} <= set(witt[0])
    summary = records[-1]
    assert summary["record"] == "summary" and summary["pass"] is True
    assert "elapsed_s" in summary


def test_cli_graded_span_check_exit_codes(capsys):
    code, out, _ = run(["graded-span-check",
                        "--algebra", str(FIXTURES / "free3_abelian.alg"),
                        "--mats", str(FIXTURES / "mats_free3_all9.json")], capsys)
    assert code == 1
    assert "witness (e12, e23)" in out
    code, _, _ = run(["graded-span-check",
                      "--algebra", str(FIXTURES / "free3_abelian.alg"),
                      "--mats", str(FIXTURES / "mats_free3_sub4.json")], capsys)
    assert code == 0


def test_cli_graded_span_check_defaults_to_inner_derivations(capsys):
    code, out, _ = run(["graded-span-check",
                        "--algebra", str(FIXTURES / "sl2.alg")], capsys)
    assert code == 0
    assert "(3 matrices)" in out


def test_cli_coarsen_check(capsys):
    code, out, _ = run(["coarsen-check", "--algebra", str(FIXTURES / "sl2.alg"),
                        "--relabel", str(FIXTURES / "relabel_sl2_parity.json")],
                       capsys)
    assert code == 0
    assert "p([1]) = odd" in out
    code, out, _ = run(["coarsen-check", "--algebra", str(FIXTURES / "sl2.alg"),
                        "--relabel", str(FIXTURES / "relabel_sl2_bad.json")],
                       capsys)
    assert code == 1
    assert "witness (e,f)" in out


def test_cli_is_abelian(capsys):
    code, out, _ = run(["is-abelian",
                        "--algebra", str(FIXTURES / "c2c2_abelian.alg")], capsys)
    assert code == 0
    assert "abelian: true" in out


def test_cli_empty_algebra_ok(capsys):
    code, out, _ = run(["pbw-basis", "--algebra", str(FIXTURES / "empty.alg"),
                        "--max-len", "3"], capsys)
    assert code == 0
    assert "count: 1" in out  # just the unit


# -- golden corpus ------------------------------------------------------------------

GOLDEN_FILES = sorted(GOLDEN.glob("*.txt")) if GOLDEN.exists() else []


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=lambda p: p.stem)
def test_golden_outputs(path, capsys, monkeypatch):
    monkeypatch.chdir(FIXTURES.parent)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("$ ")
    assert lines[1].startswith("# exit: ")
    argv = shlex.split(lines[0][2:])
    want_code = int(lines[1].split(":")[1])
    want_out = "\n".join(lines[2:]) + "\n"
    code, out, _ = run(argv, capsys)
    assert code == want_code
    assert out == want_out


def test_golden_corpus_is_present():
    assert len(GOLDEN_FILES) >= 8


GOLDEN_MACHINE = FIXTURES / "golden_machine"


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=lambda p: p.stem)
def test_golden_machine_records(path, capsys, monkeypatch):
    """Machine output is the CLI's API: each golden command's records, with
    the timing left out, match the pinned file in kind, keys, values and order."""
    monkeypatch.chdir(FIXTURES.parent)
    lines = path.read_text().splitlines()
    argv = shlex.split(lines[0][2:]) + ["--format", "machine"]
    code, out, _ = run(argv, capsys)
    records = [json.loads(line) for line in out.splitlines()]
    assert "elapsed_s" in records[-1]
    del records[-1]["elapsed_s"]
    pinned = (GOLDEN_MACHINE / f"{path.stem}.jsonl").read_text().splitlines()
    assert code == int(lines[1].split(":")[1])
    assert records == [json.loads(line) for line in pinned]
