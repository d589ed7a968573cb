"""CLI parsing, dispatch, exit codes, and report schema."""

import json
import re
import shlex
from pathlib import Path

import pytest

from wittmod import cli
from wittmod.cli import (
    COMMANDS, JobSpec, UsageError, main, parse_m, parse_p, parse_spec, run,
)
from wittmod.exactnum import Scalar


def spec_of(*argv):
    return parse_spec(list(argv))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_spec_basic():
    s = spec_of("irreducible", "--n", "2", "--P", "Apoly",
                "--M", "Sym(2)", "--window", "4")
    assert s == JobSpec("irreducible", 2, "plus", "Apoly", "Sym(2)", 4, 5)


def test_parse_spec_whittaker_params():
    s = spec_of("complex", "--n", "2", "--P", "Whittaker(l1,l2)",
                "--window", "5", "--json")
    assert s.mode == "plus" and s.window == 5 and s.as_json
    P = parse_p(s.p_expr, 2)
    assert [str(x) for x in P.params()] == ["l1", "l2"]


def test_parse_spec_defaults():
    s = spec_of("fingerprint")
    assert (s.n, s.mode, s.window, s.gen_bound) == (2, "plus", 4, 5)
    assert s.p_expr == "Apoly" and s.m_expr == "Triv(0)"


def test_window_env_override(monkeypatch):
    monkeypatch.setenv("WITTMOD_WINDOW", "3")
    s = spec_of("fingerprint")
    assert s.window == 3 and s.gen_bound == 4
    # explicit flag beats the environment
    s2 = spec_of("fingerprint", "--window", "2")
    assert s2.window == 2
    monkeypatch.setenv("WITTMOD_WINDOW", "x")
    with pytest.raises(UsageError, match="WITTMOD_WINDOW"):
        spec_of("fingerprint")


def test_parse_spec_builds_no_parser(monkeypatch):
    # one parser per process: parse_spec only reads it
    def rebuilt():
        raise AssertionError("parser rebuilt")

    monkeypatch.setattr(cli, "_build_parser", rebuilt)
    assert spec_of("fingerprint", "--window", "2").window == 2


def test_round_trip():
    for argv in (
        ["irreducible", "--n", "2", "--P", "TL(l1,l2)", "--M", "Ext(1)"],
        ["torsion", "--n", "3", "--P", "Tensor(Quot,TL(m),Apoly)",
         "--M", "Sym(2)*Triv(b)", "--window", "2", "--json"],
        ["verify-shen", "--mode", "laurent", "--gen-bound", "2"],
    ):
        s = parse_spec(argv)
        assert parse_spec(s.render()) == s


def test_mode_defaults_to_the_algebra_p_admits():
    assert spec_of("irreducible", "--P", "TL(l1,l2)").mode == "laurent"
    assert spec_of("irreducible", "--P", "Alaurent").mode == "laurent"
    assert spec_of("irreducible", "--P", "Quot").mode == "plus"
    assert spec_of("irreducible", "--P", "Tensor(Alaurent,Apoly)").mode == \
        "plus"


def test_explicit_plus_restricts_a_two_sided_p():
    def pairs(mode):
        rep, code = run(spec_of("verify-axioms", "--P", "Alaurent",
                                "--M", "Nat", "--mode", mode,
                                "--window", "1", "--gen-bound", "1"))
        assert code == 0 and rep.certified
        return int(re.search(r"(\d+) operator pairs", rep.details[0])
                   .group(1))
    assert pairs("plus") < pairs("laurent")
    # C[t] (x) M is a W_n^+-submodule of F(Alaurent, M): no saturation
    rep, code = run(spec_of("irreducible", "--P", "Alaurent", "--M", "Sym(2)",
                            "--mode", "plus", "--window", "2",
                            "--gen-bound", "2"))
    assert code == 1 and not rep.certified
    assert any("generated only 18 of 39" in d for d in rep.details)


def test_parse_m_kinds():
    assert parse_m("Nat", 2).dim == 2
    assert parse_m("Ext(2)", 2).dim == 1
    assert parse_m("Sym(2)", 2).dim == 3
    assert parse_m("Triv(b)", 2).dim == 1
    assert parse_m("Sym(2)*Triv(1)", 2).dim == 3
    assert parse_m("Nat*Nat", 2).dim == 4


def test_parse_p_kinds():
    assert parse_p("Apoly", 2).kind == "Apoly"
    assert parse_p("Alaurent", 3).n == 3
    assert parse_p("Quot", 2).mode == "plus"
    assert parse_p("TL(l1,1/2)", 2).is_weight
    assert not parse_p("Whittaker(3,w)", 2).is_weight
    mixed = parse_p("Tensor(TL(m),Quot)", 2)
    assert mixed.n == 2 and [str(x) for x in mixed.params()] == ["m"]


def test_parse_errors_name_offender():
    with pytest.raises(UsageError, match=r"Ext\(5\) invalid for n=2"):
        parse_m("Ext(5)", 2)
    with pytest.raises(UsageError, match="unknown M kind"):
        parse_m("Spin(2)", 2)
    with pytest.raises(UsageError, match="unknown P kind"):
        parse_p("Bpoly", 2)
    with pytest.raises(UsageError, match="exactly 2 parameters"):
        parse_p("TL(l1)", 2)
    with pytest.raises(UsageError, match="unknown rank-1 factor"):
        parse_p("Tensor(Apoly,Sym(1))", 2)
    with pytest.raises(UsageError, match="numeric literal"):
        parse_m("Triv(1.5)", 2)
    with pytest.raises(UsageError, match="integer"):
        parse_p("TL(1,2)", 2)  # integral twist rejected by the module
    with pytest.raises(UsageError, match="unbalanced"):
        parse_p("TL(l1,l2", 2)
    with pytest.raises(UsageError):
        spec_of("irreducible", "--n", "1")
    with pytest.raises(UsageError):
        spec_of("irreducible", "--window", "0")
    with pytest.raises(UsageError, match="mode laurent invalid"):
        spec_of("verify-axioms", "--mode", "laurent", "--P", "Whittaker(1,2)")


def test_command_is_required_and_checked():
    for argv in ([], ["--json"]):
        with pytest.raises(UsageError, match="required: COMMAND"):
            parse_spec(argv)
    with pytest.raises(UsageError, match="invalid choice: 'bogus'"):
        spec_of("bogus")


def test_help_lists_commands_and_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for word in COMMANDS + ("--n", "--mode", "--P", "--M", "--window",
                            "--gen-bound", "--json"):
        assert word in out


def test_every_command_takes_every_flag():
    flags = ["--n", "3", "--mode", "laurent", "--P", "Alaurent",
             "--M", "Ext(1)", "--window", "2", "--gen-bound", "3", "--json"]
    for name in COMMANDS:
        assert spec_of(name, *flags) == \
            JobSpec(name, 3, "laurent", "Alaurent", "Ext(1)", 2, 3, True)


def test_flags_may_precede_the_command():
    after = spec_of("irreducible", "--n", "3", "--P", "Apoly",
                    "--M", "Ext(1)", "--window", "2")
    assert spec_of("--n", "3", "--P", "Apoly", "--M", "Ext(1)",
                   "--window", "2", "irreducible") == after
    assert spec_of("--n", "3", "irreducible", "--P", "Apoly",
                   "--M", "Ext(1)", "--window", "2") == after


@pytest.mark.parametrize("parse, expr, message", [
    (parse_p, "TL(l1,)", "empty argument in 'TL(l1,)'"),
    (parse_p, "Tensor()", "empty argument in 'Tensor()'"),
    (parse_p, "TL(l1,l2))", "unbalanced parentheses in 'TL(l1,l2))'"),
    (parse_m, "Sym(2)Nat", "unbalanced parentheses in 'Sym(2)Nat'"),
    (parse_m, "Nat*", "malformed tensor expression 'Nat*'"),
    (parse_m, "Nat**Nat", "malformed tensor expression 'Nat**Nat'"),
])
def test_splitter_messages(parse, expr, message):
    with pytest.raises(UsageError) as exc:
        parse(expr, 2)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# dispatch and reports
# ---------------------------------------------------------------------------

def test_run_verify_shen():
    rep, code = run(spec_of("verify-shen", "--gen-bound", "2"))
    assert code == 0 and rep.certified
    assert any("pairs checked" in d for d in rep.details)


def test_run_irreducible_witness():
    rep, code = run(spec_of("irreducible", "--P", "Apoly", "--M", "Ext(1)",
                            "--window", "3"))
    assert code == 0 and rep.certified and rep.verdict == "reducible"
    assert any("dimension" in d for d in rep.details)


def test_run_irreducible_skip_exits_zero():
    rep, code = run(spec_of("irreducible", "--P", "Apoly", "--M", "Nat*Nat",
                            "--window", "2"))
    assert code == 0 and not rep.certified and rep.verdict == "skipped"


def test_run_complex_table():
    rep, code = run(spec_of("complex", "--P", "Apoly", "--window", "4"))
    assert code == 0
    assert "r=0, level 0: dim 1" in rep.details
    assert all(d.endswith("dim 0") for d in rep.details
               if d.startswith("r=") and not d.endswith("level 0: dim 1"))


def test_run_support_rejects_nonweight():
    with pytest.raises(UsageError, match="not a weight module"):
        run(spec_of("support", "--P", "Whittaker(1,2)", "--window", "2"))


def test_json_schema_and_determinism(capsys):
    argv = ["fingerprint", "--n", "2", "--P", "Apoly", "--M", "Sym(2)",
            "--window", "3", "--json"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["command", "n", "mode", "P", "M", "window",
                         "genBound", "verdict", "certified", "details",
                         "elapsedMs"]
    assert doc["command"] == "fingerprint" and doc["certified"] is True
    rep1, _ = run(parse_spec(argv))
    rep2, _ = run(parse_spec(argv))
    d1, d2 = rep1.as_dict(), rep2.as_dict()
    d1.pop("elapsedMs"), d2.pop("elapsedMs")
    assert d1 == d2


@pytest.mark.parametrize("argv, m_expr", [
    (["verify-shen", "--gen-bound", "1"], "Ext(5)"),
    (["complex", "--window", "2"], "Spin(2)"),
])
def test_commands_that_ignore_m_accept_any_m(capsys, argv, m_expr):
    # verify-shen and complex never read M, so a bad --M must not stop them
    reports = []
    for extra in ([], ["--M", m_expr]):
        assert main(argv + extra + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        doc.pop("elapsedMs")
        reports.append(doc)
    assert reports[1].pop("M") == m_expr
    reports[0].pop("M")
    assert reports[0] == reports[1]


def test_complex_without_computed_pieces_is_not_certified(capsys):
    # at D = 2 every multidegree piece of Alaurent(3) touches the window
    # edge, so the table is empty and "vanishes" would rest on nothing
    rep, code = run(spec_of("complex", "--n", "3", "--P", "Alaurent",
                            "--window", "2"))
    assert code == 1 and not rep.certified
    assert rep.verdict == "not certified"
    assert rep.details == [
        "80 graded pieces excluded at the window edge",
        "'homology vanishes on the window' rests on 0 computed homology"
        " pieces, so it certifies nothing"]
    assert main(["complex", "--n", "3", "--P", "Alaurent",
                 "--window", "2"]) == 1
    assert "[certified]" not in capsys.readouterr().out
    # one level further the same complex has computed, nonzero pieces
    rep, code = run(spec_of("complex", "--n", "3", "--P", "Alaurent",
                            "--window", "3"))
    assert code == 0 and rep.certified
    assert rep.verdict == "nonzero homology at 4 positions"


def test_verify_axioms_without_cases_is_not_certified(capsys):
    # the lowest cell of Quot(2) has level 2, so at D = 1 neither suite
    # checks a case, and "axioms hold" would rest on nothing
    argv = ["verify-axioms", "--P", "Quot", "--M", "Nat", "--window", "1",
            "--gen-bound", "1"]
    rep, code = run(parse_spec(argv))
    assert code == 1 and not rep.certified
    assert rep.verdict == "not certified"
    assert rep.details == [
        "action axiom on F(Quot, Nat): 0 operator pairs checked",
        "chain maps over Quot: 0 intertwining and composite checks",
        "'module axioms hold on the window' rests on 0 operator pairs and"
        " 0 chain-map checks, so it certifies nothing"]
    assert main(argv) == 1
    assert "[certified]" not in capsys.readouterr().out
    # one level further both suites check cases and certify
    rep, code = run(parse_spec(argv[:-3] + ["2", "--gen-bound", "1"]))
    assert code == 0 and rep.certified


def test_torsion_on_an_empty_window_is_not_certified(capsys):
    # no cell to sample: no traceback, and no verdict on 0 inputs
    argv = ["torsion", "--P", "Quot", "--M", "Nat", "--window", "1",
            "--gen-bound", "1"]
    rep, code = run(parse_spec(argv))
    assert code == 1 and not rep.certified
    assert rep.verdict == "not certified"
    assert rep.details == [
        "0 randomized inputs on F(Quot, Nat), exponents bounded by 1",
        "interpolated operator matches its closed form in every case",
        "'torsion identity holds on all samples' rests on 0 inputs, so it"
        " certifies nothing"]
    assert main(argv) == 1
    assert "[certified]" not in capsys.readouterr().out


def test_support_on_an_empty_window_is_not_certified(capsys):
    # the lowest cell of Quot(2) has level 2: no weight to report at D = 1
    argv = ["support", "--P", "Quot", "--window", "1"]
    rep, code = run(parse_spec(argv))
    assert code == 1 and not rep.certified
    assert rep.verdict == "not certified"
    assert rep.details == [
        "'0 distinct weights on the window' rests on 0 distinct weights, so"
        " it certifies nothing"]
    assert main(argv) == 1
    assert "[certified]" not in capsys.readouterr().out


def test_fingerprint_on_an_empty_window_is_not_certified(capsys):
    argv = ["fingerprint", "--P", "Quot", "--M", "Nat", "--window", "1"]
    rep, code = run(parse_spec(argv))
    assert code == 1 and not rep.certified
    assert rep.verdict == "not certified"
    assert rep.details == [
        "kind: weight",
        "'fingerprint with 0 entries' rests on 0 window cells, so it"
        " certifies nothing"]
    assert main(argv) == 1
    assert "[certified]" not in capsys.readouterr().out


def test_verify_shen_reads_no_p(capsys):
    # verify-shen works in the operator algebra alone: any --P is accepted
    # and left unbuilt, and the mode defaults to plus whatever P is
    reports = []
    for extra in ([], ["--P", "Spin"], ["--P", "Alaurent"]):
        argv = ["verify-shen", "--gen-bound", "1", "--json"] + extra
        assert parse_spec(argv).mode == "plus"
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        doc.pop("elapsedMs")
        doc.pop("P")
        reports.append(doc)
    assert reports[0] == reports[1] == reports[2]
    assert reports[0]["mode"] == "plus" and reports[0]["certified"]
    assert spec_of("verify-shen", "--P", "Spin", "--mode",
                   "laurent").mode == "laurent"


def test_main_exit_codes(capsys):
    assert main(["irreducible", "--P", "Apoly", "--M", "Ext(5)"]) == 2
    assert "Ext(5) invalid for n=2" in capsys.readouterr().err
    assert main(["complex", "--window", "1"]) == 2
    capsys.readouterr()
    assert main(["torsion", "--P", "Quot", "--M", "Ext(1)",
                 "--window", "2", "--gen-bound", "2"]) == 0
    out = capsys.readouterr().out
    assert "torsion identity holds" in out and "[certified]" in out


def test_text_rendering(capsys):
    assert main(["support", "--P", "TL(l1,l2)", "--window", "1"]) == 0
    out = capsys.readouterr().out
    assert "command:   support" in out
    assert "(l1 + 1, l2)" in out
    assert out.count("- (") == 5


def test_readme_irreducible_example(capsys):
    # the README's text-report block must be main()'s output, elapsed aside
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    cmd = '$ wittmod irreducible --n 2 --P Apoly --M "Ext(1)" --window 3'
    block = readme.split(cmd + "\n", 1)[1].split("```", 1)[0]
    assert main(shlex.split(cmd)[2:]) == 0
    out = capsys.readouterr().out

    def body(text):
        return [line for line in text.splitlines()
                if not line.startswith("elapsed:")]
    assert body(out) == body(block)


def test_readme_cli_examples(capsys):
    # every line of README's command-line block runs and certifies its
    # verdict, and every command has a line
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command-line interface", 1)[1]
    lines = block.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    shown = set()
    for line in lines:
        argv = shlex.split(line.split("#", 1)[0])
        assert argv[0] == "wittmod"
        assert main(argv[1:]) == 0, line
        assert "[certified]" in capsys.readouterr().out, line
        shown.add(argv[1])
    assert shown == set(COMMANDS)


def test_readme_quick_start():
    # each call in README's library quick start prints, as its repr, the
    # comment under it
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1]
    lines = block.split("```python\n", 1)[1].split("```", 1)[0].splitlines()
    env = {}
    checked = 0
    for line, below in zip(lines, lines[1:] + [""]):
        if not line or line.startswith("#"):
            continue
        shown = re.match(r"# (\{.*?\})\s", below)
        if shown is None:
            exec(line, env)
            continue
        assert repr(eval(line, env)) == shown.group(1), line
        checked += 1
    assert checked == 2
