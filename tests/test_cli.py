import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pts_kernel import cli, display
from pts_kernel.cli import main, run_program
from pts_kernel.corpus import BUNDLE_IDS

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_check_corpus_files_exit_zero(capsys):
    for path in sorted(CORPUS.glob("*.pts")):
        assert main(["check", str(path)]) == 0, capsys.readouterr().out


def test_check_corpus_bytes_match_golden(capsys):
    # sha256 of `pts check` stdout per corpus file, plain and --raw
    got = []
    for path in sorted(CORPUS.glob("*.pts")):
        for flags in ([], ["--raw"]):
            assert main(["check", str(path)] + flags) == 0
            digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
            got.append(f"{digest}  {' '.join([path.name] + flags)}\n")
    assert "".join(got) == (GOLDEN / "check-corpus.sha256").read_text(encoding="utf-8")


def test_check_binder_fixture_matches_golden_bytes(capsys):
    # Every binder form, folded and displayed back as the printer spells it.
    assert main(["check", str(GOLDEN / "binders.pts")]) == 0
    assert capsys.readouterr().out == (GOLDEN / "binders.txt").read_text(encoding="utf-8")


def test_check_lines_fold_only_names_defined_before_them(tmp_path, capsys):
    # Each line folds against its own directive's environment, although the
    # later definitions share one entry table with it and the failing last
    # check folds its message against all of them before any line is read.
    src = tmp_path / "later.pts"
    src.write_text(
        "system lambda-hol.\nconst A : *.\nconst B : *.\nconst f : A -> A.\nconst a : A.\n"
        "check f (f a) : A.\ndef b : A := f a.\ncheck f (f a) : A.\n"
        "def c : A := f b.\ncheck f (f a) : A.\ncheck f (f a) : B.\n",
        encoding="utf-8",
    )
    assert main(["check", str(src)]) == 1
    assert capsys.readouterr().out == (
        "ok    system lambda-hol\n"
        "ok    const A : *\n"
        "ok    const B : *\n"
        "ok    const f : A -> A\n"
        "ok    const a : A\n"
        "ok    check f (f a) : A\n"
        "ok    def b : A\n"
        "ok    check f b : A\n"
        "ok    def c : A\n"
        "ok    check c : A\n"
        "FAIL  check : DomainMismatch: expected B, found A for c\n"
    )


def test_eof_after_a_last_comment_is_at_the_end_of_the_line(tmp_path, capsys):
    src = tmp_path / "nop.pts"
    src.write_text("const A : *.\ncheck A -- no period", encoding="utf-8")
    assert main(["check", str(src)]) == 1
    assert capsys.readouterr().out.endswith("parse error: 2:21: expected ':', found 'eof'\n")


def test_file_target_load_renders_nothing(tmp_path, monkeypatch, capsys):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    # Every display function and every trace printer goes through _Printer.render.
    real = display._Printer.render
    monkeypatch.setattr(display._Printer, "render", counting)
    f = tmp_path / "dev.pts"
    f.write_text(
        (CORPUS / "refined-axiomatic.pts").read_text(encoding="utf-8") + "trace (l₀ p₀ l₂ l₁) 3.\n",
        encoding="utf-8",
    )
    assert main(["loop", str(f), "x₀", "--bound", "5"]) == 0
    assert capsys.readouterr().out == "found=false no repetition (bound=5, steps=1)\n"
    assert calls == []
    # The report still renders every line when it is read.
    assert "trace l₀ p₀ l₂ l₁ [max-steps]" in run_program(f.read_text(encoding="utf-8")).render()
    assert calls


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["loop", "simple", "bottomProof", "--bound", "-5"], "--bound"),
        (["trace", "simple", "bottomProof", "--steps", "-1"], "--steps"),
    ],
)
def test_negative_counts_are_refused(capsys, argv, flag):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {flag} must be 0 or more")


def test_zero_counts_are_allowed(capsys):
    assert main(["loop", "simple", "bottomProof", "--bound", "0"]) == 0
    assert capsys.readouterr().out == "found=false no repetition (bound=0, steps=0)\n"
    assert main(["trace", "simple", "bottomProof", "--steps", "0"]) == 0
    assert capsys.readouterr().out == "l₂ p₀ l₂ l₁\n"


def _check_nested(tmp_path, depth):
    """`pts check`, in a child process, of `check f (… (f a) …) : A` nested `depth` deep."""
    f = tmp_path / "deep.pts"
    f.write_text(
        "const A : *.\nconst f : A -> A.\nconst a : A.\n"
        f"check {'f (' * depth}a{')' * depth} : A.\n",
        encoding="utf-8",
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "pts_kernel", "check", str(f)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_nesting_20000_deep_checks(tmp_path):
    depth = 20000
    proc = _check_nested(tmp_path, depth)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        "ok    const A : *\nok    const f : A -> A\nok    const a : A\n"
        f"ok    check {'f (' * (depth - 1)}f a{')' * (depth - 1)} : A\n"
    )


def test_deep_nesting_is_refused_without_traceback(tmp_path):
    proc = _check_nested(tmp_path, 100000)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "nests too deeply" in proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout


def test_check_reynolds_under_hol_fails(capsys):
    status = main(["check", str(CORPUS / "reynolds-a.pts"), "--system", "lambda-hol"])
    out = capsys.readouterr().out
    assert status == 1
    assert "NoRule" in out and "(##,#)" in out
    assert "def A" in out


def test_system_override_keeps_axiom_and_rule_directives(tmp_path, capsys):
    # --system replaces only the system header, for every subcommand alike;
    # idU's type needs the file's (##,#) rule, which lambda-hol lacks.
    f = tmp_path / "custom.pts"
    f.write_text(
        "system custom.\naxiom * : #.\naxiom # : ##.\n"
        "rule * * : *.\nrule # # : #.\nrule # * : *.\nrule ## # : #.\n"
        "def U : # := Pi (X : #) -> X -> X.\n"
        "def idU : U := fun (X : #) (x : X) => x.\n",
        encoding="utf-8",
    )
    override = ["--system", "lambda-hol"]
    assert main(["check", str(f)] + override) == 0
    assert "system custom (overridden: lambda-hol)" in capsys.readouterr().out
    assert main(["trace", str(f), "idU", "--steps", "2"] + override) == 0
    assert capsys.readouterr().out == "idU\nidU\n"
    assert main(["loop", str(f), "idU"] + override) == 0
    assert capsys.readouterr().out == "found=false no repetition (bound=1000, steps=1)\n"
    assert main(["erase", str(f), "idU", "--erase", "poly"] + override) == 0
    assert capsys.readouterr().out == "idU\n"


def test_bundle_system_override(capsys):
    # reynolds-A needs the (##,#) rule; under lambda-hol it still reduces.
    assert main(["loop", "reynolds-A", "bottomProof", "--system", "lambda-hol", "--bound", "50"]) == 0
    assert capsys.readouterr().out == "found=false no repetition (bound=50, steps=50)\n"


def test_false_conv_directive_fails(tmp_path, capsys):
    src = "system lambda-hol.\nconst A : *.\nconst a : A.\nconst b : A.\nconv a b.\nconst c : A.\n"
    f = tmp_path / "conv.pts"
    f.write_text(src, encoding="utf-8")
    assert main(["check", str(f)]) == 1
    assert capsys.readouterr().out.endswith("ok    const b : A\nFAIL  conv a =/= b\n")
    report = run_program(src)
    assert report.failed_entry == "conv" and report.error is None and not report.ok


def test_poly_erasure_types_rule_metavariables_by_index(tmp_path, capsys):
    # The pattern numbers its metavariables last argument first ($k is 0,
    # $h is 1), so a context in appearance order would give $h the type K.
    f = tmp_path / "rule.pts"
    f.write_text(
        "system lambda-u-minus.\nconst K : #.\nconst c : K.\n"
        "const f : (Pi (X : #) -> X -> X) -> K -> K.\n"
        "const id : Pi (X : #) -> X -> X.\n"
        "rewrite r : f $h $k => $h K $k.\n"
        "def t : K := f id c.\n",
        encoding="utf-8",
    )
    assert main(["check", str(f)]) == 0
    capsys.readouterr()
    assert main(["trace", str(f), "t", "--steps", "3", "--erase", "poly"]) == 0
    assert capsys.readouterr().out == "t\nf id c\nid c\n"


_RULE_HEADER = (
    "system lambda-hol.\nconst A : *.\nconst B : *.\nconst a : A.\nconst b : B.\n"
    "const f : A -> A -> A.\nconst g : A -> A.\nconst h : B -> A.\n"
    "const k : forall (X : *), X -> A.\ndef idA : A -> A := fun (x : A) => x.\n"
)
_RULE_HEADER_REPORT = (
    "ok    system lambda-hol\nok    const A : *\nok    const B : *\nok    const a : A\n"
    "ok    const b : B\nok    const f : A -> A -> A\nok    const g : A -> A\n"
    "ok    const h : B -> A\nok    const k : forall (X : *), X -> A\nok    def idA : A -> A\n"
)
_NESTED_RULES = (
    "system lambda-hol.\nconst A : *.\nconst a : A.\nconst c : A.\n"
    "const pair : A -> A -> A.\nconst wrap : A -> A.\nconst fst : A -> A.\n"
    "const swap : A -> A.\nconst k : forall (X : *), X -> A.\n"
    "rewrite first : fst (wrap (pair $x $y)) => $x.\n"
    "rewrite flip : swap (pair $x (wrap $y)) => pair $y $x.\n"
    "rewrite apply : k A $x => $x.\n"
    "def w : A := wrap (pair a c).\n"
    "conv (fst (wrap (pair a c))) (a).\nconv (fst w) (a).\n"
    "conv (swap (pair a (wrap c))) (pair c a).\nconv (k A (fst w)) (a).\n"
)


@pytest.mark.parametrize(
    "src, status, report",
    [
        (_RULE_HEADER + "rewrite r : idA $x => $x.\n", 1,
         _RULE_HEADER_REPORT + "FAIL  rewrite r: pattern head idA must be a declared constant\n"),
        (_RULE_HEADER + "rewrite r : g $x $y => $x.\n", 1,
         _RULE_HEADER_REPORT + "FAIL  rewrite r: pattern head g is applied too many times\n"),
        (_RULE_HEADER + "rewrite r : f $x $x => $x.\n", 1,
         _RULE_HEADER_REPORT + "FAIL  rewrite r: 11:15: metavariable $x occurs twice\n"),
        (_RULE_HEADER + "rewrite r : h (g $x) => $x.\n", 1,
         _RULE_HEADER_REPORT + "FAIL  rewrite r: rigid pattern argument g has the wrong type\n"),
        (_RULE_HEADER + "rewrite r : g (zz $x) => $x.\n", 1,
         _RULE_HEADER_REPORT + "FAIL  rewrite r: UnknownConstant: unknown constant zz\n"),
        (_RULE_HEADER + "rewrite r : g (fun (x : A) => x) => a.\n", 1,
         _RULE_HEADER_REPORT
         + "FAIL  rewrite r: 11:1: pattern arguments are metavariables or constant spines\n"),
        (_RULE_HEADER + "rewrite r : $x a => a.\n", 1,
         _RULE_HEADER_REPORT + "FAIL  rewrite r: 11:1: pattern head must be a constant\n"),
        (_RULE_HEADER + "rewrite r : k $X $x => a.\n", 1,
         _RULE_HEADER_REPORT
         + "FAIL  rewrite r: type of $x depends on earlier pattern arguments\n"),
        (_RULE_HEADER + "rewrite r : g $x => b.\n", 1,
         _RULE_HEADER_REPORT
         + "FAIL  rewrite r: DomainMismatch: rewrite r: sides have types A and B\n"),
        (_NESTED_RULES, 0,
         "ok    system lambda-hol\nok    const A : *\nok    const a : A\nok    const c : A\n"
         "ok    const pair : A -> A -> A\nok    const wrap : A -> A\nok    const fst : A -> A\n"
         "ok    const swap : A -> A\nok    const k : forall (X : *), X -> A\n"
         "ok    rewrite first\nok    rewrite flip\nok    rewrite apply\nok    def w : A\n"
         "ok    conv fst w == a\nok    conv fst w == a\n"
         "ok    conv swap (pair a (wrap c)) == pair c a\nok    conv k A (fst w) == a\n"),
        ("const A : *.\nconst f : A -> A.\nconst a : A.\nrewrite r : f $x => f (f $x).\n"
         "conv (f a) (f (f a)).\n", 1,
         "ok    const A : *\nok    const f : A -> A\nok    const a : A\nok    rewrite r\n"
         "FAIL  conv : FuelExhausted: conversion exceeded 100000 head steps\n"),
    ],
    ids=["defined-head", "too-many-args", "nonlinear", "rigid-wrong-type", "unknown-name",
         "fun-arg", "meta-head", "dependent-meta", "sides-differ", "nested-rigid-fires",
         "growing-rule-runs-out-of-fuel"],
)
def test_rule_reports_are_pinned(tmp_path, capsys, src, status, report):
    # Every rule check's report, from the parser's shape errors to the typing
    # of sides, a file whose nested rigid patterns fire under conversion, and
    # one whose rule grows its subject until conversion runs out of fuel.
    f = tmp_path / "rules.pts"
    f.write_text(src, encoding="utf-8")
    assert main(["check", str(f)]) == status
    assert capsys.readouterr().out == report


@pytest.mark.parametrize(
    "argv", [["trace", "t", "--steps", "3"], ["loop", "t", "--bound", "10"]], ids=["trace", "loop"]
)
def test_walk_names_rule_matching_when_its_fuel_runs_out(tmp_path, capsys, argv):
    # Matching r's rigid `i` against the looping l₀ p₀ l₂ l₁ B runs a walk's
    # rule matching out of fuel; no conversion was asked for.
    src = (CORPUS / "reynolds-a.pts").read_text(encoding="utf-8")
    src = "".join(line for line in src.splitlines(True) if not line.startswith(("check ", "conv ")))
    f = tmp_path / "looping-match.pts"
    f.write_text(
        src + "const B : *.\nconst i : B -> B.\nconst m : B -> B.\n"
        "rewrite r : m (i $u) => $u.\ndef t : B := m (l₀ p₀ l₂ l₁ B).\n",
        encoding="utf-8",
    )
    assert main(["check", str(f)]) == 0
    capsys.readouterr()
    assert main([argv[0], str(f)] + argv[1:]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == (
        "", "error: FuelExhausted: rule matching exceeded 100000 head steps\n"
    )


def test_check_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.pts"
    empty.write_text("-- nothing here\n", encoding="utf-8")
    assert main(["check", str(empty)]) == 0
    assert capsys.readouterr().out.strip() == ""


def test_trace_simple_matches_golden_bytes(capsys):
    assert main(["trace", "simple", "bottomProof", "--steps", "4"]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "simple-head-def.txt").read_text(encoding="utf-8")


def test_trace_refined_matches_golden_bytes(capsys):
    assert main(["trace", "refined-axiomatic", "bottomProof", "--steps", "5"]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "refined-axiomatic-head-def.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("bundle", ["simple", "refined-axiomatic"])
@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("structured", "jsonl")])
def test_trace_head_linear_matches_golden_bytes(capsys, bundle, fmt, suffix):
    argv = ["trace", bundle, "bottomProof", "--strategy", "head-linear", "--steps", "40"]
    assert main(argv + ["--format", fmt]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{bundle}-head-linear.{suffix}").read_text(encoding="utf-8")


def test_trace_reynolds_poly_matches_golden_bytes(capsys):
    # Erased rows print unfolded, and a binder that a deleted type binder
    # separated from its namesake prints renamed, as in `fun (x' : •)`.
    assert main(["trace", "reynolds-A", "bottomProof", "--steps", "20", "--erase", "poly"]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "reynolds-A-head-def-poly.txt").read_text(encoding="utf-8")


def test_loop_lines_match_golden(capsys):
    lines = []
    for bundle in BUNDLE_IDS:
        for strategy in ("head-def", "head-linear"):
            for erase in (None, "annotations", "poly"):
                argv = ["loop", bundle, "bottomProof", "--strategy", strategy, "--bound", "60"]
                assert main(argv + (["--erase", erase] if erase else [])) == 0
                lines.append(f"{bundle} {strategy} {erase or '-'}: {capsys.readouterr().out}")
    assert "".join(lines) == (GOLDEN / "loop-bound-60.txt").read_text(encoding="utf-8")


def test_loop_trace_and_check_see_states_up_to_bound_names(capsys):
    # The rules of alpha-pins.pts turn `k (fun x => x)` into `k2 (fun y => y)`
    # and that into `k (fun z => z)`: the loop closes on the third state, the
    # trace row folds to `start`, and the identity folds to `idy`, although
    # each pair of terms differs in the name of a bound variable.
    src = str(GOLDEN / "alpha-pins.pts")
    assert main(["loop", src, "start", "--bound", "10"]) == 0
    assert capsys.readouterr().out == "found=true entry=1 period=2 (bound=10, steps=3)\n"
    assert main(["trace", src, "start", "--steps", "6"]) == 0
    assert capsys.readouterr().out == "start\nstart\nk2 idy\nstart\n"
    assert main(["check", src]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "ok    check idy : A -> A"


def test_structured_trace_agrees_with_text(capsys):
    assert main(["trace", "simple", "bottomProof", "--steps", "4", "--format", "structured"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    capsys.readouterr()
    assert main(["trace", "simple", "bottomProof", "--steps", "4"]) == 0
    text_rows = capsys.readouterr().out.splitlines()
    assert [r["display"] for r in records] == text_rows
    assert records[0]["event"] == "start"
    assert all("raw" in r for r in records)


def test_trace_unknown_term(capsys):
    assert main(["trace", "simple", "nonsense"]) == 1
    assert "unknown term" in capsys.readouterr().err


def test_trace_head_linear_runs(capsys):
    assert main(["trace", "simple", "bottomProof", "--strategy", "head-linear", "--steps", "6"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "l₂ p₀ l₂ l₁"
    assert len(rows) >= 2


def test_loop_command_reports_cycle(capsys):
    assert main(["loop", "simple", "bottomProof", "--bound", "10"]) == 0
    out = capsys.readouterr().out
    assert "found=true" in out and "entry=0" in out and "period=2" in out


def test_loop_command_reports_absence(capsys):
    assert main(["loop", "refined-axiomatic", "bottomProof", "--bound", "100"]) == 0
    assert "found=false" in capsys.readouterr().out


def test_erase_command(capsys):
    assert main(["erase", "reynolds-A", "bottomProof", "--erase", "annotations"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("l₀")


@pytest.mark.parametrize(
    "src, report",
    [
        ("system nosuch.", "FAIL  system nosuch: 1:1: unknown system 'nosuch'"),
        ("system (.", "FAIL  parse error: 1:8: expected system name"),
        ("in.", "FAIL  parse error: 1:1: 'in' cannot start a directive"),
        ("const X : ##.", "FAIL  const X: NoAxiom: sort ## has no axiom"),
    ],
    ids=["unknown-system", "system-without-name", "in-directive", "box-has-no-axiom"],
)
def test_check_reports_header_and_sort_errors(tmp_path, capsys, src, report):
    f = tmp_path / "bad.pts"
    f.write_text(src + "\n", encoding="utf-8")
    assert main(["check", str(f)]) == 1
    assert capsys.readouterr().out == report + "\n"


def test_list_corpus(capsys):
    assert main(["list-corpus"]) == 0
    assert capsys.readouterr().out == (
        "simple  [lambda-hol]  terms: bottomProof\n"
        "refined-axiomatic  [lambda-hol]  terms: bottomProof\n"
        "reynolds-A  [lambda-u-minus]  terms: bottomProof\n"
        "hurkens-B-match1  [lambda-u-minus]  terms: bottomProof\n"
        "hurkens-B-match2  [lambda-u-minus]  terms: bottomProof\n"
    )


def test_check_raw_flag(capsys):
    assert main(["check", str(CORPUS / "simple.pts"), "--raw"]) == 0
    out = capsys.readouterr().out
    assert "forall" in out  # unfolded displays spell the products out


def test_trace_file_target(tmp_path, capsys):
    src = (CORPUS / "simple.pts").read_text(encoding="utf-8")
    f = tmp_path / "dev.pts"
    f.write_text(src, encoding="utf-8")
    status = main(["trace", str(f), "x₀", "--steps", "1", "--format", "structured"])
    assert status == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert records[1]["event"] == "delta-unfold" and records[1]["detail"] == "x₀"
    assert records[1]["raw"] == "intro X₀"
    # Maximal refolding prints the unfolding back under its own name.
    assert records[1]["display"] == "x₀"


def test_trace_of_a_let_bodied_definition_unfolds_then_substitutes(tmp_path, capsys):
    # Unfolding d exposes its let; substituting the let is a row of its own.
    f = tmp_path / "let.pts"
    f.write_text(
        "system lambda-hol.\nconst A : *.\nconst a : A.\ndef d : A := let y : A := a in y.\n",
        encoding="utf-8",
    )
    assert main(["trace", str(f), "d", "--format", "structured"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["event"], r.get("detail"), r["raw"]) for r in records] == [
        ("start", None, "d"),
        ("delta-unfold", "d", "let y : A := a in y"),
        ("delta-unfold", "y", "a"),
    ]


@pytest.mark.parametrize(
    "argv",
    [["check"], ["trace", "d"], ["loop", "d"], ["erase", "d", "--erase", "poly"]],
    ids=["check", "trace", "loop", "erase"],
)
def test_a_file_that_is_not_utf8_is_refused_without_traceback(tmp_path, capsys, argv):
    f = tmp_path / "bad.pts"
    f.write_bytes(b"\xff\xfe\x00")
    assert main([argv[0], str(f), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {f} is not UTF-8 (byte 0)\n"


def test_a_superscript_digit_is_not_a_number(tmp_path, capsys):
    # `str.isdigit` holds for "²", but `int` reads only decimal digits.
    f = tmp_path / "sup.pts"
    f.write_text("system lambda-hol.\nconst A : *.\nconst a : A.\ntrace a ².\n", encoding="utf-8")
    assert main(["check", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "FAIL  parse error: 4:9: expected 'number', found '²'\n"
    assert captured.err == ""


def test_run_program_stops_at_first_error():
    report = run_program("const A : #.\nconst A : #.\nconst B : #.")
    assert not report.ok
    assert report.failed_entry == "A"
    assert len([l for l in report.lines if not l.ok]) == 1


def test_parse_error_reports_position():
    report = run_program("const : #.")
    assert not report.ok
    assert "parse error" in report.render()


def test_commands_leave_no_reference_cycles(tmp_path, capsys):
    # What a command frees must go by reference counting alone: garbage in a
    # cycle waits for the collector, whose generation-0 threshold `main`
    # raises for the command's length.  DEBUG_SAVEALL keeps every object the
    # collector would free in gc.garbage.
    parse_error, unknown, dev = (tmp_path / n for n in ("parse.pts", "unknown.pts", "dev.pts"))
    parse_error.write_text("const A : *.\nconst : A.\n", encoding="utf-8")
    unknown.write_text("const A : *.\nconst a : B.\n", encoding="utf-8")
    dev.write_text(
        (CORPUS / "refined-axiomatic.pts").read_text(encoding="utf-8")
        + "def bottomProof : ⊥ := l₀ p₀ l₂ l₁.\n",
        encoding="utf-8",
    )
    runs = [(["check", str(path)], 0) for path in sorted(CORPUS.glob("*.pts"))]
    runs += [
        (["check", str(CORPUS / "reynolds-a.pts"), "--system", "lambda-hol"], 1),
        (["check", str(parse_error)], 1),
        (["check", str(unknown)], 1),
        (["erase", "reynolds-A", "bottomProof", "--erase", "poly"], 0),
    ]
    for target in ("refined-axiomatic", str(dev)):
        for flags in ([], ["--erase", "annotations"], ["--format", "structured"]):
            runs.append((["trace", target, "bottomProof", "--steps", "20", *flags], 0))
    for strategy in ("head-def", "head-linear"):
        for flags in ([], ["--erase", "annotations"], ["--erase", "poly"]):
            argv = ["loop", "simple", "bottomProof", "--bound", "100", "--strategy", strategy]
            runs.append(([*argv, *flags], 0))
    cli._parser()  # argparse's parser holds cycles; it is built once per process
    left, debug = {}, gc.get_debug()
    gc.collect()
    gc.set_debug(debug | gc.DEBUG_SAVEALL)
    try:
        for argv, status in runs:
            assert main(argv) == status, argv
            gc.collect()
            if gc.garbage:
                kinds = sorted({type(o).__qualname__ for o in gc.garbage})
                left[" ".join(argv)] = (len(gc.garbage), kinds[:5])
                gc.garbage.clear()
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
    assert left == {}


@pytest.mark.parametrize(
    "argv, status",
    [
        (["check", str(CORPUS / "simple.pts")], 0),
        (["loop", "simple", "nonsense"], 1),  # a KernelError
        (["check", "dev.pts", "--no-such-flag"], 2),  # argparse's SystemExit
    ],
    ids=["ok", "kernel-error", "bad-flag"],
)
def test_main_restores_the_collector_thresholds(monkeypatch, capsys, argv, status):
    # ... and the recursion limit: both are the caller's again however the
    # command ends.
    seen = []
    real = cli._parser
    monkeypatch.setattr(
        cli, "_parser", lambda: seen.append((gc.get_threshold(), sys.getrecursionlimit())) or real()
    )
    before, limit = gc.get_threshold(), sys.getrecursionlimit()
    gc.set_threshold(500, 7, 9)
    sys.setrecursionlimit(20_000)
    try:
        if status == 2:
            with pytest.raises(SystemExit) as raised:
                main(argv)
            assert raised.value.code == 2
        else:
            assert main(argv) == status
        after = gc.get_threshold(), sys.getrecursionlimit()
    finally:
        gc.set_threshold(*before)
        sys.setrecursionlimit(limit)
    assert seen == [((100_000, 7, 9), 100_000)]  # while the command ran
    assert after == ((500, 7, 9), 20_000)


def test_a_command_on_a_large_stack_runs_as_on_the_main_thread(capsys):
    # Before Python 3.11 `main` runs each command this way; its status, its
    # output and argparse's SystemExit come back as on the calling thread.
    argv = ["loop", "simple", "bottomProof", "--bound", "10"]
    assert cli._on_a_large_stack(argv) == 0
    assert capsys.readouterr().out == "found=true entry=0 period=2 (bound=10, steps=2)\n"
    assert cli._on_a_large_stack(["loop", "simple", "nonsense"]) == 1
    assert capsys.readouterr().err.startswith("error: unknown term")
    with pytest.raises(SystemExit) as raised:
        cli._on_a_large_stack(["check", "dev.pts", "--no-such-flag"])
    assert raised.value.code == 2


LONG_TRACE_FLAGS = ([], ["--erase", "annotations"], ["--erase", "poly"], ["--format", "structured"])


def test_long_traces_match_golden_digests(capsys):
    # sha256 of `pts trace` stdout, deep enough that consecutive rows share
    # most of their subterms: 400 head-def steps and 200 head-linear ones.
    got = []
    for bundle in BUNDLE_IDS:
        for strategy, steps in (("head-def", "400"), ("head-linear", "200")):
            for flags in LONG_TRACE_FLAGS:
                argv = ["trace", bundle, "bottomProof", "--strategy", strategy, "--steps", steps]
                assert main(argv + flags) == 0
                digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
                got.append(f"{digest}  {' '.join(argv[1:] + flags)}\n")
    assert "".join(got) == (GOLDEN / "trace-long.sha256").read_text(encoding="utf-8")


def test_erased_structured_traces_match_their_digest(capsys):
    # Erased rows print unfolded; trace-long.sha256 holds no erased
    # structured rows, so this digest pins their display and raw fields.
    out = []
    for bundle in ("simple", "refined-axiomatic"):
        for strategy in ("head-def", "head-linear"):
            for mode in ("annotations", "poly"):
                argv = ["trace", bundle, "bottomProof", "--strategy", strategy, "--steps", "40",
                        "--erase", mode, "--format", "structured"]
                assert main(argv) == 0
                out.append(capsys.readouterr().out)
    digest = hashlib.sha256("".join(out).encode("utf-8")).hexdigest()
    assert digest == "701238bfbbe569988356e4aea60288de50784a5374afbfac6c76f48bb6dd031c"


@pytest.mark.parametrize("flags, suffix", [([], "txt"), (["--raw"], "raw.txt")])
def test_trace_directive_report_matches_golden_bytes(tmp_path, capsys, flags, suffix):
    # A 60-step `trace` directive on the refined development; its rows stay
    # folded in a --raw report too.
    f = tmp_path / "refined-trace.pts"
    f.write_text(
        (CORPUS / "refined-axiomatic.pts").read_text(encoding="utf-8") + "trace (l₀ p₀ l₂ l₁) 60.\n",
        encoding="utf-8",
    )
    assert main(["check", str(f)] + flags) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"check-trace-directive.{suffix}").read_text(encoding="utf-8")


def test_trace_directive_type_checks_its_term(tmp_path, capsys):
    # `match : A -> T A` applied to the sort-level `A : #` is ill-typed, so
    # the directive fails before tracing and prints no rows.
    f = tmp_path / "bad-trace.pts"
    f.write_text(
        (CORPUS / "simple.pts").read_text(encoding="utf-8") + "trace (match A A ⊥) 2.\n",
        encoding="utf-8",
    )
    assert main(["check", str(f)]) == 1
    assert capsys.readouterr().out.endswith(
        "ok    check l₂ p₀ l₂ l₁ : ⊥\nFAIL  trace : DomainMismatch: expected A, found # for A\n"
    )
