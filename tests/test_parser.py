import hashlib
import random
from pathlib import Path

import pytest
from test_terms import _exact

from pts_kernel.cli import run_program
from pts_kernel.errors import ParseError
from pts_kernel.parser import elaborate, parse_program, parse_term_surface, tokenize
from pts_kernel.terms import App, Const, Lam, Pi, Var, alpha_eq

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _term(src, env):
    return elaborate(parse_term_surface(src), env)


def test_tokenize_positions():
    toks = tokenize("fun (x : A)\n=> x")
    arrow = [t for t in toks if t.text == "=>"][0]
    assert (arrow.line, arrow.col) == (2, 1)


def test_comments_and_hyphenated_names():
    toks = tokenize("system lambda-u-minus. -- trailing words -> ignored\n")
    assert [t.text for t in toks if t.kind != "eof"] == [
        "system",
        "lambda-u-minus",
        ".",
    ]


def _tokens(src):
    return [(t.kind, t.text, t.line, t.col) for t in tokenize(src)]


# sha256 of one "kind text line:col" line per token of each corpus file.
CORPUS_TOKEN_DIGESTS = {
    "hurkens-b-match1.pts": (582, "96458da63e7d0b27f7906bd3ed6951c4b7540abeda40c4cb7f6b362360e6340a"),
    "hurkens-b-match2.pts": (578, "fec71ddae6867411dd2e88e2de17384866b4cc29caa167055ac4de623a321d5d"),
    "refined-axiomatic.pts": (461, "27c23dfe60bbb18411aec2263b76fbe68dd2122d1ac61f2abe622a2178f36afc"),
    "reynolds-a.pts": (581, "5072c710326b65a15e9d810ae7c86495a99db1363d2999502441f167d17f5f9d"),
    "simple.pts": (258, "1c6c9dce52648f610a272b51adba0b2f6d9f98d43294913e25a6b9cf0f22c872"),
}


@pytest.mark.parametrize("name", sorted(CORPUS_TOKEN_DIGESTS))
def test_corpus_tokens_are_pinned(name):
    src = (CORPUS / name).read_text(encoding="utf-8")
    lines = "\n".join(f"{k} {text} {line}:{col}" for k, text, line, col in _tokens(src))
    count, digest = CORPUS_TOKEN_DIGESTS[name]
    assert (len(lines.splitlines()), hashlib.sha256(lines.encode()).hexdigest()) == (count, digest)


@pytest.mark.parametrize(
    "src, expected",
    [
        (
            "system lambda-u-minus.",
            [("kw", "system", 1, 1), ("name", "lambda-u-minus", 1, 8), ("punct", ".", 1, 22),
             ("eof", "", 1, 23)],
        ),
        # `--` starts a comment even inside a name; `->` ends one.
        ("a--b", [("name", "a", 1, 1), ("eof", "", 1, 5)]),
        (
            "x->y",
            [("name", "x", 1, 1), ("punct", "->", 1, 2), ("name", "y", 1, 4), ("eof", "", 1, 5)],
        ),
        # Subscript digits are name characters; alone they make a number.
        (
            "x₀ ₀ h₁₂ 12",
            [("name", "x₀", 1, 1), ("number", "₀", 1, 4), ("name", "h₁₂", 1, 6),
             ("number", "12", 1, 10), ("eof", "", 1, 12)],
        ),
        (
            "const c : *.\r\ndef d : ## := $u'.\r\n",
            [("kw", "const", 1, 1), ("name", "c", 1, 7), ("punct", ":", 1, 9), ("sort", "*", 1, 11),
             ("punct", ".", 1, 12), ("kw", "def", 2, 1), ("name", "d", 2, 5), ("punct", ":", 2, 7),
             ("sort", "##", 2, 9), ("punct", ":=", 2, 12), ("meta", "u'", 2, 15),
             ("punct", ".", 2, 18), ("eof", "", 3, 1)],
        ),
        # A comment advances the column, so with no final newline the eof
        # token sits at the end of the line.
        (
            "check a. -- done",
            [("kw", "check", 1, 1), ("name", "a", 1, 7), ("punct", ".", 1, 8), ("eof", "", 1, 17)],
        ),
        (
            "f∘g (⊥ ¬)",
            [("name", "f", 1, 1), ("punct", "∘", 1, 2), ("name", "g", 1, 3), ("punct", "(", 1, 5),
             ("name", "⊥", 1, 6), ("name", "¬", 1, 8), ("punct", ")", 1, 9), ("eof", "", 1, 10)],
        ),
    ],
)
def test_exact_tokens(src, expected):
    assert _tokens(src) == expected


@pytest.mark.parametrize(
    "src, message, line, column",
    [
        ("rewrite r : f $ => a.", "empty metavariable name", 1, 15),
        ("a\n  $-b", "empty metavariable name", 2, 3),
        ("a-", "unexpected character '-'", 1, 2),
        ("def a :\n b = c.", "unexpected character '='", 2, 4),
        ("x ; y", "unexpected character ';'", 1, 3),
    ],
)
def test_tokenize_errors(src, message, line, column):
    with pytest.raises(ParseError) as err:
        tokenize(src)
    assert (err.value.message, err.value.line, err.value.column) == (message, line, column)


def test_parse_error_has_location():
    with pytest.raises(ParseError) as err:
        parse_term_surface("fun (x : A) =>")
    assert err.value.line == 1


def test_multi_binder_sugar(simple):
    env = simple.env
    one = _term("fun (p : Pow A) (x : A) => p x", env)
    two = _term("fun (p : Pow A) => fun (x : A) => p x", env)
    assert alpha_eq(one, two)


def test_arrow_is_right_associative(simple):
    env = simple.env
    t = _term("A -> A -> A", env)
    assert isinstance(t, Pi) and isinstance(t.cod, Pi)


def test_composition_binds_tighter_than_arrow(refined):
    env = refined.env
    good = _term("A -> (p₀∘δ) x₀", env)
    assert isinstance(good, Pi)
    # Application binds tighter than ∘, so without parentheses the right
    # side reads p₀ ∘ (δ x₀), which is not a function and cannot elaborate.
    with pytest.raises(ParseError):
        _term("A -> p₀∘δ x₀", env)


def test_composition_expansion_infers_domain(refined):
    env = refined.env
    t = _term("p₀∘δ", env)
    assert isinstance(t, Lam)
    assert alpha_eq(t.dom, Const("A"))
    assert alpha_eq(t.body, App(Const("p₀"), App(Const("δ"), Var(0))))


def test_composition_of_non_function_rejected(simple):
    with pytest.raises(ParseError):
        _term("p₀∘x₀", simple.env)  # x₀ : A is not a function


def test_shadowing_resolves_to_innermost(simple):
    env = simple.env
    t = _term("fun (A : #) => fun (A : A) => A", env)
    inner = t.body
    assert isinstance(inner.dom, Var) and inner.dom.index == 0
    assert isinstance(inner.body, Var) and inner.body.index == 0


def test_unknown_name_reports_position(simple):
    with pytest.raises(ParseError) as err:
        _term("intro mystery", simple.env)
    assert "mystery" in str(err.value)
    # A rewrite rule's name is no term either.
    report = run_program(
        "system lambda-hol.\nconst A : *.\nconst a : A.\nconst f : A -> A.\n"
        "rewrite r : f $x => a.\ncheck r : A.\n"
    )
    assert isinstance(report.error, ParseError) and not report.ok
    last = report.render().splitlines()[-1]
    assert last == "FAIL  check : 6:7: r names a rewrite rule, not a term"


def test_program_directives_parse():
    src = """
-- a tiny custom system
system custom.
axiom * : #.
rule * * : *.
const A : *.
def id : A -> A := fun (x : A) => x.
check id : A -> A.
"""
    directives = parse_program(src)
    kinds = [d.kind for d in directives]
    assert kinds == ["system", "axiom", "rule", "const", "def", "check"]
    report = run_program(src)
    assert report.ok, report.render()


def test_custom_system_rejects_unlicensed_products():
    # Without the (*,*) rule a declared constant cannot have a product type;
    # definition telescopes are exempt (they are parameters, not products),
    # but inner abstractions are not.
    base = "system custom.\naxiom * : #.\nconst A : *.\n"
    report = run_program(base + "const f : A -> A.")
    assert not report.ok
    assert report.error is not None and report.error.kind == "NoRule"
    telescoped = run_program(base + "def id : A -> A := fun (x : A) => x.")
    assert telescoped.ok, telescoped.render()
    inner = run_program(
        base + "def w : A -> A := fun (x : A) => (fun (y : A) => y) x."
    )
    assert not inner.ok
    assert inner.error is not None and inner.error.kind == "NoRule"


def test_metavariables_only_in_rewrites(simple):
    with pytest.raises(ParseError):
        _term("match $u", simple.env)


def test_conv_directive_requires_atoms():
    src = "conv (⊥) (⊥)."
    (d,) = parse_program(src)
    assert d.kind == "conv"


def test_entries_after_check_still_allowed():
    src = """
system lambda-hol.
const A : #.
check A : #.
const B : #.
check B : #.
"""
    report = run_program(src)
    assert report.ok, report.render()


def test_system_directive_must_precede_entries():
    src = "const A : #. system lambda-hol."
    report = run_program(src)
    assert not report.ok


def test_trace_directive_in_file():
    src = """
system lambda-hol.
const A : #.
const c : A.
def twice : A -> A := fun (x : A) => c.
trace (twice c) 3.
"""
    report = run_program(src)
    assert report.ok, report.render()
    rows = [l.text.strip() for l in report.lines if l.text.startswith("  ")]
    assert rows[0] == "twice c"
    assert rows[1] == "c"


@pytest.mark.parametrize(
    "rule, message",
    [
        ("rewrite r : $x => a.", "pattern head must be a constant"),
        (
            "rewrite r : f (fun (y : A) => y) => a.",
            "pattern arguments are metavariables or constant spines",
        ),
    ],
)
def test_rewrite_pattern_errors_report_the_directive_position(rule, message):
    src = "system lambda-hol.\nconst A : *.\nconst a : A.\nconst f : A -> A.\n  " + rule
    report = run_program(src)
    assert isinstance(report.error, ParseError)
    assert report.lines[-1].text == f"rewrite r: 5:3: {message}"


@pytest.mark.parametrize(
    "src, kind",
    [
        ("system lambda-hol.\nconst A : .\n", "ParseError"),
        ("system lambda-hol.\nconst A : *.\nconst A : *.\n", "DuplicateName"),
        ("system lambda-hol.\nconst A : *.\nrewrite r : A $x => $x.\n", "IllFormedPattern"),
    ],
    ids=["parse", "duplicate", "pattern"],
)
def test_every_failure_reports_a_kind(src, kind):
    report = run_program(src)
    assert report.error is not None and report.error.kind == kind


# -- token-level mutants -------------------------------------------------------
#
# Seeded mutants of the corpus files and of a file that uses every directive
# kind, each deleting, duplicating, swapping or replacing one token.  The
# digest covers each mutant's report and error kind, so it pins every parse
# error's message and position as well as the verdicts of mutants that parse.

EVERY_DIRECTIVE = """-- every directive kind, in a system declared here
system custom.
axiom * : #.
axiom # : ##.
rule * * : *.
rule # * : *.
rule # # : #.
const A : *.
const f : A -> A.
const a : A.
def id : A -> A := fun (x : A) => x.
def twice : A -> A := f∘f.
def k : Pi (B : *) -> B -> A -> B := fun (B : *) (b : B) (y : A) => b.
rewrite ff : f (f $x) => $x.
check let y : A := a in id y : A.
check forall (B : *), B -> B : *.
conv (twice a) (a).
trace (k A (twice a) (id a)) 4.
"""
MUTANTS_PER_SOURCE = 40


def _mutant_sources():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(CORPUS.glob("*.pts"))}
    sources["every-directive.pts"] = EVERY_DIRECTIVE
    return sources


def _mutants(name, src):
    """``MUTANTS_PER_SOURCE`` seeded one-token edits of ``src``."""
    starts = [0]
    for line in src.split("\n"):
        starts.append(starts[-1] + len(line) + 1)
    # (offset, spelling) per token; a metavariable's spelling keeps its `$`.
    spans = []
    for t in tokenize(src)[:-1]:
        at = starts[t.line - 1] + t.col - 1
        spans.append((at, src[at : at + len(t.text) + (t.kind == "meta")]))
    rng = random.Random(name)
    for _ in range(MUTANTS_PER_SOURCE):
        j = rng.randrange(len(spans) - 1)
        (at, text), (at2, text2) = spans[j], spans[j + 1]
        edit = rng.choice(("delete", "duplicate", "swap", "replace"))
        if edit == "delete":
            yield src[:at] + src[at + len(text) :]
        elif edit == "duplicate":
            yield src[:at] + text + " " + src[at:]
        elif edit == "swap":
            yield src[:at] + text2 + src[at + len(text) : at2] + text + src[at2 + len(text2) :]
        else:
            yield src[:at] + rng.choice(spans)[1] + src[at + len(text) :]


def _mutant_digest(name, src):
    h = hashlib.sha256()
    for mutant in _mutants(name, src):
        report = run_program(mutant)
        kind = report.error.kind if report.error is not None else "-"
        h.update(f"{report.render()}\n{kind}\n".encode())
    return h.hexdigest()


def test_token_mutants_keep_their_reports():
    got = "".join(
        f"{_mutant_digest(name, src)}  {name}\n" for name, src in _mutant_sources().items()
    )
    assert got == (GOLDEN / "parse-mutants.sha256").read_text(encoding="utf-8")


# -- hint-exact elaboration ----------------------------------------------------
#
# Round-trip tests compare terms with alpha_eq, which ignores hints, and a
# term's repr prints an empty hint as `_`; this digest keeps every hint as it
# is, so it also pins the `_` an arrow's binder carries.


def test_elaboration_is_pinned_hint_for_hint():
    # sha256 per file of every entry and judgment that run_program builds,
    # hints included, and of the rendered report
    got = []
    for path in sorted(CORPUS.glob("*.pts")) + [GOLDEN / "alpha-pins.pts", GOLDEN / "binders.pts"]:
        report = run_program(path.read_text(encoding="utf-8"))
        assert report.ok, report.render()
        h = hashlib.sha256()
        for e in report.env.entries:
            terms = [_exact(getattr(e, field)) for field in type(e).__slots__[1:]]
            h.update(f"{type(e).__name__} {e.name} {terms!r}\n".encode())
        for kind, a, b in report.judgments:
            h.update(f"{kind} {_exact(a)!r} {_exact(b)!r}\n".encode())
        h.update(report.render().encode())
        got.append(f"{h.hexdigest()}  {path.name}\n")
    assert "".join(got) == (GOLDEN / "elaborate.sha256").read_text(encoding="utf-8")
