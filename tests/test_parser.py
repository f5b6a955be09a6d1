import pytest

from pts_kernel.cli import run_program
from pts_kernel.errors import ParseError
from pts_kernel.parser import elaborate, parse_program, parse_term_surface, tokenize
from pts_kernel.terms import App, Const, Lam, Pi, Var, alpha_eq


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
