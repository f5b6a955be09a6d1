"""Terms nested 5000 deep through every pass that walks them.

Three shapes: ``g (g (… a …))``, nested ``fun``s whose body reaches the
outermost binder, and right-nested arrows.  Each is built as a kernel term
directly and as source text, so parsing, elaboration, checking, tracing,
erasure, display and unfolding are each checked against an answer that
does not come from the parser.
"""

import pytest

from pts_kernel.cli import run_program
from pts_kernel.display import fold_display, plain_display
from pts_kernel.env import unfold_all
from pts_kernel.parser import elaborate, parse_term_surface
from pts_kernel.reduce import ANNOTATIONS, HEAD_DEF, POLY, erase, trace
from pts_kernel.terms import HOLE, App, Const, Lam, Pi, Var, alpha_eq

DEPTH = 5000
PRELUDE = (
    "system lambda-hol.\nconst A : *.\nconst f : A -> A.\nconst a : A.\n"
    "def g : A -> A := fun (x : A) => f x.\n"
)
A = Const("A")
G_BODY = Lam("x", A, App(Const("f"), Var(0, "x")))  # what `g` unfolds to
SHAPES = ["apps", "funs", "arrows"]


def _source(shape):
    """The shape as the printer writes it, and its type."""
    if shape == "apps":
        return "g (" * (DEPTH - 1) + "g a" + ")" * (DEPTH - 1), "A"
    if shape == "funs":
        binders = "".join(f"fun (x{i} : A) => " for i in range(DEPTH))
        return binders + "g x0", "A -> " * DEPTH + "A"
    return "A -> " * DEPTH + "A", "*"


def _term(shape, g=Const("g"), dom=A):
    """The shape as a kernel term, with ``g`` and the ``fun`` domains given."""
    if shape == "apps":
        t = App(g, Const("a"))
        for _ in range(DEPTH - 1):
            t = App(g, t)
    elif shape == "funs":
        t = App(g, Var(DEPTH - 1, "x0"))
        for i in reversed(range(DEPTH)):
            t = Lam(f"x{i}", dom, t)
    else:
        t = A
        for _ in range(DEPTH):
            t = Pi("_", A, t)
    return t


@pytest.fixture(scope="module")
def env():
    report = run_program(PRELUDE)
    assert report.ok, report.render()
    return report.env


@pytest.mark.parametrize("shape", SHAPES)
def test_check_at_depth(shape):
    src, ty = _source(shape)
    lines = [f"check {src} : {ty}"]
    directives = lines[:]
    if shape == "funs":  # also as a definition, checked one binder at a time
        lines.append(f"def h : {ty}")
        directives.append(f"def h : {ty} := {src}")
    report = run_program(PRELUDE + "".join(d + ".\n" for d in directives))
    assert report.ok, report.render()[-200:]
    assert [line.text for line in report.lines[-len(lines):]] == lines


@pytest.mark.parametrize("shape", SHAPES)
def test_parse_and_display_at_depth(shape, env):
    src, _ = _source(shape)
    t = _term(shape)
    assert alpha_eq(elaborate(parse_term_surface(src), env), t)
    assert fold_display(t, env) == src
    assert plain_display(t) == src


@pytest.mark.parametrize("shape", SHAPES)
def test_unfold_all_at_depth(shape, env):
    assert alpha_eq(unfold_all(env, _term(shape)), _term(shape, g=G_BODY))


@pytest.mark.parametrize("shape", SHAPES)
def test_erase_at_depth(shape, env):
    expected = HOLE if shape == "arrows" else _term(shape, dom=HOLE)
    for mode in (ANNOTATIONS, POLY):
        assert alpha_eq(erase(_term(shape), mode, env), expected)


@pytest.mark.parametrize("shape", SHAPES)
def test_trace_at_depth(shape, env):
    src, _ = _source(shape)
    tr = trace(env, _term(shape), HEAD_DEF, 5)
    assert tr.stopped == "head-normal"
    rows = tr.displays
    if shape == "apps":
        # One head-def step unfolds the outer `g` and contracts its body.
        assert rows == [src, f"f ({src[3:-1]})"]
    else:
        assert rows == [src]


def test_definition_body_at_depth():
    # The body is compiled once into closures that nest as deep as the body,
    # as deep as instantiate's traversal of it goes.
    def nest(leaf):
        return "g (" * (DEPTH - 1) + f"g {leaf}" + ")" * (DEPTH - 1)

    lines = [f"def d : A -> A := fun (x : A) => {nest('x')}", "trace (d a) 1",
             f"conv (d a) ({nest('a')})"]
    report = run_program(PRELUDE + "".join(line + ".\n" for line in lines))
    assert report.ok, report.render()[-200:]
    rows = ["def d : A -> A", "trace d a [max-steps]", "  d a", "  " + nest("a")]
    assert [line.text for line in report.lines[-5:]] == rows + ["conv d a == " + nest("a")]
