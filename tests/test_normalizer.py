"""Conversion against an independent normalizer, and subject reduction, on
rule-free lambda-HOL.

Terms are generated type-directed over a small signature of transparent
definitions (Church numerals and their arithmetic, plus an opaque base type),
so every generated term is well typed and strongly normalizing.  Closed
numerals of a chosen value come in many shapes -- ``add``/``mul`` spines,
``let``s, beta redexes, open ``fun`` bodies -- so pairs often share a head
constant while their arguments differ, which is where lazy delta has to
unfold after a failed argumentwise comparison.
"""

from hypothesis import given, settings, strategies as st

from normalizer import normalize
from pts_kernel.cli import run_program
from pts_kernel.errors import DOMAIN_MISMATCH, FUEL_EXHAUSTED, TypeCheckError
from pts_kernel.parser import elaborate, parse_term_surface
from pts_kernel.reduce import LINEAR_SUBST, _LinearMachine, head_def_step, head_linear_step, readback
from pts_kernel.terms import Const, alpha_eq
from pts_kernel.typecheck import Fuel, check, convert

SIGNATURE = """system lambda-hol.
const A : *.
const a : A.
const f : A -> A.
const g : A -> A -> A.
def Nat : * := forall (X : *), (X -> X) -> X -> X.
def zero : Nat := fun (X : *) (s : X -> X) (z : X) => z.
def succ : Nat -> Nat := fun (n : Nat) (X : *) (s : X -> X) (z : X) => s (n X s z).
def add : Nat -> Nat -> Nat := fun (m : Nat) (n : Nat) (X : *) (s : X -> X) (z : X) => m X s (n X s z).
def mul : Nat -> Nat -> Nat := fun (m : Nat) (n : Nat) (X : *) (s : X -> X) => m X (n X s).
def n1 : Nat := succ zero.
def n2 : Nat := succ n1.
def n3 : Nat := add n1 n2.
def double : Nat -> Nat := fun (n : Nat) => add n n.
def twice : (A -> A) -> A -> A := fun (g : A -> A) (x : A) => g (g x).
"""
ENV = run_program(SIGNATURE).env
TYPES = ("A", "A -> A", "A -> A -> A", "Nat", "Nat -> Nat")
MAX_VALUE = 6  # closed numerals stay small enough for exponential conversion
FUEL = 5_000


def _term(src):
    return elaborate(parse_term_surface(src), ENV)


@st.composite
def terms(draw, ty, scope=(), depth=3):
    """Surface source of a term of type ``ty``; ``scope`` lists the
    ``(name, type)`` pairs of enclosing binders."""
    bound = [name for name, vty in scope if vty == ty]
    fresh = f"v{len(scope)}"
    sub = lambda t, sc=scope: terms(t, sc, depth - 1)  # noqa: E731
    if ty == "A":
        leaves = ["a"] + bound
        nodes = [
            lambda: f"f ({draw(sub('A'))})",
            lambda: f"twice ({draw(sub('A -> A'))}) ({draw(sub('A'))})",
            lambda: f"({draw(sub('A -> A'))}) ({draw(sub('A'))})",
            lambda: f"({draw(sub('Nat'))}) A ({draw(sub('A -> A'))}) ({draw(sub('A'))})",
            lambda: f"({draw(sub('A -> A -> A'))}) ({draw(sub('A'))}) ({draw(sub('A'))})",
        ]
    elif ty == "A -> A":
        leaves = ["f", "twice f"] + bound
        nodes = [
            lambda: f"fun ({fresh} : A) => {draw(sub('A', ((fresh, 'A'),) + scope))}",
            lambda: f"twice ({draw(sub('A -> A'))})",
            lambda: f"({draw(sub('Nat'))}) A ({draw(sub('A -> A'))})",
            lambda: f"({draw(sub('A -> A -> A'))}) ({draw(sub('A'))})",
        ]
    elif ty == "A -> A -> A":
        leaves = ["g"] + bound
        nodes = [lambda: f"fun ({fresh} : A) => {draw(sub('A -> A', ((fresh, 'A'),) + scope))}"]
    elif ty == "Nat":
        leaves = ["zero", "n1", "n2", "n3"] + bound
        nodes = [
            lambda: f"succ ({draw(sub('Nat'))})",
            lambda: f"add ({draw(sub('Nat'))}) ({draw(sub('Nat'))})",
            lambda: f"mul ({draw(sub('Nat'))}) ({draw(sub('Nat'))})",
            lambda: f"({draw(sub('Nat -> Nat'))}) ({draw(sub('Nat'))})",
            lambda: (
                f"let {fresh} : Nat := {draw(sub('Nat'))} in "
                f"{draw(sub('Nat', ((fresh, 'Nat'),) + scope))}"
            ),
        ]
    else:
        leaves = ["succ", "double", "add n1"] + bound
        nodes = [
            lambda: f"add ({draw(sub('Nat'))})",
            lambda: f"mul ({draw(sub('Nat'))})",
            lambda: f"fun ({fresh} : Nat) => {draw(sub('Nat', ((fresh, 'Nat'),) + scope))}",
        ]
    if depth <= 0 or draw(st.booleans()):
        return draw(st.sampled_from(leaves))
    return draw(st.sampled_from(nodes))()


@st.composite
def numerals(draw, value, depth=3):
    """Surface source of a closed ``Nat`` term that normalizes to ``value``."""
    shapes = [lambda: "zero" if value == 0 else f"succ ({draw(numerals(value - 1, depth - 1))})"]
    if 1 <= value <= 3:
        shapes.append(lambda: f"n{value}")
    if depth > 0:
        part = draw(st.integers(0, value))
        rest = lambda: draw(numerals(value - part, depth - 1))  # noqa: E731
        shapes += [
            lambda: f"add ({draw(numerals(part, depth - 1))}) ({rest()})",
            lambda: f"let v{depth} : Nat := {draw(numerals(part, depth - 1))} in add v{depth} ({rest()})",
            lambda: f"(fun (v{depth} : Nat) => add ({rest()}) v{depth}) ({draw(numerals(part, depth - 1))})",
        ]
        divisors = [d for d in range(1, value + 1) if value % d == 0]
        if divisors:
            d = draw(st.sampled_from(divisors))
            shapes.append(
                lambda: f"mul ({draw(numerals(d, depth - 1))}) ({draw(numerals(value // d, depth - 1))})"
            )
        if value % 2 == 0:
            shapes.append(lambda: f"double ({draw(numerals(value // 2, depth - 1))})")
    return draw(st.sampled_from(shapes))()


# Step function and start value a numeral is iterated on, under the binders
# ``x`` and ``y``: pairs that differ only in a bound variable are convertible
# only if the variables are told apart.
ITERATIONS = (("f", "a"), ("g x", "y"), ("g y", "x"), ("g x", "x"))


@st.composite
def pairs(draw):
    """Two sources of one type: numerals of equal or adjacent values, those
    numerals iterated on a step function, or two independent terms."""
    kind = draw(st.sampled_from(("numeral", "iterate", "any")))
    if kind == "any":
        ty = draw(st.sampled_from(TYPES))
        return ty, draw(terms(ty)), draw(terms(ty))
    value = draw(st.integers(0, MAX_VALUE))
    other = draw(st.sampled_from((value, value, max(value - 1, 0), value + 1)))
    a, b = draw(numerals(value)), draw(numerals(other))
    if kind == "numeral":
        return "Nat", a, b
    step_a, start_a = draw(st.sampled_from(ITERATIONS))
    step_b, start_b = draw(st.sampled_from(((step_a, start_a),) + ITERATIONS))
    iterate = "fun (x : A) (y : A) => ({}) A ({}) ({})".format
    return "A -> A -> A", iterate(a, step_a, start_a), iterate(b, step_b, start_b)


def test_normalizer_reads_back_church_numerals():
    want = _term("fun (X : *) (s : X -> X) (z : X) => s (s (s z))")
    assert alpha_eq(normalize(ENV, _term("add n1 n2")), want)
    assert alpha_eq(normalize(ENV, _term("double n1 A f")), _term("fun (z : A) => f (f z)"))
    assert alpha_eq(normalize(ENV, Const("f")), Const("f"))


@settings(max_examples=200, deadline=None)
@given(pairs())
def test_convert_agrees_with_normal_forms(pair):
    ty_src, a_src, b_src = pair
    ty, a, b = _term(ty_src), _term(a_src), _term(b_src)
    check(ENV, a, ty)
    check(ENV, b, ty)
    try:
        verdict = convert(ENV, a, b, fuel=Fuel(FUEL))
    except TypeCheckError as err:
        assert err.kind == FUEL_EXHAUSTED
        return
    assert verdict == alpha_eq(normalize(ENV, a), normalize(ENV, b)), (a_src, b_src)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(TYPES).flatmap(lambda ty: st.tuples(st.just(ty), terms(ty))))
def test_head_def_steps_preserve_types(case):
    ty_src, src = case
    ty, t = _term(ty_src), _term(src)
    check(ENV, t, ty)
    for _ in range(5):
        step = head_def_step(ENV, t)
        if step is None:
            break
        t = step[2]
        check(ENV, t, ty)


# Head-linear steps do not preserve types: a step substitutes one occurrence
# and leaves the redex that bound it in place, so the state can put a value
# where the still-abstract type of its binder is expected.  What holds is
# subject reduction of the observable state: the readback taken while no
# unapplied ``fun`` lies on the head path.


def test_head_linear_state_can_be_ill_typed():
    # n1 A f a unfolds n1 and succ, then puts f : A -> A in place of s,
    # under the abstraction over X that still awaits its argument A.
    t, ty = _term("n1 A f a"), _term("A")
    for kind in ("delta-unfold", "delta-unfold", LINEAR_SUBST):
        step = head_linear_step(ENV, t)
        assert step[0] == kind
        t = step[2]
    try:
        check(ENV, t, ty)
    except TypeCheckError as err:
        assert err.kind == DOMAIN_MISMATCH
        assert str(err).startswith("DomainMismatch: expected A, found X")
    else:
        raise AssertionError("the third state type-checks")
    machine = _LinearMachine(ENV, _term("n1 A f a"))
    for _ in range(3):
        machine.step()
    assert machine.open == 0
    check(ENV, readback(machine.term()), ty)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(TYPES).flatmap(lambda ty: st.tuples(st.just(ty), terms(ty))))
def test_head_linear_readbacks_preserve_types(case):
    ty_src, src = case
    ty = _term(ty_src)
    machine = _LinearMachine(ENV, _term(src))
    for _ in range(5):
        if machine.step() is None:
            break
        if machine.open == 0:
            check(ENV, readback(machine.term()), ty)
