import hashlib
from pathlib import Path

import pytest
from test_terms import spine

from pts_kernel import corpus, typecheck
from pts_kernel.cli import run_program
from pts_kernel.env import Decl, GlobalEnv, add_entry
from pts_kernel.errors import DuplicateNameError, KernelError, TypeCheckError
from pts_kernel.parser import elaborate, parse_term_surface
from pts_kernel.reduce import detect_loop, trace
from pts_kernel.specs import LAMBDA_U_MINUS
from pts_kernel.terms import BOX_T, STAR_T, Const, Lam, Pi, SortT, Var, alpha_eq, app
from pts_kernel.typecheck import Fuel, check, convert, infer, push, whnf


def _term(src, env):
    return elaborate(parse_term_surface(src), env)


def _extend(env, *decls):
    for name, ty_src in decls:
        env = add_entry(env, Decl(name, _term(ty_src, env)))
    return env


def test_infer_bottom_proof_reynolds(reynolds):
    ty = infer(reynolds.env, reynolds.key_terms["bottomProof"])
    bottom = _term("forall (p : *), p", reynolds.env)
    assert convert(reynolds.env, ty, bottom)


def test_infer_bottom_proof_simple(simple):
    ty = infer(simple.env, simple.key_terms["bottomProof"])
    assert convert(simple.env, ty, Const("⊥"))


def test_infer_star_is_box(simple):
    assert infer(simple.env, SortT(__import__("pts_kernel.terms", fromlist=["STAR"]).STAR)) == BOX_T


def test_impredicative_carrier_needs_missing_rule(refined):
    body = _term("Pi (X : #) -> (T X -> X) -> X", refined.env)
    with pytest.raises(TypeCheckError) as err:
        infer(refined.env, body)
    assert err.value.kind == "NoRule"
    assert err.value.rule_pair == ("##", "#")
    # Same product is fine once the (##, #) rule is available.
    assert infer(refined.env.with_spec(LAMBDA_U_MINUS), body) == BOX_T


def test_check_match_against_its_type(reynolds):
    check(reynolds.env, Const("match"), _term("A -> T A", reynolds.env))


def test_check_reports_domain_mismatch(reynolds):
    with pytest.raises(TypeCheckError) as err:
        check(reynolds.env, Const("intro"), _term("A -> A", reynolds.env))
    assert err.value.kind == "DomainMismatch"


def test_check_successor_lemma(refined):
    env = refined.env
    s1 = Const("s₁")
    ty = _term("forall (x : A), p₀ x -> p₀ (δ x)", env)
    check(env, s1, ty)


def test_whnf_contracts_beta_redex(simple):
    env = simple.env
    t = app(Lam("x", BOX_T, Var(0)), Const("A"))  # A is opaque, so whnf stops
    assert whnf(env, t) == Const("A")


def test_whnf_fires_retract_rule_through_unfolding(simple):
    # match x₀ p₀ exposes intro only after unfolding x₀; the rule then fires
    # and the result reduces to a product.
    env = simple.env
    w = whnf(env, _term("match x₀ p₀", env))
    assert isinstance(w, Pi)
    assert alpha_eq(w.dom, Const("A"))
    assert alpha_eq(w, whnf(env, _term("X₀ p₀", env)))


def test_whnf_of_twisted_retract(reynolds):
    env = _extend(reynolds.env, ("u", "T A"), ("p", "Pow A"))
    lhs = _term("match (intro u) p", env)
    rhs = _term("Tmap A A δ u p", env)
    assert convert(env, lhs, rhs)
    # Both sides come to rest on the opaque generator u.
    head, _ = spine(whnf(env, lhs))
    assert head == Const("u")


def test_convert_reflexive(all_bundles):
    for bundle in all_bundles:
        for t in bundle.key_terms.values():
            assert convert(bundle.env, t, t)


def test_twisted_match_conversion_refined(refined):
    env = _extend(refined.env, ("x", "A"), ("p", "Pow A"))
    lhs = _term("match (δ x) p", env)
    rhs = _term("match x (p∘δ)", env)
    assert convert(env, lhs, rhs)


def test_strict_algebra_square(reynolds):
    env = _extend(reynolds.env, ("X", "#"), ("f", "T X -> X"))
    lhs = _term("(ι X f)∘intro", env)
    rhs = _term("f∘(Tmap A X (ι X f))", env)
    assert convert(env, lhs, rhs)


def test_match_intro_equality_all_impredicative(reynolds, hurkens1, hurkens2):
    for bundle in (reynolds, hurkens1, hurkens2):
        assert bundle.conv_goals, bundle.id
        for a, b in bundle.conv_goals:
            assert convert(bundle.env, a, b), bundle.id


def test_infer_is_deterministic(all_bundles):
    for bundle in all_bundles:
        t = bundle.key_terms["bottomProof"]
        assert alpha_eq(infer(bundle.env, t), infer(bundle.env, t))


def test_hol_typable_terms_agree_under_u_minus(simple, refined):
    probes = [
        "l₂ p₀ l₂ l₁",
        "p₀ x₀",
        "X₀ p₀",
        "match x₀",
        "intro X₀",
        "⊥",
        "Pow A",
        "T A",
    ]
    refined_probes = ["l₀ p₀ l₂ l₁", "s₁", "s₂", "δ x₀"]
    for bundle, extra in ((simple, []), (refined, refined_probes)):
        upgraded = bundle.env.with_spec(LAMBDA_U_MINUS)
        for src in [p for p in probes if p != "l₂ p₀ l₂ l₁" or bundle is simple] + extra:
            t = _term(src, bundle.env)
            assert alpha_eq(infer(bundle.env, t), infer(upgraded, t)), src


def test_whnf_of_looping_term_exhausts_fuel(simple):
    for fuel, budget in ((None, 100_000), (Fuel(10), 10)):
        with pytest.raises(TypeCheckError) as err:
            whnf(simple.env, simple.key_terms["bottomProof"], fuel=fuel)
        assert err.value.kind == "FuelExhausted"
        assert str(err.value) == f"FuelExhausted: conversion exceeded {budget} head steps"


@pytest.mark.parametrize(
    "src, what",
    [
        ("forall (x : x₀), A", "product domain"),
        ("forall (x : A), x", "product codomain"),
        ("fun (x : A) => fun (y : x₀) => y", "abstraction domain"),
        # an outer domain fails before an inner product
        ("fun (x : x₀) => fun (y : A) => A", "abstraction domain"),
    ],
)
def test_not_a_sort_names_the_position(simple, src, what):
    with pytest.raises(TypeCheckError) as err:
        infer(simple.env, _term(src, simple.env))
    assert str(err.value) == f"NotASort: {what} is not classified by a sort"


def test_let_definition_is_transparent_in_body(simple):
    # let q := p₀ in l₂ q l₂ l₁ needs q ≡ p₀ while checking the body, which
    # the sugared application (fun (q : Pow A) => ...) p₀ cannot provide.
    env = simple.env
    good = _term("let q : Pow A := p₀ in l₂ q l₂ l₁", env)
    ty = infer(env, good)
    assert convert(env, ty, Const("⊥"))
    bad = _term("(fun (q : Pow A) => l₂ q l₂ l₁) p₀", env)
    with pytest.raises(TypeCheckError) as err:
        infer(env, bad)
    assert err.value.kind == "DomainMismatch"


def test_infer_unknown_constant(simple):
    # A rewrite rule's name is no term either.
    rules = run_program(
        "system lambda-hol.\nconst A : *.\nconst a : A.\nconst f : A -> A.\n"
        "rewrite r : f $x => a.\n"
    ).env
    for env, name, detail in (
        (simple.env, "ghost", "unknown constant ghost"),
        (rules, "r", "r names a rewrite rule, not a term"),
    ):
        with pytest.raises(TypeCheckError) as err:
            infer(env, Const(name))
        assert err.value.kind == "UnknownConstant"
        assert err.value.detail == detail


# The Church-numeral prelude of bench/gen.py, with numerals written as
# ``succ (… zero)``.
NAT_PRELUDE = """system lambda-hol.
def Nat : * := forall (X : *), (X -> X) -> X -> X.
def zero : Nat := fun (X : *) (s : X -> X) (z : X) => z.
def succ : Nat -> Nat := fun (n : Nat) (X : *) (s : X -> X) (z : X) => s (n X s z).
def add : Nat -> Nat -> Nat := fun (m : Nat) (n : Nat) (X : *) (s : X -> X) (z : X) => m X s (n X s z).
def mul : Nat -> Nat -> Nat := fun (m : Nat) (n : Nat) (X : *) (s : X -> X) => m X (n X s).
"""


def _numeral(k):
    return "zero" if k == 0 else "succ (" * (k - 1) + "succ zero" + ")" * (k - 1)


CHURCH_DEV = NAT_PRELUDE + "".join(
    f"def n{k} : Nat := {_numeral(k)}.\n" for k in (*range(31), 144, 200, 400)
)


@pytest.fixture(scope="module")
def church():
    return run_program(CHURCH_DEV).env


@pytest.mark.parametrize(
    "a, b", [("add n15 n15", "n30"), ("mul n12 n12", "n144"), ("add n200 n200", "n400")]
)
def test_church_arithmetic_converts_at_default_fuel(church, a, b):
    # Nested numerals share head constants, so lazy delta meets the same
    # sub-problems again after every failed argumentwise comparison, and
    # meets closed ones again under ever more binders.
    assert convert(church, _term(a, church), _term(b, church))


def test_false_church_sum_does_not_convert(church):
    assert not convert(church, _term("add n7 n4", church), _term("n12", church))


def test_conversion_memo_does_not_outlive_its_call(church):
    # Both contexts bind slot 0 at the same depth, to different values.
    nat, two, three = Const("Nat"), Const("n2"), Const("n3")
    assert convert(church, Var(0), two, push((), "k", nat, two))
    assert not convert(church, Var(0), two, push((), "k", nat, three))


def test_conversion_memo_keys_open_problems_by_depth(church):
    # Under k := n2, ``Var(0) ≡ n2`` holds at depth 1, where index 0 is k,
    # and fails at depth 2, where it is the value-less x: pair k (fun x => x)
    # is not pair n2 (fun x => n2).
    env = _extend(church, ("pair", "Nat -> (Nat -> Nat) -> Nat"))
    nat, two = Const("Nat"), Const("n2")
    a = app(Const("pair"), Var(0), Lam("x", nat, Var(0)))
    b = app(Const("pair"), two, Lam("x", nat, two))
    assert not convert(env, a, b, push((), "k", nat, two))


@pytest.mark.parametrize(
    "src, pair",
    [
        ("fun (X : #) => fun (x : A) => A", "(#,##)"),  # the innermost product fails first
        ("fun (X : #) => fun (p : *) => p", "(##,#)"),  # the outer one reads the inner's sort
    ],
)
def test_fun_chain_products_are_formed_inside_out(simple, src, pair):
    with pytest.raises(TypeCheckError) as err:
        infer(simple.env, _term(src, simple.env))
    assert str(err.value) == f"NoRule: no product rule for {pair}"


def test_check_of_a_fun_chain_infers_each_binder_once(monkeypatch):
    # `infer` walks a chain of funs in one loop and takes each body type's
    # sort from the product below it; re-inferring that sort per binder is
    # quadratic in the depth.
    env = run_program("system lambda-hol.\nconst A : *.\nconst f : A -> A.\n").env
    depth = 400
    t, ty = app(Const("f"), Var(depth - 1, "x0")), Const("A")
    for i in reversed(range(depth)):
        t, ty = Lam(f"x{i}", Const("A"), t), Pi("_", Const("A"), ty)
    calls = []
    real = typecheck.infer

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(typecheck, "infer", counting)
    check(env, t, ty)
    assert len(calls) <= 2 * depth


def test_rule_with_more_arguments_than_the_head_is_skipped():
    # `both` needs two arguments; with one, the next rule for `f` fires.
    env = run_program(
        "system lambda-hol.\nconst A : *.\nconst a : A.\nconst b : A.\n"
        "const f : A -> A -> A.\nrewrite both : f $x $y => $y.\n"
        "rewrite one : f $x => fun (y : A) => y.\n"
    ).env
    assert alpha_eq(whnf(env, _term("f a", env)), _term("fun (y : A) => y", env))
    assert whnf(env, _term("f a b", env)) == Const("b")


RIGID_DEV = (
    "system lambda-hol.\nconst A : *.\nconst a : A.\nconst b : A.\nconst c : A.\n"
    "const e : A -> A.\nconst wrap : forall (X : *), X -> X.\nconst g : A -> A -> A -> A.\n"
    "const pair3 : A -> A -> A -> A.\nconst h : A -> A -> A -> A.\n"
    "def d : A -> A := fun (y : A) => (fun (z : A) => wrap A z) y.\n"
    "rewrite r : g (wrap A $x) => pair3 $x.\n"
    "rewrite r2 : h (wrap A $x) (wrap A $y) => pair3 $x $y.\n"
    "const k : forall (X : *), X -> X.\nconst m : (forall (X : *), X -> X) -> A.\n"
    "rewrite r3 : m k => a.\n"
)


def test_rigid_sub_pattern_is_matched_on_the_subject_stack():
    # `d a` shows `wrap` only after a delta and a beta step; the arguments
    # past the pattern stay on the stack, in order.
    env = run_program(RIGID_DEV).env
    fuel = Fuel()
    assert alpha_eq(whnf(env, _term("g (d a) b c", env), fuel=fuel), _term("pair3 a b c", env))
    assert fuel.budget - fuel.left == 4
    # `wrap (A -> A) e a` has one argument more than `wrap A $x`.
    t = _term("g (wrap (A -> A) e a) b c", env)
    assert whnf(env, t) is t
    # `k (forall (X : *), X -> X) k` has two arguments more than the pattern `k`.
    t = _term("m (k (forall (X : *), X -> X) k)", env)
    assert whnf(env, t) is t and not convert(env, t, Const("a"))
    # Two rigid sub-patterns are matched first to last, and the first one that
    # fails stops the match: after `e a`, the second subject is not reduced.
    # Where no rule fires, whnf gives the term back.
    for src, spent, fired in (
        ("h (d a) (d b) c", 7, "pair3 a b c"),
        ("h (d a) (e b) c", 3, None),
        ("h (e a) (d b) c", 0, None),
        ("h (d a)", 0, None),
    ):
        fuel = Fuel()
        out = whnf(env, _term(src, env), fuel=fuel)
        assert fuel.budget - fuel.left == spent, src
        assert alpha_eq(out, _term(fired or src, env)), src
    # A rigid sub-pattern's own rigid argument must match too: `wrap B a`
    # fails against `wrap A $x` at `B`, before `$x` is assigned.
    report = run_program(
        "system lambda-hol.\nconst A : *.\nconst B : *.\nconst a : A.\n"
        "const wrap : * -> A -> A.\nconst h : A -> A.\nrewrite r : h (wrap A $x) => $x.\n"
        "conv (h (wrap A a)) a.\nconv (h (wrap B a)) a.\n"
    )
    assert not report.ok
    assert report.render().splitlines()[-2:] == [
        "ok    conv h (wrap A a) == a",
        "FAIL  conv h (wrap B a) =/= a",
    ]


LET_DEF = (
    "system lambda-hol.\nconst A : *.\nconst a : A.\nconst f : A -> A.\n"
    "def d : A := let y : A := a in y.\ndef g : A -> A := fun (x : A) => f x.\n"
)


def test_whnf_of_a_let_bodied_definition_spends_one_unit_per_event():
    # Unfolding d is one unit and substituting its let another; with one
    # unit only, the let cannot be substituted.
    env = run_program(LET_DEF).env
    fuel = Fuel()
    assert whnf(env, Const("d"), fuel=fuel) == Const("a")
    assert fuel.budget - fuel.left == 2
    assert whnf(env, Const("d"), fuel=Fuel(2)) == Const("a")
    with pytest.raises(TypeCheckError) as err:
        whnf(env, Const("d"), fuel=Fuel(1))
    assert err.value.kind == "FuelExhausted"


LOCAL_VALUE = (
    "const A : *.\nconst a : A.\n"
    "check let F : * := A -> A in fun (f : F) => f a : (A -> A) -> A.\n"
)


def test_whnf_unfolds_a_local_value_for_one_unit():
    # Applying f needs whnf to unfold its type F, a let-bound local value.
    report = run_program(LOCAL_VALUE)
    assert report.ok and report.render() == (
        "ok    const A : *\nok    const a : A\n"
        "ok    check let F : * := A -> A in fun (f : F) => f a : (A -> A) -> A"
    )
    arrow = _term("A -> A", report.env)
    fuel = Fuel()
    assert whnf(report.env, Var(0, "F"), push((), "F", STAR_T, arrow), fuel) is arrow
    assert fuel.budget - fuel.left == 1


def test_fuel_refuses_a_payment_past_its_budget():
    fuel = Fuel(3)
    fuel.spend(3)
    assert fuel.left == 0
    for units in (4, 5):  # one unit past the budget, and two
        fuel = Fuel(3)
        with pytest.raises(TypeCheckError) as err:
            fuel.spend(units)
        assert str(err.value) == "FuelExhausted: conversion exceeded 3 head steps"
        assert fuel.left == -1
    fuel = Fuel(3)
    fuel.spend()
    assert fuel.left == 2


def test_whnf_pays_for_a_template_unfolding_as_a_whole():
    # A fully applied two-parameter definition costs one unit per argument
    # and one for the unfolding; a budget short of that is exhausted.
    env = run_program(LET_DEF + "def p : A -> A -> A := fun (x : A) (y : A) => f y.\n").env
    t = _term("p a a", env)
    fuel = Fuel(3)
    assert whnf(env, t, fuel=fuel) == _term("f a", env)
    assert fuel.left == 0
    for budget in (2, 1):
        fuel = Fuel(budget)
        with pytest.raises(TypeCheckError) as err:
            whnf(env, t, fuel=fuel)
        assert err.value.kind == "FuelExhausted" and fuel.left == -1


def test_whnf_returns_a_head_normal_term_itself():
    env = run_program(LET_DEF).env
    t = _term("f (g a)", env)
    assert whnf(env, t) is t
    # When an event fires, the result is rebuilt.
    out = whnf(env, _term("g (g a)", env))
    assert alpha_eq(out, _term("f (g a)", env))


def test_conversion_fuel_is_pinned(monkeypatch):
    # Every ``convert`` call made while the corpus files and the Church
    # development are checked, with its verdict and the fuel it spent: a
    # change to how conversion reduces must keep both per call.
    calls = []
    real = typecheck.convert

    def recording(env, a, b, ctx=()):
        fuel = Fuel()
        verdict = real(env, a, b, ctx, fuel)
        calls.append((verdict, fuel.budget - fuel.left))
        return verdict

    monkeypatch.setattr(typecheck, "convert", recording)
    monkeypatch.setattr(corpus, "convert", recording)
    corpus_dir = Path(__file__).resolve().parent.parent / "corpus"
    sources = [p.read_text(encoding="utf-8") for p in sorted(corpus_dir.glob("*.pts"))]
    for src in sources + [CHURCH_DEV]:
        assert run_program(src).ok
    digest = hashlib.sha256(repr(calls).encode("ascii")).hexdigest()
    assert (len(calls), sum(spent for _, spent in calls), digest) == (
        1785,
        665,
        "e92d62bcb0eba3460e100f100a983771f8db87cc8c51d5c0954aa9755c122e21",
    )


_ONE_DECL = GlobalEnv(LAMBDA_U_MINUS).extended(Decl("a", STAR_T))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: _ONE_DECL.extended(Decl("a", STAR_T)), DuplicateNameError,
         "name already defined: a"),
        (lambda: infer(_ONE_DECL, Var(0)), TypeCheckError, "UnknownConstant: unbound variable 0"),
        (lambda: trace(_ONE_DECL, Const("a"), "bogus"), KernelError,
         "unknown strategy 'bogus'"),
        (lambda: detect_loop(_ONE_DECL, Const("a"), "bogus"), KernelError,
         "unknown strategy 'bogus'"),
    ],
    ids=["duplicate-name", "unbound-variable", "trace-strategy", "loop-strategy"],
)
def test_kernel_entry_points_reject_bad_input(call, error, message):
    # Error paths that no file, bundle or CLI command reaches: an entry added
    # twice without add_entry, a variable outside its context, a strategy the
    # walks do not know.
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message
