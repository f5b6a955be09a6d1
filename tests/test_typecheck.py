import pytest

from pts_kernel.cli import run_program
from pts_kernel.env import Decl, add_entry
from pts_kernel.errors import TypeCheckError
from pts_kernel.parser import elaborate, parse_term_surface
from pts_kernel.specs import LAMBDA_U_MINUS
from pts_kernel.terms import BOX_T, Const, Lam, Pi, SortT, Var, alpha_eq, app
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
    from pts_kernel.terms import spine

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
        for a_src, b_src in bundle.conv_goals:
            a = _term(a_src, bundle.env)
            b = _term(b_src, bundle.env)
            assert convert(bundle.env, a, b), (bundle.id, a_src, b_src)


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
    "src, what", [("forall (x : x₀), A", "product domain"), ("forall (x : A), x", "product codomain")]
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
    with pytest.raises(TypeCheckError) as err:
        infer(simple.env, Const("ghost"))
    assert err.value.kind == "UnknownConstant"


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


@pytest.fixture(scope="module")
def church():
    defs = "".join(f"def n{k} : Nat := {_numeral(k)}.\n" for k in (*range(31), 144, 200, 400))
    return run_program(NAT_PRELUDE + defs).env


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
