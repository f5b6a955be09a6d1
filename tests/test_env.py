import pytest

from pts_kernel.env import (
    Decl,
    Def,
    GlobalEnv,
    Rewrite,
    add_entry,
    unfold_all,
)
from pts_kernel.errors import (
    DuplicateNameError,
    IllFormedPatternError,
    TypeCheckError,
)
from pts_kernel.parser import build_rewrite, elaborate, parse_term_surface
from pts_kernel.reduce import REWRITE_FIRE, head_def_step
from pts_kernel.specs import LAMBDA_HOL, LAMBDA_U_MINUS
from pts_kernel.terms import BOX_T, HOLE, App, Const, Lam, Let, Var, alpha_eq, app
from pts_kernel.typecheck import whnf


def _term(src, env, **kw):
    return elaborate(parse_term_surface(src), env, **kw)


def test_add_parametric_power_set_definition_to_hol_base():
    env = GlobalEnv(LAMBDA_HOL)
    ty = _term("# -> #", env)
    body = _term("fun (X : #) => X -> *", env)
    out = add_entry(env, Def("Pow", ty, body))
    assert "Pow" in out
    assert out.lookup("Pow").body == body


def test_add_retract_rewrite_to_simple_env(simple):
    # The simple bundle already carries the rule; adding a copy under a fresh
    # name must typecheck the same way.
    rule = build_rewrite(
        simple.env,
        "retract2",
        parse_term_surface("match (intro $u)"),
        parse_term_surface("$u"),
    )
    out = add_entry(simple.env, rule)
    assert out.rules_for("match")[-1].name == "retract2"


def test_add_decl_needing_missing_rule_fails():
    env = GlobalEnv(LAMBDA_HOL)
    ty = _term("Pi (X : #) -> X", env)
    with pytest.raises(TypeCheckError) as err:
        add_entry(env, Decl("bad", ty))
    assert err.value.kind == "NoRule"
    assert err.value.rule_pair == ("##", "#")


def test_duplicate_names_rejected(simple):
    with pytest.raises(DuplicateNameError):
        add_entry(simple.env, Decl("A", BOX_T))


def test_lookup_finds_entries(simple, reynolds):
    intro = reynolds.env.lookup("intro")
    assert isinstance(intro, Def)
    assert alpha_eq(intro.type, _term("T A -> A", reynolds.env))
    a = simple.env.lookup("A")
    assert isinstance(a, Decl)
    assert a.type == BOX_T


def test_lookup_unknown_constant():
    env = GlobalEnv(LAMBDA_HOL)
    with pytest.raises(TypeCheckError) as err:
        env.lookup("x")
    assert err.value.kind == "UnknownConstant"


def test_rule_fire_binds_metavariable(simple):
    env = simple.env
    t = _term("match (intro X₀)", env)
    assert head_def_step(env, t) == (REWRITE_FIRE, "retract", Const("X₀"))
    assert whnf(env, t) == env.def_body("X₀")


def test_rule_fire_requires_head_constant(simple):
    env = simple.env
    t = _term("intro X₀", env)  # the rule's head is match
    assert head_def_step(env, t) is None
    assert whnf(env, t) == t


def _pattern_env():
    env = GlobalEnv(LAMBDA_HOL)
    for name, ty in [("A", "*"), ("a", "A"), ("f", "A -> A -> A"), ("g", "A -> A")]:
        env = add_entry(env, Decl(name, _term(ty, env)))
    return env


def test_left_linearity_enforced():
    # A rule built without the parser: add_entry's check refuses it.
    lhs = app(Const("f"), Var(0, "u"), Var(0, "u"))
    with pytest.raises(IllFormedPatternError) as err:
        add_entry(_pattern_env(), Rewrite("r", lhs, Var(0, "u")))
    assert str(err.value) == "metavariable $u occurs twice"


@pytest.mark.parametrize(
    "lhs, message",
    [
        (app(Const("f"), Var(2, "x"), Var(0, "y")), "metavariable indices must be dense"),
        (App(Var(0, "x"), Const("a")), "pattern head must be a constant"),
        (
            App(Const("g"), Lam("x", Const("A"), Var(0, "x"))),
            "pattern arguments are metavariables or constant spines",
        ),
    ],
    ids=["sparse-indices", "var-head", "fun-argument"],
)
def test_ill_formed_term_patterns_are_refused(lhs, message):
    with pytest.raises(IllFormedPatternError) as err:
        add_entry(_pattern_env(), Rewrite("r", lhs, Const("a")))
    assert str(err.value) == message


def test_unchecked_extension_refuses_a_rule_without_a_constant_head():
    # `extended` and the constructor skip add_entry's check; indexing the
    # rule by its head still refuses it with a kernel error.
    rule = Rewrite("r", Var(0, "x"), Var(0, "x"))
    env = GlobalEnv(LAMBDA_HOL)
    for build in (lambda: env.extended(rule), lambda: GlobalEnv(LAMBDA_HOL, [rule])):
        with pytest.raises(IllFormedPatternError, match="^pattern head must be a constant$"):
            build()
    assert "r" not in env and env.extended(Decl("r", BOX_T)).entries == (Decl("r", BOX_T),)


def test_rewrite_head_must_be_declared(simple):
    with pytest.raises(IllFormedPatternError):
        build_rewrite(
            simple.env,
            "bad",
            parse_term_surface("p₀ $u"),  # p₀ is defined, not declared
            parse_term_surface("$u"),
        )


def test_extension_is_monotone(simple):
    from pts_kernel.typecheck import check

    extended = add_entry(simple.env, Decl("extra", BOX_T))
    check(extended, simple.key_terms["bottomProof"], simple.expected_types["bottomProof"])


def test_forked_extension_is_independent_of_its_sibling(simple):
    # A private copy of simple.env, so that the first extension appends to
    # its table and the second, from the same environment, forks it.
    env = GlobalEnv(simple.env.spec, simple.env.entries)
    p0 = unfold_all(env, Const("p₀"))
    rule = build_rewrite(
        env, "retract2", parse_term_surface("match (intro $u)"), parse_term_surface("$u")
    )
    sibling = add_entry(add_entry(env, Def("q", _term("Pow A", env), Const("p₀"))), rule)
    assert sibling.fold_name(p0) == "q"  # the younger definition wins
    sibling_q = unfold_all(sibling, Const("q"))  # cached on the sibling's table

    fork = add_entry(env, Decl("q", BOX_T))  # the sibling's name, reused
    assert isinstance(fork.lookup("q"), Decl)
    assert "retract2" not in fork
    assert [r.name for r in fork.rules_for("match")] == ["retract"]
    assert fork.fold_name(p0) == "p₀"
    assert unfold_all(fork, Const("q")) == Const("q")

    assert [r.name for r in env.rules_for("match")] == ["retract"]
    assert env.fold_name(p0) == "p₀"
    for read in (env.lookup, lambda name: unfold_all(env, Const(name))):
        with pytest.raises(TypeCheckError) as err:
            read("q")
        assert err.value.kind == "UnknownConstant"
    assert unfold_all(sibling, Const("q")) is sibling_q


def test_with_spec_keeps_entries_and_table(simple):
    env = GlobalEnv(simple.env.spec, simple.env.entries)
    other = env.with_spec(LAMBDA_U_MINUS)
    assert other.spec is LAMBDA_U_MINUS
    assert other.entries == env.entries
    # One table: an unfolding cached through one view is the other's too.
    assert unfold_all(other, Const("l₂")) is unfold_all(env, Const("l₂"))


def test_unfold_all_idempotent_on_key_terms(all_bundles):
    for bundle in all_bundles:
        for t in bundle.key_terms.values():
            once = unfold_all(bundle.env, t)
            assert alpha_eq(once, unfold_all(bundle.env, once))


def test_unfold_all_keeps_declared_constants(simple):
    t = unfold_all(simple.env, Const("A"))
    assert t == Const("A")


def test_unfold_all_rejects_the_erasure_leaf(simple):
    # Erased terms are reduced and printed, never unfolded: the leaf names
    # no entry, so unfolding it fails like any missing name.
    with pytest.raises(TypeCheckError) as err:
        unfold_all(simple.env, App(Const("l₁"), HOLE))
    assert err.value.kind == "UnknownConstant"


def test_unfold_all_expands_let():
    env = GlobalEnv(LAMBDA_HOL)
    t = Let("x", BOX_T, Const("c"), Var(0, "x"))
    env = add_entry(env, Decl("c", BOX_T))
    assert unfold_all(env, t) == Const("c")


def test_unfold_all_unknown_constant():
    env = GlobalEnv(LAMBDA_HOL)
    with pytest.raises(TypeCheckError):
        unfold_all(env, Const("mystery"))
