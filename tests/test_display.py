from pts_kernel.display import fold_display, match_composition, plain_display, raw_display
from pts_kernel.env import GlobalEnv, unfold_all
from pts_kernel.parser import elaborate, parse_term_surface
from pts_kernel.specs import LAMBDA_HOL
from pts_kernel.terms import App, Const, alpha_eq


def _term(src, env):
    return elaborate(parse_term_surface(src), env)


def test_fold_of_raw_expansion_recovers_folded_row(simple):
    env = simple.env
    t = simple.key_terms["bottomProof"]
    raw = unfold_all(env, t)
    assert fold_display(raw, env) == "l₂ p₀ l₂ l₁"


def test_fold_composition_notation(refined):
    env = refined.env
    t = _term("fun (x : A) => p₀ (δ x)", env)
    assert fold_display(t, env) == "p₀∘δ"


def test_fold_plain_constant(simple):
    env = GlobalEnv(LAMBDA_HOL)
    assert fold_display(Const("c"), env) == "c"
    # A name the environment lacks stays as it is; folding goes on below it.
    t = App(Const("c"), unfold_all(simple.env, Const("x₀")))
    assert fold_display(t, simple.env) == "c x₀"


def test_notation_folds_before_constant_folding(refined):
    # δ's own unfolding matches the composition pattern, so the notation wins.
    env = refined.env
    raw = unfold_all(env, Const("δ"))
    assert fold_display(raw, env) == "intro∘match"


def test_later_definitions_fold_first(simple):
    raw = unfold_all(simple.env, Const("l₂"))
    assert fold_display(raw, simple.env) == "l₂"


def test_composition_matcher_rejects_captured_sides(refined):
    env = refined.env
    t = _term("fun (p : Pow A) => p (δ x₀)", env)  # head uses the binder
    assert match_composition(t) is None


def test_printer_grammar_shapes(refined):
    env = refined.env
    assert fold_display(_term("forall (p : *), p", env), env) == "⊥"
    assert plain_display(_term("forall (p : *), p", env)) == "forall (p : *), p"
    assert fold_display(_term("# -> #", env), env) == "# -> #"
    assert fold_display(_term("Pi (X : #) -> (T X -> X) -> X", env), env) == (
        "Pi (X : #) -> (T X -> X) -> X"
    )
    assert fold_display(_term("fun (x : A) (h : p₀ x) => h", env), env) == (
        "fun (x : A) => fun (h : p₀ x) => h"
    )
    assert fold_display(_term("let q : Pow A := p₀ in q x₀", env), env) == (
        "let q : Pow A := p₀ in q x₀"
    )


def test_sorts_print_canonically(simple):
    env = simple.env
    for src in ("*", "#", "##"):
        assert fold_display(_term(src, env), env) == src


def test_application_parenthesization(refined):
    env = refined.env
    t = _term("s₂ (p₀∘δ) (s₂ p₀ l₁)", env)
    assert fold_display(t, env) == "s₂ (p₀∘δ) (s₂ p₀ l₁)"


def test_nested_composition_parenthesization(refined):
    env = refined.env
    t = _term("(p₀∘δ)∘δ", env)
    assert fold_display(t, env) == "(p₀∘δ)∘δ"


def _corpus_terms(bundle):
    for entry in bundle.env.entries:
        if hasattr(entry, "type") and not isinstance(entry.type, property):
            yield entry.type
        if hasattr(entry, "body"):
            yield entry.body
    yield from bundle.key_terms.values()
    yield from bundle.expected_types.values()


def test_fold_parse_unfold_roundtrip(all_bundles):
    for bundle in all_bundles:
        env = bundle.env
        for t in _corpus_terms(bundle):
            shown = fold_display(t, env)
            back = _term(shown, env)
            assert alpha_eq(unfold_all(env, back), unfold_all(env, t)), (
                bundle.id,
                shown,
            )


def test_raw_display_reparses_to_same_unfolding(simple):
    env = simple.env
    t = simple.key_terms["bottomProof"]
    shown = raw_display(t, env)
    back = _term(shown, env)
    assert alpha_eq(unfold_all(env, back), unfold_all(env, t))
