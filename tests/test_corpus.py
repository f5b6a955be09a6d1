from pathlib import Path

import pytest

from pts_kernel.cli import run_program
from pts_kernel.corpus import BUNDLE_IDS, ParadoxBundle, get_bundle, render_bundle
from pts_kernel.env import Decl, Def, Rewrite, add_entry, unfold_all
from pts_kernel.parser import elaborate, parse_term_surface
from pts_kernel.reduce import REWRITE_FIRE, head_def_step, trace
from pts_kernel.terms import alpha_eq
from pts_kernel.typecheck import check, convert, infer

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def _term(src, env):
    return elaborate(parse_term_surface(src), env)


def test_every_key_term_checks(all_bundles):
    for bundle in all_bundles:
        for name, t in bundle.key_terms.items():
            check(bundle.env, t, bundle.expected_types[name])


def test_simple_lemma_types(simple):
    env = simple.env
    check(env, _term("l₁", env), _term("X₀ p₀", env))
    check(env, _term("l₂", env), _term("p₀ x₀", env))
    # X₀ p₀ and match x₀ p₀ name the same proposition under the retract rule.
    assert convert(env, _term("X₀ p₀", env), _term("match x₀ p₀", env))


def test_refined_lemma_types(refined):
    env = refined.env
    check(env, _term("l₀", env), _term("forall (p : Pow A), p x₀ -> ¬ (X₀ p)", env))
    check(env, _term("l₁", env), _term("X₀ p₀", env))
    check(env, _term("l₂", env), _term("p₀ x₀", env))


def test_rewrite_rule_budget(all_bundles):
    for bundle in all_bundles:
        rules = [e for e in bundle.env.entries if isinstance(e, Rewrite)]
        if bundle.id in ("simple", "refined-axiomatic"):
            assert len(rules) == 1
        else:
            assert rules == []


def test_impredicative_bundles_have_no_declarations(reynolds, hurkens1, hurkens2):
    for bundle in (reynolds, hurkens1, hurkens2):
        assert not any(isinstance(e, Decl) for e in bundle.env.entries)


def test_judgmental_functor_law(reynolds, hurkens1, hurkens2):
    for bundle in (reynolds, hurkens1, hurkens2):
        env = bundle.env
        for name, ty in (("X", "#"), ("Y", "#"), ("Z", "#")):
            env = add_entry(env, Decl(name, _term(ty, env)))
        env = add_entry(env, Decl("f", _term("X -> Y", env)))
        env = add_entry(env, Decl("g", _term("Y -> Z", env)))
        lhs = _term("Tmap X Z (g∘f)", env)
        rhs = _term("(Tmap Y Z g)∘(Tmap X Y f)", env)
        assert convert(env, lhs, rhs), bundle.id


def test_rewrite_rules_preserve_types(simple, refined):
    for bundle in (simple, refined):
        env = bundle.env
        rule = env.rules_for("match")[0]
        redex = _term("match (intro X₀)", env)
        kind, fired, contractum = head_def_step(env, redex)
        assert (kind, fired) == (REWRITE_FIRE, rule.name)
        assert convert(env, infer(env, redex), infer(env, contractum)), bundle.id


def test_golden_traces_reproduced(all_bundles):
    for bundle in all_bundles:
        for strategy, rows in bundle.golden_traces.items():
            tr = trace(bundle.env, bundle.key_terms["bottomProof"], strategy, len(rows) - 1)
            assert tr.displays == rows, bundle.id


def test_checked_in_files_match_builders(all_bundles):
    for bundle in all_bundles:
        path = CORPUS_DIR / f"{bundle.id.lower()}.pts"
        assert path.exists(), f"missing generated corpus file {path}"
        assert path.read_text(encoding="utf-8") == render_bundle(bundle)


def test_files_rebuild_identical_environments(all_bundles):
    for bundle in all_bundles:
        src = render_bundle(bundle)
        env = run_program(src).env
        assert env.spec.name == bundle.preset_name
        assert len(env.entries) == len(bundle.env.entries)
        for rebuilt, original in zip(env.entries, bundle.env.entries):
            assert type(rebuilt) is type(original)
            assert rebuilt.name == original.name
            if isinstance(original, (Decl, Def)):
                assert alpha_eq(
                    unfold_all(env, rebuilt.type), unfold_all(bundle.env, original.type)
                )
            if isinstance(original, Def):
                assert alpha_eq(
                    unfold_all(env, rebuilt.body), unfold_all(bundle.env, original.body)
                )


def test_rendered_rule_names_metavariables_by_index():
    # The parser numbers $k 0 and $h 1, so naming them in appearance order
    # would print the right-hand side as `$k K $h`.
    src = (
        "system lambda-u-minus.\nconst K : #.\n"
        "const f : (Pi (X : #) -> X -> X) -> K -> K.\n"
        "rewrite r : f $h $k => $h K $k.\n"
    )
    bundle = ParadoxBundle("rule", "lambda-u-minus", run_program(src).env, {}, {})
    assert "rewrite r : f $h $k => $h K $k." in render_bundle(bundle).splitlines()


def test_bundle_registry_is_complete():
    assert set(BUNDLE_IDS) == {
        "simple",
        "refined-axiomatic",
        "reynolds-A",
        "hurkens-B-match1",
        "hurkens-B-match2",
    }
    for bid in BUNDLE_IDS:
        assert get_bundle(bid).id == bid
    with pytest.raises(KeyError):
        get_bundle("nope")
