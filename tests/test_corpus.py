import os
import subprocess
import sys
from pathlib import Path

import pytest

from pts_kernel import corpus
from pts_kernel.cli import main
from pts_kernel.corpus import BUNDLE_IDS, get_bundle
from pts_kernel.env import Decl, Rewrite, add_entry
from pts_kernel.parser import elaborate, parse_term_surface
from pts_kernel.reduce import REWRITE_FIRE, head_def_step
from pts_kernel.typecheck import check, convert, infer

ROOT = Path(__file__).resolve().parent.parent


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


def test_bundles_load_outside_the_repository(tmp_path):
    # The corpus directory is found from the package, not from the working directory.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "pts_kernel", "loop", "simple", "bottomProof", "--bound", "10"],
        cwd=tmp_path, env=env, capture_output=True, text=True, encoding="utf-8",
    )
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == "found=true entry=0 period=2 (bound=10, steps=2)\n"


SIMPLE_HEAD = (ROOT / "corpus" / "simple.pts").read_text(encoding="utf-8").split("\ncheck ")[0]


@pytest.mark.parametrize(
    "src, message",
    [
        (None, "simple.pts"),  # the OS error names the file
        (SIMPLE_HEAD + "\ncheck l₂ p₀ l₂ : ⊥.\n", "cannot load"),
        (SIMPLE_HEAD + "\nconv (l₂) (l₂).\n", "holds 0 check directives, not 1"),
    ],
    ids=["missing", "fails-to-check", "no-check"],
)
def test_broken_corpus_file_is_an_error(tmp_path, monkeypatch, capsys, src, message):
    monkeypatch.setattr(corpus, "CORPUS_DIR", tmp_path)
    monkeypatch.setattr(corpus, "_CACHE", {})
    if src is not None:
        (tmp_path / "simple.pts").write_text(src, encoding="utf-8")
    assert main(["loop", "simple", "bottomProof", "--bound", "10"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
