"""Acceptance suite: one test per shipped claim, printed pass/fail per line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  Criterion 6 is implemented exactly as stated and is expected
to fail; see the companion regression test and the decisions ledger note for
the measured outcome it pins.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from naive_reducer import is_subsequence, naive_states

from pts_kernel.corpus import CORPUS_DIR, get_bundle
from pts_kernel.cli import main, run_program
from pts_kernel.display import fold_display
from pts_kernel.env import Decl, add_entry, unfold_all
from pts_kernel.parser import elaborate, parse_term_surface
from pts_kernel.reduce import ANNOTATIONS, HEAD_DEF, POLY, detect_loop, trace
from pts_kernel.terms import alpha_eq
from pts_kernel.typecheck import check, convert, infer

_SUITE_T0 = time.perf_counter()
GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} FAIL — {description}")
        raise
    print(f"\nACCEPTANCE {number} PASS — {description}")


def _term(src, env):
    return elaborate(parse_term_surface(src), env)


def test_criterion_1_paradoxes_typecheck():
    with criterion(1, "bottomProof : ⊥ in all five bundles, each under 1 s"):
        for bid in (
            "simple",
            "refined-axiomatic",
            "reynolds-A",
            "hurkens-B-match1",
            "hurkens-B-match2",
        ):
            cached = get_bundle(bid)
            src = (CORPUS_DIR / f"{bid.lower()}.pts").read_text(encoding="utf-8")
            t0 = time.perf_counter()
            env = run_program(src).env
            bottom = _term("forall (p : *), p", env)
            check(env, cached.key_terms["bottomProof"], bottom)
            elapsed = time.perf_counter() - t0
            assert elapsed < 1.0, f"{bid} took {elapsed:.2f}s"


def test_criterion_2_judgmental_equalities():
    with criterion(2, "retract, square, and functor equalities hold by pure beta-delta"):
        for bid in ("reynolds-A", "hurkens-B-match1", "hurkens-B-match2"):
            bundle = get_bundle(bid)
            env = bundle.env
            assert not any(env.rules_for(e.name) for e in env.entries)
            assert bundle.conv_goals, bid
            for a, b in bundle.conv_goals:
                assert convert(env, a, b), bid
            carrier = "A" if bid == "reynolds-A" else "B"
            ctx_env = add_entry(env, Decl("X", _term("#", env)))
            ctx_env = add_entry(ctx_env, Decl("f", _term("T X -> X", ctx_env)))
            lhs = _term("(ι X f)∘intro", ctx_env)
            rhs = _term(f"f∘(Tmap {carrier} X (ι X f))", ctx_env)
            assert convert(ctx_env, lhs, rhs), bid
            fn_env = add_entry(ctx_env, Decl("Y", _term("#", ctx_env)))
            fn_env = add_entry(fn_env, Decl("g", _term("X -> Y", fn_env)))
            fn_env = add_entry(fn_env, Decl("h", _term("Y -> X", fn_env)))
            lhs = _term("Tmap X X (h∘g)", fn_env)
            rhs = _term("(Tmap Y X h)∘(Tmap X Y g)", fn_env)
            assert convert(fn_env, lhs, rhs), bid


def test_criterion_3_negative_result():
    with criterion(3, "reynolds-A under lambda-hol fails with NoRule(##,#) at A"):
        src = (CORPUS_DIR / "reynolds-a.pts").read_text(encoding="utf-8")
        report = run_program(src, system_override="lambda-hol")
        assert not report.ok
        assert report.failed_entry == "A"
        assert report.error is not None
        assert report.error.kind == "NoRule"
        assert report.error.rule_pair == ("##", "#")
        assert run_program(src).ok  # sanity: fine under its own header


def test_criterion_4_simple_golden_trace():
    with criterion(4, "simple paradox trace is byte-exact and loops with period 2"):
        bundle = get_bundle("simple")
        tr = trace(bundle.env, bundle.key_terms["bottomProof"], HEAD_DEF, 10)
        assert tr.displays == [
            "l₂ p₀ l₂ l₁",
            "l₁ x₀ l₂ l₁",
            "l₂ p₀ l₂ l₁",
        ]
        golden = GOLDEN / "simple-head-def.txt"
        assert "\n".join(tr.displays) + "\n" == golden.read_text(encoding="utf-8")
        report = detect_loop(bundle.env, bundle.key_terms["bottomProof"], HEAD_DEF, 10)
        assert (report.found, report.entry, report.period) == (True, 0, 2)


def test_criterion_5_refined_golden_trace():
    with criterion(5, "refined trace reproduces the five table rows; no loop in 1000"):
        bundle = get_bundle("refined-axiomatic")
        tr = trace(bundle.env, bundle.key_terms["bottomProof"], HEAD_DEF, 5)
        assert len(tr.displays) == 6  # start row plus the table's five steps
        assert tr.displays[-1] == (
            "l₁ (δ x₀) (s₁ x₀ l₂)"
            " (s₂ (p₀∘δ) (s₂ p₀ l₁))"
        )
        golden = GOLDEN / "refined-axiomatic-head-def.txt"
        assert "\n".join(tr.displays) + "\n" == golden.read_text(encoding="utf-8")
        report = detect_loop(bundle.env, bundle.key_terms["bottomProof"], HEAD_DEF, 1000)
        assert not report.found


@pytest.mark.xfail(
    strict=True,
    reason=(
        "No erasure mode makes the refined or reynolds-A paradox revisit an "
        "alpha-exact reduction state: each cycle grows the term-level "
        "s1/s2/composition decorations, which erasure only collapses up to "
        "conversion, never syntactically.  Measured found=false for every "
        "(bundle, mode) at bound 10000; see the regression pin below and the "
        "decisions ledger."
    ),
)
def test_criterion_6_erased_looping_as_specified():
    with criterion(6, "some erasure mode makes the erased refined paradox revisit a state"):
        results = {}
        for bid in ("refined-axiomatic", "reynolds-A"):
            bundle = get_bundle(bid)
            for mode in (ANNOTATIONS, POLY):
                report = detect_loop(
                    bundle.env, bundle.key_terms["bottomProof"], HEAD_DEF, 10000, mode=mode
                )
                results[(bid, mode)] = report
        assert any(r.found for r in results.values()), {
            k: (r.found, r.steps) for k, r in results.items()
        }


def test_criterion_6_regression_pin_of_measured_outcome():
    """Pins the actual first-run measurements behind criterion 6.

    The erased refined-family paradoxes reach the 10000-step bound without a
    repeat under both erasure modes, while the simple paradox, erased either
    way, still cycles immediately (entry 0, period 2), confirming the erased
    reduction pipeline itself works.
    """
    with criterion(6, "regression pin: measured erased-loop outcomes"):
        for bid in ("refined-axiomatic", "reynolds-A"):
            bundle = get_bundle(bid)
            for mode in (ANNOTATIONS, POLY):
                report = detect_loop(
                    bundle.env, bundle.key_terms["bottomProof"], HEAD_DEF, 10000, mode=mode
                )
                assert not report.found and report.steps == 10000, (bid, mode)
        simple = get_bundle("simple")
        for mode in (ANNOTATIONS, POLY):
            report = detect_loop(
                simple.env, simple.key_terms["bottomProof"], HEAD_DEF, 10000, mode=mode
            )
            assert (report.found, report.entry, report.period) == (True, 0, 2), mode


def test_criterion_7_oracle_equivalence():
    with criterion(7, "golden trace rows agree with the naive full-substitution reducer"):
        for bid in ("simple", "refined-axiomatic"):
            bundle = get_bundle(bid)
            golden = GOLDEN / f"{bid}-head-def.txt"
            rows = golden.read_text(encoding="utf-8").splitlines()
            tr = trace(bundle.env, bundle.key_terms["bottomProof"], HEAD_DEF, len(rows) - 1)
            assert tr.displays == rows
            assert all(s.kind != "rewrite-fire" for s in tr.steps)
            states = [unfold_all(bundle.env, tr.start)] + [
                unfold_all(bundle.env, s.raw) for s in tr.steps
            ]
            oracle = naive_states(bundle.env, states[0], 300)
            assert is_subsequence(states, oracle), bid


def _probe_terms(bundle, sources):
    return [_term(src, bundle.env) for src in sources]


def test_criterion_8_property_suites():
    with criterion(8, "subject reduction, conversion equivalence, round-trips, timing"):
        # Subject reduction along every golden trace.
        for bid in ("simple", "refined-axiomatic"):
            bundle = get_bundle(bid)
            golden = GOLDEN / f"{bid}-head-def.txt"
            rows = golden.read_text(encoding="utf-8").splitlines()
            tr = trace(bundle.env, bundle.key_terms["bottomProof"], HEAD_DEF, len(rows) - 1)
            ty = infer(bundle.env, tr.start)
            for step in tr.steps:
                assert convert(bundle.env, ty, infer(bundle.env, step.raw))

        # Conversion is an equivalence on the corpus probe pairs (all
        # normalizing type-level terms; proof terms of the paradoxes diverge
        # under reduction and correctly exhaust fuel instead).
        simple = get_bundle("simple")
        refined = get_bundle("refined-axiomatic")
        probes = _probe_terms(
            simple,
            [
                "X₀ p₀",
                "match x₀ p₀",
                "forall (x : A), C p₀ x",
                "p₀ x₀",
                "forall (p : Pow A), C p x₀",
                "C p₀ x₀",
                "⊥",
                "forall (p : *), p",
                "Pow A",
                "A -> *",
            ],
        )
        refined_probes = _probe_terms(
            refined,
            [
                "X₀ p₀",
                "match x₀ p₀",
                "X₀ (p₀∘δ)",
                "p₀ x₀",
                "forall (p : Pow A), p (δ x₀) -> ¬ (match x₀ p)",
                "¬ (X₀ p₀)",
                "X₀ p₀ -> ⊥",
                "⊥",
                "T A",
                "Pow (Pow A)",
            ],
        )
        pair_count = 0
        for env, terms in ((simple.env, probes), (refined.env, refined_probes)):
            n = len(terms)
            matrix = [[convert(env, terms[i], terms[j]) for j in range(n)] for i in range(n)]
            for i in range(n):
                assert matrix[i][i]
                for j in range(n):
                    pair_count += i < j
                    assert matrix[i][j] == matrix[j][i]
                    for k in range(n):
                        if matrix[i][j] and matrix[j][k]:
                            assert matrix[i][k]
        assert pair_count >= 20

        # Display round-trip over every corpus term.
        for bid in (
            "simple",
            "refined-axiomatic",
            "reynolds-A",
            "hurkens-B-match1",
            "hurkens-B-match2",
        ):
            bundle = get_bundle(bid)
            env = bundle.env
            everything = [
                t
                for entry in env.entries
                for t in (
                    [entry.type, getattr(entry, "body", None)]
                    if hasattr(entry, "type")
                    else []
                )
                if t is not None
            ] + list(bundle.key_terms.values())
            for t in everything:
                back = _term(fold_display(t, env), env)
                assert alpha_eq(unfold_all(env, back), unfold_all(env, t))

        # The whole acceptance module must stay well under the suite budget.
        assert time.perf_counter() - _SUITE_T0 < 60.0


def test_acceptance_cli_contract(capsys):
    """Exit-status companion to criteria 1 and 3, exercised end to end."""
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    for name in sorted(p.name for p in corpus.glob("*.pts")):
        assert main(["check", str(corpus / name)]) == 0
    capsys.readouterr()
    assert main(["check", str(corpus / "reynolds-a.pts"), "--system", "lambda-hol"]) == 1
    out = capsys.readouterr().out
    assert "NoRule" in out
