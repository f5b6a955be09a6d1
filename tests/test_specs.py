from pts_kernel.specs import LAMBDA_HOL, LAMBDA_U_MINUS, axiom_of, rule_of
from pts_kernel.terms import BOX, STAR, TRIANGLE


def test_axioms():
    assert axiom_of(LAMBDA_HOL, STAR) is BOX
    assert axiom_of(LAMBDA_HOL, BOX) is TRIANGLE
    assert axiom_of(LAMBDA_U_MINUS, TRIANGLE) is None


def test_rules():
    assert rule_of(LAMBDA_U_MINUS, TRIANGLE, BOX) is BOX
    assert rule_of(LAMBDA_HOL, TRIANGLE, BOX) is None
    assert rule_of(LAMBDA_HOL, STAR, STAR) is STAR
    assert rule_of(LAMBDA_HOL, BOX, STAR) is STAR
    assert rule_of(LAMBDA_HOL, BOX, BOX) is BOX


def test_stock_rule_sets_are_nested():
    assert set(LAMBDA_HOL.rules) < set(LAMBDA_U_MINUS.rules)
    for pair, s3 in LAMBDA_HOL.rules.items():
        assert LAMBDA_U_MINUS.rules[pair] is s3


def test_axiom_relation_is_a_partial_function():
    for spec in (LAMBDA_HOL, LAMBDA_U_MINUS):
        assert len(spec.axioms) == len(set(spec.axioms))
        for s, s2 in spec.axioms.items():
            assert axiom_of(spec, s) is s2
