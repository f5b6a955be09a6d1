from pts_kernel.specs import LAMBDA_HOL, LAMBDA_U_MINUS
from pts_kernel.terms import BOX, STAR, TRIANGLE


def test_axioms():
    assert LAMBDA_HOL.axioms.get(STAR) is BOX
    assert LAMBDA_HOL.axioms.get(BOX) is TRIANGLE
    assert LAMBDA_U_MINUS.axioms.get(TRIANGLE) is None


def test_rules():
    assert LAMBDA_U_MINUS.rules.get((TRIANGLE, BOX)) is BOX
    assert LAMBDA_HOL.rules.get((TRIANGLE, BOX)) is None
    assert LAMBDA_HOL.rules.get((STAR, STAR)) is STAR
    assert LAMBDA_HOL.rules.get((BOX, STAR)) is STAR
    assert LAMBDA_HOL.rules.get((BOX, BOX)) is BOX


def test_stock_rule_sets_are_nested():
    assert set(LAMBDA_HOL.rules) < set(LAMBDA_U_MINUS.rules)
    for pair, s3 in LAMBDA_HOL.rules.items():
        assert LAMBDA_U_MINUS.rules[pair] is s3


def test_axiom_relation_is_a_partial_function():
    for spec in (LAMBDA_HOL, LAMBDA_U_MINUS):
        assert len(spec.axioms) == len(set(spec.axioms))
        for s, s2 in spec.axioms.items():
            assert spec.axioms.get(s) is s2
