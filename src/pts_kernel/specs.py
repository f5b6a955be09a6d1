"""PTS signatures: sorts, axioms, product rules, and the two stock systems."""

from __future__ import annotations

from typing import Mapping

from .terms import BOX, STAR, TRIANGLE, Sort


class PtsSpec:
    """A pure type system signature.

    ``rules`` maps (s1, s2) to s3; the common binary notation (s1, s2) is the
    triple (s1, s2, s2).  Both stock systems are functional: at most one axiom
    per sort and one rule per pair, which keeps type inference deterministic.
    """

    __slots__ = ("name", "axioms", "rules")
    def __init__(
        self,
        name: str,
        axioms: Mapping[Sort, Sort],
        rules: Mapping[tuple[Sort, Sort], Sort],
    ) -> None:
        self.name, self.axioms, self.rules = name, axioms, rules


def _binary(*pairs: tuple[Sort, Sort]) -> dict[tuple[Sort, Sort], Sort]:
    return {(s1, s2): s2 for s1, s2 in pairs}


LAMBDA_HOL = PtsSpec(
    name="lambda-hol",
    axioms={STAR: BOX, BOX: TRIANGLE},
    rules=_binary((STAR, STAR), (BOX, BOX), (BOX, STAR)),
)

LAMBDA_U_MINUS = PtsSpec(
    name="lambda-u-minus",
    axioms={STAR: BOX, BOX: TRIANGLE},
    rules=_binary((STAR, STAR), (BOX, BOX), (BOX, STAR), (TRIANGLE, BOX)),
)

PRESETS: dict[str, PtsSpec] = {
    LAMBDA_HOL.name: LAMBDA_HOL,
    LAMBDA_U_MINUS.name: LAMBDA_U_MINUS,
}


def with_axiom(spec: PtsSpec, s: Sort, s2: Sort) -> PtsSpec:
    axioms = dict(spec.axioms)
    axioms[s] = s2
    return PtsSpec(spec.name, axioms, spec.rules)


def with_rule(spec: PtsSpec, s1: Sort, s2: Sort, s3: Sort) -> PtsSpec:
    rules = dict(spec.rules)
    rules[(s1, s2)] = s3
    return PtsSpec(spec.name, spec.axioms, rules)
