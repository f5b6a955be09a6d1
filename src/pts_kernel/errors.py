"""Error types shared across the kernel."""

from __future__ import annotations


class KernelError(Exception):
    """Base class for every error raised by this package; ``kind`` names
    the failure, per class or, for a ``TypeCheckError``, per instance."""

    kind = "KernelError"


class ParseError(KernelError):
    kind = "ParseError"

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class DuplicateNameError(KernelError):
    kind = "DuplicateName"

    def __init__(self, name: str) -> None:
        super().__init__(f"name already defined: {name}")
        self.name = name


class IllFormedPatternError(KernelError):
    kind = "IllFormedPattern"


# Kind tags for TypeCheckError.  Kept as plain strings so errors render and
# compare without extra machinery.
UNKNOWN_CONSTANT = "UnknownConstant"
NO_AXIOM = "NoAxiom"
NO_RULE = "NoRule"
NOT_A_FUNCTION = "NotAFunction"
DOMAIN_MISMATCH = "DomainMismatch"
NOT_A_SORT = "NotASort"
FUEL_EXHAUSTED = "FuelExhausted"


class TypeCheckError(KernelError):
    """A failed typing judgment.

    ``kind`` is one of the tags above and ``detail`` is a rendered
    explanation.  ``NoRule`` errors additionally carry the offending sort pair
    in ``rule_pair``.
    """

    def __init__(self, kind: str, detail: str, rule_pair: tuple[str, str] | None = None) -> None:
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail
        self.rule_pair = rule_pair
