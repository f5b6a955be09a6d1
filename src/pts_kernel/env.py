"""Global environments: declarations, transparent definitions, rewrite rules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import DuplicateNameError, IllFormedPatternError, TypeCheckError, UNKNOWN_CONSTANT
from .specs import PtsSpec
from .terms import HOLE, App, Const, Term, shift, spine, subst


@dataclass(frozen=True)
class MetaArg:
    """Pattern metavariable; ``index`` is its position in appearance order."""

    index: int
    hint: str


@dataclass(frozen=True)
class Pattern:
    """Left-linear pattern: a declared constant applied to metavariables or
    rigid subpatterns."""

    head: str
    args: tuple[Union[MetaArg, "Pattern"], ...] = ()

    def metavars(self) -> list[MetaArg]:
        out: list[MetaArg] = []
        for a in self.args:
            if isinstance(a, MetaArg):
                out.append(a)
            else:
                out.extend(a.metavars())
        return out

    def validate(self) -> None:
        seen = set()
        for m in self.metavars():
            if m.index in seen:
                raise IllFormedPatternError(f"metavariable ${m.hint} occurs twice")
            seen.add(m.index)
        if sorted(seen) != list(range(len(seen))):
            raise IllFormedPatternError("metavariable indices must be dense")


@dataclass(frozen=True)
class Decl:
    name: str
    type: Term


@dataclass(frozen=True)
class Def:
    name: str
    type: Term
    body: Term


@dataclass(frozen=True)
class Rewrite:
    """Head rewrite rule; fires left-to-right after unfolding exposes ``lhs.head``.

    ``rhs`` is a term over the rule's metavariables: metavariable ``i``
    appears as ``Var(i + d)`` under ``d`` local binders.
    """

    name: str
    lhs: Pattern
    rhs: Term


EnvEntry = Union[Decl, Def, Rewrite]


class GlobalEnv:
    """Ordered, persistent sequence of entries over a fixed PTS signature.

    Extension returns a new environment; instances are never mutated after
    construction, so caches on them are safe to share between readers.
    """

    __slots__ = (
        "spec",
        "entries",
        "_by_name",
        "_order",
        "_rules",
        "_unfold_cache",
        "_fold_index",
    )

    def __init__(self, spec: PtsSpec, entries: tuple[EnvEntry, ...] = ()) -> None:
        self.spec = spec
        self.entries = entries
        self._by_name: dict[str, EnvEntry] = {e.name: e for e in entries}
        self._order: dict[str, int] = {e.name: i for i, e in enumerate(entries)}
        rules: dict[str, list[Rewrite]] = {}
        for e in entries:
            if isinstance(e, Rewrite):
                rules.setdefault(e.lhs.head, []).append(e)
        self._rules = rules
        self._unfold_cache: dict[str, Term] = {}
        self._fold_index: Optional[dict[Term, str]] = None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def lookup(self, name: str) -> EnvEntry:
        entry = self._by_name.get(name)
        if entry is None:
            raise TypeCheckError(UNKNOWN_CONSTANT, f"unknown constant {name}")
        return entry

    def def_body(self, name: str) -> Optional[Term]:
        entry = self._by_name.get(name)
        return entry.body if isinstance(entry, Def) else None

    def age(self, name: str) -> int:
        """Position in the environment; later entries are younger."""
        return self._order.get(name, -1)

    def rules_for(self, head: str) -> list[Rewrite]:
        return self._rules.get(head, [])

    def extended(self, entry: EnvEntry) -> "GlobalEnv":
        """Extension without well-formedness checking; prefer ``add_entry``."""
        if entry.name in self._by_name:
            raise DuplicateNameError(entry.name)
        return GlobalEnv(self.spec, self.entries + (entry,))

    def with_spec(self, spec: PtsSpec) -> "GlobalEnv":
        return GlobalEnv(spec, self.entries)


def add_entry(env: GlobalEnv, entry: EnvEntry) -> GlobalEnv:
    """Check ``entry`` against ``env`` and return the extended environment."""
    if entry.name in env:
        raise DuplicateNameError(entry.name)
    from .typecheck import check_entry  # env data layer stays import-light

    check_entry(env, entry)
    return env.extended(entry)


def match_pattern(pattern: Pattern, t: Term) -> Optional[list[Term]]:
    """Purely structural match of a weak-head term against a pattern.

    Returns the metavariable assignment in index order, or None.  No
    unfolding happens here; the conversion machinery exposes heads before
    calling into pattern matching.
    """
    n = len(pattern.metavars())
    out: list[Optional[Term]] = [None] * n

    def go(p: Union[MetaArg, Pattern], t: Term) -> bool:
        if isinstance(p, MetaArg):
            out[p.index] = t
            return True
        head, args = spine(t)
        if not isinstance(head, Const) or head.name != p.head:
            return False
        if len(args) != len(p.args):
            return False
        return all(go(pa, ta) for pa, ta in zip(p.args, args))

    head, args = spine(t)
    if not isinstance(head, Const) or head.name != pattern.head:
        return None
    if len(args) < len(pattern.args):
        return None
    # A rule may match a prefix of the spine; trailing arguments survive.
    for pa, ta in zip(pattern.args, args):
        if not go(pa, ta):
            return None
    return [v for v in out]  # type: ignore[return-value]


def pattern_term(pattern: Pattern) -> Term:
    """The pattern as a term, metavariable ``i`` rendered as ``Var(i)``."""
    from .terms import Var

    t: Term = Const(pattern.head)
    for a in pattern.args:
        arg = Var(a.index, a.hint) if isinstance(a, MetaArg) else pattern_term(a)
        t = App(t, arg)
    return t


def instantiate(rhs: Term, sigma: list[Term], depth: int = 0) -> Term:
    """Plug a metavariable assignment into a rule right-hand side."""
    from .terms import Lam, Let, Pi, Var

    if rhs.fa <= depth:
        return rhs
    match rhs:
        case Var(k, _):
            if k >= depth:
                return shift(sigma[k - depth], depth)
            return rhs
        case App(f, a):
            return App(instantiate(f, sigma, depth), instantiate(a, sigma, depth))
        case Lam(h, dom, body):
            return Lam(h, instantiate(dom, sigma, depth), instantiate(body, sigma, depth + 1))
        case Pi(h, dom, cod):
            return Pi(h, instantiate(dom, sigma, depth), instantiate(cod, sigma, depth + 1))
        case Let(h, ann, d, b):
            return Let(
                h,
                instantiate(ann, sigma, depth),
                instantiate(d, sigma, depth),
                instantiate(b, sigma, depth + 1),
            )
        case _:
            return rhs


def unfold_all(env: GlobalEnv, t: Term) -> Term:
    """Expand every transparent definition and every let; idempotent.

    The result mentions only declared (opaque) constants.  Raises
    ``UnknownConstant`` for names missing from the environment.
    """
    from .terms import Lam, Let, Pi, SortT, Var

    cache = env._unfold_cache

    def go(t: Term) -> Term:
        match t:
            case SortT(_) | Var(_, _):
                return t
            case Const(name):
                if name == HOLE.name:
                    return t
                hit = cache.get(name)
                if hit is not None:
                    return hit
                entry = env.lookup(name)
                out = go(entry.body) if isinstance(entry, Def) else t
                cache[name] = out
                return out
            case App(f, a):
                return App(go(f), go(a))
            case Lam(h, dom, body):
                return Lam(h, go(dom), go(body))
            case Pi(h, dom, cod):
                return Pi(h, go(dom), go(cod))
            case Let(_, _, d, b):
                return go(subst(b, d))
        return t

    return go(t)
