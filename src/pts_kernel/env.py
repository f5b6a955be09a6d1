"""Global environments: declarations, transparent definitions, rewrite rules,
as ``Value`` records, not dataclasses, which cost a third of ``pts`` start-up."""

from __future__ import annotations

from typing import Iterable, Optional, Union

from .errors import DuplicateNameError, IllFormedPatternError, TypeCheckError, UNKNOWN_CONSTANT
from .specs import PtsSpec
from .terms import App, Const, Lam, Let, Pi, Term, compile_template, subst, unwind


_set = object.__setattr__  # how a Value's __init__ writes its fields


class Value:
    """An immutable record whose fields are its ``__slots__``, which its
    ``__init__`` writes with ``_set``.  It equals, hashes and prints as its
    type and field values."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self._values()!r}"


class Decl(Value):
    __slots__ = ("name", "type")
    def __init__(self, name: str, type: Term) -> None:
        _set(self, "name", name)
        _set(self, "type", type)


class Def(Value):
    __slots__ = ("name", "type", "body")
    def __init__(self, name: str, type: Term, body: Term) -> None:
        _set(self, "name", name)
        _set(self, "type", type)
        _set(self, "body", body)


class Rewrite(Value):
    """Head rewrite rule ``lhs => rhs``; fires left-to-right once unfolding
    exposes the constant that heads ``lhs``.

    Both sides are terms over the rule's metavariables: metavariable ``i``
    is ``Var(i)`` in ``lhs``, and ``Var(i + d)`` under ``d`` local binders
    in ``rhs``.  ``lhs`` is a declared constant applied to arguments, each a
    metavariable or a rigid constant spine; every index below ``lhs.fa``
    occurs in it exactly once (``typecheck.rule_context`` checks this).  The
    parser numbers metavariables last argument first.
    """

    __slots__ = ("name", "lhs", "rhs")
    def __init__(self, name: str, lhs: Term, rhs: Term) -> None:
        _set(self, "name", name)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)


EnvEntry = Union[Decl, Def, Rewrite]


class _Table:
    """The entries shared by an environment and its extensions, and what is
    derived from them: unfoldings, templates, fold names and shapes.  Only ever
    appended to, so a view of its first ``n`` entries never changes."""

    __slots__ = ("entries", "order", "rules", "unfolded", "templates", "indexed", "folds", "shapes")

    def __init__(self, entries: Iterable[EnvEntry] = ()) -> None:
        self.entries: list[EnvEntry] = []
        self.order: dict[str, int] = {}
        self.rules: dict[str, list[Rewrite]] = {}
        self.unfolded: dict[str, Term] = {}  # name -> full unfolding
        self.templates: dict[str, tuple] = {}  # name -> terms.compile_template of its body
        self.indexed = 0  # entries scanned into ``folds``
        self.folds: dict[Term, list[int]] = {}  # unfolding's skel -> definitions, oldest first
        self.shapes: set[tuple[Term, int]] = set()  # (head's skel, argument count) of each key
        for e in entries:
            self.append(e)

    def append(self, entry: EnvEntry) -> None:
        if isinstance(entry, Rewrite):
            head = unwind(entry.lhs, [])
            if type(head) is not Const:
                raise IllFormedPatternError("pattern head must be a constant")
            self.rules.setdefault(head.name, []).append(entry)
        self.order[entry.name] = len(self.entries)
        self.entries.append(entry)


class GlobalEnv:
    """Ordered sequence of entries over a fixed PTS signature.

    An environment is a view of the first ``size`` entries of a table it
    shares with its extensions; extending the newest view appends to the
    table, extending an older one copies its entries into a new table.  An
    environment never changes what it sees, so the unfoldings and fold names
    cached on the table are safe to share between readers.
    """

    __slots__ = ("spec", "_table", "_size")

    def __init__(self, spec: PtsSpec, entries: Iterable[EnvEntry] = ()) -> None:
        self.spec = spec
        self._table = _Table(entries)
        self._size = len(self._table.entries)

    @staticmethod
    def _view(spec: PtsSpec, table: _Table, size: int) -> "GlobalEnv":
        env = GlobalEnv.__new__(GlobalEnv)
        env.spec, env._table, env._size = spec, table, size
        return env

    @property
    def entries(self) -> tuple[EnvEntry, ...]:
        return tuple(self._table.entries[: self._size])

    def __contains__(self, name: str) -> bool:
        return self._table.order.get(name, self._size) < self._size

    def lookup(self, name: str) -> EnvEntry:
        i = self._table.order.get(name, self._size)
        if i >= self._size:
            raise TypeCheckError(UNKNOWN_CONSTANT, f"unknown constant {name}")
        return self._table.entries[i]

    def def_body(self, name: str) -> Optional[Term]:
        i = self._table.order.get(name, self._size)
        entry = self._table.entries[i] if i < self._size else None
        return entry.body if isinstance(entry, Def) else None

    def template(self, name: str) -> tuple:
        """``terms.compile_template`` of definition ``name``'s body, once per table."""
        cache = self._table.templates
        return cache.get(name) or cache.setdefault(name, compile_template(self.def_body(name)))

    def age(self, name: str) -> int:
        """Position in the environment, -1 if absent; later entries are younger."""
        i = self._table.order.get(name, -1)
        return i if i < self._size else -1

    def rules_for(self, head: str) -> list[Rewrite]:
        rules = self._table.rules.get(head, [])
        if self._size == len(self._table.entries):
            return rules
        return [r for r in rules if self.age(r.name) >= 0]

    def _folds(self) -> _Table:
        """The table, its fold index caught up to this view."""
        table = self._table
        while table.indexed < self._size:
            entry = table.entries[table.indexed]
            if isinstance(entry, Def):
                key, args = unfold_all(self, Const(entry.name)).skel, []
                table.folds.setdefault(key, []).append(table.indexed)
                table.shapes.add((unwind(key, args), len(args)))
            table.indexed += 1
        return table

    def may_fold(self, head: Const, n: int) -> bool:
        """False if no definition unfolds to what ``head`` applied to ``n``
        arguments does, by the head and argument count of both unwound; True
        leaves it to ``fold_name``.  Raises ``UnknownConstant`` as ``unfold_all``."""
        shapes, args = self._folds().shapes, []
        return (unwind(unfold_all(self, head).skel, args), len(args) + n) in shapes

    def fold_name(self, unfolded: Term) -> Optional[str]:
        """The youngest definition whose full unfolding is ``unfolded``."""
        table = self._folds()
        for i in reversed(table.folds.get(unfolded.skel, ())):
            if i < self._size:
                return table.entries[i].name
        return None

    def extended(self, entry: EnvEntry) -> "GlobalEnv":
        """Extension without well-formedness checking; prefer ``add_entry``."""
        if entry.name in self:
            raise DuplicateNameError(entry.name)
        table = self._table
        if self._size < len(table.entries):
            table = _Table(self.entries)
        table.append(entry)
        return GlobalEnv._view(self.spec, table, self._size + 1)

    def with_spec(self, spec: PtsSpec) -> "GlobalEnv":
        return GlobalEnv._view(spec, self._table, self._size)


def add_entry(env: GlobalEnv, entry: EnvEntry) -> GlobalEnv:
    """Check ``entry`` against ``env`` and return the extended environment."""
    if entry.name in env:
        raise DuplicateNameError(entry.name)
    from .typecheck import check_entry  # typecheck imports this module

    check_entry(env, entry)
    return env.extended(entry)


def unfold_all(env: GlobalEnv, t: Term, memo: Optional[dict[Term, Term]] = None) -> Term:
    """Expand every transparent definition and every let; idempotent.

    The result mentions only declared (opaque) constants.  Raises
    ``UnknownConstant`` for names missing from the environment.  Unfoldings
    of names are cached on the environment's table; ``memo`` additionally
    shares the unfoldings of subterms between calls, keyed by ``skel``, so
    one subterm's unfolding serves every alpha-equal one.
    """
    return _unfold(t, env, env._table.unfolded, memo)


def _unfold(t: Term, env: GlobalEnv, cache: dict[str, Term], memo: Optional[dict]) -> Term:
    """``unfold_all``'s walk, at module level: a nested function calling itself is a cycle."""
    if memo is not None:
        hit = memo.get(t.skel)
        if hit is not None:
            return hit
    cls = type(t)
    if cls is App:
        out: Term = App(_unfold(t.fn, env, cache, memo), _unfold(t.arg, env, cache, memo))
    elif cls is Const:
        name = t.name
        entry = env.lookup(name)
        out = cache.get(name)
        if out is None:
            out = _unfold(entry.body, env, cache, memo) if isinstance(entry, Def) else t
            cache[name] = out
    elif cls is Lam:
        out = Lam(t.hint, _unfold(t.dom, env, cache, memo), _unfold(t.body, env, cache, memo))
    elif cls is Pi:
        out = Pi(t.hint, _unfold(t.dom, env, cache, memo), _unfold(t.cod, env, cache, memo))
    elif cls is Let:
        out = _unfold(subst(t.body, t.defn), env, cache, memo)
    else:  # sorts and variables
        return t
    if memo is not None:
        memo[t.skel] = out
    return out
