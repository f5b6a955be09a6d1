"""Canonical display of terms, with definition re-folding and notations.

The printer is the bit-exact surface for golden traces: application is
left-associative and space-separated, parentheses appear only where the
grammar demands them, sorts print as ``*``, ``#``, ``##``.  Dependent
products print as ``forall (x : T), t`` except over the box/triangle sorts,
which print as ``Pi (X : #) -> t``; non-dependent products print as arrows.

Folding is maximal: a subterm alpha-equal to the unfolding of a defined
constant prints as that constant, later definitions winning, and notations
(the built-in composition ``g∘f``) fold before constant folding.  A closed
application headed by a constant is unfolded and looked up only when
``GlobalEnv.may_fold`` finds its shape, the head and argument count of its
unfolding, among those of the definitions' unfoldings.  Alpha-equal terms
have alpha-equal heads and as many arguments, so a spine of any other shape
folds to nothing and is skipped; other closed nodes are always looked up.

The printer reads terms and builds none.  ``g∘f`` and ``A -> B`` drop a
binder when bit 0 of the free-variable masks (``fv``) of ``g`` and ``f``, or
of ``B``, is clear; they print as they stand, in a scope whose slot for that
binder is a placeholder no name equals.

All printing goes through one ``_Printer``: its ``render(t, prec)`` method
prints a node, and its ``_under`` helper prints a body under a named binder.
``fold_display`` and ``plain_display`` print one term with a fresh printer.
A trace prints its rows through a ``printer`` that lives as long as the
trace and shares work between them: one unfolding memo, and a cache of the
strings of closed non-leaf subterms keyed by node identity, precedence and
the binder names in scope.  Terms are hash-consed, so a node's identity is
its structure with its hints: consecutive rows share most of their nodes,
whether a step kept them or built them again, and each row costs about what
changed since the one before.
"""

from __future__ import annotations

from typing import Callable, Optional

from .env import GlobalEnv, unfold_all
from .errors import TypeCheckError
from .terms import App, BOX, Const, Lam, Let, Pi, SortT, TRIANGLE, Term, Var, unwind

Show = Callable[[Term], str]  # what ``printer`` returns

# Precedence levels, loosest first.
_BINDER = 0
_ARROW = 1
_COMP = 2
_APP = 3
_ATOM = 4

# The scope slot of a dropped binder: no name ``_fresh`` makes equals it.
_GONE = ""


def match_composition(t: Term) -> Optional[tuple[Term, Term]]:
    """Destructure ``fun (x : X) => g (f x)`` with x free in neither g nor f;
    ``g`` and ``f`` come back as they stand under the binder."""
    if not isinstance(t, Lam):
        return None
    body = t.body
    if not isinstance(body, App) or not isinstance(body.arg, App):
        return None
    inner = body.arg
    if not isinstance(inner.arg, Var) or inner.arg.index != 0:
        return None
    if (body.fn.fv | inner.fn.fv) & 1:
        return None
    return body.fn, inner.fn


def fold_display(t: Term, env: GlobalEnv) -> str:
    """Print ``t`` with maximal re-folding against ``env``'s definitions."""
    return _Printer(env).show(t)


def plain_display(t: Term) -> str:
    """Print ``t`` with no re-folding and no notations."""
    return _Printer(None).show(t)


def raw_display(t: Term, env: GlobalEnv) -> str:
    """Fully unfolded, fold-free print (the ``--raw`` rendering)."""
    return plain_display(unfold_all(env, t))


def printer(env: Optional[GlobalEnv] = None) -> Show:
    """Print like ``fold_display(t, env)``, or like ``plain_display(t)`` when
    ``env`` is None, sharing one unfolding memo and one string cache (see
    ``_Printer``) across all the terms it prints, such as one trace's rows."""
    return _Printer(env, {}).show


class _Printer:
    """Prints terms: given ``env``, it folds ``g∘f`` and constants, the
    latter through ``memo``, the unfoldings computed so far.  An application
    is unwound once, for that and for printing; a closed one with a constant
    head is unfolded only if ``env.may_fold`` allows its shape (see above).

    ``cache``, if any, maps ``(id(node), prec, tuple(scope))`` of a closed
    non-leaf node to its string.  Terms are hash-consed, so the id stands for
    the node's structure and hints, and a node is never freed, so its id is
    never reused.  The key includes the scope because ``_fresh`` primes the
    node's binder names against the enclosing ones.  ``scope`` holds the
    binder names innermost first, and ``names`` those but ``_GONE``; they
    are distinct, as ``_fresh`` makes them, so a set tests one in O(1).
    """

    __slots__ = ("env", "memo", "cache", "scope", "names")

    def __init__(self, env: Optional[GlobalEnv], cache: Optional[dict] = None) -> None:
        self.env, self.cache = env, cache
        self.memo: dict[Term, Term] = {}
        self.scope: list[str] = []
        self.names: set[str] = set()

    def show(self, t: Term) -> str:
        return self.render(t, _BINDER)

    def render(self, t: Term, prec: int) -> str:
        cls = type(t)
        if cls is Var:
            scope = self.scope
            if t.index < len(scope):
                return scope[t.index]
            return t.hint or f"?{t.index - scope.count(_GONE)}"  # as if dropped binders were gone
        if cls is Const:
            return t.name
        if cls is SortT:
            return t.sort.token

        cache, key = self.cache, None
        if cache is not None and not t.fv:
            key = (id(t), prec, tuple(self.scope))
            hit = cache.get(key)
            if hit is not None:
                return hit

        s, level = None, _ATOM
        args: list[Term] = []
        head = unwind(t, args) if cls is App else t  # any other node is its own head
        if self.env is not None:
            comp = match_composition(t)
            if comp is not None:
                s, level = f"{self._gone(comp[0], _APP)}∘{self._gone(comp[1], _APP)}", _COMP
            elif not t.fv:
                try:
                    if type(head) is not Const or self.env.may_fold(head, len(args)):
                        s = self.env.fold_name(unfold_all(self.env, t, self.memo))
                except TypeCheckError:  # a name outside env: no definition unfolds to it
                    pass

        if s is None:
            render = self.render
            if cls is App:
                s = " ".join([render(head, _ATOM)] + [render(a, _ATOM) for a in reversed(args)])
                level = _APP
            elif cls is Lam:
                name, body_s = self._under(t.hint, t.body)
                s, level = f"fun ({name} : {render(t.dom, _BINDER)}) => {body_s}", _BINDER
            elif cls is Pi and not t.cod.fv & 1:
                s, level = f"{render(t.dom, _COMP)} -> {self._gone(t.cod, _ARROW)}", _ARROW
            elif cls is Pi:
                name, cod_s = self._under(t.hint, t.cod)
                dom_s, level = render(t.dom, _BINDER), _BINDER
                if type(t.dom) is SortT and t.dom.sort in (BOX, TRIANGLE):
                    s = f"Pi ({name} : {dom_s}) -> {cod_s}"
                else:
                    s = f"forall ({name} : {dom_s}), {cod_s}"
            elif cls is Let:
                name, body_s = self._under(t.hint, t.body)
                ann_s, defn_s = render(t.ann, _BINDER), render(t.defn, _BINDER)
                s, level = f"let {name} : {ann_s} := {defn_s} in {body_s}", _BINDER

        out = f"({s})" if prec > level else s
        if key is not None:
            cache[key] = out
        return out

    def _under(self, hint: str, body: Term) -> tuple[str, str]:
        """A fresh name for a binder hinted ``hint``, and ``body`` printed under it."""
        name = _fresh(hint, self.names)
        self.scope.insert(0, name)
        self.names.add(name)
        body_s = self.render(body, _BINDER)
        self.scope.pop(0)
        self.names.discard(name)
        return name, body_s

    def _gone(self, t: Term, prec: int) -> str:
        """``t`` under a dropped binder; a closed ``t`` keeps its cache key."""
        if not t.fv:
            return self.render(t, prec)
        self.scope.insert(0, _GONE)
        out = self.render(t, prec)
        self.scope.pop(0)
        return out


def _fresh(hint: str, names: set[str]) -> str:
    name = hint or "x"
    while name in names:
        name += "'"
    return name
