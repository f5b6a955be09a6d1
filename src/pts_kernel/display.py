"""Canonical display of terms, with definition re-folding and notations.

The printer is the bit-exact surface for golden traces: application is
left-associative and space-separated, parentheses appear only where the
grammar demands them, sorts print as ``*``, ``#``, ``##``.  Dependent
products print as ``forall (x : T), t`` except over the box/triangle sorts,
which print as ``Pi (X : #) -> t``; non-dependent products print as arrows.

Folding is maximal: a subterm alpha-equal to the unfolding of a defined
constant prints as that constant, later definitions winning, and notations
(the built-in composition ``g∘f``) fold before constant folding.

The printer reads terms and builds none.  ``g∘f`` and ``A -> B`` drop a
binder that ``terms.occurs`` finds unused; ``g``, ``f`` and ``B`` print as
they stand, in a scope whose slot for that binder is a placeholder no name
equals.

``fold_display`` and ``plain_display`` print one term from scratch.  A trace
prints its rows through a ``printer`` that lives as long as the trace and
shares work between them: one unfolding memo, and a cache of the strings of
closed non-leaf subterms keyed by node identity, precedence and the binder
names in scope.  Consecutive rows share most of their nodes, so each row
costs about what changed since the one before.
"""

from __future__ import annotations

from typing import Callable, Optional

from .env import GlobalEnv, unfold_all
from .errors import TypeCheckError
from .terms import App, BOX, Const, Lam, Let, Pi, SortT, TRIANGLE, Term, Var, occurs, spine

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
    if occurs(body.fn) or occurs(inner.fn):
        return None
    return body.fn, inner.fn


def fold_display(t: Term, env: Optional[GlobalEnv] = None) -> str:
    """Print ``t`` with maximal re-folding against ``env``'s definitions."""
    return _render(t, _BINDER, [], set(), env, {})


def plain_display(t: Term) -> str:
    """Print ``t`` with no re-folding and no notations."""
    return _render(t, _BINDER, [], set(), None, None)


def raw_display(t: Term, env: GlobalEnv) -> str:
    """Fully unfolded, fold-free print (the ``--raw`` rendering)."""
    return plain_display(unfold_all(env, t))


def printer(env: Optional[GlobalEnv] = None) -> Callable[[Term], str]:
    """Print like ``fold_display(t, env)``, or like ``plain_display(t)`` when
    ``env`` is None, sharing one unfolding memo and one string cache (see
    ``_render``) across all the terms it prints, such as one trace's rows."""
    memo: Optional[dict[Term, Term]] = {} if env is not None else None
    cache: dict[tuple, tuple[Term, str]] = {}
    return lambda t: _render(t, _BINDER, [], set(), env, memo, cache)


def _render(
    t: Term,
    prec: int,
    scope: list[str],
    names: set[str],
    env: Optional[GlobalEnv],
    memo: Optional[dict[Term, Term]],
    cache: Optional[dict[tuple, tuple[Term, str]]] = None,
) -> str:
    """``memo`` shares unfoldings between folded displays; None prints plainly.

    ``cache`` maps ``(id(node), prec, tuple(scope))`` of a closed non-leaf
    node to the node and its string.  The key is the node's identity, not
    ``Term`` equality, because equality ignores binder hints while printed
    names come from them; holding the node keeps its id from being reused.
    The key includes the scope because ``_fresh`` primes the node's binder
    names against the enclosing ones.  ``names`` holds the names in ``scope``
    but ``_GONE``; they are distinct, as ``_fresh`` makes them, so a set
    lets it test a name in constant time.
    """

    match t:
        case SortT(s):
            return s.token
        case Const(name):
            return name
        case Var(i, hint):
            if i < len(scope):
                return scope[i]
            return hint or f"?{i - scope.count(_GONE)}"  # as if dropped binders were gone

    key = None
    if cache is not None and t.fa == 0:
        key = (id(t), prec, tuple(scope))
        hit = cache.get(key)
        if hit is not None:
            return hit[1]

    def rec(t: Term, prec: int) -> str:
        return _render(t, prec, scope, names, env, memo, cache)

    def rec_gone(t: Term, prec: int) -> str:
        """``t`` under a dropped binder; a closed ``t`` keeps its cache key."""
        if t.fa == 0:
            return rec(t, prec)
        scope.insert(0, _GONE)
        out = rec(t, prec)
        scope.pop(0)
        return out

    s, level = None, _ATOM
    if memo is not None:
        comp = match_composition(t)
        if comp is not None:
            g, f = comp
            s, level = f"{rec_gone(g, _APP)}∘{rec_gone(f, _APP)}", _COMP
        elif env is not None and t.fa == 0:
            try:
                s = env.fold_name(unfold_all(env, t, memo))
            except TypeCheckError:  # a name outside env: no definition unfolds to it
                pass

    if s is None:
        match t:
            case App(_, _):
                head, args = spine(t)
                s, level = " ".join([rec(head, _ATOM)] + [rec(a, _ATOM) for a in args]), _APP
            case Lam(hint, dom, body):
                name = _fresh(hint, names)
                dom_s = rec(dom, _BINDER)
                scope.insert(0, name)
                names.add(name)
                body_s = rec(body, _BINDER)
                scope.pop(0)
                names.discard(name)
                s, level = f"fun ({name} : {dom_s}) => {body_s}", _BINDER
            case Pi(hint, dom, cod):
                if not occurs(cod):
                    s, level = f"{rec(dom, _COMP)} -> {rec_gone(cod, _ARROW)}", _ARROW
                else:
                    name = _fresh(hint, names)
                    dom_s = rec(dom, _BINDER)
                    scope.insert(0, name)
                    names.add(name)
                    cod_s = rec(cod, _BINDER)
                    scope.pop(0)
                    names.discard(name)
                    if isinstance(dom, SortT) and dom.sort in (BOX, TRIANGLE):
                        s = f"Pi ({name} : {dom_s}) -> {cod_s}"
                    else:
                        s = f"forall ({name} : {dom_s}), {cod_s}"
                    level = _BINDER
            case Let(hint, ann, defn, body):
                name = _fresh(hint, names)
                ann_s = rec(ann, _BINDER)
                defn_s = rec(defn, _BINDER)
                scope.insert(0, name)
                names.add(name)
                body_s = rec(body, _BINDER)
                scope.pop(0)
                names.discard(name)
                s, level = f"let {name} : {ann_s} := {defn_s} in {body_s}", _BINDER

    out = f"({s})" if prec > level else s
    if key is not None:
        cache[key] = (t, out)
    return out


def _fresh(hint: str, names: set[str]) -> str:
    name = hint or "x"
    while name in names:
        name += "'"
    return name
