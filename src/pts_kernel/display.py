"""Canonical display of terms, with definition re-folding and notations.

The printer is the bit-exact surface for golden traces: application is
left-associative and space-separated, parentheses appear only where the
grammar demands them, sorts print as ``*``, ``#``, ``##``.  Dependent
products print as ``forall (x : T), t`` except over the box/triangle sorts,
which print as ``Pi (X : #) -> t``; non-dependent products print as arrows.

Folding is maximal: a subterm alpha-equal to the unfolding of a defined
constant prints as that constant, later definitions winning, and notations
(the built-in composition ``g∘f``) fold before constant folding.
"""

from __future__ import annotations

from typing import Optional

from .env import GlobalEnv, unfold_all
from .errors import TypeCheckError
from .terms import App, BOX, Const, Lam, Let, Pi, SortT, TRIANGLE, Term, Var, spine, try_unshift

# Precedence levels, loosest first.
_BINDER = 0
_ARROW = 1
_COMP = 2
_APP = 3
_ATOM = 4


def match_composition(t: Term) -> Optional[tuple[Term, Term]]:
    """Destructure ``fun (x : X) => g (f x)`` with x free in neither g nor f."""
    if not isinstance(t, Lam):
        return None
    body = t.body
    if not isinstance(body, App) or not isinstance(body.arg, App):
        return None
    inner = body.arg
    if not isinstance(inner.arg, Var) or inner.arg.index != 0:
        return None
    g = try_unshift(body.fn)
    if g is None:
        return None
    f = try_unshift(inner.fn)
    if f is None:
        return None
    return g, f


def fold_display(
    t: Term, env: Optional[GlobalEnv] = None, scope: Optional[list[str]] = None
) -> str:
    """Print ``t`` with maximal re-folding against ``env``'s definitions.

    ``scope`` names any dangling indices, innermost first.
    """
    return _render(t, _BINDER, list(scope or []), env, {})


def plain_display(t: Term) -> str:
    """Print ``t`` with no re-folding and no notations."""
    return _render(t, _BINDER, [], None, None)


def raw_display(t: Term, env: GlobalEnv) -> str:
    """Fully unfolded, fold-free print (the ``--raw`` rendering)."""
    return plain_display(unfold_all(env, t))


def _render(
    t: Term,
    prec: int,
    scope: list[str],
    env: Optional[GlobalEnv],
    memo: Optional[dict[Term, Term]],
) -> str:
    """``memo`` shares unfoldings within one folded display; None prints plainly."""

    def rec(t: Term, prec: int) -> str:
        return _render(t, prec, scope, env, memo)

    if memo is not None:
        comp = match_composition(t)
        if comp is not None:
            g, f = comp
            s = f"{rec(g, _APP)}∘{rec(f, _APP)}"
            return f"({s})" if prec > _COMP else s

        if env is not None and t.fa == 0 and not isinstance(t, (Const, SortT, Var)):
            try:
                name = env.fold_name(unfold_all(env, t, memo))
            except TypeCheckError:  # a name outside env: no definition unfolds to it
                name = None
            if name is not None:
                return name

    match t:
        case SortT(s):
            return s.token
        case Const(name):
            return name
        case Var(i, hint):
            if i < len(scope):
                return scope[i]
            return hint or f"?{i}"
        case App(_, _):
            head, args = spine(t)
            parts = [rec(head, _ATOM)] + [rec(a, _ATOM) for a in args]
            s = " ".join(parts)
            return f"({s})" if prec > _APP else s
        case Lam(hint, dom, body):
            name = _fresh(hint, scope)
            dom_s = rec(dom, _BINDER)
            scope.insert(0, name)
            body_s = rec(body, _BINDER)
            scope.pop(0)
            s = f"fun ({name} : {dom_s}) => {body_s}"
            return f"({s})" if prec > _BINDER else s
        case Pi(hint, dom, cod):
            plain_cod = try_unshift(cod)
            if plain_cod is not None:
                s = f"{rec(dom, _COMP)} -> {rec(plain_cod, _ARROW)}"
                return f"({s})" if prec > _ARROW else s
            name = _fresh(hint, scope)
            dom_s = rec(dom, _BINDER)
            scope.insert(0, name)
            cod_s = rec(cod, _BINDER)
            scope.pop(0)
            if isinstance(dom, SortT) and dom.sort in (BOX, TRIANGLE):
                s = f"Pi ({name} : {dom_s}) -> {cod_s}"
            else:
                s = f"forall ({name} : {dom_s}), {cod_s}"
            return f"({s})" if prec > _BINDER else s
        case Let(hint, ann, defn, body):
            name = _fresh(hint, scope)
            ann_s = rec(ann, _BINDER)
            defn_s = rec(defn, _BINDER)
            scope.insert(0, name)
            body_s = rec(body, _BINDER)
            scope.pop(0)
            s = f"let {name} : {ann_s} := {defn_s} in {body_s}"
            return f"({s})" if prec > _BINDER else s
    return repr(t)  # pragma: no cover


def _fresh(hint: str, scope: list[str]) -> str:
    name = hint or "x"
    while name in scope:
        name += "'"
    return name
