"""Independent normalizer for rule-free terms, used as the oracle for conversion.

Normalization by evaluation (Berger and Schwichtenberg, LICS 1991): a term is
evaluated into Python closures, which do every beta, delta and let step, and
the value is read back into a beta-delta-let normal form.  Two terms of a
strongly normalizing, rule-free development are convertible exactly when their
normal forms are alpha-equal.  Rewrite rules are ignored, so only rule-free
environments are meaningful here.

Kept free of any import from the reduction engine and the type checker so the
two sides of the check stay independent; only the shared term syntax and the
environment's definition lookup are reused.
"""

from __future__ import annotations

from typing import Callable, Union

from pts_kernel.env import GlobalEnv
from pts_kernel.terms import App, Const, Lam, Let, Pi, SortT, Term, Var


class _Binder:
    """A lambda or product value: its domain and the body as a function."""

    __slots__ = ("kind", "hint", "dom", "body")

    def __init__(self, kind: type, hint: str, dom: "Value", body: Callable[["Value"], "Value"]):
        self.kind = kind  # Lam or Pi
        self.hint = hint
        self.dom = dom
        self.body = body


class _Neutral:
    """A stuck spine: an opaque constant or a bound variable (as a de Bruijn
    level) applied to values."""

    __slots__ = ("head", "args")

    def __init__(self, head: Union[Const, int], args: tuple = ()) -> None:
        self.head = head
        self.args = args


Value = Union[SortT, _Binder, _Neutral]


def normalize(env: GlobalEnv, t: Term) -> Term:
    """The beta-delta-let normal form of the closed term ``t``."""
    return _quote(_eval(env, {}, t, ()), 0)


def _eval(env: GlobalEnv, defs: dict[str, Value], t: Term, rho: tuple) -> Value:
    if isinstance(t, SortT):
        return t
    if isinstance(t, Var):
        return rho[t.index]
    if isinstance(t, Const):
        if t.name not in defs:
            body = env.def_body(t.name)
            defs[t.name] = _Neutral(t) if body is None else _eval(env, defs, body, ())
        return defs[t.name]
    if isinstance(t, App):
        return _apply(_eval(env, defs, t.fn, rho), _eval(env, defs, t.arg, rho))
    if isinstance(t, Let):
        return _eval(env, defs, t.body, (_eval(env, defs, t.defn, rho),) + rho)
    body = t.body if isinstance(t, Lam) else t.cod
    return _Binder(
        type(t),
        t.hint,
        _eval(env, defs, t.dom, rho),
        lambda v, body=body: _eval(env, defs, body, (v,) + rho),
    )


def _apply(f: Value, v: Value) -> Value:
    if isinstance(f, _Binder) and f.kind is Lam:
        return f.body(v)
    if isinstance(f, _Neutral):
        return _Neutral(f.head, f.args + (v,))
    raise TypeError("application of a non-function: the term is ill typed")


def _quote(v: Value, depth: int) -> Term:
    if isinstance(v, SortT):
        return v
    if isinstance(v, _Binder):
        body = _quote(v.body(_Neutral(depth)), depth + 1)
        return v.kind(v.hint, _quote(v.dom, depth), body)
    t: Term = v.head if isinstance(v.head, Const) else Var(depth - 1 - v.head)
    for arg in v.args:
        t = App(t, _quote(arg, depth))
    return t
