"""Independent naive head reducer used as the oracle for the trace engine.

Deliberately primitive: one full-substitution step at a time (leftmost head
redex, head let, or head constant replacement), no rewrite rules, no sharing
tricks.  Kept free of any import from the reduction engine so the two sides
of the check stay independent; only the shared term syntax is reused, and
substitution is the textbook reference of ``test_terms``, not ``terms.subst``.
"""

from __future__ import annotations

from typing import Optional

from test_terms import _ref_subst

from pts_kernel.env import GlobalEnv
from pts_kernel.terms import App, Const, Lam, Let, Term, alpha_eq


def naive_head_step(env: Optional[GlobalEnv], t: Term) -> Optional[Term]:
    """One head step, or None when head-normal."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    if isinstance(t, Lam) and args:
        t = _ref_subst(t.body, args.pop())
    elif isinstance(t, Let):
        t = _ref_subst(t.body, t.defn)
    elif isinstance(t, Const) and env is not None:
        body = env.def_body(t.name)
        if body is None:
            return None
        t = body
    else:
        return None
    for a in reversed(args):
        t = App(t, a)
    return t


def naive_states(env: Optional[GlobalEnv], t: Term, limit: int) -> list[Term]:
    """The reduction state sequence starting at ``t``, at most ``limit`` steps."""
    states = [t]
    for _ in range(limit):
        nxt = naive_head_step(env, states[-1])
        if nxt is None:
            break
        states.append(nxt)
    return states


def is_subsequence(needles: list[Term], haystack: list[Term]) -> bool:
    """Alpha-equality subsequence check, in order."""
    it = iter(haystack)
    for needle in needles:
        for state in it:
            if alpha_eq(state, needle):
                break
        else:
            return False
    return True
