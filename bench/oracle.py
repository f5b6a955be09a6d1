"""Independent oracles for the benchmark's output checks.

Nothing here comes from ``pts_kernel.reduce`` or from the test suite.  The
kernel's term classes are used as plain data, and its parser and type checker
only where the property under test is about them (the printer round trip) or
where a classification needs types (polymorphism erasure).  Substitution,
unfolding, erasure, stepping and equality are written out again here, in the
simplest form that can be trusted:

* ``beta_states`` is a naive full-substitution head reducer on fully unfolded
  terms: one beta or let contraction per step;
* ``observations`` replays definition-level head steps (unfold the head
  constant and contract the redexes it exposes), used to confirm loop reports;
* ``same`` is structural equality up to binder hints.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from pts_kernel.env import Decl, Def, GlobalEnv
from pts_kernel.parser import elaborate, parse_term_surface
from pts_kernel.terms import BOX, STAR_T, TRIANGLE, App, Const, Lam, Let, Pi, SortT, Term, Var
from pts_kernel.typecheck import infer, push, whnf

# ``•`` (the erased leaf) cannot be typed in a source file; rows that show it
# are re-parsed with this stand-in name, mapped back to ``•`` on unfolding.
HOLE_NAME = "•"
HOLE_STAND_IN = "erasedHole"


def spine(t: Term) -> tuple[Term, list[Term]]:
    args = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def apply(t: Term, args: Iterable[Term]) -> Term:
    for a in args:
        t = App(t, a)
    return t


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    if by == 0 or t.fa <= cutoff:
        return t
    if isinstance(t, Var):
        return Var(t.index + by, t.hint) if t.index >= cutoff else t
    if isinstance(t, App):
        return App(shift(t.fn, by, cutoff), shift(t.arg, by, cutoff))
    if isinstance(t, Lam):
        return Lam(t.hint, shift(t.dom, by, cutoff), shift(t.body, by, cutoff + 1))
    if isinstance(t, Pi):
        return Pi(t.hint, shift(t.dom, by, cutoff), shift(t.cod, by, cutoff + 1))
    if isinstance(t, Let):
        return Let(t.hint, shift(t.ann, by, cutoff), shift(t.defn, by, cutoff),
                   shift(t.body, by, cutoff + 1))
    return t


def subst(body: Term, value: Term, j: int = 0) -> Term:
    """Replace ``Var(j)`` by ``value`` and close the gap (full substitution)."""
    if body.fa <= j:
        return body
    if isinstance(body, Var):
        if body.index == j:
            return shift(value, j)
        return Var(body.index - 1, body.hint) if body.index > j else body
    if isinstance(body, App):
        return App(subst(body.fn, value, j), subst(body.arg, value, j))
    if isinstance(body, Lam):
        return Lam(body.hint, subst(body.dom, value, j), subst(body.body, value, j + 1))
    if isinstance(body, Pi):
        return Pi(body.hint, subst(body.dom, value, j), subst(body.cod, value, j + 1))
    if isinstance(body, Let):
        return Let(body.hint, subst(body.ann, value, j), subst(body.defn, value, j),
                   subst(body.body, value, j + 1))
    return body


def same(a: Term, b: Term) -> bool:
    """Structural equality up to binder and variable hints."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        if isinstance(x, App):
            stack.append((x.arg, y.arg))
            stack.append((x.fn, y.fn))
        elif isinstance(x, Var):
            if x.index != y.index:
                return False
        elif isinstance(x, Const):
            if x.name != y.name:
                return False
        elif isinstance(x, SortT):
            if x.sort is not y.sort:
                return False
        elif isinstance(x, Lam):
            stack.append((x.dom, y.dom))
            stack.append((x.body, y.body))
        elif isinstance(x, Pi):
            stack.append((x.dom, y.dom))
            stack.append((x.cod, y.cod))
        elif isinstance(x, Let):
            stack.extend(((x.ann, y.ann), (x.defn, y.defn), (x.body, y.body)))
        else:
            return False
    return True


class Unfolder:
    """Expands every definition and let; one memo per set of definitions, so
    unfolded constants are shared objects and ``same`` stops at them."""

    def __init__(self, defs: dict[str, Term]) -> None:
        self.defs = defs
        self.memo: dict[str, Term] = {HOLE_STAND_IN: Const(HOLE_NAME)}

    def __call__(self, t: Term) -> Term:
        if isinstance(t, Const):
            hit = self.memo.get(t.name)
            if hit is None:
                body = self.defs.get(t.name)
                hit = t if body is None else self(body)
                self.memo[t.name] = hit
            return hit
        if isinstance(t, App):
            return App(self(t.fn), self(t.arg))
        if isinstance(t, Lam):
            return Lam(t.hint, self(t.dom), self(t.body))
        if isinstance(t, Pi):
            return Pi(t.hint, self(t.dom), self(t.cod))
        if isinstance(t, Let):
            return self(subst(t.body, t.defn))
        return t


def definitions(env: GlobalEnv) -> dict[str, Term]:
    return {e.name: e.body for e in env.entries if isinstance(e, Def)}


# --------------------------------------------------------------------------
# Erasure, written from its specification


def erase_annotations(t: Term) -> Term:
    """Binder annotations and type-level subterms become ``•``."""
    if isinstance(t, (SortT, Pi)):
        return Const(HOLE_NAME)
    if isinstance(t, App):
        return App(erase_annotations(t.fn), erase_annotations(t.arg))
    if isinstance(t, Lam):
        return Lam(t.hint, Const(HOLE_NAME), erase_annotations(t.body))
    if isinstance(t, Let):
        return Let(t.hint, Const(HOLE_NAME), erase_annotations(t.defn),
                   erase_annotations(t.body))
    return t


def _over_sort(env: GlobalEnv, dom: Term, ctx) -> bool:
    w = whnf(env, dom, ctx)
    return isinstance(w, SortT) and w.sort in (BOX, TRIANGLE)


def erase_poly(env: GlobalEnv, t: Term, ctx=(), kept: tuple[bool, ...] = ()) -> Term:
    """Annotation erasure that also deletes abstractions over ``#``/``##``
    and the arguments they would receive.  ``kept[i]`` says whether the
    binder of index ``i`` survives."""
    if isinstance(t, (SortT, Pi)):
        return Const(HOLE_NAME)
    if isinstance(t, Var):
        if t.index < len(kept) and not kept[t.index]:
            return Const(HOLE_NAME)
        below = sum(kept[: t.index]) + max(0, t.index - len(kept))
        return Var(below, t.hint)
    if isinstance(t, App):
        fty = whnf(env, infer(env, t.fn, ctx), ctx)
        if isinstance(fty, Pi) and _over_sort(env, fty.dom, ctx):
            return erase_poly(env, t.fn, ctx, kept)
        return App(erase_poly(env, t.fn, ctx, kept), erase_poly(env, t.arg, ctx, kept))
    if isinstance(t, Lam):
        inner = push(ctx, t.hint, t.dom)
        if _over_sort(env, t.dom, ctx):
            return erase_poly(env, t.body, inner, (False,) + kept)
        return Lam(t.hint, Const(HOLE_NAME), erase_poly(env, t.body, inner, (True,) + kept))
    if isinstance(t, Let):
        inner = push(ctx, t.hint, t.ann, t.defn)
        return Let(t.hint, Const(HOLE_NAME), erase_poly(env, t.defn, ctx, kept),
                   erase_poly(env, t.body, inner, (True,) + kept))
    return t


def erased(env: GlobalEnv, t: Term, mode: Optional[str]) -> tuple[dict[str, Term], Term]:
    """Definitions and start term as the erasure ``mode`` leaves them."""
    defs = definitions(env)
    if mode is None:
        return defs, t
    if mode == "annotations":
        return {n: erase_annotations(b) for n, b in defs.items()}, erase_annotations(t)
    if mode == "poly":
        return {n: erase_poly(env, b) for n, b in defs.items()}, erase_poly(env, t)
    raise ValueError(f"unknown erasure mode {mode!r}")


# --------------------------------------------------------------------------
# Reducers


def beta_states(t: Term, limit: int) -> Iterator[Term]:
    """States of naive head reduction of a closed, fully unfolded term, at
    most ``limit`` steps."""
    for _ in range(limit + 1):
        yield t
        head, args = spine(t)
        if isinstance(head, Lam) and args:
            t = apply(subst(head.body, args[0]), args[1:])
        elif isinstance(head, Let):
            t = apply(subst(head.body, head.defn), args)
        else:
            return


def _contract(fn: Term, args: list[Term]) -> Term:
    k = 0
    while isinstance(fn, Lam) and k < len(args):
        fn = subst(fn.body, args[k])
        k += 1
    return apply(fn, args[k:])


def head_def_step(defs: dict[str, Term], t: Term) -> Optional[Term]:
    """One definition-level head step; rewrite rules are not replayed."""
    head, args = spine(t)
    if isinstance(head, Lam) and args:
        return _contract(head, args)
    if isinstance(head, Let):
        return apply(subst(head.body, head.defn), args)
    if isinstance(head, Const) and head.name in defs:
        return _contract(defs[head.name], args)
    return None


def observations(defs: dict[str, Term], t: Term, strategy: str, count: int) -> list[Term]:
    """The first ``count + 1`` observable states of ``strategy`` from ``t``.

    Head-def observes every state.  Head-linear observes the readback, the
    full-substitution state with no contractible head redex; equal
    consecutive readbacks are one observation.
    """
    def redex_headed(s: Term) -> bool:
        head, args = spine(s)
        return isinstance(head, Let) or (isinstance(head, Lam) and bool(args))

    out: list[Term] = []
    cur: Optional[Term] = t
    while cur is not None and len(out) <= count:
        if strategy == "head-def":
            out.append(cur)
        elif not redex_headed(cur) and not (out and same(out[-1], cur)):
            out.append(cur)
        cur = head_def_step(defs, cur)
    return out


def is_subsequence(needles: list[Term], haystack: Iterator[Term]) -> bool:
    """Each needle equals the haystack state the one before it matched, or a
    later one.  (Unfolding a constant is no step of the unfolded world, so
    consecutive needles may match one state.)"""
    last: Optional[Term] = None
    for needle in needles:
        if last is not None and same(needle, last):
            continue
        for state in haystack:
            if same(state, needle):
                last = state
                break
        else:
            return False
    return True


# --------------------------------------------------------------------------
# Re-parsing printed rows


class RowReader:
    """Parse, elaborate and unfold printed rows against one environment."""

    def __init__(self, env: GlobalEnv, defs: dict[str, Term], surfaces: dict) -> None:
        """``surfaces`` caches parses by row text; rows do not depend on the
        environment until elaboration, so readers may share it."""
        self.env = env.extended(Decl(HOLE_STAND_IN, STAR_T))
        self.unfold = Unfolder(defs)
        self._surface = surfaces

    def term(self, row: str) -> Term:
        surface = self._surface.get(row)
        if surface is None:
            surface = parse_term_surface(row.replace(HOLE_NAME, HOLE_STAND_IN))
            self._surface[row] = surface
        return elaborate(surface, self.env)

    def unfolded(self, row: str) -> Term:
        return self.unfold(self.term(row))
