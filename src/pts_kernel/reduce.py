"""Reduction strategies, type erasure, trace emission, and loop detection.

Two step granularities are provided.  ``head_def_step`` performs one
definition-level event: unfold the head constant and contract every exposed
leading beta-redex with an argument present (one trace-table row), or contract
a head beta chain, or fire one head rewrite rule.  ``head_linear_step`` is the
finer-grained discipline: it replaces exactly one occurrence, the head one, of
the head variable or constant by its binding, leaving the surrounding redex in
place.  Its observable state is the readback that flattens pending spine
substitutions.

Erasure comes in two modes.  ``annotations`` drops binder annotations and
turns type-level subterms (sorts and products in term position) into an opaque
leaf, preserving the applicative skeleton exactly.  ``poly`` additionally
deletes abstractions over the box/triangle sorts together with the matching
arguments at application sites, which needs a typed environment to classify
applications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .display import fold_display, plain_display
from .env import Def, GlobalEnv, Rewrite
from .errors import ErasureNeedsTypesError, KernelError
from .terms import (
    App,
    BOX,
    Const,
    HOLE,
    Lam,
    Let,
    Pi,
    SortT,
    TRIANGLE,
    Term,
    Var,
    app,
    shift,
    spine,
    subst,
)
from .typecheck import Ctx, Fuel, _try_rules, infer, push, whnf

HEAD_DEF = "head-def"
HEAD_LINEAR = "head-linear"
STRATEGIES = (HEAD_DEF, HEAD_LINEAR)

ANNOTATIONS = "annotations"
POLY = "poly"
ERASURE_MODES = (ANNOTATIONS, POLY)

DELTA_UNFOLD = "delta-unfold"
BETA_CONTRACT = "beta-contract"
REWRITE_FIRE = "rewrite-fire"
LINEAR_SUBST = "linear-subst"


@dataclass
class TraceStep:
    index: int
    kind: str  # delta-unfold | beta-contract | rewrite-fire | linear-subst
    detail: str  # unfolded name, beta count, rule name, or occurrence path
    raw: Term
    display: str


@dataclass
class Trace:
    start: Term
    start_display: str
    steps: list[TraceStep] = field(default_factory=list)
    stopped: str = "max-steps"  # head-normal | max-steps | loop

    @property
    def displays(self) -> list[str]:
        return [self.start_display] + [s.display for s in self.steps]


@dataclass
class LoopReport:
    found: bool
    entry: int
    period: int
    bound: int
    steps: int = 0


def head_def_step(env: GlobalEnv, t: Term) -> Optional[tuple[str, str, Term]]:
    """One definition-level head event, or None when head-normal."""
    head, args = spine(t)
    if isinstance(head, Lam) and args:
        count = 0
        cur: Term = head
        while isinstance(cur, Lam) and count < len(args):
            cur = subst(cur.body, args[count])
            count += 1
        return BETA_CONTRACT, str(count), app(cur, *args[count:])
    if isinstance(head, Let):
        return DELTA_UNFOLD, head.hint, app(subst(head.body, head.defn), *args)
    if isinstance(head, Const):
        body = env.def_body(head.name)
        if body is not None:
            k = 0
            cur = body
            while isinstance(cur, Lam) and k < len(args):
                cur = subst(cur.body, args[k])
                k += 1
            return DELTA_UNFOLD, head.name, app(cur, *args[k:])
        fired = _try_rules(env, head.name, list(reversed(args)), (), Fuel())
        if fired is not None:
            rule_name, new, stack = fired
            return REWRITE_FIRE, rule_name, app(new, *reversed(stack))
    return None


def head_linear_step(env: GlobalEnv, t: Term) -> Optional[tuple[str, str, Term]]:
    """Replace the single head occurrence by its binding, or None.

    Head rewrite rules are not fired by this strategy; an opaque-constant
    head is linear-normal.
    """
    frames: list[tuple[str, Term]] = []
    bindings: list[tuple] = []  # innermost last: (tag, value, depth) or ("open",)
    pending: list[tuple[Term, int]] = []
    path: list[str] = []
    depth = 0
    cur = t
    new: Term
    kind: str
    detail: str
    while True:
        if isinstance(cur, App):
            frames.append(("app", cur))
            pending.append((cur.arg, depth))
            path.append("fn")
            cur = cur.fn
        elif isinstance(cur, Lam):
            bindings.append(("arg", *pending.pop()) if pending else ("open",))
            frames.append(("lam", cur))
            path.append("body")
            depth += 1
            cur = cur.body
        elif isinstance(cur, Let):
            bindings.append(("let", cur.defn, depth))
            frames.append(("let", cur))
            path.append("body")
            depth += 1
            cur = cur.body
        elif isinstance(cur, Var):
            if cur.index >= len(bindings):
                return None  # free in the ambient context
            binding = bindings[len(bindings) - 1 - cur.index]
            if binding[0] == "open":
                return None  # bound by an unapplied lambda: linear-normal
            new = shift(binding[1], depth - binding[2])
            kind, detail = LINEAR_SUBST, ".".join(path) or "(root)"
            break
        elif isinstance(cur, Const):
            body = env.def_body(cur.name)
            if body is None:
                return None
            new, kind, detail = body, DELTA_UNFOLD, cur.name
            break
        else:
            return None  # sort or product at head
    for tag, node in reversed(frames):
        if tag == "app":
            new = App(new, node.arg)
        elif tag == "lam":
            new = Lam(node.hint, node.dom, new)
        else:
            new = Let(node.hint, node.ann, node.defn, new)
    return kind, detail, new


READBACK_BUDGET = 65536  # redex contractions allowed in one readback


def readback(t: Term) -> Term:
    """Flatten pending spine substitutions: the observable state of the
    linear machine.

    Contracts redex chains along the head path until the head is no longer an
    applied lambda or a let, which makes every readback a full-substitution
    head-reduction state.  On terms whose head path never leaves lambda
    redexes (possible only for constant-free self-reducing states) the
    flattening is cut off with an error rather than silently diverging.
    """
    budget = READBACK_BUDGET
    while True:
        head, args = spine(t)
        if isinstance(head, Let):
            t = app(subst(head.body, head.defn), *args)
        elif isinstance(head, Lam) and args:
            i = 0
            cur: Term = head
            while isinstance(cur, Lam) and i < len(args):
                cur = subst(cur.body, args[i])
                i += 1
            t = app(cur, *args[i:])
        else:
            return t
        budget -= 1
        if budget < 0:
            raise KernelError("readback exceeded its contraction budget")


def _stepper(strategy: str):
    if strategy == HEAD_DEF:
        return head_def_step
    if strategy == HEAD_LINEAR:
        return head_linear_step
    raise KernelError(f"unknown strategy {strategy!r}")


def _observe(strategy: str, t: Term) -> Term:
    return readback(t) if strategy == HEAD_LINEAR else t


def _walk(
    env: GlobalEnv, t: Term, strategy: str, limit: int
) -> Iterator[tuple[tuple[str, str, Term], Optional[tuple[int, int]]]]:
    """Step ``t`` at most ``limit`` times, yielding ``(step, loop)`` per step.

    ``step`` is the stepper's ``(kind, detail, term)``.  Observable states are
    numbered from 0 at ``t``; a step that leaves the state unchanged makes no
    new observation.  ``loop`` is None until a step revisits observation
    ``entry``, when it is ``(entry, period)`` and the walk ends.  The walk also
    ends on a head-normal form.
    """
    step = _stepper(strategy)
    prev_key = _observe(strategy, t)
    seen = {prev_key: 0}
    cur = t
    for _ in range(limit):
        result = step(env, cur)
        if result is None:
            return
        cur = result[2]
        key = _observe(strategy, cur)
        if key != prev_key:
            entry = seen.get(key)
            if entry is not None:
                yield result, (entry, len(seen) - entry)
                return
            seen[key] = len(seen)
            prev_key = key
        yield result, None


def trace(
    env: GlobalEnv,
    t: Term,
    strategy: str = HEAD_DEF,
    max_steps: int = 50,
    fold: bool = True,
) -> Trace:
    """Step ``t``, recording one row per event; stops on head-normal forms,
    detected state repetition, or ``max_steps``."""
    disp = (lambda x: fold_display(x, env)) if fold else (lambda x: plain_display(x, env))
    out = Trace(start=t, start_display=disp(t))
    for index, ((kind, detail, cur), loop) in enumerate(_walk(env, t, strategy, max_steps), 1):
        out.steps.append(TraceStep(index, kind, detail, cur, disp(cur)))
        if loop is not None:
            out.stopped = "loop"
            return out
    if len(out.steps) < max_steps:
        out.stopped = "head-normal"
    return out


def detect_loop(
    env: GlobalEnv,
    t: Term,
    strategy: str = HEAD_DEF,
    bound: int = 1000,
    mode: Optional[str] = None,
) -> LoopReport:
    """Hash the alpha-normal form of each observable state; report the first
    repetition within ``bound`` steps.

    With ``mode`` set, the environment and start term are erased first.  For
    the linear strategy consecutive equal readbacks collapse into one
    observable state, so ``entry``/``period`` count distinct observations.
    ``steps`` counts the steps taken.
    """
    if mode is not None:
        env, t = erase_env(env, mode), erase(t, mode, env=env)
    steps = 0
    for steps, (_, loop) in enumerate(_walk(env, t, strategy, bound), 1):
        if loop is not None:
            return LoopReport(True, *loop, bound, steps=steps)
    return LoopReport(False, 0, 0, bound, steps=steps)


# --------------------------------------------------------------------------
# Type erasure


def erase(t: Term, mode: str, env: Optional[GlobalEnv] = None, ctx: Ctx = ()) -> Term:
    if mode == ANNOTATIONS:
        return _erase_annotations(t)
    if mode == POLY:
        if env is None:
            raise ErasureNeedsTypesError("polymorphism erasure needs a typed environment")
        return _erase_poly(env, t, ctx, [])
    raise KernelError(f"unknown erasure mode {mode!r}")


def _erase_annotations(t: Term) -> Term:
    match t:
        case SortT(_) | Pi(_, _, _):
            return HOLE
        case App(f, a):
            return App(_erase_annotations(f), _erase_annotations(a))
        case Lam(h, _, body):
            return Lam(h, HOLE, _erase_annotations(body))
        case Let(h, _, d, b):
            return Let(h, HOLE, _erase_annotations(d), _erase_annotations(b))
        case _:
            return t


def _is_sort_domain(env: GlobalEnv, dom: Term, ctx: Ctx) -> bool:
    w = whnf(env, dom, ctx)
    return isinstance(w, SortT) and w.sort in (BOX, TRIANGLE)


def _erase_poly(env: GlobalEnv, t: Term, ctx: Ctx, keep: list[bool]) -> Term:
    match t:
        case SortT(_) | Pi(_, _, _):
            return HOLE
        case Const(_):
            return t
        case Var(i, hint):
            if i < len(keep) and not keep[i]:
                return HOLE  # residual occurrence of a deleted binder
            new_index = sum(1 for kept in keep[:i] if kept) + max(0, i - len(keep))
            return Var(new_index, hint)
        case App(f, a):
            fty = whnf(env, infer(env, f, ctx), ctx)
            if isinstance(fty, Pi) and _is_sort_domain(env, fty.dom, ctx):
                return _erase_poly(env, f, ctx, keep)
            return App(_erase_poly(env, f, ctx, keep), _erase_poly(env, a, ctx, keep))
        case Lam(h, dom, body):
            inner = push(ctx, h, dom)
            if _is_sort_domain(env, dom, ctx):
                return _erase_poly(env, body, inner, [False] + keep)
            return Lam(h, HOLE, _erase_poly(env, body, inner, [True] + keep))
        case Let(h, ann, d, b):
            inner = push(ctx, h, ann, d)
            return Let(
                h,
                HOLE,
                _erase_poly(env, d, ctx, keep),
                _erase_poly(env, b, inner, [True] + keep),
            )
        case _:
            return t


def erase_env(env: GlobalEnv, mode: str) -> GlobalEnv:
    """Erase every definition body (and rewrite right-hand side) of ``env``.

    The result is for reduction only: entry types are kept verbatim and are
    not meaningful in the erased world.
    """
    from .typecheck import _type_pattern

    entries = []
    for e in env.entries:
        if isinstance(e, Def):
            entries.append(Def(e.name, e.type, erase(e.body, mode, env=env)))
        elif isinstance(e, Rewrite):
            if mode == POLY:
                metas = e.lhs.metavars()
                types: list[Optional[Term]] = [None] * len(metas)
                _type_pattern(env, e.lhs, types)
                ctx: Ctx = tuple((m.hint, types[m.index], None) for m in metas)  # type: ignore[misc]
                entries.append(Rewrite(e.name, e.lhs, erase(e.rhs, mode, env=env, ctx=ctx)))
            else:
                entries.append(Rewrite(e.name, e.lhs, erase(e.rhs, mode, env=env)))
        else:
            entries.append(e)
    return GlobalEnv(env.spec, tuple(entries))
