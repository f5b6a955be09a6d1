"""Reduction strategies, type erasure, trace emission, and loop detection.

Two step granularities are provided.  ``head_def_step`` performs one
definition-level event, ``typecheck._head_event``, the head step that whnf,
conversion and rule matching repeat too: unfold the head constant and
contract its ``fun`` chain against the arguments present (one trace-table
row), or contract a head beta chain, or substitute a head ``let``, or fire
one head rewrite rule.  ``head_linear_step`` is the finer-grained discipline:
it replaces exactly one occurrence, the head one, of the head variable or
constant by its binding, leaving the surrounding redex in place.  Its
observable state is the readback that flattens pending spine substitutions.

Head-def steps and readback hold a state as a head and an argument stack (the
Krivine machine's): an event pops the arguments it consumes, and the result's
spine is pushed, so no step rebuilds the whole application; a definition's
compiled template pushes its result's arguments without building a spine.
Loop search keys a head-def state by the skeletons (``Term.skel``) of the
tuple ``(head, *args)``, so alpha-equal states meet.

Head-linear reduction runs on a resumable machine (``_LinearMachine``) that
keeps a zipper on the head path: the nodes from the root to the tip, what
each binder on the path is bound to, the arguments no binder has consumed
yet, and the binder depth.  A step replaces the occurrence at the tip and
leaves the path above it unchanged, so the next step resumes at the tip
instead of walking down from the root; the full state term is rebuilt only
when a caller asks for it (``trace`` does, loop search does not).  The
machine also keeps the readback of its state up to date, as a head and an
argument stack: loop search keys head-linear states by ``(head, *stack)``
too.  While no unapplied ``fun`` lies on the path, a linear substitution
leaves the readback unchanged, and a delta-unfold of ``c`` on a readback
headed by ``c`` is a head-def event on that stack (by ``c``'s template when
it gets all its parameters), after which the readback's contractions go on
from the result.  Otherwise (an unapplied ``fun`` on the path, or a readback
whose head is not ``c``) it reads back the rebuilt state in full.  Each
readback has its own contraction budget, and an unfolding that contracts a
``fun`` chain spends one unit of it.  ``head_linear_step`` is one step of a
fresh machine.

Erasure comes in two modes.  ``annotations`` drops binder annotations and
turns type-level subterms (sorts and products in term position) into an opaque
leaf, preserving the applicative skeleton exactly.  ``poly`` additionally
deletes abstractions over the box/triangle sorts together with the matching
arguments at application sites, which needs a typed environment to classify
applications.
"""
from __future__ import annotations

from operator import attrgetter
from typing import Iterator, NamedTuple, Optional

from .display import Show, printer
from .env import Def, GlobalEnv, Rewrite
from .errors import KernelError
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
    unwind,
)
from .typecheck import BETA_CONTRACT, DELTA_UNFOLD, REWRITE_FIRE, Ctx, _head_event, contract_head
from .typecheck import infer, push, rule_context, whnf

HEAD_DEF = "head-def"
HEAD_LINEAR = "head-linear"
STRATEGIES = (HEAD_DEF, HEAD_LINEAR)

ANNOTATIONS = "annotations"
POLY = "poly"
ERASURE_MODES = (ANNOTATIONS, POLY)

LINEAR_SUBST = "linear-subst"

_skel = attrgetter("skel")


class TraceStep:
    __slots__ = ("kind", "detail", "raw")
    def __init__(self, kind: str, detail: str, raw: Term) -> None:
        self.kind = kind  # delta-unfold | beta-contract | rewrite-fire | linear-subst
        self.detail = detail  # unfolded name, beta count, rule name, or occurrence path
        self.raw = raw

    def __eq__(self, other: object) -> bool:
        if type(other) is not TraceStep:
            return NotImplemented
        return (self.kind, self.detail, self.raw) == (other.kind, other.detail, other.raw)


class Trace:
    """A reduction trace.  Rows are rendered when read, by ``show`` (folded
    or plain, as asked) or ``plain``: ``display.printer``s that live as long
    as the trace and cache the strings of the closed subterms they printed,
    keyed by node identity, precedence and the binder names in scope."""

    __slots__ = ("start", "show", "plain", "steps", "stopped")
    def __init__(self, start: Term, show: Show, plain: Show) -> None:
        self.start, self.show, self.plain = start, show, plain
        self.steps: list[TraceStep] = []
        self.stopped = "max-steps"  # head-normal | max-steps | loop

    def __eq__(self, other: object) -> bool:  # the printers are not compared
        if type(other) is not Trace:
            return NotImplemented
        return (self.start, self.steps, self.stopped) == (other.start, other.steps, other.stopped)

    @property
    def displays(self) -> list[str]:
        show = self.show
        return [show(self.start)] + [show(s.raw) for s in self.steps]


class LoopReport(NamedTuple):
    found: bool
    entry: int
    period: int
    bound: int
    steps: int = 0


def head_def_step(env: GlobalEnv, t: Term) -> Optional[tuple[str, str, Term]]:
    """One definition-level head event, or None when head-normal."""
    stack: list[Term] = []
    event = _head_event(env, unwind(t, stack), stack)
    return None if event is None else (event[0], str(event[1]), app(event[2], *reversed(stack)))


class _LinearMachine:
    """The head-linear machine: a zipper on the head path of one state.

    ``frames`` holds the nodes from the root down to the ``tip``, the subterm
    the next step starts from.  ``bindings`` holds, per binder on the path
    (innermost last), ``(value, depth)`` for an applied ``fun`` or a ``let``
    and None for an unapplied ``fun`` (``open`` counts those); ``pending``
    holds the arguments no binder has consumed yet.  A step replaces the
    head occurrence at the tip and leaves the path above it unchanged, so the
    path only grows and the next step resumes at the tip.
    """

    def __init__(self, env: GlobalEnv, t: Term) -> None:
        self.env = env
        self.tip = t
        self.frames: list[Term] = []
        self.bindings: list[Optional[tuple[Term, int]]] = []
        self.pending: list[tuple[Term, int]] = []
        self.depth = 0
        self.open = 0
        self.kind = ""
        self.name = ""  # the constant the last delta-unfold replaced
        self._key: Optional[tuple] = None  # readback as (head, *stack), once asked for

    def step(self) -> Optional[str]:
        """Replace the head occurrence by its binding; return the step's
        kind, or None when the state is linear-normal."""
        frames, bindings, pending = self.frames, self.bindings, self.pending
        depth = self.depth
        cur = self.tip
        while True:
            cls = type(cur)
            if cls is App:
                frames.append(cur)
                pending.append((cur.arg, depth))
                cur = cur.fn
            elif cls is Lam or cls is Let:
                if cls is Let:
                    bindings.append((cur.defn, depth))
                elif pending:
                    bindings.append(pending.pop())
                else:
                    bindings.append(None)
                    self.open += 1
                frames.append(cur)
                depth += 1
                cur = cur.body
            else:
                break
        self.tip, self.depth = cur, depth
        if cls is Var:
            if cur.index >= len(bindings):
                return None  # free in the ambient context
            binding = bindings[-1 - cur.index]
            if binding is None:
                return None  # bound by an unapplied fun
            new = shift(binding[0], depth - binding[1])
            kind = LINEAR_SUBST
        elif cls is Const:
            new = self.env.def_body(cur.name)
            if new is None:
                return None  # opaque; head rewrite rules are not fired
            kind, self.name = DELTA_UNFOLD, cur.name
        else:
            return None  # sort or product at head
        self.tip, self.kind = new, kind
        key = self._key
        if key is not None and (self.open or kind == DELTA_UNFOLD):
            # With no unapplied fun on the path the readback has substituted
            # every binder on it: a linear substitution leaves it unchanged,
            # and a delta-unfold unfolds its head constant.
            head, self._key = key[0], None
            if not self.open and type(head) is Const and head.name == self.name:
                stack = list(key[1:])
                spent = 1 if type(new) is Lam and stack else 0
                head = unwind(_head_event(self.env, head, stack)[2], stack)
                self._key = (_contract(head, stack, spent)[0], *stack)
        return kind

    def key(self) -> tuple:
        """``readback`` of the current state as ``(head, *stack)``."""
        if self._key is None:
            stack: list[Term] = []
            self._key = (_contract(unwind(self.term(), stack), stack)[0], *stack)
        return self._key

    def detail(self) -> str:
        """The last step's unfolded constant, or the path of its occurrence."""
        if self.kind == DELTA_UNFOLD:
            return self.name
        return ".".join("fn" if type(f) is App else "body" for f in self.frames) or "(root)"

    def term(self) -> Term:
        """The current state, rebuilt from the tip up."""
        t = self.tip
        for node in reversed(self.frames):
            if type(node) is App:
                t = App(t, node.arg)
            elif type(node) is Lam:
                t = Lam(node.hint, node.dom, t)
            else:
                t = Let(node.hint, node.ann, node.defn, t)
        return t


def head_linear_step(env: GlobalEnv, t: Term) -> Optional[tuple[str, str, Term]]:
    """Replace the single head occurrence by its binding, or None.

    Head rewrite rules are not fired by this strategy; an opaque-constant
    head is linear-normal.
    """
    machine = _LinearMachine(env, t)
    kind = machine.step()
    return None if kind is None else (kind, machine.detail(), machine.term())


READBACK_BUDGET = 65536  # redex contractions allowed in one readback


def readback(t: Term) -> Term:
    """Flatten pending spine substitutions: the observable state of the linear
    machine.  Contracts along the head path until its head is no longer an
    applied ``fun`` or a ``let``, one budget unit per ``contract_head``; a
    state that never gets there (a constant-free self-reducing one) raises."""
    stack: list[Term] = []
    head, spent = _contract(unwind(t, stack), stack)
    return app(head, *reversed(stack)) if spent else t


def _contract(head: Term, stack: list[Term], spent: int = 0) -> tuple[Term, int]:
    """Readback's contractions on ``head`` applied to ``stack``, ``spent``
    budget units having gone already: the new head and the units spent."""
    budget = READBACK_BUDGET
    while spent <= budget and (type(head) is Let or (type(head) is Lam and stack)):
        head = unwind(contract_head(head, stack), stack)
        spent += 1
    if spent > budget:
        raise KernelError("readback exceeded its contraction budget")
    return head, spent


def _walk(
    env: GlobalEnv, t: Term, strategy: str, limit: int, rows: bool = True
) -> Iterator[tuple[tuple, tuple, Optional[tuple[int, int]]]]:
    """Step ``t`` at most ``limit`` times, yielding ``(step, key, loop)`` per step.

    ``step`` is ``(kind, detail, term)``, detail and term None unless ``rows``
    (a head-def state term is built only then).  ``key`` is the observation of
    the new state, the readback under head-linear and the state under
    head-def, as the tuple ``(head, *stack)``.  Observations are numbered
    from 0 at ``t`` and looked up by the skeletons of their keys, one tuple
    equal to another exactly when the two applications are alpha-equal,
    since a head is never an ``App``.  A step that leaves the state unchanged
    makes none; a head-linear step that leaves the machine's key as it was is
    such a step, and is not looked up.  ``loop`` is None until a step
    revisits observation ``entry``, when it is ``(entry, period)`` and the
    walk ends, as on a head-normal form."""
    linear = strategy == HEAD_LINEAR
    if linear:
        machine = _LinearMachine(env, t)
        key = machine.key()
    elif strategy == HEAD_DEF:
        stack: list[Term] = []
        head = unwind(t, stack)
        key = (head, *stack)
    else:
        raise KernelError(f"unknown strategy {strategy!r}")
    seen = {tuple(map(_skel, key)): 0}
    for _ in range(limit):
        result: tuple
        if linear:
            last = key
            kind = machine.step()
            if kind is None:
                return
            key = machine.key()
            result = (kind, machine.detail(), machine.term()) if rows else (kind, None, None)
            if key is last:
                yield result, key, None
                continue
        else:
            event = _head_event(env, head, stack)
            if event is None:
                return
            kind, detail, new = event
            result = (kind, str(detail), app(new, *reversed(stack))) if rows else (kind, None, None)
            head = unwind(new, stack)
            key = (head, *stack)
        # The last observation holds number count - 1: meeting it again means
        # the state is unchanged, meeting an older one closes a loop.
        count = len(seen)
        entry = seen.setdefault(tuple(map(_skel, key)), count)
        if entry < count - 1:
            yield result, key, (entry, count - entry)
            return
        yield result, key, None


def trace(
    env: GlobalEnv,
    t: Term,
    strategy: str = HEAD_DEF,
    max_steps: int = 50,
    mode: Optional[str] = None,
) -> Trace:
    """Step ``t``, recording one row per event; stops on head-normal forms,
    detected state repetition, or ``max_steps``.

    With ``mode`` set, the environment and start term are erased first, as
    ``detect_loop`` erases them, and rows print unfolded; otherwise they
    print folded against ``env``."""
    if mode is not None:
        env, t = erase_env(env, mode), erase(t, mode, env)
    plain = printer()
    out = Trace(start=t, show=printer(env) if mode is None else plain, plain=plain)
    for (kind, detail, cur), _, loop in _walk(env, t, strategy, max_steps):
        out.steps.append(TraceStep(kind, detail, cur))
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
        env, t = erase_env(env, mode), erase(t, mode, env)
    steps = 0
    for steps, (_, _, loop) in enumerate(_walk(env, t, strategy, bound, rows=False), 1):
        if loop is not None:
            return LoopReport(True, *loop, bound, steps=steps)
    return LoopReport(False, 0, 0, bound, steps=steps)


# --------------------------------------------------------------------------
# Type erasure


def erase(t: Term, mode: str, env: GlobalEnv, ctx: Ctx = ()) -> Term:
    if mode == ANNOTATIONS:
        return _erase_annotations(t)
    if mode == POLY:
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
    entries = []
    for e in env.entries:
        if isinstance(e, Def):
            entries.append(Def(e.name, e.type, erase(e.body, mode, env)))
        elif isinstance(e, Rewrite):
            ctx = rule_context(env, e.lhs)[0] if mode == POLY else ()
            entries.append(Rewrite(e.name, e.lhs, erase(e.rhs, mode, env, ctx)))
        else:
            entries.append(e)
    return GlobalEnv(env.spec, tuple(entries))
