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

Erasure is one walk in two modes.  ``annotations`` drops binder annotations
and turns type-level subterms (sorts and products in term position) into an
opaque leaf, preserving the applicative skeleton exactly.  ``poly`` is the
same walk with a typing context: it also deletes abstractions over the
box/triangle sorts, closing each deleted binder's gap by ``subst`` with the
leaf, and the matching arguments at application sites, which it finds by
inferring each spine's head once and carrying its type down the arguments.
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
    subst,
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


def erase(t: Term, mode: str, env: GlobalEnv) -> Term:
    """``t`` after erasure in ``mode``, typed against ``env`` under ``poly``.

    Both modes turn sorts and products into the opaque leaf ``HOLE`` and drop
    binder annotations; ``poly`` also deletes each ``fun`` over a box/triangle
    domain, closing its gap by ``subst`` so that leftover occurrences of it
    become ``HOLE``, and each argument that such a domain would bind."""
    return _erase(env, t, _erasure_ctx(mode))


def _erasure_ctx(mode: str) -> Optional[Ctx]:
    """The context a walk in ``mode`` starts from: None for ``annotations``,
    which types nothing."""
    if mode not in ERASURE_MODES:
        raise KernelError(f"unknown erasure mode {mode!r}")
    return () if mode == POLY else None


def _is_sort_domain(env: GlobalEnv, dom: Term, ctx: Ctx) -> bool:
    w = whnf(env, dom, ctx)
    return isinstance(w, SortT) and w.sort in (BOX, TRIANGLE)


def _erase(env: GlobalEnv, t: Term, ctx: Optional[Ctx]) -> Term:
    """The erasure walk; ``ctx`` types ``t``'s free variables, or is None in
    ``annotations`` mode.  Under ``poly`` an application spine's head is
    inferred once and its type carried down the arguments, innermost last."""
    cls = type(t)
    if cls is SortT or cls is Pi:
        return HOLE
    if cls is App:
        args: list[Term] = []
        head = unwind(t, args)
        out = _erase(env, head, ctx)
        ty = None if ctx is None else infer(env, head, ctx)
        for a in reversed(args):
            if ty is not None:
                w = whnf(env, ty, ctx)
                if type(w) is not Pi:
                    infer(env, t, ctx)  # raises: the spine applies a non-function
                ty = subst(w.cod, a)
                if _is_sort_domain(env, w.dom, ctx):
                    continue
            out = App(out, _erase(env, a, ctx))
        return out
    if cls is Lam:
        if ctx is None:
            return Lam(t.hint, HOLE, _erase(env, t.body, None))
        body = _erase(env, t.body, push(ctx, t.hint, t.dom))
        return subst(body, HOLE) if _is_sort_domain(env, t.dom, ctx) else Lam(t.hint, HOLE, body)
    if cls is Let:
        inner = None if ctx is None else push(ctx, t.hint, t.ann, t.defn)
        return Let(t.hint, HOLE, _erase(env, t.defn, ctx), _erase(env, t.body, inner))
    return t  # constants and variables


def erase_env(env: GlobalEnv, mode: str) -> GlobalEnv:
    """Erase every definition body (and rewrite right-hand side) of ``env``.

    The result is for reduction only: entry types are kept verbatim and are
    not meaningful in the erased world.
    """
    ctx = _erasure_ctx(mode)
    entries = []
    for e in env.entries:
        if isinstance(e, Def):
            entries.append(Def(e.name, e.type, _erase(env, e.body, ctx)))
        elif isinstance(e, Rewrite):
            rule_ctx = None if ctx is None else rule_context(env, e.lhs)[0]
            entries.append(Rewrite(e.name, e.lhs, _erase(env, e.rhs, rule_ctx)))
        else:
            entries.append(e)
    return GlobalEnv(env.spec, tuple(entries))
