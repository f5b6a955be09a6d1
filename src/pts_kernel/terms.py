"""Term syntax: sorts, de Bruijn terms, alpha-equality and re-indexing.

Binding is by de Bruijn index; every binder and variable carries a display
hint that is ignored by equality, hashing, and substitution.  Each node caches
a structural hash (``shash``) and the number of dangling indices (``fa``,
one more than the largest free index) so that equality checks and
loop-detection hashing are cheap even on very large reduction states.

``shift`` and ``instantiate`` re-index variables through one traversal,
``_reindex``; each gives only what a variable at or above the cutoff
becomes.  ``instantiate`` is simultaneous substitution: it eliminates a
whole run of binders in one pass, as a ``fun`` chain applied to its
arguments does, and ``subst`` is its one-value case.  The traversal returns
every subterm with no variable at or above the cutoff (``fa <= cutoff``) as
the same object, which callers rely on.  ``compile_template`` compiles a
definition's body once into closures that build what ``instantiate`` would
from it.  ``occurs`` asks whether one variable occurs, by reading alone.
"""

from __future__ import annotations

from typing import Callable, Optional


class Sort:
    """One of the three sorts: Star, Box or Triangle."""

    __slots__ = ("rank", "token")

    def __init__(self, rank: int, token: str) -> None:
        self.rank = rank
        self.token = token

    def __repr__(self) -> str:
        return self.token


STAR = Sort(0, "*")
BOX = Sort(1, "#")
TRIANGLE = Sort(2, "##")
SORTS = (STAR, BOX, TRIANGLE)
SORT_BY_TOKEN = {s.token: s for s in SORTS}


class Term:
    __slots__ = ("shash", "fa")

    def __hash__(self) -> int:
        return self.shash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        return alpha_eq(self, other)

    def __repr__(self) -> str:
        return _debug_repr(self)


class SortT(Term):
    __slots__ = ("sort",)
    __match_args__ = ("sort",)

    def __init__(self, sort: Sort) -> None:
        self.sort = sort
        self.shash = hash(("S", sort.rank))
        self.fa = 0


class Var(Term):
    __slots__ = ("index", "hint")
    __match_args__ = ("index", "hint")

    def __init__(self, index: int, hint: str = "") -> None:
        self.index = index
        self.hint = hint
        self.shash = hash(("V", index))
        self.fa = index + 1


class Const(Term):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name
        self.shash = hash(("C", name))
        self.fa = 0


class App(Term):
    __slots__ = ("fn", "arg")
    __match_args__ = ("fn", "arg")

    def __init__(self, fn: Term, arg: Term) -> None:
        self.fn = fn
        self.arg = arg
        self.shash = hash(("A", fn.shash, arg.shash))
        self.fa = fn.fa if fn.fa >= arg.fa else arg.fa


class Lam(Term):
    __slots__ = ("hint", "dom", "body")
    __match_args__ = ("hint", "dom", "body")

    def __init__(self, hint: str, dom: Term, body: Term) -> None:
        self.hint = hint
        self.dom = dom
        self.body = body
        self.shash = hash(("L", dom.shash, body.shash))
        bf = body.fa - 1
        self.fa = dom.fa if dom.fa >= bf else bf


class Pi(Term):
    __slots__ = ("hint", "dom", "cod")
    __match_args__ = ("hint", "dom", "cod")

    def __init__(self, hint: str, dom: Term, cod: Term) -> None:
        self.hint = hint
        self.dom = dom
        self.cod = cod
        self.shash = hash(("P", dom.shash, cod.shash))
        cf = cod.fa - 1
        self.fa = dom.fa if dom.fa >= cf else cf


class Let(Term):
    """First-class definition node; never desugared to an application."""

    __slots__ = ("hint", "ann", "defn", "body")
    __match_args__ = ("hint", "ann", "defn", "body")

    def __init__(self, hint: str, ann: Term, defn: Term, body: Term) -> None:
        self.hint = hint
        self.ann = ann
        self.defn = defn
        self.body = body
        self.shash = hash(("T", ann.shash, defn.shash, body.shash))
        bf = body.fa - 1
        self.fa = max(ann.fa, defn.fa, bf)


STAR_T = SortT(STAR)
BOX_T = SortT(BOX)

# Opaque leaf standing in for erased annotations and type-level subterms.
# The name is not a legal identifier, so source files cannot capture it.
HOLE = Const("•")


def alpha_eq(a: Term, b: Term) -> bool:
    """Structural equality up to binder and variable display hints."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if x.shash != y.shash or x.fa != y.fa:
            return False
        cx = type(x)
        if cx is not type(y):
            return False
        if cx is App:
            stack.append((x.fn, y.fn))
            stack.append((x.arg, y.arg))
        elif cx is Var:
            if x.index != y.index:
                return False
        elif cx is Const:
            if x.name != y.name:
                return False
        elif cx is SortT:
            if x.sort is not y.sort:
                return False
        elif cx is Lam:
            stack.append((x.dom, y.dom))
            stack.append((x.body, y.body))
        elif cx is Pi:
            stack.append((x.dom, y.dom))
            stack.append((x.cod, y.cod))
        elif cx is Let:
            stack.append((x.ann, y.ann))
            stack.append((x.defn, y.defn))
            stack.append((x.body, y.body))
        else:  # pragma: no cover
            return False
    return True


def _reindex(t: Term, cutoff: int, leaf: Callable[[Var, int], Term]) -> Term:
    """Rebuild ``t`` with each variable at or above the cutoff replaced by
    ``leaf(var, cutoff)``, the cutoff growing by one under each binder.

    Identity contract: a subterm with no variable at or above its cutoff
    (``fa <= cutoff``) comes back as the same object, not a copy.  The trace
    printer caches strings by node identity and the head-linear machine
    shares nodes between states; both rely on it.
    """
    if t.fa <= cutoff:
        return t
    cls = type(t)
    if cls is Var:
        return leaf(t, cutoff)
    if cls is App:
        return App(_reindex(t.fn, cutoff, leaf), _reindex(t.arg, cutoff, leaf))
    if cls is Lam:
        return Lam(t.hint, _reindex(t.dom, cutoff, leaf), _reindex(t.body, cutoff + 1, leaf))
    if cls is Pi:
        return Pi(t.hint, _reindex(t.dom, cutoff, leaf), _reindex(t.cod, cutoff + 1, leaf))
    return Let(  # sorts and constants have fa == 0, so only Let is left
        t.hint,
        _reindex(t.ann, cutoff, leaf),
        _reindex(t.defn, cutoff, leaf),
        _reindex(t.body, cutoff + 1, leaf),
    )


def shift(t: Term, by: int) -> Term:
    """Shift dangling indices by ``by``."""
    if by == 0 or t.fa == 0:
        return t
    return _reindex(t, 0, lambda v, c: Var(v.index + by, v.hint))


def occurs(t: Term, i: int = 0) -> bool:
    """Whether ``Var(i)`` occurs in ``t``, the index growing by one under each
    binder.  Reads the term and builds nothing."""
    while t.fa > i:  # below that, no variable reaches i
        cls = type(t)
        if cls is Var:
            return t.index == i
        if cls is App:
            if occurs(t.arg, i):
                return True
            t = t.fn
            continue
        if cls is Let:
            if occurs(t.ann, i) or occurs(t.defn, i):
                return True
        elif occurs(t.dom, i):  # Lam or Pi
            return True
        t = t.cod if cls is Pi else t.body
        i += 1
    return False


def instantiate(t: Term, sigma: list[Term], depth: int = 0) -> Term:
    """Simultaneous substitution.  ``Var(depth + i)`` becomes ``sigma[i]``
    shifted by ``depth`` for ``i < len(sigma)``, and ``Var(depth + i -
    len(sigma))`` above that, closing the gap the eliminated binders leave;
    under ``d`` more binders, indices and shift grow by ``d``.
    ``fun x0 .. xk => M`` applied to ``a0 .. ak`` contracts to
    ``instantiate(M, [ak, .., a0])``; a rule right-hand side reads only its
    metavariable assignment.
    """
    if t.fa <= depth:  # nothing to replace: skip building the leaf
        return t
    n = len(sigma)

    def leaf(v: Var, c: int) -> Term:
        i = v.index - c
        return shift(sigma[i], c) if i < n else Var(v.index - n, v.hint)

    return _reindex(t, depth, leaf)


def compile_template(body: Term) -> tuple[int, Optional[tuple[Callable, list[Callable]]]]:
    """``n`` for ``body = fun x₁ … xₙ => t`` and, if ``t`` is ``h b₁ … bₘ``
    (its spine cut above its first closed node), closures that build ``h``
    and ``bₘ … b₁``: on ``σ``, each gives what ``instantiate(t, σ)`` makes of it."""
    n = 0
    while type(body) is Lam:
        n, body = n + 1, body.body
    if not n or type(body) is not App:
        return n, None
    args = []
    while type(body) is App and body.fa:
        args.append(_build(body.arg, n, 0))
        body = body.fn
    return n, (_build(body, n, 0), args)


def _build(t: Term, n: int, c: int) -> Callable[[list[Term]], Term]:
    """``instantiate(t, σ, c)`` as a closure over a ``σ`` of length ``n``."""
    if t.fa <= c:
        return lambda s: t
    cls = type(t)
    if cls is Var and (i := t.index - c) < n:
        return (lambda s: s[i]) if c == 0 else lambda s: shift(s[i], c)
    if cls is App:
        fn, arg = _build(t.fn, n, c), _build(t.arg, n, c)
        return lambda s: App(fn(s), arg(s))
    if cls is Lam or cls is Pi:
        dom, body = _build(t.dom, n, c), _build(t.cod if cls is Pi else t.body, n, c + 1)
        return lambda s: cls(t.hint, dom(s), body(s))
    return lambda s: instantiate(t, s, c)  # a ``let``, or a variable past ``σ``


def subst(body: Term, value: Term) -> Term:
    """Replace ``Var(0)`` in ``body`` by ``value`` and close the gap: the
    one-value case of ``instantiate``."""
    return instantiate(body, [value])


def unwind(t: Term, stack: list[Term]) -> Term:
    """Push the arguments of ``t``'s application spine onto ``stack``,
    innermost last, and return its head, which is never an ``App``."""
    while type(t) is App:
        stack.append(t.arg)
        t = t.fn
    return t


def app(fn: Term, *args: Term) -> Term:
    for a in args:
        fn = App(fn, a)
    return fn


def _debug_repr(t: Term) -> str:
    match t:
        case SortT(s):
            return s.token
        case Var(k, hint):
            return f"{hint or '_'}@{k}"
        case Const(name):
            return name
        case App(_, _):
            args: list[Term] = []
            head = unwind(t, args)
            return f"({' '.join(map(_debug_repr, [head, *reversed(args)]))})"
        case Lam(h, dom, body):
            return f"(\\{h or '_'}:{_debug_repr(dom)}. {_debug_repr(body)})"
        case Pi(h, dom, cod):
            return f"(Pi {h or '_'}:{_debug_repr(dom)}. {_debug_repr(cod)})"
        case Let(h, ann, d, b):
            return f"(let {h or '_'}:{_debug_repr(ann)}={_debug_repr(d)} in {_debug_repr(b)})"
    return object.__repr__(t)
