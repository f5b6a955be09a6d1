"""Term syntax: sorts, hash-consed de Bruijn terms, alpha-equality and
re-indexing.

Binding is by de Bruijn index; every binder and variable carries a display
hint that substitution carries along and alpha-equality ignores.  Terms are
hash-consed: a constructor returns the one live node of its class with its
hint (or sort, name or index) and its children, the children compared by
identity, from one process-wide table.  Terms of equal structure and equal
hints are therefore one object, and a term hashes and compares by identity.
The table keeps every node it hands out for the life of the process: corpus
bundles and environment tables hold nodes from one command to the next, and a
node must stay the one node of its structure while anything can reach it.

Each node holds ``skel``, its copy with every hint set to ``""`` (the node
itself when it has no hints), interned like any node: two terms are
alpha-equal exactly when their skeletons are one node, so ``alpha_eq`` is one
``is``, and whatever keys a table up to alpha-equality keys it by ``skel``.
Each node also holds ``fv``, its free variables as a bitmask: bit ``i`` is set
exactly when ``Var(i)`` occurs free, counting indices from that node.  A
binder's mask is its body's shifted right by one, so whether one variable
occurs is one bit test, and ``fa``, one more than the largest free index, is
the mask's bit length.

``shift`` and ``instantiate`` re-index variables through one traversal,
``_reindex``; each gives only what a variable at or above the cutoff
becomes.  ``instantiate`` is simultaneous substitution: it eliminates a
whole run of binders in one pass, as a ``fun`` chain applied to its
arguments does, and ``subst`` is its one-value case.  The traversal returns
every subterm with no variable at or above the cutoff (``not fv >> cutoff``)
as the same object, without looking it up again.  ``compile_template`` compiles
a definition's body once into closures that build what ``instantiate`` would
from it.
"""

from __future__ import annotations

from typing import Callable, Optional


class Sort:
    """One of the three sorts: Star, Box or Triangle."""

    __slots__ = ("token",)

    def __init__(self, token: str) -> None:
        self.token = token

    def __repr__(self) -> str:
        return self.token


STAR = Sort("*")
BOX = Sort("#")
TRIANGLE = Sort("##")
SORTS = (STAR, BOX, TRIANGLE)
SORT_BY_TOKEN = {s.token: s for s in SORTS}

# (class, hint or leaf datum, children...) -> the one node built from them.
_NODES: dict[tuple, Term] = {}
_new = object.__new__


class Term:
    __slots__ = ("fv", "skel")

    @property
    def fa(self) -> int:
        """One more than the largest free index; 0 for a closed term."""
        return self.fv.bit_length()

    def __repr__(self) -> str:
        return _debug_repr(self)


class SortT(Term):
    __slots__ = ("sort",)
    __match_args__ = ("sort",)

    def __new__(cls, sort: Sort) -> SortT:
        key = (cls, sort)
        node = _NODES.get(key)
        if node is None:
            node = _new(cls)
            node.sort, node.fv, node.skel = sort, 0, node
            _NODES[key] = node
        return node


class Var(Term):
    __slots__ = ("index", "hint")
    __match_args__ = ("index", "hint")

    def __new__(cls, index: int, hint: str = "") -> Var:
        key = (cls, index, hint)
        node = _NODES.get(key)
        if node is None:
            node = _new(cls)
            node.index, node.hint, node.fv = index, hint, 1 << index
            node.skel = Var(index) if hint else node
            _NODES[key] = node
        return node


class Const(Term):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __new__(cls, name: str) -> Const:
        key = (cls, name)
        node = _NODES.get(key)
        if node is None:
            node = _new(cls)
            node.name, node.fv, node.skel = name, 0, node
            _NODES[key] = node
        return node


class App(Term):
    __slots__ = ("fn", "arg")
    __match_args__ = ("fn", "arg")

    def __new__(cls, fn: Term, arg: Term) -> App:
        key = (cls, fn, arg)
        node = _NODES.get(key)
        if node is None:
            node = _new(cls)
            node.fn, node.arg = fn, arg
            node.fv = fn.fv | arg.fv
            f, a = fn.skel, arg.skel
            node.skel = node if f is fn and a is arg else App(f, a)
            _NODES[key] = node
        return node


class Lam(Term):
    __slots__ = ("hint", "dom", "body")
    __match_args__ = ("hint", "dom", "body")

    def __new__(cls, hint: str, dom: Term, body: Term) -> Lam:
        key = (cls, hint, dom, body)
        node = _NODES.get(key)
        if node is None:
            node = _new(cls)
            node.hint, node.dom, node.body = hint, dom, body
            node.fv = dom.fv | body.fv >> 1
            d, b = dom.skel, body.skel
            node.skel = node if not hint and d is dom and b is body else Lam("", d, b)
            _NODES[key] = node
        return node


class Pi(Term):
    __slots__ = ("hint", "dom", "cod")
    __match_args__ = ("hint", "dom", "cod")

    def __new__(cls, hint: str, dom: Term, cod: Term) -> Pi:
        key = (cls, hint, dom, cod)
        node = _NODES.get(key)
        if node is None:
            node = _new(cls)
            node.hint, node.dom, node.cod = hint, dom, cod
            node.fv = dom.fv | cod.fv >> 1
            d, c = dom.skel, cod.skel
            node.skel = node if not hint and d is dom and c is cod else Pi("", d, c)
            _NODES[key] = node
        return node


class Let(Term):
    """First-class definition node; never desugared to an application."""

    __slots__ = ("hint", "ann", "defn", "body")
    __match_args__ = ("hint", "ann", "defn", "body")

    def __new__(cls, hint: str, ann: Term, defn: Term, body: Term) -> Let:
        key = (cls, hint, ann, defn, body)
        node = _NODES.get(key)
        if node is None:
            node = _new(cls)
            node.hint, node.ann, node.defn, node.body = hint, ann, defn, body
            node.fv = ann.fv | defn.fv | body.fv >> 1
            a, d, b = ann.skel, defn.skel, body.skel
            same = not hint and a is ann and d is defn and b is body
            node.skel = node if same else Let("", a, d, b)
            _NODES[key] = node
        return node


STAR_T = SortT(STAR)
BOX_T = SortT(BOX)

# Opaque leaf standing in for erased annotations and type-level subterms.
# The name is not a legal identifier, so source files cannot capture it.
HOLE = Const("•")


def alpha_eq(a: Term, b: Term) -> bool:
    """Structural equality up to binder and variable display hints."""
    return a.skel is b.skel


def _reindex(t: Term, cutoff: int, leaf: Callable[[Var, int], Term]) -> Term:
    """Rebuild ``t`` with each variable at or above the cutoff replaced by
    ``leaf(var, cutoff)``, the cutoff growing by one under each binder.

    A subterm with no variable at or above its cutoff (``not fv >> cutoff``)
    comes back as it is, unwalked: the same node its rebuild would look up.
    """
    if not t.fv >> cutoff:
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
    return Let(  # sorts and constants are closed, so only Let is left
        t.hint,
        _reindex(t.ann, cutoff, leaf),
        _reindex(t.defn, cutoff, leaf),
        _reindex(t.body, cutoff + 1, leaf),
    )


def shift(t: Term, by: int) -> Term:
    """Shift dangling indices by ``by``."""
    if by == 0 or not t.fv:
        return t
    return _reindex(t, 0, lambda v, c: Var(v.index + by, v.hint))


def instantiate(t: Term, sigma: list[Term], depth: int = 0) -> Term:
    """Simultaneous substitution.  ``Var(depth + i)`` becomes ``sigma[i]``
    shifted by ``depth`` for ``i < len(sigma)``, and ``Var(depth + i -
    len(sigma))`` above that, closing the gap the eliminated binders leave;
    under ``d`` more binders, indices and shift grow by ``d``.
    ``fun x0 .. xk => M`` applied to ``a0 .. ak`` contracts to
    ``instantiate(M, [ak, .., a0])``; a rule right-hand side reads only its
    metavariable assignment.
    """
    if not t.fv >> depth:  # nothing to replace: skip building the leaf
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
    while type(body) is App and body.fv:
        args.append(_build(body.arg, n, 0))
        body = body.fn
    return n, (_build(body, n, 0), args)


def _build(t: Term, n: int, c: int) -> Callable[[list[Term]], Term]:
    """``instantiate(t, σ, c)`` as a closure over a ``σ`` of length ``n``."""
    if not t.fv >> c:
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
            return f"{hint}@{k}"
        case Const(name):
            return name
        case App(_, _):
            args: list[Term] = []
            head = unwind(t, args)
            return f"({' '.join(map(_debug_repr, [head, *reversed(args)]))})"
        case Lam(h, dom, body):
            return f"(\\{h}:{_debug_repr(dom)}. {_debug_repr(body)})"
        case Pi(h, dom, cod):
            return f"(Pi {h}:{_debug_repr(dom)}. {_debug_repr(cod)})"
        case Let(h, ann, d, b):
            return f"(let {h}:{_debug_repr(ann)}={_debug_repr(d)} in {_debug_repr(b)})"
    return object.__repr__(t)
