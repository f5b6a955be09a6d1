"""Tokenizer, term/directive parser, and elaboration to kernel terms.

The source grammar is the one the canonical printer emits, so every display
re-parses:

    term   := fun (x : T) => term | forall (x : T), term
            | Pi (X : #) -> term  | let x : T := term in term | arrow
    arrow  := comp [-> term]                 (right associative)
    comp   := app [∘ comp]                   (binds tighter than ->)
    app    := atom atom*
    atom   := name | $name | * | # | ## | ( term )

``tokenize`` makes one regular-expression match per token.  ``_Parser.term``
reads a term in one loop: a binder head, ``->`` and ``∘`` each push a frame
that the rest of the term fills, an application's atoms are read in a loop,
and the frames close when the term ends.  Only ``( term )``, binder domains
and ``let`` parts recurse, at two frames (``term``, ``_atom``) per level of
parentheses.  Surface nodes are slotted classes, not dataclasses, which cost
a third of ``pts`` start-up.  Every binder, ``->`` included, is one ``SBind``
naming the kernel constructor it elaborates to (``Lam``, ``Pi`` or ``Let``),
and a sort reads as the kernel's ``SortT``.

Directives end with a period: ``system``, ``axiom``, ``rule``, ``const``,
``def``, ``rewrite``, ``check``, ``conv``, ``trace``.  Comments run from
``--`` to end of line.  Composition ``g∘f`` elaborates to
``fun (x : X) => g (f x)`` with ``X`` recovered by inferring ``f``'s type.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional, Union

from .env import GlobalEnv, Rewrite, Value, _set
from .errors import ParseError, TypeCheckError
from .terms import App, Const, Lam, Let, Pi, SORT_BY_TOKEN, Sort, SortT, Term, Var, app, shift
from .typecheck import Ctx, infer, push, rule_context, whnf

KEYWORDS = frozenset(
    "fun forall Pi let in const def rewrite check conv trace system axiom rule".split()
)
_IDENT = r"[\w'⊥¬]"  # \w is str.isalnum() plus underscore
# One match per token of a line: group 1 takes the blanks before the token
# and a comment, which runs to the end of the line, and exactly one later group
# (m.lastindex) the token itself, or none at the end of the line.  `--` wins
# over `->`, and an interior hyphen joins name parts (system names) only
# before a name character.
_TOKEN = re.compile(
    rf"(\s*(?:--.*)?)(?:({_IDENT}+(?:-{_IDENT}+)*)|(:=|=>|->|[():,.∘])|(##|[*#])"
    rf"|\$({_IDENT}*)|(.)|\Z)"
)
_KINDS = (None, "eof", "name", "punct", "sort", "meta", "bad")
_new = tuple.__new__  # builds a Token without NamedTuple's Python-level __new__


class Token(NamedTuple):
    kind: str  # name | meta | number | sort | punct | kw | eof
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Token]:
    """Tokens line by line: no token spans a newline, so a token's column is
    its offset in the line plus one and blanks need no counting."""
    toks: list[Token] = []
    append = toks.append
    for line, text_line in enumerate(src.split("\n"), 1):
        for m in _TOKEN.finditer(text_line):
            group = m.lastindex
            if group == 1:  # the end of the line
                break
            text = m[group]
            if group == 2:
                kind = "kw" if text in KEYWORDS else "number" if text.isdigit() else "name"
            else:
                kind = _KINDS[group]
                if kind == "bad":
                    raise ParseError(f"unexpected character {text!r}", line, m.end(1) + 1)
                if kind == "meta" and not text:
                    raise ParseError("empty metavariable name", line, m.end(1) + 1)
            append(_new(Token, (kind, text, line, m.end(1) + 1)))
    append(Token("eof", "", line, len(text_line) + 1))
    return toks


# --------------------------------------------------------------------------
# Surface syntax


class SName:
    __slots__ = ("name", "line", "col")
    def __init__(self, name: str, line: int, col: int) -> None:
        self.name, self.line, self.col = name, line, col


class SMeta:
    __slots__ = ("name", "line", "col")
    def __init__(self, name: str, line: int, col: int) -> None:
        self.name, self.line, self.col = name, line, col


class SApp:
    __slots__ = ("fn", "arg")
    def __init__(self, fn: Surface, arg: Surface) -> None:
        self.fn, self.arg = fn, arg


class SBind:
    """A binder made by ``make``; ``defn`` is a let's, ``name`` None for an arrow."""

    __slots__ = ("make", "name", "dom", "defn", "body")
    def __init__(
        self, make: type, name: Optional[str], dom: Surface, defn: Optional[Surface], body: Surface
    ) -> None:
        self.make, self.name, self.dom, self.defn, self.body = make, name, dom, defn, body


class SComp:
    __slots__ = ("g", "f", "line", "col")
    def __init__(self, g: Surface, f: Surface, line: int, col: int) -> None:
        self.g, self.f, self.line, self.col = g, f, line, col


Surface = Union[SName, SMeta, SortT, SApp, SBind, SComp]


class Directive(Value):
    __slots__ = ("kind", "name", "parts", "line", "col")
    def __init__(self, kind: str, name: str, parts: tuple, line: int, col: int) -> None:
        _set(self, "kind", kind)  # the keyword that starts the directive
        _set(self, "name", name)
        _set(self, "parts", parts)
        _set(self, "line", line)
        _set(self, "col", col)


# Binder head -> (the kernel constructor it elaborates to, the token before its body)
_BINDERS = {"fun": (Lam, "=>"), "forall": (Pi, ","), "Pi": (Pi, "->"), "let": (Let, "in")}


class _Parser:
    def __init__(self, toks: list[Token]) -> None:
        self.toks = toks
        self.pos = 0

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        t = self.toks[self.pos]
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {t.text or t.kind!r}", t.line, t.col)
        self.pos += 1
        return t

    # -- terms --------------------------------------------------------------

    def term(self) -> Surface:
        """A term in one loop (see the module docstring).  A ``->`` first
        closes the ``∘`` frames above it, since composition binds tighter,
        and after a ``∘`` only an application may follow."""
        toks = self.toks
        pos = self.pos
        frames: list[tuple] = []  # (SComp, g, line, col) or a binder's (make, name, dom, defn)
        binder_ok = True
        while True:
            kind, text, line, col = toks[pos]
            if kind == "kw" and binder_ok and text in _BINDERS:
                self.pos = pos + 1
                self._binder_head(text, frames)
                pos = self.pos
                continue
            left = None
            while True:  # an application: one atom, then atoms while they come
                kind, text, line, col = toks[pos]
                if kind == "name":
                    pos += 1
                    atom: Surface = SName(text, line, col)
                elif kind in ("meta", "sort") or text == "(" and kind == "punct" or left is None:
                    self.pos = pos
                    atom = self._atom()
                    pos = self.pos
                else:
                    break
                left = atom if left is None else SApp(left, atom)
            if kind != "punct":
                break
            if text == "∘":
                frames.append((SComp, left, line, col))
                binder_ok = False
            elif text == "->":
                while frames and frames[-1][0] is SComp:
                    _, g, cline, ccol = frames.pop()
                    left = SComp(g, left, cline, ccol)
                frames.append((Pi, None, left, None))
                binder_ok = True
            else:
                break
            pos += 1
        self.pos = pos
        for frame in reversed(frames):
            if frame[0] is SComp:
                left = SComp(frame[1], left, frame[2], frame[3])
            else:
                left = SBind(*frame, left)
        return left

    def _binder_head(self, word: str, frames: list[tuple]) -> None:
        """Push the frames of a binder head, up to its body."""
        make, separator = _BINDERS[word]
        if word == "let":
            name = self.expect("name").text
            self.expect("punct", ":")
            ann = self.term()
            self.expect("punct", ":=")
            defn = self.term()
            self.expect("kw", separator)
            frames.append((make, name, ann, defn))
            return
        toks = self.toks
        groups = 0
        while toks[self.pos].text == "(" and toks[self.pos].kind == "punct":
            self.pos += 1
            name = self.next()
            if name.kind not in ("name", "kw"):
                raise ParseError("expected binder name", name.line, name.col)
            self.expect("punct", ":")
            dom = self.term()
            self.expect("punct", ")")
            frames.append((make, name.text, dom, None))
            groups += 1
        if not groups:
            p = toks[self.pos]
            raise ParseError(f"{word} needs at least one (x : T) binder", p.line, p.col)
        self.expect("punct", separator)

    def _atom(self) -> Surface:
        t = self.next()
        if t.kind == "name":
            return SName(t.text, t.line, t.col)
        if t.kind == "meta":
            return SMeta(t.text, t.line, t.col)
        if t.kind == "sort":
            return SortT(SORT_BY_TOKEN[t.text])
        if t.kind == "punct" and t.text == "(":
            inner = self.term()
            self.expect("punct", ")")
            return inner
        raise ParseError(f"unexpected {t.text or t.kind!r}", t.line, t.col)

    # -- directives ---------------------------------------------------------

    def directives(self) -> list[Directive]:
        out = []
        while self.toks[self.pos].kind != "eof":
            out.append(self._directive())
        return out

    def _sort(self) -> Sort:
        return SORT_BY_TOKEN[self.expect("sort").text]

    def _directive(self) -> Directive:
        t = self.next()
        if t.kind != "kw":
            raise ParseError(f"expected a directive, found {t.text!r}", t.line, t.col)
        kind, name, parts = t.text, "", ()
        if kind == "system":
            word = self.next()
            if word.kind not in ("name", "kw"):
                raise ParseError("expected system name", word.line, word.col)
            name = word.text
        elif kind == "axiom":
            s1 = self._sort()
            self.expect("punct", ":")
            parts = (s1, self._sort())
        elif kind == "rule":
            s1, s2 = self._sort(), self._sort()
            self.expect("punct", ":")
            parts = (s1, s2, self._sort())
        elif kind in ("const", "def", "rewrite"):
            name = self.expect("name").text
            self.expect("punct", ":")
            parts = (self.term(),)
            if kind != "const":
                self.expect("punct", ":=" if kind == "def" else "=>")
                parts += (self.term(),)
        elif kind == "check":
            tm = self.term()
            self.expect("punct", ":")
            parts = (tm, self.term())
        elif kind == "conv":
            parts = (self._atom(), self._atom())
        elif kind == "trace":
            tm, n = self._atom(), self.expect("number")
            if not n.text.isdecimal():  # "²" is a digit but no number ``int`` reads
                raise ParseError(f"expected 'number', found {n.text!r}", n.line, n.col)
            parts = (tm, int(n.text))
        else:
            raise ParseError(f"{kind!r} cannot start a directive", t.line, t.col)
        self.expect("punct", ".")
        return Directive(kind, name, parts, t.line, t.col)


def parse_term_surface(src: str) -> Surface:
    p = _Parser(tokenize(src))
    t = p.term()
    p.expect("eof")
    return t


def parse_program(src: str) -> list[Directive]:
    return _Parser(tokenize(src)).directives()


# --------------------------------------------------------------------------
# Elaboration


def elaborate(s: Surface, env: GlobalEnv, metas: Ctx = ()) -> Term:
    """Resolve names and expand notations.  ``metas`` is the context of a
    rule's metavariables (``typecheck.rule_context``), which sits below the
    binders of ``s``."""
    return _elab(s, env, [], metas)


def _elab(s: Surface, env: GlobalEnv, scope: list[str], ctx: Ctx) -> Term:
    """``elaborate`` under ``scope``, innermost first, typed by ``ctx`` above the metavariables."""
    cls = type(s)
    if cls is SName:
        name = s.name
        if name in scope:
            return Var(scope.index(name), name)
        try:
            entry = env.lookup(name)
        except TypeCheckError:
            raise ParseError(f"unknown name {name}", s.line, s.col) from None
        if isinstance(entry, Rewrite):
            raise ParseError(f"{name} names a rewrite rule, not a term", s.line, s.col)
        return Const(name)
    if cls is SApp:
        return App(_elab(s.fn, env, scope, ctx), _elab(s.arg, env, scope, ctx))
    if cls is SBind:
        name = s.name
        d = _elab(s.dom, env, scope, ctx)
        if name is None:  # an arrow, whose codomain cannot name its binder
            return Pi("_", d, shift(_elab(s.body, env, scope, ctx), 1))
        dfn = None if s.defn is None else _elab(s.defn, env, scope, ctx)
        body = _elab(s.body, env, [name] + scope, push(ctx, name, d, dfn))
        return s.make(name, d, body) if dfn is None else Let(name, d, dfn, body)
    if cls is SortT:
        return s
    if cls is SMeta:
        meta_hints = [hint for hint, _, _ in ctx[len(scope):]]
        if s.name not in meta_hints:
            raise ParseError(f"metavariable ${s.name} not allowed here", s.line, s.col)
        return Var(len(scope) + meta_hints.index(s.name), s.name)
    g = _elab(s.g, env, scope, ctx)  # SComp
    f = _elab(s.f, env, scope, ctx)
    return _expand_composition(env, g, f, scope, ctx, s.line, s.col)


def _expand_composition(
    env: GlobalEnv,
    g: Term,
    f: Term,
    scope: list[str],
    ctx: Ctx,
    line: int,
    col: int,
) -> Term:
    try:
        fty = whnf(env, infer(env, f, ctx), ctx)
    except TypeCheckError as err:
        raise ParseError(f"cannot type right side of ∘: {err}", line, col) from err
    if not isinstance(fty, Pi):
        raise ParseError("right side of ∘ is not a function", line, col)
    hint = "x" if "x" not in scope else "x'"
    return Lam(hint, fty.dom, App(shift(g, 1), App(shift(f, 1), Var(0, hint))))


def build_rewrite(
    env: GlobalEnv, name: str, lhs: Surface, rhs: Surface, line: int = 0, col: int = 0
):
    """Assemble a rewrite rule: left side from ``lhs``, right side elaborated
    under the metavariable telescope the left side induces.  ``line`` and
    ``col`` locate the directive, for pattern errors with no position of
    their own."""
    pattern = surface_to_pattern(lhs, line, col)
    metas, _ = rule_context(env, pattern)
    rhs_term = elaborate(rhs, env, metas=metas)
    return Rewrite(name, pattern, rhs_term)


def surface_to_pattern(s: Surface, line: int, col: int) -> Term:
    """Read a parsed term as a left-linear rewrite pattern: a constant
    spine whose arguments are metavariables or constant spines.  Metavariable
    ``$x`` becomes ``Var(i, "x")``, numbered last argument first.  Shape
    errors are reported at ``line``:``col``, a repeated metavariable at its
    second occurrence."""
    return _pattern(s, {}, line, col)


def _pattern(s: Surface, indices: dict[str, int], line: int, col: int) -> Term:
    """The spine ``s`` of a pattern, ``indices`` numbering its metavariables so far."""
    args: list[Term] = []
    while type(s) is SApp:
        a = s.arg
        if type(a) is SMeta:
            if a.name in indices:
                raise ParseError(f"metavariable ${a.name} occurs twice", a.line, a.col)
            indices[a.name] = len(indices)
            args.append(Var(indices[a.name], a.name))
        elif type(a) is SApp or type(a) is SName:
            args.append(_pattern(a, indices, line, col))
        else:
            raise ParseError("pattern arguments are metavariables or constant spines", line, col)
        s = s.fn
    if type(s) is not SName:
        raise ParseError("pattern head must be a constant", line, col)
    return app(Const(s.name), *reversed(args))
