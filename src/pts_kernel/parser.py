"""Tokenizer, term/directive parser, and elaboration to kernel terms.

The source grammar is the one the canonical printer emits, so every display
re-parses:

    term   := fun (x : T) => term | forall (x : T), term
            | Pi (X : #) -> term  | let x : T := term in term | arrow
    arrow  := comp [-> term]                 (right associative)
    comp   := app [∘ comp]                   (binds tighter than ->)
    app    := atom atom*
    atom   := name | $name | * | # | ## | ( term )

Directives end with a period: ``system``, ``axiom``, ``rule``, ``const``,
``def``, ``rewrite``, ``check``, ``conv``, ``trace``.  Comments run from
``--`` to end of line.  Composition ``g∘f`` elaborates to
``fun (x : X) => g (f x)`` with ``X`` recovered by inferring ``f``'s type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .env import GlobalEnv, MetaArg, Pattern, Rewrite
from .errors import ParseError, TypeCheckError
from .terms import App, Const, Lam, Let, Pi, SORT_BY_TOKEN, SortT, Term, Var, shift
from .typecheck import Ctx, _type_pattern, infer, push, whnf

KEYWORDS = frozenset(
    "fun forall Pi let in const def rewrite check conv trace system axiom rule".split()
)
_PUNCT = ("(", ")", ":=", "=>", "->", ":", ",", ".", "∘")
_EXTRA_IDENT = frozenset("_'⊥¬")  # underscore, prime, ⊥, ¬


@dataclass(frozen=True)
class Token:
    kind: str  # name | meta | number | sort | punct | kw | eof
    text: str
    line: int
    col: int


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch in _EXTRA_IDENT


def tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if src.startswith("--", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        if src.startswith("##", i):
            toks.append(Token("sort", "##", line, col))
            i += 2
            col += 2
            continue
        if ch in "*#":
            toks.append(Token("sort", ch, line, col))
            i += 1
            col += 1
            continue
        two = src[i : i + 2]
        if two in (":=", "=>", "->"):
            toks.append(Token("punct", two, line, col))
            i += 2
            col += 2
            continue
        if ch in "():,.∘":
            toks.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if ch == "$":
            j = i + 1
            while j < n and _is_ident_char(src[j]):
                j += 1
            if j == i + 1:
                raise ParseError("empty metavariable name", line, col)
            toks.append(Token("meta", src[i + 1 : j], line, col))
            col += j - i
            i = j
            continue
        if _is_ident_char(ch):
            j = i
            while j < n:
                if _is_ident_char(src[j]):
                    j += 1
                elif src[j] == "-" and j + 1 < n and _is_ident_char(src[j + 1]):
                    j += 2  # interior hyphen (system names); -> and -- still break
                else:
                    break
            text = src[i:j]
            if text.isdigit():
                kind = "number"
            elif text in KEYWORDS:
                kind = "kw"
            else:
                kind = "name"
            toks.append(Token(kind, text, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


# --------------------------------------------------------------------------
# Surface syntax


@dataclass(frozen=True)
class SName:
    name: str
    line: int
    col: int


@dataclass(frozen=True)
class SMeta:
    name: str
    line: int
    col: int


@dataclass(frozen=True)
class SSort:
    token: str


@dataclass(frozen=True)
class SApp:
    fn: "Surface"
    arg: "Surface"


@dataclass(frozen=True)
class SLam:
    name: str
    dom: "Surface"
    body: "Surface"


@dataclass(frozen=True)
class SPi:
    name: str
    dom: "Surface"
    cod: "Surface"


@dataclass(frozen=True)
class SArrow:
    dom: "Surface"
    cod: "Surface"


@dataclass(frozen=True)
class SLet:
    name: str
    ann: "Surface"
    defn: "Surface"
    body: "Surface"


@dataclass(frozen=True)
class SComp:
    g: "Surface"
    f: "Surface"
    line: int
    col: int


Surface = Union[SName, SMeta, SSort, SApp, SLam, SPi, SArrow, SLet, SComp]


@dataclass(frozen=True)
class Directive:
    kind: str  # system | axiom | rule | const | def | rewrite | check | conv | trace
    name: str
    parts: tuple
    line: int
    col: int


class _Parser:
    def __init__(self, toks: list[Token]) -> None:
        self.toks = toks
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {t.text or t.kind!r}", t.line, t.col)
        return self.next()

    def at_punct(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "punct" and t.text == text

    def at_kw(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "kw" and t.text == text

    # -- terms --------------------------------------------------------------

    def term(self) -> Surface:
        t = self.peek()
        if t.kind == "kw" and t.text in ("fun", "forall", "Pi", "let"):
            return self._binder()
        return self._arrow()

    def _binder(self) -> Surface:
        t = self.next()
        if t.text == "let":
            name = self.expect("name").text
            self.expect("punct", ":")
            ann = self.term()
            self.expect("punct", ":=")
            defn = self.term()
            self.expect("kw", "in")
            body = self.term()
            return SLet(name, ann, defn, body)
        groups: list[tuple[str, Surface]] = []
        while self.at_punct("("):
            self.next()
            name = self.next()
            if name.kind not in ("name", "kw"):
                raise ParseError("expected binder name", name.line, name.col)
            self.expect("punct", ":")
            dom = self.term()
            self.expect("punct", ")")
            groups.append((name.text, dom))
        if not groups:
            p = self.peek()
            raise ParseError(f"{t.text} needs at least one (x : T) binder", p.line, p.col)
        if t.text == "fun":
            self.expect("punct", "=>")
        elif t.text == "forall":
            self.expect("punct", ",")
        else:
            self.expect("punct", "->")
        body = self.term()
        for name, dom in reversed(groups):
            body = SLam(name, dom, body) if t.text == "fun" else SPi(name, dom, body)
        return body

    def _arrow(self) -> Surface:
        left = self._comp()
        if self.at_punct("->"):
            self.next()
            return SArrow(left, self.term())
        return left

    def _comp(self) -> Surface:
        left = self._app()
        if self.at_punct("∘"):
            op = self.next()
            return SComp(left, self._comp(), op.line, op.col)
        return left

    def _app(self) -> Surface:
        t = self._atom()
        while True:
            nxt = self.peek()
            if nxt.kind in ("name", "meta", "sort") or (
                nxt.kind == "punct" and nxt.text == "("
            ):
                t = SApp(t, self._atom())
            else:
                return t

    def _atom(self) -> Surface:
        t = self.next()
        if t.kind == "name":
            return SName(t.text, t.line, t.col)
        if t.kind == "meta":
            return SMeta(t.text, t.line, t.col)
        if t.kind == "sort":
            return SSort(t.text)
        if t.kind == "punct" and t.text == "(":
            inner = self.term()
            self.expect("punct", ")")
            return inner
        raise ParseError(f"unexpected {t.text or t.kind!r}", t.line, t.col)

    # -- directives ---------------------------------------------------------

    def directives(self) -> list[Directive]:
        out = []
        while self.peek().kind != "eof":
            out.append(self._directive())
        return out

    def _directive(self) -> Directive:
        t = self.peek()
        if t.kind != "kw":
            raise ParseError(f"expected a directive, found {t.text!r}", t.line, t.col)
        self.next()
        kind = t.text
        if kind == "system":
            name = self.next()
            if name.kind not in ("name", "kw"):
                raise ParseError("expected system name", name.line, name.col)
            parts: tuple = ()
            d = Directive(kind, name.text, parts, t.line, t.col)
        elif kind == "axiom":
            s1 = self.expect("sort").text
            self.expect("punct", ":")
            s2 = self.expect("sort").text
            d = Directive(kind, "", (s1, s2), t.line, t.col)
        elif kind == "rule":
            s1 = self.expect("sort").text
            s2 = self.expect("sort").text
            self.expect("punct", ":")
            s3 = self.expect("sort").text
            d = Directive(kind, "", (s1, s2, s3), t.line, t.col)
        elif kind == "const":
            name = self.expect("name").text
            self.expect("punct", ":")
            d = Directive(kind, name, (self.term(),), t.line, t.col)
        elif kind == "def":
            name = self.expect("name").text
            self.expect("punct", ":")
            ty = self.term()
            self.expect("punct", ":=")
            d = Directive(kind, name, (ty, self.term()), t.line, t.col)
        elif kind == "rewrite":
            name = self.expect("name").text
            self.expect("punct", ":")
            lhs = self.term()
            self.expect("punct", "=>")
            d = Directive(kind, name, (lhs, self.term()), t.line, t.col)
        elif kind == "check":
            tm = self.term()
            self.expect("punct", ":")
            d = Directive(kind, "", (tm, self.term()), t.line, t.col)
        elif kind == "conv":
            a = self._atom()
            b = self._atom()
            d = Directive(kind, "", (a, b), t.line, t.col)
        elif kind == "trace":
            tm = self._atom()
            steps = self.expect("number")
            d = Directive(kind, "", (tm, int(steps.text)), t.line, t.col)
        else:
            raise ParseError(f"{kind!r} cannot start a directive", t.line, t.col)
        self.expect("punct", ".")
        return d


def parse_term_surface(src: str) -> Surface:
    p = _Parser(tokenize(src))
    t = p.term()
    p.expect("eof")
    return t


def parse_program(src: str) -> list[Directive]:
    return _Parser(tokenize(src)).directives()


# --------------------------------------------------------------------------
# Elaboration


def elaborate(
    s: Surface,
    env: GlobalEnv,
    scope: Optional[list[str]] = None,
    ctx: Ctx = (),
    metas: Optional[dict[str, tuple[int, Term]]] = None,
) -> Term:
    """Resolve names and expand notations; ``scope`` lists binder names
    innermost-first, aligned with ``ctx``."""
    scope = scope if scope is not None else []

    def go(s: Surface, scope: list[str], ctx: Ctx) -> Term:
        match s:
            case SName(name, line, col):
                if name in scope:
                    i = scope.index(name)
                    return Var(i, name)
                if name in env:
                    return _const_ref(env, name, line, col)
                raise ParseError(f"unknown name {name}", line, col)
            case SMeta(name, line, col):
                if metas is None or name not in metas:
                    raise ParseError(f"metavariable ${name} not allowed here", line, col)
                index, _ = metas[name]
                return Var(len(scope) + index, name)
            case SSort(token):
                return SortT(SORT_BY_TOKEN[token])
            case SApp(f, a):
                return App(go(f, scope, ctx), go(a, scope, ctx))
            case SLam(name, dom, body):
                d = go(dom, scope, ctx)
                return Lam(name, d, go(body, [name] + scope, push(ctx, name, d)))
            case SPi(name, dom, cod):
                d = go(dom, scope, ctx)
                return Pi(name, d, go(cod, [name] + scope, push(ctx, name, d)))
            case SArrow(dom, cod):
                return Pi("_", go(dom, scope, ctx), shift(go(cod, scope, ctx), 1))
            case SLet(name, ann, defn, body):
                a = go(ann, scope, ctx)
                dfn = go(defn, scope, ctx)
                return Let(name, a, dfn, go(body, [name] + scope, push(ctx, name, a, dfn)))
            case SComp(gs, fs, line, col):
                g = go(gs, scope, ctx)
                f = go(fs, scope, ctx)
                return _expand_composition(env, g, f, scope, ctx, metas, line, col)
        raise AssertionError("unreachable surface node")

    return go(s, scope, ctx)


def _const_ref(env: GlobalEnv, name: str, line: int, col: int) -> Term:
    if isinstance(env.lookup(name), Rewrite):
        raise ParseError(f"{name} names a rewrite rule, not a term", line, col)
    return Const(name)


def _expand_composition(
    env: GlobalEnv,
    g: Term,
    f: Term,
    scope: list[str],
    ctx: Ctx,
    metas: Optional[dict[str, tuple[int, Term]]],
    line: int,
    col: int,
) -> Term:
    infer_ctx = ctx
    if metas is not None:
        # The metavariable telescope sits below the local binders.
        infer_ctx = ctx + tuple(
            (name, ty, None) for name, (_, ty) in sorted(metas.items(), key=lambda kv: kv[1][0])
        )
    try:
        fty = whnf(env, infer(env, f, infer_ctx), infer_ctx)
    except TypeCheckError as err:
        raise ParseError(f"cannot type right side of ∘: {err}", line, col) from err
    if not isinstance(fty, Pi):
        raise ParseError("right side of ∘ is not a function", line, col)
    hint = "x" if "x" not in scope else "x'"
    return Lam(hint, fty.dom, App(shift(g, 1), App(shift(f, 1), Var(0, hint))))


def build_rewrite(
    env: GlobalEnv, name: str, lhs: Surface, rhs: Surface, line: int = 0, col: int = 0
):
    """Assemble a rewrite rule: pattern from ``lhs``, right side elaborated
    under the metavariable telescope the pattern induces.  ``line`` and
    ``col`` locate the directive, for pattern errors with no position of
    their own."""
    pattern = surface_to_pattern(lhs, line, col)
    metas = pattern.metavars()
    types: list[Optional[Term]] = [None] * len(metas)
    _type_pattern(env, pattern, types)
    meta_scope = {m.hint: (m.index, types[m.index]) for m in metas}
    rhs_term = elaborate(rhs, env, metas=meta_scope)  # type: ignore[arg-type]
    return Rewrite(name, pattern, rhs_term)


def surface_to_pattern(s: Surface, line: int, col: int) -> Pattern:
    """Interpret a parsed term as a left-linear rewrite pattern; shape errors
    are reported at ``line``:``col``."""
    indices: dict[str, int] = {}

    def go(s: Surface) -> Pattern:
        args: list[Union[MetaArg, Pattern]] = []
        while isinstance(s, SApp):
            args.append(arg(s.arg))
            s = s.fn
        if not isinstance(s, SName):
            raise ParseError("pattern head must be a constant", line, col)
        args.reverse()
        return Pattern(s.name, tuple(args))

    def arg(s: Surface) -> Union[MetaArg, Pattern]:
        if isinstance(s, SMeta):
            if s.name in indices:
                raise ParseError(f"metavariable ${s.name} occurs twice", s.line, s.col)
            indices[s.name] = len(indices)
            return MetaArg(indices[s.name], s.name)
        if isinstance(s, (SApp, SName)):
            return go(s)
        raise ParseError("pattern arguments are metavariables or constant spines", line, col)

    pattern = go(s)
    pattern.validate()
    return pattern
