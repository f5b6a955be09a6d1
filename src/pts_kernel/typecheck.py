"""Type inference and conversion for PTS terms.

Conversion is beta (contraction), delta (transparent definitions, global and
let-bound alike), and rho (declared rewrite rules fired at the head).  The
strategy is whnf-then-structural with lazy delta: a spine headed by a defined
constant is first compared against an equal-named spine argumentwise, and only
unfolded when that fails or when heads differ.

One ``convert`` call memoizes every sub-problem it decides, true or false, so
an argument comparison that failed before an unfolding is not solved again
after it; nested Church numerals then convert in polynomial rather than
exponential time.  The memo lives for one call only: it keys a problem by the
context's depth, which determines the context only while the base context is
fixed.  Another call, for instance one made under a ``let``, may bind a
different value at the same depth.  A problem between two closed terms reads
no context at all and is keyed without its depth.

Top-level definitions are checked telescopically: leading lambdas of a
definition body are matched against products of its annotation without
consulting the product-rule table.  Definitions with parameters therefore work
even where the corresponding product is not a term of the system, which is
what separates first-class definitions from sugared abstractions.  Every inner
abstraction still passes the full product-formation check.
"""

from __future__ import annotations

from typing import Optional

from .display import fold_display
from .env import Decl, Def, GlobalEnv, MetaArg, Pattern, Rewrite, instantiate, pattern_term
from .errors import (
    DOMAIN_MISMATCH,
    FUEL_EXHAUSTED,
    IllFormedPatternError,
    NO_AXIOM,
    NO_RULE,
    NOT_A_FUNCTION,
    NOT_A_SORT,
    TypeCheckError,
    UNKNOWN_CONSTANT,
)
from .specs import axiom_of, rule_of
from .terms import (
    App,
    Const,
    Lam,
    Let,
    Pi,
    Sort,
    SortT,
    Term,
    Var,
    alpha_eq,
    app,
    shift,
    spine,
    subst,
)

DEFAULT_FUEL = 100_000

# A local context is a tuple of (hint, type, optional transparent value),
# innermost binder first; types and values are expressed at their binding
# depth and shifted on lookup.
Ctx = tuple[tuple[str, Term, Optional[Term]], ...]


class Fuel:
    __slots__ = ("left", "budget")

    def __init__(self, amount: int = DEFAULT_FUEL) -> None:
        self.left = self.budget = amount

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise TypeCheckError(FUEL_EXHAUSTED, f"conversion exceeded {self.budget} head steps")


def push(ctx: Ctx, hint: str, ty: Term, value: Optional[Term] = None) -> Ctx:
    return ((hint, ty, value),) + ctx


def ctx_type(ctx: Ctx, index: int) -> Term:
    return shift(ctx[index][1], index + 1)


def ctx_value(ctx: Ctx, index: int) -> Optional[Term]:
    value = ctx[index][2]
    return shift(value, index + 1) if value is not None else None


def _head_reduce(
    env: GlobalEnv,
    t: Term,
    ctx: Ctx,
    fuel: Fuel,
    lazy_defs: bool,
    use_rules: bool = True,
) -> Term:
    """Reduce at the head: beta, let, local values, rules, optionally delta."""
    stack: list[Term] = []  # innermost argument last
    while True:
        if isinstance(t, App):
            stack.append(t.arg)
            t = t.fn
            continue
        if isinstance(t, Lam) and stack:
            fuel.spend()
            t = subst(t.body, stack.pop())
            continue
        if isinstance(t, Let):
            fuel.spend()
            t = subst(t.body, t.defn)
            continue
        if isinstance(t, Var) and t.index < len(ctx):
            value = ctx_value(ctx, t.index)
            if value is not None:
                fuel.spend()
                t = value
                continue
            break
        if isinstance(t, Const) and t.name in env:
            entry = env.lookup(t.name)
            if isinstance(entry, Def):
                if lazy_defs:
                    break
                fuel.spend()
                t = entry.body
                continue
            if use_rules and isinstance(entry, Decl):
                fired = _try_rules(env, t.name, stack, ctx, fuel)
                if fired is not None:
                    _, t, stack = fired
                    continue
            break
        break  # sorts, products, unapplied lambdas, free variables, holes
    for a in reversed(stack):
        t = App(t, a)
    return t


def _try_rules(
    env: GlobalEnv, name: str, stack: list[Term], ctx: Ctx, fuel: Fuel
) -> Optional[tuple[str, Term, list[Term]]]:
    rules = env.rules_for(name)
    if not rules:
        return None
    args = list(reversed(stack))
    for rule in rules:
        n = len(rule.lhs.args)
        if len(args) < n:
            continue
        sigma: list[Optional[Term]] = [None] * len(rule.lhs.metavars())
        if all(
            _match_modulo(env, pat, arg, ctx, fuel, sigma)
            for pat, arg in zip(rule.lhs.args, args[:n])
        ):
            fuel.spend()
            new = instantiate(rule.rhs, sigma)  # type: ignore[arg-type]
            return rule.name, new, list(reversed(args[n:]))
    return None


def _match_modulo(
    env: GlobalEnv,
    pat: MetaArg | Pattern,
    t: Term,
    ctx: Ctx,
    fuel: Fuel,
    sigma: list[Optional[Term]],
) -> bool:
    """Match one pattern argument, unfolding the subject's head as needed.

    Metavariables capture the subject as given (folded); rigid positions
    reduce the subject by beta/delta/let until the head constant shows.
    """
    if isinstance(pat, MetaArg):
        sigma[pat.index] = t
        return True
    t = _head_reduce(env, t, ctx, fuel, lazy_defs=False, use_rules=False)
    head, args = spine(t)
    if not isinstance(head, Const) or head.name != pat.head or len(args) != len(pat.args):
        return False
    return all(_match_modulo(env, p, a, ctx, fuel, sigma) for p, a in zip(pat.args, args))


def whnf(env: GlobalEnv, t: Term, ctx: Ctx = (), fuel: Optional[Fuel] = None) -> Term:
    """Weak head normal form under beta, delta, let, and rewrite rules.

    The result is headed by a sort, a product, an unapplied lambda, a variable
    spine, or an opaque-constant spine on which no rule fires.
    """
    return _head_reduce(env, t, ctx, fuel or Fuel(), lazy_defs=False)


def convert(env: GlobalEnv, a: Term, b: Term, ctx: Ctx = (), fuel: Optional[Fuel] = None) -> bool:
    """Decide beta-delta-rho convertibility. Raises FuelExhausted, never loops."""
    return _conv(env, a, b, ctx, fuel or Fuel(), {})


# Verdicts decided within one ``convert`` call, keyed by both terms (hashed
# structurally, compared up to alpha) and the context depth, or 0 for two
# closed terms.  Depth stands for the context only within the call, because
# ``_conv_rigid`` pushes only value-less binders onto the caller's context.
Memo = dict[tuple[Term, Term, int], bool]


def _conv(env: GlobalEnv, a: Term, b: Term, ctx: Ctx, fuel: Fuel, memo: Memo) -> bool:
    if alpha_eq(a, b):
        return True
    key = (a, b, len(ctx) if a.fa or b.fa else 0)
    verdict = memo.get(key)
    if verdict is not None:
        return verdict
    a = _head_reduce(env, a, ctx, fuel, lazy_defs=True)
    b = _head_reduce(env, b, ctx, fuel, lazy_defs=True)
    while True:
        if alpha_eq(a, b):
            verdict = True
            break
        ha, aargs = spine(a)
        hb, bargs = spine(b)
        body_a = env.def_body(ha.name) if isinstance(ha, Const) else None
        body_b = env.def_body(hb.name) if isinstance(hb, Const) else None
        if (
            isinstance(ha, Const)
            and isinstance(hb, Const)
            and ha.name == hb.name
            and len(aargs) == len(bargs)
            and all(_conv(env, x, y, ctx, fuel, memo) for x, y in zip(aargs, bargs))
        ):
            verdict = True
            break
        if body_a is None and body_b is None:
            verdict = _conv_rigid(env, a, b, ctx, fuel, memo)
            break
        # Unfold one side at a time, younger definition first, re-checking
        # alignment after each unfolding; this lets a term meet its own
        # reduct instead of the two sides chasing each other.
        unfold_a = body_a is not None
        if body_a is not None and body_b is not None:
            unfold_a = env.age(ha.name) >= env.age(hb.name)
        if unfold_a:
            fuel.spend()
            a = _head_reduce(env, app(body_a, *aargs), ctx, fuel, lazy_defs=True)
        else:
            fuel.spend()
            b = _head_reduce(env, app(body_b, *bargs), ctx, fuel, lazy_defs=True)
    memo[key] = verdict
    return verdict


def _conv_rigid(env: GlobalEnv, a: Term, b: Term, ctx: Ctx, fuel: Fuel, memo: Memo) -> bool:
    ha, aargs = spine(a)
    hb, bargs = spine(b)
    if type(ha) is not type(hb) or len(aargs) != len(bargs):
        return False
    match ha, hb:
        case SortT(s1), SortT(s2):
            heads_ok = s1 is s2
        case Var(i, _), Var(j, _):
            heads_ok = i == j
        case Const(n1), Const(n2):
            heads_ok = n1 == n2
        case Lam(_, d1, b1), Lam(_, d2, b2):
            heads_ok = _conv(env, d1, d2, ctx, fuel, memo) and _conv(
                env, b1, b2, push(ctx, ha.hint, d1), fuel, memo
            )
        case Pi(_, d1, c1), Pi(_, d2, c2):
            heads_ok = _conv(env, d1, d2, ctx, fuel, memo) and _conv(
                env, c1, c2, push(ctx, ha.hint, d1), fuel, memo
            )
        case _:
            heads_ok = False
    if not heads_ok:
        return False
    return all(_conv(env, x, y, ctx, fuel, memo) for x, y in zip(aargs, bargs))


def _sort_of(env: GlobalEnv, t: Term, ctx: Ctx, what: str) -> Sort:
    """The sort classifying ``t``; fails with NotASort otherwise."""
    ty = infer(env, t, ctx)
    w = whnf(env, ty, ctx)
    if isinstance(w, SortT):
        return w.sort
    raise TypeCheckError(NOT_A_SORT, f"{what} is not classified by a sort")


def infer(env: GlobalEnv, t: Term, ctx: Ctx = ()) -> Term:
    """Infer the type of ``t``; deterministic up to alpha-equality."""
    match t:
        case SortT(s):
            s2 = axiom_of(env.spec, s)
            if s2 is None:
                raise TypeCheckError(NO_AXIOM, f"sort {s.token} has no axiom")
            return SortT(s2)
        case Var(i, hint):
            if i >= len(ctx):
                raise TypeCheckError(UNKNOWN_CONSTANT, f"unbound variable {hint or i}")
            return ctx_type(ctx, i)
        case Const(name):
            entry = env.lookup(name)
            if isinstance(entry, Rewrite):
                raise TypeCheckError(UNKNOWN_CONSTANT, f"{name} names a rewrite rule, not a term")
            return entry.type
        case App(f, arg):
            fty = whnf(env, infer(env, f, ctx), ctx)
            if not isinstance(fty, Pi):
                raise TypeCheckError(NOT_A_FUNCTION, _describe_app(env, f, fty))
            check(env, arg, fty.dom, ctx)
            return subst(fty.cod, arg)
        case Lam(hint, dom, body):
            s1 = _sort_of(env, dom, ctx, "abstraction domain")
            inner = push(ctx, hint, dom)
            body_ty = infer(env, body, inner)
            s2 = _sort_of(env, body_ty, inner, "abstraction body type")
            if rule_of(env.spec, s1, s2) is None:
                raise _no_rule(s1, s2)
            return Pi(hint, dom, body_ty)
        case Pi(hint, dom, cod):
            s1 = _sort_of(env, dom, ctx, "product domain")
            s2 = _sort_of(env, cod, push(ctx, hint, dom), "product codomain")
            s3 = rule_of(env.spec, s1, s2)
            if s3 is None:
                raise _no_rule(s1, s2)
            return SortT(s3)
        case Let(hint, ann, defn, body):
            _sort_of(env, ann, ctx, "let annotation")
            check(env, defn, ann, ctx)
            body_ty = infer(env, body, push(ctx, hint, ann, defn))
            return subst(body_ty, defn)
    raise TypeCheckError(NOT_A_SORT, f"cannot infer {t!r}")


def _no_rule(s1: Sort, s2: Sort) -> TypeCheckError:
    return TypeCheckError(
        NO_RULE,
        f"no product rule for ({s1.token},{s2.token})",
        rule_pair=(s1.token, s2.token),
    )


def _describe_app(env: GlobalEnv, f: Term, fty: Term) -> str:
    return f"{fold_display(f, env)} has type {fold_display(fty, env)}, not a product"


def check(env: GlobalEnv, t: Term, expected: Term, ctx: Ctx = ()) -> None:
    """Check ``t`` against ``expected``; DomainMismatch carries both displays."""
    actual = infer(env, t, ctx)
    if not convert(env, actual, expected, ctx):
        raise TypeCheckError(
            DOMAIN_MISMATCH,
            f"expected {fold_display(expected, env)}, found {fold_display(actual, env)}"
            f" for {fold_display(t, env)}",
        )


def check_definition(env: GlobalEnv, ty: Term, body: Term) -> None:
    """Telescopically check a definition body against its annotation."""
    ctx: Ctx = ()
    fuel = Fuel()
    while isinstance(body, Lam):
        tyw = whnf(env, ty, ctx, fuel)
        if not isinstance(tyw, Pi):
            break
        _sort_of(env, body.dom, ctx, "definition parameter")
        if not convert(env, body.dom, tyw.dom, ctx):
            raise TypeCheckError(
                DOMAIN_MISMATCH,
                f"parameter {body.hint} : {fold_display(body.dom, env)} does not match"
                f" annotated domain {fold_display(tyw.dom, env)}",
            )
        ctx = push(ctx, body.hint, body.dom)
        ty = tyw.cod
        body = body.body
    check(env, body, ty, ctx)


def check_entry(env: GlobalEnv, entry: Decl | Def | Rewrite) -> None:
    """Well-formedness of one environment extension."""
    if isinstance(entry, Decl):
        _sort_of(env, entry.type, (), f"type of {entry.name}")
    elif isinstance(entry, Def):
        check_definition(env, entry.type, entry.body)
    else:
        _check_rewrite(env, entry)


def _check_rewrite(env: GlobalEnv, rule: Rewrite) -> None:
    rule.lhs.validate()
    head = env.lookup(rule.lhs.head)
    if not isinstance(head, Decl):
        raise IllFormedPatternError(f"pattern head {rule.lhs.head} must be a declared constant")
    metas = rule.lhs.metavars()
    types: list[Optional[Term]] = [None] * len(metas)
    lhs_ty = _type_pattern(env, rule.lhs, types)
    ctx: Ctx = tuple((m.hint, types[m.index], None) for m in sorted(metas, key=lambda m: m.index))  # type: ignore[misc]
    rhs_ty = infer(env, rule.rhs, ctx)
    if not convert(env, rhs_ty, lhs_ty, ctx):
        raise TypeCheckError(
            DOMAIN_MISMATCH,
            f"rewrite {rule.name}: sides have types {fold_display(lhs_ty, env)}"
            f" and {fold_display(rhs_ty, env)}",
        )


def _type_pattern(env: GlobalEnv, pattern: Pattern, types: list[Optional[Term]]) -> Term:
    """Infer metavariable types from a pattern; returns the pattern's type."""
    entry = env.lookup(pattern.head)
    if not isinstance(entry, Decl):
        raise IllFormedPatternError(f"pattern head {pattern.head} must be a declared constant")
    ty = entry.type
    fuel = Fuel()
    for parg in pattern.args:
        tyw = whnf(env, ty, (), fuel)
        if not isinstance(tyw, Pi):
            raise IllFormedPatternError(f"pattern head {pattern.head} is applied too many times")
        if isinstance(parg, MetaArg):
            if tyw.dom.fa != 0:
                raise IllFormedPatternError(
                    f"type of ${parg.hint} depends on earlier pattern arguments"
                )
            types[parg.index] = tyw.dom
            arg_term: Term = Var(parg.index, parg.hint)
        else:
            sub_ty = _type_pattern(env, parg, types)
            if not convert(env, sub_ty, tyw.dom):
                raise IllFormedPatternError(
                    f"rigid pattern argument {parg.head} has the wrong type"
                )
            arg_term = pattern_term(parg)
        ty = subst(tyw.cod, arg_term)
    return ty
