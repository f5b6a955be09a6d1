"""Type inference and conversion for PTS terms.

Conversion is beta (contraction), delta (transparent definitions, global and
let-bound alike), and rho (declared rewrite rules fired at the head).  Each
head step is one ``_head_event`` on a head and its argument stack, shared with
``reduce``; a definition given all its parameters unfolds by its template.
Conversion and rule matching hold each side as such a head and stack, across
unfoldings, with lazy delta: two rigid heads, or one defined constant on both
sides, compare their arguments once, and a defined head unfolds only when that
fails or when the heads differ.

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
from .env import Decl, Def, GlobalEnv, Rewrite
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
    instantiate,
    shift,
    subst,
    unwind,
)

DEFAULT_FUEL = 100_000

# A local context is a tuple of (hint, type, optional transparent value),
# innermost binder first; types and values are expressed at their binding
# depth and shifted on lookup.
Ctx = tuple[tuple[str, Term, Optional[Term]], ...]


class Fuel:
    """A budget of head steps for the work ``what`` names."""

    __slots__ = ("left", "budget", "what")

    def __init__(self, amount: int = DEFAULT_FUEL, what: str = "conversion") -> None:
        self.left, self.budget, self.what = amount, amount, what

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise TypeCheckError(FUEL_EXHAUSTED, f"{self.what} exceeded {self.budget} head steps")


def push(ctx: Ctx, hint: str, ty: Term, value: Optional[Term] = None) -> Ctx:
    return ((hint, ty, value),) + ctx


def ctx_type(ctx: Ctx, index: int) -> Term:
    return shift(ctx[index][1], index + 1)


def ctx_value(ctx: Ctx, index: int) -> Optional[Term]:
    value = ctx[index][2]
    return shift(value, index + 1) if value is not None else None


# The kinds of head events; ``reduce`` reports them as trace rows.
DELTA_UNFOLD, BETA_CONTRACT, REWRITE_FIRE = "delta-unfold", "beta-contract", "rewrite-fire"


def _head_event(
    env: GlobalEnv,
    head: Term,
    stack: list[Term],
    ctx: Ctx = (),
    fuel: Optional[Fuel] = None,
    lazy_defs: bool = False,
    use_rules: bool = True,
) -> Optional[tuple[str, str | int, Term]]:
    """One head event on ``head`` applied to ``stack`` (innermost argument
    last), popping the arguments it consumes: ``(kind, detail, result)``, or
    None when the head is normal.  A ``fun`` chain contracts (detail: the
    arguments consumed); a ``let``, or a variable with a value in ``ctx``,
    unfolds under its hint; a defined constant unfolds unless ``lazy_defs``, by
    its template if given all its parameters, else its ``fun`` body contracts
    at once; a declared constant fires its first matching rule if
    ``use_rules``.  ``fuel`` pays per unfolding, argument and rule; without it,
    a fresh ``Fuel`` meters only rule matching."""
    cls = type(head)
    if cls is Lam and stack:
        count = len(stack)
        new = contract_head(head, stack, fuel)
        return BETA_CONTRACT, count - len(stack), new
    if cls is Let:
        return DELTA_UNFOLD, head.hint, contract_head(head, stack, fuel)
    if cls is Var and head.index < len(ctx) and (value := ctx_value(ctx, head.index)) is not None:
        if fuel is not None:
            fuel.spend()
        return DELTA_UNFOLD, ctx[head.index][0], value
    if cls is Const:
        body = env.def_body(head.name)
        if body is not None:
            if lazy_defs:
                return None
            if fuel is not None:
                fuel.spend()
            if type(body) is Lam:
                n, pieces = env.template(head.name)
                if pieces is not None and len(stack) >= n:
                    if fuel is not None:
                        for _ in range(n):
                            fuel.spend()
                    sigma, (build_head, build_args) = stack[-n:], pieces
                    stack[-n:] = [build(sigma) for build in build_args]
                    return DELTA_UNFOLD, head.name, build_head(sigma)
                body = contract_head(body, stack, fuel)
            return DELTA_UNFOLD, head.name, body
        if use_rules and (
            fired := _try_rules(env, head.name, stack, ctx, fuel or Fuel(what="rule matching"))
        ):
            return REWRITE_FIRE, *fired
    return None  # sorts, products, unapplied lambdas, free variables, holes


def _head_normal(
    env: GlobalEnv,
    head: Term,
    stack: list[Term],
    ctx: Ctx,
    fuel: Fuel,
    lazy_defs: bool,
    use_rules: bool = True,
) -> Term:
    """Apply ``_head_event`` until none fires; the head, its arguments left on ``stack``."""
    while (event := _head_event(env, head, stack, ctx, fuel, lazy_defs, use_rules)) is not None:
        head = unwind(event[2], stack)
    return head


def contract_head(t: Term, stack: list[Term], fuel: Optional[Fuel] = None) -> Term:
    """Contract the redex ``t``, a ``let`` or a ``fun`` applied to ``stack``
    (innermost argument last), and return the result: every contraction but a
    definition built from its template.  A ``let`` substitutes its definition;
    a ``fun`` chain pops the arguments it binds into one ``instantiate`` pass,
    going on while the result is a ``fun`` and arguments remain.  ``fuel``, if
    any, pays once per ``let`` and per argument, first."""
    if type(t) is Let:
        if fuel is not None:
            fuel.spend()
        return subst(t.body, t.defn)
    while type(t) is Lam and stack:
        sigma: list[Term] = []
        while type(t) is Lam and stack:
            if fuel is not None:
                fuel.spend()
            sigma.append(stack.pop())
            t = t.body
        sigma.reverse()  # innermost binder's argument first
        t = instantiate(t, sigma)
    return t


def _try_rules(
    env: GlobalEnv, name: str, stack: list[Term], ctx: Ctx, fuel: Fuel
) -> Optional[tuple[str, Term]]:
    """Fire the first rule for ``name`` that matches ``stack``; pop what it consumes."""
    for rule in env.rules_for(name):
        pats: list[Term] = []
        unwind(rule.lhs, pats)
        sigma: list[Optional[Term]] = [None] * rule.lhs.fa
        if len(stack) >= len(pats) and _match(env, pats, stack, ctx, fuel, sigma):
            fuel.spend()
            del stack[len(stack) - len(pats) :]
            return rule.name, instantiate(rule.rhs, sigma)  # type: ignore[arg-type]
    return None


def _match(
    env: GlobalEnv,
    pats: list[Term],
    stack: list[Term],
    ctx: Ctx,
    fuel: Fuel,
    sigma: list[Optional[Term]],
) -> bool:
    """Match the pattern stack ``pats`` against the top of ``stack``, both
    innermost argument last, first argument to last, up to the first failure:
    a metavariable ``Var(i)`` captures its subject as given (folded); a rigid
    sub-pattern reduces its subject by beta/delta/let onto a stack of its own
    and matches its own pattern stack there."""
    for pat, t in zip(reversed(pats), reversed(stack)):
        if type(pat) is Var:
            sigma[pat.index] = t
            continue
        sub: list[Term] = []
        head = _head_normal(env, unwind(t, sub), sub, ctx, fuel, lazy_defs=False, use_rules=False)
        sub_pats: list[Term] = []
        if head.skel is not unwind(pat, sub_pats).skel or len(sub) != len(sub_pats):
            return False
        if not _match(env, sub_pats, sub, ctx, fuel, sigma):
            return False
    return True


def whnf(env: GlobalEnv, t: Term, ctx: Ctx = (), fuel: Optional[Fuel] = None) -> Term:
    """Weak head normal form under beta, delta, let, and rewrite rules.

    The result is headed by a sort, a product, an unapplied lambda, a variable
    spine, or an opaque-constant spine on which no rule fires.
    """
    fuel = fuel or Fuel()
    stack: list[Term] = []
    left = fuel.left
    head = _head_normal(env, unwind(t, stack), stack, ctx, fuel, lazy_defs=False)
    # Every head event spends fuel: when none was spent, ``t`` is returned as is.
    return t if fuel.left == left else app(head, *reversed(stack))


def convert(env: GlobalEnv, a: Term, b: Term, ctx: Ctx = (), fuel: Optional[Fuel] = None) -> bool:
    """Decide beta-delta-rho convertibility. Raises FuelExhausted, never loops."""
    return _conv(env, a, b, ctx, fuel or Fuel(), {})


# Verdicts decided within one ``convert`` call, keyed by both terms'
# skeletons (so up to alpha) and the context depth, or 0 for two closed
# terms.  Depth stands for the context only within the call, because
# ``_conv_heads`` pushes only value-less binders onto the caller's context.
Memo = dict[tuple[Term, Term, int], bool]


def _conv(env: GlobalEnv, a: Term, b: Term, ctx: Ctx, fuel: Fuel, memo: Memo) -> bool:
    if a.skel is b.skel:
        return True
    key = (a.skel, b.skel, len(ctx) if a.fv or b.fv else 0)
    verdict = memo.get(key)
    if verdict is not None:
        return verdict
    sa: list[Term] = []
    sb: list[Term] = []
    ha = _head_normal(env, unwind(a, sa), sa, ctx, fuel, lazy_defs=True)
    hb = _head_normal(env, unwind(b, sb), sb, ctx, fuel, lazy_defs=True)
    while not (len(sa) == len(sb) and alpha_eq(ha, hb) and all(map(alpha_eq, sa, sb))):
        def_a = type(ha) is Const and env.def_body(ha.name) is not None
        def_b = type(hb) is Const and env.def_body(hb.name) is not None
        rigid = not def_a and not def_b
        # Two rigid heads, or one definition on both sides, compare their
        # arguments first to last; the definition unfolds if that fails.
        if rigid or def_a and ha is hb:
            verdict = len(sa) == len(sb) and _conv_heads(env, ha, hb, ctx, fuel, memo) and all(
                _conv(env, x, y, ctx, fuel, memo) for x, y in zip(reversed(sa), reversed(sb))
            )
            if verdict or rigid:
                break
        # Unfold one side at a time, younger definition first, re-checking
        # alignment after each unfolding; this lets a term meet its own
        # reduct instead of the two sides chasing each other.
        unfold_a = def_a and (not def_b or env.age(ha.name) >= env.age(hb.name))
        head, stack = (ha, sa) if unfold_a else (hb, sb)
        event = _head_event(env, head, stack, ctx, fuel)  # unfolds the definition
        head = _head_normal(env, unwind(event[2], stack), stack, ctx, fuel, lazy_defs=True)
        ha, hb = (head, hb) if unfold_a else (ha, head)
    else:
        verdict = True
    memo[key] = verdict
    return verdict


def _conv_heads(env: GlobalEnv, ha: Term, hb: Term, ctx: Ctx, fuel: Fuel, memo: Memo) -> bool:
    """Compare two rigid heads: two ``fun``s or two products by converting their
    domains and bodies, a sort, variable or constant up to alpha."""
    match ha, hb:
        case (Lam(_, d1, b1), Lam(_, d2, b2)) | (Pi(_, d1, b1), Pi(_, d2, b2)):
            return _conv(env, d1, d2, ctx, fuel, memo) and _conv(
                env, b1, b2, push(ctx, ha.hint, d1), fuel, memo
            )
    return alpha_eq(ha, hb)


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
            s2 = env.spec.axioms.get(s)
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
        case Lam():
            # A chain of funs in one pass: the domains' sorts outermost
            # first, the innermost body once, then the products innermost
            # first.  Above the innermost binder the body type is the product
            # formed one binder below, whose sort its rule gives.
            chain: list[tuple[Lam, Sort]] = []
            while type(t) is Lam:
                chain.append((t, _sort_of(env, t.dom, ctx, "abstraction domain")))
                ctx = push(ctx, t.hint, t.dom)
                t = t.body
            ty = infer(env, t, ctx)
            s2 = _sort_of(env, ty, ctx, "abstraction body type")
            for lam, s1 in reversed(chain):
                s3 = env.spec.rules.get((s1, s2))
                if s3 is None:
                    raise _no_rule(s1, s2)
                ty, s2 = Pi(lam.hint, lam.dom, ty), s3
            return ty
        case Pi(hint, dom, cod):
            s1 = _sort_of(env, dom, ctx, "product domain")
            s2 = _sort_of(env, cod, push(ctx, hint, dom), "product codomain")
            s3 = env.spec.rules.get((s1, s2))
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
    ctx, lhs_ty = rule_context(env, rule.lhs)
    rhs_ty = infer(env, rule.rhs, ctx)
    if not convert(env, rhs_ty, lhs_ty, ctx):
        raise TypeCheckError(
            DOMAIN_MISMATCH,
            f"rewrite {rule.name}: sides have types {fold_display(lhs_ty, env)}"
            f" and {fold_display(rhs_ty, env)}",
        )


def rule_context(env: GlobalEnv, lhs: Term) -> tuple[Ctx, Term]:
    """The context of a rule's metavariables, in index order so that
    metavariable ``i`` is ``Var(i)`` in it, and the type of ``lhs``.

    Raises ``IllFormedPatternError`` unless ``lhs`` is a left-linear pattern
    whose metavariables are exactly ``Var(0)`` .. ``Var(lhs.fa - 1)``."""
    slots: list[Optional[tuple[str, Term, None]]] = [None] * lhs.fa
    lhs_ty = _type_pattern(env, lhs, slots)
    if None in slots:
        raise IllFormedPatternError("metavariable indices must be dense")
    return tuple(slots), lhs_ty  # type: ignore[arg-type]


def _type_pattern(
    env: GlobalEnv, pattern: Term, slots: list[Optional[tuple[str, Term, None]]]
) -> Term:
    """Type a constant spine, filling the slot of each metavariable it binds;
    returns the spine's type."""
    args: list[Term] = []
    head = unwind(pattern, args)
    if type(head) is not Const:
        raise IllFormedPatternError("pattern head must be a constant")
    entry = env.lookup(head.name)
    if not isinstance(entry, Decl):
        raise IllFormedPatternError(f"pattern head {head.name} must be a declared constant")
    ty = entry.type
    fuel = Fuel()
    for parg in reversed(args):
        tyw = whnf(env, ty, (), fuel)
        if not isinstance(tyw, Pi):
            raise IllFormedPatternError(f"pattern head {head.name} is applied too many times")
        if type(parg) is Var:
            if slots[parg.index] is not None:
                raise IllFormedPatternError(f"metavariable ${parg.hint} occurs twice")
            if tyw.dom.fv:
                raise IllFormedPatternError(
                    f"type of ${parg.hint} depends on earlier pattern arguments"
                )
            slots[parg.index] = (parg.hint, tyw.dom, None)
        elif type(parg) in (Const, App):
            if not convert(env, _type_pattern(env, parg, slots), tyw.dom):
                rigid = unwind(parg, []).name  # type: ignore[attr-defined]
                raise IllFormedPatternError(f"rigid pattern argument {rigid} has the wrong type")
        else:
            raise IllFormedPatternError("pattern arguments are metavariables or constant spines")
        ty = subst(tyw.cod, parg)
    return ty
