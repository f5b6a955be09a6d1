from hypothesis import given, settings, strategies as st

from test_normalizer import ENV, TYPES, terms

from pts_kernel.cli import run_program
from pts_kernel.display import (
    fold_display,
    match_composition,
    plain_display,
    printer,
    raw_display,
)
from pts_kernel.env import Def, GlobalEnv, add_entry, unfold_all
from pts_kernel.parser import elaborate, parse_term_surface
from pts_kernel.reduce import ANNOTATIONS, HEAD_DEF, HEAD_LINEAR, trace
from pts_kernel.specs import LAMBDA_HOL
from pts_kernel.terms import STAR_T, App, Const, Lam, Let, Pi, Var, alpha_eq, app, shift, unwind


def _term(src, env):
    return elaborate(parse_term_surface(src), env)


def test_fold_of_raw_expansion_recovers_folded_row(simple):
    env = simple.env
    t = simple.key_terms["bottomProof"]
    raw = unfold_all(env, t)
    assert fold_display(raw, env) == "l₂ p₀ l₂ l₁"


def test_fold_composition_notation(refined):
    env = refined.env
    t = _term("fun (x : A) => p₀ (δ x)", env)
    assert fold_display(t, env) == "p₀∘δ"


def test_fold_plain_constant(simple):
    env = GlobalEnv(LAMBDA_HOL)
    assert fold_display(Const("c"), env) == "c"
    # A name the environment lacks stays as it is; folding goes on below it.
    t = App(Const("c"), unfold_all(simple.env, Const("x₀")))
    assert fold_display(t, simple.env) == "c x₀"


def test_notation_folds_before_constant_folding(refined):
    # δ's own unfolding matches the composition pattern, so the notation wins.
    env = refined.env
    raw = unfold_all(env, Const("δ"))
    assert fold_display(raw, env) == "intro∘match"


def test_later_definitions_fold_first(simple):
    raw = unfold_all(simple.env, Const("l₂"))
    assert fold_display(raw, simple.env) == "l₂"


def test_composition_matcher_rejects_captured_sides(refined):
    env = refined.env
    t = _term("fun (p : Pow A) => p (δ x₀)", env)  # head uses the binder
    assert match_composition(t) is None


def test_open_compositions_and_arrows_print_exactly(refined):
    # Sides and codomains that keep dangling variables: an unnamed one prints
    # as `?i`, numbered as if the composition's or arrow's binder were gone.
    env = refined.env
    A, p0, delta = Const("A"), Const("p₀"), Const("δ")
    cases = [
        (
            Lam("x", A, App(Var(1, ""), App(Var(3, ""), Var(0, "x")))),
            "?0∘?2",
            "fun (x : A) => ?1 (?3 x)",
        ),
        (Pi("_", A, Var(2, "")), "A -> ?1", "A -> ?1"),
        (
            Lam("x", A, App(p0, App(Var(2, ""), Var(0, "x")))),
            "p₀∘?1",
            "fun (x : A) => p₀ (?2 x)",
        ),
        (
            Lam("q", A, Lam("x", A, App(App(p0, Var(1, "q")), App(delta, Var(0, "x"))))),
            "fun (q : A) => p₀ q∘δ",
            "fun (q : A) => fun (x : A) => p₀ q (δ x)",
        ),
        (
            Lam("x", A, App(Var(1, "g"), App(Var(2, "f"), Var(0, "x")))),
            "g∘f",
            "fun (x : A) => g (f x)",
        ),
        # A composition inside a composition's side: two binders are gone.
        (
            Lam("x", A, App(Lam("y", A, App(Var(2, ""), App(Var(4, ""), Var(0, "y")))),
                            App(delta, Var(0, "x")))),
            "(?0∘?2)∘δ",
            "fun (x : A) => (fun (y : A) => ?2 (?4 y)) (δ x)",
        ),
        (Lam("x", A, Pi("_", A, App(Var(3, ""), Var(1, "x")))), "fun (x : A) => A -> ?2 x", None),
        (
            Pi("_", A, Lam("x", A, App(Var(3, ""), App(delta, Var(0, "x"))))),
            "A -> ?1∘δ",
            "A -> (fun (x : A) => ?2 (δ x))",
        ),
        # The binder occurs only under a nested binder, one index higher there.
        (
            Lam("x", A, App(Lam("y", A, Var(1, "x")), App(delta, Var(0, "x")))),
            "fun (x : A) => (fun (y : A) => x) (δ x)",
            None,
        ),
        (Pi("x", A, Pi("_", A, App(p0, Var(1, "x")))), "forall (x : A), A -> p₀ x", None),
        (
            Lam("x", A, App(p0, App(Lam("y", A, App(Var(1, "x"), Var(0, "y"))), Var(0, "x")))),
            "fun (x : A) => p₀ ((fun (y : A) => x y) x)",
            None,
        ),
    ]
    for t, folded, plain in cases:
        plain = plain or folded
        assert fold_display(t, env) == folded
        assert printer(env)(t) == folded
        assert plain_display(t) == plain
        assert printer()(t) == plain


def test_printer_grammar_shapes(refined):
    env = refined.env
    assert fold_display(_term("forall (p : *), p", env), env) == "⊥"
    assert plain_display(_term("forall (p : *), p", env)) == "forall (p : *), p"
    assert fold_display(_term("# -> #", env), env) == "# -> #"
    assert fold_display(_term("Pi (X : #) -> (T X -> X) -> X", env), env) == (
        "Pi (X : #) -> (T X -> X) -> X"
    )
    assert fold_display(_term("fun (x : A) (h : p₀ x) => h", env), env) == (
        "fun (x : A) => fun (h : p₀ x) => h"
    )
    assert fold_display(_term("let q : Pow A := p₀ in q x₀", env), env) == (
        "let q : Pow A := p₀ in q x₀"
    )


def test_arrow_after_a_composition_takes_it_whole(refined):
    # `->` closes the `∘` before it: the arrow's domain is `p₀∘δ`.
    env = refined.env
    t = _term("p₀∘δ -> A", env)
    assert isinstance(t, Pi) and t.cod == Const("A")
    assert alpha_eq(t.dom, _term("p₀∘δ", env))
    shown = fold_display(t, env)
    assert shown == "p₀∘δ -> A"
    assert alpha_eq(_term(shown, env), t)


def test_sorts_print_canonically(simple):
    env = simple.env
    for src in ("*", "#", "##"):
        assert fold_display(_term(src, env), env) == src


def test_application_parenthesization(refined):
    env = refined.env
    t = _term("s₂ (p₀∘δ) (s₂ p₀ l₁)", env)
    assert fold_display(t, env) == "s₂ (p₀∘δ) (s₂ p₀ l₁)"


def test_nested_composition_parenthesization(refined):
    env = refined.env
    t = _term("(p₀∘δ)∘δ", env)
    assert fold_display(t, env) == "(p₀∘δ)∘δ"


def _corpus_terms(bundle):
    for entry in bundle.env.entries:
        if hasattr(entry, "type") and not isinstance(entry.type, property):
            yield entry.type
        if hasattr(entry, "body"):
            yield entry.body
    yield from bundle.key_terms.values()
    yield from bundle.expected_types.values()


def test_fold_parse_unfold_roundtrip(all_bundles):
    for bundle in all_bundles:
        env = bundle.env
        for t in _corpus_terms(bundle):
            shown = fold_display(t, env)
            back = _term(shown, env)
            assert alpha_eq(unfold_all(env, back), unfold_all(env, t)), (
                bundle.id,
                shown,
            )


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(TYPES).flatmap(terms))
def test_generated_terms_survive_print_and_parse(src):
    # Printing is a fixed point after one round trip, and the re-parsed term
    # means the same: equal unfoldings up to alpha.
    t = _term(src, ENV)
    shown = fold_display(t, ENV)
    back = _term(shown, ENV)
    assert fold_display(back, ENV) == shown, src
    assert alpha_eq(unfold_all(ENV, back), unfold_all(ENV, t)), (src, shown)


def test_raw_display_reparses_to_same_unfolding(simple):
    env = simple.env
    t = simple.key_terms["bottomProof"]
    shown = raw_display(t, env)
    back = _term(shown, env)
    assert alpha_eq(unfold_all(env, back), unfold_all(env, t))


# -- printers shared across the rows of a trace -------------------------------


def test_shared_closed_node_is_primed_against_its_scope(refined):
    # One closed node, printed at the same precedence at top level and
    # under a binder of its own name: the cache key must tell the two
    # scopes apart.
    ident = Lam("x", Const("A"), Var(0, "x"))
    outer = Lam("x", Const("A"), ident)
    env = refined.env
    folded = (printer(env), lambda t: fold_display(t, env))
    for show, once in (folded, (printer(), plain_display)):
        for first, second in ((ident, outer), (outer, ident)):
            assert [show(first), show(second), show(first)] == [once(first), once(second), once(first)]
        assert show(ident) == "fun (x : A) => x"
        assert show(outer) == "fun (x : A) => fun (x' : A) => x'"


def test_alpha_equal_nodes_keep_their_own_hints():
    # Both rows of this trace hold `fun (x : A) => x` and `fun (y : A) => y`,
    # equal as terms but printed under their own hints.
    env = run_program("const A : *.\nconst k : (A -> A) -> (A -> A) -> A.\n").env
    t = _term(
        "(fun (z : A -> A) (w : A -> A) => k w z) (fun (x : A) => x) (fun (y : A) => y)", env
    )
    for mode, dom in ((None, "A"), (ANNOTATIONS, "•")):
        tr = trace(env, t, mode=mode)
        assert len(tr.steps) == 1
        assert tr.displays[1] == f"k (fun (y : {dom}) => y) (fun (x : {dom}) => x)"
        assert tr.plain(tr.steps[0].raw) == tr.displays[1]
        assert tr.displays[0].endswith(f"(fun (x : {dom}) => x) (fun (y : {dom}) => y)")


_HINTS = ("x", "x'", "y", "")


def _shared_nodes(env, ops):
    """Terms built bottom-up from ``ops``, each from earlier ones, so that
    many nodes are shared; some are equal copies of a binder under a new hint,
    and some are compositions whose sides are earlier nodes, open ones too."""
    defs = [e.name for e in env.entries if isinstance(e, Def)]
    nodes = [STAR_T, Var(0, "x"), Var(1, "y")] + [Const(n) for n in defs]
    nodes += [unfold_all(env, Const(n)) for n in defs]
    sizes = [_size(t) for t in nodes]
    for op, i, j, hint in ops:
        (a, sa), (b, sb) = ((nodes[k % len(nodes)], sizes[k % len(nodes)]) for k in (i, j))
        if op == 0:
            node, size = App(a, b), 1 + sa + sb
        elif op == 1:
            node, size = Lam(hint, a, b), 1 + sa + sb
        elif op == 2:
            node, size = Pi(hint, a, b), 1 + sa + sb
        elif op == 3:
            node, size = Let(hint, a, a, b), 1 + 2 * sa + sb
        elif op == 4:  # fun (x : A) => a (b x), with a and b's own variables kept
            node = Lam(hint, Const("A"), App(shift(a, 1), App(shift(b, 1), Var(0, hint))))
            size = 5 + sa + sb
        elif isinstance(a, Lam):
            node, size = Lam(hint, a.dom, a.body), sa
        elif isinstance(a, Pi):
            node, size = Pi(hint, a.dom, a.cod), sa
        else:
            continue
        if size <= 3000:
            nodes.append(node)
            sizes.append(size)
    return nodes


def _size(t):
    match t:
        case App(f, a):
            return 1 + _size(f) + _size(a)
        case Lam(_, dom, body) | Pi(_, dom, body):
            return 1 + _size(dom) + _size(body)
        case Let(_, ann, defn, body):
            return 1 + _size(ann) + _size(defn) + _size(body)
    return 1


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(0, 5), st.integers(0, 999), st.integers(0, 999), st.sampled_from(_HINTS)
        ),
        max_size=40,
    ),
    rows=st.lists(st.integers(0, 999), min_size=1, max_size=12),
    deep=st.lists(st.sampled_from(_HINTS), max_size=150),
)
def test_printer_agrees_with_one_shot_displays(refined, ops, rows, deep):
    # ``deep`` puts each row under a run of binders whose hints collide, so
    # that names are primed many times and cache keys hold long scopes.
    env = refined.env
    nodes = _shared_nodes(env, ops)
    folded, plain = printer(env), printer()
    for r in rows:
        t = nodes[-1 - r % len(nodes)]
        for hint in deep[: r % (len(deep) + 1)]:
            t = Lam(hint, Const("A"), t)
        assert folded(t) == fold_display(t, env)
        assert plain(t) == plain_display(t)


@settings(max_examples=60, deadline=None)
@given(
    binders=st.lists(
        st.tuples(st.booleans(), st.sampled_from(_HINTS), st.integers(0, 999)), max_size=200
    ),
    uses=st.lists(st.integers(0, 999), min_size=1, max_size=6),
)
def test_deep_scopes_prime_colliding_hints(binders, uses):
    # A nest of ``fun``s and ``let``s over an application of their variables,
    # against names primed by scanning the scope, as a textbook printer does.
    names, parts = [], []  # names innermost first, like the printer's scope
    for is_let, hint, d in binders:
        name = hint or "x"
        while name in names:
            name += "'"
        if is_let:
            parts.append(f"let {name} : A := {names[d % len(names)] if names else 'a'} in ")
        else:
            parts.append(f"fun ({name} : A) => ")
        names.insert(0, name)
    t = app(*[Var(u % len(names)) if names else Const("a") for u in uses])
    for k, (is_let, hint, d) in reversed(list(enumerate(binders))):
        if is_let:
            t = Let(hint, Const("A"), Var(d % k) if k else Const("a"), t)
        else:
            t = Lam(hint, Const("A"), t)
    body = " ".join(names[u % len(names)] if names else "a" for u in uses)
    expected = "".join(parts) + body
    assert plain_display(t) == expected
    assert printer()(t) == expected


# -- only spines whose shape a definition has are unfolded --------------------


_SHAPES = """system lambda-hol.
const A : *.
const g : A -> A -> A -> A.
const a : A.
const b : A.
const c : A.
def k : A -> A -> A := g a.
"""


def _spine(src):
    return app(*[Const(name) for name in src.split()])


def _shape_views():
    """``older``, and ``env``: ``older`` and ``j := k b c``, on one table."""
    older = run_program(_SHAPES).env
    return older, add_entry(older, Def("j", Const("A"), _spine("k b c")))


def test_shapes_count_the_unfoldings_arguments_and_respect_views():
    # k unfolds to `g a`, so `k b c` has head g and 1 + 2 arguments, as j's
    # unfolding `g a b c` has; counting only the spine's own 2 would print `k b c`.
    folded = {
        "k b c": "j",
        "g a b c": "j",
        "g a b": "g a b",
        "k b": "k b",
        "k b d": "k b d",  # d is unknown
    }
    for env_first in (False, True):
        older, env = _shape_views()  # a fresh table: the first print indexes it
        views = [(env, folded), (older, {"k b c": "k b c", "g a b c": "g a b c"})]
        for view, rows in views if env_first else reversed(views):
            show = printer(view)
            for src, want in rows.items():
                assert fold_display(_spine(src), view) == want, (src, env_first)
                assert show(_spine(src)) == want, (src, env_first)
        t = App(Const("z"), _spine("g a b c"))  # z is unknown
        assert fold_display(t, env) == printer(env)(t) == "z j"


def _ruled_out(env, t, memo):
    """How many closed constant-headed spines in ``t`` ``may_fold`` rules
    out, asserting that no definition unfolds to any of them."""
    todo, seen, count = [t], set(), 0
    while todo:
        u = todo.pop()
        if id(u) in seen:
            continue
        seen.add(id(u))
        match u:
            case App(f, a):
                todo += [f, a]
            case Lam(_, dom, body) | Pi(_, dom, body):
                todo += [dom, body]
            case Let(_, ann, defn, body):
                todo += [ann, defn, body]
        if type(u) is App and u.fa == 0:
            args = []
            head = unwind(u, args)
            if type(head) is Const and not env.may_fold(head, len(args)):
                assert env.fold_name(unfold_all(env, u, memo)) is None, u
                count += 1
    return count


def test_spines_ruled_out_of_trace_rows_never_fold(all_bundles):
    for bundle in all_bundles:
        env, start, memo = bundle.env, bundle.key_terms["bottomProof"], {}
        for strategy, steps in ((HEAD_DEF, 100), (HEAD_LINEAR, 30)):
            rows = [start] + [s.raw for s in trace(env, start, strategy, steps).steps]
            assert sum(_ruled_out(env, row, memo) for row in rows) > 0, (bundle.id, strategy)


@settings(max_examples=100, deadline=None)
@given(
    src=st.sampled_from(TYPES).flatmap(terms),
    ops=st.lists(
        st.tuples(
            st.integers(0, 5), st.integers(0, 999), st.integers(0, 999), st.sampled_from(_HINTS)
        ),
        max_size=40,
    ),
)
def test_spines_ruled_out_of_generated_terms_never_fold(refined, src, ops):
    _ruled_out(ENV, _term(src, ENV), {})
    memo = {}
    for t in _shared_nodes(refined.env, ops):
        _ruled_out(refined.env, t, memo)
