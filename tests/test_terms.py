import random

from hypothesis import given, strategies as st

from pts_kernel.terms import (
    App,
    BOX_T,
    Const,
    Lam,
    Let,
    Pi,
    STAR_T,
    Term,
    Var,
    _reindex,
    alpha_eq,
    app,
    instantiate,
    shift,
    subst,
    unwind,
)


def test_alpha_eq_ignores_bound_names():
    a = Lam("x", STAR_T, Var(0, "x"))
    b = Lam("y", STAR_T, Var(0, "y"))
    assert alpha_eq(a, b)
    assert a.skel is b.skel and a is not b


def test_equal_structure_is_one_node():
    a, b = Const("a"), Lam("x", STAR_T, Var(0, "x"))
    assert App(a, b) is App(a, b)
    assert Var(3, "y") is Var(3, "y") and Const("a") is a
    assert Let("l", STAR_T, a, Var(0)) is Let("l", STAR_T, a, Var(0))
    assert Pi("p", b, Var(1, "z")) is Pi("p", Lam("x", STAR_T, Var(0, "x")), Var(1, "z"))


def test_hints_give_distinct_nodes_with_one_skeleton():
    a = Pi("p", STAR_T, App(Var(0, "x"), Var(1, "y")))
    b = Pi("q", STAR_T, App(Var(0, "w"), Var(1, "y")))
    assert a is not b and a != b
    assert a.skel is b.skel is Pi("", STAR_T, App(Var(0), Var(1)))
    assert a.skel.skel is a.skel
    closed = App(Const("f"), STAR_T)  # no hints: its own skeleton
    assert closed.skel is closed


def test_reindex_returns_closed_subterms_unwalked():
    closed = Lam("x", STAR_T, App(Var(0, "x"), Const("c")))
    t = App(App(Var(0, "v"), closed), Var(2, "w"))
    calls = []

    def leaf(v, c):
        calls.append(v)
        return Var(v.index + 1, v.hint)

    out = _reindex(t, 0, leaf)
    assert calls == [Var(0, "v"), Var(2, "w")]  # none from inside ``closed``
    assert out.fn.arg is closed
    assert _reindex(closed, 0, leaf) is closed and len(calls) == 2


def test_alpha_eq_sees_domain_annotations():
    a = Lam("x", STAR_T, Var(0, "x"))
    b = Lam("x", BOX_T, Var(0, "x"))
    assert not alpha_eq(a, b)


def test_alpha_eq_distinguishes_corpus_predicates(simple):
    p0 = simple.env.lookup("p₀").body
    x0_big = simple.env.lookup("X₀").body
    assert not alpha_eq(p0, x0_big)


def test_subst_head_variable():
    assert subst(Var(0), Const("c")) == Const("c")


def test_subst_shifts_under_binder():
    body = Lam("y", Const("A"), Var(1))
    assert subst(body, Const("c")) == Lam("y", Const("A"), Const("c"))


def test_subst_instantiates_relation_body(simple, capsys=None):
    # Applying the body of the relation fun (p) (x) => p x -> ¬ (match x p)
    # at the concrete predicate must produce the expected proposition.
    env = simple.env
    c_body = env.lookup("C").body
    p0 = Const("p₀")
    inst = subst(c_body.body, p0)  # strip the outer lambda, plug p := p₀
    from pts_kernel.parser import parse_term_surface, elaborate

    expected = elaborate(
        parse_term_surface("fun (x : A) => p₀ x -> ¬ (match x p₀)"), env
    )
    assert alpha_eq(inst, expected)


def test_shift_is_identity_on_closed_terms():
    t = Lam("x", Const("A"), App(Var(0), Const("c")))
    assert shift(t, 5) is t


def test_debug_repr_prints_an_application_flat():
    t = app(Const("f"), Const("a"), App(Lam("y", STAR_T, Var(0, "y")), Var(2, "x")))
    assert repr(t) == "(f a ((\\y:*. y@0) x@2))"


def test_debug_repr_prints_each_hint_as_it_is():
    # An empty hint and the hint "_" make different nodes, and print apart.
    assert repr(Pi("", STAR_T, STAR_T)) == "(Pi :*. *)"
    assert repr(Pi("_", STAR_T, STAR_T)) == "(Pi _:*. *)"
    assert (repr(Var(0, "")), repr(Var(0, "_"))) == ("@0", "_@0")


def test_unwind_roundtrip():
    # unwind keeps what the stack holds and pushes the arguments innermost
    # last; the head it returns is never an application.
    t = app(Const("f"), Const("a"), Const("b"), Const("c"))
    stack = [Const("z")]
    assert unwind(t, stack) == Const("f")
    assert stack == [Const("z"), Const("c"), Const("b"), Const("a")]
    rng = random.Random(0)
    for _ in range(200):
        t = _random_term(rng, 5, FREE)
        stack = [STAR_T]
        head = unwind(t, stack)
        assert type(head) is not App
        assert stack[0] is STAR_T
        assert _exact(app(head, *reversed(stack[1:]))) == _exact(t)


# -- randomized structural properties ---------------------------------------


def _random_term(rng: random.Random, depth: int, free: int) -> Term:
    choice = rng.random()
    if depth <= 0 or choice < 0.25:
        if free > 0 and rng.random() < 0.6:
            return Var(rng.randrange(free), rng.choice("xyzw"))
        return rng.choice([Const("a"), Const("b"), STAR_T])
    if choice < 0.5:
        return App(_random_term(rng, depth - 1, free), _random_term(rng, depth - 1, free))
    if choice < 0.7:
        return Lam(
            rng.choice("uvw"),
            _random_term(rng, depth - 1, free),
            _random_term(rng, depth - 1, free + 1),
        )
    if choice < 0.85:
        return Pi(
            rng.choice("pq"),
            _random_term(rng, depth - 1, free),
            _random_term(rng, depth - 1, free + 1),
        )
    return Let(
        rng.choice("lm"),
        _random_term(rng, depth - 1, free),
        _random_term(rng, depth - 1, free),
        _random_term(rng, depth - 1, free + 1),
    )


def _rehint(rng: random.Random, t: Term) -> Term:
    """Same term, different display hints everywhere."""
    match t:
        case Var(k, _):
            return Var(k, rng.choice("abcdef"))
        case App(f, a):
            return App(_rehint(rng, f), _rehint(rng, a))
        case Lam(_, dom, body):
            return Lam(rng.choice("mn"), _rehint(rng, dom), _rehint(rng, body))
        case Pi(_, dom, cod):
            return Pi(rng.choice("rs"), _rehint(rng, dom), _rehint(rng, cod))
        case Let(_, ann, defn, body):
            return Let(rng.choice("jk"), _rehint(rng, ann), _rehint(rng, defn), _rehint(rng, body))
        case _:
            return t


def test_substitution_respects_alpha_equality():
    rng = random.Random(20240)
    for _ in range(300):
        a = _random_term(rng, 4, 1)
        b = _rehint(rng, a)
        v = _random_term(rng, 3, 0)
        assert alpha_eq(a, b)
        assert alpha_eq(subst(a, v), subst(b, v))


def test_shift_then_subst_cancels():
    rng = random.Random(7)
    for _ in range(300):
        t = _random_term(rng, 4, 2)
        v = _random_term(rng, 3, 2)
        assert alpha_eq(subst(shift(t, 1), v), t)


def test_alpha_eq_is_hint_blind():
    rng = random.Random(99)
    for _ in range(200):
        a = _random_term(rng, 4, 1)
        b = _rehint(rng, a)
        assert alpha_eq(a, b)


def _shape(t: Term):
    """``t`` as nested tuples without its hints: equal exactly for alpha-equal terms."""
    match t:
        case Var(k, _):
            return ("V", k)
        case App(f, a):
            return ("A", _shape(f), _shape(a))
        case Lam(_, dom, body):
            return ("L", _shape(dom), _shape(body))
        case Pi(_, dom, cod):
            return ("P", _shape(dom), _shape(cod))
        case Let(_, ann, defn, body):
            return ("T", _shape(ann), _shape(defn), _shape(body))
    return repr(t)


class _NoHints:
    """Stands in for the ``random.Random`` of ``_rehint``: every hint it picks is ``""``."""

    @staticmethod
    def choice(_hints: str) -> str:
        return ""


@given(rng=st.randoms(use_true_random=False))
def test_alpha_eq_agrees_with_rehinted_and_shaped_terms(rng):
    a, c = _random_term(rng, 4, 2), _random_term(rng, 2, 2)
    assert alpha_eq(a, _rehint(rng, a))
    assert _exact(a.skel) == _exact(_rehint(_NoHints, a))
    assert alpha_eq(a, c) == (_shape(a) == _shape(c))


# -- re-indexing and the free-variable mask against a textbook reference -----
#
# The reference rebuilds every node, like ``tmmap`` in Pierce's *Types and
# Programming Languages* (section 6.2): no ``fa`` fast path, no sharing.


def _ref_map(t: Term, c: int, on_var) -> Term:
    """Rebuild ``t``, replacing each variable ``v`` under ``c`` binders
    (counting the initial cutoff) by ``on_var(v, c)``."""
    match t:
        case Var(_, _):
            return on_var(t, c)
        case App(f, a):
            return App(_ref_map(f, c, on_var), _ref_map(a, c, on_var))
        case Lam(h, dom, body):
            return Lam(h, _ref_map(dom, c, on_var), _ref_map(body, c + 1, on_var))
        case Pi(h, dom, cod):
            return Pi(h, _ref_map(dom, c, on_var), _ref_map(cod, c + 1, on_var))
        case Let(h, ann, defn, body):
            return Let(
                h, _ref_map(ann, c, on_var), _ref_map(defn, c, on_var), _ref_map(body, c + 1, on_var)
            )
    return t


def _ref_shift(t: Term, by: int, cutoff: int = 0) -> Term:
    return _ref_map(t, cutoff, lambda v, c: Var(v.index + by, v.hint) if v.index >= c else v)


def _ref_subst(body: Term, value: Term, j: int = 0) -> Term:
    def on_var(v: Var, c: int) -> Term:
        if v.index == c:
            return _ref_shift(value, c)
        return Var(v.index - 1, v.hint) if v.index > c else v

    return _ref_map(body, j, on_var)


def _ref_occurs(t: Term, cutoff: int) -> bool:
    hits: list[Var] = []

    def on_var(v: Var, c: int) -> Term:
        if v.index == c:
            hits.append(v)
        return v

    _ref_map(t, cutoff, on_var)
    return bool(hits)


def _ref_instantiate(t: Term, sigma: list[Term], depth: int = 0) -> Term:
    def on_var(v: Var, c: int) -> Term:
        if v.index < c:
            return v
        if v.index - c < len(sigma):
            return _ref_shift(sigma[v.index - c], c)
        return Var(v.index - len(sigma), v.hint)

    return _ref_map(t, depth, on_var)


def spine(t: Term) -> tuple[Term, list[Term]]:
    """``t``'s head and its arguments, first argument first."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def _exact(t: Term):
    """``t`` as nested tuples keeping every variable and binder hint, which
    ``alpha_eq`` ignores and the printer reads."""
    match t:
        case Var(k, h):
            return ("V", k, h)
        case App(f, a):
            return ("A", _exact(f), _exact(a))
        case Lam(h, dom, body):
            return ("L", h, _exact(dom), _exact(body))
        case Pi(h, dom, cod):
            return ("P", h, _exact(dom), _exact(cod))
        case Let(h, ann, defn, body):
            return ("T", h, _exact(ann), _exact(defn), _exact(body))
    return repr(t)


def _parts(t: Term, c: int) -> list[tuple[Term, int]]:
    """The children of ``t`` with their cutoffs, ``c`` being ``t``'s."""
    match t:
        case App(f, a):
            return [(f, c), (a, c)]
        case Lam(_, dom, body) | Pi(_, dom, body):
            return [(dom, c), (body, c + 1)]
        case Let(_, ann, defn, body):
            return [(ann, c), (defn, c), (body, c + 1)]
    return []


def _assert_shares(t: Term, out: Term, cutoff: int) -> None:
    """Every subterm of ``t`` with no variable at or above its cutoff comes
    back in ``out`` as the same object."""
    if t.fa <= cutoff:
        assert out is t
    elif type(t) is not Var:
        for (x, c), (y, _) in zip(_parts(t, cutoff), _parts(out, cutoff)):
            _assert_shares(x, y, c)


FREE = 3  # free variables of generated terms: Var(0) .. Var(FREE - 1) at the root
_terms = st.randoms(use_true_random=False).map(lambda rng: _random_term(rng, 5, FREE))
_values = st.randoms(use_true_random=False).map(lambda rng: _random_term(rng, 3, FREE))
_cutoffs = st.integers(0, FREE)


@given(t=_terms, by=st.integers(0, 3))
def test_shift_matches_reference(t, by):
    out = shift(t, by)
    assert _exact(out) == _exact(_ref_shift(t, by))
    _assert_shares(t, out, 0)


@given(t=_terms, value=_values)
def test_subst_matches_reference(t, value):
    out = subst(t, value)
    assert _exact(out) == _exact(_ref_subst(t, value))
    _assert_shares(t, out, 0)


def _subterms(t: Term):
    yield t
    for u, _ in _parts(t, 0):
        yield from _subterms(u)


@given(t=_terms)
def test_free_variable_mask_matches_reference(t):
    # Bit c of a node's mask is whether Var(c) occurs free in it, and ``fa``
    # is one more than its largest free index (0 when it is closed).
    for u in _subterms(t):
        free: list[int] = []

        def on_var(v: Var, c: int) -> Term:
            if v.index >= c:
                free.append(v.index - c)
            return v

        _ref_map(u, 0, on_var)
        assert u.fa == max(free, default=-1) + 1
        for c in range(u.fa + 2):
            assert u.fv >> c & 1 == _ref_occurs(u, c)


@given(t=_terms, sigma=st.lists(_values, max_size=FREE), depth=_cutoffs)
def test_instantiate_matches_reference(t, sigma, depth):
    out = instantiate(t, sigma, depth)
    assert _exact(out) == _exact(_ref_instantiate(t, sigma, depth))
    _assert_shares(t, out, depth)
