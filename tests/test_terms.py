import random

from pts_kernel.terms import (
    App,
    BOX_T,
    Const,
    Lam,
    Pi,
    STAR_T,
    Term,
    Var,
    alpha_eq,
    app,
    shift,
    spine,
    subst,
)


def test_alpha_eq_ignores_bound_names():
    a = Lam("x", STAR_T, Var(0, "x"))
    b = Lam("y", STAR_T, Var(0, "y"))
    assert alpha_eq(a, b)
    assert a == b
    assert hash(a) == hash(b)


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


def test_spine_roundtrip():
    t = app(Const("f"), Const("a"), Const("b"), Const("c"))
    head, args = spine(t)
    assert head == Const("f")
    assert args == [Const("a"), Const("b"), Const("c")]
    assert app(head, *args) == t


# -- randomized structural properties ---------------------------------------


def _random_term(rng: random.Random, depth: int, free: int) -> Term:
    choice = rng.random()
    if depth <= 0 or choice < 0.25:
        if free > 0 and rng.random() < 0.6:
            return Var(rng.randrange(free), rng.choice("xyzw"))
        return rng.choice([Const("a"), Const("b"), STAR_T])
    if choice < 0.55:
        return App(_random_term(rng, depth - 1, free), _random_term(rng, depth - 1, free))
    if choice < 0.8:
        return Lam(
            rng.choice("uvw"),
            _random_term(rng, depth - 1, free),
            _random_term(rng, depth - 1, free + 1),
        )
    return Pi(
        rng.choice("pq"),
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
