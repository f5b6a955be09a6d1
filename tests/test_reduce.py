import hashlib
import itertools
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from naive_reducer import is_subsequence, naive_head_step, naive_states
from test_normalizer import ENV as HOL_ENV, TYPES, _term as _hol_term, terms
from test_terms import FREE, _exact, _random_term, _ref_subst, spine

from pts_kernel import reduce
from pts_kernel.corpus import BUNDLE_IDS, get_bundle, run_program
from pts_kernel.display import fold_display, plain_display
from pts_kernel.env import Decl, Def, GlobalEnv, Rewrite, unfold_all
from pts_kernel.errors import KernelError, TypeCheckError
from pts_kernel.parser import elaborate, parse_term_surface
from pts_kernel.reduce import (
    ANNOTATIONS,
    HEAD_DEF,
    HEAD_LINEAR,
    POLY,
    LoopReport,
    _walk,
    detect_loop,
    erase,
    erase_env,
    head_def_step,
    head_linear_step,
    readback,
    trace,
)
from pts_kernel.specs import PRESETS
from pts_kernel.terms import App, Const, HOLE, Lam, Let, STAR_T, Var, alpha_eq, app, instantiate
from pts_kernel.typecheck import DELTA_UNFOLD, Fuel, whnf

GOLDEN = Path(__file__).resolve().parent / "golden"


def _term(src, env):
    return elaborate(parse_term_surface(src), env)


def _observations(env, t, strategy, steps):
    """Observable states of the first ``steps`` trace rows: readbacks under
    head-linear, with consecutive equal states merged."""
    tr = trace(env, t, strategy, steps)
    states = []
    for term in [tr.start] + [s.raw for s in tr.steps]:
        obs = readback(term) if strategy == HEAD_LINEAR else term
        if not states or not alpha_eq(obs, states[-1]):
            states.append(obs)
    return states


# -- head-def steps ----------------------------------------------------------


def test_head_def_step_simple_row(simple):
    kind, detail, out = head_def_step(simple.env, simple.key_terms["bottomProof"])
    assert (kind, detail) == ("delta-unfold", "l₂")
    assert alpha_eq(out, _term("l₁ x₀ l₂ l₁", simple.env))


def test_head_def_step_refined_row(refined):
    kind, detail, out = head_def_step(refined.env, refined.key_terms["bottomProof"])
    assert (kind, detail) == ("delta-unfold", "l₀")
    assert alpha_eq(out, _term("l₁ x₀ l₂ (s₂ p₀ l₁)", refined.env))


def test_head_def_step_head_normal(simple):
    t = _term("fun (x : A) => x", simple.env)
    assert head_def_step(simple.env, t) is None


def test_head_def_step_pure_beta(simple):
    t = app(_term("fun (x : A) (y : A) => x", simple.env), Const("x₀"))
    kind, detail, out = head_def_step(simple.env, t)
    assert (kind, detail) == ("beta-contract", "1")
    assert alpha_eq(out, _term("fun (y : A) => x₀", simple.env))


def test_head_def_step_fires_rewrite(simple):
    t = _term("match (intro X₀)", simple.env)
    kind, detail, out = head_def_step(simple.env, t)
    assert (kind, detail) == ("rewrite-fire", "retract")
    assert out == Const("X₀")


# -- fun chains ---------------------------------------------------------------
#
# A chain is contracted as far as arguments reach, also where a substitution
# yields a further ``fun``; the reference below contracts one argument at a
# time, through the textbook substitution of ``test_terms``.

CHAIN_ENV = run_program(
    """system lambda-hol.
const A : *.
const a : A.
def b : A -> A := fun (y : A) => y.
def c : (A -> A) -> A -> A := fun (x : A -> A) => x.
def pa : (A -> A) -> A := fun (f : A -> A) => f a.
def cp : A -> A := fun (y : A) => b y.
def so : ((A -> A) -> A) -> (A -> A) -> A := fun (h : (A -> A) -> A) (p : A -> A) => h (p∘b).
def k : (A -> A -> A) -> A -> A := fun (u : A -> A -> A) (v : A) => u v v.
def sh : A -> A := fun (x : A) => k (fun (y : A) (z : A) => x) x.
def lt : A -> A := fun (x : A) => c (fun (w : A) => let z : A := x in w) x.
def kc : A -> A := fun (x : A) => k (fun (y : A) (z : A) => y) x.
"""
).env
# Definitions whose bodies end in an application unfold by their compiled
# templates once given all their parameters: a parameter head with a closed
# argument (pa), a constant head on a parameter (cp), an open fun over a
# parameter, as s₁'s p∘δ (so), a parameter under two binders (sh), a let in
# an argument, under a binder (lt), and a spine with a closed prefix (kc).
TEMPLATE_HEADS = [Const(name) for name in ("pa", "cp", "so", "sh", "lt", "kc")]


def test_chain_continues_through_a_substituted_fun():
    env, a = CHAIN_ENV, Const("a")
    beta = _term("(fun (x : A -> A) => x) (fun (y : A) => y) a", env)
    delta = _term("c (fun (y : A) => y) a", env)
    assert head_def_step(env, beta) == ("beta-contract", "2", a)
    assert head_def_step(env, delta) == ("delta-unfold", "c", a)
    # readback leaves constants folded, so it reads the unfolded ``c`` applied
    assert readback(beta) == a
    assert readback(app(env.def_body("c"), *spine(delta)[1])) == a
    for t, left in ((beta, 8), (delta, 7)):
        fuel = Fuel(10)
        assert whnf(env, t, fuel=fuel) == a
        assert fuel.left == left


def test_head_def_step_keeps_argument_nodes(refined):
    # The trace printer caches strings by node identity, so an argument a
    # parameter passes on comes back as the node given, not a copy.
    t = refined.key_terms["bottomProof"]  # l₀ p₀ l₂ l₁
    out = head_def_step(refined.env, t)[2]  # l₁ x₀ l₂ (s₂ p₀ l₁)
    assert spine(out)[1][1] is spine(t)[1][1]
    # A closed subterm of the body is shared too, also a spine's closed prefix.
    out = head_def_step(CHAIN_ENV, App(Const("kc"), Var(0)))[2]  # k (fun y z => y) Var(0)
    assert out.fn is CHAIN_ENV.def_body("kc").body.fn


def test_dangling_variable_of_an_unchecked_definition_unfolds_as_instantiate():
    # GlobalEnv(spec, entries) checks nothing: a body may use a variable
    # beyond its binders, which unfolding lowers past them as instantiate does.
    A = Const("A")
    interior = app(Var(0, "x"), Var(3, "w"), Lam("y", A, Var(4, "v")))
    env = GlobalEnv(PRESETS["lambda-hol"], [Decl("A", STAR_T), Def("k", A, Lam("x", A, interior))])
    want = app(Const("a"), Var(2, "w"), Lam("y", A, Var(3, "v")))
    assert _exact(instantiate(interior, [Const("a")])) == _exact(want)
    step = head_def_step(env, App(Const("k"), Const("a")))
    assert step[:2] == ("delta-unfold", "k") and _exact(step[2]) == _exact(want)


def _ref_contract(fn, args):
    count = 0
    while isinstance(fn, Lam) and count < len(args):
        fn = _ref_subst(fn.body, args[count])
        count += 1
    return count, app(fn, *args[count:])


def _ref_head_def_step(env, t):
    head, args = spine(t)
    if isinstance(head, Lam) and args:
        count, new = _ref_contract(head, args)
        return "beta-contract", str(count), new
    if isinstance(head, Let):
        return "delta-unfold", head.hint, app(_ref_subst(head.body, head.defn), *args)
    if isinstance(head, Const) and env.def_body(head.name) is not None:
        return "delta-unfold", head.name, _ref_contract(env.def_body(head.name), args)[1]
    return None  # CHAIN_ENV has no rewrite rules


def _ref_readback(t, budget):
    while True:
        head, args = spine(t)
        if isinstance(head, Let):
            t = app(_ref_subst(head.body, head.defn), *args)
        elif isinstance(head, Lam) and args:
            t = _ref_contract(head, args)[1]
        else:
            return t
        budget -= 1
        if budget < 0:
            raise KernelError("readback exceeded its contraction budget")


def _ref_whnf(env, t, fuel):
    stack = []
    while True:
        if isinstance(t, App):
            stack.append(t.arg)
            t = t.fn
        elif isinstance(t, Lam) and stack:
            fuel.spend()
            t = _ref_subst(t.body, stack.pop())
        elif isinstance(t, Let):
            fuel.spend()
            t = _ref_subst(t.body, t.defn)
        elif isinstance(t, Const) and env.def_body(t.name) is not None:
            fuel.spend()
            t = env.def_body(t.name)
        else:
            return app(t, *reversed(stack))


def _chain(rng, free):
    """A chain of one to three ``fun``s over a body that may use them all."""
    n = rng.randint(1, 3)
    t = _random_term(rng, 3, free + n)
    for k in reversed(range(n)):
        t = Lam(rng.choice("uvw"), _random_term(rng, 1, free + k), t)
    return t


def _applied_chain(rng, head=None):
    """An open head, ``head`` if given, applied to zero to four open
    arguments, some of them ``fun``s."""
    if head is None:
        head = rng.choice([Const("b"), Const("c"), _chain(rng, FREE), _random_term(rng, 3, FREE)])
    args = [
        _chain(rng, FREE) if rng.random() < 0.5 else _random_term(rng, 3, FREE)
        for _ in range(rng.randint(0, 4))
    ]
    return app(head, *args)


def _redex_under_chain(rng):
    """``fun``s over an applied chain, applied in turn: a contraction often
    leaves a ``fun`` applied at the head, which is a step of its own."""
    n = rng.randint(1, 2)
    args = [_random_term(rng, 2, FREE + n) for _ in range(rng.randint(1, 2))]
    t = app(_chain(rng, FREE + n), *args)
    for k in reversed(range(n)):
        t = Lam(rng.choice("uvw"), _random_term(rng, 1, FREE + k), t)
    return app(t, *[_random_term(rng, 2, FREE) for _ in range(rng.randint(0, 3))])


# Applied chains, and funs over them: a contraction of the latter often
# leaves a fun applied at the head, which the former rarely builds.  The
# template heads come from their own sampled_from: rng.choice on this random
# favours some positions of a list, and left some heads nearly undrawn.
CHAINS = st.one_of(
    st.randoms(use_true_random=False).map(
        lambda rng: _applied_chain(rng) if rng.random() < 0.5 else _redex_under_chain(rng)
    ),
    st.builds(_applied_chain, st.randoms(use_true_random=False), st.sampled_from(TEMPLATE_HEADS)),
)


def _outcome(run, *args):
    """The exact result of ``run``, or the error it raised."""
    try:
        out = run(*args)
    except KernelError as err:
        return type(err), str(err)
    if isinstance(out, tuple):  # a head-def step
        return out[:2] + (_exact(out[2]),)
    return None if out is None else _exact(out)


SMALL_BUDGET = 16  # keeps self-reducing terms cheap on both sides


@given(t=CHAINS)
def test_chain_contraction_matches_one_argument_at_a_time(t):
    env = CHAIN_ENV
    assert _outcome(head_def_step, env, t) == _outcome(_ref_head_def_step, env, t)
    with mock.patch.object(reduce, "READBACK_BUDGET", SMALL_BUDGET):
        assert _outcome(readback, t) == _outcome(_ref_readback, t, SMALL_BUDGET)
    fuel, ref_fuel = Fuel(SMALL_BUDGET), Fuel(SMALL_BUDGET)
    got = _outcome(lambda: whnf(env, t, fuel=fuel))
    assert got == _outcome(_ref_whnf, env, t, ref_fuel)
    assert fuel.left == ref_fuel.left


# -- head-def walks -----------------------------------------------------------
#
# ``trace`` and ``detect_loop`` walk head-def states on their own; their rows
# must be those of iterating ``head_def_step``, hint for hint, and their
# verdicts those of a walk keyed on the state term up to alpha-equality.


def _ref_detect_loop(env, t, bound):
    """Loop search by ``head_def_step``, keyed on the state term's skeleton
    (so up to alpha-equality)."""
    seen, cur, prev = {t.skel: 0}, t, t.skel
    for steps in range(1, bound + 1):
        step = head_def_step(env, cur)
        if step is None:
            return LoopReport(False, 0, 0, bound, steps=steps - 1)
        cur = step[2]
        key = cur.skel
        if key is not prev:
            if key in seen:
                return LoopReport(True, seen[key], len(seen) - seen[key], bound, steps=steps)
            seen[key] = len(seen)
            prev = key
    return LoopReport(False, 0, 0, bound, steps=bound)


def _check_head_def_walk(env, t, bound, mode=None):
    erased_env, erased = env, t
    if mode is not None:
        erased_env, erased = erase_env(env, mode), erase(t, mode, env=env)
    tr = trace(erased_env, erased, HEAD_DEF, bound)
    cur = erased
    for row in tr.steps:
        step = head_def_step(erased_env, cur)
        assert step is not None
        assert (row.kind, row.detail, _exact(row.raw)) == step[:2] + (_exact(step[2]),)
        cur = step[2]
    if tr.stopped == "head-normal":
        assert head_def_step(erased_env, cur) is None
    report = detect_loop(env, t, HEAD_DEF, bound, mode=mode)
    assert report == _ref_detect_loop(erased_env, erased, bound)
    assert (report.steps, report.found) == (len(tr.steps), tr.stopped == "loop")


@given(t=CHAINS, bound=st.integers(0, 60))
def test_head_def_walk_of_chains_matches_head_def_steps(t, bound):
    _check_head_def_walk(CHAIN_ENV, t, bound)


@given(
    bundle_id=st.sampled_from(BUNDLE_IDS),
    mode=st.sampled_from([None, ANNOTATIONS, POLY]),
    bound=st.integers(0, 60),
)
def test_head_def_walk_of_bundles_matches_head_def_steps(bundle_id, mode, bound):
    bundle = get_bundle(bundle_id)
    _check_head_def_walk(bundle.env, bundle.key_terms["bottomProof"], bound, mode)


# -- the readback budget ------------------------------------------------------


def _contractions(n, shift):
    """A closed term whose readback takes exactly ``n`` contractions, one per
    level: ``(fun x => t) a``, ``let x := a in t`` or ``(fun f => f) (fun y =>
    t) a``, where the last goes on through the ``fun`` it substitutes."""
    a, t = Const("a"), Const("a")
    for level in range(n):
        shape = (level + shift) % 3
        if shape == 0:
            t = App(Lam("x", STAR_T, t), a)
        elif shape == 1:
            t = Let("x", STAR_T, a, t)
        else:
            t = app(Lam("f", STAR_T, Var(0, "f")), Lam("y", STAR_T, t), a)
    return t


@pytest.mark.parametrize("budget, shift", itertools.product([0, 1, 2, 3, 7], range(3)))
def test_readback_spends_its_budget_per_contraction(budget, shift):
    with mock.patch.object(reduce, "READBACK_BUDGET", budget):
        assert readback(_contractions(budget, shift)) == Const("a")
        with pytest.raises(KernelError, match="^readback exceeded its contraction budget$"):
            readback(_contractions(budget + 1, shift))


def test_growing_spine_reaches_the_default_readback_budget():
    # Each contraction of (fun w => w w a) (fun w => w w a) leaves one more
    # argument on the spine; readback works on one argument stack, so the
    # default budget runs out in well under a second.
    w = Var(0, "w")
    grow = Lam("w", STAR_T, app(w, w, Const("a")))
    with pytest.raises(KernelError, match="^readback exceeded its contraction budget$"):
        readback(App(grow, grow))


def _unfolded_observation(body, *args):
    """The observation, as ``(head, *stack)``, after a head-linear machine
    unfolds ``d := body`` at the head of ``d args``, having observed the
    state before it."""
    env = GlobalEnv(PRESETS["lambda-hol"], [Decl("a", STAR_T), Def("d", STAR_T, body)])
    machine = reduce._LinearMachine(env, app(Const("d"), *args))
    assert machine.key() == (Const("d"), *reversed(args))
    assert machine.step() == DELTA_UNFOLD
    return machine.key()


@pytest.mark.parametrize("budget, shift", itertools.product([1, 2, 3, 7], range(3)))
def test_delta_step_spends_the_readback_budget_of_its_observation(budget, shift):
    # The unfolding contracts d's fun chain, one budget unit, and the body's
    # contractions take the rest.  ``fun x => C x`` given its parameter
    # unfolds by its template; ``fun f => f`` has none, and its contraction
    # goes on through the fun it substitutes.  A body with no fun chain costs
    # nothing to unfold.
    a = Const("a")
    template = lambda n: Lam("x", STAR_T, App(_contractions(n, shift), Var(0, "x")))  # noqa: E731
    ident = Lam("f", STAR_T, Var(0, "f"))
    with mock.patch.object(reduce, "READBACK_BUDGET", budget):
        assert _unfolded_observation(template(budget - 1), a) == (a, a)
        assert _unfolded_observation(ident, _contractions(budget - 1, shift), a) == (a, a)
        assert _unfolded_observation(_contractions(budget, shift), a) == (a, a)
        for body, args in (
            (template(budget), [a]),
            (ident, [_contractions(budget, shift), a]),
            (_contractions(budget + 1, shift), [a]),
        ):
            with pytest.raises(KernelError, match="^readback exceeded its contraction budget$"):
                _unfolded_observation(body, *args)


@pytest.mark.parametrize("shift", range(3))
def test_under_applied_delta_step_spends_one_budget_unit(shift):
    # d given one of its two parameters contracts to a fun with no argument
    # left: the unfolding is the observation's only contraction.  Given none,
    # d unfolds to its body and contracts nothing.
    body = Lam("x", STAR_T, Lam("y", STAR_T, _contractions(2, shift)))
    with mock.patch.object(reduce, "READBACK_BUDGET", 1):
        assert _unfolded_observation(body, Const("a")) == (body.body,)
    with mock.patch.object(reduce, "READBACK_BUDGET", 0):
        assert _unfolded_observation(body) == (body,)
        with pytest.raises(KernelError, match="^readback exceeded its contraction budget$"):
            _unfolded_observation(body, Const("a"))


# -- head-linear steps --------------------------------------------------------


def test_head_linear_substitutes_one_occurrence(simple):
    x = Var(0, "x")
    t = App(Lam("x", Const("A"), App(x, x)), Const("x₀"))
    kind, _, out = head_linear_step(simple.env, t)
    assert kind == "linear-subst"
    expected = App(Lam("x", Const("A"), App(Const("x₀"), x)), Const("x₀"))
    assert alpha_eq(out, expected)


def test_head_linear_head_normal(simple):
    assert head_linear_step(simple.env, _term("fun (x : A) => x", simple.env)) is None


def test_head_linear_reaches_next_row_by_readback(simple):
    env = simple.env
    target = _term("l₁ x₀ l₂ l₁", env)
    cur = simple.key_terms["bottomProof"]
    for _ in range(10):
        step = head_linear_step(env, cur)
        assert step is not None
        cur = step[2]
        if alpha_eq(readback(cur), target):
            break
    else:
        pytest.fail("linear reduction never reached the next table row")


def test_head_linear_readbacks_are_naive_states(simple):
    env = simple.env
    start = unfold_all(env, simple.key_terms["bottomProof"])
    oracle = naive_states(env, start, 60)
    cur = simple.key_terms["bottomProof"]
    seen = [unfold_all(env, readback(cur))]
    for _ in range(25):
        step = head_linear_step(env, cur)
        if step is None:
            break
        cur = step[2]
        obs = unfold_all(env, readback(cur))
        if not alpha_eq(obs, seen[-1]):
            seen.append(obs)
    assert is_subsequence(seen, oracle)


# -- traces -------------------------------------------------------------------


def test_trace_simple_stops_on_loop(simple):
    tr = trace(simple.env, simple.key_terms["bottomProof"], HEAD_DEF, 10)
    rows = (GOLDEN / "simple-head-def.txt").read_text(encoding="utf-8").splitlines()
    assert tr.displays == rows
    assert tr.stopped == "loop"


def test_trace_refined_five_rows(refined):
    tr = trace(refined.env, refined.key_terms["bottomProof"], HEAD_DEF, 5)
    rows = (GOLDEN / "refined-axiomatic-head-def.txt").read_text(encoding="utf-8").splitlines()
    assert tr.displays == rows
    assert tr.stopped == "max-steps"


def test_trace_of_normal_form(simple):
    t = _term("fun (x : A) => x", simple.env)
    tr = trace(simple.env, t, HEAD_DEF, 10)
    assert tr.displays == [fold_display(t, simple.env)]
    assert tr.stopped == "head-normal"


def test_trace_display_raw_invariant(simple, refined):
    for bundle in (simple, refined):
        tr = trace(bundle.env, bundle.key_terms["bottomProof"], HEAD_DEF, 5)
        for step in tr.steps:
            back = _term(tr.show(step.raw), bundle.env)
            assert alpha_eq(
                unfold_all(bundle.env, back), unfold_all(bundle.env, step.raw)
            )


def test_golden_rows_agree_with_naive_oracle(simple, refined):
    for bundle in (simple, refined):
        tr = trace(bundle.env, bundle.key_terms["bottomProof"], HEAD_DEF, 5)
        rows = [unfold_all(bundle.env, tr.start)] + [
            unfold_all(bundle.env, s.raw) for s in tr.steps
        ]
        oracle = naive_states(bundle.env, rows[0], 200)
        assert is_subsequence(rows, oracle)


def test_subject_reduction_along_traces(simple, refined):
    from pts_kernel.typecheck import convert, infer

    for bundle in (simple, refined):
        tr = trace(bundle.env, bundle.key_terms["bottomProof"], HEAD_DEF, 5)
        ty = infer(bundle.env, tr.start)
        for step in tr.steps:
            step_ty = infer(bundle.env, step.raw)
            assert convert(bundle.env, ty, step_ty)


# -- loop detection -----------------------------------------------------------


def test_detect_loop_simple(simple):
    report = detect_loop(simple.env, simple.key_terms["bottomProof"], HEAD_DEF, 10)
    assert (report.found, report.entry, report.period) == (True, 0, 2)


@pytest.mark.parametrize(
    "src, strategy, steps",
    [
        ("fun (x : A) => x", HEAD_DEF, 0),
        ("(fun (x : A) => x) x₀", HEAD_DEF, 2),
        ("(fun (x : A) => x) x₀", HEAD_LINEAR, 2),
        ("(fun (f : A -> A) => f) (fun (y : A) => y) x₀", HEAD_LINEAR, 3),
        ("let y : A := x₀ in (fun (z : A) => z) y", HEAD_LINEAR, 3),
    ],
)
def test_detect_loop_counts_steps_to_head_normal_form(simple, src, strategy, steps):
    # Under head-linear some of these steps leave the readback unchanged;
    # ``steps`` still counts every step taken.
    t = _term(src, simple.env)
    report = detect_loop(simple.env, t, strategy, 10)
    assert (report.found, report.entry, report.period, report.steps) == (False, 0, 0, steps)
    tr = trace(simple.env, t, strategy, 10)
    assert (tr.stopped, len(tr.steps)) == ("head-normal", steps)
    if steps:
        # Reaching the normal form on the last allowed step is not detected.
        assert trace(simple.env, t, strategy, steps).stopped == "max-steps"
        assert detect_loop(simple.env, t, strategy, steps).steps == steps


def test_detect_loop_refined_absent(refined):
    report = detect_loop(refined.env, refined.key_terms["bottomProof"], HEAD_DEF, 1000)
    assert not report.found


def test_loop_report_is_sound(simple):
    report = detect_loop(simple.env, simple.key_terms["bottomProof"], HEAD_DEF, 10)
    states = _observations(simple.env, simple.key_terms["bottomProof"], HEAD_DEF, report.steps)
    assert len(states) == report.entry + report.period + 1
    assert alpha_eq(states[report.entry], states[report.entry + report.period])


def test_detect_loop_head_linear_simple(simple):
    report = detect_loop(simple.env, simple.key_terms["bottomProof"], HEAD_LINEAR, 50)
    assert report.found
    states = _observations(simple.env, simple.key_terms["bottomProof"], HEAD_LINEAR, report.steps)
    assert len(states) == report.entry + report.period + 1
    assert alpha_eq(states[report.entry], states[report.entry + report.period])


# -- head-linear observations ------------------------------------------------


def _check_linear_walk(env, t, steps):
    """Take ``steps`` head-linear steps through ``_walk`` (restarting it where
    a loop or a normal form ends it) and check every state and observation
    against a fresh ``head_linear_step`` and a full ``readback``.  Returns the
    number of steps taken."""
    cur, taken = t, 0
    while taken < steps:
        before = taken
        tr = trace(env, cur, HEAD_LINEAR, steps - taken)
        walked = list(_walk(env, cur, HEAD_LINEAR, steps - taken))
        assert len(walked) == len(tr.steps)
        for ((kind, detail, state), key, _), row in zip(walked, tr.steps):
            ref = head_linear_step(env, cur)
            assert ref is not None and (kind, detail) == ref[:2]
            assert alpha_eq(state, ref[2]) and alpha_eq(state, row.raw)
            assert alpha_eq(app(key[0], *reversed(key[1:])), readback(row.raw))
            cur = state
            taken += 1
        if tr.stopped == "head-normal" or taken == before:
            break
    return taken


@pytest.mark.parametrize("mode", [None, ANNOTATIONS, POLY])
@pytest.mark.parametrize("bundle_id", BUNDLE_IDS)
def test_head_linear_observations_are_readbacks(bundle_id, mode):
    bundle = get_bundle(bundle_id)
    env, t = bundle.env, bundle.key_terms["bottomProof"]
    if mode is not None:
        env, t = erase_env(env, mode), erase(t, mode, env=env)
    assert _check_linear_walk(env, t, 100) == 100


@pytest.mark.parametrize(
    "bundle_id, fast", [("simple", 85), ("refined-axiomatic", 65), ("hurkens-B-match1", 65)]
)
def test_linear_substitution_keeps_the_observation(bundle_id, fast):
    # With no unapplied fun on the head path, a linear substitution leaves
    # the readback as it was: the machine hands back the same object instead
    # of reading the rebuilt state back in full.
    bundle = get_bundle(bundle_id)
    machine = reduce._LinearMachine(bundle.env, bundle.key_terms["bottomProof"])
    kept = 0
    for _ in range(100):
        before = machine.key()
        kind = machine.step()
        assert kind is not None
        if kind == reduce.LINEAR_SUBST and machine.open == 0:
            assert machine.key() is before
            kept += 1
    assert kept == fast


@st.composite
def _head_path_sources(draw):
    """A generated lambda-HOL term of one of the normalizer's types, bare, under
    a ``let`` or under an unapplied ``fun`` that its body may use, or a
    numeral given all its arguments, so that its definitions get theirs."""
    ty = draw(st.sampled_from(TYPES))
    shape = draw(st.sampled_from(("bare", "let", "fun", "numeral")))
    if shape == "numeral":
        return f"({draw(terms('Nat'))}) A ({draw(terms('A -> A'))}) ({draw(terms('A'))})"
    if shape == "let":
        return f"let w : Nat := {draw(terms('Nat'))} in {draw(terms(ty, (('w', 'Nat'),)))}"
    if shape == "fun":
        return f"fun (w : A) => {draw(terms(ty, (('w', 'A'),)))}"
    return draw(terms(ty))


def _ref_linear_detect_loop(env, t, bound):
    """Loop search by ``head_linear_step``, keyed on the readback term's
    skeleton (so up to alpha-equality)."""
    prev = readback(t).skel
    seen, cur = {prev: 0}, t
    for steps in range(1, bound + 1):
        step = head_linear_step(env, cur)
        if step is None:
            return LoopReport(False, 0, 0, bound, steps=steps - 1)
        cur = step[2]
        obs = readback(cur).skel
        if obs is not prev:
            if obs in seen:
                return LoopReport(True, seen[obs], len(seen) - seen[obs], bound, steps=steps)
            seen[obs] = len(seen)
            prev = obs
    return LoopReport(False, 0, 0, bound, steps=bound)


@settings(max_examples=100, deadline=None)
@given(src=_head_path_sources())
def test_linear_machine_observations_are_readbacks_of_generated_terms(src):
    t = _hol_term(src)
    machine = reduce._LinearMachine(HOL_ENV, t)
    for _ in range(6):
        if machine.step() is None:
            break
        key = machine.key()
        assert _exact(app(key[0], *reversed(key[1:]))) == _exact(readback(machine.term()))
    assert detect_loop(HOL_ENV, t, HEAD_LINEAR, 30) == _ref_linear_detect_loop(HOL_ENV, t, 30)


def test_head_variable_free_in_the_ambient_context_is_normal(simple):
    # `y` is bound by no binder of the term: no step replaces it.
    y = Var(1, "y")
    for t in (App(Var(0, "y"), Const("x₀")), Lam("z", Const("A"), App(y, Var(0, "z")))):
        assert head_linear_step(simple.env, t) is None
        assert trace(simple.env, t, HEAD_LINEAR, 5).stopped == "head-normal"


@pytest.mark.parametrize(
    "src",
    [
        # the head path runs through an unapplied fun
        "fun (z : A) => l₂ p₀ l₂ l₁",
        # a let at the head
        "let y : A := x₀ in (fun (z : A) => z) y",
        # a let under an applied fun
        "(fun (x : A) => let y : A := x in l₁ y) x₀ l₂",
        # an over-applied head
        "(fun (x : Pow A -> Pow A) => x) (fun (p : Pow A) => p) p₀ x₀",
        # an under-applied head
        "(fun (x : A) (h : p₀ x) => l₁ x h) x₀",
    ],
)
def test_head_linear_observations_off_the_fast_path(simple, src):
    t = _term(src, simple.env)
    assert _check_linear_walk(simple.env, t, 40) > 0


def test_self_reducing_state_exceeds_readback_budget():
    x = Var(0, "x")
    delta = Lam("x", STAR_T, App(x, x))
    omega = App(delta, delta)
    env = GlobalEnv(PRESETS["lambda-hol"])
    with pytest.raises(KernelError, match="^readback exceeded its contraction budget$"):
        detect_loop(env, omega, HEAD_LINEAR, 10)


# -- erasure ------------------------------------------------------------------


def test_erase_annotations_drops_domains(simple):
    t = _term("fun (x : A) => x", simple.env)
    erased = erase(t, ANNOTATIONS, simple.env)
    assert alpha_eq(erased, Lam("x", HOLE, Var(0)))


@pytest.mark.parametrize("mode", [ANNOTATIONS, POLY])
def test_erase_keeps_a_let(simple, mode):
    t = _term("(fun (x : A) => let y : A := x in l₁ y) x₀ l₂", simple.env)
    expected = app(
        Lam("x", HOLE, Let("y", HOLE, Var(0), App(Const("l₁"), Var(0)))), Const("x₀"), Const("l₂")
    )
    assert alpha_eq(erase(t, mode, env=simple.env), expected)


def test_erase_poly_removes_sort_binder(reynolds):
    t = _term("fun (X : #) (f : T X -> X) => f", reynolds.env)
    erased = erase(t, POLY, env=reynolds.env)
    assert alpha_eq(erased, Lam("f", HOLE, Var(0)))
    # A variable bound above the removed binder is renumbered past it.
    env = run_program(
        "const A : *.\nconst a : A.\nconst b : A.\n"
        "def f : A -> Pi (X : #) -> A -> A := fun (x : A) (X : #) (y : A) => x.\n"
        "def t : A := f a * b.\n"
    ).env
    tr = trace(env, Const("t"), HEAD_DEF, 3, mode=POLY)
    assert tr.displays == ["t", "f a b", "a"]
    # A sort binder's occurrence left in the body erases to the opaque leaf.
    env = run_program(
        "system lambda-hol.\ndef F : # -> # := fun (X : #) => X.\ndef t : # := F *.\n"
    ).env
    tr = trace(env, Const("t"), HEAD_DEF, 3, mode=POLY)
    assert tr.displays == ["t", "F", "•"]


def test_erase_poly_drops_type_applications(reynolds):
    erased_env = erase_env(reynolds.env, POLY)
    match_body = erased_env.def_body("match")
    expected = App(Const("ι"), App(Const("Tmap"), Const("intro")))
    assert alpha_eq(match_body, expected)


def test_erase_turns_products_into_holes(reynolds):
    erased_env = erase_env(reynolds.env, ANNOTATIONS)
    assert erased_env.def_body("A") == HOLE
    p0 = erased_env.def_body("p₀")
    assert isinstance(p0, Lam) and p0.body == HOLE


def test_erased_bodies_match_their_digest():
    # sha256 of the plain display of every erased definition body, rule
    # right-hand side and bottomProof, per bundle and mode; alpha_eq ignores
    # hints, so only the bytes pin the erased binder names.
    got = []
    for bundle_id in BUNDLE_IDS:
        bundle = get_bundle(bundle_id)
        for mode in (ANNOTATIONS, POLY):
            env = erase_env(bundle.env, mode)
            rows = [(f"def {e.name}", e.body) for e in env.entries if isinstance(e, Def)]
            rows += [(f"rewrite {e.name}", e.rhs) for e in env.entries if isinstance(e, Rewrite)]
            rows.append(("bottomProof", erase(bundle.key_terms["bottomProof"], mode, bundle.env)))
            for what, t in rows:
                digest = hashlib.sha256(plain_display(t).encode("utf-8")).hexdigest()
                got.append(f"{digest}  {bundle_id} {mode} {what}\n")
    assert "".join(got) == (GOLDEN / "erase.sha256").read_text(encoding="utf-8")


def test_erase_rejects_an_unknown_mode(simple):
    # The mode is checked before any entry is read, so an environment with
    # no definition or rule rejects it too.
    for env in (run_program("").env, run_program("const A : *.\n").env, simple.env):
        with pytest.raises(KernelError, match="unknown erasure mode 'bogus'"):
            erase_env(env, "bogus")
    with pytest.raises(KernelError, match="unknown erasure mode 'bogus'"):
        erase(Const("A"), "bogus", simple.env)


def test_poly_erasure_rejects_an_ill_typed_spine():
    env = run_program("const A : *.\nconst a : A.\n").env
    for t in (App(Const("a"), Const("a")), app(Const("a"), Const("a"), Const("a"))):
        with pytest.raises(TypeCheckError, match="a has type A, not a product"):
            erase(t, POLY, env)


def _check_erasure_simulates_steps(env, t, mode, steps):
    """Erasing a naive head step of ``t`` is a naive head step of the erased
    term, for the first ``steps`` steps.  Returns the number checked."""
    erased_env = erase_env(env, mode)
    for taken in range(steps):
        stepped = naive_head_step(env, t)
        if stepped is None:
            return taken
        lhs = erase(stepped, mode, env=env)
        rhs = naive_head_step(erased_env, erase(t, mode, env=env))
        assert rhs is not None and alpha_eq(lhs, rhs)
        t = stepped
    return steps


def test_annotation_erasure_simulates_beta(simple, refined):
    for bundle in (simple, refined):
        t = unfold_all(bundle.env, bundle.key_terms["bottomProof"])
        assert _check_erasure_simulates_steps(bundle.env, t, ANNOTATIONS, 40) == 40


@settings(max_examples=100, deadline=None)
@given(src=st.sampled_from(TYPES).flatmap(terms))
def test_annotation_erasure_simulates_steps_of_generated_terms(src):
    _check_erasure_simulates_steps(HOL_ENV, _hol_term(src), ANNOTATIONS, 40)


@pytest.mark.parametrize("bundle_id", BUNDLE_IDS)
def test_poly_erasure_simulates_steps(bundle_id):
    # Poly erasure types what it erases, and a bundle's fully unfolded term
    # needs products its system lacks: the steps unfold one constant at a time.
    bundle = get_bundle(bundle_id)
    t = bundle.key_terms["bottomProof"]
    assert _check_erasure_simulates_steps(bundle.env, t, POLY, 40) == 40


def test_strategies_are_deterministic(simple):
    t = simple.key_terms["bottomProof"]
    for step_fn in (head_def_step, head_linear_step):
        first = step_fn(simple.env, t)
        second = step_fn(simple.env, t)
        assert first is not None and second is not None
        assert first[0] == second[0] and alpha_eq(first[2], second[2])
