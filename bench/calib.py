"""The reference computation the benchmark's rates are measured against.

One *reference pass* normalizes the Church-numeral product 12 · 15 five times
in a small lambda calculus of its own (de Bruijn indices, substitution by
copying), then counts the result's nodes.  It is pure Python, allocates and
recurses the way the kernel does, and shares no code with the kernel or the
rest of the benchmark, so no change to the program changes its cost.

The benchmark runs one pass right before and one right after every timed
command and divides the command's CPU time by the mean of the two.  On a
shared host whose cores change speed for minutes at a time, the command and
the passes beside it slow down together, so the quotient -- the command's
cost in reference passes -- holds still where its seconds do not.

``python3 bench/calib.py`` prints the CPU seconds of one pass.
"""

from __future__ import annotations

import gc
import time

PASSES = 5
NODES = 2 * 12 * 15 + 3  # λf.λx. f (… (f x)): two binders, 180 applications of f, x


class Var:
    __slots__ = ("i",)

    def __init__(self, i: int) -> None:
        self.i = i


class Lam:
    __slots__ = ("body",)

    def __init__(self, body) -> None:
        self.body = body


class App:
    __slots__ = ("fn", "arg")

    def __init__(self, fn, arg) -> None:
        self.fn = fn
        self.arg = arg


def _shift(t, by: int, cutoff: int = 0):
    if type(t) is Var:
        return Var(t.i + by) if t.i >= cutoff else t
    if type(t) is Lam:
        return Lam(_shift(t.body, by, cutoff + 1))
    return App(_shift(t.fn, by, cutoff), _shift(t.arg, by, cutoff))


def _subst(t, value, j: int = 0):
    if type(t) is Var:
        if t.i == j:
            return _shift(value, j)
        return Var(t.i - 1) if t.i > j else t
    if type(t) is Lam:
        return Lam(_subst(t.body, value, j + 1))
    return App(_subst(t.fn, value, j), _subst(t.arg, value, j))


def _normalize(t):
    if type(t) is Lam:
        return Lam(_normalize(t.body))
    if type(t) is App:
        fn = _normalize(t.fn)
        if type(fn) is Lam:
            return _normalize(_subst(fn.body, t.arg))
        return App(fn, _normalize(t.arg))
    return t


def _church(n: int):
    body = Var(0)
    for _ in range(n):
        body = App(Var(1), body)
    return Lam(Lam(body))


def _size(t) -> int:
    if type(t) is Var:
        return 1
    if type(t) is Lam:
        return 1 + _size(t.body)
    return 1 + _size(t.fn) + _size(t.arg)


_MUL = Lam(Lam(Lam(App(Var(2), App(Var(1), Var(0))))))


def reference_pass() -> float:
    """CPU seconds of one reference pass.  The collector is held off during
    it: the pass makes no cycles, and a collection would charge it for the
    heap of whatever ran before."""
    gc.disable()
    try:
        start = time.process_time()
        for _ in range(PASSES):
            nodes = _size(_normalize(App(App(_MUL, _church(12)), _church(15))))
        seconds = time.process_time() - start
    finally:
        gc.enable()
    if nodes != NODES:
        raise AssertionError(f"reference pass computed {nodes} nodes, not {NODES}")
    return seconds


if __name__ == "__main__":
    print(f"{reference_pass():.9f}")
