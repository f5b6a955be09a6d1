"""The three workloads: the ``pts`` commands of one round and their checks.

A round is a fixed list of operations, each one ``pts`` command run through
``cli.main``.  Every operation belongs to one of three kinds, whose work
rates are the end-to-end metrics ``kind1_per_ref`` .. ``kind3_per_ref``:

============  =======================  ================  ====================
workload      kind1                    kind2             kind3
============  =======================  ================  ====================
check-dev     corpus + negative files  chain defs        arithmetic goals
trace-render  folded rows              plain rows        structured rows
loop-search   head-def steps           erased steps      head-linear steps
============  =======================  ================  ====================

``check`` verifies a round's outputs against facts computed apart from the
program: the generator's verdicts, the naive reducer and re-parsing in
``oracle``, Python-integer arithmetic and the paper's figures.  It raises
``Mismatch`` on the first wrong output.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import gen
import oracle

BUNDLES = ("simple", "refined-axiomatic", "reynolds-A", "hurkens-B-match1", "hurkens-B-match2")
TERM = "bottomProof"

# The paper's facts.
SIMPLE_ROWS = ["l₂ p₀ l₂ l₁", "l₁ x₀ l₂ l₁", "l₂ p₀ l₂ l₁"]
SIMPLE_LOOP = (0, 2)  # entry, period, for every strategy and erasure


class Mismatch(Exception):
    """An output disagrees with its oracle."""


@dataclass
class Op:
    name: str
    argv: list[str]
    # 1..3; 0 for the known-faulty operation, which runs in a child process,
    # is counted in ``failed`` while it fails and is kept out of every metric
    kind: int
    items: int = 0  # work units credited to the kind when the op succeeds
    meta: dict = field(default_factory=dict)


@dataclass
class Result:
    rc: Optional[int]
    out: str
    err: str
    crash: str = ""  # exception type when cli.main raised


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


class Workload:
    name = ""
    bundles: tuple[str, ...] = ()

    def ops(self, inputs: Path, seed: int) -> list[Op]:
        raise NotImplementedError

    def failed(self, op: Op, res: Result) -> bool:
        """Whether ``res`` is a failure of ``op`` (as opposed to a wrong answer)."""
        return bool(res.crash)

    def items(self, op: Op, res: Result) -> int:
        """Work units ``res`` credits to ``op``'s kind."""
        return op.items

    def check(self, ops: list[Op], results: list[Result]) -> None:
        """Raise ``Mismatch`` on the first output of an operation that did
        not fail and disagrees with its oracle."""
        raise NotImplementedError


# --------------------------------------------------------------------------
# check-dev


_REPORT_CONV = re.compile(r"^(ok|FAIL) +conv (add|mul) [a-z]+(\d+) [a-z]+(\d+) (==|=/=) [a-z]+(\d+)$")


class CheckDev(Workload):
    """``pts check`` on corpus, negative, chain, arithmetic and deep files."""

    name = "check-dev"
    corpus_passes = 3  # the corpus files are quick; three passes per round steady the rate

    def ops(self, inputs: Path, seed: int) -> list[Op]:
        manifest = json.loads((inputs / "manifest.json").read_text(encoding="utf-8"))
        ops = []
        for _ in range(self.corpus_passes):
            for dev in manifest:
                if dev["kind"] in ("corpus", "negative"):
                    ops.append(self._op(inputs, dev, 1, 1))
        for dev in manifest:
            if dev["kind"] == "chain":
                ops.append(self._op(inputs, dev, 2, dev["expected"]["defs"]))
            elif dev["kind"] == "arith":
                ops.append(self._op(inputs, dev, 3, dev["expected"]["goals"]))
            elif dev["kind"] == "deep":
                ops.append(self._op(inputs, dev, 0, 0))
        random.Random(seed).shuffle(ops)
        return ops

    @staticmethod
    def _op(inputs: Path, dev: dict, kind: int, items: int) -> Op:
        argv = ["check", str(inputs / dev["name"])] + dev["argv"]
        return Op(dev["name"], argv, kind, items, meta=dev)

    def failed(self, op: Op, res: Result) -> bool:
        if res.crash:
            return True
        if op.kind == 0:
            # A refusal of the well-typed deep file is still a failure; only
            # the full verdict mends it.
            return res.rc != 0
        return False

    def check(self, ops: list[Op], results: list[Result]) -> None:
        for op, res in zip(ops, results):
            if self.failed(op, res):
                continue
            exp = op.meta["expected"]
            where = f"{op.name}: "
            lines = res.out.splitlines()
            _expect(res.rc == exp["exit"], where + f"exit {res.rc}, expected {exp['exit']}")
            for line in lines[: exp["ok_lines"]]:
                _expect(line.startswith("ok    "), where + f"unexpected line {line[:120]!r}")
            if exp["exit"] == 0:
                _expect(len(lines) == exp["ok_lines"], where + f"{len(lines)} report lines")
                _expect(res.err == "", where + "stderr not empty")
            else:
                _expect(len(lines) == exp["ok_lines"] + 1, where + "failing line is not last")
                fail = lines[-1]
                _expect(fail.startswith("FAIL  " + exp["failing"]), where + f"failed at {fail[:80]!r}")
                if exp["error_kind"] == "conv":
                    _expect("=/=" in fail, where + "false conv not reported as =/=")
                else:
                    _expect(exp["error_kind"] in fail, where + f"no {exp['error_kind']} in {fail!r}")
                _expect(exp["rule_pair"] in fail, where + f"no rule pair in {fail!r}")
            if op.meta["kind"] == "arith":
                self._check_arith(where, lines, exp)
            if op.meta["kind"] == "chain":
                defs = sum(1 for line in lines if line.startswith("ok    def "))
                _expect(defs == exp["defs"], where + f"{defs} definitions entered")

    @staticmethod
    def _check_arith(where: str, lines: list[str], exp: dict) -> None:
        """Each reported conv claim agrees with Python integer arithmetic."""
        goals = 0
        for line in lines:
            if line.startswith(("ok    check ", "FAIL  check")):
                goals += 1
            elif line.startswith(("ok    conv ", "FAIL  conv ")):
                m = _REPORT_CONV.match(line)
                _expect(m is not None, where + f"unreadable conv line {line!r}")
                status, op, a, b, rel, c = m.groups()
                value = int(a) + int(b) if op == "add" else int(a) * int(b)
                holds = value == int(c)
                _expect(holds == (rel == "==") == (status == "ok"),
                        where + f"{line!r} disagrees with {a} {op} {b} = {value}")
                goals += 1
        _expect(goals == exp["goals"], where + f"{goals} goals decided, expected {exp['goals']}")


# --------------------------------------------------------------------------
# trace-render


# A head-def row contracts at most a handful of redexes; the naive reducer is
# given this many beta steps per row before a missing state counts as wrong.
NAIVE_STEPS_PER_ROW = 20
FORMATS = {1: [], 2: ["--erase", "annotations"], 3: ["--format", "structured"]}


class TraceRender(Workload):
    """``pts trace`` rows folded, plain (erased) and structured."""

    name = "trace-render"
    bundles = BUNDLES
    steps = 100

    def ops(self, inputs: Path, seed: int) -> list[Op]:
        targets = list(BUNDLES) + [str(inputs / "target.pts")]
        ops = []
        for target in targets:
            rows = len(SIMPLE_ROWS) if target == "simple" else self.steps + 1
            for kind, extra in FORMATS.items():
                argv = ["trace", target, TERM, "--steps", str(self.steps)] + extra
                ops.append(Op(f"trace {Path(target).name} {kind}", argv, kind, rows,
                              meta={"target": target}))
        random.Random(seed).shuffle(ops)
        return ops

    def check(self, ops: list[Op], results: list[Result]) -> None:
        from pts_kernel.corpus import get_bundle

        by_target: dict[str, dict[int, tuple[Op, Result]]] = {}
        for op, res in zip(ops, results):
            by_target.setdefault(op.meta["target"], {})[op.kind] = (op, res)
        surfaces: dict = {}
        for target, runs in by_target.items():
            if any(self.failed(op, res) for op, res in runs.values()):
                continue
            for op, res in runs.values():
                _expect(res.rc == 0 and res.err == "", f"{op.name}: exit {res.rc} {res.err[:200]!r}")
            if target in BUNDLES:
                env = get_bundle(target).env
                start = get_bundle(target).key_terms[TERM]
            else:
                env, start = _file_target_env()
            folded = runs[1][1].out.splitlines()
            plain = runs[2][1].out.splitlines()
            records = [json.loads(line) for line in runs[3][1].out.splitlines()]
            for kind, (op, res) in runs.items():
                n = len(records) if kind == 3 else len(res.out.splitlines())
                _expect(n == op.items, f"{op.name}: {n} rows, expected {op.items}")
            if target == "simple":
                _expect(folded == SIMPLE_ROWS, f"simple rows {folded}")
            _expect([r["index"] for r in records] == list(range(len(records))),
                    f"{target}: structured indices")
            _expect(records[0]["event"] == "start", f"{target}: first record is not the start")
            _expect([r["display"] for r in records] == folded,
                    f"{target}: structured displays differ from text rows")
            reader, states = self._check_states(target, env, start, None,
                                                [r["raw"] for r in records], surfaces)
            for i, row in enumerate(folded):
                _expect(oracle.same(reader.unfolded(row), states[i]),
                        f"{target}: folded row {i} does not re-parse to its raw state")
            self._check_states(target, env, start, "annotations", plain, surfaces)

    @staticmethod
    def _check_states(target, env, start, mode, rows, surfaces):
        """Rows, parsed and unfolded, start at the start term and appear in
        order among the naive reducer's states; returns the reader and them."""
        defs, start = oracle.erased(env, start, mode)
        reader = oracle.RowReader(env, defs, surfaces)
        states = [reader.unfolded(r) for r in rows]
        start = reader.unfold(start)
        _expect(oracle.same(states[0], start), f"{target} ({mode}): first row is not the start")
        naive = oracle.beta_states(start, NAIVE_STEPS_PER_ROW * len(states))
        _expect(oracle.is_subsequence(states, naive),
                f"{target} ({mode}): rows are not naive reduction states in order")
        return reader, states


def _file_target_env():
    """The file target's environment: its bundle plus the named proof."""
    from pts_kernel.corpus import get_bundle
    from pts_kernel.env import Def
    from pts_kernel.parser import elaborate, parse_term_surface
    from pts_kernel.terms import Const

    env = get_bundle("refined-axiomatic").env
    bottom = elaborate(parse_term_surface("⊥"), env)
    proof = elaborate(parse_term_surface(gen.TARGET_PROOF), env)
    return env.extended(Def(TERM, bottom, proof)), Const(TERM)


# --------------------------------------------------------------------------
# loop-search


_LOOP_LINE = re.compile(
    r"^found=(true|false) (?:entry=(\d+) period=(\d+)|no repetition) \(bound=(\d+), steps=(\d+)\)$")


class LoopSearch(Workload):
    """``pts loop`` under head-def (plain and erased) and head-linear."""

    name = "loop-search"
    bundles = BUNDLES
    head_def_bound = 10000
    head_linear_bound = 100
    SETTINGS = (
        (1, ["--strategy", "head-def"], None),
        (2, ["--strategy", "head-def", "--erase", "annotations"], "annotations"),
        (2, ["--strategy", "head-def", "--erase", "poly"], "poly"),
        (3, ["--strategy", "head-linear"], None),
    )

    def ops(self, inputs: Path, seed: int) -> list[Op]:
        ops = []
        for bundle in BUNDLES:
            for kind, flags, mode in self.SETTINGS:
                bound = self.head_linear_bound if kind == 3 else self.head_def_bound
                argv = ["loop", bundle, TERM, "--bound", str(bound)] + flags
                strategy = flags[1]
                ops.append(Op(f"loop {bundle} {' '.join(flags)}", argv, kind, 0,
                              meta={"bundle": bundle, "mode": mode, "bound": bound,
                                    "strategy": strategy}))
        random.Random(seed).shuffle(ops)
        return ops

    def items(self, op: Op, res: Result) -> int:
        m = _LOOP_LINE.match(res.out.strip())
        return int(m.group(5)) if m else 0

    def check(self, ops: list[Op], results: list[Result]) -> None:
        from pts_kernel.corpus import get_bundle

        for op, res in zip(ops, results):
            if self.failed(op, res):
                continue
            _expect(res.rc == 0 and res.err == "", f"{op.name}: exit {res.rc} {res.err[:200]!r}")
            m = _LOOP_LINE.match(res.out.strip())
            _expect(m is not None, f"{op.name}: unreadable report {res.out!r}")
            found = m.group(1) == "true"
            bound, steps = int(m.group(4)), int(m.group(5))
            meta = op.meta
            _expect(bound == meta["bound"], f"{op.name}: bound {bound}")
            if meta["bundle"] == "simple":
                got = (int(m.group(2)), int(m.group(3))) if found else None
                _expect(got == SIMPLE_LOOP, f"{op.name}: simple gives {got}, expected {SIMPLE_LOOP}")
            elif meta["mode"] is None:
                _expect(not found, f"{op.name}: unerased refined family reports a loop")
            if found:
                entry, period = int(m.group(2)), int(m.group(3))
                bundle = get_bundle(meta["bundle"])
                defs, start = oracle.erased(bundle.env, bundle.key_terms[TERM], meta["mode"])
                obs = oracle.observations(defs, start, meta["strategy"], entry + period)
                _expect(len(obs) > entry + period
                        and oracle.same(obs[entry], obs[entry + period]),
                        f"{op.name}: replay does not repeat state {entry} at {entry + period}")
            else:
                _expect(steps == bound, f"{op.name}: found=false after {steps} of {bound} steps")


WORKLOADS: dict[str, Callable[[], Workload]] = {
    CheckDev.name: CheckDev,
    TraceRender.name: TraceRender,
    LoopSearch.name: LoopSearch,
}
