"""Machine-checked paradox corpus, and the runner of development files.

The files under ``corpus/`` are the corpus.  ``get_bundle`` runs
``corpus/<id>.pts`` through ``run_program``, the one interpreter of
directives, and packages what it built: the environment, the file's
``check`` judgment as the key term ``bottomProof`` with its expected type
``⊥``, and the file's ``conv`` judgments as conversion goals.  The pinned
head-reduction traces of the bundles live in ``tests/golden/``.

The two axiomatic bundles postulate a carrier with resp. a retract equation
and a twisted retract equation as a rewrite rule; the three impredicative
bundles define everything and need no rewrite rules at all, their key
equalities holding by plain beta-delta conversion.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Optional

from .display import Show, fold_display, raw_display
from .env import Decl, Def, GlobalEnv, add_entry
from .errors import KernelError, ParseError
from .parser import Directive, build_rewrite, elaborate, parse_program
from .reduce import HEAD_DEF, trace
from .specs import PRESETS, PtsSpec, with_axiom, with_rule
from .terms import Term
from .typecheck import check, convert, infer

# --------------------------------------------------------------------------
# Development files


class ReportLine:
    """One judgment of a report.  ``parts`` are strings and terms; ``show``
    renders the terms, against the environment of the line's directive,
    when the text is first read."""

    __slots__ = ("ok", "parts", "show")
    def __init__(self, ok: bool, parts: tuple, show: Optional[Show] = None) -> None:
        self.ok, self.parts, self.show = ok, parts, show

    @property
    def text(self) -> str:
        if self.show is not None:
            show = self.show
            self.parts = tuple(p if isinstance(p, str) else show(p) for p in self.parts)
            self.show = None
        return "".join(self.parts)


class Report:
    __slots__ = ("lines", "error", "failed_entry", "env", "judgments")
    def __init__(self) -> None:
        self.lines: list[ReportLine] = []
        self.error: Optional[KernelError] = None
        self.failed_entry: Optional[str] = None
        self.env: Optional[GlobalEnv] = None  # the environment built, once every directive passed
        self.judgments: list[tuple[str, Term, Term]] = []  # passed check/conv

    @property
    def ok(self) -> bool:
        return self.error is None and all(line.ok for line in self.lines)

    def render(self) -> str:
        return "\n".join(("ok    " if l.ok else "FAIL  ") + l.text for l in self.lines)


def run_program(src: str, system_override: Optional[str] = None, raw: bool = False) -> Report:
    """Execute a development file: build the environment, run its directives.

    Stops at the first failing directive; the report records every judgment
    with folded displays (or fully unfolded ones when ``raw`` is set),
    rendered when the report is, each against the environment its directive
    ran in.  Those environments are views of one entry table, so keeping
    them costs a reference per line.  A ``system_override`` replaces only
    the ``system`` header: ``axiom`` and ``rule`` directives still extend the
    chosen signature.
    """
    report = Report()
    try:
        directives = parse_program(src)
    except ParseError as err:
        report.error = err.with_traceback(None)  # its frames would hold the report
        report.lines.append(ReportLine(False, (f"parse error: {err}",)))
        return report

    spec = PRESETS[system_override] if system_override else None
    env = GlobalEnv(spec if spec is not None else PRESETS["lambda-hol"])
    started = False

    def say(ok: bool, *parts: object, show: Optional[Show] = None) -> None:
        show = show or partial(raw_display if raw else fold_display, env=env)
        report.lines.append(ReportLine(ok, parts, show))

    for d in directives:
        try:
            if d.kind in ("system", "axiom", "rule"):
                if started:
                    raise ParseError(
                        f"{d.kind} directives must precede entries", d.line, d.col
                    )
                if d.kind == "system":
                    chosen = _resolve_system(d)
                    if spec is None:
                        env = env.with_spec(chosen)
                        say(True, f"system {chosen.name}")
                    else:
                        say(True, f"system {d.name} (overridden: {spec.name})")
                elif d.kind == "axiom":
                    s1, s2 = d.parts
                    env = env.with_spec(with_axiom(env.spec, s1, s2))
                    say(True, f"axiom {d.parts[0]} : {d.parts[1]}")
                else:
                    s1, s2, s3 = d.parts
                    env = env.with_spec(with_rule(env.spec, s1, s2, s3))
                    say(True, f"rule {d.parts[0]} {d.parts[1]} : {d.parts[2]}")
                continue
            started = True
            if d.kind == "const":
                ty = elaborate(d.parts[0], env)
                env = add_entry(env, Decl(d.name, ty))
                say(True, f"const {d.name} : ", ty)
            elif d.kind == "def":
                ty = elaborate(d.parts[0], env)
                body = elaborate(d.parts[1], env)
                env = add_entry(env, Def(d.name, ty, body))
                say(True, f"def {d.name} : ", ty)
            elif d.kind == "rewrite":
                rule = build_rewrite(env, d.name, d.parts[0], d.parts[1], d.line, d.col)
                env = add_entry(env, rule)
                say(True, f"rewrite {d.name}")
            elif d.kind == "check":
                t = elaborate(d.parts[0], env)
                ty = elaborate(d.parts[1], env)
                check(env, t, ty)
                report.judgments.append(("check", t, ty))
                say(True, "check ", t, " : ", ty)
            elif d.kind == "conv":
                a = elaborate(d.parts[0], env)
                b = elaborate(d.parts[1], env)
                if convert(env, a, b):
                    report.judgments.append(("conv", a, b))
                    say(True, "conv ", a, " == ", b)
                else:
                    say(False, "conv ", a, " =/= ", b)
                    report.failed_entry = "conv"
                    return report
            elif d.kind == "trace":
                t = elaborate(d.parts[0], env)
                infer(env, t)
                tr = trace(env, t, HEAD_DEF, d.parts[1])
                say(True, "trace ", t, f" [{tr.stopped}]")
                for row in [tr.start] + [s.raw for s in tr.steps]:
                    say(True, "  ", row, show=tr.show)  # folded even in a raw report
        except KernelError as err:
            err.__context__ = err.__cause__ = None  # chained errors hold frames too
            report.error = err.with_traceback(None)
            report.failed_entry = d.name or d.kind
            say(False, f"{d.kind} {d.name or ''}: {err}".strip())
            return report
    report.env = env
    return report


def _resolve_system(d: Directive) -> PtsSpec:
    if d.name in PRESETS:
        return PRESETS[d.name]
    if d.name == "custom":
        return PtsSpec("custom", {}, {})
    raise ParseError(f"unknown system {d.name!r}", d.line, d.col)


def read_source(path: str | Path) -> str:
    """The text of a development file less a leading U+FEFF; a ``KernelError`` if not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as err:
        raise KernelError(f"{path} is not UTF-8 (byte {err.start})") from None


def run_file(path: str | Path, system_override: Optional[str] = None) -> Report:
    """``run_program`` on a file; a ``KernelError`` unless every directive passed."""
    report = run_program(read_source(path), system_override)
    if not report.ok:
        raise KernelError(f"cannot load {path}:\n{report.render()}")
    return report


# --------------------------------------------------------------------------
# Bundles

BUNDLE_IDS = ("simple", "refined-axiomatic", "reynolds-A", "hurkens-B-match1", "hurkens-B-match2")
# The files sit at the repository root, next to ``src/``; an installed wheel
# does not carry them.
CORPUS_DIR = Path(__file__).resolve().parents[2] / "corpus"


class ParadoxBundle:
    __slots__ = ("id", "env", "key_terms", "expected_types", "conv_goals")
    def __init__(
        self,
        id: str,
        env: GlobalEnv,
        key_terms: dict[str, Term],
        expected_types: dict[str, Term],
        conv_goals: list[tuple[Term, Term]],
    ) -> None:
        self.id, self.env = id, env
        self.key_terms, self.expected_types = key_terms, expected_types
        self.conv_goals = conv_goals


_CACHE: dict[str, ParadoxBundle] = {}


def get_bundle(id: str) -> ParadoxBundle:
    if id not in BUNDLE_IDS:
        raise KeyError(f"unknown bundle {id!r}")
    if id not in _CACHE:
        path = CORPUS_DIR / f"{id.lower()}.pts"
        report = run_file(path)
        checks = [(t, ty) for kind, t, ty in report.judgments if kind == "check"]
        if len(checks) != 1:
            raise KernelError(f"{path} holds {len(checks)} check directives, not 1")
        [(bottom, bottom_type)] = checks
        _CACHE[id] = ParadoxBundle(
            id=id,
            env=report.env,
            key_terms={"bottomProof": bottom},
            expected_types={"bottomProof": bottom_type},
            conv_goals=[(a, b) for kind, a, b in report.judgments if kind == "conv"],
        )
    return _CACHE[id]
