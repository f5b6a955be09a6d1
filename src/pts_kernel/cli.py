"""Command-line frontend: check developments, emit traces, erase, find loops.

Exit status is 0 exactly when no error was reported, which is the contract CI
relies on.  Text-format traces print one folded display per line and are the
byte-exact surface golden files bind to.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from .corpus import BUNDLE_IDS, get_bundle
from .display import fold_display, plain_display, raw_display
from .env import Decl, Def, GlobalEnv, add_entry
from .errors import KernelError, ParseError
from .parser import Directive, build_rewrite, elaborate, parse_program
from .reduce import ERASURE_MODES, HEAD_DEF, STRATEGIES, detect_loop, erase, erase_env, trace
from .specs import PRESETS, empty_custom, with_axiom, with_rule
from .terms import Const, SORT_BY_TOKEN, Term
from .typecheck import check, convert


@dataclass
class ReportLine:
    """One judgment of a report.  ``parts`` are strings and terms; the terms
    are rendered by ``show`` against ``env``, the environment of the line's
    directive, when the text is first read."""

    ok: bool
    parts: tuple
    env: Optional[GlobalEnv] = None
    show: Optional[Callable[[Term, GlobalEnv], str]] = None

    @property
    def text(self) -> str:
        if self.env is not None:
            show, env = self.show, self.env
            self.parts = tuple(p if isinstance(p, str) else show(p, env) for p in self.parts)
            self.env = None
        return "".join(self.parts)


@dataclass
class Report:
    lines: list[ReportLine] = field(default_factory=list)
    error: Optional[KernelError] = None
    failed_entry: Optional[str] = None
    env: Optional[GlobalEnv] = None  # the environment built, once every directive passed

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
        report.error = err
        report.lines.append(ReportLine(False, (f"parse error: {err}",)))
        return report

    spec = PRESETS[system_override] if system_override else None
    env = GlobalEnv(spec if spec is not None else PRESETS["lambda-hol"])
    started = False

    def say(ok: bool, *parts: object, show: Optional[Callable] = None) -> None:
        show = show or (raw_display if raw else fold_display)
        report.lines.append(ReportLine(ok, parts, env, show))

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
                    s1, s2 = (SORT_BY_TOKEN[s] for s in d.parts)
                    env = env.with_spec(with_axiom(env.spec, s1, s2))
                    say(True, f"axiom {d.parts[0]} : {d.parts[1]}")
                else:
                    s1, s2, s3 = (SORT_BY_TOKEN[s] for s in d.parts)
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
                say(True, "check ", t, " : ", ty)
            elif d.kind == "conv":
                a = elaborate(d.parts[0], env)
                b = elaborate(d.parts[1], env)
                if convert(env, a, b):
                    say(True, "conv ", a, " == ", b)
                else:
                    say(False, "conv ", a, " =/= ", b)
                    report.failed_entry = "conv"
                    return report
            elif d.kind == "trace":
                t = elaborate(d.parts[0], env)
                tr = trace(env, t, HEAD_DEF, d.parts[1])
                say(True, "trace ", t, f" [{tr.stopped}]")
                rows = lambda row, _env, show=tr.show: show(row)  # folded even in a raw report
                for row in [tr.start] + [s.raw for s in tr.steps]:
                    say(True, "  ", row, show=rows)
        except KernelError as err:
            report.error = err
            report.failed_entry = d.name or d.kind
            say(False, f"{d.kind} {d.name or ''}: {err}".strip())
            return report
    report.env = env
    return report


def _resolve_system(d: Directive) -> "PtsSpec":  # noqa: F821 (doc only)
    if d.name in PRESETS:
        return PRESETS[d.name]
    if d.name == "custom":
        return empty_custom()
    raise ParseError(f"unknown system {d.name!r}", d.line, d.col)


# --------------------------------------------------------------------------
# Target resolution: a bundle id or a development file


def _load_target(target: str, system_override: Optional[str]) -> tuple[GlobalEnv, dict]:
    if target in BUNDLE_IDS:
        bundle = get_bundle(target)
        env = bundle.env
        if system_override and system_override != bundle.preset_name:
            env = env.with_spec(PRESETS[system_override])
        return env, dict(bundle.key_terms)
    src = Path(target).read_text(encoding="utf-8")
    report = run_program(src, system_override)
    if not report.ok:
        raise KernelError(f"cannot load {target}:\n{report.render()}")
    names = {e.name: Const(e.name) for e in report.env.entries if isinstance(e, (Decl, Def))}
    return report.env, names


def _require_count(flag: str, value: int) -> None:
    if value < 0:
        raise KernelError(f"{flag} must be 0 or more, not {value}")


def _resolve_term(terms: dict, name: str, target: str) -> Term:
    if name not in terms:
        raise KernelError(f"unknown term {name!r} in {target}")
    return terms[name]


# --------------------------------------------------------------------------
# Commands


def cmd_check(args: argparse.Namespace) -> int:
    src = Path(args.file).read_text(encoding="utf-8")
    report = run_program(src, args.system, raw=args.raw)
    print(report.render())
    return 0 if report.ok else 1


def cmd_trace(args: argparse.Namespace) -> int:
    _require_count("--steps", args.steps)
    env, terms = _load_target(args.target, args.system)
    t = _resolve_term(terms, args.term, args.target)
    if args.erase:
        env, t = erase_env(env, args.erase), erase(t, args.erase, env=env)
    tr = trace(env, t, args.strategy, args.steps, fold=args.erase is None)
    if args.format == "text":
        for row in tr.displays:
            print(row)
    else:
        print(json.dumps({"index": 0, "event": "start", "display": tr.start_display,
                          "raw": tr.plain(tr.start)}, ensure_ascii=False))
        for s in tr.steps:
            print(json.dumps({"index": s.index, "event": s.kind, "detail": s.detail,
                              "display": s.display, "raw": tr.plain(s.raw)},
                             ensure_ascii=False))
    return 0


def cmd_erase(args: argparse.Namespace) -> int:
    env, terms = _load_target(args.target, args.system)
    t = _resolve_term(terms, args.term, args.target)
    print(plain_display(erase(t, args.erase, env=env)))
    return 0


def cmd_loop(args: argparse.Namespace) -> int:
    _require_count("--bound", args.bound)
    env, terms = _load_target(args.target, args.system)
    t = _resolve_term(terms, args.term, args.target)
    report = detect_loop(env, t, args.strategy, args.bound, mode=args.erase)
    state = f"entry={report.entry} period={report.period}" if report.found else "no repetition"
    print(f"found={str(report.found).lower()} {state} (bound={report.bound}, steps={report.steps})")
    return 0


def cmd_list_corpus(_args: argparse.Namespace) -> int:
    for id in BUNDLE_IDS:
        bundle = get_bundle(id)
        terms = ", ".join(sorted(bundle.key_terms))
        print(f"{id}  [{bundle.preset_name}]  terms: {terms}")
    return 0


def _add_common(p: argparse.ArgumentParser, with_term: bool = True) -> None:
    p.add_argument("target", help="bundle id or development file")
    if with_term:
        p.add_argument("term", help="key term (bundle) or constant name (file)")
    p.add_argument("--system", choices=sorted(PRESETS), default=None)


def main(argv: Optional[list[str]] = None) -> int:
    sys.setrecursionlimit(100_000)
    parser = argparse.ArgumentParser(
        prog="pts",
        description="PTS proof checker with definitions, rewrite rules, and reduction traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="type-check a development file")
    p.add_argument("file")
    p.add_argument("--system", choices=sorted(PRESETS), default=None)
    p.add_argument("--raw", action="store_true", help="render judgments fully unfolded")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("trace", help="emit a head-reduction trace")
    _add_common(p)
    p.add_argument("--strategy", choices=STRATEGIES, default=HEAD_DEF)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.add_argument("--erase", choices=ERASURE_MODES, default=None)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("erase", help="print a term after type erasure")
    _add_common(p)
    p.add_argument("--erase", choices=ERASURE_MODES, required=True)
    p.set_defaults(fn=cmd_erase)

    p = sub.add_parser("loop", help="search for a repeated reduction state")
    _add_common(p)
    p.add_argument("--strategy", choices=STRATEGIES, default=HEAD_DEF)
    p.add_argument("--bound", type=int, default=1000)
    p.add_argument("--erase", choices=ERASURE_MODES, default=None)
    p.set_defaults(fn=cmd_loop)

    p = sub.add_parser("list-corpus", help="list shipped paradox bundles")
    p.set_defaults(fn=cmd_list_corpus)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except KernelError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: the input nests too deeply", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
