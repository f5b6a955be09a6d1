"""Command-line frontend: check developments, emit traces, erase, find loops.

Exit status is 0 exactly when no error was reported, which is the contract CI
relies on.  Text-format traces print one folded display per line and are the
byte-exact surface golden files bind to.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from typing import Optional

from .corpus import BUNDLE_IDS, get_bundle, read_source, run_file, run_program
from .display import plain_display
from .env import Decl, Def, GlobalEnv
from .errors import KernelError
from .reduce import ERASURE_MODES, HEAD_DEF, STRATEGIES, detect_loop, erase, trace
from .specs import PRESETS
from .terms import Const, Term


# --------------------------------------------------------------------------
# Target resolution: a bundle id or a development file


def _load_target(args: argparse.Namespace) -> tuple[GlobalEnv, Term]:
    """The environment of ``args.target``, a bundle or a file, and its term ``args.term``."""
    if args.target in BUNDLE_IDS:
        bundle = get_bundle(args.target)
        env, terms = bundle.env, bundle.key_terms
        if args.system and args.system != env.spec.name:
            env = env.with_spec(PRESETS[args.system])
    else:
        env = run_file(args.target, args.system).env
        terms = {e.name: Const(e.name) for e in env.entries if isinstance(e, (Decl, Def))}
    if args.term not in terms:
        raise KernelError(f"unknown term {args.term!r} in {args.target}")
    return env, terms[args.term]


def _require_count(flag: str, value: int) -> None:
    if value < 0:
        raise KernelError(f"{flag} must be 0 or more, not {value}")


# --------------------------------------------------------------------------
# Commands


def cmd_check(args: argparse.Namespace) -> int:
    src = read_source(args.file)
    report = run_program(src, args.system, raw=args.raw)
    print(report.render())
    return 0 if report.ok else 1


def cmd_trace(args: argparse.Namespace) -> int:
    _require_count("--steps", args.steps)
    env, t = _load_target(args)
    tr = trace(env, t, args.strategy, args.steps, mode=args.erase)
    if args.format == "text":
        for row in tr.displays:
            print(row)
    else:
        import json  # only structured rows need it
        encode = json.JSONEncoder(ensure_ascii=False).encode
        print(encode({"index": 0, "event": "start", "display": tr.show(tr.start),
                      "raw": tr.plain(tr.start)}))
        for index, s in enumerate(tr.steps, 1):
            print(encode({"index": index, "event": s.kind, "detail": s.detail,
                          "display": tr.show(s.raw), "raw": tr.plain(s.raw)}))
    return 0


def cmd_erase(args: argparse.Namespace) -> int:
    env, t = _load_target(args)
    print(plain_display(erase(t, args.erase, env)))
    return 0


def cmd_loop(args: argparse.Namespace) -> int:
    _require_count("--bound", args.bound)
    env, t = _load_target(args)
    report = detect_loop(env, t, args.strategy, args.bound, mode=args.erase)
    state = f"entry={report.entry} period={report.period}" if report.found else "no repetition"
    print(f"found={str(report.found).lower()} {state} (bound={report.bound}, steps={report.steps})")
    return 0


def cmd_list_corpus(_args: argparse.Namespace) -> int:
    for id in BUNDLE_IDS:
        bundle = get_bundle(id)
        terms = ", ".join(sorted(bundle.key_terms))
        print(f"{id}  [{bundle.env.spec.name}]  terms: {terms}")
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("target", help="bundle id or development file")
    p.add_argument("term", help="key term (bundle) or constant name (file)")
    p.add_argument("--system", choices=sorted(PRESETS), default=None)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call to ``main``."""
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
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if sys.version_info < (3, 11):
        return _on_a_large_stack(argv)
    return _main(argv)


def _on_a_large_stack(argv: Optional[list[str]]) -> int:
    """``_main(argv)`` in one worker thread with a 256 MiB stack.
    CPython before 3.11 spends C stack on every Python call, so the main
    thread's stack overflows (SIGSEGV) long before the recursion limit that
    ``_main`` sets; on this stack a ``RecursionError`` comes first.  Whatever
    ``_main`` raises is raised again here."""
    import threading

    outcome: list = []

    def run() -> None:
        try:
            outcome.append(_main(argv))
        except BaseException as err:  # re-raised in the calling thread
            outcome.append(err)

    old = threading.stack_size(256 << 20)
    try:
        worker = threading.Thread(target=run)
        worker.start()
    finally:
        threading.stack_size(old)
    worker.join()
    if isinstance(outcome[0], BaseException):
        raise outcome.pop()  # held by no local, so its traceback makes no cycle
    return outcome[0]


def _main(argv: Optional[list[str]]) -> int:
    limit, thresholds = sys.getrecursionlimit(), gc.get_threshold()
    sys.setrecursionlimit(100_000)
    gc.set_threshold(100_000, *thresholds[1:])  # the kernel leaves no cycles to collect
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except (KernelError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: the input nests too deeply", file=sys.stderr)
        return 1
    finally:
        gc.set_threshold(*thresholds)
        sys.setrecursionlimit(limit)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
