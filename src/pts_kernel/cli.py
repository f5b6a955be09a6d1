"""Command-line frontend: check developments, emit traces, erase, find loops.

Exit status is 0 exactly when no error was reported, 1 when one was, and 2 for
a malformed command line; CI relies on it.  Text-format traces print one
folded display per line and are the byte-exact surface golden files bind to.
"""

from __future__ import annotations

import gc
import sys
from types import SimpleNamespace
from typing import NoReturn, Optional

from .corpus import BUNDLE_IDS, get_bundle, read_source, run_file, run_program
from .display import plain_display
from .env import Decl, Def, GlobalEnv
from .errors import KernelError
from .reduce import ERASURE_MODES, HEAD_DEF, STRATEGIES, detect_loop, erase, trace
from .specs import PRESETS
from .terms import Const, Term


# --------------------------------------------------------------------------
# Target resolution: a bundle id or a development file


def _load_target(args: SimpleNamespace) -> tuple[GlobalEnv, Term]:
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


def cmd_check(args: SimpleNamespace) -> int:
    src = read_source(args.file)
    report = run_program(src, args.system, raw=args.raw)
    print(report.render())
    return 0 if report.ok else 1


def cmd_trace(args: SimpleNamespace) -> int:
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


def cmd_erase(args: SimpleNamespace) -> int:
    env, t = _load_target(args)
    print(plain_display(erase(t, args.erase, env)))
    return 0


def cmd_loop(args: SimpleNamespace) -> int:
    _require_count("--bound", args.bound)
    env, t = _load_target(args)
    report = detect_loop(env, t, args.strategy, args.bound, mode=args.erase)
    state = f"entry={report.entry} period={report.period}" if report.found else "no repetition"
    print(f"found={str(report.found).lower()} {state} (bound={report.bound}, steps={report.steps})")
    return 0


def cmd_list_corpus(_args: SimpleNamespace) -> int:
    for id in BUNDLE_IDS:
        bundle = get_bundle(id)
        terms = ", ".join(sorted(bundle.key_terms))
        print(f"{id}  [{bundle.env.spec.name}]  terms: {terms}")
    return 0


_SYSTEM = ("system", tuple(sorted(PRESETS)), None, False)
_REDUCE = (("strategy", STRATEGIES, HEAD_DEF, False), ("erase", ERASURE_MODES, None, False))
# command: (handler, positionals, flags); a flag is (name, choices | int | bool, default, required)
_COMMANDS = {
    "check": (cmd_check, ("file",), (_SYSTEM, ("raw", bool, False, False))),
    "trace": (cmd_trace, ("target", "term"), (_SYSTEM, *_REDUCE, ("steps", int, 50, False),
                                              ("format", ("text", "structured"), "text", False))),
    "erase": (cmd_erase, ("target", "term"), (_SYSTEM, ("erase", ERASURE_MODES, None, True))),
    "loop": (cmd_loop, ("target", "term"), (_SYSTEM, *_REDUCE, ("bound", int, 1000, False))),
    "list-corpus": (cmd_list_corpus, (), ()),
}


def _exit(error: str = "") -> NoReturn:
    """Print the usage and exit 0, or with ``error`` print both to stderr and exit 2."""
    lines = []
    for command, (_, names, flags) in _COMMANDS.items():
        words = [command, *map(str.upper, names)]
        for name, kind, _, required in flags:
            value = "" if kind is bool else " N" if kind is int else f" {{{','.join(kind)}}}"
            words.append(f"--{name}{value}" if required else f"[--{name}{value}]")
        lines.append(" ".join(words))
    usage = "usage: pts " + "\n       pts ".join([*lines, "-h | --help"])
    print(usage + (error and f"\npts: error: {error}"), file=sys.stderr if error else sys.stdout)
    raise SystemExit(2 if error else 0)


def _parse(argv: list[str]) -> SimpleNamespace:
    """``argv`` read against ``_COMMANDS``: the handler as ``fn`` and each
    positional and flag by name.  ``-h`` or a malformed line exits in ``_exit``."""
    command = argv[0] if argv and argv[0] in _COMMANDS else ""
    handler, names, flags = _COMMANDS.get(command, (None, ("command",), ()))
    values = {name: default for name, _, default, required in flags if not required}
    positionals, args = [], iter(argv[1 if command else 0:])
    for arg in args:
        if arg == "--":
            positionals += args
        elif arg in ("-h", "--help"):
            _exit()
        elif arg.startswith("-") and arg != "-" and not arg[1:].isdecimal():
            prefix, eq, value = arg.partition("=")
            match = [flag for flag in flags if f"--{flag[0]}".startswith(prefix)]
            if len(match) != 1:
                _exit(f"{'ambiguous' if match else 'unrecognized'} option {arg}")
            [(name, kind, _, _)] = match
            if kind is bool:
                value = True if not eq else _exit(f"--{name} takes no value")
            elif not eq and (value := next(args, None)) is None:
                _exit(f"--{name} expects a value")
            elif kind is int:
                try:
                    value = int(value)
                except ValueError:
                    _exit(f"--{name} expects an integer, not {value!r}")
            elif value not in kind:
                _exit(f"--{name} expects one of {', '.join(kind)}, not {value!r}")
            values[name] = value
        else:
            positionals.append(arg)
    if not command or len(positionals) != len(names):
        _exit(f"expected {' '.join(names).upper() or 'no arguments'}, not {positionals}")
    if missing := [f"--{flag[0]}" for flag in flags if flag[0] not in values]:
        _exit(f"{command} requires {', '.join(missing)}")
    return SimpleNamespace(command=command, fn=handler, **dict(zip(names, positionals)), **values)


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
        args = _parse(sys.argv[1:] if argv is None else argv)
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
