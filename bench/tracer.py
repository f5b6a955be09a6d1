"""Span recorder for the traced run: per-layer self time and counts.

Every public function of the kernel's layers is wrapped from outside, and the
wrapper is patched into each ``pts_kernel`` module that holds the name, so
calls between modules and within one module both pass through it.  A span is
(name, start, end, parent).  A direct recursive call (the function is already
the innermost open span) runs unwrapped, so a recursive function records only
its outermost call.  A span's self time is its duration minus the durations
of its child spans.

Aggregates are exact; the spans themselves are kept in memory up to
``MAX_SPANS`` and written out as tab-separated lines when the run ends.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import OrderedDict
from pathlib import Path
from time import perf_counter

LAYERS = ("parser", "env", "typecheck", "display", "reduce", "terms", "corpus", "cli")
MAX_SPANS = 200_000
_SEEN_ENVS = 64  # environments remembered for first-render detection


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.patched: list[tuple[object, str, object]] = []
        self.recording = False
        self.stack: list[list] = []  # [function id, child time, span id]
        self.next_id = 0
        self.ids = array("q")
        self.fids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.seen_envs: OrderedDict[int, object] = OrderedDict()
        self.reset()

    # -- aggregates -----------------------------------------------------------

    def reset(self) -> None:
        n = len(self.names)
        self.self_time = [0.0] * n
        self.total_time = [0.0] * n
        self.calls = [0] * n
        self.tokens = 0
        self.chars = 0
        self.first_render_s = 0.0
        self.first_renders = 0

    def snapshot(self) -> dict:
        return {
            name: (self.self_time[i], self.total_time[i], self.calls[i])
            for i, name in enumerate(self.names)
        } | {
            "#tokens": self.tokens,
            "#chars": self.chars,
            "#first_render_s": self.first_render_s,
            "#first_renders": self.first_renders,
        }

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = {m: sys.modules[f"pts_kernel.{m}"] for m in LAYERS}
        holders = [m for name, m in sys.modules.items() if name.startswith("pts_kernel")]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(len(self.names), fn, f"{layer}.{attr}")
                self.names.append(f"{layer}.{attr}")
                for holder in holders:
                    for hattr, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, hattr, wrapper)
                            self.patched.append((holder, hattr, fn))
        self.reset()
        self.recording = True

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self.patched):
            setattr(holder, attr, fn)
        self.patched.clear()
        self.recording = False

    def _wrap(self, fid: int, fn, name: str):
        stack = self.stack
        after = {
            "parser.tokenize": self._count_tokens,
            "display.fold_display": self._count_chars,
            "display.plain_display": self._count_chars,
            "display.raw_display": self._count_chars,
        }.get(name)
        first_render = name == "display.fold_display"

        def wrapper(*args, **kwargs):
            if not self.recording or (stack and stack[-1][0] == fid):
                return fn(*args, **kwargs)
            fresh = first_render and self._is_new_env(args, kwargs)
            span = self.next_id
            self.next_id += 1
            frame = [fid, 0.0, span]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.total_time[fid] += duration
                self.self_time[fid] += duration - frame[1]
                self.calls[fid] += 1
                if fresh:
                    self.first_render_s += duration
                    self.first_renders += 1
                parent = stack[-1][2] if stack else -1
                if stack:
                    stack[-1][1] += duration
                if len(self.ids) < MAX_SPANS:
                    self.ids.append(span)
                    self.fids.append(fid)
                    self.starts.append(start)
                    self.ends.append(end)
                    self.parents.append(parent)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_tokens(self, tokens) -> None:
        self.tokens += len(tokens)

    def _count_chars(self, text) -> None:
        self.chars += len(text)

    def _is_new_env(self, args, kwargs) -> bool:
        env = args[1] if len(args) > 1 else kwargs.get("env")
        if env is None:
            return False
        key = id(env)
        if key in self.seen_envs:
            self.seen_envs.move_to_end(key)
            return False
        self.seen_envs[key] = env  # held, so its id is not reused meanwhile
        if len(self.seen_envs) > _SEEN_ENVS:
            self.seen_envs.popitem(last=False)
        return True

    # -- output ---------------------------------------------------------------

    def spans_recorded(self) -> int:
        return self.next_id

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write("id\tname\tstart\tend\tparent\n")
            for i in range(len(self.ids)):
                out.write(
                    f"{self.ids[i]}\t{self.names[self.fids[i]]}\t{self.starts[i]:.9f}"
                    f"\t{self.ends[i]:.9f}\t{self.parents[i]}\n"
                )


def _sum(snap: dict, names: tuple[str, ...], field: int) -> float:
    return sum(snap[n][field] for n in names if n in snap)


SELF, TOTAL, CALLS = 0, 1, 2

# metric -> (field, functions); times are self times unless the field is TOTAL.
FUNCTION_METRICS: dict[str, tuple[int, tuple[str, ...]]] = {
    "parser.tokenize_s": (SELF, ("parser.tokenize",)),
    "parser.parse_s": (SELF, ("parser.parse_program", "parser.parse_term_surface")),
    "parser.parse_program_calls": (CALLS, ("parser.parse_program",)),
    "parser.elaborate_s": (
        SELF, ("parser.elaborate", "parser.build_rewrite", "parser.surface_to_pattern")),
    "env.add_entry_self_s": (SELF, ("env.add_entry",)),
    "env.add_entry_calls": (CALLS, ("env.add_entry",)),
    "env.unfold_all_s": (SELF, ("env.unfold_all",)),
    "env.unfold_all_calls": (CALLS, ("env.unfold_all",)),
    "typecheck.check_entry_s": (
        SELF, ("typecheck.check_entry", "typecheck.check_definition", "typecheck.check")),
    "typecheck.infer_s": (SELF, ("typecheck.infer",)),
    "typecheck.convert_s": (SELF, ("typecheck.convert",)),
    "typecheck.convert_calls": (CALLS, ("typecheck.convert",)),
    "typecheck.whnf_s": (SELF, ("typecheck.whnf",)),
    "display.fold_display_s": (SELF, ("display.fold_display",)),
    "display.fold_display_calls": (CALLS, ("display.fold_display",)),
    "display.plain_display_s": (SELF, ("display.plain_display", "display.raw_display")),
    "reduce.head_def_step_s": (SELF, ("reduce.head_def_step",)),
    "reduce.head_def_steps": (CALLS, ("reduce.head_def_step",)),
    "reduce.head_linear_step_s": (SELF, ("reduce.head_linear_step",)),
    "reduce.head_linear_steps": (CALLS, ("reduce.head_linear_step",)),
    "reduce.readback_s": (SELF, ("reduce.readback",)),
    "reduce.erase_s": (SELF, ("reduce.erase",)),
    "reduce.erase_env_s": (SELF, ("reduce.erase_env",)),
    "reduce.detect_loop_self_s": (SELF, ("reduce.detect_loop",)),
    "reduce.trace_self_s": (SELF, ("reduce.trace",)),
    "terms.subst_s": (SELF, ("terms.subst",)),
    "terms.subst_calls": (CALLS, ("terms.subst",)),
    "terms.alpha_eq_s": (SELF, ("terms.alpha_eq",)),
    "terms.alpha_eq_calls": (CALLS, ("terms.alpha_eq",)),
}


def layer_metrics(snap: dict, rounds: int) -> dict[str, float]:
    """Per-layer metrics as means per round of the aggregates in ``snap``."""
    out: dict[str, float] = {}
    for metric, (field, names) in FUNCTION_METRICS.items():
        out[metric] = _sum(snap, names, field) / rounds
    out["parser.tokens"] = snap["#tokens"] / rounds
    out["display.chars"] = snap["#chars"] / rounds
    out["display.first_render_s"] = snap["#first_render_s"] / rounds
    out["display.first_renders"] = snap["#first_renders"] / rounds
    steps = out["reduce.head_def_steps"] + out["reduce.head_linear_steps"]
    out["terms.alpha_eq_calls_per_loop_step"] = out["terms.alpha_eq_calls"] / steps if steps else 0.0
    for layer in LAYERS:
        names = tuple(n for n in snap if n.startswith(layer + "."))
        out[f"{layer}.self_s"] = _sum(snap, names, SELF) / rounds
        out[f"{layer}.calls"] = _sum(snap, names, CALLS) / rounds
    # cli's own time is argument parsing, JSON encoding and printing.
    out["cli.main_self_s"] = out.pop("cli.self_s")
    return out
