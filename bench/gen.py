"""Seeded input generator for the benchmark.

Writes the developments the ``check-dev`` and ``trace-render`` workloads feed
to ``pts`` and records, next to each file, the verdict it must get: exit
status, and for a failure the failing directive and the error kind (or rule
pair).  Every expected value is computed here from the generator's own
construction -- numeral goals from Python integers -- never by asking the
kernel.

Run alone with ``python3 bench/gen.py --seed 7 --out bench/out/inputs``; it
writes the files and a ``manifest.json`` describing them.

Seeds vary names and the order of goals, never the sizes, the shapes or the
operands that set the cost of a file, so that one seed costs the same as
another: the shapes of the chains come from a fixed generator of their own.
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS_FILES = (
    "simple.pts",
    "refined-axiomatic.pts",
    "reynolds-a.pts",
    "hurkens-b-match1.pts",
    "hurkens-b-match2.pts",
)

CHAIN_FILES = 2
CHAIN_DEFS = 250
# Letters a chain may name its definitions with; the chain's own constants
# and binder (A, a, f, g, x) are not among them.
CHAIN_STEMS = "bcdehkmnpquvwyz"
ARITH_FILES = 3
# Deciding ``conv (add a b) (c)`` costs about 2**a, and ``mul a b`` depends
# on both operands, so every file decides the same goals; the seed names the
# numerals and orders the goals.
ADD_PAIRS = ((5, 9), (6, 3), (7, 7), (8, 2), (9, 5))
MUL_PAIRS = ((4, 3), (3, 4), (2, 5), (3, 5), (2, 6))
CHECKS = (("add", 6, 8), ("mul", 4, 3))  # ``check op m n : Nat`` goals
FALSE_ADD = (7, 4, 12)  # ``conv (add 7 4) (12)``: the false goal
NUMERALS = 18  # every file defines the numerals 0..NUMERALS
DEEP_NESTING = 20000


@dataclass
class Expected:
    """The verdict a development must get from ``pts check``."""

    exit: int
    ok_lines: int  # report lines before the failing one (all lines on success)
    failing: str = ""  # report prefix of the failing directive, e.g. "def A"
    error_kind: str = ""  # TypeCheckError kind, or "conv" for a false conv
    rule_pair: str = ""  # "(##,#)" for NoRule
    defs: int = 0  # definitions entered
    goals: int = 0  # conv/check directives decided


@dataclass
class Development:
    name: str
    kind: str  # corpus | negative | chain | arith | deep | target
    argv: list[str]  # pts check flags after the file name
    expected: Expected


def _directive_count(src: str) -> int:
    """Directives in a development: period-terminated, comment-free lines."""
    count = 0
    for line in src.splitlines():
        line = line.split("--", 1)[0].strip()
        if line.endswith("."):
            count += 1
    return count


def _corpus(out: Path) -> list[Development]:
    devs = []
    for fname in CORPUS_FILES:
        src = (ROOT / "corpus" / fname).read_text(encoding="utf-8")
        (out / fname).write_text(src, encoding="utf-8")
        devs.append(Development(fname, "corpus", [], Expected(0, _directive_count(src))))
    return devs


def _negatives(out: Path, rng: random.Random) -> list[Development]:
    src = (ROOT / "corpus" / "reynolds-a.pts").read_text(encoding="utf-8")
    lines = src.splitlines()
    # Entries before ``def A`` check under lambda-hol; ``A`` needs (##,#).
    before = next(i for i, line in enumerate(lines) if line.startswith("def A "))
    ok_before = _directive_count("\n".join(lines[:before]))
    name = "reynolds-a-hol.pts"
    (out / name).write_text(src, encoding="utf-8")
    devs = [
        Development(
            name,
            "negative",
            ["--system", "lambda-hol"],
            Expected(1, ok_before, failing="def A", error_kind="NoRule", rule_pair="(##,#)"),
        )
    ]
    a, b, x, f = (f"{base}{rng.randrange(1000)}" for base in ("A", "B", "a", "f"))
    mismatch = (
        "system lambda-hol.\n"
        f"const {a} : *.\n"
        f"const {b} : *.\n"
        f"const {x} : {a}.\n"
        f"def {f} : {a} -> {a} := fun (y : {a}) => y.\n"
        f"check {f} {x} : {b}.\n"
    )
    name = "domain-mismatch.pts"
    (out / name).write_text(mismatch, encoding="utf-8")
    devs.append(
        Development(
            name,
            "negative",
            [],
            Expected(1, 5, failing="check", error_kind="DomainMismatch", defs=1),
        )
    )
    return devs


def chain_source(n: int, shape: random.Random, stems: str = "vh") -> tuple[str, int]:
    """A chain of ``n`` transparent definitions, each built from earlier ones.

    ``shape`` picks which earlier definitions each one uses; values are named
    ``stems[0]`` and parameterised definitions ``stems[1]``, plus a number.
    Returns the source and the number of definitions.  Every definition is
    well typed by construction: values have type ``A`` and the parameterised
    ones type ``A -> A``.
    """
    val, fun = stems
    lines = [
        "system lambda-hol.",
        "const A : *.",
        "const a : A.",
        "const f : A -> A.",
        "const g : A -> A -> A.",
        f"def {val}0 : A := a.",
        f"def {fun}0 : A -> A := fun (x : A) => g x a.",
    ]
    values, funs = [f"{val}0"], [f"{fun}0"]
    defs = 2
    for i in range(1, n - 1):
        v, w, h = shape.choice(values), shape.choice(values), shape.choice(funs)
        if i % 4 == 3:
            body = shape.choice([f"g x {v}", f"{h} (g {v} x)", f"f ({h} x)"])
            funs.append(f"{fun}{i}")
            lines.append(f"def {fun}{i} : A -> A := fun (x : A) => {body}.")
        else:
            body = shape.choice([f"f {v}", f"g {v} {w}", f"{h} {v}", f"g (f {v}) {w}"])
            values.append(f"{val}{i}")
            lines.append(f"def {val}{i} : A := {body}.")
        defs += 1
    lines.append(f"check {values[-1]} : A.")
    return "\n".join(lines) + "\n", defs


_NAT_PRELUDE = """system lambda-hol.
def Nat : * := forall (X : *), (X -> X) -> X -> X.
def zero : Nat := fun (X : *) (s : X -> X) (z : X) => z.
def succ : Nat -> Nat := fun (n : Nat) (X : *) (s : X -> X) (z : X) => s (n X s z).
def add : Nat -> Nat -> Nat := fun (m : Nat) (n : Nat) (X : *) (s : X -> X) (z : X) => m X s (n X s z).
def mul : Nat -> Nat -> Nat := fun (m : Nat) (n : Nat) (X : *) (s : X -> X) => m X (n X s).
"""


def _numeral(k: int) -> str:
    if k == 0:
        return "zero"
    return "succ (" * (k - 1) + "succ zero" + ")" * (k - 1)


def arith_source(rng: random.Random) -> tuple[str, Expected]:
    """Church arithmetic with true goals and one final false ``conv``."""
    goals = [("add", a, b, a + b) for a, b in ADD_PAIRS]  # (op, a, b, claimed value)
    goals += [("mul", a, b, a * b) for a, b in MUL_PAIRS]
    rng.shuffle(goals)
    checks = list(CHECKS)
    rng.shuffle(checks)
    false_a, false_b, wrong = FALSE_ADD
    assert false_a + false_b != wrong and max(wrong, *(g[3] for g in goals)) <= NUMERALS

    # Every file defines the same numerals, whichever the goals use.
    used = range(NUMERALS + 1)
    prefix = rng.choice("nkcm")
    name = {k: f"{prefix}{k}" for k in used}
    lines = [_NAT_PRELUDE.rstrip("\n")]
    for k in used:
        lines.append(f"def {name[k]} : Nat := {_numeral(k)}.")
    for op, a, b, c in goals:
        lines.append(f"conv ({op} {name[a]} {name[b]}) ({name[c]}).")
    for op, a, b in checks:
        lines.append(f"check {op} {name[a]} {name[b]} : Nat.")
    lines.append(f"conv (add {name[false_a]} {name[false_b]}) ({name[wrong]}).")
    src = "\n".join(lines) + "\n"
    n_defs = 5 + len(used)
    n_goals = len(goals) + len(checks) + 1
    # Every directive but the last reports ok; the false conv fails last.
    ok = 1 + n_defs + len(goals) + len(checks)
    return src, Expected(1, ok, failing="conv", error_kind="conv", defs=n_defs, goals=n_goals)


def deep_source(depth: int = DEEP_NESTING) -> str:
    """``check f (f (... a ...)) : A`` nested ``depth`` deep; well typed."""
    term = "f (" * (depth - 1) + "f a" + ")" * (depth - 1)
    return (
        "system lambda-hol.\n"
        "const A : *.\n"
        "const a : A.\n"
        "const f : A -> A.\n"
        f"check {term} : A.\n"
    )


TARGET_PROOF = "l₀ p₀ l₂ l₁"


def target_source() -> str:
    """A copy of the refined-axiomatic corpus file that names its ⊥-proof."""
    src = (ROOT / "corpus" / "refined-axiomatic.pts").read_text(encoding="utf-8")
    return src + f"def bottomProof : ⊥ := {TARGET_PROOF}.\n"


def generate(seed: int, out: Path) -> list[Development]:
    """Write every development for ``seed`` under ``out``; return their records."""
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    devs = _corpus(out) + _negatives(out, rng)
    for i in range(CHAIN_FILES):
        stems = "".join(rng.sample(CHAIN_STEMS, 2))
        src, defs = chain_source(CHAIN_DEFS, random.Random(f"chain-{i}"), stems)
        name = f"chain-{i}.pts"
        (out / name).write_text(src, encoding="utf-8")
        expected = Expected(0, _directive_count(src), defs=defs)
        devs.append(Development(name, "chain", [], expected))
    for i in range(ARITH_FILES):
        src, expected = arith_source(rng)
        name = f"arith-{i}.pts"
        (out / name).write_text(src, encoding="utf-8")
        devs.append(Development(name, "arith", [], expected))
    # The nesting depth does not depend on the seed: the file always fails today.
    (out / "deep.pts").write_text(deep_source(), encoding="utf-8")
    devs.append(Development("deep.pts", "deep", [], Expected(0, 5)))
    src = target_source()
    (out / "target.pts").write_text(src, encoding="utf-8")
    devs.append(Development("target.pts", "target", [], Expected(0, _directive_count(src))))
    manifest = [asdict(d) for d in devs]
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return devs


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    for d in generate(args.seed, args.out):
        print(f"{d.name}\t{d.kind}\texit={d.expected.exit}")


if __name__ == "__main__":
    main()
