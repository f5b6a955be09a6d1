"""Reference figures outside the gated runs: the single-run baseline sizes.

    python3 bench/reference.py            # about two minutes on one core

Times one ``pts`` command per line, in-process through ``cli.main``, the
way the benchmark does, at sizes too slow to repeat in a gated run: ``check``
on 500/1000/2000-definition chains, ``trace --steps 400`` folded and plain,
head-linear ``loop`` at bounds 100/200/400/1000 and head-def at bound 1000,
all on ``refined-axiomatic``.  It also counts the lines under ``src/``.
These are single runs, so only their order of magnitude counts.
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

from run import OUT, ROOT, Runner, _import_kernel


def main() -> None:
    cli = _import_kernel()
    import gen

    runner = Runner(cli, None, [])
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((ROOT / "src").rglob("*.py")))
    print(f"src/ lines\t{lines}")

    def timed(label: str, argv: list[str]) -> None:
        res, seconds = runner.call(argv)
        status = res.crash or f"exit {res.rc}"
        tail = res.out.strip().splitlines()[-1][:60] if res.out.strip() else res.err.strip()[:60]
        print(f"{label}\t{seconds:.3f} s\t{status}\t{tail}", flush=True)

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for n in (500, 1000, 2000):
            src, _ = gen.chain_source(n, random.Random(f"chain-{n}"))
            path = Path(tmp) / f"chain-{n}.pts"
            path.write_text(src, encoding="utf-8")
            timed(f"check chain of {n} definitions", ["check", str(path)])
    target = ["refined-axiomatic", "bottomProof"]
    timed("trace --steps 400 folded", ["trace", *target, "--steps", "400"])
    timed("trace --steps 400 plain", ["trace", *target, "--steps", "400", "--erase", "annotations"])
    timed("loop head-def --bound 1000", ["loop", *target, "--bound", "1000"])
    for bound in (100, 200, 400, 1000):
        timed(f"loop head-linear --bound {bound}",
              ["loop", *target, "--strategy", "head-linear", "--bound", str(bound)])


if __name__ == "__main__":
    main()
