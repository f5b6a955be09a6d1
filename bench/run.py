"""Benchmark entry point: run one workload of ``pts`` commands and print its
metrics as the last line of standard output.

    python3 bench/run.py --workload check-dev --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs with span
recorders around every layer's public functions and prints the per-layer
metrics instead.  See ``bench/README.md`` for what each figure means.

All load comes from this one process and thread.  The only other processes
are the set-up probes, run one at a time between timed rounds, outside any
timing, and the known-faulty operation of ``check-dev``, run in a child of its
own so that its memory stays out of ``peak_rss_mib``.

Operations are timed in this process's CPU time, not wall-clock time: the
commands are single-threaded and do no I/O but reading their input file, and
CPU time leaves out the moments the process waits for a core on a shared
machine.  The rates count that time in reference passes (``calib.py``), one
run right before and one right after each command, so that a change in the
speed of the core moves the command and its yardstick together.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import reference_pass

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 15  # at least; one runs after every timed round


def _import_kernel():
    """Import ``pts_kernel`` from this checkout's ``src``, nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    try:
        import pts_kernel
    except ImportError as err:
        raise SystemExit(f"bench: cannot import pts_kernel from {ROOT / 'src'}: {err}")
    origin = Path(pts_kernel.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"bench: pts_kernel imported from {origin}, not from this checkout")
    from pts_kernel import cli

    return cli


def _child(script: str, args: list[str]) -> tuple[str, subprocess.CompletedProcess]:
    """Run ``script`` of the benchmark in a fresh process; return its last
    line of output (empty if none) and the finished process."""
    done = subprocess.run(
        [sys.executable, str(BENCH / script), *args],
        capture_output=True, text=True, timeout=120, check=False,
    )
    lines = done.stdout.strip().splitlines()
    return (lines[-1] if lines else ""), done


def setup_probe(bundles: tuple[str, ...]) -> float:
    """CPU seconds for a fresh process to import the kernel and build ``bundles``."""
    last, done = _child("probe.py", list(bundles))
    if done.returncode != 0 or not last:
        raise SystemExit(f"bench: set-up probe failed:\n{done.stderr[-2000:]}")
    return float(last)


class Runner:
    def __init__(self, cli, workload, ops) -> None:
        self.cli = cli
        self.workload = workload
        self.ops = ops
        self.reference = None  # results of the first round, checked by the oracles
        self.attempted = 0
        self.failed = 0
        self.items = [0] * len(ops)  # work units of each operation
        self.times: list[list[float]] = [[] for _ in ops]  # CPU seconds per round
        self.costs: list[list[float]] = [[] for _ in ops]  # reference passes per round

    def call(self, argv: list[str]):
        """Run one command in this process; return its result and CPU seconds."""
        from workloads import Result

        gc.collect()  # each command starts from a clean heap, as in its own process
        out, err = io.StringIO(), io.StringIO()
        crash = ""
        start = time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except Exception as exc:  # a crash of the program is a failed operation
            rc, crash = None, type(exc).__name__
        seconds = time.process_time() - start
        return Result(rc, out.getvalue(), err.getvalue(), crash), seconds

    @staticmethod
    def call_isolated(argv: list[str]):
        """Run one command in a child process; it is not timed.  A child
        that dies before reporting is a crash of the program."""
        from workloads import Result

        last, done = _child("isolated.py", argv)
        if done.returncode != 0 or not last:
            return Result(None, "", done.stderr[-2000:], crash=f"exit {done.returncode}")
        return Result(**json.loads(last))

    def round(self) -> float:
        """Run every operation once; return the round's cost in reference passes."""
        from workloads import Mismatch

        results = []
        total = 0.0
        before = None  # the reference pass that ran right before this op
        for i, op in enumerate(self.ops):
            if op.kind == 0:
                res, seconds, before = self.call_isolated(op.argv), 0.0, None
            else:
                if before is None:
                    before = reference_pass()
                res, seconds = self.call(op.argv)
                after = reference_pass()
                cost = seconds / ((before + after) / 2)
                before = after
            results.append(res)
            self.attempted += 1
            if self.workload.failed(op, res):
                self.failed += 1
            elif op.kind:
                self.items[i] = self.workload.items(op, res)
                self.times[i].append(seconds)
                self.costs[i].append(cost)
                total += cost
        if self.reference is None:
            self.reference = results
        else:
            for op, res, ref in zip(self.ops, results, self.reference):
                if res != ref:
                    raise Mismatch(f"{op.name}: output differs from the first round's")
        return total

    def run_for(self, seconds: float, minimum: int = 1, between=None) -> list[float]:
        """Whole rounds until ``seconds`` have passed; return their costs.
        ``between`` runs after each round, outside its timing."""
        costs = []
        start = time.perf_counter()
        while len(costs) < minimum or time.perf_counter() - start < seconds:
            costs.append(self.round())
            if between is not None:
                between()
        return costs

    def kind_rates(self, samples: list[list[float]], first: int) -> dict[int, float]:
        """Items of each kind per unit of ``samples`` (``costs`` or
        ``times``): its items over the sum of each of its operations' median
        sample among the rounds from ``first`` on."""
        rates = {}
        for k in (1, 2, 3):
            ops = [i for i, op in enumerate(self.ops) if op.kind == k and samples[i]]
            items = sum(self.items[i] for i in ops)
            cost = sum(statistics.median(samples[i][first:]) for i in ops)
            rates[k] = items / cost if cost else 0.0
        return rates


def main() -> int:
    ap = argparse.ArgumentParser(description="pts-kernel benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    cli = _import_kernel()
    import gen
    from workloads import WORKLOADS, Mismatch

    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()

    inputs = OUT / f"inputs-{args.workload}-{args.seed}"
    shutil.rmtree(inputs, ignore_errors=True)
    gen.generate(args.seed, inputs)
    runner = Runner(cli, workload, workload.ops(inputs, args.seed))
    metrics: dict[str, tuple[float, str]] = {}
    correct = True
    try:
        metrics = traced(runner, workload, args) if args.trace else untraced(runner, workload, args)
        workload.check(runner.ops, runner.reference)
    except Mismatch as err:
        print(f"bench: wrong output: {err}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def untraced(runner: Runner, workload, args) -> dict:
    """Timed rounds: the end-to-end metrics."""
    runner.round()  # warm-up; its outputs are the ones the oracles check
    # Set-up probes are spread over the run, so that their median does not
    # hang on one moment's load on the machine.
    probes: list[float] = []
    runner.run_for(args.seconds, minimum=3,
                   between=lambda: probes.append(setup_probe(workload.bundles)))
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(workload.bundles))
    rates = runner.kind_rates(runner.costs, 1)
    seconds = runner.kind_rates(runner.times, 1)  # these move with the host's speed
    print("bench: items per CPU second (not gated): "
          + ", ".join(f"kind{k} {seconds[k]:.1f}" for k in (1, 2, 3)), file=sys.stderr)
    return {
        "setup_s": (statistics.median(probes), "s"),
        "peak_rss_mib": (peak_mib, "MiB"),
        **{f"kind{k}_per_ref": (rates[k], "1/ref") for k in (1, 2, 3)},
    }


def traced(runner: Runner, workload, args) -> dict:
    """Traced rounds: per-layer self times and counts, as means per round."""
    from pts_kernel import corpus
    from tracer import TOTAL, Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    for bundle in workload.bundles:
        corpus.get_bundle(bundle)  # looked up after install, so the wrapper runs
    bundle_s = tracer.snapshot()["corpus.get_bundle"][TOTAL]
    runner.round()  # traced warm-up; the oracles check its outputs
    tracer.reset()
    traced_rounds = runner.run_for(args.seconds)
    snap = tracer.snapshot()
    tracer.uninstall()
    plain_rounds = runner.run_for(0, minimum=2)
    tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.tsv")

    metrics = {k: (v, _unit(k)) for k, v in layer_metrics(snap, len(traced_rounds)).items()}
    metrics["corpus.get_bundle_s"] = (bundle_s, "s")
    metrics["trace.overhead_ratio"] = (
        statistics.mean(traced_rounds) / statistics.median(plain_rounds), "ratio")
    metrics["trace.spans"] = (tracer.spans_recorded(), "count")
    return metrics


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("per_loop_step"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
