"""Run one ``pts`` command through ``cli.main`` in a fresh process and print
its result as one JSON line: exit status, captured output and the type of
any exception ``cli.main`` let escape.

``python3 bench/isolated.py check bench/out/inputs/deep.pts``

The benchmark runs its known-faulty operation this way, so that the
operation's memory and frames stay out of the measuring process.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from pts_kernel import cli  # noqa: E402

out, err = io.StringIO(), io.StringIO()
rc, crash = None, ""
try:
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(sys.argv[1:])
except Exception as exc:  # a crash of the program is reported, not raised
    crash = type(exc).__name__
print(json.dumps({"rc": rc, "out": out.getvalue(), "err": err.getvalue(), "crash": crash}))
