"""Set-up probe: import ``pts_kernel`` and build the named corpus bundles in a
fresh process, then print the CPU seconds that took.

``python3 bench/probe.py simple refined-axiomatic``
"""

import sys
import time
from pathlib import Path

start = time.process_time()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from pts_kernel.corpus import get_bundle  # noqa: E402

for bundle in sys.argv[1:]:
    get_bundle(bundle)
print(f"{time.process_time() - start:.9f}")
